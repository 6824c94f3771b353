#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the dfl protocol.

Builds bench/e2e (a standalone Release CMake project over ../../src), runs
each workload through dfl_e2e one process per run, checks the outputs,
prints every metric by name with its unit, and writes a results JSON.
Metric units, directions and regression bounds come from BENCHMARK.json at
the repository root; this file defines how each metric is computed.

  python3 bench/e2e/run.py                       # all workloads, seed 1
  python3 bench/e2e/run.py --trace               # + per-layer metrics
  python3 bench/e2e/run.py --workload churn-10k --seed 3 --seconds 10 --trace 0
  python3 bench/e2e/run.py --runs 5 --out set-a.json
  python3 bench/e2e/run.py compare set-a.json set-b.json

End-to-end metrics come from untraced runs and are medians over them.
With --trace one more, traced run supplies the per-layer metrics; its
results must equal the untraced runs'. When one workload is run, the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics, or per-layer metrics with --trace).
Attempted and failed count FL rounds: a round fails when its global update
is not assembled. Exit status is 0 only when every check passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
EXE = BUILD / "dfl_e2e"
RUN_TIMEOUT_S = 170

# Counters that are wall-clock measurements; every other field of a run
# is a simulated or counted result and must repeat exactly for one seed.
WALL_COUNTERS = {"crypto.commit_busy_s", "crypto.verify_busy_s"}

E2E = {
    "setup_s": lambda r: r["setup_s"],
    "run_wall_s": lambda r: r["run_wall_s"],
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
    "sim_ready_p50_s": lambda r: r["sim_ready_p50_s"],
    "sim_ready_p90_s": lambda r: r["sim_ready_p90_s"],
    "ready_share": lambda r: r["ready"] / r["attempted"],
    "agg_rx_mb": lambda r: r["agg_rx_mb"],
    "net_mb_per_round": lambda r: r["net_mb_per_round"],
}


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(t, wall):
    """Per-layer metrics of traced run `t`; `wall` is the untraced median
    run_wall_s, the base of every share."""
    c, rp, ob = t["counters"], t["replay"], t["obs"]
    rounds = t["rounds"]
    events = c["sim.events"]
    hashed = c["ipfs.blocks_hashed"]
    crypto_busy = c["crypto.commit_busy_s"] + c["crypto.verify_busy_s"]
    round_ms = t["round_wall_ms"] or [t["run_wall_s"] * 1e3 / rounds]
    cp_total = ob["cp_total_ns"]
    return {
        "sim.events_per_round": events / rounds,
        "sim.events_per_s": ratio(events, wall),
        "sim.replay_ns_per_event": ratio(rp["sim_s"] * 1e9, events),
        "sim.fault.crashes": c["sim.fault.crashes"],
        "sim.fault.transfers_jittered": c["sim.fault.transfers_jittered"],
        "sim.fault.transfers_dropped": c["sim.fault.transfers_dropped"],
        "ipfs.hashed_mb_per_round": c["ipfs.bytes_hashed"] / rounds / 1e6,
        "ipfs.cid_cache_hit_ratio": ratio(c["ipfs.cid_cache_hits"],
                                          c["ipfs.cid_cache_hits"] + hashed),
        "ipfs.copied_mb": c["ipfs.bytes_copied"] / 1e6,
        "ipfs.hash_replay_s": rp["hash_s"],
        "ipfs.hash_share": ratio(rp["hash_s"], wall),
        "ipfs.peak_block_mb": c["ipfs.peak_block_bytes"] / 1e6,
        "ipfs.chunks_delivered": c["ipfs.chunks_delivered"],
        "ipfs.first_byte_s": c["ipfs.first_byte_s"],
        "ipfs.last_byte_s": c["ipfs.last_byte_s"],
        "ipfs.rpc.attempts": c["ipfs.rpc.attempts"],
        "ipfs.rpc.retry_ratio": ratio(c["ipfs.rpc.retries"], c["ipfs.rpc.attempts"]),
        "ipfs.rpc.timeouts": c["ipfs.rpc.timeouts"],
        "ipfs.rpc.failovers": c["ipfs.rpc.failovers"],
        "ipfs.rpc.giveups": c["ipfs.rpc.giveups"],
        "directory.polls_per_round": c["directory.polls"] / rounds,
        "directory.announce_messages": c["directory.announce_messages"],
        "directory.bytes_out_mb": c["directory.bytes_out"] / 1e6,
        "core.round_wall_ms.p50": statistics.median_low(round_ms),
        "core.round_wall_ms.n": len(t["round_wall_ms"]) or 1,
        "core.codec.compression": c["core.codec.compression"],
        "core.codec.encode_replay_ms": rp["encode_ms"],
        "core.codec.decode_replay_ms": rp["decode_ms"],
        "core.codec.share": ratio(rp["codec_s"], wall),
        "core.fresh_folds": c["core.fresh_folds"],
        "core.stale_folds": c["core.stale_folds"],
        "crypto.commits_per_round": c["crypto.commits"] / rounds,
        "crypto.verifies_per_round": c["crypto.verifies"] / rounds,
        "crypto.batch_verifies_per_round": c["crypto.batch_verifies"] / rounds,
        "crypto.commit_busy_s": c["crypto.commit_busy_s"],
        "crypto.verify_busy_s": c["crypto.verify_busy_s"],
        "crypto.busy_share": ratio(crypto_busy, wall),
        "crypto.commit_replay_ms": rp["commit_ms"],
        "obs.overhead": ratio(t["run_wall_s"], wall) - 1,
        "obs.spans": ob["spans"],
        "obs.cp.train_share": ratio(ob["cp_train_ns"], cp_total),
        "obs.cp.wire_share": ratio(ob["cp_wire_ns"], cp_total),
        "obs.cp.queue_share": ratio(ob["cp_queue_ns"], cp_total),
        "obs.cp.crypto_share": ratio(ob["cp_crypto_ns"], cp_total),
        "obs.cp.merge_share": ratio(ob["cp_merge_ns"], cp_total),
        "obs.cp.stale_share": ratio(ob["cp_stale_ns"], cp_total),
        "wall.residual_share":
            1 - ratio(rp["hash_s"] + rp["codec_s"] + rp["sim_s"] + crypto_busy, wall),
    }


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    """Workload names and the end-to-end and per-layer metric specs."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    spec = json.loads(path.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    if set(e2e) != set(E2E):
        fail("BENCHMARK.json end_to_end names differ from the metrics run.py computes")
    return [w["name"] for w in spec["workloads"]], e2e, layers


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", "4"]]
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")


def run_once(workload, seed, traced, mean_check, trace_out=None):
    cmd = [str(EXE), "--workload", workload,
           "--scenario", str(HERE / "workloads" / f"{workload}.scn"), "--seed", str(seed)]
    if not mean_check:
        cmd.append("--no-mean-check")
    if traced:
        cmd.append("--trace")
        if trace_out:
            cmd += ["--trace-out", trace_out]
    # One thread for the shared generator-derivation pool: verifiable's two
    # crypto-engine threads are then the only extra threads, and its
    # set-up time does not swing with how busy the other cores are.
    env = dict(os.environ, DFL_LOG_LEVEL="error", DFL_THREADS="1")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"dfl_e2e timed out after {RUN_TIMEOUT_S} s"
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        return None, f"dfl_e2e exited {p.returncode}: {p.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    return result, None if p.returncode == 0 else "; ".join(result["failures"])


def signature(r):
    """Everything in a run that must repeat exactly for one seed."""
    counters = {k: v for k, v in r["counters"].items() if k not in WALL_COUNTERS}
    keys = ["fingerprints", "attempted", "ready", "rounds_complete", "sim_ready_p50_s",
            "sim_ready_p90_s", "agg_rx_mb", "net_mb_per_round"]
    return json.dumps({"counters": counters, **{k: r[k] for k in keys}}, sort_keys=True)


def summarize(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def bench_workload(workload, args, e2e_spec, layer_spec, golden):
    failures = []
    runs = []
    start = time.monotonic()
    while len(runs) < args.runs or time.monotonic() - start < args.seconds:
        # Repeat runs skip the direct-mean recomputation: their
        # fingerprints must equal the first run's, which did it.
        r, err = run_once(workload, args.seed, traced=False, mean_check=not runs)
        if err:
            failures.append(err)
        if r is None:
            break
        runs.append(r)
    traced = None
    if args.trace and runs:
        traced, err = run_once(workload, args.seed, traced=True, mean_check=False,
                               trace_out=args.trace_out)
        if err:
            failures.append(f"traced run: {err}")
    every = runs + ([traced] if traced else [])
    if any(signature(r) != signature(every[0]) for r in every):
        failures.append("runs of one seed differ in fingerprints, simulated metrics or counters")
    if golden and args.seed == golden["seed"] and runs:
        if runs[0]["fingerprints"] != golden["fingerprints"].get(workload):
            failures.append(f"fingerprints differ from golden.json at seed {golden['seed']}")

    out = {"seed": args.seed, "runs": runs, "traced_run": traced, "failures": failures,
           "rounds_attempted": sum(r["rounds"] for r in every),
           "rounds_failed": sum(r["rounds"] - r["rounds_complete"] for r in every)}
    if runs:
        out["isa"] = runs[0]["isa"]
        out["end_to_end"] = {name: {"unit": e2e_spec[name]["unit"],
                                    **summarize([fn(r) for r in runs])}
                             for name, fn in E2E.items()}
    if traced:
        wall = out["end_to_end"]["run_wall_s"]["median"]
        layers = per_layer(traced, wall)
        if set(layers) != set(layer_spec):
            failures.append("BENCHMARK.json per_layer names differ from the metrics run.py computes")
        out["per_layer"] = {k: {"unit": layer_spec.get(k, {}).get("unit", "?"), "value": v}
                            for k, v in layers.items()}
    return out


def report(workload, res):
    print(f"== {workload} (seed {res['seed']}, {len(res['runs'])} untraced run(s), "
          f"isa {res.get('isa', '?')}) ==")
    for name, m in res.get("end_to_end", {}).items():
        print(f"  {name:<34} {m['median']:>14.6g} {m['unit']:<9} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}")
    if res["runs"]:
        r = res["runs"][0]
        print(f"  {'(trainer-rounds ready / attempted)':<34} {r['ready']} / {r['attempted']}")
    for name, m in res.get("per_layer", {}).items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    if res["traced_run"]:
        ob = res["traced_run"]["obs"]
        print(f"  traced run: {ob['spans']:.0f} spans, {ob['transfers']:.0f} transfers, "
              f"{ob['dropped_spans']:.0f} dropped spans, "
              f"{ob['dropped_transfers']:.0f} dropped transfers")
    print("  checks: " + ("all passed" if not res["failures"] else "FAILED"))
    for f in res["failures"]:
        print(f"    - {f}")


def cell(m):
    return f"{m['median']:.5g} [{m['q1']:.5g}, {m['q3']:.5g}] {m['n']}"


def compare(path_a, path_b):
    _, e2e_spec, _ = load_spec()
    a, b = (json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b))
    worse = 0
    print(f"{'workload':<13} {'metric':<17} {'A median [q1, q3] n':<36} "
          f"{'B median [q1, q3] n':<36} {'change':>8}  verdict")
    for workload in [w for w in a if w in b]:
        for name, spec in e2e_spec.items():
            ma, mb = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            lower = spec["better"] == "lower"
            change = ratio(mb["median"] - ma["median"], ma["median"])
            worsening = change if lower else -change
            spread = max(ratio(ma["q3"] - ma["q1"], ma["median"]),
                         ratio(mb["q3"] - mb["q1"], mb["median"]))
            b_beats_all = (max(mb["values"]) < min(ma["values"]) if lower
                           else min(mb["values"]) > max(ma["values"]))
            if spread > spec["bound"] and not b_beats_all:
                verdict = "unresolved"
            elif worsening > spec["bound"]:
                verdict = "worse"
            elif -worsening > spec["bound"]:
                verdict = "better"
            else:
                verdict = "same"
            worse += verdict == "worse"
            print(f"{workload:<13} {name:<17} {cell(ma):<36} {cell(mb):<36} "
                  f"{change:>+8.2%}  {verdict} (bound {spec['bound']:.0%})")
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare A.json B.json")
        return compare(sys.argv[2], sys.argv[3])
    all_workloads, e2e_spec, layer_spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=all_workloads,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--runs", type=int, default=1, help="minimum untraced runs per workload")
    ap.add_argument("--seconds", type=float, default=0,
                    help="keep starting untraced runs until this much time has passed")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1],
                    help="add a traced run and report the per-layer metrics")
    ap.add_argument("--trace-out", help="write the traced run's Perfetto JSON here")
    ap.add_argument("--out", default=str(BUILD / "results.json"), help="results JSON path")
    args = ap.parse_args()
    workloads = args.workload or all_workloads
    if args.trace_out and len(workloads) != 1:
        fail("--trace-out needs exactly one --workload")

    build()
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else None

    results = {}
    for w in workloads:
        results[w] = bench_workload(w, args, e2e_spec, layer_spec, golden)
        report(w, results[w])
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"workloads": results}, indent=1) + "\n")
    print(f"results -> {args.out}")

    correct = all(not r["failures"] for r in results.values())
    if len(workloads) == 1:
        res = results[workloads[0]]
        section = res.get("per_layer", {}) if args.trace else res.get("end_to_end", {})
        metrics = {k: {"value": m["value" if args.trace else "median"], "unit": m["unit"]}
                   for k, m in section.items()}
        print(json.dumps({"correct": correct, "attempted": max(1, res["rounds_attempted"]),
                          "failed": res["rounds_failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
