// dfl_e2e — one end-to-end benchmark run of a named workload.
//
// Builds the workload's core::Deployment from its scenario file (links,
// chaos, scale) plus the protocol options below, drives every round, checks
// the results, and prints one JSON object on stdout: wall-clock set-up and
// round time, peak RSS, the simulated protocol metrics, per-round aggregate
// fingerprints, and the raw per-layer counters. One (workload, seed) per
// process, so peak RSS and the process-wide data-plane counters belong to
// this run alone. bench/e2e/run.py is the user-facing command.
//
//   dfl_e2e --workload paper-sync --scenario bench/e2e/workloads/paper-sync.scn --seed 1
//   dfl_e2e ... --trace [--trace-out trace.json]
//
// --trace turns on the span tracer and the network transfer log (both
// uncapped), records bench-side wall spans around set-up, every round and
// every replay, and runs the layer replays: SHA-256, payload codec, one
// Pedersen commit and the event queue, each sized from this run's own
// counters. Exit status: 0 when every check passed, 1 when one failed,
// 2 on a usage or set-up error.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/codec.hpp"
#include "core/payload.hpp"
#include "core/runner.hpp"
#include "core/trace_export.hpp"
#include "crypto/backend.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"
#include "sim/datapath.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace dfl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Protocol options a .scn file cannot express. Scale, links and chaos
/// live in the workload's scenario file; this is the rest.
bool configure_workload(const std::string& name, core::ProtocolOptions& o) {
  if (name == "paper-sync") {
    o.chunking = ipfs::ChunkingMode::kDag;
    o.chunk_size = 256 * 1024;
    o.chunk_pipeline = 2;
  } else if (name == "async-quant8") {
    o.async_rounds = true;
    o.codec = core::Codec::kQuant;
    o.quant_bits = 8;
  } else if (name == "verifiable") {
    o.verifiable = true;
    o.batch_verify = true;
    o.audit_updates = true;
    o.crypto_threads = 2;
  } else if (name != "churn-10k") {
    return false;
  }
  return true;
}

/// Wall span on this thread's wall track; inert while tracing is off.
class WallSpan {
 public:
  explicit WallSpan(const char* name) : token_(obs::Tracer::instance().begin_wall(name)) {}
  ~WallSpan() { obs::Tracer::instance().end_wall(token_); }
  WallSpan(const WallSpan&) = delete;
  WallSpan& operator=(const WallSpan&) = delete;

 private:
  obs::SpanToken token_;
};

std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double d : v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &d, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Median wall seconds of `fn` over at least `min_reps` calls and until
/// `budget_s` has been spent (at most 1000 calls).
template <typename Fn>
double time_median(Fn&& fn, std::size_t min_reps, double budget_s) {
  Summary samples;
  const auto start = Clock::now();
  while (samples.count() < 1000 &&
         (samples.count() < min_reps || seconds_since(start) < budget_s)) {
    const auto t0 = Clock::now();
    fn();
    samples.add(seconds_since(t0));
  }
  return samples.percentile(50);
}

/// Replays the event engine's work: `events` no-op events through
/// schedule_at/run with one pending event per host, each rescheduling
/// itself a pseudo-random 1..100 ms ahead. Returns wall seconds.
double replay_events(std::size_t hosts, std::uint64_t events) {
  struct Replay {
    sim::Simulator sim;
    Rng rng{7};
    std::uint64_t left = 0;
    void fire() {
      if (left == 0) return;
      --left;
      sim.schedule_at(sim.now() + sim::from_millis(1 + static_cast<double>(rng.uniform(100))),
                      [this] { fire(); });
    }
  } r;
  r.left = events;
  for (std::size_t h = 0; h < hosts && r.left > 0; ++h) {
    --r.left;
    r.sim.schedule_at(sim::from_millis(static_cast<double>(h % 100)), [&r] { r.fire(); });
  }
  const auto t0 = Clock::now();
  r.sim.run();
  return seconds_since(t0);
}

struct Json {
  std::ostringstream os;
  bool first = true;
  Json() { os.precision(17); }
  std::ostringstream& key(const char* k) {
    os << (first ? "" : ", ") << '"' << k << "\": ";
    first = false;
    return os;
  }
  void num(const char* k, double v) { key(k) << v; }
  void str(const char* k, const std::string& v) { key(k) << '"' << v << '"'; }
  void boolean(const char* k, bool v) { key(k) << (v ? "true" : "false"); }
  void raw(const char* k, const std::string& v) { key(k) << v; }
  [[nodiscard]] std::string object() const { return "{" + os.str() + "}"; }
};

template <typename T>
std::string array(const std::vector<T>& v) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
  os << ']';
  return os.str();
}

std::string string_array(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) out += (i ? ", \"" : "\"") + v[i] + "\"";
  return out + "]";
}

int usage() {
  std::fprintf(stderr,
               "usage: dfl_e2e --workload NAME --scenario FILE [--seed N] [--trace]\n"
               "               [--trace-out FILE] [--no-mean-check]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string scenario_path;
  std::string trace_out;
  std::uint64_t seed = 1;
  bool trace = false;
  bool mean_check = true;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--scenario" && has_value) {
      scenario_path = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      trace = true;
    } else if (a == "--no-mean-check") {
      mean_check = false;
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage();
    }
  }
  core::ProtocolOptions unused;
  if (scenario_path.empty() || !configure_workload(workload, unused)) return usage();

  obs::Tracer& tracer = obs::Tracer::instance();
  if (trace) {
    tracer.set_span_limit(SIZE_MAX);
    obs::set_tracing(true);
  }

  // Set-up: scenario load + apply_scenario + Deployment construction.
  // Untraced runs repeat it for at least kSetupBudgetS of wall time and
  // report the median, so even a set-up of microseconds is timed after the
  // process's start-up transient; the last deployment runs the rounds.
  constexpr std::size_t kMinSetups = 3;
  constexpr std::size_t kMaxSetups = 10000;
  constexpr double kSetupBudgetS = 0.25;
  const std::size_t min_setups = trace ? 1 : kMinSetups;
  const double setup_budget_s = trace ? 0 : kSetupBudgetS;
  std::unique_ptr<core::Deployment> d;
  int rounds = 0;
  Summary setup_s;
  const auto setup_start = Clock::now();
  try {
    while (setup_s.count() < min_setups ||
           (setup_s.count() < kMaxSetups && seconds_since(setup_start) < setup_budget_s)) {
      d.reset();
      const auto t0 = Clock::now();
      core::DeploymentConfig cfg;
      {
        WallSpan span("e2e.scenario_load");
        rounds = core::apply_scenario(sim::load_scenario_file(scenario_path), cfg);
      }
      configure_workload(workload, cfg.options);
      cfg.seed = seed;
      cfg.scenario.rounds = rounds;
      {
        WallSpan span("e2e.deployment");
        d = std::make_unique<core::Deployment>(cfg);
      }
      setup_s.add(seconds_since(t0));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfl_e2e: set-up failed: %s\n", e.what());
    return 2;
  }
  if (rounds <= 0) {
    std::fprintf(stderr, "dfl_e2e: %s sets no round count\n", scenario_path.c_str());
    return 2;
  }
  const core::DeploymentConfig& cfg = d->config();
  sim::Network& net = d->context().net;
  if (trace) {
    net.set_tracing(true);
    net.set_trace_limit(0);
  }

  // Round phase: the run_round loop (sync) or run() (async), first-round
  // lazy initialisation included.
  const sim::DataPathStats dp_before = sim::datapath_stats();
  const std::uint64_t events_before = d->simulator().events_processed();
  std::vector<core::RoundMetrics> metrics;
  std::vector<std::vector<double>> updates;
  std::vector<double> round_wall_ms;
  const auto run_start = Clock::now();
  if (cfg.options.async_rounds) {
    WallSpan span("e2e.run");
    core::RunSummary summary = d->run(rounds);
    metrics = std::move(summary.rounds);
    updates = std::move(summary.updates);
  } else {
    for (int r = 0; r < rounds; ++r) {
      WallSpan span("e2e.run_round");
      const auto t0 = Clock::now();
      metrics.push_back(d->run_round(static_cast<std::uint32_t>(r)));
      updates.push_back(d->last_global_update());
      round_wall_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  const double run_wall_s = seconds_since(run_start);
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) * 1024.0 / 1e6;
  const sim::DataPathStats dp = sim::datapath_stats().since(dp_before);
  const std::uint64_t events = d->simulator().events_processed() - events_before;

  std::vector<std::string> failures;
  auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  };
  check(static_cast<int>(metrics.size()) == rounds && static_cast<int>(updates.size()) == rounds,
        "round count");

  // Simulated protocol metrics over attempted (trainer, round) pairs.
  Summary ready_s;
  std::uint64_t attempted = 0;
  std::uint64_t rounds_complete = 0;
  double agg_rx_bytes = 0;
  ipfs::RetryStats rpc;
  sim::FaultStats faults;
  core::CodecRecord codec;
  core::CriticalPathRecord cp;
  std::uint64_t uploads = 0;
  std::uint64_t fresh_folds = 0;
  std::uint64_t stale_folds = 0;
  std::uint64_t rejected = 0;
  std::uint64_t audits_failed = 0;
  std::uint64_t cp_rounds = 0;
  for (const core::RoundMetrics& m : metrics) {
    for (const core::TrainerRecord& t : m.trainers) {
      ++attempted;
      uploads += static_cast<std::uint64_t>(t.uploads);
      audits_failed += t.audit_failed ? 1 : 0;
      if (t.model_ready_at >= 0) ready_s.add(sim::to_seconds(t.model_ready_at - m.round_start));
    }
    for (const core::AggregatorRecord& a : m.aggregators) {
      fresh_folds += a.fresh_folds;
      stale_folds += a.stale_folds;
    }
    rounds_complete += m.global_update_complete ? 1 : 0;
    agg_rx_bytes += m.mean_aggregator_bytes();
    rpc += m.rpc_totals();
    faults.crashes += m.faults.crashes;
    faults.transfers_jittered += m.faults.transfers_jittered;
    faults.transfers_dropped += m.faults.transfers_dropped;
    codec.raw_bytes += m.codec.raw_bytes;
    codec.encoded_bytes += m.codec.encoded_bytes;
    rejected += static_cast<std::uint64_t>(m.rejected_updates);
    if (m.critical_path.analyzed) {
      ++cp_rounds;
      cp.total_ns += m.critical_path.total_ns;
      cp.train_ns += m.critical_path.train_ns;
      cp.wire_ns += m.critical_path.wire_ns;
      cp.queue_ns += m.critical_path.queue_ns;
      cp.crypto_ns += m.critical_path.crypto_ns;
      cp.merge_ns += m.critical_path.merge_ns;
      cp.stale_ns += m.critical_path.stale_ns;
    }
  }
  const std::size_t num_params = cfg.partition_elements * cfg.num_partitions;
  const int frac_bits = cfg.options.frac_bits;
  const core::CodecConfig cc = core::codec_config(cfg.options);

  // Workloads whose chaos can only delay transfers, never lose them: every
  // round assembles its global update, and that update equals, bit for
  // bit, the mean of every trainer's gradient (as reconstructed by the
  // codec) computed straight from a second gradient source — the
  // single-worker baseline. --no-mean-check skips the recomputation for
  // repeat runs of a seed, whose fingerprints the caller compares instead.
  const sim::FaultPlan& plan = cfg.fault_plan;
  const bool lossless =
      plan.crashes.empty() && plan.transfer_failure_prob <= 0 && plan.corruption_prob <= 0;
  if (lossless) {
    check(rounds_complete == metrics.size(), "every round assembles its global update");
  }
  if (lossless && mean_check) {
    core::SyntheticGradientSource reference(num_params, cfg.train_time, cfg.seed, frac_bits);
    for (std::size_t r = 0; r < updates.size(); ++r) {
      std::vector<std::vector<std::int64_t>> grads;
      for (std::uint32_t t = 0; t < cfg.num_trainers; ++t) {
        grads.push_back(reference.gradient(t, static_cast<std::uint32_t>(r)));
      }
      std::vector<double> mean;
      mean.reserve(num_params);
      for (std::size_t p = 0; p < cfg.num_partitions; ++p) {
        const std::size_t first = p * cfg.partition_elements;
        core::Payload sum;
        sum.values.assign(cfg.partition_elements + 1, 0);
        for (std::uint32_t t = 0; t < cfg.num_trainers; ++t) {
          core::Payload g;
          g.values.assign(grads[t].begin() + static_cast<std::ptrdiff_t>(first),
                          grads[t].begin() +
                              static_cast<std::ptrdiff_t>(first + cfg.partition_elements));
          g.values.push_back(1);
          if (cc.codec != core::Codec::kDense) {
            g = core::reconstruct_payload(
                g, cc,
                core::codec_seed(t, static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(p)));
          }
          for (std::size_t i = 0; i < sum.values.size(); ++i) sum.values[i] += g.values[i];
        }
        const std::vector<double> avg = sum.average(frac_bits);
        mean.insert(mean.end(), avg.begin(), avg.end());
      }
      check(updates[r] == mean, "round " + std::to_string(r) + " update equals the direct mean");
    }
  }
  const directory::DirectoryStats& dir = d->directory().stats();
  if (cfg.options.verifiable) {
    check(rejected == 0, "no rejected updates");
    check(dir.verifications_failed == 0, "no failed verifications");
    check(audits_failed == 0, "no failed audits");
  }

  std::vector<std::string> fingerprints;
  for (const auto& u : updates) {
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(u.empty() ? 0 : fnv1a(u)));
    fingerprints.emplace_back(hex);
  }

  const crypto::EngineStats es = d->engine() != nullptr ? d->engine()->stats() : crypto::EngineStats{};

  Json out;
  out.str("workload", workload);
  out.num("seed", static_cast<double>(seed));
  out.boolean("traced", trace);
  out.str("isa", crypto::active_isa());
  out.num("rounds", rounds);
  out.num("hosts", static_cast<double>(net.host_count()));
  out.num("setup_s", setup_s.percentile(50));
  out.num("setups", static_cast<double>(setup_s.count()));
  out.num("run_wall_s", run_wall_s);
  out.num("peak_rss_mb", peak_rss_mb);
  out.num("attempted", static_cast<double>(attempted));
  out.num("ready", static_cast<double>(ready_s.count()));
  out.num("rounds_complete", static_cast<double>(rounds_complete));
  out.num("sim_ready_p50_s", ready_s.count() == 0 ? 0 : ready_s.percentile(50));
  out.num("sim_ready_p90_s", ready_s.count() == 0 ? 0 : ready_s.percentile(90));
  out.num("agg_rx_mb", agg_rx_bytes / static_cast<double>(rounds) / 1e6);
  out.num("net_mb_per_round",
          static_cast<double>(net.total_bytes_transferred()) / rounds / 1e6);
  out.raw("fingerprints", string_array(fingerprints));
  out.raw("round_wall_ms", array(round_wall_ms));

  Json c;
  c.num("sim.events", static_cast<double>(events));
  c.num("sim.fault.crashes", static_cast<double>(faults.crashes));
  c.num("sim.fault.transfers_jittered", static_cast<double>(faults.transfers_jittered));
  c.num("sim.fault.transfers_dropped", static_cast<double>(faults.transfers_dropped));
  c.num("ipfs.bytes_hashed", static_cast<double>(dp.bytes_hashed));
  c.num("ipfs.blocks_hashed", static_cast<double>(dp.blocks_hashed));
  c.num("ipfs.cid_cache_hits", static_cast<double>(dp.cid_cache_hits));
  c.num("ipfs.bytes_copied", static_cast<double>(dp.bytes_copied));
  c.num("ipfs.peak_block_bytes", static_cast<double>(dp.peak_resident_block_bytes));
  c.num("ipfs.chunks_delivered", static_cast<double>(dp.chunks_delivered));
  c.num("ipfs.first_byte_s", dp.mean_first_byte_s());
  c.num("ipfs.last_byte_s", dp.mean_last_byte_s());
  c.num("ipfs.rpc.attempts", static_cast<double>(rpc.attempts));
  c.num("ipfs.rpc.retries", static_cast<double>(rpc.retries));
  c.num("ipfs.rpc.timeouts", static_cast<double>(rpc.timeouts));
  c.num("ipfs.rpc.failovers", static_cast<double>(rpc.failovers));
  c.num("ipfs.rpc.giveups", static_cast<double>(rpc.giveups));
  c.num("directory.polls", static_cast<double>(dir.polls));
  c.num("directory.announce_messages", static_cast<double>(dir.announce_messages));
  c.num("directory.bytes_out", static_cast<double>(dir.bytes_out));
  c.num("core.uploads", static_cast<double>(uploads));
  c.num("core.codec.compression", codec.compression());
  c.num("core.fresh_folds", static_cast<double>(fresh_folds));
  c.num("core.stale_folds", static_cast<double>(stale_folds));
  c.num("crypto.commits", static_cast<double>(es.commits));
  c.num("crypto.verifies", static_cast<double>(es.verifies));
  c.num("crypto.batch_verifies", static_cast<double>(es.batch_verifies));
  c.num("crypto.commit_busy_s", static_cast<double>(es.commit_wall_ns) * 1e-9);
  c.num("crypto.verify_busy_s", static_cast<double>(es.verify_wall_ns) * 1e-9);
  out.raw("counters", c.object());

  if (trace) {
    // Layer replays, each sized from this run's own counters.
    Json rp;
    {
      WallSpan span("e2e.replay.sim");
      rp.num("sim_s", replay_events(net.host_count(), events));
    }
    {
      WallSpan span("e2e.replay.sha256");
      const std::uint64_t blocks = dp.blocks_hashed;
      const std::size_t block = blocks == 0 ? 0 : static_cast<std::size_t>(dp.bytes_hashed / blocks);
      Bytes buf(block);
      Rng(seed).fill_bytes(buf.data(), buf.size());
      const auto t0 = Clock::now();
      for (std::uint64_t i = 0; i < blocks; ++i) (void)crypto::Sha256::hash(buf);
      rp.num("hash_s", seconds_since(t0));
    }
    {
      WallSpan span("e2e.replay.codec");
      core::SyntheticGradientSource source(cfg.partition_elements, cfg.train_time, seed, frac_bits);
      core::Payload p;
      p.values = source.gradient(0, 0);
      p.values.push_back(1);
      Bytes wire;
      const double enc = time_median([&] { wire = core::encode_payload(p, cc, 1); }, 5, 0.2);
      core::Payload back;
      const double dec = time_median([&] { back = core::decode_payload(wire, cc); }, 5, 0.2);
      check(back.values.size() == p.values.size(), "codec replay round-trips");
      rp.num("encode_ms", enc * 1e3);
      rp.num("decode_ms", dec * 1e3);
      // Every upload is encoded once and folded (decoded) once; lossy
      // codecs also decode at the trainer, which commits to what ships.
      const double decodes = static_cast<double>(uploads) * (cc.codec == core::Codec::kDense ? 1 : 2);
      rp.num("codec_s", enc * static_cast<double>(uploads) + dec * decodes);
    }
    if (d->engine() != nullptr) {
      WallSpan span("e2e.replay.commit");
      core::SyntheticGradientSource source(cfg.partition_elements, cfg.train_time, seed, frac_bits);
      std::vector<std::int64_t> v = source.gradient(0, 0);
      v.push_back(1);
      rp.num("commit_ms", time_median([&] { (void)d->engine()->commit(v); }, 3, 0) * 1e3);
    } else {
      rp.num("commit_ms", 0);
    }
    out.raw("replay", rp.object());

    Json ob;
    ob.num("spans", static_cast<double>(tracer.span_count()));
    ob.num("dropped_spans", static_cast<double>(tracer.dropped_spans()));
    ob.num("transfers", static_cast<double>(net.trace().size()));
    ob.num("dropped_transfers", static_cast<double>(net.trace().dropped()));
    ob.num("cp_rounds", static_cast<double>(cp_rounds));
    ob.num("cp_total_ns", static_cast<double>(cp.total_ns));
    ob.num("cp_train_ns", static_cast<double>(cp.train_ns));
    ob.num("cp_wire_ns", static_cast<double>(cp.wire_ns));
    ob.num("cp_queue_ns", static_cast<double>(cp.queue_ns));
    ob.num("cp_crypto_ns", static_cast<double>(cp.crypto_ns));
    ob.num("cp_merge_ns", static_cast<double>(cp.merge_ns));
    ob.num("cp_stale_ns", static_cast<double>(cp.stale_ns));
    out.raw("obs", ob.object());
    check(tracer.dropped_spans() == 0, "no dropped spans");
    check(net.trace().dropped() == 0, "no dropped transfers");
    check(cp_rounds == metrics.size(), "critical path analysed for every round");

    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      if (!os) {
        std::fprintf(stderr, "dfl_e2e: cannot write %s\n", trace_out.c_str());
        return 2;
      }
      core::write_trace(os, net);
    }
  }

  out.boolean("ok", failures.empty());
  out.raw("failures", string_array(failures));
  std::printf("%s\n", out.object().c_str());
  for (const std::string& f : failures) std::fprintf(stderr, "dfl_e2e: FAILED check: %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}
