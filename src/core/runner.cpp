#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>

#include "common/log.hpp"
#include "core/trace_export.hpp"
#include "crypto/encoding.hpp"
#include "obs/analysis.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/datapath.hpp"
#include "sim/span.hpp"

namespace dfl::core {

namespace {

sim::HostConfig participant_link(const DeploymentConfig& cfg) {
  return sim::HostConfig{cfg.participant_mbps * 1e6, cfg.participant_mbps * 1e6,
                         cfg.link_latency};
}

double scenario_num(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size()) {
    throw sim::ScenarioError("scenario: [deployment] " + key + ": not a number: '" + value +
                             "'");
  }
  return v;
}

/// Folds `built` (the expanded scenario generators) into `plan` (any
/// chaos the caller configured directly): windows append, probabilistic
/// fields take the stronger of the two, jitter from the scenario wins
/// when it sets one.
void merge_fault_plan(sim::FaultPlan& plan, sim::FaultPlan&& built) {
  plan.crashes.insert(plan.crashes.end(), built.crashes.begin(), built.crashes.end());
  plan.degradations.insert(plan.degradations.end(), built.degradations.begin(),
                           built.degradations.end());
  plan.transfer_failure_prob = std::max(plan.transfer_failure_prob, built.transfer_failure_prob);
  plan.corruption_prob = std::max(plan.corruption_prob, built.corruption_prob);
  if (!built.latency_jitter_ms.is_zero()) {
    plan.latency_jitter_ms = built.latency_jitter_ms;
    plan.latency_jitter_prob = built.latency_jitter_prob;
  }
  plan.seed = built.seed;
}

/// Publishes the process-wide data-plane counters into the global registry.
/// Registered once: the stats are process-global, not per-deployment.
void register_datapath_collector() {
  static const bool once = [] {
    obs::Registry::global().register_collector("datapath", [](obs::Registry& r) {
      const sim::DataPathStats& s = sim::datapath_stats();
      r.counter("dfl.datapath.bytes_copied").set(s.bytes_copied);
      r.counter("dfl.datapath.bytes_shared").set(s.bytes_shared);
      r.counter("dfl.datapath.blocks_hashed").set(s.blocks_hashed);
      r.counter("dfl.datapath.cid_cache_hits").set(s.cid_cache_hits);
      r.counter("dfl.datapath.blocks_created").set(s.blocks_created);
      r.counter("dfl.datapath.chunked_transfers").set(s.chunked_transfers);
      r.counter("dfl.datapath.chunks_delivered").set(s.chunks_delivered);
      r.gauge("dfl.datapath.resident_block_bytes")
          .set(static_cast<double>(s.resident_block_bytes));
      r.gauge("dfl.datapath.peak_resident_block_bytes")
          .set(static_cast<double>(s.peak_resident_block_bytes));
      r.gauge("dfl.datapath.copy_reduction_factor").set(s.copy_reduction_factor());
    });
    return true;
  }();
  (void)once;
}

/// Publishes the tracer's health into the registry. Registered once (the
/// tracer is process-global): dfl.obs.dropped_spans > 0 means the span cap
/// truncated the trace and every downstream analysis of it is incomplete.
void register_obs_collector() {
  static const bool once = [] {
    obs::Registry::global().register_collector("obs", [](obs::Registry& r) {
      const obs::Tracer& t = obs::Tracer::instance();
      r.counter("dfl.obs.spans").set(t.span_count());
      r.counter("dfl.obs.dropped_spans").set(t.dropped_spans());
    });
    return true;
  }();
  (void)once;
}

/// Folds one finished round into the global registry: resilience counters
/// accumulate, per-phase delays land in log-bucket histograms (millisecond
/// resolution — ≤12.5% bucket error at sub_bucket_bits=3).
void publish_round_metrics(const RoundMetrics& m) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("dfl.rounds_total").add(1);
  reg.counter("dfl.rejected_updates_total").add(static_cast<std::uint64_t>(m.rejected_updates));
  const ipfs::RetryStats rpc = m.rpc_totals();
  reg.counter("dfl.rpc.attempts_total").add(rpc.attempts);
  reg.counter("dfl.rpc.retries_total").add(rpc.retries);
  reg.counter("dfl.rpc.timeouts_total").add(rpc.timeouts);
  reg.counter("dfl.rpc.failovers_total").add(rpc.failovers);
  reg.counter("dfl.rpc.giveups_total").add(rpc.giveups);
  reg.counter("dfl.sim.events_total").add(m.datapath.sim_events);
  if (m.crypto.commits + m.crypto.verifies + m.crypto.batch_verifies > 0) {
    reg.counter("dfl.crypto.commits_total").add(m.crypto.commits);
    reg.counter("dfl.crypto.verifies_total").add(m.crypto.verifies + m.crypto.batch_verifies);
    // Dispatch tier as an ordinal gauge (0 = scalar, 1 = avx2): snapshots
    // record which backend produced the wall times alongside them. The
    // ISA string itself rides in RoundMetrics/CryptoRecord.
    reg.gauge("dfl.crypto.backend").set(std::strcmp(m.crypto.backend, "scalar") == 0 ? 0 : 1);
  }

  auto record_ms = [&reg](const char* name, double seconds) {
    if (seconds < 0) return;  // -1 sentinel: phase never completed
    reg.histogram(name).record(static_cast<std::uint64_t>(seconds * 1e3));
  };
  record_ms("dfl.round.upload_delay_ms", m.mean_upload_delay_s());
  record_ms("dfl.round.aggregation_delay_ms", m.mean_aggregation_delay_s());
  record_ms("dfl.round.total_aggregation_delay_ms", m.total_aggregation_delay_s());
  record_ms("dfl.round.sync_delay_ms", m.mean_sync_delay_s());
  if (m.round_done >= 0) {
    record_ms("dfl.round.duration_ms", sim::to_seconds(m.round_done - m.round_start));
  }
  reg.histogram("dfl.round.wall_ms").record(m.datapath.wall_ns / 1000000);
}

/// Host-side counters at a round boundary: a round is charged the deltas
/// between the boundary before it and the one that closes it.
struct Boundary {
  crypto::EngineStats crypto;
  sim::FaultStats faults;
  sim::DataPathStats datapath;
  std::uint64_t events = 0;
  std::chrono::steady_clock::time_point wall;
};

Boundary snapshot(const sim::Simulator& sim, const sim::FaultInjector* fault,
                  const crypto::Engine* engine) {
  return Boundary{engine != nullptr ? engine->stats() : crypto::EngineStats{},
                  fault != nullptr ? fault->stats() : sim::FaultStats{}, sim::datapath_stats(),
                  sim.events_processed(), std::chrono::steady_clock::now()};
}

void fill_critical_path(CriticalPathRecord& cp, const obs::RoundCriticalPath& rcp) {
  auto ns = [&rcp](obs::Blame b) {
    return rcp.blame_ns[static_cast<std::size_t>(b)];
  };
  cp.analyzed = true;
  cp.total_ns = rcp.total_ns();
  cp.train_ns = ns(obs::Blame::kTrain);
  cp.crypto_ns = ns(obs::Blame::kCrypto);
  cp.wire_ns = ns(obs::Blame::kWire);
  cp.queue_ns = ns(obs::Blame::kQueueWait);
  cp.stale_ns = ns(obs::Blame::kStaleWait);
  cp.merge_ns = ns(obs::Blame::kMerge);
  cp.segments = rcp.segments.size();
  cp.dominant_host = rcp.dominant_host();
  cp.dominant_host_ns = rcp.dominant_host_ns();
  cp.dominant_category = obs::blame_name(rcp.dominant_blame());
}

/// Fills each round's critical_path from one analysis of the trace so far
/// (tracing runs only); the per-host "round" spans' iter attributes slice
/// the DAG into round frames, so interleaved async rounds separate too.
/// Re-analyzing the full snapshot per sync round is O(rounds × spans) over
/// a run, but the trace itself is capped (span limit / transfer ring) and
/// rounds that aged out of it simply don't match — acceptable for the
/// smoke scales tracing targets.
void attach_critical_paths(sim::Network& net, std::deque<RoundMetrics>& rounds) {
  if (!obs::enabled()) return;
  name_host_tracks(net);
  const obs::Analysis analysis =
      obs::analyze_critical_paths(obs::Tracer::instance().snapshot(), wire_slices(net));
  for (RoundMetrics& m : rounds) {
    for (const obs::RoundCriticalPath& rcp : analysis.rounds) {
      if (rcp.iter == m.iter) {
        fill_critical_path(m.critical_path, rcp);
        break;
      }
    }
  }
}

}  // namespace

sim::RoleMap deployment_roles(const DeploymentConfig& cfg) {
  sim::RoleMap roles;
  std::uint32_t next = 0;
  auto add = [&](const char* name, std::size_t count) {
    auto& ids = roles[name];
    for (std::size_t i = 0; i < count; ++i) ids.push_back(next++);
  };
  // Mirrors the constructor's host creation order exactly.
  add("nodes", cfg.num_ipfs_nodes);
  add("directory", std::max<std::size_t>(1, cfg.directory_replicas));
  add("trainers", cfg.num_trainers);
  add("aggregators", cfg.num_partitions * cfg.aggs_per_partition);
  return roles;
}

int apply_scenario(const sim::ScenarioSpec& spec, DeploymentConfig& cfg) {
  for (const auto& [key, value] : spec.deployment) {
    const double v = scenario_num(key, value);
    const auto count = static_cast<std::size_t>(v);
    if (key == "trainers") {
      cfg.num_trainers = count;
    } else if (key == "partitions") {
      cfg.num_partitions = count;
    } else if (key == "elements") {
      cfg.partition_elements = count;
    } else if (key == "aggs_per_partition") {
      cfg.aggs_per_partition = count;
    } else if (key == "nodes") {
      cfg.num_ipfs_nodes = count;
    } else if (key == "providers") {
      cfg.providers_per_agg = count;
    } else if (key == "directory_replicas") {
      cfg.directory_replicas = count;
    } else if (key == "participant_mbps") {
      cfg.participant_mbps = v;
    } else if (key == "node_mbps") {
      cfg.node_mbps = v;
    } else if (key == "directory_mbps") {
      cfg.directory_mbps = v;
    } else if (key == "link_latency_ms") {
      cfg.link_latency = sim::from_millis(v);
    } else if (key == "t_train_s") {
      cfg.schedule.t_train = sim::from_seconds(v);
    } else if (key == "t_sync_s") {
      cfg.schedule.t_sync = sim::from_seconds(v);
    } else if (key == "poll_ms") {
      cfg.schedule.poll_interval = sim::from_millis(v);
    } else if (key == "train_time_s") {
      cfg.train_time = sim::from_seconds(v);
    } else if (key == "merge_and_download") {
      cfg.options.merge_and_download = v != 0;
    } else {
      throw sim::ScenarioError("scenario: unknown [deployment] key '" + key + "'");
    }
  }
  if (spec.has_seed) cfg.seed = spec.seed;
  cfg.scenario = spec;
  return spec.rounds;
}

Deployment::Deployment(DeploymentConfig config, std::unique_ptr<GradientSource> source)
    : config_(std::move(config)) {
  if (config_.options.async_rounds && config_.options.verifiable) {
    // Commitments attest one synchronous round's inputs; staleness-weighted
    // folds mix iterations, so no accumulated commitment could open them.
    throw std::invalid_argument(
        "Deployment: async_rounds is incompatible with verifiable aggregation");
  }
  if (config_.options.codec == Codec::kQuant &&
      (config_.options.quant_bits < 2 || config_.options.quant_bits > 16)) {
    throw std::invalid_argument("Deployment: quant_bits out of range [2, 16]");
  }
  if (config_.options.codec == Codec::kTopK &&
      !(config_.options.topk_frac > 0.0 && config_.options.topk_frac <= 1.0)) {
    throw std::invalid_argument("Deployment: topk_frac out of range (0, 1]");
  }
  sim_ = std::make_unique<sim::Simulator>();
  net_ = std::make_unique<sim::Network>(*sim_);
  ipfs::SwarmConfig swarm_cfg;
  swarm_cfg.node_config.chunking.mode = config_.options.chunking;
  swarm_cfg.node_config.chunking.chunk_size = config_.options.chunk_size;
  swarm_cfg.node_config.chunking.pipeline_depth = config_.options.chunk_pipeline;
  swarm_cfg.provider_ttl = config_.scenario.provider_ttl;
  swarm_cfg.provider_republish = config_.scenario.provider_republish;
  swarm_ = std::make_unique<ipfs::Swarm>(*net_, swarm_cfg);
  pubsub_ = std::make_unique<ipfs::PubSub>(*net_);

  // Scenario link heterogeneity: each host of a role draws its own config
  // from the role's model, in host creation order from a private stream —
  // the draw sequence (and so every HostConfig) is bit-stable in seed.
  const bool scenario_active = config_.scenario.active();
  Rng link_rng(config_.seed ^ 0x11ce5ca1ab1e11ceULL);
  auto role_link = [&](const char* role, const sim::HostConfig& base) {
    if (!scenario_active) return base;
    const auto it = config_.scenario.links.find(role);
    return it == config_.scenario.links.end() ? base : it->second.sample(base, link_rng);
  };

  for (std::size_t i = 0; i < config_.num_ipfs_nodes; ++i) {
    swarm_->add_node("ipfs" + std::to_string(i),
                     role_link("nodes",
                               sim::HostConfig{config_.node_mbps * 1e6, config_.node_mbps * 1e6,
                                               config_.link_latency}));
  }

  const std::size_t num_params = config_.partition_elements * config_.num_partitions;
  TaskSpec spec(num_params, config_.num_partitions, config_.num_trainers);
  spec.schedule = config_.schedule;
  spec.options = config_.options;
  spec.build_round_robin(config_.aggs_per_partition, config_.providers_per_agg,
                         config_.num_ipfs_nodes);

  const std::size_t dir_replicas = std::max<std::size_t>(1, config_.directory_replicas);
  for (std::size_t r = 0; r < dir_replicas; ++r) {
    directory_hosts_.push_back(&net_->add_host(
        "directory" + std::to_string(r),
        role_link("directory",
                  sim::HostConfig{config_.directory_mbps * 1e6, config_.directory_mbps * 1e6,
                                  config_.link_latency})));
  }
  boot_ = std::make_unique<Bootstrapper>(*net_, directory_hosts_, *swarm_, std::move(spec),
                                         config_.task_domain);

  source_ = source ? std::move(source)
                   : std::make_unique<SyntheticGradientSource>(num_params, config_.train_time,
                                                               config_.seed,
                                                               config_.options.frac_bits);

  ctx_.reset(new Context{*sim_, *net_, *swarm_, *pubsub_, boot_->directory(), boot_->spec(),
                         *source_, boot_->key(),
                         PayloadMerger{codec_config(config_.options)}});

  if (boot_->mutable_key() != nullptr) {
    crypto::EngineConfig ecfg;
    ecfg.threads = config_.options.crypto_threads;
    ecfg.fixed_base_window = config_.options.fixed_base_window;
    engine_ = std::make_unique<crypto::Engine>(*boot_->mutable_key(), ecfg);
    ctx_->engine = engine_.get();
    if (config_.options.calibrate_crypto) {
      // Ground the modeled per-element commit delay in this machine's
      // measured throughput (opt-in: simulated timings become
      // hardware-dependent, results stay exact).
      calibration_ = engine_->calibrate(0);
      boot_->spec().options.commit_ns_per_element = calibration_.ns_per_element;
    }
  }

  for (std::uint32_t t = 0; t < config_.num_trainers; ++t) {
    sim::Host& h =
        net_->add_host("trainer" + std::to_string(t), role_link("trainers", participant_link(config_)));
    TrainerBehavior behavior = TrainerBehavior::kHonest;
    if (const auto it = config_.trainer_behaviors.find(t);
        it != config_.trainer_behaviors.end()) {
      behavior = it->second;
    }
    trainers_.push_back(std::make_unique<Trainer>(*ctx_, t, h, behavior));
  }
  const std::size_t total_aggs = config_.num_partitions * config_.aggs_per_partition;
  for (std::uint32_t a = 0; a < total_aggs; ++a) {
    sim::Host& h =
        net_->add_host("agg" + std::to_string(a), role_link("aggregators", participant_link(config_)));
    const auto partition = static_cast<std::uint32_t>(a / config_.aggs_per_partition);
    const auto slot = static_cast<std::uint32_t>(a % config_.aggs_per_partition);
    AggBehavior behavior = AggBehavior::kHonest;
    if (const auto it = config_.behaviors.find(a); it != config_.behaviors.end()) {
      behavior = it->second;
    }
    aggregators_.push_back(
        std::make_unique<Aggregator>(*ctx_, a, partition, slot, h, behavior));
  }

  // Arm the chaos schedule last, once every host referenced by the plan
  // exists (storage nodes are hosts 0..num_ipfs_nodes-1, then directory
  // replicas, trainers, and aggregators, in that order).
  if (scenario_active) {
    // Expand the scenario's generators over the planned horizon (one
    // round's slack past the suggested count — rounds that overrun their
    // window still see chaos). Built from the *final* config, so a CLI
    // seed override after apply_scenario reshapes the schedule too.
    const auto planned = static_cast<sim::TimeNs>(std::max(1, config_.scenario.rounds) + 1);
    merge_fault_plan(config_.fault_plan,
                     config_.scenario.build_fault_plan(deployment_roles(config_),
                                                       planned * config_.schedule.t_sync,
                                                       config_.seed));
  }
  if (!config_.fault_plan.empty()) {
    fault_ = std::make_unique<sim::FaultInjector>(*net_, config_.fault_plan);
    // Scenario mode arms incrementally from run_round: scheduling a long
    // horizon up front would let the end-of-round drain fast-forward the
    // clock through every future window.
    if (!scenario_active) fault_->arm();
  }
  incremental_chaos_ = scenario_active;

  // Event-engine sharding: resolve K (config wins; $DFL_SHARDS fills the
  // auto default), place hosts into contiguous blocks over the final
  // roster, and teach the network to classify deliveries. K = 1 leaves
  // the serial engine exactly as before — no placement, no buckets.
  shards_ = config_.shards;
  if (shards_ == 0) {
    shards_ = 1;
    if (const char* env = std::getenv("DFL_SHARDS"); env != nullptr && *env != '\0') {
      char* end = nullptr;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (end == env || *end != '\0' || v == 0 || v > 1024) {
        throw std::invalid_argument(std::string("DFL_SHARDS: malformed shard count '") +
                                    env + "' (want an integer in [1, 1024])");
      }
      shards_ = static_cast<std::uint32_t>(v);
    }
  }
  const auto total_hosts = static_cast<std::uint32_t>(net_->host_count());
  placement_ = sim::ShardPlacement::blocks(total_hosts, std::min(shards_, total_hosts));
  shards_ = placement_.shards;
  if (shards_ > 1) {
    net_->set_shard_placement(&placement_);
    lookahead_ = derive_lookahead();
    sim_->enable_window_buckets(lookahead_);
  }

  // Size the event queue for the round ahead instead of growing through
  // repeated reallocation: one slot per chunk transfer (upload fan-in plus
  // aggregator gather) with headroom for control traffic.
  const std::size_t partition_bytes = 8 * (config_.partition_elements + 1);
  const std::size_t chunks = std::max<std::size_t>(
      1, (partition_bytes + config_.options.chunk_size - 1) / config_.options.chunk_size);
  const std::size_t transfers = config_.num_trainers * config_.num_partitions +
                                total_aggs * config_.num_trainers + total_aggs * 4;
  sim_->reserve_events(transfers * (chunks + 4));

  // Subsume the scattered per-subsystem stats under the metrics registry:
  // collectors read the existing structs at snapshot() time, so the hot
  // paths keep their plain counters and RoundMetrics deltas are untouched.
  // The crypto/net collectors capture `this` and are unregistered in the
  // destructor; with several live Deployments the last one constructed
  // owns the names (snapshot() then reports that deployment).
  register_datapath_collector();
  register_obs_collector();
  if (!config_.scenario.slo.empty()) {
    slo_ = std::make_unique<SloEvaluator>(config_.scenario.slo);
  }
  obs::Registry::global().register_collector("net", [this](obs::Registry& r) {
    r.counter("dfl.net.bytes_total").set(net_->total_bytes_transferred());
    r.counter("dfl.net.mid_transfer_failures").set(net_->mid_transfer_failures());
    r.counter("dfl.net.transfers_dropped").set(net_->transfers_dropped());
    r.counter("dfl.net.trace_records").set(net_->trace().size());
    r.counter("dfl.net.trace_dropped").set(net_->trace().dropped());
    const ipfs::ProviderStats& p = swarm_->provider_stats();
    r.counter("dfl.provider.republish_sweeps").set(p.republish_sweeps);
    r.counter("dfl.provider.records_refreshed").set(p.records_refreshed);
    r.counter("dfl.provider.expired_lookups").set(p.expired_lookups);
  });
  obs::Registry::global().register_collector("fault", [this](obs::Registry& r) {
    if (fault_ == nullptr) return;
    const sim::FaultStats& s = fault_->stats();
    r.counter("dfl.fault.crashes").set(s.crashes);
    r.counter("dfl.fault.restarts").set(s.restarts);
    r.counter("dfl.fault.transfers_dropped").set(s.transfers_dropped);
    r.counter("dfl.fault.payloads_corrupted").set(s.payloads_corrupted);
    r.counter("dfl.fault.transfers_jittered").set(s.transfers_jittered);
  });
  obs::Registry::global().register_collector("crypto", [this](obs::Registry& r) {
    if (!engine_) return;
    const crypto::EngineStats s = engine_->stats();
    r.counter("dfl.crypto.commits").set(s.commits);
    r.counter("dfl.crypto.verifies").set(s.verifies);
    r.counter("dfl.crypto.batch_verifies").set(s.batch_verifies);
    r.counter("dfl.crypto.committed_elements").set(s.committed_elements);
    r.counter("dfl.crypto.commit_wall_ns").set(s.commit_wall_ns);
    r.counter("dfl.crypto.verify_wall_ns").set(s.verify_wall_ns);
  });
  obs::Registry::global().register_collector("sharding", [this](obs::Registry& r) {
    r.gauge("dfl.sim.shards").set(static_cast<double>(shards_));
    r.gauge("dfl.sim.lookahead_ns").set(static_cast<double>(lookahead_));
    r.counter("dfl.sim.windows").set(windows_total_);
    r.counter("dfl.sim.cross_shard_transfers").set(net_->cross_shard_transfers());
    r.counter("dfl.sim.local_shard_transfers").set(net_->local_shard_transfers());
  });
}

Deployment::~Deployment() {
  obs::Registry::global().unregister_collector("net");
  obs::Registry::global().unregister_collector("crypto");
  obs::Registry::global().unregister_collector("fault");
  obs::Registry::global().unregister_collector("sharding");
}

struct Deployment::Flight {
  explicit Flight(bool async_rounds) : async(async_rounds) {}
  const bool async;
  /// Behind stable addresses: every actor coroutine holds a reference to
  /// its round's record until the flight's tail has drained.
  std::deque<RoundMetrics> rounds;
  /// Counters at the previous round boundary (see charge()).
  Boundary mark;
  /// The umbrella span every actor's per-host "round" span parents under
  /// via ctx_->round_span: "round" for a sync round, "async_run" for an
  /// async run, whose rounds coexist in time.
  std::optional<sim::ScopedSpan> span;
};

RoundMetrics Deployment::run_round(std::uint32_t iter) {
  RunSummary summary;
  run_flight(iter, 1, /*async=*/false, nullptr, summary);
  return std::move(summary.rounds.front());
}

RunSummary Deployment::run(int rounds, const ml::Dataset* eval) {
  RunSummary summary;
  // Rounds in flight at once: a sync round runs to quiescence before the
  // next launches; async launches every round up front.
  const bool async = config_.options.async_rounds;
  const int in_flight = async ? rounds : 1;
  for (int first = 0; first < rounds; first += in_flight) {
    run_flight(static_cast<std::uint32_t>(first),
               static_cast<std::uint32_t>(std::min(in_flight, rounds - first)), async, eval,
               summary);
  }
  return summary;
}

void Deployment::run_flight(std::uint32_t first, std::uint32_t count, bool async,
                            const ml::Dataset* eval, RunSummary& summary) {
  Flight f(async);
  launch(f, first, count);
  for (RoundMetrics& m : f.rounds) {
    // A sync round runs to quiescence: every actor either finished or
    // timed out by t_sync. An async round closes at its deadline while
    // later rounds keep training and uploading; rounds launched after it
    // train on its update one or more rounds stale, async FL's contract.
    drive_until(async ? m.round_start + boot_->spec().schedule.t_sync
                      : sim::Simulator::kNoEvent,
                m.sharding);
    close(f, m, eval, summary);
  }
  report(f, summary);
}

void Deployment::launch(Flight& f, std::uint32_t first, std::uint32_t count) {
  // A backend flip since the last probe (test override, DFL_NO_SIMD in a
  // forked child) would leave the modeled commit delay priced by code
  // that no longer runs; re-ground it before the round starts.
  if (engine_ && config_.options.calibrate_crypto && engine_->needs_recalibration()) {
    calibration_ = engine_->calibrate(0);
    boot_->spec().options.commit_ns_per_element = calibration_.ns_per_element;
  }
  const Schedule& sched = boot_->spec().schedule;
  const sim::TimeNs t0 = sim_->now();
  sim::TimeNs period = 0;
  if (f.async) {
    period = config_.options.async_period > 0 ? config_.options.async_period : sched.t_train;
  }
  f.mark = snapshot(*sim_, fault_.get(), engine_.get());

  // Scenario mode: arm chaos and provider republish sweeps through the
  // last round's deadline. Cursors are monotonic, so both calls are cheap
  // no-ops for already-covered spans and for legacy fully-armed plans.
  // Sync arms before its actors spawn and async after: the order decides
  // which of two events tied at one instant runs first.
  const sim::TimeNs horizon = t0 + static_cast<sim::TimeNs>(count - 1) * period + sched.t_sync;
  auto arm = [&] {
    if (fault_ != nullptr && incremental_chaos_) fault_->arm_until(horizon);
    swarm_->republish_until(horizon);
  };
  if (!f.async) arm();

  if (f.async) {
    f.span.emplace(*sim_, "async_run", obs::kProcessTrack);
    f.span->attr("rounds", static_cast<std::int64_t>(count));
    f.span->attr("period_ms", static_cast<std::int64_t>(period / 1000000));
  } else {
    f.span.emplace(*sim_, "round", obs::kProcessTrack);
    f.span->attr("iter", static_cast<std::int64_t>(first));
  }
  ctx_->round_span = f.span->id();

  // Round r launches at t0 + r * period: with async, round r trains while
  // round r-1 uploads and aggregates — the barrier-free overlap.
  for (std::uint32_t i = 0; i < count; ++i) {
    RoundMetrics& m = f.rounds.emplace_back();
    m.iter = first + i;
    m.round_start = t0 + static_cast<sim::TimeNs>(i) * period;
    m.trainers.resize(trainers_.size());
    m.aggregators.resize(aggregators_.size());
    for (auto& t : trainers_) sim_->spawn(t->run_round(m.iter, m.round_start, m));
    for (auto& a : aggregators_) sim_->spawn(a->run_round(m.iter, m.round_start, m));
  }
  if (f.async) arm();
  if (shards_ > 1) {
    // Chaos armed this flight may have tightened the jitter floor; re-derive
    // the window width (enable_window_buckets re-buckets only on change).
    lookahead_ = derive_lookahead();
    sim_->enable_window_buckets(lookahead_);
  }
}

void Deployment::close(Flight& f, RoundMetrics& m, const ml::Dataset* eval,
                       RunSummary& summary) {
  // A sync round's stats stop at quiescence, before the measurement read
  // below; an async round's run up to its close, the last one's through
  // the flight's tail.
  if (!f.async) charge(f, m);
  m.partitions_total = boot_->spec().num_partitions();
  m.partitions_complete = collect_global_update(m.iter);
  m.global_update_complete = !last_global_update_.empty();
  if (m.global_update_complete) source_->apply_global_update(last_global_update_, m.iter);
  summary.updates.push_back(last_global_update_);
  if (auto* ml_source = dynamic_cast<MlGradientSource*>(source_.get());
      ml_source != nullptr && eval != nullptr) {
    m.post_round_accuracy = ml_source->model().accuracy(*eval);
    m.post_round_loss = ml_source->model().loss(*eval);
    summary.accuracy.push_back(m.post_round_accuracy);
    summary.loss.push_back(m.post_round_loss);
  }
  // Bound directory state like a real deployment would (Section VI). Sync
  // aggregators read only the current iteration; async ones cover
  // stragglers from up to kStaleDepth iterations back.
  const std::uint32_t lag = f.async ? kStaleDepth : 0;
  if (m.iter >= lag) boot_->directory().gc_before(m.iter - lag);
  if (f.async) {
    // The tail: the last round's downloads run past its t_sync grace.
    if (&m == &f.rounds.back()) drive_until(sim::Simulator::kNoEvent, m.sharding);
    charge(f, m);
  }
}

void Deployment::charge(Flight& f, RoundMetrics& m) {
  const Boundary now = snapshot(*sim_, fault_.get(), engine_.get());
  m.datapath.stats = now.datapath.since(f.mark.datapath);
  m.datapath.sim_events = now.events - f.mark.events;
  m.datapath.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now.wall - f.mark.wall).count());
  if (fault_) m.faults = now.faults.since(f.mark.faults);
  if (engine_) {
    const crypto::EngineStats& after = now.crypto;
    const crypto::EngineStats& before = f.mark.crypto;
    m.crypto.commits = after.commits - before.commits;
    m.crypto.verifies = after.verifies - before.verifies;
    m.crypto.batch_verifies = after.batch_verifies - before.batch_verifies;
    m.crypto.committed_elements = after.committed_elements - before.committed_elements;
    m.crypto.commit_wall_ns = after.commit_wall_ns - before.commit_wall_ns;
    m.crypto.verify_wall_ns = after.verify_wall_ns - before.verify_wall_ns;
    m.crypto.threads = engine_->threads();
    m.crypto.calibrated_ns_per_element = calibration_.ns_per_element;
    m.crypto.parallel_speedup = calibration_.parallel_speedup;
    m.crypto.backend = crypto::backend_name(after.backend);
    m.crypto.isa = after.isa;
  }
  f.mark = now;
}

void Deployment::report(Flight& f, RunSummary& summary) {
  ctx_->round_span = 0;
  f.span->close();
  attach_critical_paths(*net_, f.rounds);
  for (RoundMetrics& m : f.rounds) {
    for (const TrainerRecord& t : m.trainers) {
      m.round_done = std::max(m.round_done, t.model_ready_at);
    }
    if (slo_) m.slo_breaches = slo_->on_round(m, sim_->now());
    publish_round_metrics(m);
    summary.rounds.push_back(std::move(m));
  }
}

sim::TimeNs Deployment::derive_lookahead() const {
  if (shards_ <= 1) return 0;
  // Conservative bound on how far ahead any shard may run: the smallest
  // latency a cross-shard delivery can possibly have. Jitter can only add
  // delay except when it fires with certainty and its distribution has a
  // positive floor — then that floor raises the bound too.
  sim::TimeNs base = net_->min_cross_shard_latency(placement_);
  if (base == sim::Simulator::kNoEvent) base = net_->min_path_latency();
  if (base == sim::Simulator::kNoEvent) base = config_.link_latency;
  const sim::TimeNs floor = config_.fault_plan.latency_floor_ns();
  if (base <= sim::Simulator::kNoEvent - floor) base += floor;
  return std::max<sim::TimeNs>(base, 1);
}


std::size_t Deployment::collect_global_update(std::uint32_t iter) {
  // Omniscient post-round read: assemble the accepted global updates
  // directly out of the directory rows and node block stores (no network
  // cost — this is measurement bookkeeping, not protocol). Expired
  // provider records are deliberately included: the data plane pays for
  // staleness, the measurement does not.
  last_global_update_.assign(boot_->spec().num_params(), 0.0);
  std::size_t complete = 0;
  for (std::size_t p = 0; p < boot_->spec().num_partitions(); ++p) {
    const auto rows = boot_->directory().rows(static_cast<std::uint32_t>(p), iter,
                                              directory::EntryType::kGlobalUpdate);
    if (rows.empty()) continue;
    Block data;
    bool found = false;
    for (const std::uint32_t node_id :
         swarm_->providers(rows.front().cid, /*include_expired=*/true)) {
      // peek: measurement read, kept out of the data-plane accounting.
      // peek_content reassembles DAG roots from their stored leaves.
      if (auto block = swarm_->node(node_id).peek_content(rows.front().cid)) {
        data = std::move(*block);
        found = true;
        break;
      }
    }
    if (!found) continue;
    const Payload payload = Payload::deserialize(data);
    const auto avg = payload.average(boot_->spec().options.frac_bits);
    const auto [first, last] = boot_->spec().partition_range(p);
    if (avg.size() != last - first) {
      throw std::runtime_error("Deployment: global update size mismatch");
    }
    std::copy(avg.begin(), avg.end(),
              last_global_update_.begin() + static_cast<std::ptrdiff_t>(first));
    ++complete;
  }
  if (complete != boot_->spec().num_partitions()) last_global_update_.clear();
  return complete;
}

void Deployment::advance(sim::TimeNs end, ShardingRecord& rec) {
  if (shards_ <= 1) {
    // run_before(kNoEvent) is exactly run(): every real event's timestamp
    // is below the sentinel, so the serial quiescent drive falls out.
    sim_->run_before(end);
    return;
  }
  rec.shards = shards_;
  rec.lookahead_ns = lookahead_;
  const std::uint64_t windows_before = rec.windows;
  const std::uint64_t cross_before = net_->cross_shard_transfers();
  const std::uint64_t local_before = net_->local_shard_transfers();
  // Sequenced window driver, capped at `end`: place each half-open window
  // [W, W + lookahead) at the globally earliest pending event and drain it
  // before moving on. One window at a time keeps execution order identical
  // to the serial engine (the windows only partition the same total event
  // order), so state at `end` is bit-identical to run_before(end) at any K,
  // while exposing the barrier cadence the parallel shards would see.
  for (;;) {
    const sim::TimeNs next = sim_->next_event_time();
    if (next == sim::Simulator::kNoEvent || next >= end) break;
    sim::TimeNs wend = next > sim::Simulator::kNoEvent - lookahead_
                           ? sim::Simulator::kNoEvent
                           : next + lookahead_;
    wend = std::min(wend, end);
    const std::uint64_t before = sim_->events_processed();
    sim_->run_before(wend);
    ++rec.windows;
    rec.max_window_events =
        std::max(rec.max_window_events, sim_->events_processed() - before);
  }
  windows_total_ += rec.windows - windows_before;
  rec.cross_shard_transfers += net_->cross_shard_transfers() - cross_before;
  rec.local_shard_transfers += net_->local_shard_transfers() - local_before;
}

void Deployment::drive_until(sim::TimeNs end, ShardingRecord& rec) {
  if (sampler_ == nullptr) {
    advance(end, rec);
    return;
  }
  // Segmented drive with sample boundaries: a sample at boundary T is taken
  // after every event with ts < T and before any event at ts >= T, so the
  // engine's event order — and therefore every simulated result — is
  // untouched by sampling. Samples only read registry state.
  for (;;) {
    const sim::TimeNs next = sim_->next_event_time();
    if (next == sim::Simulator::kNoEvent || next >= end) break;
    if (next_sample_ <= next) {
      sampler_->sample(next_sample_);
      next_sample_ += sample_period_;
      continue;
    }
    advance(std::min(end, next_sample_), rec);
  }
  // Flush the boundaries this drive covered but no event forced: up to
  // `end` for a deadline drive, up to the quiescent clock for a full drain
  // (every remaining boundary would just repeat the final state).
  const sim::TimeNs limit = end == sim::Simulator::kNoEvent ? sim_->now() : end;
  while (next_sample_ <= limit) {
    sampler_->sample(next_sample_);
    next_sample_ += sample_period_;
  }
}

void Deployment::enable_metrics_sampling(obs::TimeSeriesWriter& writer,
                                         sim::TimeNs period) {
  sampler_ = &writer;
  sample_period_ = std::max<sim::TimeNs>(period, 1);
  next_sample_ = sim_->now() + sample_period_;
}

std::vector<SloBreach> Deployment::finalize_slos() {
  if (!slo_) return {};
  return slo_->finalize(sim_->now());
}

}  // namespace dfl::core
