// Deployment: wires the whole system together — simulator, network,
// storage swarm, pub/sub, bootstrapper/directory, trainers and aggregators
// — and drives FL rounds, collecting the metrics the paper plots.
//
// This is the main entry point of the library:
//
//   core::DeploymentConfig cfg;
//   cfg.num_trainers = 16; ...
//   core::Deployment d(cfg);
//   const core::RunSummary summary = d.run(5);
//   std::cout << summary.rounds[0].mean_aggregation_delay_s();
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "core/aggregator.hpp"
#include "core/bootstrapper.hpp"
#include "core/context.hpp"
#include "core/slo.hpp"
#include "core/trainer.hpp"
#include "ml/dataset.hpp"
#include "sim/fault.hpp"
#include "sim/scenario.hpp"

namespace dfl::obs {
class TimeSeriesWriter;
}  // namespace dfl::obs

namespace dfl::core {

struct DeploymentConfig {
  // Scale.
  std::size_t num_trainers = 16;
  std::size_t num_partitions = 1;
  /// Gradient elements per partition (excluding the weight element).
  /// Wire size of one partition ≈ 8 bytes × (elements + 1).
  std::size_t partition_elements = 16 * 1024;
  std::size_t aggs_per_partition = 1;
  std::size_t num_ipfs_nodes = 4;
  /// |P_ij|: providers per aggregator (merge-and-download placement).
  std::size_t providers_per_agg = 1;

  // Links (the paper uses symmetric 10 or 20 Mbps).
  double participant_mbps = 10.0;
  double node_mbps = 10.0;
  double directory_mbps = 100.0;
  sim::TimeNs link_latency = sim::from_millis(5);

  Schedule schedule{sim::from_seconds(600), sim::from_seconds(1200), sim::from_millis(100)};
  ProtocolOptions options;

  /// Local training compute time per round.
  sim::TimeNs train_time = sim::from_seconds(1);

  /// Malicious/faulty aggregators: global aggregator id -> behaviour.
  std::map<std::uint32_t, AggBehavior> behaviors;
  /// Unreliable trainers: trainer id -> behaviour.
  std::map<std::uint32_t, TrainerBehavior> trainer_behaviors;

  /// Event-engine shards (K). 0 = auto: $DFL_SHARDS when set, else 1.
  /// K = 1 runs the serial engine exactly as before. K > 1 drives the
  /// round through conservative lookahead windows (sequenced mode: one
  /// window at a time in deterministic order, so results are bit-identical
  /// to K = 1), switches the event queue to window-calendar buckets, and
  /// fills RoundMetrics::sharding with window/locality counters.
  std::uint32_t shards = 0;

  std::uint64_t seed = 1;
  std::string task_domain = "dfl/task/v1";
  /// Chaos schedule applied to the deployment (leave empty for a fault-free
  /// run). Host ids are raw network ids; storage nodes are created first,
  /// so storage node i is host id i (0 <= i < num_ipfs_nodes). Identical
  /// (config, plan) pairs reproduce bit-identical runs.
  sim::FaultPlan fault_plan;
  /// Directory replicas (>1 uses ReplicatedDirectory: no single point of
  /// failure, at the cost of write amplification).
  std::size_t directory_replicas = 1;

  /// Declarative chaos scenario (inactive when name is empty; see
  /// sim/scenario.hpp and core::apply_scenario). When active, the
  /// deployment samples per-role link configs from scenario.links,
  /// expands the generators into fault_plan at construction, enables
  /// provider-record expiry/republish, and arms chaos *incrementally*
  /// per round so long horizons never fast-forward the clock.
  sim::ScenarioSpec scenario;
};

/// Applies `spec`'s [deployment] overrides and seed/rounds suggestions
/// onto `cfg` and attaches the scenario (cfg.scenario = spec). Returns the
/// scenario's suggested round count (0 = caller decides). CLI flags that
/// should win over the file must be applied to `cfg` *after* this call;
/// the fault plan itself is built inside the Deployment constructor from
/// the final config, so a later seed override still reshapes the chaos.
/// Throws sim::ScenarioError on an unknown [deployment] key.
int apply_scenario(const sim::ScenarioSpec& spec, DeploymentConfig& cfg);

/// Role -> host-id map for a config, mirroring the Deployment's host
/// creation order: "nodes" (storage, ids 0..), then "directory",
/// "trainers", "aggregators".
[[nodiscard]] sim::RoleMap deployment_roles(const DeploymentConfig& cfg);

struct RunSummary {
  std::vector<RoundMetrics> rounds;
  /// Accuracy after each round (ML source only; empty otherwise).
  std::vector<double> accuracy;
  std::vector<double> loss;
  /// Per-round decoded global updates. An empty entry marks a round whose
  /// global update was incomplete.
  std::vector<std::vector<double>> updates;
};

class Deployment {
 public:
  /// If `source` is null a SyntheticGradientSource of the right size is
  /// created. Pass an MlGradientSource for real training.
  explicit Deployment(DeploymentConfig config,
                      std::unique_ptr<GradientSource> source = nullptr);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs one FL iteration to quiescence and returns its metrics: one sync
  /// round in flight, whatever options.async_rounds says.
  RoundMetrics run_round(std::uint32_t iter);

  /// Runs `rounds` iterations; evaluates on `eval` after each when given.
  /// Sync rounds run one at a time; with options.async_rounds every round
  /// launches up front on the async_period cadence and closes at its
  /// round_start + t_sync while later rounds keep running.
  RunSummary run(int rounds, const ml::Dataset* eval = nullptr);

  [[nodiscard]] const DeploymentConfig& config() const { return config_; }
  [[nodiscard]] Context& context() { return *ctx_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }
  [[nodiscard]] ipfs::Swarm& swarm() { return *swarm_; }
  [[nodiscard]] directory::Directory& directory() { return boot_->directory(); }
  /// The directory replica hosts (size = config().directory_replicas).
  [[nodiscard]] const std::vector<sim::Host*>& directory_hosts() const {
    return directory_hosts_;
  }
  [[nodiscard]] GradientSource& source() { return *source_; }
  /// Null unless options.verifiable.
  [[nodiscard]] crypto::Engine* engine() { return engine_.get(); }
  /// Calibration result (zeros unless options.calibrate_crypto ran).
  [[nodiscard]] const crypto::Calibration& calibration() const { return calibration_; }
  /// Null when no fault plan was configured.
  [[nodiscard]] const sim::FaultInjector* fault_injector() const { return fault_.get(); }
  [[nodiscard]] Trainer& trainer(std::size_t i) { return *trainers_.at(i); }
  [[nodiscard]] Aggregator& aggregator(std::size_t i) { return *aggregators_.at(i); }
  [[nodiscard]] std::size_t num_aggregators() const { return aggregators_.size(); }

  /// Resolved shard count (config.shards, or $DFL_SHARDS when that is 0).
  [[nodiscard]] std::uint32_t shards() const { return shards_; }
  /// Host -> shard assignment (every host on shard 0 when shards() == 1).
  [[nodiscard]] const sim::ShardPlacement& shard_placement() const { return placement_; }
  /// The conservative window width of the current round, ns (0 at K = 1).
  [[nodiscard]] sim::TimeNs lookahead() const { return lookahead_; }

  /// The decoded average gradient assembled by the directory's view of the
  /// last closed round (empty if any partition's update is missing).
  [[nodiscard]] const std::vector<double>& last_global_update() const {
    return last_global_update_;
  }

  /// Streams windowed registry samples on the *simulated* clock: while
  /// rounds run, the driver samples `writer` at every `period` boundary —
  /// after all events before the boundary, before any at/after it — so
  /// enabling sampling never changes event order, simulated time, or
  /// results. `writer` must outlive the deployment's runs.
  void enable_metrics_sampling(obs::TimeSeriesWriter& writer, sim::TimeNs period);

  /// In-engine SLO evaluator (null unless the scenario has [slo] clauses).
  /// The round driver evaluates round-scoped clauses per round into
  /// RoundMetrics::slo_breaches.
  [[nodiscard]] SloEvaluator* slo() { return slo_.get(); }
  /// Evaluates the end-of-run [slo] clauses (completion-rate mean,
  /// rounds_complete_min, crashes_min). Call once after the last round;
  /// returns {} when no evaluator is active.
  std::vector<SloBreach> finalize_slos();

 private:
  /// Rounds launched together: one sync round, or every round of an async
  /// run.
  struct Flight;

  /// The round driver: launch `count` rounds from `first`, drive each to
  /// its boundary (quiescence for sync, round_start + t_sync for async),
  /// close it there, then report the flight once its tail has drained.
  void run_flight(std::uint32_t first, std::uint32_t count, bool async,
                  const ml::Dataset* eval, RunSummary& summary);
  /// Sets each round's RoundMetrics, spawns its actors at round_start, and
  /// arms chaos and provider republish through the last round's t_sync.
  void launch(Flight& f, std::uint32_t first, std::uint32_t count);
  /// At a round's boundary: charges its stat deltas, collects and applies
  /// its global update, evaluates, and garbage-collects the directory.
  void close(Flight& f, RoundMetrics& m, const ml::Dataset* eval, RunSummary& summary);
  /// After the flight's tail: round_done, critical paths, SLO verdicts and
  /// the registry publish, in round order.
  void report(Flight& f, RunSummary& summary);
  /// Charges `m` with the stat deltas since the flight's previous boundary.
  void charge(Flight& f, RoundMetrics& m);
  /// Returns the number of partitions whose global update was assembled.
  std::size_t collect_global_update(std::uint32_t iter);
  /// Re-derives the conservative window width from the network's
  /// cross-shard latency floor plus the fault plan's jitter floor.
  [[nodiscard]] sim::TimeNs derive_lookahead() const;
  /// Advances the engine to time `end` (serial run_before at K = 1;
  /// sequenced lookahead windows at K > 1 — the windows only partition the
  /// same total event order, so results are bit-identical at any K).
  /// `end == kNoEvent` drives to quiescence.
  void advance(sim::TimeNs end, ShardingRecord& rec);
  /// advance(), interleaving metrics samples at period boundaries when
  /// sampling is enabled (samples only read state, never schedule events).
  void drive_until(sim::TimeNs end, ShardingRecord& rec);

  DeploymentConfig config_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<sim::FaultInjector> fault_;
  std::unique_ptr<ipfs::Swarm> swarm_;
  std::unique_ptr<ipfs::PubSub> pubsub_;
  std::unique_ptr<GradientSource> source_;
  std::unique_ptr<Bootstrapper> boot_;
  std::unique_ptr<Context> ctx_;
  std::unique_ptr<crypto::Engine> engine_;
  crypto::Calibration calibration_;
  std::vector<std::unique_ptr<Trainer>> trainers_;
  std::vector<std::unique_ptr<Aggregator>> aggregators_;
  std::vector<sim::Host*> directory_hosts_;
  std::vector<double> last_global_update_;
  std::uint32_t shards_ = 1;
  sim::ShardPlacement placement_;
  sim::TimeNs lookahead_ = 0;
  /// Lifetime total of lookahead windows executed (the registry collector
  /// reads this; per-round deltas live in RoundMetrics::sharding).
  std::uint64_t windows_total_ = 0;
  /// Scenario mode: chaos is armed per round (arm_until) instead of all
  /// at once, so end-of-round drains never fast-forward the clock.
  bool incremental_chaos_ = false;
  /// In-engine [slo] evaluation (null when the scenario has no clauses).
  std::unique_ptr<SloEvaluator> slo_;
  /// Simulated-clock metrics sampling (enable_metrics_sampling).
  obs::TimeSeriesWriter* sampler_ = nullptr;
  sim::TimeNs sample_period_ = 0;
  sim::TimeNs next_sample_ = 0;
};

}  // namespace dfl::core
