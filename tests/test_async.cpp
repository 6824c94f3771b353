// Barrier-free async rounds: overlapped launch cadence, rerun and sharded
// determinism, staleness-weighted folds for stragglers, codec interplay,
// and the config validation the Deployment constructor enforces.
#include <gtest/gtest.h>

#include <memory>

#include "core/runner.hpp"
#include "obs/metrics.hpp"

namespace dfl::core {
namespace {

DeploymentConfig tiny_async() {
  DeploymentConfig cfg;
  cfg.num_trainers = 4;
  cfg.num_partitions = 2;
  cfg.partition_elements = 16;
  cfg.num_ipfs_nodes = 2;
  cfg.train_time = sim::from_millis(100);
  cfg.schedule = Schedule{sim::from_seconds(2), sim::from_seconds(4), sim::from_millis(50)};
  cfg.options.async_rounds = true;
  return cfg;
}

std::uint64_t total_stale_folds(const RoundMetrics& m) {
  std::uint64_t n = 0;
  for (const AggregatorRecord& a : m.aggregators) n += a.stale_folds;
  return n;
}

std::uint64_t total_fresh_folds(const RoundMetrics& m) {
  std::uint64_t n = 0;
  for (const AggregatorRecord& a : m.aggregators) n += a.fresh_folds;
  return n;
}

TEST(AsyncRounds, CompletesEveryRoundOnTheLaunchCadence) {
  auto cfg = tiny_async();
  cfg.options.async_period = sim::from_seconds(1);
  Deployment d(cfg);
  const RunSummary s = d.run(4);
  ASSERT_EQ(s.rounds.size(), 4u);
  ASSERT_EQ(s.updates.size(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(s.rounds[r].iter, r);
    EXPECT_TRUE(s.rounds[r].global_update_complete) << "round " << r;
    EXPECT_FALSE(s.updates[r].empty()) << "round " << r;
    EXPECT_GT(total_fresh_folds(s.rounds[r]), 0u);
  }
  // Rounds launch period apart, not t_sync apart — that is the speedup.
  EXPECT_EQ(s.rounds[1].round_start - s.rounds[0].round_start, sim::from_seconds(1));
  // Round 1 is already uploading before round 0's collection boundary.
  EXPECT_LT(s.rounds[1].first_gradient_announce,
            s.rounds[0].round_start + cfg.schedule.t_sync);
}

TEST(AsyncRounds, DeterministicAcrossIdenticalDeployments) {
  auto cfg = tiny_async();
  cfg.seed = 77;
  Deployment a(cfg);
  Deployment b(cfg);
  const RunSummary sa = a.run(3);
  const RunSummary sb = b.run(3);
  ASSERT_EQ(sa.updates.size(), sb.updates.size());
  for (std::size_t r = 0; r < sa.updates.size(); ++r) {
    ASSERT_EQ(sa.updates[r].size(), sb.updates[r].size()) << "round " << r;
    for (std::size_t i = 0; i < sa.updates[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(sa.updates[r][i], sb.updates[r][i]);
    }
    EXPECT_EQ(sa.rounds[r].round_done, sb.rounds[r].round_done);
  }
}

TEST(AsyncRounds, ShardedRunIsBitIdenticalToSerial) {
  auto cfg = tiny_async();
  cfg.seed = 99;
  Deployment serial(cfg);
  cfg.shards = 2;
  Deployment sharded(cfg);
  const RunSummary ss = serial.run(3);
  const RunSummary sh = sharded.run(3);
  ASSERT_EQ(ss.updates.size(), sh.updates.size());
  for (std::size_t r = 0; r < ss.updates.size(); ++r) {
    ASSERT_EQ(ss.updates[r].size(), sh.updates[r].size());
    for (std::size_t i = 0; i < ss.updates[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(ss.updates[r][i], sh.updates[r][i]);
    }
    EXPECT_EQ(ss.rounds[r].round_done, sh.rounds[r].round_done);
  }
  // The windowed driver actually ran (and recorded its windows).
  std::uint64_t windows = 0;
  for (const RoundMetrics& m : sh.rounds) windows += m.sharding.windows;
  EXPECT_GT(windows, 0u);
}

TEST(AsyncRounds, PerRoundStatsAddUpToTheRun) {
  // Each round is charged the deltas between its boundaries (the last one
  // through the tail), so per-round events and fault counters sum to the
  // run's totals instead of an even split with the faults on round 0.
  auto cfg = tiny_async();
  cfg.fault_plan.latency_jitter_ms =
      sim::Distribution{sim::Distribution::Kind::kExponential, 2.0, 0.0};
  cfg.fault_plan.latency_jitter_prob = 0.5;
  cfg.fault_plan.crashes.push_back(
      sim::CrashWindow{1, sim::from_millis(4500), sim::from_millis(4600)});
  Deployment d(cfg);
  obs::Counter& events_total = obs::Registry::global().counter("dfl.sim.events_total");
  const std::uint64_t registry_before = events_total.value();
  const std::uint64_t events_before = d.simulator().events_processed();
  const RunSummary s = d.run(3);
  const std::uint64_t events = d.simulator().events_processed() - events_before;

  std::uint64_t summed_events = 0;
  sim::FaultStats summed_faults;
  for (const RoundMetrics& m : s.rounds) {
    summed_events += m.datapath.sim_events;
    summed_faults.crashes += m.faults.crashes;
    summed_faults.restarts += m.faults.restarts;
    summed_faults.transfers_dropped += m.faults.transfers_dropped;
    summed_faults.payloads_corrupted += m.faults.payloads_corrupted;
    summed_faults.transfers_jittered += m.faults.transfers_jittered;
  }
  EXPECT_EQ(summed_events, events);
  EXPECT_EQ(events_total.value() - registry_before, events);
  ASSERT_NE(d.fault_injector(), nullptr);
  EXPECT_EQ(summed_faults, d.fault_injector()->stats());
  // Rounds close at 4 s, 6 s and 8 s: the 4.5 s crash lands on round 1,
  // and so do round 2's jittered uploads.
  EXPECT_EQ(s.rounds[1].faults.crashes, 1u);
  EXPECT_GT(s.rounds[1].faults.transfers_jittered, 0u);
  for (const RoundMetrics& m : s.rounds) EXPECT_GT(m.datapath.sim_events, 0u);
}

TEST(AsyncRounds, StragglerFoldsInStaleAtReducedWeight) {
  auto cfg = tiny_async();
  // Slow compute overruns t_train by 1s; the fresh gather deadline is
  // t_train + (t_sync - t_train)/4 = 2.5s, so the straggler always misses
  // it and is represented by its previous iteration's gradient instead.
  cfg.trainer_behaviors[0] = TrainerBehavior::kSlow;
  Deployment d(cfg);
  const RunSummary s = d.run(4);
  ASSERT_EQ(s.rounds.size(), 4u);
  // Round 0 has no prior iteration to cover from.
  EXPECT_EQ(total_stale_folds(s.rounds[0]), 0u);
  std::uint64_t stale = 0;
  for (std::size_t r = 1; r < s.rounds.size(); ++r) stale += total_stale_folds(s.rounds[r]);
  EXPECT_GT(stale, 0u) << "the straggler's late uploads should fold in stale";
  for (const RoundMetrics& m : s.rounds) EXPECT_GT(total_fresh_folds(m), 0u);
}

TEST(AsyncRounds, QuantizedAsyncIsDeterministic) {
  auto cfg = tiny_async();
  cfg.options.codec = Codec::kQuant;
  cfg.options.quant_bits = 8;
  Deployment a(cfg);
  Deployment b(cfg);
  const RunSummary sa = a.run(3);
  const RunSummary sb = b.run(3);
  ASSERT_EQ(sa.updates.size(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(sa.rounds[r].global_update_complete);
    ASSERT_EQ(sa.updates[r].size(), sb.updates[r].size());
    for (std::size_t i = 0; i < sa.updates[r].size(); ++i) {
      EXPECT_DOUBLE_EQ(sa.updates[r][i], sb.updates[r][i]);
    }
    // The lossy path actually encoded something.
    EXPECT_GT(sa.rounds[r].codec.encodes, 0u);
    EXPECT_LT(sa.rounds[r].codec.encoded_bytes, sa.rounds[r].codec.raw_bytes);
  }
}

TEST(AsyncRounds, SyncRunStillWorksWithCodec) {
  auto cfg = tiny_async();
  cfg.options.async_rounds = false;
  cfg.options.codec = Codec::kTopK;
  cfg.options.topk_frac = 0.5;
  Deployment d(cfg);
  const RunSummary s = d.run(2);
  ASSERT_EQ(s.rounds.size(), 2u);
  for (const RoundMetrics& m : s.rounds) {
    EXPECT_TRUE(m.global_update_complete);
    EXPECT_GT(m.codec.encodes, 0u);
    EXPECT_GT(m.codec.compression(), 1.5);
  }
}

TEST(AsyncRounds, RejectsInvalidConfigurations) {
  {
    auto cfg = tiny_async();
    cfg.options.verifiable = true;
    EXPECT_THROW((void)std::make_unique<Deployment>(cfg), std::invalid_argument);
  }
  {
    auto cfg = tiny_async();
    cfg.options.codec = Codec::kQuant;
    cfg.options.quant_bits = 1;
    EXPECT_THROW((void)std::make_unique<Deployment>(cfg), std::invalid_argument);
  }
  {
    auto cfg = tiny_async();
    cfg.options.codec = Codec::kTopK;
    cfg.options.topk_frac = 0.0;
    EXPECT_THROW((void)std::make_unique<Deployment>(cfg), std::invalid_argument);
  }
}

}  // namespace
}  // namespace dfl::core
