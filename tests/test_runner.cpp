// Deployment-level tests: the multi-round run() API, ML integration with
// accuracy tracking, deterministic replays, directory garbage collection
// between rounds, and run() against a run_round loop.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "ml/federated.hpp"

namespace dfl::core {
namespace {

DeploymentConfig tiny() {
  DeploymentConfig cfg;
  cfg.num_trainers = 4;
  cfg.num_partitions = 2;
  cfg.partition_elements = 16;
  cfg.num_ipfs_nodes = 2;
  cfg.train_time = sim::from_millis(100);
  cfg.schedule = Schedule{sim::from_seconds(20), sim::from_seconds(40), sim::from_millis(50)};
  return cfg;
}

bool has_gradient_rows(Deployment& d, std::uint32_t iter) {
  return !d.directory().rows(0, iter, directory::EntryType::kGradient).empty();
}

std::uint64_t fingerprint(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ull;
  for (const double x : v) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &x, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Directory rows per (partition, iteration, entry type), iterations < iters.
std::vector<std::size_t> row_counts(Deployment& d, std::uint32_t iters) {
  std::vector<std::size_t> counts;
  for (std::uint32_t p = 0; p < d.config().num_partitions; ++p) {
    for (std::uint32_t it = 0; it < iters; ++it) {
      for (const auto type : {directory::EntryType::kGradient, directory::EntryType::kPartialUpdate,
                              directory::EntryType::kGlobalUpdate}) {
        counts.push_back(d.directory().rows(p, it, type).size());
      }
    }
  }
  return counts;
}

/// Every simulated field of two records of the same round.
void expect_same_round(const RoundMetrics& a, const RoundMetrics& b) {
  EXPECT_EQ(a.iter, b.iter);
  EXPECT_EQ(a.round_start, b.round_start);
  EXPECT_EQ(a.first_gradient_announce, b.first_gradient_announce);
  EXPECT_EQ(a.round_done, b.round_done);
  EXPECT_EQ(a.rejected_updates, b.rejected_updates);
  EXPECT_EQ(a.partitions_complete, b.partitions_complete);
  EXPECT_EQ(a.partitions_total, b.partitions_total);
  EXPECT_EQ(a.global_update_complete, b.global_update_complete);
  EXPECT_EQ(a.datapath.sim_events, b.datapath.sim_events);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.sharding.shards, b.sharding.shards);
  EXPECT_EQ(a.sharding.windows, b.sharding.windows);
  EXPECT_EQ(a.sharding.cross_shard_transfers, b.sharding.cross_shard_transfers);
  EXPECT_EQ(a.sharding.local_shard_transfers, b.sharding.local_shard_transfers);
  EXPECT_EQ(a.codec.encoded_bytes, b.codec.encoded_bytes);
  EXPECT_EQ(a.rpc_totals().attempts, b.rpc_totals().attempts);
  ASSERT_EQ(a.trainers.size(), b.trainers.size());
  for (std::size_t i = 0; i < a.trainers.size(); ++i) {
    EXPECT_EQ(a.trainers[i].model_ready_at, b.trainers[i].model_ready_at) << "trainer " << i;
    EXPECT_EQ(a.trainers[i].upload_delay_total_s, b.trainers[i].upload_delay_total_s);
    EXPECT_EQ(a.trainers[i].uploads, b.trainers[i].uploads);
  }
  ASSERT_EQ(a.aggregators.size(), b.aggregators.size());
  for (std::size_t i = 0; i < a.aggregators.size(); ++i) {
    EXPECT_EQ(a.aggregators[i].global_written_at, b.aggregators[i].global_written_at)
        << "aggregator " << i;
    EXPECT_EQ(a.aggregators[i].bytes_received, b.aggregators[i].bytes_received);
    EXPECT_EQ(a.aggregators[i].gradients_aggregated, b.aggregators[i].gradients_aggregated);
  }
}

TEST(Runner, MultiRoundRunCollectsMetrics) {
  Deployment d(tiny());
  const RunSummary s = d.run(4);
  ASSERT_EQ(s.rounds.size(), 4u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(s.rounds[r].iter, r);
    EXPECT_GE(s.rounds[r].round_done, s.rounds[r].round_start);
  }
  // Rounds proceed on a single simulated timeline.
  EXPECT_GT(s.rounds[3].round_start, s.rounds[0].round_start);
}

TEST(Runner, DeterministicAcrossIdenticalDeployments) {
  auto cfg = tiny();
  cfg.seed = 1234;
  Deployment a(cfg);
  Deployment b(cfg);
  const RoundMetrics ma = a.run_round(0);
  const RoundMetrics mb = b.run_round(0);
  EXPECT_EQ(ma.round_done, mb.round_done);
  EXPECT_EQ(ma.first_gradient_announce, mb.first_gradient_announce);
  ASSERT_EQ(a.last_global_update().size(), b.last_global_update().size());
  for (std::size_t i = 0; i < a.last_global_update().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.last_global_update()[i], b.last_global_update()[i]);
  }
}

TEST(Runner, MlRunTracksAccuracyAndImproves) {
  Rng rng(5);
  const ml::Dataset data = ml::make_gaussian_blobs(rng, 600, 4, 2, 4.0);
  const ml::Dataset eval = ml::make_gaussian_blobs(rng, 300, 4, 2, 4.0);
  const auto shards = ml::split_iid(data, 4, rng);
  Rng model_rng(3);
  auto model = std::make_unique<ml::LogisticRegression>(4, 2, model_rng);
  const std::size_t params = model->num_params();
  auto source = std::make_unique<MlGradientSource>(std::move(model), shards, 0.5,
                                                   sim::from_millis(100));

  auto cfg = tiny();
  cfg.num_partitions = 2;
  cfg.partition_elements = params / 2;
  Deployment d(cfg, std::move(source));
  const RunSummary s = d.run(10, &eval);
  ASSERT_EQ(s.accuracy.size(), 10u);
  ASSERT_EQ(s.loss.size(), 10u);
  EXPECT_GT(s.accuracy.back(), 0.9);
  EXPECT_LT(s.loss.back(), s.loss.front());
  EXPECT_DOUBLE_EQ(s.rounds.back().post_round_accuracy, s.accuracy.back());
}

TEST(Runner, DirectoryGcBoundsState) {
  // Closing a sync round garbage-collects every iteration before it, in
  // run() and in a run_round loop alike.
  Deployment whole(tiny());
  (void)whole.run(3);
  Deployment loop(tiny());
  for (std::uint32_t r = 0; r < 3; ++r) (void)loop.run_round(r);
  for (Deployment* d : {&whole, &loop}) {
    EXPECT_FALSE(has_gradient_rows(*d, 0));
    EXPECT_FALSE(has_gradient_rows(*d, 1));
    EXPECT_TRUE(has_gradient_rows(*d, 2));
  }

  // Closing async round r keeps iteration r - kStaleDepth, which later
  // rounds' staleness covers still read, and drops the older ones.
  auto cfg = tiny();
  cfg.options.async_rounds = true;
  Deployment async(cfg);
  const std::uint32_t rounds = kStaleDepth + 2;
  (void)async.run(static_cast<int>(rounds));
  const std::uint32_t kept = rounds - 1 - kStaleDepth;
  for (std::uint32_t it = 0; it < rounds; ++it) {
    EXPECT_EQ(has_gradient_rows(async, it), it >= kept) << "iteration " << it;
  }
}

TEST(Runner, RunMatchesRunRoundLoop) {
  // run(n) and n calls of run_round drive the same rounds through the same
  // launch and close steps: equal aggregates, equal simulated metrics, and
  // equal directory state after every round.
  constexpr std::uint32_t kRounds = 3;
  for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
    for (const std::uint32_t shards : {1u, 2u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", K " + std::to_string(shards));
      auto cfg = tiny();
      cfg.seed = seed;
      cfg.shards = shards;
      Deployment whole(cfg);
      const RunSummary s = whole.run(static_cast<int>(kRounds));
      ASSERT_EQ(s.rounds.size(), kRounds);
      ASSERT_EQ(s.updates.size(), kRounds);
      EXPECT_EQ(fingerprint(whole.last_global_update()), fingerprint(s.updates.back()));

      Deployment loop(cfg);
      for (std::uint32_t r = 0; r < kRounds; ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        const RoundMetrics m = loop.run_round(r);
        expect_same_round(s.rounds[r], m);
        EXPECT_FALSE(s.updates[r].empty());
        EXPECT_EQ(fingerprint(s.updates[r]), fingerprint(loop.last_global_update()));
        // The directory as run() leaves it after its round r.
        Deployment prefix(cfg);
        (void)prefix.run(static_cast<int>(r + 1));
        EXPECT_EQ(row_counts(prefix, kRounds), row_counts(loop, kRounds));
      }
    }
  }
}

TEST(Runner, AccessorsExposeTopology) {
  auto cfg = tiny();
  cfg.aggs_per_partition = 2;
  Deployment d(cfg);
  EXPECT_EQ(d.num_aggregators(), 4u);  // 2 partitions x 2 slots
  EXPECT_EQ(d.swarm().node_count(), 2u);
  EXPECT_EQ(d.trainer(0).id(), 0u);
  EXPECT_EQ(d.aggregator(3).partition(), 1u);
  EXPECT_EQ(d.config().num_trainers, 4u);
}

TEST(Runner, SyntheticSourceRecordsLastUpdate) {
  Deployment d(tiny());
  (void)d.run_round(0);
  auto* src = dynamic_cast<SyntheticGradientSource*>(&d.source());
  ASSERT_NE(src, nullptr);
  EXPECT_EQ(src->last_update().size(), d.last_global_update().size());
}

TEST(Runner, ShardedRoundsAreBitIdenticalToSerial) {
  auto cfg = tiny();
  cfg.seed = 99;
  Deployment serial(cfg);
  cfg.shards = 2;
  Deployment sharded(cfg);
  EXPECT_EQ(sharded.shards(), 2u);
  EXPECT_GE(sharded.lookahead(), 1);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const RoundMetrics ma = serial.run_round(r);
    const RoundMetrics mb = sharded.run_round(r);
    EXPECT_EQ(ma.round_done, mb.round_done);
    EXPECT_EQ(ma.first_gradient_announce, mb.first_gradient_announce);
    EXPECT_EQ(ma.datapath.sim_events, mb.datapath.sim_events);
    // The windowed driver fills the sharding record; serial leaves it zero.
    EXPECT_EQ(ma.sharding.windows, 0u);
    EXPECT_GT(mb.sharding.windows, 0u);
    EXPECT_EQ(mb.sharding.shards, 2u);
    EXPECT_GT(mb.sharding.cross_shard_transfers + mb.sharding.local_shard_transfers, 0u);
    ASSERT_EQ(serial.last_global_update().size(), sharded.last_global_update().size());
    for (std::size_t i = 0; i < serial.last_global_update().size(); ++i) {
      EXPECT_DOUBLE_EQ(serial.last_global_update()[i], sharded.last_global_update()[i]);
    }
  }
}

TEST(Runner, ShardCountClampsToHostsAndRejectsBadEnv) {
  auto cfg = tiny();  // 2 nodes + 1 directory + 4 trainers + 2 aggs = 9 hosts
  cfg.shards = 64;    // more shards than hosts: placement clamps
  Deployment d(cfg);
  EXPECT_LE(d.shards(), 9u);
  EXPECT_EQ(d.shard_placement().hosts(), 9u);
}

}  // namespace
}  // namespace dfl::core
