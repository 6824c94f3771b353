// The aggregator actor of Algorithm 1: gathers its trainers' gradient
// partitions from storage (optionally via merge-and-download), forms the
// partial update, synchronizes with the other aggregators of the same
// partition (pub/sub hash announcements + verification of partials in
// verifiable mode), forms the global partition update, and registers it
// with the directory. Supports the Section III-A malicious behaviours and
// covering for offline peers.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/context.hpp"
#include "core/metrics.hpp"
#include "sim/task.hpp"

namespace dfl::core {

/// How many prior iterations an async aggregator's staleness cover looks
/// back through. The round driver keeps that many iterations of directory
/// rows behind each async round it closes.
inline constexpr std::uint32_t kStaleDepth = 2;

class Aggregator {
 public:
  /// `global_id` indexes metrics.aggregators and names this participant in
  /// directory announcements; `partition`/`slot` locate it in the spec
  /// (slot j within A_i).
  Aggregator(Context& ctx, std::uint32_t global_id, std::uint32_t partition, std::uint32_t slot,
             sim::Host& host, AggBehavior behavior = AggBehavior::kHonest)
      : ctx_(ctx),
        global_id_(global_id),
        partition_(partition),
        slot_(slot),
        host_(host),
        behavior_(behavior) {}

  [[nodiscard]] std::uint32_t global_id() const { return global_id_; }
  [[nodiscard]] std::uint32_t partition() const { return partition_; }
  [[nodiscard]] AggBehavior behavior() const { return behavior_; }
  void set_behavior(AggBehavior b) { behavior_ = b; }

  [[nodiscard]] sim::Task<void> run_round(std::uint32_t iter, sim::TimeNs round_start,
                                          RoundMetrics& metrics);

 private:
  struct GatherResult {
    std::optional<Payload> sum;        // sum of received gradient payloads
    std::set<std::uint32_t> received;  // trainers included
  };

  /// Phase 1: collect gradients of the given trainer set. Used both for our
  /// own T_ij and for covering an offline peer's set. `span` is the obs span
  /// the phase's transfers attribute to (explicit because the fetch/merge
  /// helpers are spawned, and ambient span context cannot cross a spawn).
  [[nodiscard]] sim::Task<GatherResult> gather(std::uint32_t iter,
                                               const std::vector<std::uint32_t>& trainers,
                                               sim::TimeNs deadline, AggregatorRecord& rec,
                                               obs::SpanId span);

  /// Phase 2: multi-aggregator synchronization; returns the global payload.
  [[nodiscard]] sim::Task<std::optional<Payload>> synchronize(std::uint32_t iter,
                                                              sim::TimeNs round_start,
                                                              Payload own_partial,
                                                              RoundMetrics& metrics,
                                                              AggregatorRecord& rec,
                                                              obs::SpanId parent_span);

  /// Uploads `payload` to our first provider and announces it; stores the
  /// resulting CID through `out_cid` when non-null. Retries/failovers are
  /// recorded in `rec.rpc`.
  [[nodiscard]] sim::Task<bool> upload_and_announce(std::uint32_t iter, const Payload& payload,
                                                    directory::EntryType type,
                                                    AggregatorRecord& rec, ipfs::Cid* out_cid,
                                                    obs::SpanId span);

  /// Applies this aggregator's malicious behaviour to a formed partial.
  void corrupt(Payload& partial, const std::vector<std::uint32_t>& trainers,
               std::uint32_t iter);

  [[nodiscard]] std::string sync_topic(std::uint32_t iter) const;

  Context& ctx_;
  std::uint32_t global_id_;
  std::uint32_t partition_;
  std::uint32_t slot_;
  sim::Host& host_;
  AggBehavior behavior_;
};

}  // namespace dfl::core
