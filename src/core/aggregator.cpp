#include "core/aggregator.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/log.hpp"
#include "common/serde.hpp"
#include "sim/span.hpp"

namespace dfl::core {

namespace {

/// Async folds are integer-scaled so the staleness-weighted mean stays
/// exact: a fresh gradient carries factor 256, one s iterations old carries
/// round(256/(1+s)^α). The weight element scales along with the values, so
/// Payload::average divides by the exact factor sum — no floating-point in
/// the accumulation domain.
constexpr std::int64_t kAsyncWeightOne = 256;

std::int64_t stale_factor(std::uint32_t staleness, double alpha) {
  const double f = static_cast<double>(kAsyncWeightOne) /
                   std::pow(1.0 + static_cast<double>(staleness), alpha);
  return std::max<std::int64_t>(1, std::llround(f));
}

/// Zero payload of the right shape (used when nothing was gathered).
Payload zero_payload(std::size_t elements) {
  Payload p;
  p.values.assign(elements + 1, 0);
  return p;
}

Bytes encode_sync_message(std::uint32_t agg_id, const ipfs::Cid& cid) {
  Writer w;
  w.put<std::uint32_t>(agg_id);
  w.put_raw(BytesView(cid.digest().data(), cid.digest().size()));
  return w.take();
}

std::pair<std::uint32_t, ipfs::Cid> decode_sync_message(BytesView msg) {
  Reader r(msg);
  const auto agg_id = r.get<std::uint32_t>();
  Bytes digest(32);
  for (auto& b : digest) b = r.get<std::uint8_t>();
  return {agg_id, ipfs::Cid::from_digest(digest)};
}

}  // namespace

std::string Aggregator::sync_topic(std::uint32_t iter) const {
  return "sync/" + std::to_string(partition_) + "/" + std::to_string(iter);
}

sim::Task<void> Aggregator::run_round(std::uint32_t iter, sim::TimeNs round_start,
                                      RoundMetrics& metrics) {
  co_await ctx_.sim.sleep_until(round_start);
  if (behavior_ == AggBehavior::kOffline) {
    co_return;  // never shows up this round; peers must cover
  }
  AggregatorRecord& rec = metrics.aggregators.at(global_id_);
  rec.partition = partition_;
  sim::ScopedSpan round_span(ctx_.sim, "round", host_.id(), ctx_.round_span);
  round_span.attr("aggregator", static_cast<std::int64_t>(global_id_));
  round_span.attr("partition", static_cast<std::int64_t>(partition_));
  round_span.attr("iter", static_cast<std::int64_t>(iter));

  const PartitionAssignment& pa = ctx_.spec.assignment(partition_);
  const bool multi = pa.aggregators.size() > 1;
  // Subscribe before gathering so no sync announcement can be missed.
  if (multi) {
    (void)ctx_.pubsub.subscribe(sync_topic(iter), host_);
  }

  const sim::TimeNs t_train_abs = round_start + ctx_.spec.schedule.t_train;
  const sim::TimeNs t_sync_abs = round_start + ctx_.spec.schedule.t_sync;
  const sim::TimeNs gather_deadline = t_train_abs + (t_sync_abs - t_train_abs) / 4;

  // A malicious "dropping" aggregator simply never requests one of its
  // trainers' gradients.
  std::vector<std::uint32_t> wanted = pa.trainers.at(slot_);
  if (behavior_ == AggBehavior::kDropsGradients && !wanted.empty()) {
    wanted.erase(wanted.begin());
  }

  GatherResult g;
  {
    sim::ScopedSpan gather_span(ctx_.sim, "gather", host_.id(), round_span.id());
    g = co_await gather(iter, wanted, gather_deadline, rec, gather_span.id());
    gather_span.attr("gradients", static_cast<std::int64_t>(g.received.size()));
  }
  Payload partial =
      g.sum ? std::move(*g.sum) : zero_payload(ctx_.spec.partition_size(partition_));
  corrupt(partial, wanted, iter);
  rec.gather_done_at = ctx_.sim.now();
  rec.gradients_aggregated = g.received.size();

  std::optional<Payload> global;
  if (multi) {
    global = co_await synchronize(iter, round_start, std::move(partial), metrics, rec,
                                  round_span.id());
    rec.sync_done_at = ctx_.sim.now();
  } else {
    global = std::move(partial);
    rec.sync_done_at = rec.gather_done_at;
  }
  if (!global) co_return;
  // Nothing aggregated this round (e.g. every trainer offline): there is
  // no meaningful update to publish.
  if (global->weight() <= 0) {
    DFL_WARN("aggregator") << "a" << global_id_ << " has no contributions for partition "
                           << partition_ << "; not publishing";
    co_return;
  }

  // Only the first aggregator to register the (verified) global update
  // writes back; later slots back off progressively so the common case has
  // exactly one writer, while a failed writer is still covered.
  sim::ScopedSpan write_span(ctx_.sim, "global_write", host_.id(), round_span.id());
  if (multi) {
    co_await ctx_.sim.sleep(static_cast<sim::TimeNs>(slot_) * sim::from_seconds(2));
    obs::set_ambient_span(write_span.id());
    const auto existing = co_await ctx_.dir.poll(host_, partition_, iter,
                                                 directory::EntryType::kGlobalUpdate);
    if (!existing.empty()) co_return;
  }
  const bool ok = co_await upload_and_announce(iter, *global,
                                               directory::EntryType::kGlobalUpdate, rec, nullptr,
                                               write_span.id());
  if (ok) {
    rec.global_written_at = ctx_.sim.now();
  } else {
    rec.rejected_by_directory = true;
    ++metrics.rejected_updates;
  }
}

sim::Task<Aggregator::GatherResult> Aggregator::gather(
    std::uint32_t iter, const std::vector<std::uint32_t>& trainers, sim::TimeNs deadline,
    AggregatorRecord& rec, obs::SpanId span) {
  GatherResult g;
  const std::set<std::uint32_t> expected(trainers.begin(), trainers.end());
  if (expected.empty()) co_return g;

  const bool merge_mode = ctx_.spec.options.merge_and_download;
  const bool async = ctx_.spec.options.async_rounds;
  const CodecConfig cc = codec_config(ctx_.spec.options);

  // Individual gradient blocks arrive codec-encoded; merged pre-aggregates
  // always come back dense (the storage-node merger decodes before folding).
  auto decode_wire = [&](const Block& data) {
    return cc.codec == Codec::kDense ? Payload::deserialize(data) : decode_payload(data, cc);
  };

  // provider node -> expected trainers stored there (deterministic rule).
  std::map<std::uint32_t, std::set<std::uint32_t>> groups;
  for (const std::uint32_t t : trainers) {
    groups[ctx_.spec.provider_for(partition_, t)].insert(t);
  }
  std::map<std::uint32_t, std::vector<std::pair<std::uint32_t, ipfs::Cid>>> ready;
  std::set<std::uint32_t> seen;
  std::set<std::uint32_t> merged_providers;

  // Individual-gradient commitments, fetched lazily once (verifiable merge).
  std::optional<std::map<std::uint32_t, crypto::Commitment>> grad_commitments;

  auto absorb = [&](const Payload& p, const std::set<std::uint32_t>& from,
                    std::int64_t factor) {
    if (async) {
      if (factor == kAsyncWeightOne) {
        rec.fresh_folds += from.size();
      } else {
        rec.stale_folds += from.size();
      }
      Payload scaled = p;
      for (std::int64_t& v : scaled.values) v *= factor;
      g.sum = g.sum ? Payload::add(*g.sum, scaled) : std::move(scaled);
    } else {
      g.sum = g.sum ? Payload::add(*g.sum, p) : p;
    }
    g.received.insert(from.begin(), from.end());
  };

  // One gradient through the routing layer, absorbed on arrival. Both
  // degradation paths below fan these out concurrently — a dead replica's
  // retries overlap the healthy downloads instead of serializing after
  // them. Integer sums are order-independent, so concurrent completion
  // order cannot change the aggregate.
  auto fetch_gradient = [&](std::uint32_t t, ipfs::Cid cid) -> sim::Task<void> {
    try {
      // Spawned: re-arm the gather span explicitly for each attempt.
      obs::set_ambient_span(span);
      const Block data = co_await ctx_.swarm.fetch_with_retry(host_, cid, ctx_.spec.options.retry,
                                                              deadline, &rec.rpc);
      rec.bytes_received += data.size();
      absorb(decode_wire(data), {t}, kAsyncWeightOne);
    } catch (const std::exception&) {
      DFL_WARN("aggregator") << "a" << global_id_ << " gradient of t" << t
                             << " unavailable on every replica";
    }
  };

  auto merge_group = [&](std::uint32_t provider_id)
      -> sim::Task<void> {
    auto& list = ready[provider_id];
    if (list.empty()) co_return;
    sim::ScopedSpan merge_span(ctx_.sim, "merge_get", host_.id(), span);
    merge_span.attr("provider", static_cast<std::int64_t>(provider_id));
    merge_span.attr("gradients", static_cast<std::int64_t>(list.size()));
    std::vector<ipfs::Cid> cids;
    std::set<std::uint32_t> from;
    for (const auto& [t, cid] : list) {
      cids.push_back(cid);
      from.insert(t);
    }
    obs::set_ambient_span(merge_span.id());
    const auto merged = co_await ctx_.swarm.merge_get_with_retry(
        provider_id, host_, cids, ctx_.merger, ctx_.spec.options.retry, deadline, &rec.rpc);
    if (!merged) {
      // Provider down or block missing after retries: degrade gracefully to
      // fetching each gradient through the routing layer (replicas on other
      // nodes still serve it).
      DFL_WARN("aggregator") << "a" << global_id_ << " merge at node " << provider_id
                             << " failed; fetching individually";
      ++rec.merge_fallbacks;
      sim::TaskGroup fetches(ctx_.sim);
      for (const auto& [t, cid] : list) fetches.spawn(fetch_gradient(t, cid));
      co_await fetches.join();
      list.clear();
      merged_providers.insert(provider_id);
      co_return;
    }
    ++rec.merge_requests;
    rec.bytes_received += merged->size();
    Payload payload = Payload::deserialize(*merged);

    bool accept = true;
    if (ctx_.spec.options.verifiable) {
      // Check the pre-aggregation against the product of the commitments
      // of the gradients it claims to contain (Section IV-B, last ¶).
      // Groups merge concurrently, so the cached commitment list may have
      // been fetched before this group's trainers registered theirs:
      // refetch whenever a needed commitment is absent.
      bool have_all = grad_commitments.has_value();
      if (have_all) {
        for (const std::uint32_t t : from) {
          if (!grad_commitments->contains(t)) {
            have_all = false;
            break;
          }
        }
      }
      if (!have_all) {
        obs::set_ambient_span(merge_span.id());
        const auto list2 = co_await ctx_.dir.gradient_commitments(host_, partition_, iter);
        grad_commitments.emplace();
        for (const auto& [t, c] : list2) grad_commitments->emplace(t, c);
      }
      std::vector<crypto::Commitment> parts;
      for (const std::uint32_t t : from) {
        const auto it = grad_commitments->find(t);
        if (it == grad_commitments->end()) {
          accept = false;
          break;
        }
        parts.push_back(it->second);
      }
      co_await ctx_.sim.sleep(ctx_.commit_cost(payload.values.size()));
      accept = accept && ctx_.verify(ctx_.key->add_all(parts), payload.values);
      if (!accept) {
        DFL_WARN("aggregator") << "a" << global_id_
                               << " merge result failed verification; falling back to "
                                  "individual downloads from node "
                               << provider_id;
        // Un-merged fallback: fetch each gradient directly, concurrently.
        ++rec.merge_fallbacks;
        sim::TaskGroup fetches(ctx_.sim);
        for (const auto& [t, cid] : list) fetches.spawn(fetch_gradient(t, cid));
        co_await fetches.join();
      }
    }
    if (accept) absorb(payload, from, kAsyncWeightOne);
    list.clear();
    merged_providers.insert(provider_id);
  };

  // Merge groups (and plain-path downloads under the DAG plane) run
  // concurrently with the polling loop: a slow provider's merge overlaps
  // the next group's announcement instead of serializing behind it. The
  // group is always joined before gather returns — the lambdas above live
  // in this frame.
  sim::TaskGroup inflight(ctx_.sim);
  std::exception_ptr gather_error;
  try {
    for (;;) {
      obs::set_ambient_span(span);
      const auto entries =
          co_await ctx_.dir.poll(host_, partition_, iter, directory::EntryType::kGradient);
      for (const auto& e : entries) {
        if (!expected.contains(e.uploader_id) || seen.contains(e.uploader_id)) continue;
        seen.insert(e.uploader_id);
        if (merge_mode) {
          ready[ctx_.spec.provider_for(partition_, e.uploader_id)].emplace_back(e.uploader_id,
                                                                                e.cid);
        } else {
          // Plain path: download each gradient as it appears, bounded by the
          // gather deadline (straggler tolerance: a dead provider costs
          // retries, never the whole round). Concurrent: the next announced
          // gradient starts downloading while this one is still in flight.
          inflight.spawn(fetch_gradient(e.uploader_id, e.cid));
        }
      }
      if (merge_mode) {
        // Merge a provider's batch as soon as all its trainers have announced.
        for (auto& [prov, group] : groups) {
          if (merged_providers.contains(prov)) continue;
          if (ready[prov].size() == group.size()) {
            merged_providers.insert(prov);
            inflight.spawn(merge_group(prov));
          }
        }
      }
      if (g.received.size() == expected.size()) break;
      if (ctx_.sim.now() > deadline) {
        if (merge_mode) {
          // Deadline: merge whatever partial groups are available.
          for (auto& [prov, list] : ready) {
            if (!merged_providers.contains(prov) && !list.empty()) {
              merged_providers.insert(prov);
              inflight.spawn(merge_group(prov));
            }
          }
        }
        break;
      }
      co_await ctx_.sim.sleep(ctx_.spec.schedule.poll_interval);
    }
  } catch (...) {
    // co_await is illegal inside a catch block: capture, drain, rethrow.
    gather_error = std::current_exception();
  }
  // Async staleness cover: a trainer that missed this iteration's gather
  // deadline is represented by its most recent prior-iteration gradient,
  // folded with weight round(256/(1+s)^α). Runs only after the fresh folds
  // settle, so it never races an upload that would still have made it.
  if (async && gather_error == nullptr && iter > 0) {
    co_await inflight.join();
    if (g.received.size() < expected.size()) {
      sim::ScopedSpan fold_span(ctx_.sim, "async_fold", host_.id(), span);
      fold_span.attr("iter", static_cast<std::int64_t>(iter));
      const sim::TimeNs stale_deadline =
          ctx_.sim.now() + (ctx_.spec.schedule.t_sync - ctx_.spec.schedule.t_train) / 4;
      auto fetch_stale = [&](std::uint32_t t, ipfs::Cid cid,
                             std::uint32_t staleness) -> sim::Task<void> {
        sim::ScopedSpan stale_span(ctx_.sim, "stale_update", host_.id(), fold_span.id());
        stale_span.attr("trainer", static_cast<std::int64_t>(t));
        stale_span.attr("staleness", static_cast<std::int64_t>(staleness));
        const std::int64_t factor = stale_factor(staleness, ctx_.spec.options.staleness_alpha);
        stale_span.attr("factor", factor);
        try {
          obs::set_ambient_span(stale_span.id());
          const Block data = co_await ctx_.swarm.fetch_with_retry(
              host_, cid, ctx_.spec.options.retry, stale_deadline, &rec.rpc);
          rec.bytes_received += data.size();
          absorb(decode_wire(data), {t}, factor);
        } catch (const std::exception&) {
          DFL_WARN("aggregator") << "a" << global_id_ << " stale gradient of t" << t
                                 << " unavailable on every replica";
        }
      };
      sim::TaskGroup stale_fetches(ctx_.sim);
      std::set<std::uint32_t> covered;
      std::exception_ptr stale_error;
      try {
        // Freshest first: a trainer found at staleness s is not re-fetched
        // at s+1.
        for (std::uint32_t s = 1; s <= kStaleDepth && s <= iter; ++s) {
          if (g.received.size() + covered.size() >= expected.size()) break;
          obs::set_ambient_span(fold_span.id());
          const auto entries = co_await ctx_.dir.poll(host_, partition_, iter - s,
                                                      directory::EntryType::kGradient);
          for (const auto& e : entries) {
            if (!expected.contains(e.uploader_id) || g.received.contains(e.uploader_id) ||
                covered.contains(e.uploader_id)) {
              continue;
            }
            covered.insert(e.uploader_id);
            stale_fetches.spawn(fetch_stale(e.uploader_id, e.cid, s));
          }
        }
      } catch (...) {
        stale_error = std::current_exception();
      }
      co_await stale_fetches.join();
      fold_span.attr("stale", static_cast<std::int64_t>(covered.size()));
      if (stale_error != nullptr) std::rethrow_exception(stale_error);
    }
  }
  co_await inflight.join();
  if (gather_error != nullptr) std::rethrow_exception(gather_error);
  co_return g;
}

sim::Task<std::optional<Payload>> Aggregator::synchronize(std::uint32_t iter,
                                                          sim::TimeNs round_start,
                                                          Payload own_partial,
                                                          RoundMetrics& metrics,
                                                          AggregatorRecord& rec,
                                                          obs::SpanId parent_span) {
  const PartitionAssignment& pa = ctx_.spec.assignment(partition_);
  const sim::TimeNs t_sync_abs = round_start + ctx_.spec.schedule.t_sync;
  auto& mailbox = ctx_.pubsub.subscribe(sync_topic(iter), host_);
  sim::ScopedSpan sync_span(ctx_.sim, "sync", host_.id(), parent_span);

  // Upload own partial, register it, and announce the hash over pub/sub.
  ipfs::Cid own_cid;
  (void)co_await upload_and_announce(iter, own_partial, directory::EntryType::kPartialUpdate,
                                     rec, &own_cid, sync_span.id());
  obs::set_ambient_span(sync_span.id());
  co_await ctx_.pubsub.publish(host_, sync_topic(iter), encode_sync_message(global_id_, own_cid));

  std::map<std::uint32_t, Payload> partials;  // by aggregator global id
  partials.emplace(global_id_, std::move(own_partial));

  // Batched verification (options.batch_verify): peer partials are accepted
  // provisionally and the whole round is checked in one random-linear-
  // combination MSM after the gather loop; only on failure do we pay for
  // per-partial checks to identify the culprits.
  const bool batched = ctx_.spec.options.verifiable && ctx_.spec.options.batch_verify &&
                       ctx_.engine != nullptr;
  std::vector<std::uint32_t> pending_ids;
  std::vector<crypto::Commitment> pending_cs;

  while (partials.size() < pa.aggregators.size() && ctx_.sim.now() < t_sync_abs) {
    if (mailbox.empty()) {
      co_await ctx_.sim.sleep(ctx_.spec.schedule.poll_interval);
      continue;
    }
    const Block msg = co_await mailbox.receive();
    const auto [peer_id, cid] = decode_sync_message(msg);
    if (partials.contains(peer_id)) continue;
    Block data;
    try {
      obs::set_ambient_span(sync_span.id());
      data = co_await ctx_.swarm.fetch_with_retry(host_, cid, ctx_.spec.options.retry,
                                                  t_sync_abs, &rec.rpc);
    } catch (const std::exception& e) {
      DFL_WARN("aggregator") << "a" << global_id_ << " failed to fetch partial of a" << peer_id
                             << ": " << e.what();
      continue;
    }
    rec.bytes_received += data.size();
    Payload payload = Payload::deserialize(data);
    if (ctx_.spec.options.verifiable) {
      // A partial must open the accumulated commitment of that peer's T_ij.
      obs::set_ambient_span(sync_span.id());
      const crypto::Commitment acc =
          co_await ctx_.dir.aggregator_commitment(host_, partition_, peer_id, iter);
      if (batched) {
        pending_ids.push_back(peer_id);
        pending_cs.push_back(acc);
      } else {
        co_await ctx_.sim.sleep(ctx_.commit_cost(payload.values.size()));
        if (!ctx_.verify(acc, payload.values)) {
          ++metrics.rejected_updates;
          DFL_WARN("aggregator") << "a" << global_id_ << " REJECTED partial from a" << peer_id
                                 << " (commitment mismatch)";
          continue;  // treat as missing; covered below if we are responsible
        }
      }
    }
    partials.emplace(peer_id, std::move(payload));
  }

  if (batched && !pending_ids.empty()) {
    std::vector<std::vector<std::int64_t>> openings;
    openings.reserve(pending_ids.size());
    std::size_t batch_elements = 0;
    for (const std::uint32_t peer : pending_ids) {
      openings.push_back(partials.at(peer).values);
      batch_elements = std::max(batch_elements, openings.back().size());
    }
    // Simulated cost of the folded check: one generator MSM over the
    // largest opening plus one small per-commitment MSM — against k full
    // verifications on the per-partial path.
    co_await ctx_.sim.sleep(ctx_.commit_cost(batch_elements + pending_ids.size()));
    if (!ctx_.engine->verify_batch(pending_cs, openings)) {
      // Someone cheated: identify the culprits individually and drop them.
      for (std::size_t i = 0; i < pending_ids.size(); ++i) {
        co_await ctx_.sim.sleep(ctx_.commit_cost(openings[i].size()));
        if (!ctx_.verify(pending_cs[i], openings[i])) {
          partials.erase(pending_ids[i]);
          ++metrics.rejected_updates;
          DFL_WARN("aggregator") << "a" << global_id_ << " REJECTED partial from a"
                                 << pending_ids[i] << " (batched commitment mismatch)";
        }
      }
    }
  }

  // Cover for peers whose (valid) partial never arrived: the live
  // aggregator with the smallest id among contributors downloads the
  // missing trainers' gradients itself.
  if (partials.size() < pa.aggregators.size()) {
    const std::uint32_t coverer = partials.begin()->first;  // smallest id present
    if (coverer == global_id_) {
      for (std::size_t j = 0; j < pa.aggregators.size(); ++j) {
        const std::uint32_t peer = pa.aggregators[j];
        if (partials.contains(peer)) continue;
        DFL_INFO("aggregator") << "a" << global_id_ << " covering for a" << peer;
        rec.covered_for_peer = true;
        GatherResult g = co_await gather(iter, pa.trainers[j], t_sync_abs, rec, sync_span.id());
        if (g.sum) partials.emplace(peer, std::move(*g.sum));
      }
    } else {
      // Give the coverer time; poll the directory for its replacement
      // partial registrations is out of scope — the coverer folds the
      // recovered gradients into the global update itself.
      co_return std::nullopt;
    }
  }

  Payload global = zero_payload(ctx_.spec.partition_size(partition_));
  for (auto& [id, p] : partials) global = Payload::add(global, p);
  co_return global;
}

sim::Task<bool> Aggregator::upload_and_announce(std::uint32_t iter, const Payload& payload,
                                                directory::EntryType type,
                                                AggregatorRecord& rec, ipfs::Cid* out_cid,
                                                obs::SpanId span) {
  const PartitionAssignment& pa = ctx_.spec.assignment(partition_);
  // Spread update uploads across this aggregator's provider set so partial
  // exchange in the sync phase doesn't funnel through one storage node.
  // Dead providers are retried, then skipped (failover to the next in the
  // set). Not bounded by t_sync: publishing a late global update still
  // beats losing the round.
  const auto& provs = pa.providers.at(slot_);
  // Serialize once; replicas and retries below share the buffer.
  const Block data(payload.serialize());
  const std::size_t want_copies =
      type == directory::EntryType::kGlobalUpdate
          ? std::min(ctx_.spec.options.update_replicas, provs.size())
          : 1;  // partial updates are fetched a few times only
  const directory::Addr addr{global_id_, partition_, iter, type};

  if (ctx_.spec.options.chunking == ipfs::ChunkingMode::kDag) {
    // Chunked plane: the root CID is computable locally, so announce FIRST
    // — downloaders discover the update and stream its leaves while the
    // upload is still on our uplink (announce-before-upload overlap). One
    // primary copy goes out synchronously; further replicas spread
    // node-to-node in the background, off this writer's uplink.
    //
    // Exception: a verifiable directory fetches a global update at announce
    // time to check it opens the accumulated commitment, so the announce
    // must wait until a copy is actually fetchable.
    const bool announce_early =
        !(ctx_.spec.options.verifiable && type == directory::EntryType::kGlobalUpdate);
    const ipfs::Cid root = ipfs::Chunker(ctx_.spec.options.chunk_size).root_cid(data);
    if (out_cid != nullptr) *out_cid = root;
    if (announce_early) {
      obs::set_ambient_span(span);
      if (!co_await ctx_.dir.announce(host_, addr, root)) co_return false;
    }
    // All replica uploads launch together: their leaves queue FIFO on our
    // uplink, so the first copy lands exactly as fast as a lone upload and
    // the rest trail right behind it — no idle uplink between replicas, and
    // downloaders stripe across copies as each leaf's record appears.
    std::size_t copies = 0;
    sim::TaskGroup puts(ctx_.sim);
    auto put_replica = [this, &data, &root, &rec, &copies, span](std::uint32_t node_id)
        -> sim::Task<void> {
      // Spawned: re-arm the enclosing span explicitly.
      obs::set_ambient_span(span);
      const auto got = co_await ctx_.swarm.put_with_retry(node_id, host_, data,
                                                          ctx_.spec.options.retry, -1, &rec.rpc);
      if (!got) {
        DFL_WARN("aggregator") << "a" << global_id_ << " update upload to node " << node_id
                               << " failed after retries";
        ++rec.rpc.failovers;
        co_return;
      }
      if (*got != root) {
        DFL_WARN("aggregator") << "a" << global_id_
                               << " announced root does not match stored root";
      }
      ++copies;
    };
    for (std::size_t k = 0; k < provs.size() && k < want_copies; ++k) {
      puts.spawn(put_replica(provs[(global_id_ + k) % provs.size()]));
    }
    co_await puts.join();
    if (copies == 0) {
      DFL_WARN("aggregator") << "a" << global_id_ << " could not store its update anywhere";
      co_return false;
    }
    // A failed target leaves us short a replica: spread node-to-node.
    if (copies < want_copies) ctx_.swarm.replicate_background(root, want_copies);
    if (!announce_early) {
      obs::set_ambient_span(span);
      co_return co_await ctx_.dir.announce(host_, addr, root);
    }
    co_return true;
  }

  ipfs::Cid cid;
  std::size_t copies = 0;
  for (std::size_t k = 0; k < provs.size() && copies < want_copies; ++k) {
    const std::uint32_t node_id = provs[(global_id_ + k) % provs.size()];
    obs::set_ambient_span(span);
    const auto got = co_await ctx_.swarm.put_with_retry(node_id, host_, data,
                                                        ctx_.spec.options.retry, -1, &rec.rpc);
    if (!got) {
      DFL_WARN("aggregator") << "a" << global_id_ << " update upload to node " << node_id
                             << " failed after retries";
      if (copies == 0) ++rec.rpc.failovers;
      continue;
    }
    cid = *got;
    ++copies;
  }
  if (copies == 0) {
    DFL_WARN("aggregator") << "a" << global_id_ << " could not store its update anywhere";
    co_return false;
  }
  if (out_cid != nullptr) *out_cid = cid;
  obs::set_ambient_span(span);
  co_return co_await ctx_.dir.announce(host_, addr, cid);
}

void Aggregator::corrupt(Payload& partial, const std::vector<std::uint32_t>& /*trainers*/,
                         std::uint32_t iter) {
  if (behavior_ == AggBehavior::kAltersGradients && !partial.values.empty()) {
    // Poison a few elements deterministically (reproducible attacks).
    partial.values[0] += 1 << 20;
    partial.values[partial.values.size() / 2] -= static_cast<std::int64_t>(iter + 1) << 16;
  }
}

}  // namespace dfl::core
