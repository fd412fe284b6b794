// The session driver core: the one external driver of the paper (Section
// 4.2.4) behind both public sessions. JoinSession is this core over one
// shard; ShardedJoinSession is the same core over N shards (DESIGN.md
// Sections 8 and 13). The core owns
//
//   * the query lifecycle: session-wide QueryIds, the live set, epochs and
//     the single QueryRouter every result passes through;
//   * the driver proper: sequence numbering, monotonic timestamps, the
//     ExpiryTracker over the global arrival order, admission and loss gaps;
//   * partition routing: with more than one shard each arrival goes to the
//     shard(s) the PartitionPolicy names, and each expiry to exactly the
//     shards that received its tuple.
//
// It emits into its shards through a narrow interface — Arrive / Expire /
// Loss / InstallEpoch / EndPush, plus Start / Poll / Finish / Stop —
// implemented by EngineShard (core/engine_shard.hpp) in production and by
// a recording sink in the driver tests. A scalar push is a span of one.
//
// Every shard reports to its own ShardOutput, which merges the shards'
// output into the single-session handler contract: results route by
// (query, epoch) tag, an epoch counts as drained once every shard drained
// it, a punctuation is forwarded once every shard has reached it, and loss
// bounds (each injected into exactly one shard) pass straight through.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/contracts.hpp"
#include "common/types.hpp"
#include "common/vec_deque.hpp"
#include "stream/admission.hpp"
#include "stream/handlers.hpp"
#include "stream/message.hpp"
#include "stream/partitioner.hpp"
#include "stream/query_set.hpp"
#include "stream/script.hpp"
#include "stream/stats.hpp"
#include "stream/window.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred, typename Shard>
class SessionCore {
 public:
  /// Identifies a registered query; results of query `id` are routed to the
  /// handler passed to the AddQuery call that returned this handle.
  struct QueryHandle {
    QueryId id = 0;
  };

  /// Driver settings shared by every shard.
  struct Options {
    const char* name = "JoinSession";  ///< prefixes usage-error messages
    WindowSpec window_r;
    WindowSpec window_s;
    PartitionPolicy partition = PartitionPolicy::kReplicateR;  ///< resolved
    int64_t latency_budget_us = 0;
    OverloadPolicy overload_policy = OverloadPolicy::kNone;
  };

  SessionCore(const Options& options,
              std::vector<std::unique_ptr<Shard>> shards)
      : options_(options),
        tracker_(options.window_r, options.window_s),
        shards_(std::move(shards)) {
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      outputs_.push_back(std::make_unique<ShardOutput>());
      outputs_.back()->core = this;
    }
  }

  ~SessionCore() { Stop(); }

  SessionCore(const SessionCore&) = delete;
  SessionCore& operator=(const SessionCore&) = delete;

  // -- Query lifecycle (DESIGN.md Section 10) --------------------------------

  /// Registers a query: `pred` is evaluated at every window crossing,
  /// matches are delivered to `handler` (null = count only). May be called
  /// before the first Push (part of epoch 0) or on a live session — then a
  /// new epoch is installed on every shard at the current driver-order
  /// boundary, and the query matches every pair whose later input is pushed
  /// from here on.
  QueryHandle AddQuery(Pred pred, OutputHandler<R, S>* handler) {
    const QueryId id = router_.Register(handler);
    preds_.push_back(pred);
    live_.push_back(1);
    if (started_) InstallEpoch({});
    return QueryHandle{id};
  }

  /// Removes a live query at the current driver-order boundary: it matches
  /// no pair whose later input is pushed after this call. Its handler stays
  /// registered until every shard has drained every older epoch, then
  /// receives the final punctuation (OnQueryRetired) exactly once. Returns
  /// false when the handle is unknown or already removed.
  bool RemoveQuery(QueryHandle handle) {
    if (!query_live(handle.id)) return false;
    live_[handle.id] = 0;
    if (started_) {
      InstallEpoch({handle.id});
    } else {
      pre_start_removed_.push_back(handle.id);  // retired at start
    }
    return true;
  }

  /// Number of live (registered and not removed) queries.
  std::size_t query_count() const {
    return static_cast<std::size_t>(std::count(live_.begin(), live_.end(), 1));
  }

  /// True while `id` is registered and not removed.
  bool query_live(QueryId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  // -- Ingestion -----------------------------------------------------------
  //
  // Timestamps must be non-decreasing across both sides (stream order;
  // regressions are clamped). A span is ordered internally by index and is
  // equivalent to the per-tuple loop over it; the per-tuple overloads are
  // spans of one.

  void PushR(const R& r, Timestamp ts) {
    Push<StreamSide::kR>(std::span<const R>(&r, 1),
                         std::span<const Timestamp>(&ts, 1));
  }
  void PushS(const S& s, Timestamp ts) {
    Push<StreamSide::kS>(std::span<const S>(&s, 1),
                         std::span<const Timestamp>(&ts, 1));
  }
  void PushR(std::span<const R> rs, std::span<const Timestamp> tss) {
    Push<StreamSide::kR>(rs, tss);
  }
  void PushS(std::span<const S> ss, std::span<const Timestamp> tss) {
    Push<StreamSide::kS>(ss, tss);
  }

  /// Builds the shards' engines without pushing anything (the first push
  /// does it otherwise); the live set becomes epoch 0.
  void Start() {
    if (started_) return;
    if (query_count() == 0) {
      throw std::logic_error(
          std::string(options_.name) +
          ": cannot start ingestion with 0 live queries (session state: not "
          "started, " + std::to_string(live_.size()) + " registered, " +
          std::to_string(pre_start_removed_.size()) +
          " removed before start); register at least one query via AddQuery "
          "before the first Push");
    }
    started_ = true;
    AdmissionController::Options adm;
    adm.budget_ns = options_.latency_budget_us * 1000;
    adm.policy = options_.overload_policy;
    admission_.Configure(adm);  // preserves a pre-installed force hook
    std::vector<QueryId> ids = LiveIds();
    router_.BeginEpoch(0, ids, pre_start_removed_);
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      shards_[k]->Start(LiveSet(), ids, outputs_[k].get());
    }
    // Nothing precedes epoch 0, so it is drained by definition — this also
    // retires queries that were removed before the session ever started.
    router_.OnEpochDrained(0);
  }

  /// Driver-visible backlog: messages queued in the shards' channels
  /// (result queues excluded). Admission projects latency from it.
  std::size_t ingest_backlog() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard->backlog();
    return n;
  }

  // -- Output --------------------------------------------------------------

  /// Delivers pending results (and punctuations) to the per-query handlers.
  /// Non-threaded pipelines also advance here.
  void Poll() {
    for (auto& shard : shards_) shard->Poll();
  }

  /// Ends the input: closes still-open loss gaps (no later admitted tuple
  /// will carry them), flushes every shard and drains everything to the
  /// handlers.
  void FinishInput() {
    if (!started_ || finished_) return;
    finished_ = true;
    EmitLoss(StreamSide::kR);
    EmitLoss(StreamSide::kS);
    for (auto& shard : shards_) shard->Finish();
  }

  void Stop() {
    for (auto& shard : shards_) shard->Stop();
  }

  // -- Introspection ---------------------------------------------------------

  uint64_t results_collected() const { return router_.total_collected(); }
  /// Results routed to query `q` so far.
  uint64_t results_collected(QueryId q) const { return router_.collected(q); }
  bool started() const { return started_; }

  /// Epoch of the query set currently being installed into pushes: results
  /// of pairs whose later input is pushed now carry this epoch.
  Epoch current_epoch() const { return current_epoch_; }

  /// Highest epoch known fully drained on every shard: every result of an
  /// older epoch has been delivered, and queries removed at or before that
  /// boundary have received their final punctuation.
  Epoch drained_epoch() const { return router_.drained_epoch(); }

  /// Diagnostics for tests: anomaly counters (and misrouted results) must
  /// stay zero.
  uint64_t pipeline_anomalies() const {
    uint64_t n = router_.misrouted();
    for (const auto& shard : shards_) n += shard->anomalies();
    return n;
  }

  /// Overload-control introspection. `admission()` is mutable so tests can
  /// install the deterministic force-shed hook before the first Push.
  AdmissionController& admission() { return admission_; }
  const AdmissionController& admission() const { return admission_; }

  /// Ground truth: tuples shed at ingest per side.
  uint64_t tuples_shed(StreamSide side) const {
    return admission_.shed_count(side);
  }

  /// Tuples reported lost to the handlers so far (sum of delivered OnLoss
  /// bounds). Equals tuples_shed once the stream has drained — the
  /// exact-accounting invariant.
  uint64_t tuples_lost_reported(StreamSide side) const {
    return router_.lost(side);
  }

 protected:
  std::size_t shard_total() const { return shards_.size(); }
  const Shard& shard(std::size_t k) const { return *shards_[k]; }
  /// End-to-end latency of the results shard `k` delivered.
  const LatencyHistogram& shard_latency(std::size_t k) const {
    return outputs_[k]->latency;
  }

 private:
  /// Per-shard output adapter: records the shard's latency and drain and
  /// punctuation marks, then merges into the one router.
  struct ShardOutput : OutputHandler<R, S> {
    SessionCore* core = nullptr;
    LatencyHistogram latency;
    Epoch drained = 0;
    Timestamp punctuation = kMinTimestamp;

    void OnResult(const ResultMsg<R, S>& m) override {
      const int64_t now = NowNs();
      if (m.ready_wall_ns > 0) {
        latency.Add(now - m.ready_wall_ns);
        core->admission_.ObserveResult(now - m.ready_wall_ns, now);
      }
      core->router_.OnResult(m);
    }
    void OnLoss(StreamSide side, Seq first_seq, uint64_t count) override {
      core->router_.OnLoss(side, first_seq, count);
    }
    /// A timestamp is safe for the whole session only once EVERY shard has
    /// punctuated it (a lagging shard may still emit results below its own
    /// mark): forward the min over the shards' marks when it advances.
    void OnPunctuation(Timestamp tp) override {
      punctuation = std::max(punctuation, tp);
      Timestamp merged = punctuation;
      for (const auto& out : core->outputs_) {
        merged = std::min(merged, out->punctuation);
      }
      if (merged > core->last_punctuation_) {
        core->last_punctuation_ = merged;
        core->router_.OnPunctuation(merged);
      }
    }
    /// An epoch is drained session-wide once every shard drained it; the
    /// router then retires removed queries exactly once.
    void OnEpochDrained(Epoch epoch) override {
      drained = std::max(drained, epoch);
      Epoch merged = drained;
      for (const auto& out : core->outputs_) {
        merged = std::min(merged, out->drained);
      }
      core->router_.OnEpochDrained(merged);
    }
  };

  template <StreamSide kSide, typename T>
  void Push(std::span<const T> tuples, std::span<const Timestamp> tss) {
    if (tuples.size() != tss.size()) {
      throw std::invalid_argument(
          std::string(options_.name) + "::Push" +
          (kSide == StreamSide::kR ? "R" : "S") +
          ": tuple and timestamp spans differ in size");
    }
    driver_role_.AssertHeld(options_.name, "driver");
    Start();
    Seq& next_seq = kSide == StreamSide::kR ? r_seq_ : s_seq_;
    StreamSide expired_side;
    Seq expired_seq;
    Timestamp expired_ts;
    for (std::size_t i = 0; i < tuples.size(); ++i) {
      const Timestamp ts = std::max(tss[i], last_ts_);
      last_ts_ = ts;
      while (tracker_.PopTimeExpiry(ts, &expired_side, &expired_seq,
                                    &expired_ts)) {
        Expire(expired_side, expired_seq, expired_ts);
      }
      const Seq seq = next_seq++;
      if (Shed(kSide, seq)) continue;  // the tracker never sees it
      EmitLoss(kSide);
      if (shards_.size() == 1) {
        shards_[0]->template Arrive<kSide>(tuples[i], seq, ts, current_epoch_);
      } else {
        Partition<kSide>(tuples[i], seq, ts);
      }
      if (tracker_.OnArrival(kSide, seq, ts, &expired_seq, &expired_ts)) {
        Expire(kSide, expired_seq, expired_ts);
      }
    }
    for (auto& shard : shards_) shard->EndPush(kSide);
  }

  /// Routes one arrival over several shards: to the key's shard (kHashKey),
  /// to every shard (the replicated side) or round-robin by sequence number
  /// (the partitioned side), recording the route its expiry will take.
  template <StreamSide kSide, typename T>
  void Partition(const T& tuple, Seq seq, Timestamp ts) {
    if (Replicated(kSide)) {
      for (auto& shard : shards_) {
        shard->template Arrive<kSide>(tuple, seq, ts, current_epoch_);
      }
      return;
    }
    std::size_t target = seq % shards_.size();
    if constexpr (ShardKeyTraits<Pred, R, S>::kEnabled) {
      using Keys = ShardKeyTraits<Pred, R, S>;
      if (options_.partition == PartitionPolicy::kHashKey) {
        uint64_t key;
        if constexpr (kSide == StreamSide::kR) {
          key = Keys::KeyR(tuple);
        } else {
          key = Keys::KeyS(tuple);
        }
        target = static_cast<std::size_t>(
            ShardOfKey(key, static_cast<int>(shards_.size())));
      }
    }
    shards_[target]->template Arrive<kSide>(tuple, seq, ts, current_epoch_);
    (kSide == StreamSide::kR ? route_r_ : route_s_)
        .push_back(static_cast<uint32_t>(target));
  }

  bool Replicated(StreamSide side) const {
    return options_.partition == (side == StreamSide::kR
                                      ? PartitionPolicy::kReplicateR
                                      : PartitionPolicy::kReplicateS);
  }

  /// Sends the expiry of tuple `seq` to exactly the shards that hold it.
  /// Per-side expiries leave the tracker in FIFO arrival order, the order
  /// the routes of the admitted arrivals were recorded in, so the front
  /// route is this tuple's.
  void Expire(StreamSide side, Seq seq, Timestamp ts) {
    if (shards_.size() == 1 || Replicated(side)) {
      for (auto& shard : shards_) shard->Expire(side, seq, ts);
      return;
    }
    VecDeque<uint32_t>& routes = side == StreamSide::kR ? route_r_ : route_s_;
    shards_[routes.front()]->Expire(side, seq, ts);
    routes.pop_front();
  }

  // -- Overload control (DESIGN.md Section 12) -------------------------------

  /// Admission decision for one arrival whose seq is already consumed.
  /// True = shed: the caller skips BOTH the arrival and the tracker update
  /// — a shed tuple never reaches a window, so no expiry may ever
  /// reference it (an expiry for an absent tuple would tombstone-leak in
  /// LLHJ and stall its completion gate). There is no ingest-side holding
  /// buffer (every admitted push is delivered at once), so kDropOldest has
  /// no victim to displace and degrades to dropping the incoming tuple;
  /// the Feeder path implements the full victim semantics.
  bool Shed(StreamSide side, Seq seq) {
    if (!admission_.enabled() && !admission_.has_force_shed()) return false;
    const int64_t now = NowNs();
    // The push call IS the arrival (waited = 0); overload pressure shows up
    // through the latency EWMA and the channel backlog instead.
    if (!admission_.ShouldShed(side, seq, now, now, ingest_backlog())) {
      return false;
    }
    admission_.RecordShed(side, seq);
    return true;
  }

  /// Emits the recorded loss gaps of `side` at the current stream position,
  /// each into exactly one shard (the first): the router reports every
  /// bound once per handler, so one carrier keeps the accounting
  /// exactly-once while staying in-band with that shard's results.
  void EmitLoss(StreamSide side) {
    LossBound gap;
    while (admission_.TakeGap(side, &gap)) {
      shards_.front()->Loss(gap.side, gap.first_seq, gap.count);
    }
  }

  // -- Epochs ----------------------------------------------------------------

  std::vector<QueryId> LiveIds() const {
    std::vector<QueryId> ids;
    for (QueryId q = 0; q < live_.size(); ++q) {
      if (live_[q] != 0) ids.push_back(q);
    }
    return ids;
  }

  QuerySet<Pred> LiveSet() const {
    std::vector<Pred> preds;
    for (QueryId q = 0; q < live_.size(); ++q) {
      if (live_[q] != 0) preds.push_back(preds_[q]);
    }
    return QuerySet<Pred>(std::move(preds));
  }

  /// Installs the current live membership as a new epoch at this
  /// driver-order boundary, on the router first and then on every shard.
  void InstallEpoch(std::vector<QueryId> removed) {
    const std::vector<QueryId> ids = LiveIds();
    router_.BeginEpoch(++current_epoch_, ids, std::move(removed));
    for (auto& shard : shards_) {
      shard->InstallEpoch(current_epoch_, LiveSet(), ids);
    }
  }

  Options options_;
  ExpiryTracker tracker_;
  QueryRouter<R, S> router_;
  AdmissionController admission_;

  // Query lifecycle state: predicates by session-wide id (never reused) and
  // the live membership.
  std::vector<Pred> preds_;
  std::vector<uint8_t> live_;
  std::vector<QueryId> pre_start_removed_;
  Epoch current_epoch_ = 0;

  Seq r_seq_ = 0;
  Seq s_seq_ = 0;
  Timestamp last_ts_ = kMinTimestamp;
  bool started_ = false;
  bool finished_ = false;
  Timestamp last_punctuation_ = kMinTimestamp;
  // Checked-contracts state (DESIGN.md Section 14): every ingestion call
  // must come from the one driver thread of this session (within an
  // executor generation).
  [[no_unique_address]] contracts::ThreadRole driver_role_;

  // Partitioned-side expiry routing (more than one shard): per side, the
  // shard of every live tuple in arrival order.
  VecDeque<uint32_t> route_r_;
  VecDeque<uint32_t> route_s_;

  // Declared last: the shards' collectors point into `outputs_`, so the
  // shards are destroyed (and their threads stopped) first.
  std::vector<std::unique_ptr<ShardOutput>> outputs_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sjoin
