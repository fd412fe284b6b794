// One processing node of the *original* handshake join (Teubner & Mueller,
// SIGMOD 2011 — paper [20], summarized in Section 2.3). Each node owns a
// segment of both windows; R tuples enter on the left and relocate rightward
// when the local segment exceeds its share, S tuples mirror that leftward.
// A tuple scans the local opposite segment on every arrival (fresh or
// relocated); since both streams move monotonically in opposite directions,
// every window-compatible pair crosses — and is evaluated — exactly once.
// Latency is the price: a tuple reaches distant segments only as new input
// pushes it along, so pairs wait O(window) before meeting (Section 3).
//
// Protocol details implemented here:
//  * One-sided acknowledgements (Section 4.2.2): a forwarded S tuple stays
//    in the sender's in-flight buffer IWS until the receiver acknowledges
//    it; R arrivals scan IWS in addition to WS, which catches pairs that
//    cross "in flight" between two neighbours.
//  * Expiry messages enter at the stream's old end and hunt the resident
//    copy. If the copy is relocating concurrently, the expiry *chases* it:
//    window segments hold contiguous sequence ranges, so comparing the
//    target seq against the local range tells which direction the tuple
//    went; FIFO channel order guarantees the chase terminates (DESIGN.md,
//    correctness refinement 2). An expiry passing a node also purges any
//    matching in-flight IWS entry so arrivals behind the expiry cannot
//    match the expired tuple.
//  * Flush messages (end-of-stream support for finite traces): force all
//    resident tuples to relocate to the pipeline end so pairs still
//    separated inside the pipeline meet. Flushes cascade in FIFO order.
//  * Backpressure discipline: arrivals are consumed only when the outbound
//    channels have slack; control messages are always consumed and their
//    outputs stage locally (see runtime/staged_channel.hpp).
//  * Epoch-tagged query sets (DESIGN.md Section 10): crossings are
//    evaluated under the snapshot of max(probe epoch, entry epoch). Unlike
//    LLHJ, old-epoch tuples keep arriving as *relocations* long after the
//    kEpochChange punctuation was pushed, so a node must HOLD the
//    punctuation until its own segment has no pre-boundary tuple left
//    (relocations leave oldest-first, so the punctuation then trails every
//    old tuple on the channel — FIFO guarantees the downstream node sees no
//    old probe after it). A node's own epoch marker is emitted when the
//    punctuation has ARRIVED on both flows: at that point the upstream
//    neighbours have promised no further old probes, so no result of an
//    earlier epoch can be produced here again. Retired-epoch drain latency
//    is therefore O(window) for HSJ — the same latency its results have.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/seq_ring.hpp"
#include "common/types.hpp"
#include "llhj/store.hpp"
#include "runtime/cacheline.hpp"
#include "runtime/executor.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/staged_channel.hpp"
#include "stream/message.hpp"
#include "stream/query_set.hpp"
#include "stream/sink.hpp"

namespace sjoin {

/// Free slots required on an outbound channel before an arrival is consumed
/// (forward + acknowledgement + headroom for a chasing expiry).
inline constexpr std::size_t kArrivalSlack = 4;

template <typename R, typename S, typename Pred, typename Sink>
class HsjNode : public Steppable {
 public:
  struct Config {
    NodeId id = 0;
    int nodes = 1;
    /// Relocation policy. 0 (default) = *self-balancing*, the original
    /// algorithm's behaviour: a node forwards its oldest tuple whenever its
    /// segment exceeds the next neighbour's by more than one, so segments
    /// track the live window dynamically and tuple position stays
    /// proportional to age (a tuple reaches the far end just as it
    /// expires, which is what guarantees every pair crosses in time).
    /// A positive value switches to a static per-segment capacity; it must
    /// then be <= live-window/nodes or latent pairs expire unmet.
    /// The end node of each stream never relocates.
    int64_t segment_capacity_r = 0;
    int64_t segment_capacity_s = 0;
    /// Hop budget for chasing expiries before declaring an anomaly.
    int max_expiry_hops = 0;  // 0 = derive from pipeline length
  };

  struct Counters {
    uint64_t relocated_r = 0;
    uint64_t relocated_s = 0;
    uint64_t expiry_bounces = 0;
    uint64_t anomalies = 0;  ///< must stay 0; checked by tests
  };

  /// `registry` holds one frozen QuerySet per epoch (epoch 0 = the set the
  /// pipeline started with); snapshots are cached node-locally and the
  /// registry mutex is touched only on epoch switches.
  HsjNode(const Config& config, const QueryEpochRegistry<Pred>* registry,
          Sink* sink,
          SpscQueue<FlowMsg<R>>* left_in, SpscQueue<FlowMsg<R>>* right_out,
          SpscQueue<FlowMsg<S>>* right_in, SpscQueue<FlowMsg<S>>* left_out)
      : config_(config),
        snaps_(registry),
        sink_(sink),
        left_in_(left_in),
        right_in_(right_in),
        right_out_(right_out),
        left_out_(left_out) {
    if (config_.max_expiry_hops == 0) {
      config_.max_expiry_hops = 16 * config_.nodes + 64;
    }
  }

  /// Placement hook (runs on this node's pinned thread, before any
  /// production anywhere — see ThreadedExecutor's start barrier): pull the
  /// input rings onto this node's NUMA node and first-touch the owner-local
  /// staging buffers here instead of on the pipeline-building thread.
  void OnThreadStart() override {
    left_in_->PrefaultByConsumer();
    right_in_->PrefaultByConsumer();
    right_out_.Prewarm(kStagePrewarm);
    left_out_.Prewarm(kStagePrewarm);
    if constexpr (requires(Sink* s) { s->Prewarm(kStagePrewarm); }) {
      sink_->Prewarm(kStagePrewarm);
    }
  }

  bool Step() override {
    bool progress = right_out_.Drain() | left_out_.Drain();
    if constexpr (requires(Sink* s) { s->Drain(); }) {
      progress |= sink_->Drain();
    }
    // Input messages are consumed as bursts: processed in place off
    // PeekBurst spans and retired with one ConsumeBurst index update per
    // run instead of an acquire/release pair per message. Per-channel FIFO
    // order and the arrival backpressure gate are unchanged.
    const std::size_t consumed = ProcessLeftBurst() + ProcessRightBurst();
    if (consumed > 0) {
      progress = true;
      processed_.fetch_add(consumed, std::memory_order_relaxed);
    }
    // Retry relocations deferred by a momentarily full channel, and any
    // rebalancing triggered by neighbour size changes.
    progress |= RelocateROverflow();
    progress |= RelocateSOverflow();
    PublishSizes();
    // Epoch punctuations held back for pre-boundary residents may now be
    // releasable (residents relocated or expired above).
    progress |= ReleaseEpochPuncts();
    progress |= right_out_.Drain() | left_out_.Drain();
    return progress;
  }

  /// Messages consumed so far; safe to read from other threads (used for
  /// distributed quiescence detection).
  uint64_t processed_count() const {
    return processed_.load(std::memory_order_relaxed);
  }

  const Counters& counters() const { return counters_; }
  std::size_t resident_r() const { return wr_.size(); }
  std::size_t resident_s() const { return ws_.size(); }
  std::size_t inflight_s() const { return iws_.size(); }

  /// Introspection for tests/diagnostics (single-threaded access only).
  /// The segments ride on the same ring store as the LLHJ windows (SoA key
  /// lanes included), so HSJ scans share the SIMD probe path.
  const VectorStore<R>& window_r() const { return wr_; }
  const VectorStore<S>& window_s() const { return ws_; }

  /// Published segment sizes for neighbour self-balancing (thread-safe).
  const std::atomic<std::size_t>& published_r_size() const {
    return r_size_pub_->value;
  }
  const std::atomic<std::size_t>& published_s_size() const {
    return s_size_pub_->value;
  }

  /// Wires the neighbour segment sizes the balancing rule compares against
  /// (right neighbour's R segment, left neighbour's S segment). Called by
  /// the pipeline after all nodes are constructed.
  void SetNeighborSizes(const std::atomic<std::size_t>* right_r,
                        const std::atomic<std::size_t>* left_s) {
    neighbor_r_size_ = right_r;
    neighbor_s_size_ = left_s;
  }

 private:
  bool IsLeftmost() const { return config_.id == 0; }
  bool IsRightmost() const { return config_.id == config_.nodes - 1; }

  /// Consumes up to kMsgsPerStep left-input messages as bursts. Runs of
  /// consecutive arrivals (fresh, relocated or dying) are probed against
  /// the local segment in a single pass; control messages go one by one.
  std::size_t ProcessLeftBurst() {
    return DrainBurstBudgetBatched(
        left_in_, kMsgsPerStep, IsArrival<R>,
        [this](FlowMsg<R>* msgs, std::size_t run) {
          return HandleLeftArrivals(msgs, run);
        },
        [this](FlowMsg<R>* msg) { return HandleLeft(msg); });
  }

  /// Consumes up to kMsgsPerStep right-input messages as bursts.
  std::size_t ProcessRightBurst() {
    return DrainBurstBudgetBatched(
        right_in_, kMsgsPerStep, IsArrival<S>,
        [this](FlowMsg<S>* msgs, std::size_t run) {
          return HandleRightArrivals(msgs, run);
        },
        [this](FlowMsg<S>* msg) { return HandleRight(msg); });
  }

  // -- Left input: R arrivals/relocations, acks of S, expiries, R flushes. --

  /// Consumes a run of left-input R arrivals as one batch: one scan of the
  /// local S segment (and in-flight buffer) for all k probes, then the
  /// per-tuple rest/forward bookkeeping in flow order. Returns the number
  /// consumed; fewer than `run` when backpressure caps the batch.
  std::size_t HandleLeftArrivals(FlowMsg<R>* msgs, std::size_t run) {
    std::size_t k = run;
    if (!IsRightmost()) {
      k = std::min(run, right_out_.ArrivalBudget(kArrivalSlack));
      if (k == 0) return 0;  // backpressure: retry once downstream drains
    }
    probe_r_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      probe_r_.push_back(Stamped<R>{msgs[j].payload, msgs[j].seq, msgs[j].ts,
                                    msgs[j].arrival_wall_ns, msgs[j].epoch});
    }
    ScanBatchAgainstS(probe_r_.data(), k);
    for (std::size_t j = 0; j < k; ++j) {
      if ((msgs[j].flags & kMsgDying) != 0) {
        // Expired mid-traversal: keep travelling (scanning) but never
        // rest again; discarded at the rightmost node.
        if (!IsRightmost()) {
          FlowMsg<R> fwd = MakeArrival(probe_r_[j]);
          fwd.flags |= kMsgRelocated | kMsgDying;
          right_out_.Push(fwd);
        }
      } else {
        wr_.Insert(probe_r_[j], /*expedited=*/false);
      }
    }
    RelocateROverflow();
    return k;
  }

  /// Processes one left-input *control* message in place (arrivals go
  /// through HandleLeftArrivals). Returns false iff deferred.
  bool HandleLeft(FlowMsg<R>* msg) {
    switch (msg->kind) {
      case MsgKind::kAck: {
        EraseIws(msg->seq);
        return true;
      }
      case MsgKind::kExpiry: {
        HandleExpiry(msg->ref_side, msg->seq, msg->ts, msg->hops);
        return true;
      }
      case MsgKind::kFlush: {
        FlushR();
        return true;
      }
      case MsgKind::kEpochChange: {
        // Arrival on the left flow: upstream promises no more pre-boundary
        // R probes. Cascade is deferred until our own R segment holds no
        // pre-boundary tuple (see ReleaseEpochPuncts).
        OnEpochPunctuation(/*left_flow=*/true, msg->epoch);
        if (!IsRightmost()) pending_epoch_r_.push_back(msg->epoch);
        ReleaseEpochPuncts();
        return true;
      }
      case MsgKind::kLossPunctuation: {
        // Shed-at-ingest loss bound (DESIGN.md Section 12): the shed
        // tuples never entered the pipeline — no segment holds them and no
        // expiry will chase them — so unlike kEpochChange there is nothing
        // to hold the punctuation for. Republish the bound into the result
        // queue (exactly once: no cascade).
        sink_->Emit(MakeLossMark<R, S>(msg->ref_side, msg->seq,
                                       LossPunctCount(*msg), config_.id));
        return true;
      }
      // No default: the switch is deliberately exhaustive so adding a
      // MsgKind fails -Wswitch (enforced by tools/lint/sjoin_lint.py) —
      // kinds a control handler must never see are anomalies, not silently
      // swallowed.
      case MsgKind::kArrival:
      case MsgKind::kExpeditionEnd:
        ++counters_.anomalies;
        return true;
    }
    ++counters_.anomalies;  // out-of-range kind (corrupted message)
    return true;
  }

  // -- Right input: S arrivals/relocations, expiries, S flushes. ------------

  /// Consumes a run of right-input S arrivals as one batch; mirrors
  /// HandleLeftArrivals. Only the forward (relocation) direction is gated;
  /// acknowledgements stage when their channel is momentarily full. Gating
  /// both directions would close a neighbour wait-for cycle (deadlock at
  /// small channel capacities).
  std::size_t HandleRightArrivals(FlowMsg<S>* msgs, std::size_t run) {
    std::size_t k = run;
    if (!IsLeftmost()) {
      k = std::min(run, left_out_.ArrivalBudget(kArrivalSlack));
      if (k == 0) return 0;
    }
    probe_s_.clear();
    for (std::size_t j = 0; j < k; ++j) {
      probe_s_.push_back(Stamped<S>{msgs[j].payload, msgs[j].seq, msgs[j].ts,
                                    msgs[j].arrival_wall_ns, msgs[j].epoch});
    }
    ScanBatchAgainstR(probe_s_.data(), k);
    ack_buf_.clear();
    bool rested = false;
    for (std::size_t j = 0; j < k; ++j) {
      const Stamped<S>& s = probe_s_[j];
      if ((msgs[j].flags & kMsgDying) != 0) {
        if (!IsLeftmost()) {
          FlowMsg<S> fwd = MakeArrival(s);
          fwd.flags |= kMsgRelocated | kMsgDying;
          left_out_.Push(fwd);
          // Ack protocol still applies: the dying tuple stays virtually
          // present until the receiver confirms, so in-flight crossings
          // with R arrivals are detected.
          iws_.PushBack(s);
        }
      } else {
        ws_.Insert(s, /*expedited=*/false);
        rested = true;
      }
      if (!IsRightmost()) {
        FlowMsg<R> ack;
        ack.kind = MsgKind::kAck;
        ack.ref_side = StreamSide::kS;
        ack.seq = s.seq;
        ack_buf_.push_back(ack);
      }
    }
    if (!ack_buf_.empty()) {
      right_out_.PushBurst(std::span<const FlowMsg<R>>(ack_buf_));
    }
    if (rested) RelocateSOverflow();
    return k;
  }

  /// Processes one right-input *control* message in place; see HandleLeft.
  bool HandleRight(FlowMsg<S>* msg) {
    switch (msg->kind) {
      case MsgKind::kExpiry: {
        HandleExpiry(msg->ref_side, msg->seq, msg->ts, msg->hops);
        return true;
      }
      case MsgKind::kFlush: {
        FlushS();
        return true;
      }
      case MsgKind::kEpochChange: {
        OnEpochPunctuation(/*left_flow=*/false, msg->epoch);
        if (!IsLeftmost()) pending_epoch_s_.push_back(msg->epoch);
        ReleaseEpochPuncts();
        return true;
      }
      case MsgKind::kLossPunctuation: {
        // See HandleLeft: republish the bound, exactly once, no cascade.
        sink_->Emit(MakeLossMark<R, S>(msg->ref_side, msg->seq,
                                       LossPunctCount(*msg), config_.id));
        return true;
      }
      // No default (see HandleLeft): exhaustive so -Wswitch flags new kinds.
      case MsgKind::kArrival:
      case MsgKind::kAck:
      case MsgKind::kExpeditionEnd:
        ++counters_.anomalies;
        return true;
    }
    ++counters_.anomalies;  // out-of-range kind (corrupted message)
    return true;
  }

  // -- Matching --------------------------------------------------------------
  //
  // Every crossing pair is evaluated under the query-set snapshot of
  // max(probe epoch, entry epoch) — the epoch of the later-pushed input.
  // Outside an epoch transition this costs one compare per batch plus one
  // per emitted match.

  using Snapshot = QueryEpochSnapshot<Pred>;

  const Snapshot* SnapshotFor(Epoch e) {
    const Snapshot* snap = snaps_.Get(e);
    if (snap == nullptr) ++counters_.anomalies;  // never-installed epoch
    return snap;
  }

  /// Emits one result tagged with the session-wide query id that matched.
  void EmitResult(const Stamped<R>& r, const Stamped<S>& s, QueryId q) {
    ResultMsg<R, S> m = MakeResult(r, s, config_.id);
    m.query = q;
    sink_->Emit(m);
  }

  /// Evaluates the pair's epoch snapshot on the crossing pair, emitting one
  /// tagged result per matching query.
  void EmitMatches(const Stamped<R>& r, const Stamped<S>& s) {
    const Snapshot* snap = SnapshotFor(r.epoch > s.epoch ? r.epoch : s.epoch);
    if (snap == nullptr) return;
    snap->set.Match(r.value, s.value, [&](QueryId lane) {
      EmitResult(r, s, snap->GlobalId(lane));
    });
  }

  /// One pass over the local S segment (entry-major: each resident tuple is
  /// loaded once and tested against the whole probe run and every query —
  /// on the SIMD tile kernels when the schema has a SIMD mapping).
  /// HSJ probe runs can straddle an epoch boundary (relocations), so the
  /// run is split into same-epoch groups first.
  void ScanBatchAgainstS(const Stamped<R>* rs, std::size_t k) {
    ForEachEpochGroup(rs, k, [&](const Stamped<R>* g, std::size_t n) {
      ScanGroupAgainstS(g, n);
    });
  }

  void ScanGroupAgainstS(const Stamped<R>* rs, std::size_t k) {
    const Epoch pe = rs[0].epoch;
    const Snapshot* snap = SnapshotFor(pe);
    if (snap != nullptr) {
      ws_.template MatchBatch<true>(
          snap->set, rs, k,
          [&](std::size_t j, QueryId lane, const StoreEntry<S>& entry) {
            if (entry.tuple.epoch > pe) return;  // newer entries swept below
            EmitResult(rs[j], entry.tuple, snap->GlobalId(lane));
          });
    }
    // Entries stored under a later epoch than the probe: evaluate under the
    // entry's snapshot (free outside transitions via max_epoch early-out).
    // Every store visits these newest-first (descending Seq — pinned by
    // test_stores.cpp); emission here is order-independent regardless, as
    // each entry is evaluated against all k probes in isolation and the
    // collector orders results by (probe seq, entry seq), not visit order.
    ws_.ForEachEpochAfter(pe, [&](const StoreEntry<S>& entry) {
      const Snapshot* es = SnapshotFor(entry.tuple.epoch);
      if (es == nullptr) return;
      for (std::size_t j = 0; j < k; ++j) {
        es->set.Match(rs[j].value, entry.tuple.value, [&](QueryId lane) {
          EmitResult(rs[j], entry.tuple, es->GlobalId(lane));
        });
      }
    });
    // Forwarded-but-unacked S tuples are virtually still resident here
    // (a handful of entries — scalar evaluation, per-pair epoch).
    iws_.ForEach([&](const Stamped<S>& s) {
      for (std::size_t j = 0; j < k; ++j) EmitMatches(rs[j], s);
    });
  }

  void ScanBatchAgainstR(const Stamped<S>* ss, std::size_t k) {
    ForEachEpochGroup(ss, k, [&](const Stamped<S>* g, std::size_t n) {
      ScanGroupAgainstR(g, n);
    });
  }

  void ScanGroupAgainstR(const Stamped<S>* ss, std::size_t k) {
    const Epoch pe = ss[0].epoch;
    const Snapshot* snap = SnapshotFor(pe);
    if (snap != nullptr) {
      wr_.template MatchBatch<false>(
          snap->set, ss, k,
          [&](std::size_t j, QueryId lane, const StoreEntry<R>& entry) {
            if (entry.tuple.epoch > pe) return;
            EmitResult(entry.tuple, ss[j], snap->GlobalId(lane));
          });
    }
    // Newest-first per the store epoch-walk contract; order-independent
    // here (see the ws_ sweep above).
    wr_.ForEachEpochAfter(pe, [&](const StoreEntry<R>& entry) {
      const Snapshot* es = SnapshotFor(entry.tuple.epoch);
      if (es == nullptr) return;
      for (std::size_t j = 0; j < k; ++j) {
        es->set.Match(entry.tuple.value, ss[j].value, [&](QueryId lane) {
          EmitResult(entry.tuple, ss[j], es->GlobalId(lane));
        });
      }
    });
  }

  /// Splits a probe run into maximal same-epoch groups.
  template <typename T, typename F>
  static void ForEachEpochGroup(const Stamped<T>* probes, std::size_t k,
                                F&& f) {
    std::size_t i = 0;
    while (i < k) {
      std::size_t run = 1;
      while (i + run < k && probes[i + run].epoch == probes[i].epoch) ++run;
      f(probes + i, run);
      i += run;
    }
  }

  // -- Epoch punctuations ------------------------------------------------------

  /// Punctuation of `epoch` ARRIVED on one flow. Once both flows have seen
  /// it, the upstream neighbours (or the driver) have promised no further
  /// pre-boundary probes in either direction, so this node can never again
  /// emit a result of an earlier epoch: publish the epoch marker.
  void OnEpochPunctuation(bool left_flow, Epoch epoch) {
    Epoch& side = left_flow ? left_epoch_ : right_epoch_;
    if (epoch > side) side = epoch;
    const Epoch both = std::min(left_epoch_, right_epoch_);
    while (marker_epoch_ < both) {
      ++marker_epoch_;
      ResultMsg<R, S> mark;
      mark.query = kEpochMarkQuery;
      mark.epoch = marker_epoch_;
      mark.origin = config_.id;
      sink_->Emit(mark);
    }
    // All future probes here carry an epoch >= `both` (the no-old-probes
    // promise from both upstream sides), and the max(probe, entry) rule
    // then never selects an older snapshot — safe to trim the MRU cache
    // (the registry keeps every epoch).
    snaps_.PruneBelow(both);
  }

  /// Cascades held punctuations onward once the local segment holds no
  /// pre-boundary tuple of that stream. Relocations leave oldest-first and
  /// segment epochs are monotone (front = oldest), so checking the FRONT
  /// entry suffices; once released, the punctuation trails every old tuple
  /// on the channel and the FIFO order extends the no-old-probes promise to
  /// the downstream neighbour. Old tuples leave by relocation, expiry or
  /// flush, so with a live stream the release lag is O(window) — exactly
  /// HSJ's result latency.
  bool ReleaseEpochPuncts() {
    bool progress = false;
    while (!pending_epoch_r_.empty() &&
           (wr_.size() == 0 ||
            wr_.Front().tuple.epoch >= pending_epoch_r_.front())) {
      FlowMsg<R> punct;
      punct.kind = MsgKind::kEpochChange;
      punct.epoch = pending_epoch_r_.front();
      right_out_.Push(punct);
      pending_epoch_r_.erase(pending_epoch_r_.begin());
      progress = true;
    }
    while (!pending_epoch_s_.empty() &&
           (ws_.size() == 0 ||
            ws_.Front().tuple.epoch >= pending_epoch_s_.front())) {
      FlowMsg<S> punct;
      punct.kind = MsgKind::kEpochChange;
      punct.epoch = pending_epoch_s_.front();
      left_out_.Push(punct);
      pending_epoch_s_.erase(pending_epoch_s_.begin());
      progress = true;
    }
    return progress;
  }

  // -- Relocation (the "handshake" movement) ---------------------------------

  bool ShouldRelocateR() const {
    if (config_.segment_capacity_r > 0) {
      return static_cast<int64_t>(wr_.size()) > config_.segment_capacity_r;
    }
    // Self-balancing: keep within one tuple of the right neighbour.
    const std::size_t neighbor =
        neighbor_r_size_ == nullptr
            ? 0
            : neighbor_r_size_->load(std::memory_order_relaxed);
    return wr_.size() > neighbor + 1;
  }

  bool ShouldRelocateS() const {
    if (config_.segment_capacity_s > 0) {
      return static_cast<int64_t>(ws_.size()) > config_.segment_capacity_s;
    }
    const std::size_t neighbor =
        neighbor_s_size_ == nullptr
            ? 0
            : neighbor_s_size_->load(std::memory_order_relaxed);
    return ws_.size() > neighbor + 1;
  }

  bool RelocateROverflow() {
    if (IsRightmost()) return false;
    bool progress = false;
    while (wr_.size() > 0 && ShouldRelocateR() && right_out_.Available(1)) {
      ForwardOldestR();
      progress = true;
    }
    PublishSizes();
    return progress;
  }

  void ForwardOldestR() {
    FlowMsg<R> msg = MakeArrival(wr_.Front().tuple);
    msg.flags |= kMsgRelocated;
    right_out_.Push(msg);
    wr_.PopFront();
    ++counters_.relocated_r;
  }

  bool RelocateSOverflow() {
    if (IsLeftmost()) return false;
    bool progress = false;
    while (ws_.size() > 0 && ShouldRelocateS() && left_out_.Available(1)) {
      ForwardOldestS();
      progress = true;
    }
    PublishSizes();
    return progress;
  }

  void PublishSizes() {
    r_size_pub_->value.store(wr_.size(), std::memory_order_relaxed);
    s_size_pub_->value.store(ws_.size(), std::memory_order_relaxed);
  }

  void ForwardOldestS() {
    const Stamped<S> oldest = ws_.Front().tuple;
    FlowMsg<S> msg = MakeArrival(oldest);
    msg.flags |= kMsgRelocated;
    left_out_.Push(msg);
    // The tuple stays virtually present (IWS) until the receiver acks.
    iws_.PushBack(oldest);
    ws_.PopFront();
    ++counters_.relocated_s;
  }

  // -- Flush ------------------------------------------------------------------

  void FlushR() {
    if (IsRightmost()) return;  // resident tuples here crossed everything
    while (wr_.size() > 0) ForwardOldestR();
    FlowMsg<R> flush;
    flush.kind = MsgKind::kFlush;
    right_out_.Push(flush);
  }

  void FlushS() {
    if (IsLeftmost()) return;
    while (ws_.size() > 0) ForwardOldestS();
    FlowMsg<S> flush;
    flush.kind = MsgKind::kFlush;
    left_out_.Push(flush);
  }

  // -- Expiries with chase ----------------------------------------------------

  void HandleExpiry(StreamSide side, Seq seq, Timestamp ts, uint16_t hops) {
    if (side == StreamSide::kS) {
      Stamped<S> victim;
      if (ws_.TakeSeq(seq, &victim)) {
        // Caught before finishing its traversal: continue as a dying
        // traveller so partners that arrived before this expiry (resting
        // further down the pipeline) are still met exactly once.
        if (!IsLeftmost()) {
          FlowMsg<S> fwd = MakeArrival(victim);
          fwd.flags |= kMsgRelocated | kMsgDying;
          left_out_.Push(fwd);
          iws_.PushBack(victim);
        }
        return;
      }
      // Purge any in-flight copy so arrivals behind this expiry cannot
      // match it; the resident copy will materialize at the neighbour.
      EraseIws(seq);
      ForwardExpiry(side, seq, ts, hops,
                    ChaseDirection(ws_, seq, /*older_is_left=*/true));
      return;
    }
    Stamped<R> victim;
    if (wr_.TakeSeq(seq, &victim)) {
      if (!IsRightmost()) {
        FlowMsg<R> fwd = MakeArrival(victim);
        fwd.flags |= kMsgRelocated | kMsgDying;
        right_out_.Push(fwd);
      }
      return;
    }
    ForwardExpiry(side, seq, ts, hops,
                  ChaseDirection(wr_, seq, /*older_is_left=*/false));
  }

  /// Direction the missing tuple must be in: -1 = left, +1 = right, 0 = give
  /// up (already gone). Segments hold contiguous seq ranges ordered along
  /// the pipeline (S: oldest at node 0; R: oldest at node n-1).
  template <typename T>
  int ChaseDirection(const VectorStore<T>& window, Seq seq,
                     bool older_is_left) const {
    if (window.size() > 0) {
      if (seq < window.FrontSeq()) return older_is_left ? -1 : +1;
      if (seq > window.BackSeq()) return older_is_left ? +1 : -1;
      return 0;  // in range but missing: already erased elsewhere
    }
    // Empty segment: the tuple can only be in flight from the newer side.
    return older_is_left ? +1 : -1;
  }

  void ForwardExpiry(StreamSide side, Seq seq, Timestamp ts, uint16_t hops,
                     int dir) {
    if (dir == 0) return;
    if (hops >= config_.max_expiry_hops) {
      ++counters_.anomalies;
      return;
    }
    if (hops >= 1) ++counters_.expiry_bounces;
    if (dir > 0) {
      if (IsRightmost()) {
        // Nothing to the right; the FIFO argument makes this unreachable.
        ++counters_.anomalies;
        return;
      }
      FlowMsg<R> msg;
      msg.kind = MsgKind::kExpiry;
      msg.ref_side = side;
      msg.seq = seq;
      msg.ts = ts;
      msg.hops = static_cast<uint16_t>(hops + 1);
      right_out_.Push(msg);
    } else {
      if (IsLeftmost()) {
        ++counters_.anomalies;
        return;
      }
      FlowMsg<S> msg;
      msg.kind = MsgKind::kExpiry;
      msg.ref_side = side;
      msg.seq = seq;
      msg.ts = ts;
      msg.hops = static_cast<uint16_t>(hops + 1);
      left_out_.Push(msg);
    }
  }

  bool EraseIws(Seq seq) { return iws_.Erase(seq); }

  Config config_;
  EpochSnapshotCache<Pred> snaps_;
  Sink* sink_;

  SpscQueue<FlowMsg<R>>* left_in_;
  SpscQueue<FlowMsg<S>>* right_in_;
  StagedChannel<FlowMsg<R>> right_out_;  // disconnected on rightmost node
  StagedChannel<FlowMsg<S>> left_out_;   // disconnected on leftmost node

  // Epoch punctuation bookkeeping: highest epoch ARRIVED per flow, highest
  // marker published, and punctuations held until the local segment clears
  // of pre-boundary tuples (see ReleaseEpochPuncts).
  Epoch left_epoch_ = 0;
  Epoch right_epoch_ = 0;
  Epoch marker_epoch_ = 0;
  std::vector<Epoch> pending_epoch_r_;
  std::vector<Epoch> pending_epoch_s_;

  VectorStore<R> wr_;        // front = oldest (ring store with SoA lanes)
  VectorStore<S> ws_;
  SeqRing<Stamped<S>> iws_;  // forwarded to the left, not yet acked

  // Scratch buffers of the batch arrival paths (reused across steps).
  std::vector<Stamped<R>> probe_r_;
  std::vector<Stamped<S>> probe_s_;
  std::vector<FlowMsg<R>> ack_buf_;

  // Published segment sizes (self-balancing). Heap-allocated so the node
  // stays movable while neighbours hold stable pointers.
  std::unique_ptr<CachePadded<std::atomic<std::size_t>>> r_size_pub_ =
      std::make_unique<CachePadded<std::atomic<std::size_t>>>();
  std::unique_ptr<CachePadded<std::atomic<std::size_t>>> s_size_pub_ =
      std::make_unique<CachePadded<std::atomic<std::size_t>>>();
  const std::atomic<std::size_t>* neighbor_r_size_ = nullptr;
  const std::atomic<std::size_t>* neighbor_s_size_ = nullptr;

  Counters counters_;
  std::atomic<uint64_t> processed_{0};
};

}  // namespace sjoin
