// The set of predicates a join pipeline evaluates at every window crossing.
// Multi-query sharing (ROADMAP): one pipeline owns the windows, transport
// and driver; N registered queries of the same predicate *type* (band/equi
// predicates with different parameters) are evaluated against each crossing
// pair in a single store traversal, and every match is tagged with the
// QueryId that produced it.
//
// Since the live-lifecycle change (DESIGN.md Section 10) a pipeline no
// longer evaluates ONE frozen QuerySet forever: each *epoch* of a session
// freezes its own QuerySet (a QueryEpochSnapshot, which also maps the
// set's dense lane indices back to session-wide QueryIds), and nodes switch
// snapshots when the epoch-change punctuation passes them. Within an epoch
// the hot path is unchanged — a plain contiguous predicate vector read with
// no synchronization; the QueryEpochRegistry (mutexed, cold path only) is
// touched once per epoch switch.
//
// Indexed stores (HashStore/OrderedStore) narrow the visited entries by the
// *store's* key extractor, which is shared by all queries; registering
// queries whose match set is not contained in the index probe range is a
// configuration error of the caller (exactly as for a single query).
#pragma once

#include <cstddef>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/contracts.hpp"
#include "common/simd.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"

namespace sjoin {

template <typename Pred>
class QuerySet {
 public:
  QuerySet() = default;
  /// Single-query set.
  explicit QuerySet(Pred pred) { preds_.push_back(pred); }
  explicit QuerySet(std::vector<Pred> preds) : preds_(std::move(preds)) {}

  /// Registers one predicate; returns its dense id (registration order).
  QueryId Add(const Pred& pred) {
    preds_.push_back(pred);
    return static_cast<QueryId>(preds_.size() - 1);
  }

  std::size_t size() const { return preds_.size(); }
  bool empty() const { return preds_.empty(); }

  const Pred& pred(QueryId q) const { return preds_[q]; }

  /// Evaluates every registered predicate on (r, s); calls f(QueryId) for
  /// each query that matches. This is the per-crossing hot path: one pair
  /// load, N predicate evaluations.
  template <typename RV, typename SV, typename F>
  void Match(const RV& r, const SV& s, F&& f) const {
    for (QueryId q = 0; q < preds_.size(); ++q) {
      if (preds_[q](r, s)) f(q);
    }
  }

  /// True iff any registered predicate matches (baseline engines run with
  /// this as their single "union" predicate and fan matches out per query
  /// at the sink).
  template <typename RV, typename SV>
  bool AnyMatch(const RV& r, const SV& s) const {
    for (const Pred& p : preds_) {
      if (p(r, s)) return true;
    }
    return false;
  }

  /// Match with an explicit probe direction: the stores evaluate a probe
  /// tuple against a stored entry without knowing which of the two is the
  /// predicate's R argument. kProbeIsLeft=true means pred(probe, entry)
  /// (an R tuple probing the S window); false means pred(entry, probe).
  template <bool kProbeIsLeft, typename ProbeV, typename EntryV, typename F>
  void MatchOriented(const ProbeV& probe, const EntryV& entry, F&& f) const {
    if constexpr (kProbeIsLeft) {
      Match(probe, entry, static_cast<F&&>(f));
    } else {
      Match(entry, probe, static_cast<F&&>(f));
    }
  }

  /// True iff query set evaluation against EntryT entries probed by ProbeT
  /// tuples can run on the SIMD kernels (both the predicate decomposition
  /// and the entry lane mapping must be declared; see common/simd.hpp).
  template <typename ProbeT, typename EntryT>
  static constexpr bool SimdCapable() {
    return SimdProbeTraits<Pred, ProbeT, EntryT>::kEnabled &&
           SimdEntryLanes<EntryT>::kEnabled;
  }

  /// Tile form of Match — the SIMD probe hot path: tests ONE registered
  /// query for k <= kTileProbes probes against one block of entry key
  /// lanes (n <= kSimdBlock) in a single tile-kernel call. Row j of
  /// `scratch->mask` gets bit i <=> pred matches (probes[j], entry lane i),
  /// for j < k and i < n; bits >= n are zero and rows >= k are untouched
  /// (masked-tail contract). The per-probe operands are read once here and
  /// the kernel table is looked up once per call; the kernel loads each
  /// vector of lanes once for all k probes. Every level computes exactly
  /// the scalar predicate's arithmetic, so driving result emission off
  /// these bitmasks is bit-identical to Match.
  template <typename EntryT, typename ProbeT>
  void Matches(QueryId q, const Stamped<ProbeT>* probes, std::size_t k,
               const SimdLaneBlock& lanes, std::size_t n,
               SimdMatchScratch* scratch) const {
    using Traits = SimdProbeTraits<Pred, ProbeT, EntryT>;
    static_assert(Traits::kEnabled, "no SIMD mapping for this direction");
    const SimdKernels& kernels = ActiveKernels();
    const Pred& pred = preds_[q];
    if constexpr (Traits::kShape == SimdPredShape::kEqui) {
      int32_t key[kTileProbes];
      for (std::size_t j = 0; j < k; ++j) {
        key[j] = Traits::Key(pred, probes[j].value);
      }
      kernels.equi_tile(SimdLaneBlock{lanes.k0, nullptr}, n, key, k, scratch);
    } else {
      static_assert(!Traits::kUseF32 || SimdEntryLanes<EntryT>::kHasF32,
                    "predicate declares a float term (kUseF32) but the "
                    "entry type has no float lane (kHasF32)");
      const SimdLaneBlock use{lanes.k0, Traits::kUseF32 ? lanes.k1 : nullptr};
      if constexpr (Traits::kShape == SimdPredShape::kBandEntry) {
        int32_t p0[kTileProbes];
        float p1[kTileProbes];
        float band1 = 0.0f;
        for (std::size_t j = 0; j < k; ++j) {
          p0[j] = Traits::P0(probes[j].value);
        }
        if constexpr (Traits::kUseF32) {
          band1 = Traits::Band1(pred);
          for (std::size_t j = 0; j < k; ++j) {
            p1[j] = Traits::P1(probes[j].value);
          }
        }
        kernels.band_entry_tile(use, n, Traits::Band0(pred), band1, p0, p1,
                                k, scratch);
      } else {
        int32_t lo0[kTileProbes];
        int32_t hi0[kTileProbes];
        float lo1[kTileProbes];
        float hi1[kTileProbes];
        for (std::size_t j = 0; j < k; ++j) {
          lo0[j] = Traits::Lo0(pred, probes[j].value);
          hi0[j] = Traits::Hi0(pred, probes[j].value);
          if constexpr (Traits::kUseF32) {
            lo1[j] = Traits::Lo1(pred, probes[j].value);
            hi1[j] = Traits::Hi1(pred, probes[j].value);
          }
        }
        kernels.band_probe_tile(use, n, lo0, hi0, lo1, hi1, k, scratch);
      }
    }
  }

 private:
  std::vector<Pred> preds_;
};

/// One frozen epoch of a session's query set: the dense predicate set the
/// nodes sweep (QuerySet indices are *lane* indices local to this epoch)
/// plus the mapping from lane index back to the session-wide QueryId that
/// results must be tagged with. Immutable after construction; shared
/// read-only between the driver and every pipeline node.
template <typename Pred>
struct QueryEpochSnapshot {
  Epoch epoch = 0;
  QuerySet<Pred> set;
  std::vector<QueryId> global_ids;  ///< lane index -> session QueryId

  QueryId GlobalId(std::size_t lane) const { return global_ids[lane]; }
};

/// All epochs a pipeline has ever been told about, keyed by epoch number.
/// The driver installs new epochs (AddQuery/RemoveQuery on a live session)
/// *before* pushing the matching kEpochChange punctuation into the flows,
/// so a node that sees the punctuation — or an arrival stamped with a newer
/// epoch — always finds the snapshot here. Lookups are mutex-protected but
/// happen only on epoch switches (cold path); nodes cache the shared_ptr.
template <typename Pred>
class QueryEpochRegistry {
 public:
  using Snapshot = QueryEpochSnapshot<Pred>;

  QueryEpochRegistry() = default;

  /// Seeds epoch 0. `global_ids` empty means the identity mapping.
  explicit QueryEpochRegistry(QuerySet<Pred> initial,
                              std::vector<QueryId> global_ids = {}) {
    Install(std::move(initial), std::move(global_ids));
  }

  /// Registers the next epoch (numbered sequentially from 0) and returns
  /// its number. Must be called before any tuple or punctuation carrying
  /// that epoch enters a flow.
  Epoch Install(QuerySet<Pred> set, std::vector<QueryId> global_ids = {}) {
    auto snap = std::make_shared<Snapshot>();
    if (global_ids.empty()) {
      global_ids.resize(set.size());
      std::iota(global_ids.begin(), global_ids.end(), QueryId{0});
    }
    if (global_ids.size() != set.size()) {
      throw std::invalid_argument(
          "QueryEpochRegistry: global_ids size does not match set size");
    }
    snap->set = std::move(set);
    snap->global_ids = std::move(global_ids);
    MutexLock lock(&mu_);
    snap->epoch = static_cast<Epoch>(epochs_.size());
    // Contract (DESIGN.md Section 14): installed epochs advance strictly —
    // a regressing or repeated epoch number would let stale snapshots
    // shadow live ones at the nodes' MRU caches.
    install_order_.AssertAdvance(static_cast<long long>(snap->epoch),
                                 "QueryEpochRegistry", "installed epoch",
                                 /*strict=*/true);
    epochs_.push_back(snap);
    return snap->epoch;
  }

  /// Snapshot of epoch `e`, or null when `e` was never installed (a
  /// protocol bug — callers treat it as an anomaly).
  std::shared_ptr<const Snapshot> Get(Epoch e) const {
    MutexLock lock(&mu_);
    if (e >= epochs_.size()) return nullptr;
    return epochs_[e];
  }

  std::shared_ptr<const Snapshot> Latest() const {
    MutexLock lock(&mu_);
    return epochs_.empty() ? nullptr : epochs_.back();
  }

  std::size_t epoch_count() const {
    MutexLock lock(&mu_);
    return epochs_.size();
  }

 private:
  mutable AnnotatedMutex mu_;
  std::vector<std::shared_ptr<const Snapshot>> epochs_ SJOIN_GUARDED_BY(mu_);
  contracts::Monotone install_order_ SJOIN_GUARDED_BY(mu_);
};

/// A node-local MRU cache over a QueryEpochRegistry. During steady state
/// every lookup hits the front entry (one epoch compare); during an epoch
/// transition at most a handful of epochs are live at once. Entries older
/// than the node's fully-switched epoch are pruned on punctuation.
template <typename Pred>
class EpochSnapshotCache {
 public:
  using Snapshot = QueryEpochSnapshot<Pred>;

  EpochSnapshotCache() = default;
  explicit EpochSnapshotCache(const QueryEpochRegistry<Pred>* registry)
      : registry_(registry) {}

  /// Snapshot for epoch `e`; null only on a protocol violation (an epoch
  /// that was never installed).
  const Snapshot* Get(Epoch e) {
    for (std::size_t i = 0; i < cached_.size(); ++i) {
      if (cached_[i]->epoch == e) {
        if (i != 0) std::swap(cached_[0], cached_[i]);  // keep MRU first
        return cached_[0].get();
      }
    }
    if (registry_ == nullptr) return nullptr;
    std::shared_ptr<const Snapshot> snap = registry_->Get(e);
    if (snap == nullptr) return nullptr;
    cached_.insert(cached_.begin(), std::move(snap));
    return cached_[0].get();
  }

  /// Drops snapshots of epochs older than `min_live` (pruning on epoch
  /// switch keeps the cache bounded by the number of in-flight epochs).
  void PruneBelow(Epoch min_live) {
    for (std::size_t i = cached_.size(); i > 0; --i) {
      if (cached_[i - 1]->epoch < min_live) {
        cached_.erase(cached_.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
    }
  }

 private:
  const QueryEpochRegistry<Pred>* registry_ = nullptr;
  std::vector<std::shared_ptr<const Snapshot>> cached_;
};

}  // namespace sjoin
