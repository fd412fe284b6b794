// Node-local window stores for low-latency handshake join. In LLHJ every
// tuple rests on exactly one node (its home node), which is what makes
// local index structures possible (paper Sections 4.1 and 7.6):
//
//  * VectorStore — order-preserving scan store for arbitrary predicates
//    (the band join of the benchmark). Backed by a contiguous ring buffer:
//    inserts append at the tail, window expiries pop the head without any
//    element movement (expiries arrive oldest-first per home node), and
//    the probe scan walks at most two contiguous segments.
//  * HashStore   — hash index keyed on the join attribute for equi-joins
//    (the Table 2 "with index" configuration). Entries live in a slot slab
//    indexed by a lane-grouped key table (llhj/group_table.hpp): 8 keys +
//    8 slot refs per group, probed 8-wide with the packed grouped-equality
//    kernels, Swiss-table/F14 style. A flat seq -> slot table keeps expiry
//    and expedition-end handling O(1) with no per-node allocation.
//
// R-side stores additionally carry the *expedition flag* of Section 4.2.3:
// entries stay "expedited" until the tuple's expedition-end message returns
// to the home node; S arrivals match only non-expedited entries to avoid
// stored/stored double matches. Because insertions and expedition-ends both
// happen in sequence order, the flags are monotone over insertion order —
// cleared entries form a prefix and still-expedited entries a suffix.
// VectorStore::ClearExpedited exploits this: it scans newest-to-oldest and
// stops at the first non-expedited entry instead of walking the whole
// window. All stores implement the same concept:
//
//   void Insert(const Stamped<T>&, bool expedited);
//   bool EraseSeq(Seq);                 // window expiry
//   bool ClearExpedited(Seq);           // expedition-end
//   template <P, F> void ForEach(const P& probe, F&& f) const;
//   template <bool L, Pred, P, F> void MatchBatch(queries, probes, k, f);
//                                       // batch probe x query evaluation
//   std::size_t size() const;
//
// SIMD probe path (DESIGN.md Section 9): VectorStore keeps the hot
// predicate columns — the int32 band/equi key, the optional float band key,
// and the sequence number — in structure-of-arrays lanes that mirror the
// entry ring (same head/mask indexing, moved in tandem on every insert,
// erase and grow). MatchBatch sweeps those lanes with the tile kernels of
// common/simd.hpp: one loaded block of entries is tested against k probes x
// N query predicates, each tile call yields one match bitmask per probe,
// and result emission walks the set bits. Types without a SimdEntryLanes
// mapping skip lane maintenance (except the always-present Seq lane) and
// scan through the generic scalar path — results are identical either way.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <type_traits>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "llhj/group_table.hpp"
#include "runtime/mempolicy.hpp"
#include "stream/query_set.hpp"

namespace sjoin {

/// An entry of a node-local window.
template <typename T>
struct StoreEntry {
  Stamped<T> tuple;
  bool expedited = false;
};

/// Scan store: supports any predicate; ForEach visits every entry.
/// Contiguous ring buffer, oldest entry at the head, with the hot predicate
/// columns mirrored in SoA lanes for the SIMD probe path (see header).
template <typename T>
class VectorStore {
  using Lanes = SimdEntryLanes<T>;
  static constexpr bool kHasLanes = Lanes::kEnabled;

 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    if (entries_.empty() || size_ == entries_.size()) Grow();
    const std::size_t pos = (head_ + size_) & mask_;
    entries_[pos] = StoreEntry<T>{t, expedited};
    lane_seq_[pos] = t.seq;
    if constexpr (kHasLanes) {
      lane_k0_[pos] = Lanes::K0(t.value);
      if constexpr (Lanes::kHasF32) lane_k1_[pos] = Lanes::K1(t.value);
    }
    if (t.epoch > max_epoch_) max_epoch_ = t.epoch;
    ++size_;
  }

  bool EraseSeq(Seq seq) { return TakeSeq(seq, nullptr); }

  /// EraseSeq that also hands out the erased tuple (the HSJ expiry chase
  /// needs the victim to keep it travelling as a dying arrival). `out` may
  /// be null.
  bool TakeSeq(Seq seq, Stamped<T>* out) {
    if (size_ == 0) return false;
    // Expiries arrive oldest-first per home node, so the head is the
    // overwhelmingly typical target: a pure index bump, no element moves.
    if (At(0).tuple.seq == seq) {
      if (out != nullptr) *out = At(0).tuple;
      head_ = (head_ + 1) & mask_;
      --size_;
      return true;
    }
    // Out-of-order erase (rare): locate via a packed sweep of the Seq lane,
    // then close the gap by shifting the shorter side of the ring.
    const std::size_t i = FindSeq(seq);
    if (i == kNpos) return false;
    if (out != nullptr) *out = At(i).tuple;
    EraseAt(i);
    return true;
  }

  bool ClearExpedited(Seq seq) {
    // Expedition-ends arrive in insertion order, so flags are monotone:
    // non-expedited prefix, expedited suffix. The target is the oldest
    // expedited entry — scan newest-to-oldest and bail out as soon as the
    // suffix ends instead of walking the non-expedited bulk of the window.
    for (std::size_t i = size_; i > 0; --i) {
      StoreEntry<T>& entry = At(i - 1);
      if (!entry.expedited) return false;
      if (entry.tuple.seq == seq) {
        entry.expedited = false;
        return true;
      }
    }
    return false;
  }

  /// Visits every entry (probe is ignored — scan store).
  template <typename Probe, typename F>
  void ForEach(const Probe& /*probe*/, F&& f) const {
    for (std::size_t i = 0; i < size_; ++i) f(At(i));
  }

  /// Batch probe fused with query evaluation — the SIMD scan hot path.
  /// Tests every entry against k probes x N registered queries and calls
  /// f(j, q, entry) for each matching (probe j, query q, entry) combination.
  /// When the (Pred, ProbeT, T) direction has a SIMD mapping, the window is
  /// swept in L1-resident blocks of key lanes: per block and query, one
  /// tile-kernel call per 16 probes yields one match bitmask per probe, and
  /// emission walks the set bits. Otherwise this is the generic
  /// entry-major scalar scan. Both paths produce identical result sets
  /// (same arithmetic; see common/simd.hpp). kProbeIsLeft gives the
  /// predicate argument order: true => pred(probe, entry).
  template <bool kProbeIsLeft, typename Pred, typename ProbeT, typename F>
  void MatchBatch(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, F&& f) const {
    // Self-joins (ProbeT == T) stay on the generic path: the SIMD traits
    // are keyed on (Pred, Probe, Entry) types only, so with equal types
    // both probe directions would resolve to ONE specialization and an
    // asymmetric predicate would be evaluated with its arguments swapped
    // in one of them. kProbeIsLeft orientation is always honored below.
    if constexpr (QuerySet<Pred>::template SimdCapable<ProbeT, T>() &&
                  !std::is_same_v<ProbeT, T>) {
      if (size_ == 0) return;
      const std::size_t first = std::min(size_, entries_.size() - head_);
      SweepLanes(queries, probes, k, head_, 0, first, f);
      SweepLanes(queries, probes, k, 0, first, size_ - first, f);
    } else {
      for (std::size_t i = 0; i < size_; ++i) {
        const StoreEntry<T>& entry = At(i);
        for (std::size_t j = 0; j < k; ++j) {
          queries.template MatchOriented<kProbeIsLeft>(
              probes[j].value, entry.tuple.value,
              [&](QueryId q) { f(j, q, entry); });
        }
      }
    }
  }

  std::size_t size() const { return size_; }

  /// Highest query epoch ever inserted (monotone; erases do not lower it).
  /// `max_epoch() <= e` lets callers skip ForEachEpochAfter entirely — the
  /// steady-state fast path when no epoch change is in flight.
  Epoch max_epoch() const { return max_epoch_; }

  /// Visits every entry whose tuple was pushed under an epoch later than
  /// `e`. Entries are inserted in flow order and epochs are monotone in
  /// flow order, so these form a suffix of the ring: the walk starts at the
  /// newest entry and stops at the first old-epoch one — O(newer entries),
  /// not O(window).
  template <typename F>
  void ForEachEpochAfter(Epoch e, F&& f) const {
    if (max_epoch_ <= e) return;
    for (std::size_t i = size_; i > 0; --i) {
      const StoreEntry<T>& entry = At(i - 1);
      if (entry.tuple.epoch <= e) break;
      f(entry);
    }
  }

  std::size_t expedited_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < size_; ++i) n += At(i).expedited ? 1 : 0;
    return n;
  }

  // -- FIFO access (HSJ window segments ride on the same ring) ---------------

  const StoreEntry<T>& Front() const { return At(0); }
  const StoreEntry<T>& Back() const { return At(size_ - 1); }
  Seq FrontSeq() const { return lane_seq_[head_]; }
  Seq BackSeq() const { return lane_seq_[(head_ + size_ - 1) & mask_]; }

  void PopFront() {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  StoreEntry<T>& At(std::size_t i) { return entries_[(head_ + i) & mask_]; }
  const StoreEntry<T>& At(std::size_t i) const {
    return entries_[(head_ + i) & mask_];
  }

  /// One contiguous lane segment (physical offset `phys`, logical offset
  /// `base`, `len` entries), swept in kSimdBlock chunks: a chunk of both key
  /// lanes stays L1-resident while every query tests it, one tile of up to
  /// kTileProbes probes per kernel call. Emission order: block, query,
  /// probe, entry ascending.
  template <typename Pred, typename ProbeT, typename F>
  void SweepLanes(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, std::size_t phys, std::size_t base,
                  std::size_t len, F&& f) const {
    SimdMatchScratch tile;
    for (std::size_t off = 0; off < len; off += kSimdBlock) {
      const std::size_t n = std::min(kSimdBlock, len - off);
      SimdLaneBlock lanes;
      lanes.k0 = lane_k0_.data() + phys + off;
      if constexpr (Lanes::kHasF32) lanes.k1 = lane_k1_.data() + phys + off;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        for (std::size_t t = 0; t < k; t += kTileProbes) {
          const std::size_t kt = std::min(kTileProbes, k - t);
          queries.template Matches<T>(static_cast<QueryId>(q), probes + t, kt,
                                      lanes, n, &tile);
          for (std::size_t j = 0; j < kt; ++j) {
            ForEachSetBit(tile.mask[j], n, [&](std::size_t i) {
              f(t + j, static_cast<QueryId>(q), At(base + off + i));
            });
          }
        }
      }
    }
  }

  /// Logical index of the entry carrying `seq` (packed sweep of the Seq
  /// lane), or kNpos.
  std::size_t FindSeq(Seq seq) const {
    if (size_ == 0) return kNpos;
    const std::size_t first = std::min(size_, entries_.size() - head_);
    const std::size_t i = FindSeqInSegment(head_, 0, first, seq);
    if (i != kNpos) return i;
    return FindSeqInSegment(0, first, size_ - first, seq);
  }

  std::size_t FindSeqInSegment(std::size_t phys, std::size_t base,
                               std::size_t len, Seq seq) const {
    const SimdKernels& kernels = ActiveKernels();
    uint64_t mask[kSimdBlockWords];
    for (std::size_t off = 0; off < len; off += kSimdBlock) {
      const std::size_t n = std::min(kSimdBlock, len - off);
      kernels.eq_u64(lane_seq_.data() + phys + off, n, seq, mask);
      for (std::size_t w = 0; w < SimdMaskWords(n); ++w) {
        if (mask[w] != 0) {
          return base + off + w * 64 +
                 static_cast<std::size_t>(__builtin_ctzll(mask[w]));
        }
      }
    }
    return kNpos;
  }

  /// Closes the gap at logical index i by shifting the shorter side of the
  /// ring; entry and lane slots move in tandem.
  void EraseAt(std::size_t i) {
    if (i == 0) {
      head_ = (head_ + 1) & mask_;
      --size_;
      return;
    }
    if (i < size_ - i) {
      for (std::size_t j = i; j > 0; --j) CopySlot(j, j - 1);
      head_ = (head_ + 1) & mask_;
    } else {
      for (std::size_t j = i; j + 1 < size_; ++j) CopySlot(j, j + 1);
    }
    --size_;
  }

  /// Copies logical slot src into logical slot dst across the entry ring
  /// and every lane.
  void CopySlot(std::size_t dst, std::size_t src) {
    const std::size_t d = (head_ + dst) & mask_;
    const std::size_t s = (head_ + src) & mask_;
    entries_[d] = entries_[s];
    lane_seq_[d] = lane_seq_[s];
    if constexpr (kHasLanes) {
      lane_k0_[d] = lane_k0_[s];
      if constexpr (Lanes::kHasF32) lane_k1_[d] = lane_k1_[s];
    }
  }

  void Grow() {
    const std::size_t new_cap = entries_.empty() ? 16 : entries_.size() * 2;
    std::vector<StoreEntry<T>> next(new_cap);
    SlabArray<Seq> next_seq(new_cap);
    for (std::size_t i = 0; i < size_; ++i) {
      const std::size_t from = (head_ + i) & mask_;
      next[i] = entries_[from];
      next_seq[i] = lane_seq_[from];
    }
    entries_ = std::move(next);
    lane_seq_ = std::move(next_seq);
    if constexpr (kHasLanes) {
      SlabArray<int32_t> next_k0(new_cap);
      SlabArray<float> next_k1;
      if constexpr (Lanes::kHasF32) next_k1.Reset(new_cap);
      for (std::size_t i = 0; i < size_; ++i) {
        const std::size_t from = (head_ + i) & mask_;
        next_k0[i] = lane_k0_[from];
        if constexpr (Lanes::kHasF32) next_k1[i] = lane_k1_[from];
      }
      lane_k0_ = std::move(next_k0);
      if constexpr (Lanes::kHasF32) lane_k1_ = std::move(next_k1);
    }
    mask_ = new_cap - 1;
    head_ = 0;
  }

  std::vector<StoreEntry<T>> entries_;
  // SoA key lanes mirroring the ring (same indexing as entries_): the Seq
  // lane always (packed expiry search), the predicate key lanes only for
  // types with a SimdEntryLanes mapping. Page-aligned slabs (mempolicy).
  SlabArray<Seq> lane_seq_;
  SlabArray<int32_t> lane_k0_;
  SlabArray<float> lane_k1_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  Epoch max_epoch_ = 0;
};

/// Hash index store for equi-joins, built on the lane-grouped key table
/// (llhj/group_table.hpp). OwnKey extracts the key from this store's tuple
/// type; ProbeKey extracts it from the probing (opposite stream) tuple
/// type. ForEach visits only entries with the matching key, in insertion
/// order — the table's order invariant (inserts never reuse tombstoned
/// lanes, so a key's lanes sit at strictly increasing scan positions)
/// makes the candidate walk yield insertion order by construction: no
/// sort, no Seq gather, no entry-slab touch before emission (DESIGN.md
/// Section 15). Erase/clear are O(1) via the seq -> slot table plus a
/// tombstone flip in the key table.
template <typename T, typename OwnKey, typename ProbeKey>
class HashStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    const int64_t key = OwnKey{}(t.value);
    const int32_t slot = AllocSlot();
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    s.entry = StoreEntry<T>{t, expedited};
    s.key = key;
    table_.Insert(key, slot);
    seq_index_.Insert(t.seq, slot);
    if (t.epoch > max_epoch_) max_epoch_ = t.epoch;
    ++size_;
  }

  bool EraseSeq(Seq seq) {
    const int32_t* found = seq_index_.Find(seq);
    if (found == nullptr) return false;
    const int32_t slot = *found;
    table_.Erase(slots_[static_cast<std::size_t>(slot)].key, slot);
    seq_index_.Erase(seq);
    free_.push_back(slot);
    --size_;
    return true;
  }

  bool ClearExpedited(Seq seq) {
    const int32_t* found = seq_index_.Find(seq);
    if (found == nullptr) return false;
    slots_[static_cast<std::size_t>(*found)].entry.expedited = false;
    return true;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& probe, F&& f) const {
    ProbeInsertionOrder(ProbeKey{}(probe), f);
  }

  /// Batch probe fused with query evaluation (same shape as
  /// VectorStore::MatchBatch so the pipeline nodes are store-agnostic).
  /// Genuinely batched, per chunk of 32 probes:
  ///   1. hash every probe key and prefetch its home cluster (ctrl, key
  ///      and ref lines — the table walk's only cold loads);
  ///   2. group-scan 8+ candidate keys per packed compare, collecting refs
  ///      for the whole chunk — already in per-key insertion order (the
  ///      table's order invariant); the scattered entry slab is untouched
  ///      so far;
  ///   3. emit probe by probe, prefetching the NEXT probe's slots while
  ///      the current one's entries run through QuerySet::MatchOriented —
  ///      each entry line is touched exactly once, with a probe's worth of
  ///      prefetch lead (a pointer-chasing index can overlap none of this —
  ///      the measured gap to the multimap baseline in
  ///      bench/ablation_simd_probe.cpp equi_hash).
  /// Identical result sets at every SIMD level (the kernels share the
  /// scalar's arithmetic). Not reentrant: callbacks must not probe this
  /// store (single owning node thread; see the concurrency contract).
  template <bool kProbeIsLeft, typename Pred, typename ProbeT, typename F>
  void MatchBatch(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, F&& f) const {
    std::array<int64_t, kProbeChunk> keys;
    std::array<uint32_t, kProbeChunk + 1> bounds;
    for (std::size_t base = 0; base < k; base += kProbeChunk) {
      const std::size_t m = std::min(kProbeChunk, k - base);
      for (std::size_t j = 0; j < m; ++j) {
        keys[j] = ProbeKey{}(probes[base + j].value);
        table_.PrefetchKey(keys[j]);
      }
      refs_buf_.clear();
      for (std::size_t j = 0; j < m; ++j) {
        bounds[j] = static_cast<uint32_t>(refs_buf_.size());
        table_.ForEachCandidate(
            keys[j], [&](int32_t ref) { refs_buf_.push_back(ref); });
      }
      bounds[m] = static_cast<uint32_t>(refs_buf_.size());
      PrefetchSlots(bounds[0], bounds[1]);
      for (std::size_t j = 0; j < m; ++j) {
        if (j + 1 < m) PrefetchSlots(bounds[j + 1], bounds[j + 2]);
        for (uint32_t i = bounds[j]; i < bounds[j + 1]; ++i) {
          const StoreEntry<T>& entry =
              slots_[static_cast<std::size_t>(refs_buf_[i])].entry;
          queries.template MatchOriented<kProbeIsLeft>(
              probes[base + j].value, entry.tuple.value,
              [&](QueryId q) { f(base + j, q, entry); });
        }
      }
    }
  }

  std::size_t size() const { return size_; }

  Epoch max_epoch() const { return max_epoch_; }

  /// Visits every live entry pushed under an epoch later than `e`,
  /// newest-first (strictly descending Seq) — the same order as
  /// VectorStore's epoch walk, pinned by test_stores.cpp so every store is
  /// interchangeable under the epoch re-sweep in the nodes. The
  /// `max_epoch() <= e` early-out makes this free except during an epoch
  /// transition (then it is O(live entries) for the handful of probes that
  /// predate the boundary).
  template <typename F>
  void ForEachEpochAfter(Epoch e, F&& f) const {
    if (max_epoch_ <= e) return;
    std::vector<int32_t> newer;
    seq_index_.ForEach([&](const Seq&, const int32_t& slot) {
      if (slots_[static_cast<std::size_t>(slot)].entry.tuple.epoch > e) {
        newer.push_back(slot);
      }
    });
    std::sort(newer.begin(), newer.end(), [&](int32_t a, int32_t b) {
      return slots_[static_cast<std::size_t>(a)].entry.tuple.seq >
             slots_[static_cast<std::size_t>(b)].entry.tuple.seq;
    });
    for (const int32_t slot : newer) {
      f(slots_[static_cast<std::size_t>(slot)].entry);
    }
  }

  // -- introspection (tests, bench) ------------------------------------------

  std::size_t group_count() const { return table_.group_count(); }
  std::size_t tombstone_lanes() const { return table_.tombstone_lanes(); }

 private:
  /// Probe batch chunk: bounds the gather buffer while still giving the
  /// prefetches of a full pipeline step (kMsgsPerStep-sized batches) time
  /// to land before their group is scanned.
  static constexpr std::size_t kProbeChunk = 32;

  struct Slot {
    StoreEntry<T> entry;
    int64_t key = 0;  ///< join key, for the table-side erase
  };

  /// Issues prefetches for the slot lines of refs_buf_[from, to).
  void PrefetchSlots(uint32_t from, uint32_t to) const {
    for (uint32_t i = from; i < to; ++i) {
      __builtin_prefetch(&slots_[static_cast<std::size_t>(refs_buf_[i])]);
    }
  }

  /// Visits every entry whose key equals `key`, in insertion order — the
  /// table's candidate walk already yields it (the single-probe path:
  /// ForEach; MatchBatch pipelines candidate collection and slot prefetch
  /// across its whole chunk instead).
  template <typename F>
  void ProbeInsertionOrder(int64_t key, F&& f) const {
    table_.ForEachCandidate(key, [&](int32_t ref) {
      f(slots_[static_cast<std::size_t>(ref)].entry);
    });
  }

  int32_t AllocSlot() {
    if (!free_.empty()) {
      const int32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    slots_.emplace_back();
    return static_cast<int32_t>(slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  std::vector<int32_t> free_;
  GroupTable<int64_t> table_;
  FlatMap<Seq, int32_t> seq_index_;
  std::size_t size_ = 0;
  Epoch max_epoch_ = 0;
  /// Scratch reused across probes (no per-probe allocation): the candidate
  /// refs collected per chunk, already in per-probe insertion order.
  /// Stores are owned by a single node thread (external synchronization —
  /// see the concurrency contract in DESIGN.md), so const probes may reuse
  /// it; probes are not reentrant.
  mutable std::vector<int32_t> refs_buf_;
};

/// Ordered (tree) index store for band/range predicates — the "different
/// kinds of indices" the paper names as future work (Sections 7.6 and 9).
/// Entries are kept sorted on OwnKey; a probe visits only the key range
/// [ProbeLow(probe), ProbeHigh(probe)], so a band join degrades from a full
/// window scan to a range lookup (the predicate still filters remaining
/// dimensions).
template <typename T, typename OwnKey, typename ProbeLow, typename ProbeHigh>
class OrderedStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    const int64_t key = OwnKey{}(t.value);
    tree_.emplace(key, StoreEntry<T>{t, expedited});
    seq_to_key_.Insert(t.seq, key);
    if (t.epoch > max_epoch_) max_epoch_ = t.epoch;
  }

  bool EraseSeq(Seq seq) {
    const int64_t* key = seq_to_key_.Find(seq);
    if (key == nullptr) return false;
    auto [lo, hi] = tree_.equal_range(*key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.tuple.seq == seq) {
        tree_.erase(it);
        break;
      }
    }
    seq_to_key_.Erase(seq);
    return true;
  }

  bool ClearExpedited(Seq seq) {
    const int64_t* key = seq_to_key_.Find(seq);
    if (key == nullptr) return false;
    auto [lo, hi] = tree_.equal_range(*key);
    for (auto it = lo; it != hi; ++it) {
      if (it->second.tuple.seq == seq) {
        it->second.expedited = false;
        return true;
      }
    }
    return false;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& probe, F&& f) const {
    auto it = tree_.lower_bound(ProbeLow{}(probe));
    const auto end = tree_.upper_bound(ProbeHigh{}(probe));
    for (; it != end; ++it) f(it->second);
  }

  /// Batch probe fused with query evaluation (probe-major: each probe
  /// narrows to its own key range; the range already did the heavy lift).
  template <bool kProbeIsLeft, typename Pred, typename ProbeT, typename F>
  void MatchBatch(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, F&& f) const {
    for (std::size_t j = 0; j < k; ++j) {
      ForEach(probes[j].value, [&](const StoreEntry<T>& entry) {
        queries.template MatchOriented<kProbeIsLeft>(
            probes[j].value, entry.tuple.value,
            [&](QueryId q) { f(j, q, entry); });
      });
    }
  }

  std::size_t size() const { return tree_.size(); }

  Epoch max_epoch() const { return max_epoch_; }

  /// Visits every entry pushed under an epoch later than `e` (key-ordered
  /// trees have no epoch ordering; the early-out keeps this free outside
  /// epoch transitions).
  template <typename F>
  void ForEachEpochAfter(Epoch e, F&& f) const {
    if (max_epoch_ <= e) return;
    for (const auto& [key, entry] : tree_) {
      if (entry.tuple.epoch > e) f(entry);
    }
  }

 private:
  std::multimap<int64_t, StoreEntry<T>> tree_;
  FlatMap<Seq, int64_t> seq_to_key_;
  Epoch max_epoch_ = 0;
};

}  // namespace sjoin
