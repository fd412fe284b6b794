// Lane-grouped key table for the equi-join hash store (DESIGN.md
// Section 15) — the F14/Swiss-table treatment applied to HashStore's probe
// path. Instead of per-key intrusive chains (one pointer chase per stored
// duplicate), keys live in contiguous GROUPS of 8 lanes:
//
//   keys[8g .. 8g+7]   the join keys resident in group g (SoA lane array)
//   refs[8g .. 8g+7]   the slot-slab index each lane's entry lives at
//   full[g]            occupancy byte: bit b set iff lane 8g+b is live
//   tomb[g]            tombstone byte: bit b set iff lane 8g+b was erased
//
// A probe hashes to its home group and compares 8 keys per step with one
// packed grouped-equality kernel (common/simd.hpp, runtime-dispatched):
// the compare mask ANDed with full[g] yields the candidate lanes, and the
// walk advances to the next group only while the current one has no truly
// EMPTY lane (full|tomb == 0xff). Duplicate keys are simply multiple live
// lanes — there is no chain structure to maintain, so erase is a bitmask
// flip (full bit off, tomb bit on) and displacement never moves entries.
//
// ORDER INVARIANT: candidates are visited in PER-KEY INSERTION ORDER, by
// construction. Inserts take the first truly EMPTY lane along the probe
// sequence — tombstoned lanes are never reused — and erases only turn
// full lanes into tombstones. Empty lanes therefore only ever disappear
// between rehashes, so each successive insert of a key lands at a strictly
// later scan position (group in probe order, then lane index) than the
// key's previous one, and the probe walk — which visits lanes in exactly
// that scan order — yields the key's live lanes oldest-first. The owning
// store leans on this: no sort, no Seq gather, no entry-slab touch before
// emission. Tombstone reuse would save a little space but would scramble
// this order and put a per-probe sort back on the hot path — measured at
// ~30% of the whole probe in bench/ablation_simd_probe.cpp equi_hash.
//
// Termination stays the classic rule: no key is ever placed beyond the
// first group that contains an empty lane, so the probe walk stops there.
// Rehashes trigger at 3/4 occupancy counting tombstones — a step tighter
// than FlatMap's 7/8, because tombstoned lanes here are pure probe-path
// drag (scanned and masked on every walk through their cluster, and never
// reclaimed in place); the earlier purge trades a slightly higher
// amortized insert cost for measurably shorter duplicate clusters. A
// rehash drops all tombstones; one that is mostly reclaiming tombstones
// keeps the group count, one that is genuinely out of room doubles it. To carry the order invariant across, the rehash
// walks the old groups circularly starting just past an open group (one
// with an empty lane): no cluster spans an open group, so every key's
// lanes are revisited — and thus reinserted — in its own scan order.
//
// All lane arrays are carved from ONE page-aligned slab
// (runtime/mempolicy.hpp AllocateSlab).
//
// The table stores (key, ref) lanes only; entry payloads and visit
// semantics beyond the per-key order are the owning store's business
// (llhj/store.hpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/flat_hash.hpp"
#include "common/simd.hpp"
#include "runtime/mempolicy.hpp"

namespace sjoin {

/// Selects the grouped-equality kernel matching the key width. The store
/// instantiates int64 (join keys); tests instantiate int32 as well so both
/// kernel widths stay exercised end-to-end.
template <typename K>
struct GroupEqKernel;

template <>
struct GroupEqKernel<int64_t> {
  static void Sweep(const SimdKernels& kernels, const int64_t* keys,
                    const uint8_t* full, std::size_t n, int64_t key,
                    uint64_t* mask) {
    kernels.eq_groups_i64(keys, full, n, key, mask);
  }
};

template <>
struct GroupEqKernel<int32_t> {
  static void Sweep(const SimdKernels& kernels, const int32_t* keys,
                    const uint8_t* full, std::size_t n, int32_t key,
                    uint64_t* mask) {
    kernels.eq_groups_i32(keys, full, n, key, mask);
  }
};

template <typename K>
class GroupTable {
 public:
  GroupTable() = default;
  GroupTable(GroupTable&& other) noexcept { MoveFrom(other); }
  GroupTable& operator=(GroupTable&& other) noexcept {
    if (this != &other) {
      FreeSlab(&slab_);
      MoveFrom(other);
    }
    return *this;
  }
  GroupTable(const GroupTable&) = delete;
  GroupTable& operator=(const GroupTable&) = delete;
  ~GroupTable() { FreeSlab(&slab_); }

  std::size_t size() const { return size_; }

  /// Adds one (key, ref) lane. Duplicate keys are fine (each gets its own
  /// lane); `ref` disambiguates them on Erase. Successive inserts of the
  /// same key are visited by ForEachCandidate in this insertion order (see
  /// the header invariant).
  void Insert(K key, int32_t ref) {
    if (groups_ == 0 ||
        (size_ + tombs_ + 1) * 4 >= groups_ * kGroupLanes * 3) {
      Rehash(NextGroups());
    }
    InsertNoGrow(key, ref);
    ++size_;
  }

  /// Tombstones the lane holding exactly (key, ref). Returns false when no
  /// such lane exists.
  bool Erase(K key, int32_t ref) {
    if (groups_ == 0) return false;
    std::size_t g = HomeGroup(key);
    while (true) {
      unsigned live = full_[g];
      while (live != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(live));
        live &= live - 1;
        const std::size_t idx = g * kGroupLanes + lane;
        if (keys_[idx] == key && refs_[idx] == ref) {
          const uint8_t bit = static_cast<uint8_t>(1u << lane);
          full_[g] = static_cast<uint8_t>(full_[g] & ~bit);
          tomb_[g] = static_cast<uint8_t>(tomb_[g] | bit);
          ++tombs_;
          --size_;
          return true;
        }
      }
      if (GroupHasEmptyLane(g)) return false;
      g = (g + 1) & gmask_;
    }
  }

  /// Calls f(ref) for every live lane whose key equals `key`, in the key's
  /// INSERTION order (the header invariant). The walk sweeps a contiguous
  /// RUN of groups per kernel call — from the probe's position through the
  /// first group with an empty lane, capped at 8 groups (one mask word)
  /// and at the physical table edge — so a duplicate-heavy cluster costs
  /// one kernel call per 64 lanes instead of one indirect call per group.
  /// The run-end scan reads only ctrl bytes already in cache.
  template <typename F>
  void ForEachCandidate(K key, F&& f) const {
    if (groups_ == 0) return;
    const SimdKernels& kernels = ActiveKernels();
    std::size_t g = HomeGroup(key);
    while (true) {
      bool open = GroupHasEmptyLane(g);
      std::size_t run = 1;
      while (!open && run < 8 && g + run < groups_) {
        open = GroupHasEmptyLane(g + run);
        ++run;
      }
      uint64_t word = 0;
      GroupEqKernel<K>::Sweep(kernels, keys_ + g * kGroupLanes, full_ + g,
                              run * kGroupLanes, key, &word);
      while (word != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctzll(word));
        word &= word - 1;
        f(refs_[g * kGroupLanes + lane]);
      }
      if (open) return;
      g += run;
      if (g >= groups_) g = 0;  // the probe ring wraps at the table edge
    }
  }

  /// Pulls a probe key's home cluster toward L1 ahead of ForEachCandidate
  /// — the batching lever in HashStore::MatchBatch (hash all probe keys
  /// first, prefetch every home cluster, then scan). Fetches the ctrl
  /// byte, two key lines (duplicate clusters typically span 2-3 groups)
  /// and the refs line, so the group scan doesn't serialize on cold lines
  /// mid-walk.
  void PrefetchKey(K key) const {
    if (groups_ == 0) return;
    const std::size_t lane0 = HomeGroup(key) * kGroupLanes;
    __builtin_prefetch(full_ + (lane0 / kGroupLanes));
    __builtin_prefetch(keys_ + lane0);
    __builtin_prefetch(keys_ + lane0 + kGroupLanes);
    __builtin_prefetch(refs_ + lane0);
  }

  // -- introspection (tests, bench, DESIGN.md Section 15 accounting) ---------

  std::size_t group_count() const { return groups_; }
  std::size_t tombstone_lanes() const { return tombs_; }

 private:
  static constexpr std::size_t kMinGroups = 2;  // 16 lanes

  void MoveFrom(GroupTable& other) {
    slab_ = other.slab_;
    keys_ = other.keys_;
    refs_ = other.refs_;
    full_ = other.full_;
    tomb_ = other.tomb_;
    groups_ = other.groups_;
    gmask_ = other.gmask_;
    size_ = other.size_;
    tombs_ = other.tombs_;
    other.slab_ = Slab{};
    other.keys_ = nullptr;
    other.refs_ = nullptr;
    other.full_ = nullptr;
    other.tomb_ = nullptr;
    other.groups_ = other.gmask_ = other.size_ = other.tombs_ = 0;
  }

  /// True when group g has at least one never-used lane — the probe-walk
  /// terminator (tombstoned lanes do NOT terminate; see header).
  bool GroupHasEmptyLane(std::size_t g) const {
    return (static_cast<unsigned>(full_[g]) | tomb_[g]) != 0xffu;
  }

  std::size_t HomeGroup(K key) const {
    return Mix64Hash{}(static_cast<uint64_t>(static_cast<int64_t>(key))) &
           gmask_;
  }

  std::size_t NextGroups() const {
    if (groups_ == 0) return kMinGroups;
    // Double only when the LIVE entries need the room; a table whose
    // occupancy is mostly tombstones rehashes at the same size (pure
    // tombstone purge), mirroring FlatMap.
    return (size_ + 1) * 2 > groups_ * kGroupLanes ? groups_ * 2 : groups_;
  }

  /// Places (key, ref) at the first truly EMPTY lane along the probe
  /// sequence. Tombstoned lanes are deliberately skipped — reusing them
  /// would break the per-key insertion-order invariant (see header).
  void InsertNoGrow(K key, int32_t ref) {
    std::size_t g = HomeGroup(key);
    while (!GroupHasEmptyLane(g)) g = (g + 1) & gmask_;
    const unsigned lane = static_cast<unsigned>(__builtin_ctz(
        ~(static_cast<unsigned>(full_[g]) | tomb_[g]) & 0xffu));
    const uint8_t bit = static_cast<uint8_t>(1u << lane);
    const std::size_t idx = g * kGroupLanes + lane;
    keys_[idx] = key;
    refs_[idx] = ref;
    full_[g] = static_cast<uint8_t>(full_[g] | bit);
  }

  /// Rebuilds into `new_groups` groups, dropping every tombstone. The old
  /// groups are walked circularly starting just past an open group so each
  /// key's lanes are reinserted in its own scan order — no cluster spans
  /// an open group, so the circular cut never lands inside one (see the
  /// header invariant). The 3/4 load bound guarantees an open group
  /// exists.
  void Rehash(std::size_t new_groups) {
    Slab old_slab = slab_;
    slab_ = Slab{};
    const K* old_keys = keys_;
    const int32_t* old_refs = refs_;
    const uint8_t* old_full = full_;
    const uint8_t* old_tomb = tomb_;
    const std::size_t old_groups = groups_;

    std::size_t start = 0;
    for (std::size_t g = 0; g < old_groups; ++g) {
      if ((static_cast<unsigned>(old_full[g]) | old_tomb[g]) != 0xffu) {
        start = g + 1;
        break;
      }
    }

    AllocateArrays(new_groups);
    tombs_ = 0;
    for (std::size_t k = 0; k < old_groups; ++k) {
      const std::size_t g =
          start + k < old_groups ? start + k : start + k - old_groups;
      unsigned live = old_full[g];
      while (live != 0) {
        const unsigned lane = static_cast<unsigned>(__builtin_ctz(live));
        live &= live - 1;
        const std::size_t idx = g * kGroupLanes + lane;
        InsertNoGrow(old_keys[idx], old_refs[idx]);
      }
    }
    FreeSlab(&old_slab);
  }

  /// Carves keys / refs / full / tomb from one slab: keys first (the slab
  /// base is page-aligned, so every 8-lane key group sits aligned within a
  /// cache line), then refs, then the two ctrl byte arrays. The whole slab
  /// is zeroed so dead-lane key bytes read deterministically (the kernels
  /// may load them; the full-mask AND discards the compare result).
  void AllocateArrays(std::size_t new_groups) {
    groups_ = new_groups;
    gmask_ = new_groups - 1;
    const std::size_t lanes = new_groups * kGroupLanes;
    const std::size_t keys_bytes = lanes * sizeof(K);
    const std::size_t refs_bytes = lanes * sizeof(int32_t);
    const std::size_t total = keys_bytes + refs_bytes + 2 * new_groups;
    slab_ = AllocateSlab(total);
    auto* base = static_cast<unsigned char*>(slab_.addr);
    std::memset(base, 0, total);
    keys_ = reinterpret_cast<K*>(base);
    refs_ = reinterpret_cast<int32_t*>(base + keys_bytes);
    full_ = reinterpret_cast<uint8_t*>(base + keys_bytes + refs_bytes);
    tomb_ = full_ + new_groups;
  }

  Slab slab_;
  K* keys_ = nullptr;
  int32_t* refs_ = nullptr;
  uint8_t* full_ = nullptr;
  uint8_t* tomb_ = nullptr;
  std::size_t groups_ = 0;
  std::size_t gmask_ = 0;
  std::size_t size_ = 0;
  std::size_t tombs_ = 0;
};

}  // namespace sjoin
