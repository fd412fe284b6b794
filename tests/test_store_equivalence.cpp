// Equivalence tests: the cache-friendly window stores (ring-buffer
// VectorStore, flat-hash HashStore) must behave exactly like the seed
// implementations (std::deque scan store, unordered_map bucket store) on
// every operation sequence the LLHJ protocol can produce. The reference
// implementations below are verbatim ports of the seed stores; the drivers
// generate protocol-conformant op streams — insertions in sequence order,
// expiries oldest-first (with occasional out-of-order erases, the
// tombstone-chase shape), expedition-ends in insertion order, lookups of
// absent seqs — the same shapes the schedule fuzzer produces through whole
// pipelines in test_schedules.cpp. The lane-grouped HashStore additionally
// runs lock-step against the brute-force multimap store (test::MultimapStore)
// under tombstone-heavy churn, with batched-probe multiset checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "llhj/group_table.hpp"
#include "llhj/store.hpp"
#include "stream/query_set.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::TR;
using test::TRKey;
using test::TS;
using test::TSKey;

// -- Reference implementations (the seed's stores, verbatim) -----------------

template <typename T>
class RefVectorStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    entries_.push_back(StoreEntry<T>{t, expedited});
  }

  bool EraseSeq(Seq seq) {
    if (!entries_.empty() && entries_.front().tuple.seq == seq) {
      entries_.pop_front();
      return true;
    }
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->tuple.seq == seq) {
        entries_.erase(it);
        return true;
      }
    }
    return false;
  }

  bool ClearExpedited(Seq seq) {
    for (auto& entry : entries_) {
      if (entry.tuple.seq == seq) {
        entry.expedited = false;
        return true;
      }
    }
    return false;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& /*probe*/, F&& f) const {
    for (const auto& entry : entries_) f(entry);
  }

  std::size_t size() const { return entries_.size(); }

 private:
  std::deque<StoreEntry<T>> entries_;
};

template <typename T, typename OwnKey, typename ProbeKey>
class RefHashStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    const int64_t key = OwnKey{}(t.value);
    buckets_[key].push_back(StoreEntry<T>{t, expedited});
    seq_to_key_.emplace(t.seq, key);
    ++size_;
  }

  bool EraseSeq(Seq seq) {
    auto key_it = seq_to_key_.find(seq);
    if (key_it == seq_to_key_.end()) return false;
    auto bucket_it = buckets_.find(key_it->second);
    if (bucket_it != buckets_.end()) {
      auto& vec = bucket_it->second;
      for (auto it = vec.begin(); it != vec.end(); ++it) {
        if (it->tuple.seq == seq) {
          vec.erase(it);
          break;
        }
      }
      if (vec.empty()) buckets_.erase(bucket_it);
    }
    seq_to_key_.erase(key_it);
    --size_;
    return true;
  }

  bool ClearExpedited(Seq seq) {
    auto key_it = seq_to_key_.find(seq);
    if (key_it == seq_to_key_.end()) return false;
    auto bucket_it = buckets_.find(key_it->second);
    if (bucket_it == buckets_.end()) return false;
    for (auto& entry : bucket_it->second) {
      if (entry.tuple.seq == seq) {
        entry.expedited = false;
        return true;
      }
    }
    return false;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& probe, F&& f) const {
    auto it = buckets_.find(ProbeKey{}(probe));
    if (it == buckets_.end()) return;
    for (const auto& entry : it->second) f(entry);
  }

  std::size_t size() const { return size_; }

 private:
  std::unordered_map<int64_t, std::vector<StoreEntry<T>>> buckets_;
  std::unordered_map<Seq, int64_t> seq_to_key_;
  std::size_t size_ = 0;
};

// -- Drivers -----------------------------------------------------------------

struct Observed {
  Seq seq;
  int32_t key;
  bool expedited;
  bool operator==(const Observed&) const = default;
};

template <typename Store>
std::vector<Observed> Snapshot(const Store& store, int32_t probe_key) {
  TS probe;
  probe.key = probe_key;
  std::vector<Observed> out;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    out.push_back(Observed{e.tuple.seq, e.tuple.value.key, e.expedited});
  });
  return out;
}

Stamped<TR> MakeTuple(int32_t key, Seq seq) {
  Stamped<TR> t;
  t.value.key = key;
  t.value.id = static_cast<int32_t>(seq);
  t.seq = seq;
  t.ts = static_cast<Timestamp>(seq);
  return t;
}

// R-side shape: every insert expedited, expedition-ends clear in insertion
// order, expiries erase (mostly) oldest-first, plus absent-seq probes.
TEST(StoreEquivalence, RingStoreMatchesSeedVectorStoreOnRSideSequences) {
  for (uint64_t trial = 1; trial <= 8; ++trial) {
    Rng rng(trial * 1337);
    VectorStore<TR> ring;
    RefVectorStore<TR> ref;
    Seq next_seq = 0;
    std::deque<Seq> live;      // insertion order
    std::deque<Seq> to_clear;  // expedition-ends pending, insertion order
    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.UniformDouble();
      if (live.empty() || dice < 0.45) {
        const int32_t key = static_cast<int32_t>(rng.UniformInt(1, 6));
        ring.Insert(MakeTuple(key, next_seq), /*expedited=*/true);
        ref.Insert(MakeTuple(key, next_seq), /*expedited=*/true);
        live.push_back(next_seq);
        to_clear.push_back(next_seq);
        ++next_seq;
      } else if (dice < 0.65 && !to_clear.empty()) {
        // Expedition-end for the oldest still-expedited seq. The tuple may
        // already have been erased (tombstone shape) — both stores must
        // then report a miss.
        const Seq seq = to_clear.front();
        to_clear.pop_front();
        ASSERT_EQ(ring.ClearExpedited(seq), ref.ClearExpedited(seq));
      } else if (dice < 0.95) {
        // Expiry: oldest-first (typical), occasionally out of order.
        const std::size_t pick =
            rng.Chance(0.85) ? 0
                             : static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(live.size()) - 1));
        const Seq seq = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_EQ(ring.EraseSeq(seq), ref.EraseSeq(seq));
      } else {
        // Absent seq (already expired or never stored).
        ASSERT_EQ(ring.EraseSeq(next_seq + 100), ref.EraseSeq(next_seq + 100));
      }
      ASSERT_EQ(ring.size(), ref.size()) << "trial " << trial << " op " << op;
      if (op % 64 == 0) {
        ASSERT_EQ(Snapshot(ring, 0), Snapshot(ref, 0))
            << "trial " << trial << " op " << op;
      }
    }
    EXPECT_EQ(Snapshot(ring, 0), Snapshot(ref, 0));
  }
}

// S-side shape: inserts never expedited, pure FIFO expiry.
TEST(StoreEquivalence, RingStoreMatchesSeedVectorStoreOnSSideSequences) {
  Rng rng(4242);
  VectorStore<TR> ring;
  RefVectorStore<TR> ref;
  Seq next_seq = 0;
  std::deque<Seq> live;
  for (int op = 0; op < 6000; ++op) {
    if (live.empty() || rng.Chance(0.55)) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(1, 4));
      ring.Insert(MakeTuple(key, next_seq), false);
      ref.Insert(MakeTuple(key, next_seq), false);
      live.push_back(next_seq++);
    } else {
      const Seq seq = live.front();
      live.pop_front();
      ASSERT_EQ(ring.EraseSeq(seq), ref.EraseSeq(seq));
    }
    ASSERT_EQ(ring.size(), ref.size());
  }
  EXPECT_EQ(Snapshot(ring, 0), Snapshot(ref, 0));
}

TEST(StoreEquivalence, FlatHashStoreMatchesSeedHashStore) {
  using Flat = HashStore<TR, TRKey, TSKey>;
  using Ref = RefHashStore<TR, TRKey, TSKey>;
  for (uint64_t trial = 1; trial <= 8; ++trial) {
    Rng rng(trial * 7717);
    Flat flat;
    Ref ref;
    Seq next_seq = 0;
    std::deque<Seq> live;
    std::deque<Seq> to_clear;
    constexpr int32_t kKeyDomain = 5;  // small: long per-key chains
    for (int op = 0; op < 4000; ++op) {
      const double dice = rng.UniformDouble();
      if (live.empty() || dice < 0.45) {
        const int32_t key = static_cast<int32_t>(rng.UniformInt(1, kKeyDomain));
        flat.Insert(MakeTuple(key, next_seq), true);
        ref.Insert(MakeTuple(key, next_seq), true);
        live.push_back(next_seq);
        to_clear.push_back(next_seq);
        ++next_seq;
      } else if (dice < 0.65 && !to_clear.empty()) {
        const Seq seq = to_clear.front();
        to_clear.pop_front();
        ASSERT_EQ(flat.ClearExpedited(seq), ref.ClearExpedited(seq));
      } else if (dice < 0.95) {
        const std::size_t pick =
            rng.Chance(0.85) ? 0
                             : static_cast<std::size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(live.size()) - 1));
        const Seq seq = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ASSERT_EQ(flat.EraseSeq(seq), ref.EraseSeq(seq));
      } else {
        ASSERT_EQ(flat.EraseSeq(next_seq + 100), ref.EraseSeq(next_seq + 100));
      }
      ASSERT_EQ(flat.size(), ref.size()) << "trial " << trial << " op " << op;
      if (op % 64 == 0) {
        for (int32_t key = 1; key <= kKeyDomain; ++key) {
          ASSERT_EQ(Snapshot(flat, key), Snapshot(ref, key))
              << "trial " << trial << " op " << op << " key " << key;
        }
      }
    }
    for (int32_t key = 1; key <= kKeyDomain; ++key) {
      EXPECT_EQ(Snapshot(flat, key), Snapshot(ref, key)) << "key " << key;
    }
  }
}

// -- Grouped store vs the multimap oracle under tombstone churn --------------

// The lane-grouped HashStore against the brute-force multimap store
// (test::MultimapStore), in lock-step across every operation the store
// concept exposes. The op mix is erase-heavy in bursts, so the grouped table
// accumulates tombstoned lanes, crosses its 7/8 occupancy trigger, and
// exercises both rehash shapes (same-size tombstone purge and doubling).
// Two key domains: small forces long duplicate runs spilling the inline
// candidate buffer; large forces displacement across many groups.
TEST(StoreEquivalence, GroupedHashStoreMatchesMultimapOracleUnderChurn) {
  using Crossing = std::tuple<std::size_t, QueryId, Seq>;
  for (const int32_t key_domain : {4, 4096}) {
    for (uint64_t trial = 1; trial <= 4; ++trial) {
      Rng rng(trial * 9001 + static_cast<uint64_t>(key_domain));
      HashStore<TR, TRKey, TSKey> grouped;
      test::MultimapStore<TR, TRKey, TSKey> oracle;
      Seq next_seq = 0;
      std::deque<Seq> live;
      std::deque<Seq> to_clear;
      // Phases alternate: grow-heavy then erase-heavy (tombstone churn).
      for (int op = 0; op < 5000; ++op) {
        const bool grow_phase = (op / 500) % 2 == 0;
        const double insert_p = grow_phase ? 0.7 : 0.25;
        const double dice = rng.UniformDouble();
        if (live.empty() || dice < insert_p) {
          const int32_t key =
              static_cast<int32_t>(rng.UniformInt(1, key_domain));
          grouped.Insert(MakeTuple(key, next_seq), true);
          oracle.Insert(MakeTuple(key, next_seq), true);
          live.push_back(next_seq);
          to_clear.push_back(next_seq);
          ++next_seq;
        } else if (dice < insert_p + 0.15 && !to_clear.empty()) {
          const Seq seq = to_clear.front();
          to_clear.pop_front();
          ASSERT_EQ(grouped.ClearExpedited(seq), oracle.ClearExpedited(seq));
        } else if (dice < 0.97) {
          const std::size_t pick =
              rng.Chance(0.85) ? 0
                               : static_cast<std::size_t>(rng.UniformInt(
                                     0, static_cast<int64_t>(live.size()) - 1));
          const Seq seq = live[pick];
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          ASSERT_EQ(grouped.EraseSeq(seq), oracle.EraseSeq(seq));
        } else {
          ASSERT_EQ(grouped.EraseSeq(next_seq + 7),
                    oracle.EraseSeq(next_seq + 7));
        }
        ASSERT_EQ(grouped.size(), oracle.size())
            << "domain " << key_domain << " trial " << trial << " op " << op;
        if (op % 128 == 0) {
          // Per-key insertion-order snapshots on a handful of keys...
          for (int32_t key = 1; key <= std::min(key_domain, 5); ++key) {
            ASSERT_EQ(Snapshot(grouped, key), Snapshot(oracle, key))
                << "domain " << key_domain << " trial " << trial << " op "
                << op << " key " << key;
          }
          // ...and a batched probe sweep including absent keys.
          QuerySet<test::KeyEq> queries{test::KeyEq{}};
          std::vector<Stamped<TS>> probes;
          for (std::size_t j = 0; j < 12; ++j) {
            Stamped<TS> p;
            p.value.key =
                static_cast<int32_t>(rng.UniformInt(1, key_domain + 2));
            p.seq = j;
            probes.push_back(p);
          }
          std::multiset<Crossing> got, want;
          grouped.MatchBatch<false>(
              queries, probes.data(), probes.size(),
              [&](std::size_t j, QueryId q, const StoreEntry<TR>& e) {
                got.insert({j, q, e.tuple.seq});
              });
          oracle.MatchBatch<false>(
              queries, probes.data(), probes.size(),
              [&](std::size_t j, QueryId q, const StoreEntry<TR>& e) {
                want.insert({j, q, e.tuple.seq});
              });
          ASSERT_EQ(got, want)
              << "domain " << key_domain << " trial " << trial << " op " << op;
        }
      }
    }
  }
}

// The int32 GroupTable instantiation end-to-end (the store uses int64):
// duplicate lanes, (key, ref) disambiguated erase, tombstone reuse,
// same-size purge rehash, and candidate termination across dead groups.
TEST(StoreEquivalence, GroupTableInt32InsertEraseProbe) {
  GroupTable<int32_t> table;
  EXPECT_EQ(table.size(), 0u);
  // Oracle keeps each key's live refs in INSERTION order: the table's
  // candidate walk must reproduce it exactly (the order invariant the
  // store's probe path leans on — no sort on emission), across erases,
  // tombstone accumulation, purges and growth rehashes.
  std::unordered_map<int32_t, std::vector<int32_t>> oracle;
  Rng rng(271828);
  int32_t next_ref = 0;
  std::vector<std::pair<int32_t, int32_t>> live;
  for (int op = 0; op < 3000; ++op) {
    if (live.empty() || rng.Chance(0.55)) {
      const int32_t key = static_cast<int32_t>(rng.UniformInt(-8, 8));
      table.Insert(key, next_ref);
      oracle[key].push_back(next_ref);
      live.emplace_back(key, next_ref);
      ++next_ref;
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      const auto [key, ref] = live[pick];
      EXPECT_TRUE(table.Erase(key, ref));
      EXPECT_FALSE(table.Erase(key, ref));  // already tombstoned
      auto& order = oracle[key];
      order.erase(std::find(order.begin(), order.end(), ref));
      live[pick] = live.back();
      live.pop_back();
    }
    if (op % 100 == 0) {
      for (int32_t key = -9; key <= 9; ++key) {
        std::vector<int32_t> got;
        table.ForEachCandidate(key,
                               [&](int32_t ref) { got.push_back(ref); });
        const auto it = oracle.find(key);
        ASSERT_EQ(got, it == oracle.end() ? std::vector<int32_t>{}
                                          : it->second)
            << "op " << op << " key " << key;
      }
      ASSERT_EQ(table.size(), live.size());
    }
  }
  EXPECT_GT(table.group_count(), 2u);  // grew past kMinGroups
}

// -- Regression: ClearExpedited must not scan past the expedited suffix -----

// Expedition-ends arrive in insertion order, so a window is always a
// non-expedited (already cleared) prefix followed by an expedited suffix.
// The seed implementation walked the whole prefix for every clear — O(window)
// per expedition-end. The ring store scans newest-to-oldest and stops at
// the first non-expedited entry. This pins the early-exit semantics:
// a seq in the cleared prefix reports a miss instead of being re-found.
TEST(VectorStoreRegression, ClearExpeditedBailsOutAtExpeditedSuffix) {
  VectorStore<TR> store;
  for (Seq s = 0; s < 100; ++s) store.Insert(MakeTuple(1, s), true);
  // Clear the first 60 in insertion order (the protocol's only order).
  for (Seq s = 0; s < 60; ++s) EXPECT_TRUE(store.ClearExpedited(s));
  EXPECT_EQ(store.expedited_count(), 40u);
  // Re-clearing a prefix seq cannot happen in the protocol (one
  // expedition-end per tuple); the early exit reports it as a miss.
  EXPECT_FALSE(store.ClearExpedited(30));
  // The suffix stays reachable, in order.
  for (Seq s = 60; s < 100; ++s) EXPECT_TRUE(store.ClearExpedited(s));
  EXPECT_EQ(store.expedited_count(), 0u);
  EXPECT_FALSE(store.ClearExpedited(999));
}

// Erasures must preserve the bail-out invariant: holes punched by expiries
// (front or middle) never reorder entries, so flags stay monotone.
TEST(VectorStoreRegression, ClearExpeditedCorrectAfterErasures) {
  VectorStore<TR> store;
  for (Seq s = 0; s < 32; ++s) store.Insert(MakeTuple(1, s), true);
  for (Seq s = 0; s < 16; ++s) EXPECT_TRUE(store.ClearExpedited(s));
  EXPECT_TRUE(store.EraseSeq(0));   // front
  EXPECT_TRUE(store.EraseSeq(20));  // middle of the expedited suffix
  EXPECT_TRUE(store.EraseSeq(8));   // middle of the cleared prefix
  for (Seq s = 16; s < 32; ++s) {
    if (s == 20) {
      EXPECT_FALSE(store.ClearExpedited(s));  // erased: miss, like the seed
    } else {
      EXPECT_TRUE(store.ClearExpedited(s)) << "seq " << s;
    }
  }
  EXPECT_EQ(store.expedited_count(), 0u);
}

}  // namespace
}  // namespace sjoin
