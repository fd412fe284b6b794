// Tests for the LLHJ node-local window stores (scan and hash-index).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "llhj/store.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::TR;
using test::TRKey;
using test::TS;
using test::TSKey;

template <typename T>
Stamped<T> Make(int32_t key, Seq seq) {
  Stamped<T> t;
  t.value.key = key;
  t.value.id = static_cast<int32_t>(seq);
  t.seq = seq;
  t.ts = static_cast<Timestamp>(seq);
  return t;
}

template <typename Store>
std::vector<Seq> Collect(const Store& store, int32_t probe_key) {
  TS probe;
  probe.key = probe_key;
  std::vector<Seq> seqs;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    seqs.push_back(e.tuple.seq);
  });
  return seqs;
}

TEST(VectorStore, InsertAndScanAll) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(2, 1), true);
  EXPECT_EQ(store.size(), 2u);
  auto seqs = Collect(store, 99);  // probe ignored: visits everything
  EXPECT_EQ(seqs.size(), 2u);
}

TEST(VectorStore, EraseFrontFastPath) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(2, 1), false);
  EXPECT_TRUE(store.EraseSeq(0));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.EraseSeq(0));
}

TEST(VectorStore, EraseMiddle) {
  VectorStore<TR> store;
  for (Seq i = 0; i < 5; ++i) store.Insert(Make<TR>(1, i), false);
  EXPECT_TRUE(store.EraseSeq(2));
  EXPECT_EQ(store.size(), 4u);
  auto seqs = Collect(store, 1);
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()),
            (std::set<Seq>{0, 1, 3, 4}));
}

TEST(VectorStore, ExpeditionFlagLifecycle) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 7), true);
  EXPECT_EQ(store.expedited_count(), 1u);
  EXPECT_TRUE(store.ClearExpedited(7));
  EXPECT_EQ(store.expedited_count(), 0u);
  EXPECT_FALSE(store.ClearExpedited(8));  // unknown seq
}

TEST(VectorStore, ClearExpeditedOnErasedTupleIsNoop) {
  VectorStore<TR> store;
  store.Insert(Make<TR>(1, 7), true);
  EXPECT_TRUE(store.EraseSeq(7));
  EXPECT_FALSE(store.ClearExpedited(7));
}

using TRHash = HashStore<TR, TRKey, TSKey>;

TEST(HashStore, ProbeVisitsOnlyMatchingBucket) {
  TRHash store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(2, 1), false);
  store.Insert(Make<TR>(1, 2), false);
  EXPECT_EQ(store.size(), 3u);
  auto seqs = Collect(store, 1);
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()), (std::set<Seq>{0, 2}));
  EXPECT_TRUE(Collect(store, 3).empty());
}

TEST(HashStore, EraseSeqUpdatesBuckets) {
  TRHash store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(1, 1), false);
  EXPECT_TRUE(store.EraseSeq(0));
  EXPECT_EQ(store.size(), 1u);
  auto seqs = Collect(store, 1);
  EXPECT_EQ(seqs, std::vector<Seq>{1});
  EXPECT_FALSE(store.EraseSeq(0));
  EXPECT_TRUE(store.EraseSeq(1));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(Collect(store, 1).empty());
}

TEST(HashStore, ClearExpedited) {
  TRHash store;
  store.Insert(Make<TR>(5, 3), true);
  TS probe;
  probe.key = 5;
  int expedited = 0;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    expedited += e.expedited ? 1 : 0;
  });
  EXPECT_EQ(expedited, 1);
  EXPECT_TRUE(store.ClearExpedited(3));
  expedited = 0;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    expedited += e.expedited ? 1 : 0;
  });
  EXPECT_EQ(expedited, 0);
  EXPECT_FALSE(store.ClearExpedited(99));
}

// Range-probe bounds for the test schema: |r.key - s.key| <= 1.
struct TRBandLow {
  int64_t operator()(const TR& r) const { return r.key - 1; }
};
struct TRBandHigh {
  int64_t operator()(const TR& r) const { return r.key + 1; }
};
struct TSBandLow {
  int64_t operator()(const TS& s) const { return s.key - 1; }
};
struct TSBandHigh {
  int64_t operator()(const TS& s) const { return s.key + 1; }
};

using TROrdered = OrderedStore<TR, TRKey, TSBandLow, TSBandHigh>;

std::vector<Seq> CollectOrdered(const TROrdered& store, int32_t probe_key) {
  TS probe;
  probe.key = probe_key;
  std::vector<Seq> seqs;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    seqs.push_back(e.tuple.seq);
  });
  return seqs;
}

// -- Epoch-walk ordering contract --------------------------------------------

// ForEachEpochAfter visits exactly the live entries inserted under an epoch
// later than `e`, NEWEST-FIRST (strictly descending Seq), on every store
// type. The grouped HashStore's precursor walked its seq-index in hash
// order here; the nodes tolerate any order (each entry is evaluated in
// isolation), but the contract is pinned so stores stay interchangeable —
// see llhj_node.hpp / hsj_node.hpp epoch re-sweep call sites.
template <typename T>
Stamped<T> MakeEpoch(int32_t key, Seq seq, Epoch epoch) {
  Stamped<T> t = Make<T>(key, seq);
  t.epoch = epoch;
  return t;
}

template <typename Store>
void CheckEpochWalkNewestFirst() {
  Store store;
  // Epochs are monotone in flow order (the runtime's invariant): seqs
  // 0..29 under epoch 1, 30..59 under epoch 2, 60..89 under epoch 3.
  for (Seq s = 0; s < 90; ++s) {
    store.Insert(MakeEpoch<TR>(static_cast<int32_t>(s % 7), s, 1 + s / 30),
                 false);
  }
  // Churn: expire a prefix plus scattered newer entries.
  for (Seq s = 0; s < 10; ++s) ASSERT_TRUE(store.EraseSeq(s));
  for (Seq s : {Seq{35}, Seq{61}, Seq{88}}) ASSERT_TRUE(store.EraseSeq(s));
  EXPECT_EQ(store.max_epoch(), 3u);

  for (Epoch e = 0; e <= 3; ++e) {
    std::vector<Seq> visited;
    store.ForEachEpochAfter(e, [&](const StoreEntry<TR>& entry) {
      visited.push_back(entry.tuple.seq);
    });
    std::vector<Seq> expect;  // live entries with epoch > e, newest first
    for (Seq s = 90; s > 0; --s) {
      const Seq seq = s - 1;
      if (seq < 10 || seq == 35 || seq == 61 || seq == 88) continue;
      if (1 + seq / 30 > e) expect.push_back(seq);
    }
    EXPECT_EQ(visited, expect) << "epoch " << e;
  }
}

TEST(EpochWalk, VectorStoreVisitsNewestFirst) {
  CheckEpochWalkNewestFirst<VectorStore<TR>>();
}

TEST(EpochWalk, GroupedHashStoreVisitsNewestFirst) {
  CheckEpochWalkNewestFirst<HashStore<TR, TRKey, TSKey>>();
}

TEST(OrderedStore, RangeProbeVisitsOnlyBand) {
  TROrdered store;
  store.Insert(Make<TR>(1, 0), false);
  store.Insert(Make<TR>(3, 1), false);
  store.Insert(Make<TR>(5, 2), false);
  store.Insert(Make<TR>(4, 3), false);
  // Probe key 4 with band 1 -> keys 3..5.
  auto seqs = CollectOrdered(store, 4);
  EXPECT_EQ(std::set<Seq>(seqs.begin(), seqs.end()),
            (std::set<Seq>{1, 2, 3}));
}

TEST(OrderedStore, DuplicateKeysAllVisited) {
  TROrdered store;
  store.Insert(Make<TR>(7, 0), false);
  store.Insert(Make<TR>(7, 1), false);
  store.Insert(Make<TR>(7, 2), false);
  EXPECT_EQ(CollectOrdered(store, 7).size(), 3u);
}

TEST(OrderedStore, EraseSeqFromDuplicateBucket) {
  TROrdered store;
  store.Insert(Make<TR>(7, 0), false);
  store.Insert(Make<TR>(7, 1), false);
  EXPECT_TRUE(store.EraseSeq(0));
  EXPECT_EQ(store.size(), 1u);
  auto seqs = CollectOrdered(store, 7);
  EXPECT_EQ(seqs, std::vector<Seq>{1});
  EXPECT_FALSE(store.EraseSeq(0));
}

TEST(OrderedStore, ExpeditionFlag) {
  TROrdered store;
  store.Insert(Make<TR>(2, 5), true);
  TS probe;
  probe.key = 2;
  int expedited = 0;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    expedited += e.expedited ? 1 : 0;
  });
  EXPECT_EQ(expedited, 1);
  EXPECT_TRUE(store.ClearExpedited(5));
  EXPECT_FALSE(store.ClearExpedited(99));
  expedited = 0;
  store.ForEach(probe, [&](const StoreEntry<TR>& e) {
    expedited += e.expedited ? 1 : 0;
  });
  EXPECT_EQ(expedited, 0);
}

TEST(OrderedStore, EmptyRangeProbe) {
  TROrdered store;
  store.Insert(Make<TR>(100, 0), false);
  EXPECT_TRUE(CollectOrdered(store, 50).empty());
}

}  // namespace
}  // namespace sjoin
