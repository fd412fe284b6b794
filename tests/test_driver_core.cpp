// Tests for the session driver core (core/session_core.hpp) alone, against
// a recording shard sink in place of the engine shards: the core is driven
// through its public push / query-lifecycle surface and every test asserts
// the exact per-shard message log it emitted —
//  * count and time windows (expiry position and order),
//  * hash_key and replicate_r partitioning (arrival and expiry routing),
//  * a forced shed (the loss bound precedes the next admitted arrival, and
//    goes to exactly one shard),
//  * a live epoch install (every shard switches at the same boundary),
//  * a span-of-one push sequence, whose logs equal the span pushes',
// plus the merge rules of the per-shard outputs (epoch drain and
// punctuation as the min over shards, one router for every result).
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/session_core.hpp"
#include "stream/handlers.hpp"
#include "stream/partitioner.hpp"

#include "test_util.hpp"

namespace sjoin {

template <>
struct ShardKeyTraits<test::KeyEq, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static uint64_t KeyR(const test::TR& r) {
    return static_cast<uint64_t>(static_cast<int64_t>(r.key));
  }
  static uint64_t KeyS(const test::TS& s) {
    return static_cast<uint64_t>(static_cast<int64_t>(s.key));
  }
};

namespace {

using test::KeyEq;
using test::TR;
using test::TS;
using Log = std::vector<std::string>;

const char* Side(StreamSide side) {
  return side == StreamSide::kR ? "R" : "S";
}

std::string Ids(const std::vector<QueryId>& ids) {
  std::string out = "{";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(ids[i]);
  }
  return out + "}";
}

/// Stands in for an EngineShard: records every message the core emits,
/// and lets a test play the shard's side of the output contract.
class RecordingShard {
 public:
  void Start(QuerySet<KeyEq> set, std::vector<QueryId> ids,
             OutputHandler<TR, TS>* out) {
    out_ = out;
    log.push_back("start " + Ids(ids) + " n=" + std::to_string(set.size()));
  }

  template <StreamSide kSide, typename T>
  void Arrive(const T& tuple, Seq seq, Timestamp ts, Epoch epoch) {
    log.push_back(std::string("+") + Side(kSide) + std::to_string(seq) +
                  " k" + std::to_string(tuple.key) + " t" +
                  std::to_string(ts) + " e" + std::to_string(epoch));
  }

  void Expire(StreamSide side, Seq seq, Timestamp ts) {
    log.push_back(std::string("-") + Side(side) + std::to_string(seq) + " t" +
                  std::to_string(ts));
  }

  void Loss(StreamSide side, Seq first_seq, uint64_t count) {
    log.push_back(std::string("loss ") + Side(side) +
                  std::to_string(first_seq) + "+" + std::to_string(count));
  }

  void InstallEpoch(Epoch epoch, QuerySet<KeyEq> set,
                    std::vector<QueryId> ids) {
    log.push_back("epoch" + std::to_string(epoch) + " " + Ids(ids) +
                  " n=" + std::to_string(set.size()));
  }

  void EndPush(StreamSide /*side*/) { ++pushes; }
  void Poll() {}
  void Finish() { log.push_back("finish"); }
  void Stop() {}
  std::size_t backlog() const { return 0; }
  uint64_t anomalies() const { return 0; }

  OutputHandler<TR, TS>* out() { return out_; }

  Log log;
  int pushes = 0;

 private:
  OutputHandler<TR, TS>* out_ = nullptr;
};

using Core = SessionCore<TR, TS, KeyEq, RecordingShard>;

/// A core over `n` recording shards; `shards` receives their addresses.
std::unique_ptr<Core> MakeCore(int n, WindowSpec w, PartitionPolicy partition,
                               std::vector<RecordingShard*>* shards) {
  Core::Options options;
  options.window_r = w;
  options.window_s = w;
  options.partition = partition;
  std::vector<std::unique_ptr<RecordingShard>> owned;
  for (int k = 0; k < n; ++k) {
    owned.push_back(std::make_unique<RecordingShard>());
    shards->push_back(owned.back().get());
  }
  return std::make_unique<Core>(options, std::move(owned));
}

/// The log token of key `key` ("k<key>").
std::string K(int32_t key) {
  std::string token = "k";
  token += std::to_string(key);
  return token;
}

/// The smallest positive key that hashes onto `shard` of `n`.
int32_t KeyOnShard(int shard, int n) {
  int32_t key = 1;
  while (ShardOfKey(static_cast<uint64_t>(key), n) != shard) ++key;
  return key;
}

TEST(DriverCore, CountWindowsExpireRightAfterTheOverflowingArrival) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(1, WindowSpec::Count(2), PartitionPolicy::kReplicateR,
                       &shards);
  core->AddQuery(KeyEq{}, nullptr);
  core->PushR(TR{5, 0}, 1);
  core->PushR(TR{6, 0}, 2);
  core->PushS(TS{5, 0}, 3);
  core->PushR(TR{7, 0}, 4);  // third R: R0 leaves the 2-tuple window
  core->PushS(TS{6, 0}, 2);  // timestamp regression is clamped to 4
  core->PushS(TS{7, 0}, 5);  // third S: S0 leaves
  core->FinishInput();
  EXPECT_EQ(shards[0]->log, (Log{"start {0} n=1", "+R0 k5 t1 e0",
                                 "+R1 k6 t2 e0", "+S0 k5 t3 e0",
                                 "+R2 k7 t4 e0", "-R0 t1", "+S1 k6 t4 e0",
                                 "+S2 k7 t5 e0", "-S0 t3", "finish"}));
  EXPECT_EQ(shards[0]->pushes, 6);
}

TEST(DriverCore, TimeWindowsExpireOldestFirstBeforeTheArrival) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(1, WindowSpec::Time(10), PartitionPolicy::kReplicateR,
                       &shards);
  core->AddQuery(KeyEq{}, nullptr);
  core->PushR(TR{1, 0}, 0);
  core->PushS(TS{1, 0}, 3);
  core->PushR(TR{2, 0}, 10);  // 0 + 10 is not < 10: nothing expires yet
  core->PushS(TS{2, 0}, 14);  // R0 and S0 expire, oldest first
  core->PushR(TR{3, 0}, 25);  // R1 and S1 expire, oldest first
  EXPECT_EQ(shards[0]->log,
            (Log{"start {0} n=1", "+R0 k1 t0 e0", "+S0 k1 t3 e0",
                 "+R1 k2 t10 e0", "-R0 t0", "-S0 t3", "+S1 k2 t14 e0",
                 "-R1 t10", "-S1 t14", "+R2 k3 t25 e0"}));
}

TEST(DriverCore, HashKeyRoutesBothSidesAndExpiriesToTheKeysShard) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(2, WindowSpec::Count(1), PartitionPolicy::kHashKey,
                       &shards);
  core->AddQuery(KeyEq{}, nullptr);
  const int32_t a = KeyOnShard(0, 2);
  const int32_t b = KeyOnShard(1, 2);
  const std::string ka = K(a);
  const std::string kb = K(b);
  const std::vector<TR> rs = {TR{a, 0}, TR{b, 0}};
  const std::vector<Timestamp> rts = {1, 2};
  core->PushR(std::span<const TR>(rs), std::span<const Timestamp>(rts));
  core->PushS(TS{b, 0}, 3);
  core->FinishInput();
  // R1 overflows the 1-tuple window: R0's expiry follows R0 to shard 0.
  EXPECT_EQ(shards[0]->log,
            (Log{"start {0} n=1", "+R0 " + ka + " t1 e0", "-R0 t1", "finish"}));
  EXPECT_EQ(shards[1]->log, (Log{"start {0} n=1", "+R1 " + kb + " t2 e0",
                                 "+S0 " + kb + " t3 e0", "finish"}));
  EXPECT_EQ(shards[0]->pushes, 2);  // every push ends on every shard
  EXPECT_EQ(shards[1]->pushes, 2);
}

TEST(DriverCore, ReplicateRBroadcastsRAndRoundRobinsS) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(2, WindowSpec::Count(2), PartitionPolicy::kReplicateR,
                       &shards);
  core->AddQuery(KeyEq{}, nullptr);
  const std::vector<TS> ss = {TS{1, 0}, TS{2, 0}, TS{3, 0}};
  const std::vector<Timestamp> sts = {1, 2, 3};
  core->PushS(std::span<const TS>(ss), std::span<const Timestamp>(sts));
  core->PushR(TR{4, 0}, 4);
  core->PushR(TR{5, 0}, 5);
  core->PushR(TR{6, 0}, 6);
  // S seq k lands on shard k % 2 and so does its expiry; every R arrival
  // and R expiry reaches both shards.
  EXPECT_EQ(shards[0]->log,
            (Log{"start {0} n=1", "+S0 k1 t1 e0", "+S2 k3 t3 e0", "-S0 t1",
                 "+R0 k4 t4 e0", "+R1 k5 t5 e0", "+R2 k6 t6 e0", "-R0 t4"}));
  EXPECT_EQ(shards[1]->log,
            (Log{"start {0} n=1", "+S1 k2 t2 e0", "+R0 k4 t4 e0",
                 "+R1 k5 t5 e0", "+R2 k6 t6 e0", "-R0 t4"}));
}

TEST(DriverCore, ForcedShedReportsTheGapBeforeTheNextAdmittedArrival) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(1, WindowSpec::Count(2), PartitionPolicy::kReplicateR,
                       &shards);
  core->admission().SetForceShed([](StreamSide side, Seq seq) {
    return side == StreamSide::kR && (seq == 1 || seq == 2);
  });
  core->AddQuery(KeyEq{}, nullptr);
  const std::vector<TR> rs = {TR{1, 0}, TR{2, 0}, TR{3, 0}, TR{4, 0},
                              TR{5, 0}};
  const std::vector<Timestamp> ts = {1, 2, 3, 4, 5};
  core->PushR(std::span<const TR>(rs), std::span<const Timestamp>(ts));
  // A shed tuple never enters the window: R3 is the second live R tuple,
  // so only R4 pushes R0 out.
  EXPECT_EQ(shards[0]->log,
            (Log{"start {0} n=1", "+R0 k1 t1 e0", "loss R1+2", "+R3 k4 t4 e0",
                 "+R4 k5 t5 e0", "-R0 t1"}));
  EXPECT_EQ(core->tuples_shed(StreamSide::kR), 2u);
}

TEST(DriverCore, ShedGapsGoToExactlyOneShardAndCloseAtFinish) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(2, WindowSpec::Count(4), PartitionPolicy::kHashKey,
                       &shards);
  core->admission().SetForceShed([](StreamSide side, Seq seq) {
    return side == StreamSide::kS && seq >= 1;
  });
  core->AddQuery(KeyEq{}, nullptr);
  const int32_t b = KeyOnShard(1, 2);
  const std::string kb = K(b);
  core->PushS(TS{b, 0}, 1);
  core->PushS(TS{b, 0}, 2);  // shed: the gap stays open ...
  core->FinishInput();       // ... until the end of the input closes it
  EXPECT_EQ(shards[0]->log, (Log{"start {0} n=1", "loss S1+1", "finish"}));
  EXPECT_EQ(shards[1]->log,
            (Log{"start {0} n=1", "+S0 " + kb + " t1 e0", "finish"}));
}

TEST(DriverCore, LiveEpochInstallReachesEveryShardAtOneBoundary) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(2, WindowSpec::Count(8), PartitionPolicy::kReplicateR,
                       &shards);
  CollectingHandler<TR, TS> h0, h1;
  const auto q0 = core->AddQuery(KeyEq{}, &h0);
  core->PushR(TR{1, 0}, 1);
  const auto q1 = core->AddQuery(KeyEq{}, &h1);
  core->PushS(TS{1, 0}, 2);
  EXPECT_TRUE(core->RemoveQuery(q0));
  core->PushS(TS{1, 0}, 3);
  EXPECT_EQ(core->current_epoch(), 2u);
  EXPECT_EQ(shards[0]->log,
            (Log{"start {0} n=1", "+R0 k1 t1 e0", "epoch1 {0,1} n=2",
                 "+S0 k1 t2 e1", "epoch2 {1} n=1"}));
  EXPECT_EQ(shards[1]->log,
            (Log{"start {0} n=1", "+R0 k1 t1 e0", "epoch1 {0,1} n=2",
                 "epoch2 {1} n=1", "+S1 k1 t3 e2"}));

  // Epoch drains merge as the min over shards: q0 retires only once both
  // shards have drained its removal epoch.
  shards[0]->out()->OnEpochDrained(2);
  EXPECT_EQ(core->drained_epoch(), 0u);
  EXPECT_TRUE(h0.retired_queries().empty());
  shards[1]->out()->OnEpochDrained(2);
  EXPECT_EQ(core->drained_epoch(), 2u);
  EXPECT_EQ(h0.retired_queries(), (std::vector<QueryId>{q0.id}));
  EXPECT_TRUE(h1.retired_queries().empty());
  EXPECT_EQ(q1.id, 1u);
}

TEST(DriverCore, SpanOfOnePushesLogExactlyWhatSpanPushesLog) {
  // Mixed windows, two hash shards, a shed and an epoch install: the same
  // tuples pushed one by one and as spans yield identical message logs.
  const int32_t a = KeyOnShard(0, 2);
  const int32_t b = KeyOnShard(1, 2);
  const std::vector<TR> rs = {TR{a, 0}, TR{b, 1}, TR{a, 2}, TR{b, 3},
                              TR{a, 4}, TR{b, 5}};
  const std::vector<TS> ss = {TS{b, 0}, TS{a, 1}, TS{a, 2}, TS{b, 3},
                              TS{b, 4}, TS{a, 5}};
  const std::vector<Timestamp> rts = {1, 2, 3, 20, 21, 22};
  const std::vector<Timestamp> sts = {4, 5, 6, 30, 31, 32};
  auto run = [&](bool spans, std::vector<RecordingShard*>* shards) {
    Core::Options options;
    options.window_r = WindowSpec::Count(3);
    options.window_s = WindowSpec::Time(12);
    options.partition = PartitionPolicy::kHashKey;
    std::vector<std::unique_ptr<RecordingShard>> owned;
    for (int k = 0; k < 2; ++k) {
      owned.push_back(std::make_unique<RecordingShard>());
      shards->push_back(owned.back().get());
    }
    auto core = std::make_unique<Core>(options, std::move(owned));
    core->admission().SetForceShed([](StreamSide side, Seq seq) {
      return side == StreamSide::kS && seq == 4;
    });
    core->AddQuery(KeyEq{}, nullptr);
    for (std::size_t half = 0; half < 2; ++half) {
      if (half == 1) core->AddQuery(KeyEq{}, nullptr);
      const std::size_t at = half * 3;
      if (spans) {
        core->PushR(std::span<const TR>(rs).subspan(at, 3),
                    std::span<const Timestamp>(rts).subspan(at, 3));
        core->PushS(std::span<const TS>(ss).subspan(at, 3),
                    std::span<const Timestamp>(sts).subspan(at, 3));
      } else {
        for (std::size_t i = at; i < at + 3; ++i) core->PushR(rs[i], rts[i]);
        for (std::size_t i = at; i < at + 3; ++i) core->PushS(ss[i], sts[i]);
      }
    }
    core->FinishInput();
    return core;
  };
  std::vector<RecordingShard*> scalar, batched;
  auto c1 = run(false, &scalar);
  auto c2 = run(true, &batched);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(scalar[k]->log, batched[k]->log) << "shard " << k;
    EXPECT_GT(scalar[k]->log.size(), 4u) << "shard " << k;
    EXPECT_EQ(scalar[k]->pushes, 12);
    EXPECT_EQ(batched[k]->pushes, 4);
  }
  EXPECT_EQ(c1->tuples_shed(StreamSide::kS), 1u);
}

TEST(DriverCore, OneRouterMergesResultsAndPunctuationsAcrossShards) {
  std::vector<RecordingShard*> shards;
  auto core = MakeCore(2, WindowSpec::Count(8), PartitionPolicy::kReplicateR,
                       &shards);
  CollectingHandler<TR, TS> handler;
  core->AddQuery(KeyEq{}, &handler);
  core->Start();
  ResultMsg<TR, TS> m;
  m.query = 0;
  shards[1]->out()->OnResult(m);
  m.query = 7;  // never registered: counted as misrouted, not delivered
  shards[0]->out()->OnResult(m);
  EXPECT_EQ(handler.results().size(), 1u);
  EXPECT_EQ(core->results_collected(), 1u);
  EXPECT_EQ(core->pipeline_anomalies(), 1u);
  // A punctuation is forwarded once every shard has reached it.
  shards[0]->out()->OnPunctuation(10);
  EXPECT_TRUE(handler.punctuations().empty());
  shards[1]->out()->OnPunctuation(7);
  shards[1]->out()->OnPunctuation(12);
  EXPECT_EQ(handler.punctuations(), (std::vector<Timestamp>{7, 10}));
}

}  // namespace
}  // namespace sjoin
