// Shared test machinery: tiny tuple schemas, predicates, random trace
// generation, pipeline run helpers (sequential, deterministic), and
// multiset comparison of result sets against the Kang oracle with
// duplicate/miss diagnostics.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/kang_join.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/executor.hpp"
#include "stream/collector.hpp"
#include "stream/feeder.hpp"
#include "stream/handlers.hpp"
#include "stream/script.hpp"
#include "stream/source.hpp"
#include "stream/trace.hpp"
#include "stream/window.hpp"

#include "multimap_store.hpp"

namespace sjoin::test {

/// Minimal R-side tuple: a join key plus an identity payload.
struct TR {
  int32_t key = 0;
  int32_t id = 0;
};

/// Minimal S-side tuple.
struct TS {
  int32_t key = 0;
  int32_t id = 0;
};

/// Equi predicate on key.
struct KeyEq {
  bool operator()(const TR& r, const TS& s) const { return r.key == s.key; }
};

/// Band predicate |r.key - s.key| <= width.
struct KeyBand {
  int32_t width = 1;
  bool operator()(const TR& r, const TS& s) const {
    return r.key >= s.key - width && r.key <= s.key + width;
  }
};

struct TRKey {
  int64_t operator()(const TR& r) const { return r.key; }
};
struct TSKey {
  int64_t operator()(const TS& s) const { return s.key; }
};

}  // namespace sjoin::test

// SIMD probe mappings (common/simd.hpp) for the test schema: the pipeline
// tests thereby run the SIMD tile scan path end to end — and the CI
// forced-scalar, forced-SSE2 and forced-AVX2 legs (SJOIN_SIMD_LEVEL=scalar
// / =sse2 / =avx2) re-run the very same tests on those rungs, pinning
// bit-identical results across dispatch levels. Int key only: no float
// lane, so these run the int-only tile variant.
namespace sjoin {

template <>
struct SimdEntryLanes<test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = false;
  static int32_t K0(const test::TR& r) { return r.key; }
};

template <>
struct SimdEntryLanes<test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = false;
  static int32_t K0(const test::TS& s) { return s.key; }
};

template <>
struct SimdProbeTraits<test::KeyBand, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandEntry;
  static constexpr bool kUseF32 = false;
  static int32_t Band0(const test::KeyBand& p) { return p.width; }
  static int32_t P0(const test::TR& r) { return r.key; }
};

template <>
struct SimdProbeTraits<test::KeyBand, test::TS, test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandProbe;
  static constexpr bool kUseF32 = false;
  static int32_t Lo0(const test::KeyBand& p, const test::TS& s) {
    return s.key - p.width;
  }
  static int32_t Hi0(const test::KeyBand& p, const test::TS& s) {
    return s.key + p.width;
  }
};

template <>
struct SimdProbeTraits<test::KeyEq, test::TR, test::TS> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const test::KeyEq&, const test::TR& r) { return r.key; }
};

template <>
struct SimdProbeTraits<test::KeyEq, test::TS, test::TR> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const test::KeyEq&, const test::TS& s) { return s.key; }
};

}  // namespace sjoin

namespace sjoin::test {

/// Random trace: alternating-ish arrivals with configurable key domain and
/// timestamp gaps (gap 0 produces runs of equal timestamps — the tie cases).
struct TraceConfig {
  std::size_t events = 200;
  int32_t key_domain = 8;      ///< small domain => many matches
  int64_t max_gap_us = 3;      ///< timestamp gap drawn from [0, max_gap_us]
  double r_fraction = 0.5;     ///< probability an event is an R arrival
};

inline Trace<TR, TS> MakeRandomTrace(uint64_t seed, const TraceConfig& config) {
  Rng rng(seed);
  Trace<TR, TS> trace;
  trace.reserve(config.events);
  Timestamp ts = 0;
  int32_t next_id = 0;
  for (std::size_t i = 0; i < config.events; ++i) {
    ts += rng.UniformInt(0, config.max_gap_us);
    const int32_t key =
        static_cast<int32_t>(rng.UniformInt(1, config.key_domain));
    if (rng.UniformDouble() < config.r_fraction) {
      trace.push_back(ArriveR<TR, TS>(ts, TR{key, next_id++}));
    } else {
      trace.push_back(ArriveS<TR, TS>(ts, TS{key, next_id++}));
    }
  }
  return trace;
}

/// A result identified by the (r_seq, s_seq) pair.
using PairKey = std::pair<Seq, Seq>;

template <typename R, typename S>
std::map<PairKey, int> PairMultiset(const std::vector<ResultMsg<R, S>>& rs) {
  std::map<PairKey, int> out;
  for (const auto& m : rs) out[{m.r_seq, m.s_seq}]++;
  return out;
}

/// Multiset equality with readable diagnostics (misses, duplicates, extras).
template <typename R, typename S>
::testing::AssertionResult SameResultSet(
    const std::vector<ResultMsg<R, S>>& expected,
    const std::vector<ResultMsg<R, S>>& actual) {
  const auto want = PairMultiset(expected);
  const auto got = PairMultiset(actual);
  std::ostringstream oss;
  bool ok = true;
  for (const auto& [pair, n] : want) {
    auto it = got.find(pair);
    const int have = it == got.end() ? 0 : it->second;
    if (have == 0) {
      oss << "MISSING (r" << pair.first << ", s" << pair.second << ")\n";
      ok = false;
    } else if (have != n) {
      oss << "COUNT (r" << pair.first << ", s" << pair.second << "): want "
          << n << " got " << have << "\n";
      ok = false;
    }
  }
  for (const auto& [pair, n] : got) {
    if (n > 1) {
      oss << "DUPLICATE x" << n << " (r" << pair.first << ", s" << pair.second
          << ")\n";
      ok = false;
    }
    if (want.find(pair) == want.end()) {
      oss << "EXTRA (r" << pair.first << ", s" << pair.second << ")\n";
      ok = false;
    }
  }
  if (ok) return ::testing::AssertionSuccess();
  oss << "expected " << expected.size() << " results, got " << actual.size();
  return ::testing::AssertionFailure() << oss.str();
}

/// Runs a script through an LLHJ pipeline on the sequential executor until
/// quiescent. Returns collected results; asserts zero protocol anomalies.
template <typename Pred, typename RStore = VectorStore<TR>,
          typename SStore = VectorStore<TS>>
std::vector<ResultMsg<TR, TS>> RunLlhjSequential(
    const DriverScript<TR, TS>& script,
    typename LlhjPipeline<TR, TS, Pred, RStore, SStore>::Options options,
    Pred pred = Pred{}, int feeder_batch = 1) {
  using Pipeline = LlhjPipeline<TR, TS, Pred, RStore, SStore>;
  Pipeline pipeline(options, pred);

  ScriptSource<TR, TS> source(&script);
  typename Feeder<TR, TS>::Options feeder_options;
  feeder_options.batch_size = feeder_batch;
  feeder_options.expiry_gate = &pipeline.hwm();
  Feeder<TR, TS> feeder(pipeline.ports(), &source, feeder_options);

  CollectingHandler<TR, TS> handler;
  auto collector = pipeline.MakeCollector(&handler);

  SequentialExecutor executor;
  executor.Add(&feeder);
  for (Steppable* node : pipeline.nodes()) executor.Add(node);
  executor.Add(collector.get());

  const std::size_t passes = executor.RunUntilQuiescent();
  EXPECT_LT(passes, std::size_t{1} << 22) << "pipeline did not quiesce";
  EXPECT_TRUE(feeder.finished());
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  return handler.results();
}

/// Same for the original handshake join.
template <typename Pred>
std::vector<ResultMsg<TR, TS>> RunHsjSequential(
    const DriverScript<TR, TS>& script,
    typename HsjPipeline<TR, TS, Pred>::Options options, Pred pred = Pred{},
    int feeder_batch = 1) {
  HsjPipeline<TR, TS, Pred> pipeline(options, pred);

  ScriptSource<TR, TS> source(&script);
  typename Feeder<TR, TS>::Options feeder_options;
  feeder_options.batch_size = feeder_batch;
  // HSJ has no completion notion to gate expiries on; instead the driver
  // must not run ahead of the pipeline (bounded-lag regime, DESIGN.md).
  // One event per executor pass keeps the lag at O(1) events.
  feeder_options.max_events_per_step = 1;
  Feeder<TR, TS> feeder(pipeline.ports(), &source, feeder_options);

  CollectingHandler<TR, TS> handler;
  auto collector = pipeline.MakeCollector(&handler);

  SequentialExecutor executor;
  executor.Add(&feeder);
  for (Steppable* node : pipeline.nodes()) executor.Add(node);
  executor.Add(collector.get());

  const std::size_t passes = executor.RunUntilQuiescent();
  EXPECT_LT(passes, std::size_t{1} << 22) << "pipeline did not quiesce";
  EXPECT_TRUE(feeder.finished());
  EXPECT_EQ(pipeline.total_anomalies(), 0u);
  return handler.results();
}

}  // namespace sjoin::test
