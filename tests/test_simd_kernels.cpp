// Exhaustive scalar-vs-SIMD equivalence for the probe kernels of
// common/simd.hpp, on every dispatch level the host supports:
//  * each tile kernel (equi, entry-side band, probe-side band; float and
//    int-only variants) against the scalar tile on randomized inputs over
//    lane counts that straddle every vector width and the block size, and
//    1..16 probes — the masked-tail contract (bits >= n zero, rows >= k and
//    words past ceil(n/64) untouched) is checked on every call;
//  * boundary values: int32 wraparound at INT32_MIN/MAX +- band, exact
//    band edges, NaN and +-infinity floats;
//  * the Seq-lane and grouped equality mask kernels, with every tail length
//    0 .. 2*lane_width-1 plus block-sized lengths;
//  * the dispatch ladder itself: detection, env-independent override
//    clamping, and the kernel-table names;
//  * the fused store scan: VectorStore::MatchBatch (SIMD path, ring
//    wrapped and unwrapped, multi-tile probe runs) must produce exactly the
//    generic scalar scan's (probe, query, entry) set on every level, for
//    the paper schema (band int+float lanes, equi) and the int-only test
//    schema; the grouped HashStore must reproduce the multimap oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "common/simd.hpp"
#include "llhj/store.hpp"
#include "stream/query_set.hpp"

#include "test_util.hpp"

namespace sjoin {
namespace {

using test::TR;
using test::TS;

/// Widest vector lane count across kernels (AVX-512 i32: 16); tails are
/// swept to twice this.
constexpr std::size_t kMaxLanes = 16;

/// Lengths that stress the vector body / scalar epilogue boundary.
std::vector<std::size_t> TailLengths() {
  std::vector<std::size_t> ns;
  for (std::size_t n = 0; n < 2 * kMaxLanes; ++n) ns.push_back(n);
  ns.push_back(kSimdBlock - 1);
  ns.push_back(kSimdBlock);
  ns.push_back(kSimdBlock + 1);
  ns.push_back(1000);
  return ns;
}

/// Masks are compared word-for-word INCLUDING the tail bits, which the
/// contract requires to be zero. Buffers are pre-poisoned so a kernel that
/// fails to clear its words is caught.
class MaskBuf {
 public:
  explicit MaskBuf(std::size_t n) : words_(SimdMaskWords(n) + 1, ~uint64_t{0}) {}
  uint64_t* data() { return words_.data(); }
  std::vector<uint64_t> Covered(std::size_t n) const {
    return std::vector<uint64_t>(words_.begin(),
                                 words_.begin() +
                                     static_cast<std::ptrdiff_t>(
                                         SimdMaskWords(n)));
  }
  /// The word past the covered range must never be touched.
  uint64_t Sentinel() const { return words_.back(); }

 private:
  std::vector<uint64_t> words_;
};

void ExpectTailZero(const std::vector<uint64_t>& mask, std::size_t n) {
  if (n % 64 == 0) return;
  const uint64_t tail = mask.back() >> (n % 64);
  EXPECT_EQ(tail, 0u) << "bits >= n must be zero (n=" << n << ")";
}

TEST(SimdDispatch, DetectionAndOverrideClamp) {
  EXPECT_GE(DetectedSimdLevel(), SimdLevel::kScalar);
  // Override never exceeds the detected ceiling.
  const SimdLevel got = OverrideSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(got, DetectedSimdLevel());
  EXPECT_EQ(ActiveSimdLevel(), got);
  EXPECT_STREQ(ActiveKernels().name, ToString(got));
  OverrideSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  EXPECT_STREQ(ActiveKernels().name, "scalar");
  ClearSimdLevelOverride();
  EXPECT_LE(ActiveSimdLevel(), DetectedSimdLevel());
}

TEST(SimdDispatch, KernelTableNamesMatchLevels) {
  EXPECT_STREQ(KernelsFor(SimdLevel::kScalar).name, "scalar");
#if SJOIN_SIMD_X86
  EXPECT_STREQ(KernelsFor(SimdLevel::kSse2).name, "sse2");
  EXPECT_STREQ(KernelsFor(SimdLevel::kAvx2).name, "avx2");
  EXPECT_STREQ(KernelsFor(SimdLevel::kAvx512).name, "avx512");
#endif
}

// -- Tile kernels: every level against the scalar tile ----------------------

enum class TileShape { kEqui, kBandEntry, kBandProbe };

constexpr const char* ToString(TileShape shape) {
  switch (shape) {
    case TileShape::kEqui:
      return "equi";
    case TileShape::kBandEntry:
      return "band_entry";
    case TileShape::kBandProbe:
      return "band_probe";
  }
  return "?";
}

constexpr TileShape kTileShapes[] = {TileShape::kEqui, TileShape::kBandEntry,
                                     TileShape::kBandProbe};

/// Inputs of one tile call. Per-probe operands by shape: kEqui key = a0;
/// kBandEntry p0 = a0, p1 = a1; kBandProbe lo0/hi0 = a0/b0, lo1/hi1 =
/// a1/b1. Lanes are sized exactly n, so an overread shows under ASan.
struct TileInput {
  std::vector<int32_t> k0;
  std::vector<float> k1;
  bool f32 = true;  ///< false: int-only variant (null float lane)
  int32_t band0 = 0;
  float band1 = 0.0f;
  std::array<int32_t, kTileProbes> a0{};
  std::array<int32_t, kTileProbes> b0{};
  std::array<float, kTileProbes> a1{};
  std::array<float, kTileProbes> b1{};
};

/// Runs one tile kernel into `out`, which starts with every word ZERO
/// except the words the contract says the kernel writes (rows < k, words
/// < ceil(n/64)), which are poisoned so a word the kernel fails to write
/// shows up.
SimdMatchScratch RunTile(const SimdKernels& kernels, TileShape shape,
                         const TileInput& in, std::size_t k) {
  const std::size_t n = in.k0.size();
  SimdMatchScratch out{};
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t w = 0; w < SimdMaskWords(n); ++w) {
      out.mask[j][w] = ~uint64_t{0};
    }
  }
  const SimdLaneBlock lanes{in.k0.data(), in.f32 ? in.k1.data() : nullptr};
  switch (shape) {
    case TileShape::kEqui:
      kernels.equi_tile(SimdLaneBlock{in.k0.data(), nullptr}, n, in.a0.data(),
                        k, &out);
      break;
    case TileShape::kBandEntry:
      kernels.band_entry_tile(lanes, n, in.band0, in.band1, in.a0.data(),
                              in.a1.data(), k, &out);
      break;
    case TileShape::kBandProbe:
      kernels.band_probe_tile(lanes, n, in.a0.data(), in.b0.data(),
                              in.a1.data(), in.b1.data(), k, &out);
      break;
  }
  return out;
}

/// The masked-tail contract: bits >= n zero in the written words, and no
/// write to rows >= k or to words past ceil(n/64).
void ExpectTileContract(const SimdMatchScratch& got, std::size_t n,
                        std::size_t k, const std::string& where) {
  for (std::size_t j = 0; j < kTileProbes; ++j) {
    for (std::size_t w = 0; w < kSimdBlockWords; ++w) {
      const uint64_t word = got.mask[j][w];
      if (j >= k || w >= SimdMaskWords(n)) {
        ASSERT_EQ(word, 0u) << where << " row " << j << " word " << w
                            << " outside the tile was written";
      } else if (w + 1 == SimdMaskWords(n) && n % 64 != 0) {
        ASSERT_EQ(word >> (n % 64), 0u)
            << where << " row " << j << ": bits >= n must be zero";
      }
    }
  }
}

/// Compares `kernels` with the scalar tile on one input and checks the
/// contract on both.
void ExpectTileMatchesScalar(const SimdKernels& kernels, TileShape shape,
                             const TileInput& in, std::size_t k,
                             const std::string& where) {
  const SimdMatchScratch want =
      RunTile(KernelsFor(SimdLevel::kScalar), shape, in, k);
  const SimdMatchScratch got = RunTile(kernels, shape, in, k);
  const std::string at = std::string(kernels.name) + " " + ToString(shape) +
                         (in.f32 ? " f32" : " int-only") + " n=" +
                         std::to_string(in.k0.size()) +
                         " k=" + std::to_string(k) + " " + where;
  ExpectTileContract(want, in.k0.size(), k, at + " (scalar)");
  ExpectTileContract(got, in.k0.size(), k, at);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t w = 0; w < kSimdBlockWords; ++w) {
      ASSERT_EQ(got.mask[j][w], want.mask[j][w])
          << at << " row " << j << " word " << w;
    }
  }
}

/// Random tile input: small key and float domains so every shape matches
/// often; band widths and probe bounds drawn to hit exact edges as well.
TileInput RandomTileInput(Rng& rng, std::size_t n, bool f32) {
  TileInput in;
  in.f32 = f32;
  in.k0.resize(n);
  in.k1.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    in.k0[i] = static_cast<int32_t>(rng.UniformInt(-40, 40));
    in.k1[i] = static_cast<float>(rng.UniformInt(-160, 160)) * 0.25f;
  }
  in.band0 = static_cast<int32_t>(rng.UniformInt(0, 12));
  in.band1 = static_cast<float>(rng.UniformInt(0, 48)) * 0.25f;
  for (std::size_t j = 0; j < kTileProbes; ++j) {
    in.a0[j] = static_cast<int32_t>(rng.UniformInt(-50, 50));
    in.b0[j] = in.a0[j] + static_cast<int32_t>(rng.UniformInt(-3, 25));
    in.a1[j] = static_cast<float>(rng.UniformInt(-200, 200)) * 0.25f;
    in.b1[j] = in.a1[j] + static_cast<float>(rng.UniformInt(-8, 100)) * 0.25f;
  }
  return in;
}

const std::vector<std::size_t> kTileLanes = {0, 1, 15, 16, 17, 63, 64, 255,
                                             256};
const std::vector<std::size_t> kTileKs = {1, 7, 8, 16};

TEST(SimdTiles, RandomizedMatchScalarAtEveryLevel) {
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& kernels = KernelsFor(level);
    Rng rng(11 + static_cast<uint64_t>(level));
    for (TileShape shape : kTileShapes) {
      for (bool f32 : {true, false}) {
        for (std::size_t n : kTileLanes) {
          for (std::size_t k : kTileKs) {
            for (int trial = 0; trial < 6; ++trial) {
              ExpectTileMatchesScalar(kernels, shape,
                                      RandomTileInput(rng, n, f32), k,
                                      "trial " + std::to_string(trial));
            }
          }
        }
      }
    }
  }
}

TEST(SimdTiles, ScalarTileMatchesPredicateDefinition) {
  // The scalar tile is the reference the other levels are held to; pin it
  // to the predicate arithmetic lane by lane.
  Rng rng(5);
  const SimdKernels& scalar = KernelsFor(SimdLevel::kScalar);
  for (TileShape shape : kTileShapes) {
    for (bool f32 : {true, false}) {
      const TileInput in = RandomTileInput(rng, 256, f32);
      const SimdMatchScratch got = RunTile(scalar, shape, in, kTileProbes);
      for (std::size_t j = 0; j < kTileProbes; ++j) {
        for (std::size_t i = 0; i < 256; ++i) {
          bool want = false;
          switch (shape) {
            case TileShape::kEqui:
              want = in.k0[i] == in.a0[j];
              break;
            case TileShape::kBandEntry:
              want = in.a0[j] >= in.k0[i] - in.band0 &&
                     in.a0[j] <= in.k0[i] + in.band0 &&
                     (!f32 || (in.a1[j] >= in.k1[i] - in.band1 &&
                               in.a1[j] <= in.k1[i] + in.band1));
              break;
            case TileShape::kBandProbe:
              want = in.k0[i] >= in.a0[j] && in.k0[i] <= in.b0[j] &&
                     (!f32 || (in.k1[i] >= in.a1[j] && in.k1[i] <= in.b1[j]));
              break;
          }
          const bool bit = ((got.mask[j][i / 64] >> (i % 64)) & 1u) != 0;
          ASSERT_EQ(bit, want) << ToString(shape) << " j=" << j << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdTiles, Int32WrapAtEdges) {
  // The entry-side band arithmetic is two's-complement wraparound (the
  // _mm*_add/sub_epi32 semantics); entries, probes and probe bounds at
  // INT32_MIN/MAX +- band must give the scalar tile's masks at every level.
  constexpr int32_t kMin = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  const std::vector<int32_t> edges = {kMax,     kMax - 1, kMax - 100, kMin,
                                      kMin + 1, kMin + 100, 0, 1, -1};
  TileInput in;
  in.f32 = false;
  for (std::size_t i = 0; i < 37; ++i) {
    in.k0.push_back(edges[i % edges.size()]);
    in.k1.push_back(0.0f);
  }
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& kernels = KernelsFor(level);
    for (int32_t band : {0, 1, 100, kMax}) {
      in.band0 = band;
      for (std::size_t j = 0; j < kTileProbes; ++j) {
        in.a0[j] = edges[j % edges.size()];
        in.b0[j] = edges[(j + 3) % edges.size()];
      }
      for (TileShape shape : kTileShapes) {
        ExpectTileMatchesScalar(kernels, shape, in, kTileProbes,
                                "band " + std::to_string(band));
      }
    }
  }
}

TEST(SimdTiles, ExactBandEdgesMatch) {
  // A probe exactly on v - band or v + band matches (>= / <=), in both the
  // int and the float term, and one step outside does not.
  TileInput in;
  in.k0 = {10, 10, 10, 20};
  in.k1 = {10.0f, 10.0f, 10.0f, 20.0f};
  in.band0 = 3;
  in.band1 = 3.0f;
  in.a0 = {7, 13, 6, 14, 10};
  in.a1 = {13.0f, 7.0f, 10.0f, 10.0f, 13.25f};
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdMatchScratch got =
        RunTile(KernelsFor(level), TileShape::kBandEntry, in, 5);
    EXPECT_EQ(got.mask[0][0], 0x7u) << ToString(level);  // 7 == 10-3
    EXPECT_EQ(got.mask[1][0], 0x7u) << ToString(level);  // 13 == 10+3
    EXPECT_EQ(got.mask[2][0], 0x0u) << ToString(level);  // int below
    EXPECT_EQ(got.mask[3][0], 0x0u) << ToString(level);  // int above
    EXPECT_EQ(got.mask[4][0], 0x0u) << ToString(level);  // float above
    TileInput probe = in;
    probe.a0 = {10, 11};
    probe.b0 = {10, 20};
    probe.a1 = {10.0f, 10.0f};
    probe.b1 = {10.0f, 19.75f};
    const SimdMatchScratch range =
        RunTile(KernelsFor(level), TileShape::kBandProbe, probe, 2);
    EXPECT_EQ(range.mask[0][0], 0x7u) << ToString(level);  // lo == hi == v
    EXPECT_EQ(range.mask[1][0], 0x0u) << ToString(level);  // 20.0 > 19.75
  }
}

TEST(SimdTiles, NanAndInfinityFloats) {
  // Ordered compares: NaN in a lane, a probe operand or a bound never
  // matches, exactly like the scalar >= / <=; infinities compare normally
  // (inf - band stays inf, so a +inf probe matches a +inf lane).
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {kNan, kInf, -kInf, 0.0f, -0.0f, 1.0f,
                                       -1.0f, 3.0f};
  Rng rng(17);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& kernels = KernelsFor(level);
    for (int trial = 0; trial < 20; ++trial) {
      TileInput in = RandomTileInput(rng, 64 + static_cast<std::size_t>(trial),
                                     /*f32=*/true);
      for (auto& x : in.k0) x = 0;
      for (auto& x : in.k1) {
        x = specials[static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<int64_t>(specials.size()) - 1))];
      }
      in.band0 = 0;
      in.band1 = trial % 3 == 0 ? kInf : (trial % 3 == 1 ? kNan : 1.0f);
      for (std::size_t j = 0; j < kTileProbes; ++j) {
        in.a0[j] = 0;
        in.b0[j] = 0;
        in.a1[j] = specials[j % specials.size()];
        in.b1[j] = specials[(j + trial) % specials.size()];
      }
      for (TileShape shape : {TileShape::kBandEntry, TileShape::kBandProbe}) {
        ExpectTileMatchesScalar(kernels, shape, in, kTileProbes,
                                "trial " + std::to_string(trial));
      }
    }
  }
}

TEST(SimdKernels, EqU64MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(29 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<uint64_t> v(n);
        for (auto& x : v) {
          // Values whose 32-bit halves collide stress the SSE2 half-compare.
          x = static_cast<uint64_t>(rng.UniformInt(0, 3)) << 32 |
              static_cast<uint64_t>(rng.UniformInt(0, 3));
        }
        const uint64_t key = static_cast<uint64_t>(rng.UniformInt(0, 3)) << 32 |
                             static_cast<uint64_t>(rng.UniformInt(0, 3));
        MaskBuf want(n), got(n);
        ref.eq_u64(v.data(), n, key, want.data());
        k.eq_u64(v.data(), n, key, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " key=" << key;
        ExpectTailZero(got.Covered(n), n);
      }
    }
  }
}

// -- Grouped-equality kernels (lane-grouped hash store probe) ----------------
//
// Occupancy bytes sweep all-dead (0x00 — an erased-out / all-tombstone
// group must yield NO candidates no matter what the key lanes hold),
// fully-live (0xff) and random patterns; key lanes use colliding 32-bit
// halves to stress the SSE2 half-compare trick.

TEST(SimdKernels, EqGroupsI64MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(31 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<int64_t> keys(n);
        for (auto& x : keys) {
          x = static_cast<int64_t>(rng.UniformInt(0, 3)) << 32 |
              static_cast<int64_t>(rng.UniformInt(0, 3));
        }
        std::vector<uint8_t> full((n + 7) / 8);
        for (auto& b : full) {
          b = trial == 0   ? uint8_t{0x00}
              : trial == 1 ? uint8_t{0xff}
                           : static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        const int64_t key = static_cast<int64_t>(rng.UniformInt(0, 3)) << 32 |
                            static_cast<int64_t>(rng.UniformInt(0, 3));
        MaskBuf want(n), got(n);
        ref.eq_groups_i64(keys.data(), full.data(), n, key, want.data());
        k.eq_groups_i64(keys.data(), full.data(), n, key, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " trial=" << trial;
        ExpectTailZero(got.Covered(n), n);
        EXPECT_EQ(got.Sentinel(), ~uint64_t{0});
      }
    }
  }
}

TEST(SimdKernels, EqGroupsI32MatchesScalar) {
  const SimdKernels& ref = KernelsFor(SimdLevel::kScalar);
  for (SimdLevel level : SupportedSimdLevels()) {
    const SimdKernels& k = KernelsFor(level);
    Rng rng(37 + static_cast<uint64_t>(level));
    for (std::size_t n : TailLengths()) {
      for (int trial = 0; trial < 20; ++trial) {
        std::vector<int32_t> keys(n);
        for (auto& x : keys) x = static_cast<int32_t>(rng.UniformInt(-4, 4));
        std::vector<uint8_t> full((n + 7) / 8);
        for (auto& b : full) {
          b = trial == 0   ? uint8_t{0x00}
              : trial == 1 ? uint8_t{0xff}
                           : static_cast<uint8_t>(rng.UniformInt(0, 255));
        }
        const int32_t key = static_cast<int32_t>(rng.UniformInt(-4, 4));
        MaskBuf want(n), got(n);
        ref.eq_groups_i32(keys.data(), full.data(), n, key, want.data());
        k.eq_groups_i32(keys.data(), full.data(), n, key, got.data());
        ASSERT_EQ(want.Covered(n), got.Covered(n))
            << ToString(level) << " n=" << n << " trial=" << trial;
        ExpectTailZero(got.Covered(n), n);
        EXPECT_EQ(got.Sentinel(), ~uint64_t{0});
      }
    }
  }
}

// -- Fused store scan: MatchBatch across dispatch levels ---------------------

/// Guard that restores the startup dispatch selection.
struct LevelGuard {
  ~LevelGuard() { ClearSimdLevelOverride(); }
};

using Crossing = std::tuple<std::size_t, QueryId, Seq>;  // (probe j, q, seq)

template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
std::multiset<Crossing> CollectMatches(const Store& store,
                                       const QuerySet<Pred>& queries,
                                       const std::vector<Stamped<ProbeT>>& ps) {
  std::multiset<Crossing> out;
  store.template MatchBatch<kProbeIsLeft>(
      queries, ps.data(), ps.size(),
      [&](std::size_t j, QueryId q, const auto& entry) {
        out.insert({j, q, entry.tuple.seq});
      });
  return out;
}

/// The generic scalar oracle: entry-major loop + QuerySet::Match.
template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
std::multiset<Crossing> OracleMatches(const Store& store,
                                      const QuerySet<Pred>& queries,
                                      const std::vector<Stamped<ProbeT>>& ps) {
  std::multiset<Crossing> out;
  store.ForEach(0, [&](const auto& entry) {
    for (std::size_t j = 0; j < ps.size(); ++j) {
      queries.template MatchOriented<kProbeIsLeft>(
          ps[j].value, entry.tuple.value,
          [&](QueryId q) { out.insert({j, q, entry.tuple.seq}); });
    }
  });
  return out;
}

TEST(SimdMatchBatch, PaperSchemaBandIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(99);
  // Ring with wrap: insert past the grow boundary, expire a prefix.
  VectorStore<STuple> store;
  Seq seq = 0;
  for (int i = 0; i < 700; ++i) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 200));
    s.b = static_cast<float>(rng.UniformInt(1, 200));
    store.Insert(Stamped<STuple>{s, seq++, 0, 0}, false);
  }
  for (Seq e = 0; e < 300; ++e) ASSERT_TRUE(store.EraseSeq(e));
  for (int i = 0; i < 400; ++i) {  // wraps the ring
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 200));
    s.b = static_cast<float>(rng.UniformInt(1, 200));
    store.Insert(Stamped<STuple>{s, seq++, 0, 0}, false);
  }
  QuerySet<BandPredicate> queries(std::vector<BandPredicate>{
      BandPredicate{10, 10.0f}, BandPredicate{25, 3.0f},
      BandPredicate{0, 200.0f}});
  std::vector<Stamped<RTuple>> probes;
  for (std::size_t j = 0; j < 7; ++j) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 200));
    r.y = static_cast<float>(rng.UniformInt(1, 200));
    probes.push_back(Stamped<RTuple>{r, j, 0, 0});
  }
  const auto oracle = OracleMatches<true>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, PaperSchemaProbeBoundsDirectionIdentical) {
  LevelGuard guard;
  Rng rng(101);
  VectorStore<RTuple> store;
  for (Seq seq = 0; seq < 500; ++seq) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 100));
    r.y = static_cast<float>(rng.UniformInt(1, 100));
    store.Insert(Stamped<RTuple>{r, seq, 0, 0}, rng.Chance(0.5));
  }
  QuerySet<BandPredicate> queries(std::vector<BandPredicate>{
      BandPredicate{10, 10.0f}, BandPredicate{50, 50.0f}});
  std::vector<Stamped<STuple>> probes;
  for (std::size_t j = 0; j < 5; ++j) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 100));
    s.b = static_cast<float>(rng.UniformInt(1, 100));
    probes.push_back(Stamped<STuple>{s, j, 0, 0});
  }
  const auto oracle = OracleMatches<false>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<false>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, PaperSchemaEquiIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(103);
  VectorStore<STuple> store;
  for (Seq seq = 0; seq < 300; ++seq) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 20));
    store.Insert(Stamped<STuple>{s, seq, 0, 0}, false);
  }
  QuerySet<EquiPredicate> queries{EquiPredicate{}};
  std::vector<Stamped<RTuple>> probes;
  for (std::size_t j = 0; j < 6; ++j) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 20));
    probes.push_back(Stamped<RTuple>{r, j, 0, 0});
  }
  const auto oracle = OracleMatches<true>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, TestSchemaIntOnlyLanesIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(107);
  VectorStore<TS> store;
  for (Seq seq = 0; seq < 333; ++seq) {
    store.Insert(
        Stamped<TS>{TS{static_cast<int32_t>(rng.UniformInt(1, 12)), 0},
                    seq, 0, 0},
        false);
  }
  QuerySet<test::KeyBand> queries(
      std::vector<test::KeyBand>{test::KeyBand{1}, test::KeyBand{3}});
  std::vector<Stamped<TR>> probes;
  for (std::size_t j = 0; j < 9; ++j) {
    probes.push_back(Stamped<TR>{
        TR{static_cast<int32_t>(rng.UniformInt(1, 12)), 0}, j, 0, 0});
  }
  const auto oracle = OracleMatches<true>(store, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(store, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, MultiTileProbeRunsBothDirectionsWrappedRing) {
  // k = 37 probes = three tiles (16 + 16 + 5) against 3 queries over a
  // wrapped ring, in both probe directions: every tile boundary, every
  // query and both band shapes must reproduce the scalar oracle, and
  // emission order must stay block, query, probe, entry ascending.
  LevelGuard guard;
  Rng rng(131);
  const auto fill = [&](auto* store, auto make) {
    Seq seq = 0;
    for (int i = 0; i < 600; ++i) store->Insert(make(seq++), false);
    for (Seq e = 0; e < 400; ++e) ASSERT_TRUE(store->EraseSeq(e));
    for (int i = 0; i < 500; ++i) store->Insert(make(seq++), false);  // wraps
  };
  const auto make_s = [&](Seq seq) {
    STuple s;
    s.a = static_cast<int32_t>(rng.UniformInt(1, 120));
    s.b = static_cast<float>(rng.UniformInt(1, 120));
    return Stamped<STuple>{s, seq, 0, 0};
  };
  const auto make_r = [&](Seq seq) {
    RTuple r;
    r.x = static_cast<int32_t>(rng.UniformInt(1, 120));
    r.y = static_cast<float>(rng.UniformInt(1, 120));
    return Stamped<RTuple>{r, seq, 0, 0};
  };
  VectorStore<STuple> ws;
  VectorStore<RTuple> wr;
  fill(&ws, make_s);
  fill(&wr, make_r);
  QuerySet<BandPredicate> queries(std::vector<BandPredicate>{
      BandPredicate{3, 3.0f}, BandPredicate{10, 10.0f},
      BandPredicate{0, 120.0f}});
  std::vector<Stamped<RTuple>> probe_r;
  std::vector<Stamped<STuple>> probe_s;
  for (Seq j = 0; j < 37; ++j) {
    probe_r.push_back(make_r(j));
    probe_s.push_back(make_s(j));
  }
  const auto oracle_r = OracleMatches<true>(ws, queries, probe_r);
  const auto oracle_s = OracleMatches<false>(wr, queries, probe_s);
  ASSERT_FALSE(oracle_r.empty());
  ASSERT_FALSE(oracle_s.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(ws, queries, probe_r), oracle_r)
        << ToString(level);
    EXPECT_EQ(CollectMatches<false>(wr, queries, probe_s), oracle_s)
        << ToString(level);
    // Emission order within each block: query, then probe, then entry.
    // The ring holds seqs 400..1099 at slots 400..1023 then 0..75 (capacity
    // 1024), so the sweep's blocks are 256-lane chunks of each segment.
    const auto block_of = [](Seq seq) {
      const Seq i = seq - 400;
      return i < 624 ? i / kSimdBlock : 100 + (i - 624) / kSimdBlock;
    };
    std::vector<Crossing> order;
    ws.MatchBatch<true>(queries, probe_r.data(), probe_r.size(),
                        [&](std::size_t j, QueryId q, const auto& entry) {
                          order.push_back({j, q, entry.tuple.seq});
                        });
    for (std::size_t i = 1; i < order.size(); ++i) {
      const auto [j0, q0, s0] = order[i - 1];
      const auto [j1, q1, s1] = order[i];
      if (block_of(s0) != block_of(s1)) continue;
      EXPECT_TRUE(std::tie(q0, j0, s0) < std::tie(q1, j1, s1))
          << ToString(level) << " emission " << i;
    }
  }
}

// The grouped equi store's batched probe (gather keys -> prefetch groups ->
// 8-lane group scans -> insertion-ordered emission) must reproduce the
// brute-force multimap store's crossings exactly on every dispatch level
// (the oracle has no kernels on its path). Churn leaves tombstoned lanes
// behind so the scan crosses dead groups.
TEST(SimdMatchBatch, GroupedHashStoreIdenticalAcrossLevelsAndMultimapOracle) {
  LevelGuard guard;
  Rng rng(113);
  HashStore<TS, test::TSKey, test::TRKey> grouped;
  test::MultimapStore<TS, test::TSKey, test::TRKey> multimap;
  std::vector<Seq> live;
  Seq seq = 0;
  for (int step = 0; step < 1200; ++step) {
    if (live.empty() || rng.Chance(0.6)) {
      const Stamped<TS> e{
          TS{static_cast<int32_t>(rng.UniformInt(1, 40)), step}, seq, 0, 0};
      grouped.Insert(e, rng.Chance(0.3));
      multimap.Insert(e, rng.Chance(0.3));
      live.push_back(seq++);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
      ASSERT_TRUE(grouped.EraseSeq(live[pick]));
      ASSERT_TRUE(multimap.EraseSeq(live[pick]));
      live[pick] = live.back();
      live.pop_back();
    }
  }
  ASSERT_EQ(grouped.size(), multimap.size());
  QuerySet<test::KeyEq> queries{test::KeyEq{}};
  std::vector<Stamped<TR>> probes;
  for (std::size_t j = 0; j < 25; ++j) {
    // Keys 41..44 are absent: the batch must also agree on zero-hit probes.
    probes.push_back(Stamped<TR>{
        TR{static_cast<int32_t>(rng.UniformInt(1, 44)), 0}, j, 0, 0});
  }
  const auto oracle = CollectMatches<true>(multimap, queries, probes);
  ASSERT_FALSE(oracle.empty());
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_EQ(CollectMatches<true>(grouped, queries, probes), oracle)
        << ToString(level);
  }
}

TEST(SimdMatchBatch, EmptyStoreAndEmptyProbesAreNoops) {
  LevelGuard guard;
  VectorStore<STuple> store;
  QuerySet<BandPredicate> queries{BandPredicate{}};
  std::vector<Stamped<RTuple>> none;
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    EXPECT_TRUE(CollectMatches<true>(store, queries, none).empty());
    store.Insert(Stamped<STuple>{STuple{}, 0, 0, 0}, false);
    EXPECT_TRUE(CollectMatches<true>(store, queries, none).empty());
    ASSERT_TRUE(store.EraseSeq(0));
  }
}

// The Seq lane drives the packed expiry search; erases through it must stay
// consistent with the entry ring on every level (including ring wrap).
TEST(SimdMatchBatch, SeqLaneEraseConsistentAcrossLevels) {
  LevelGuard guard;
  for (SimdLevel level : SupportedSimdLevels()) {
    OverrideSimdLevel(level);
    Rng rng(1000 + static_cast<uint64_t>(level));
    VectorStore<TR> store;
    std::vector<Seq> live;
    Seq next = 0;
    for (int op = 0; op < 3000; ++op) {
      if (live.empty() || rng.Chance(0.55)) {
        store.Insert(Stamped<TR>{TR{1, 0}, next, 0, 0}, false);
        live.push_back(next++);
      } else {
        // Mostly head, sometimes middle/tail: exercises the lane shifts.
        const std::size_t pick =
            rng.Chance(0.7) ? 0
                            : static_cast<std::size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(live.size()) - 1));
        ASSERT_TRUE(store.EraseSeq(live[pick]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      }
      ASSERT_EQ(store.size(), live.size());
      ASSERT_FALSE(store.EraseSeq(next + 7));  // absent
    }
    std::vector<Seq> got;
    store.ForEach(0, [&](const StoreEntry<TR>& e) {
      got.push_back(e.tuple.seq);
    });
    EXPECT_EQ(got, live) << ToString(level);
  }
}

}  // namespace
}  // namespace sjoin
