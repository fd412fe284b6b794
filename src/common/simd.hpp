// SIMD probe kernels for the window-scan hot path, with runtime dispatch.
//
// The inner loop of a window crossing is pure data-parallel compare work:
// test a block of stored entries' key lanes against the predicates of k
// probes x N queries and emit the matches. This header supplies that layer:
//
//  * Tile kernels — one kernel per predicate shape (equi, entry-side band,
//    probe-side band; see SimdPredShape) takes a block of up to 256 entry
//    lanes and up to 16 probes of ONE query. It loads each vector of key
//    lanes once, computes entry-side band bounds once per vector, and then
//    runs one compare chain per probe; each (probe, vector) yields one 8- or
//    16-bit match mask, written with a plain store into that probe's row of
//    the tile mask (bit i set iff lane i satisfies the whole predicate).
//    Emission walks the set bits row by row. A null float lane selects the
//    int-only variant of the same kernel. Every kernel performs *exactly*
//    the arithmetic of the scalar predicate (same int32 wraparound, same
//    IEEE single-precision rounding, ordered float compares, so NaN never
//    matches), so the vectorized result sets are bit-identical to the
//    scalar path: asserted by tests/test_simd_kernels.cpp and in-bench by
//    bench/ablation_simd_probe.cpp.
//
//  * Mask kernels — the Seq-lane equality sweep (out-of-order expiry
//    search) and the grouped equality kernels of the lane-grouped hash
//    store each sweep one contiguous lane and produce one match bitmask.
//
//  * Masked-tail contract — for n lanes a kernel writes ceil(n/64) words
//    per mask row (tiles: rows 0..k-1 only), the vector body covers whole
//    vectors, a scalar epilogue covers the tail, and every bit at position
//    >= n is ZERO. Callers may therefore iterate whole mask words without
//    re-checking n; rows >= k and words past ceil(n/64) are never touched.
//
//  * Runtime dispatch — the ladder AVX-512 -> AVX2 -> SSE2 -> scalar is
//    selected ONCE at startup from cpuid (non-x86 builds compile the scalar
//    table only). `SJOIN_SIMD_LEVEL=scalar|sse2|avx2|avx512` clamps to any
//    lower rung (`scalar` forces the fallback; CI proves it on every PR).
//    Tests and benches switch levels in-process via OverrideSimdLevel
//    (always clamped to what the host supports).
//
//  * Trait hooks — SimdEntryLanes<T> declares how a stored tuple type maps
//    onto the hot key lanes (k0: int32 band/equi key, k1: optional float
//    band key); SimdProbeTraits<Pred, Probe, Entry> declares which tile
//    shape a predicate takes for a given probe direction and how to read
//    its per-probe operands. Both default to disabled, which keeps
//    arbitrary user predicates on the generic scalar scan. The paper's
//    benchmark schema specializes them in common/schema.hpp; the test
//    schema in tests/test_util.hpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SJOIN_SIMD_X86 1
#include <immintrin.h>
#else
#define SJOIN_SIMD_X86 0
#endif

namespace sjoin {

// ---------------------------------------------------------------------------
// Dispatch levels
// ---------------------------------------------------------------------------

enum class SimdLevel : uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

constexpr const char* ToString(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "?";
}

/// Highest level this host can execute (queried once, cached). The AVX-512
/// rung requires both F (512-bit int compare-to-mask) and BW (byte/word
/// masks) — the baseline every AVX-512 server part ships.
inline SimdLevel DetectedSimdLevel() {
#if SJOIN_SIMD_X86
  static const SimdLevel detected = [] {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw")) {
      return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
    if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
    return SimdLevel::kScalar;
  }();
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

namespace simd_internal {

/// Startup level: detection clamped by SJOIN_SIMD_LEVEL. Read once.
/// Misspelled knob values must not silently select the wrong path: a CI leg
/// that *believes* it forced a rung has to actually run it, so anything
/// unrecognized warns on stderr and keeps the detected level.
inline SimdLevel EnvSimdLevel() {
  SimdLevel level = DetectedSimdLevel();
  const char* named = env::Raw("SJOIN_SIMD_LEVEL");
  if (named != nullptr && named[0] != '\0') {
    const std::string want(named);
    if (want == "scalar") {
      level = SimdLevel::kScalar;
    } else if (want == "sse2") {
      level = std::min(level, SimdLevel::kSse2);  // never above detection
    } else if (want == "avx2") {
      level = std::min(level, SimdLevel::kAvx2);
    } else if (want == "avx512") {
      level = std::min(level, SimdLevel::kAvx512);
    } else {
      const std::string keep = std::string("keeping ") + ToString(level);
      env::WarnUnrecognized("SJOIN_SIMD_LEVEL", named,
                            "use scalar|sse2|avx2|avx512", keep.c_str());
    }
  }
  return level;
}

/// In-process override used by tests/benches; -1 = none.
inline std::atomic<int>& OverrideSlot() {
  static std::atomic<int> slot{-1};
  return slot;
}

}  // namespace simd_internal

/// The level the dispatched kernel table follows. Selected once at startup
/// (cpuid clamped by SJOIN_SIMD_LEVEL), unless a test
/// or bench installed an override.
inline SimdLevel ActiveSimdLevel() {
  const int over = simd_internal::OverrideSlot().load(std::memory_order_relaxed);
  if (over >= 0) return static_cast<SimdLevel>(over);
  static const SimdLevel startup = simd_internal::EnvSimdLevel();
  return startup;
}

/// Installs an in-process dispatch override (clamped to the detected
/// ceiling — asking for AVX2 on an SSE2-only host yields SSE2). Returns the
/// level actually installed. Test/bench hook; production code never calls
/// this.
inline SimdLevel OverrideSimdLevel(SimdLevel level) {
  if (level > DetectedSimdLevel()) level = DetectedSimdLevel();
  simd_internal::OverrideSlot().store(static_cast<int>(level),
                                      std::memory_order_relaxed);
  return level;
}

/// Removes the override; ActiveSimdLevel reverts to the startup selection.
inline void ClearSimdLevelOverride() {
  simd_internal::OverrideSlot().store(-1, std::memory_order_relaxed);
}

/// The levels this host can execute, lowest first (always includes
/// kScalar). Tests and benches sweep this to prove every rung.
inline std::vector<SimdLevel> SupportedSimdLevels() {
  std::vector<SimdLevel> levels{SimdLevel::kScalar};
  if (DetectedSimdLevel() >= SimdLevel::kSse2) {
    levels.push_back(SimdLevel::kSse2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  if (DetectedSimdLevel() >= SimdLevel::kAvx512) {
    levels.push_back(SimdLevel::kAvx512);
  }
  return levels;
}

// ---------------------------------------------------------------------------
// Mask helpers + block geometry
// ---------------------------------------------------------------------------

/// Mask words covering n lanes.
constexpr std::size_t SimdMaskWords(std::size_t n) { return (n + 63) / 64; }

inline void ZeroMask(uint64_t* mask, std::size_t n) {
  std::memset(mask, 0, SimdMaskWords(n) * sizeof(uint64_t));
}

/// Calls f(i) for every set bit i of a mask covering n lanes (bits >= n are
/// zero by the kernel contract, so whole words are consumed).
template <typename F>
inline void ForEachSetBit(const uint64_t* mask, std::size_t n, F&& f) {
  for (std::size_t w = 0; w < SimdMaskWords(n); ++w) {
    uint64_t word = mask[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(__builtin_ctzll(word));
      f(w * 64 + bit);
      word &= word - 1;
    }
  }
}

/// Entries are probed in blocks of this many lanes: small enough that one
/// block of both key lanes (256 * 8 bytes = 2 KB) stays L1-resident across
/// the k probes x N queries sweeping it, large enough to amortize kernel
/// call overhead and mask iteration.
inline constexpr std::size_t kSimdBlock = 256;
inline constexpr std::size_t kSimdBlockWords = kSimdBlock / 64;

/// Probes per tile call: one vector of key lanes is tested against this
/// many probes while it sits in registers.
inline constexpr std::size_t kTileProbes = 16;

/// One contiguous block of entry key lanes. A null k1 selects the int-only
/// variant of a tile kernel (the entry type has no float lane, or the
/// predicate declares no float term).
struct SimdLaneBlock {
  const int32_t* k0 = nullptr;
  const float* k1 = nullptr;
};

/// The tile mask: row j holds probe j's match bits over one block (bit i
/// <=> lane i matches). 16 x 256 bits = 512 B, kept on the caller's stack.
struct SimdMatchScratch {
  uint64_t mask[kTileProbes][kSimdBlockWords];
};

// ---------------------------------------------------------------------------
// Kernels — scalar reference implementations
//
// These are the semantic definition of every kernel: the SSE2/AVX2/AVX-512
// variants must produce bit-identical masks (tests/test_simd_kernels.cpp
// pins this). They are also the dispatched implementation at
// SimdLevel::kScalar, and the vector tile kernels run their tails through
// the same scalar spans.
// ---------------------------------------------------------------------------

namespace simd_kernels {

/// v - band / v + band with two's-complement wraparound: scalar bodies and
/// tail epilogues must match the vector _mm*_sub/add_epi32 semantics
/// exactly (and signed int32 overflow would be UB).
inline int32_t WrapSub(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) -
                              static_cast<uint32_t>(b));
}
inline int32_t WrapAdd(int32_t a, int32_t b) {
  return static_cast<int32_t>(static_cast<uint32_t>(a) +
                              static_cast<uint32_t>(b));
}

// -- Tile spans: lanes [from, to) of a block, bits ORed into zeroed rows -----

/// kEqui: bit i of row j <=> k0[i] == key[j]. Probe-outer, so each
/// probe's key stays in a register across its lane sweep (one load and one
/// rarely taken branch per lane).
inline void EquiTileSpan(const SimdLaneBlock& lanes, std::size_t from,
                         std::size_t to, const int32_t* key, std::size_t k,
                         SimdMatchScratch* out) {
  for (std::size_t j = 0; j < k; ++j) {
    const int32_t probe = key[j];
    for (std::size_t i = from; i < to; ++i) {
      if (lanes.k0[i] == probe) out->mask[j][i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

/// kBandEntry: bit i of row j <=> k0[i]-band0 <= p0[j] <= k0[i]+band0 and
/// (with a float lane) k1[i]-band1 <= p1[j] <= k1[i]+band1. The bounds are
/// computed per ENTRY, once per lane for all k probes.
template <bool kF32>
inline void BandEntryTileSpan(const SimdLaneBlock& lanes, std::size_t from,
                              std::size_t to, int32_t band0, float band1,
                              const int32_t* p0, const float* p1,
                              std::size_t k, SimdMatchScratch* out) {
  for (std::size_t i = from; i < to; ++i) {
    const int32_t lo0 = WrapSub(lanes.k0[i], band0);
    const int32_t hi0 = WrapAdd(lanes.k0[i], band0);
    float lo1 = 0.0f;
    float hi1 = 0.0f;
    if constexpr (kF32) {
      lo1 = lanes.k1[i] - band1;
      hi1 = lanes.k1[i] + band1;
    }
    const uint64_t bit = uint64_t{1} << (i & 63);
    for (std::size_t j = 0; j < k; ++j) {
      bool ok = p0[j] >= lo0 && p0[j] <= hi0;
      if constexpr (kF32) ok = ok && p1[j] >= lo1 && p1[j] <= hi1;
      if (ok) out->mask[j][i >> 6] |= bit;
    }
  }
}

/// kBandProbe: bit i of row j <=> lo0[j] <= k0[i] <= hi0[j] and (with a
/// float lane) lo1[j] <= k1[i] <= hi1[j]. The bounds were computed per
/// PROBE by the caller.
template <bool kF32>
inline void BandProbeTileSpan(const SimdLaneBlock& lanes, std::size_t from,
                              std::size_t to, const int32_t* lo0,
                              const int32_t* hi0, const float* lo1,
                              const float* hi1, std::size_t k,
                              SimdMatchScratch* out) {
  for (std::size_t i = from; i < to; ++i) {
    const uint64_t bit = uint64_t{1} << (i & 63);
    for (std::size_t j = 0; j < k; ++j) {
      bool ok = lanes.k0[i] >= lo0[j] && lanes.k0[i] <= hi0[j];
      if constexpr (kF32) {
        ok = ok && lanes.k1[i] >= lo1[j] && lanes.k1[i] <= hi1[j];
      }
      if (ok) out->mask[j][i >> 6] |= bit;
    }
  }
}

/// Zeroes mask words [first_word, ceil(n/64)) of rows 0..k-1: the words the
/// vector body does not overwrite whole before the tail span ORs into them.
inline void ClearTileWords(SimdMatchScratch* out, std::size_t k,
                           std::size_t first_word, std::size_t n) {
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t w = first_word; w < SimdMaskWords(n); ++w) {
      out->mask[j][w] = 0;
    }
  }
}

inline void EquiTileScalar(const SimdLaneBlock& lanes, std::size_t n,
                           const int32_t* key, std::size_t k,
                           SimdMatchScratch* out) {
  ClearTileWords(out, k, 0, n);
  EquiTileSpan(lanes, 0, n, key, k, out);
}

inline void BandEntryTileScalar(const SimdLaneBlock& lanes, std::size_t n,
                                int32_t band0, float band1, const int32_t* p0,
                                const float* p1, std::size_t k,
                                SimdMatchScratch* out) {
  ClearTileWords(out, k, 0, n);
  if (lanes.k1 != nullptr) {
    BandEntryTileSpan<true>(lanes, 0, n, band0, band1, p0, p1, k, out);
  } else {
    BandEntryTileSpan<false>(lanes, 0, n, band0, band1, p0, p1, k, out);
  }
}

inline void BandProbeTileScalar(const SimdLaneBlock& lanes, std::size_t n,
                                const int32_t* lo0, const int32_t* hi0,
                                const float* lo1, const float* hi1,
                                std::size_t k, SimdMatchScratch* out) {
  ClearTileWords(out, k, 0, n);
  if (lanes.k1 != nullptr) {
    BandProbeTileSpan<true>(lanes, 0, n, lo0, hi0, lo1, hi1, k, out);
  } else {
    BandProbeTileSpan<false>(lanes, 0, n, lo0, hi0, lo1, hi1, k, out);
  }
}

// -- Single-lane mask kernels ------------------------------------------------

/// bit i <=> v[i] == key  (sequence-number sweep of the Seq lane).
inline void EqMaskU64Scalar(const uint64_t* v, std::size_t n, uint64_t key,
                            uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

// -- Grouped equality (lane-grouped hash store probe) ------------------------
//
// The grouped hash store (llhj/group_table.hpp) keeps keys in groups of 8
// contiguous lanes with one occupancy byte per group: bit b of full[g] is
// set iff lane 8*g+b holds a live key (empty and tombstoned lanes are
// clear). These kernels sweep such a lane array and set mask bit i iff
// keys[i] == key AND lane i is live — one packed compare plus one byte AND
// per group. Same masked-tail contract as every other kernel: bits >= n are
// zero and dead-lane key bytes never influence the result (they may hold
// stale values). SSE2 is the widest rung here: the AVX2 and AVX-512 tables
// reuse the SSE2 bodies, because wider group compares measured no faster
// on the probe path (DESIGN.md Section 5).

inline constexpr std::size_t kGroupLanes = 8;

/// bit i <=> keys[i] == key && full[i/8] has bit i%8 set  (int64 keys).
inline void EqGroupsI64Scalar(const int64_t* keys, const uint8_t* full,
                              std::size_t n, int64_t key, uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == key && ((full[i >> 3] >> (i & 7)) & 1u) != 0) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

/// bit i <=> keys[i] == key && full[i/8] has bit i%8 set  (int32 keys).
inline void EqGroupsI32Scalar(const int32_t* keys, const uint8_t* full,
                              std::size_t n, int32_t key, uint64_t* mask) {
  ZeroMask(mask, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (keys[i] == key && ((full[i >> 3] >> (i & 7)) & 1u) != 0) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

#if SJOIN_SIMD_X86

// The vector tile kernels store each (probe, vector) mask as 8 or 16 bits
// at byte offset i/8 of the probe's row; x86 is little-endian, so byte b of
// a row's word array holds lanes 8b..8b+7 in bit order.
inline void StoreTileBits8(SimdMatchScratch* out, std::size_t j,
                           std::size_t i, uint32_t bits) {
  reinterpret_cast<unsigned char*>(out->mask[j])[i / 8] =
      static_cast<unsigned char>(bits);
}

inline void StoreTileBits16(SimdMatchScratch* out, std::size_t j,
                            std::size_t i, uint32_t bits) {
  const uint16_t half = static_cast<uint16_t>(bits);
  std::memcpy(reinterpret_cast<unsigned char*>(out->mask[j]) + i / 8, &half,
              sizeof(half));
}

// -- SSE2 (4-wide; two vectors per 8-bit mask) -------------------------------
//
// The target attribute lets these bodies use intrinsics without compiling
// the whole translation unit for the extension; the dispatcher only hands
// out a table after cpuid confirmed support.

__attribute__((target("sse2"))) inline void EquiTileSse2(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* key,
    std::size_t k, SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{7};
  ClearTileWords(out, k, m / 64, n);
  for (std::size_t i = 0; i < m; i += 8) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.k0 + i));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.k0 + i + 4));
    for (std::size_t j = 0; j < k; ++j) {
      const __m128i p = _mm_set1_epi32(key[j]);
      const uint32_t bits =
          static_cast<uint32_t>(
              _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(a, p)))) |
          static_cast<uint32_t>(
              _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(b, p))))
              << 4;
      StoreTileBits8(out, j, i, bits);
    }
  }
  EquiTileSpan(lanes, m, n, key, k, out);
}

template <bool kF32>
__attribute__((target("sse2"))) inline void BandEntryTileSse2T(
    const SimdLaneBlock& lanes, std::size_t n, int32_t band0, float band1,
    const int32_t* p0, const float* p1, std::size_t k,
    SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{7};
  ClearTileWords(out, k, m / 64, n);
  const __m128i vb0 = _mm_set1_epi32(band0);
  const __m128 vb1 = _mm_set1_ps(band1);
  for (std::size_t i = 0; i < m; i += 8) {
    const __m128i xa =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.k0 + i));
    const __m128i xb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.k0 + i + 4));
    const __m128i lo0a = _mm_sub_epi32(xa, vb0);
    const __m128i hi0a = _mm_add_epi32(xa, vb0);
    const __m128i lo0b = _mm_sub_epi32(xb, vb0);
    const __m128i hi0b = _mm_add_epi32(xb, vb0);
    __m128 lo1a = vb1, hi1a = vb1, lo1b = vb1, hi1b = vb1;
    if constexpr (kF32) {
      const __m128 ya = _mm_loadu_ps(lanes.k1 + i);
      const __m128 yb = _mm_loadu_ps(lanes.k1 + i + 4);
      lo1a = _mm_sub_ps(ya, vb1);
      hi1a = _mm_add_ps(ya, vb1);
      lo1b = _mm_sub_ps(yb, vb1);
      hi1b = _mm_add_ps(yb, vb1);
    }
    for (std::size_t j = 0; j < k; ++j) {
      const __m128i p = _mm_set1_epi32(p0[j]);
      __m128 oka = _mm_castsi128_ps(_mm_or_si128(_mm_cmpgt_epi32(lo0a, p),
                                                 _mm_cmpgt_epi32(p, hi0a)));
      __m128 okb = _mm_castsi128_ps(_mm_or_si128(_mm_cmpgt_epi32(lo0b, p),
                                                 _mm_cmpgt_epi32(p, hi0b)));
      uint32_t bits;
      if constexpr (kF32) {
        // oka/okb hold the int term's FAILURES: andnot keeps the lanes
        // that pass both terms.
        const __m128 q = _mm_set1_ps(p1[j]);
        oka = _mm_andnot_ps(oka, _mm_and_ps(_mm_cmpge_ps(q, lo1a),
                                            _mm_cmple_ps(q, hi1a)));
        okb = _mm_andnot_ps(okb, _mm_and_ps(_mm_cmpge_ps(q, lo1b),
                                            _mm_cmple_ps(q, hi1b)));
        bits = static_cast<uint32_t>(_mm_movemask_ps(oka)) |
               static_cast<uint32_t>(_mm_movemask_ps(okb)) << 4;
      } else {
        bits = (static_cast<uint32_t>(_mm_movemask_ps(oka)) |
                static_cast<uint32_t>(_mm_movemask_ps(okb)) << 4) ^
               0xffu;
      }
      StoreTileBits8(out, j, i, bits);
    }
  }
  BandEntryTileSpan<kF32>(lanes, m, n, band0, band1, p0, p1, k, out);
}

__attribute__((target("sse2"))) inline void BandEntryTileSse2(
    const SimdLaneBlock& lanes, std::size_t n, int32_t band0, float band1,
    const int32_t* p0, const float* p1, std::size_t k,
    SimdMatchScratch* out) {
  if (lanes.k1 != nullptr) {
    BandEntryTileSse2T<true>(lanes, n, band0, band1, p0, p1, k, out);
  } else {
    BandEntryTileSse2T<false>(lanes, n, band0, band1, p0, p1, k, out);
  }
}

template <bool kF32>
__attribute__((target("sse2"))) inline void BandProbeTileSse2T(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* lo0,
    const int32_t* hi0, const float* lo1, const float* hi1, std::size_t k,
    SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{7};
  ClearTileWords(out, k, m / 64, n);
  for (std::size_t i = 0; i < m; i += 8) {
    const __m128i xa =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.k0 + i));
    const __m128i xb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lanes.k0 + i + 4));
    __m128 ya = _mm_setzero_ps(), yb = _mm_setzero_ps();
    if constexpr (kF32) {
      ya = _mm_loadu_ps(lanes.k1 + i);
      yb = _mm_loadu_ps(lanes.k1 + i + 4);
    }
    for (std::size_t j = 0; j < k; ++j) {
      const __m128i vlo = _mm_set1_epi32(lo0[j]);
      const __m128i vhi = _mm_set1_epi32(hi0[j]);
      __m128 bada = _mm_castsi128_ps(_mm_or_si128(_mm_cmpgt_epi32(vlo, xa),
                                                  _mm_cmpgt_epi32(xa, vhi)));
      __m128 badb = _mm_castsi128_ps(_mm_or_si128(_mm_cmpgt_epi32(vlo, xb),
                                                  _mm_cmpgt_epi32(xb, vhi)));
      uint32_t bits;
      if constexpr (kF32) {
        const __m128 flo = _mm_set1_ps(lo1[j]);
        const __m128 fhi = _mm_set1_ps(hi1[j]);
        bada = _mm_andnot_ps(bada, _mm_and_ps(_mm_cmpge_ps(ya, flo),
                                              _mm_cmple_ps(ya, fhi)));
        badb = _mm_andnot_ps(badb, _mm_and_ps(_mm_cmpge_ps(yb, flo),
                                              _mm_cmple_ps(yb, fhi)));
        bits = static_cast<uint32_t>(_mm_movemask_ps(bada)) |
               static_cast<uint32_t>(_mm_movemask_ps(badb)) << 4;
      } else {
        bits = (static_cast<uint32_t>(_mm_movemask_ps(bada)) |
                static_cast<uint32_t>(_mm_movemask_ps(badb)) << 4) ^
               0xffu;
      }
      StoreTileBits8(out, j, i, bits);
    }
  }
  BandProbeTileSpan<kF32>(lanes, m, n, lo0, hi0, lo1, hi1, k, out);
}

__attribute__((target("sse2"))) inline void BandProbeTileSse2(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* lo0,
    const int32_t* hi0, const float* lo1, const float* hi1, std::size_t k,
    SimdMatchScratch* out) {
  if (lanes.k1 != nullptr) {
    BandProbeTileSse2T<true>(lanes, n, lo0, hi0, lo1, hi1, k, out);
  } else {
    BandProbeTileSse2T<false>(lanes, n, lo0, hi0, lo1, hi1, k, out);
  }
}

__attribute__((target("sse2"))) inline void EqMaskU64Sse2(const uint64_t* v,
                                                          std::size_t n,
                                                          uint64_t key,
                                                          uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128i vkey =
      _mm_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i x =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i));
    // SSE2 has no 64-bit compare: compare the 32-bit halves and AND each
    // half with its sibling so a 64-bit lane is all-ones iff both match.
    const __m128i eq32 = _mm_cmpeq_epi32(x, vkey);
    const __m128i eq64 = _mm_and_si128(
        eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
    const uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(eq64)));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("sse2"))) inline void EqGroupsI64Sse2(
    const int64_t* keys, const uint8_t* full, std::size_t n, int64_t key,
    uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128i vkey = _mm_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  // Whole groups: i stays 8-aligned, so the 8 result bits never straddle a
  // mask word. Four 2-lane compares per group (64-bit eq via the 32-bit
  // half-compare trick, as in EqMaskU64Sse2).
  for (; i + kGroupLanes <= n; i += kGroupLanes) {
    uint32_t bits = 0;
    for (std::size_t q = 0; q < 4; ++q) {
      const __m128i x = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(keys + i + 2 * q));
      const __m128i eq32 = _mm_cmpeq_epi32(x, vkey);
      const __m128i eq64 = _mm_and_si128(
          eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
      bits |= static_cast<uint32_t>(_mm_movemask_pd(_mm_castsi128_pd(eq64)))
              << (2 * q);
    }
    bits &= full[i >> 3];
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (keys[i] == key && ((full[i >> 3] >> (i & 7)) & 1u) != 0) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

__attribute__((target("sse2"))) inline void EqGroupsI32Sse2(
    const int32_t* keys, const uint8_t* full, std::size_t n, int32_t key,
    uint64_t* mask) {
  ZeroMask(mask, n);
  const __m128i vkey = _mm_set1_epi32(key);
  std::size_t i = 0;
  for (; i + kGroupLanes <= n; i += kGroupLanes) {
    const __m128i lo = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(keys + i));
    const __m128i hi = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(keys + i + 4));
    uint32_t bits =
        static_cast<uint32_t>(
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(lo, vkey)))) |
        (static_cast<uint32_t>(_mm_movemask_ps(
             _mm_castsi128_ps(_mm_cmpeq_epi32(hi, vkey))))
         << 4);
    bits &= full[i >> 3];
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (keys[i] == key && ((full[i >> 3] >> (i & 7)) & 1u) != 0) {
      mask[i >> 6] |= uint64_t{1} << (i & 63);
    }
  }
}

// -- AVX2 (8-wide; one vector per 8-bit mask) --------------------------------

__attribute__((target("avx2"))) inline void EquiTileAvx2(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* key,
    std::size_t k, SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{7};
  ClearTileWords(out, k, m / 64, n);
  for (std::size_t i = 0; i < m; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes.k0 + i));
    for (std::size_t j = 0; j < k; ++j) {
      const __m256i eq = _mm256_cmpeq_epi32(x, _mm256_set1_epi32(key[j]));
      StoreTileBits8(out, j, i,
                     static_cast<uint32_t>(
                         _mm256_movemask_ps(_mm256_castsi256_ps(eq))));
    }
  }
  EquiTileSpan(lanes, m, n, key, k, out);
}

template <bool kF32>
__attribute__((target("avx2"))) inline void BandEntryTileAvx2T(
    const SimdLaneBlock& lanes, std::size_t n, int32_t band0, float band1,
    const int32_t* p0, const float* p1, std::size_t k,
    SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{7};
  ClearTileWords(out, k, m / 64, n);
  const __m256i vb0 = _mm256_set1_epi32(band0);
  const __m256 vb1 = _mm256_set1_ps(band1);
  for (std::size_t i = 0; i < m; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes.k0 + i));
    const __m256i lo0 = _mm256_sub_epi32(x, vb0);
    const __m256i hi0 = _mm256_add_epi32(x, vb0);
    __m256 lo1 = vb1, hi1 = vb1;
    if constexpr (kF32) {
      const __m256 y = _mm256_loadu_ps(lanes.k1 + i);
      lo1 = _mm256_sub_ps(y, vb1);
      hi1 = _mm256_add_ps(y, vb1);
    }
    for (std::size_t j = 0; j < k; ++j) {
      const __m256i p = _mm256_set1_epi32(p0[j]);
      const __m256 bad = _mm256_castsi256_ps(_mm256_or_si256(
          _mm256_cmpgt_epi32(lo0, p), _mm256_cmpgt_epi32(p, hi0)));
      uint32_t bits;
      if constexpr (kF32) {
        const __m256 q = _mm256_set1_ps(p1[j]);
        const __m256 ok = _mm256_and_ps(_mm256_cmp_ps(q, lo1, _CMP_GE_OQ),
                                        _mm256_cmp_ps(q, hi1, _CMP_LE_OQ));
        bits = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_andnot_ps(bad, ok)));
      } else {
        bits = static_cast<uint32_t>(_mm256_movemask_ps(bad)) ^ 0xffu;
      }
      StoreTileBits8(out, j, i, bits);
    }
  }
  BandEntryTileSpan<kF32>(lanes, m, n, band0, band1, p0, p1, k, out);
}

__attribute__((target("avx2"))) inline void BandEntryTileAvx2(
    const SimdLaneBlock& lanes, std::size_t n, int32_t band0, float band1,
    const int32_t* p0, const float* p1, std::size_t k,
    SimdMatchScratch* out) {
  if (lanes.k1 != nullptr) {
    BandEntryTileAvx2T<true>(lanes, n, band0, band1, p0, p1, k, out);
  } else {
    BandEntryTileAvx2T<false>(lanes, n, band0, band1, p0, p1, k, out);
  }
}

template <bool kF32>
__attribute__((target("avx2"))) inline void BandProbeTileAvx2T(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* lo0,
    const int32_t* hi0, const float* lo1, const float* hi1, std::size_t k,
    SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{7};
  ClearTileWords(out, k, m / 64, n);
  for (std::size_t i = 0; i < m; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes.k0 + i));
    __m256 y = _mm256_setzero_ps();
    if constexpr (kF32) y = _mm256_loadu_ps(lanes.k1 + i);
    for (std::size_t j = 0; j < k; ++j) {
      const __m256 bad = _mm256_castsi256_ps(
          _mm256_or_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(lo0[j]), x),
                          _mm256_cmpgt_epi32(x, _mm256_set1_epi32(hi0[j]))));
      uint32_t bits;
      if constexpr (kF32) {
        const __m256 ok = _mm256_and_ps(
            _mm256_cmp_ps(y, _mm256_set1_ps(lo1[j]), _CMP_GE_OQ),
            _mm256_cmp_ps(y, _mm256_set1_ps(hi1[j]), _CMP_LE_OQ));
        bits = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_andnot_ps(bad, ok)));
      } else {
        bits = static_cast<uint32_t>(_mm256_movemask_ps(bad)) ^ 0xffu;
      }
      StoreTileBits8(out, j, i, bits);
    }
  }
  BandProbeTileSpan<kF32>(lanes, m, n, lo0, hi0, lo1, hi1, k, out);
}

__attribute__((target("avx2"))) inline void BandProbeTileAvx2(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* lo0,
    const int32_t* hi0, const float* lo1, const float* hi1, std::size_t k,
    SimdMatchScratch* out) {
  if (lanes.k1 != nullptr) {
    BandProbeTileAvx2T<true>(lanes, n, lo0, hi0, lo1, hi1, k, out);
  } else {
    BandProbeTileAvx2T<false>(lanes, n, lo0, hi0, lo1, hi1, k, out);
  }
}

__attribute__((target("avx2"))) inline void EqMaskU64Avx2(const uint64_t* v,
                                                          std::size_t n,
                                                          uint64_t key,
                                                          uint64_t* mask) {
  ZeroMask(mask, n);
  const __m256i vkey =
      _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i eq = _mm256_cmpeq_epi64(x, vkey);
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(eq)));
    mask[i >> 6] |= static_cast<uint64_t>(bits) << (i & 63);
  }
  for (; i < n; ++i) {
    if (v[i] == key) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

// -- AVX-512 (16-wide, native mask registers) --------------------------------
//
// Every term is a compare-to-mask; the second and later terms of a
// predicate chain through the masked compare forms, so a (probe, vector)
// costs one compare per bound and its mask lands in a k-register with no
// movemask or AND. The int and float terms both run 16 lanes wide. The u64
// Seq sweep stays on its AVX2 body (same table entry): it serves only the
// rare out-of-order expiry search.

__attribute__((target("avx512f"))) inline void EquiTileAvx512(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* key,
    std::size_t k, SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{15};
  ClearTileWords(out, k, m / 64, n);
  for (std::size_t i = 0; i < m; i += 16) {
    const __m512i x = _mm512_loadu_si512(lanes.k0 + i);
    for (std::size_t j = 0; j < k; ++j) {
      StoreTileBits16(out, j, i,
                      _mm512_cmpeq_epi32_mask(x, _mm512_set1_epi32(key[j])));
    }
  }
  EquiTileSpan(lanes, m, n, key, k, out);
}

template <bool kF32>
__attribute__((target("avx512f"))) inline void BandEntryTileAvx512T(
    const SimdLaneBlock& lanes, std::size_t n, int32_t band0, float band1,
    const int32_t* p0, const float* p1, std::size_t k,
    SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{15};
  ClearTileWords(out, k, m / 64, n);
  const __m512i vb0 = _mm512_set1_epi32(band0);
  const __m512 vb1 = _mm512_set1_ps(band1);
  for (std::size_t i = 0; i < m; i += 16) {
    const __m512i x = _mm512_loadu_si512(lanes.k0 + i);
    const __m512i lo0 = _mm512_sub_epi32(x, vb0);
    const __m512i hi0 = _mm512_add_epi32(x, vb0);
    __m512 lo1 = vb1, hi1 = vb1;
    if constexpr (kF32) {
      const __m512 y = _mm512_loadu_ps(lanes.k1 + i);
      lo1 = _mm512_sub_ps(y, vb1);
      hi1 = _mm512_add_ps(y, vb1);
    }
    for (std::size_t j = 0; j < k; ++j) {
      const __m512i p = _mm512_set1_epi32(p0[j]);
      __mmask16 ok = _mm512_cmp_epi32_mask(p, lo0, _MM_CMPINT_NLT);
      ok = _mm512_mask_cmp_epi32_mask(ok, p, hi0, _MM_CMPINT_LE);
      if constexpr (kF32) {
        const __m512 q = _mm512_set1_ps(p1[j]);
        ok = _mm512_mask_cmp_ps_mask(ok, q, lo1, _CMP_GE_OQ);
        ok = _mm512_mask_cmp_ps_mask(ok, q, hi1, _CMP_LE_OQ);
      }
      StoreTileBits16(out, j, i, ok);
    }
  }
  BandEntryTileSpan<kF32>(lanes, m, n, band0, band1, p0, p1, k, out);
}

__attribute__((target("avx512f"))) inline void BandEntryTileAvx512(
    const SimdLaneBlock& lanes, std::size_t n, int32_t band0, float band1,
    const int32_t* p0, const float* p1, std::size_t k,
    SimdMatchScratch* out) {
  if (lanes.k1 != nullptr) {
    BandEntryTileAvx512T<true>(lanes, n, band0, band1, p0, p1, k, out);
  } else {
    BandEntryTileAvx512T<false>(lanes, n, band0, band1, p0, p1, k, out);
  }
}

template <bool kF32>
__attribute__((target("avx512f"))) inline void BandProbeTileAvx512T(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* lo0,
    const int32_t* hi0, const float* lo1, const float* hi1, std::size_t k,
    SimdMatchScratch* out) {
  const std::size_t m = n & ~std::size_t{15};
  ClearTileWords(out, k, m / 64, n);
  for (std::size_t i = 0; i < m; i += 16) {
    const __m512i x = _mm512_loadu_si512(lanes.k0 + i);
    __m512 y = _mm512_setzero_ps();
    if constexpr (kF32) y = _mm512_loadu_ps(lanes.k1 + i);
    for (std::size_t j = 0; j < k; ++j) {
      __mmask16 ok = _mm512_cmp_epi32_mask(x, _mm512_set1_epi32(lo0[j]),
                                           _MM_CMPINT_NLT);
      ok = _mm512_mask_cmp_epi32_mask(ok, x, _mm512_set1_epi32(hi0[j]),
                                      _MM_CMPINT_LE);
      if constexpr (kF32) {
        ok = _mm512_mask_cmp_ps_mask(ok, y, _mm512_set1_ps(lo1[j]),
                                     _CMP_GE_OQ);
        ok = _mm512_mask_cmp_ps_mask(ok, y, _mm512_set1_ps(hi1[j]),
                                     _CMP_LE_OQ);
      }
      StoreTileBits16(out, j, i, ok);
    }
  }
  BandProbeTileSpan<kF32>(lanes, m, n, lo0, hi0, lo1, hi1, k, out);
}

__attribute__((target("avx512f"))) inline void BandProbeTileAvx512(
    const SimdLaneBlock& lanes, std::size_t n, const int32_t* lo0,
    const int32_t* hi0, const float* lo1, const float* hi1, std::size_t k,
    SimdMatchScratch* out) {
  if (lanes.k1 != nullptr) {
    BandProbeTileAvx512T<true>(lanes, n, lo0, hi0, lo1, hi1, k, out);
  } else {
    BandProbeTileAvx512T<false>(lanes, n, lo0, hi0, lo1, hi1, k, out);
  }
}

#endif  // SJOIN_SIMD_X86

}  // namespace simd_kernels

/// Lanes per occupancy group of the grouped hash store (one occupancy byte
/// covers one group; see the grouped-equality kernels above).
using simd_kernels::kGroupLanes;

// ---------------------------------------------------------------------------
// Dispatch table
// ---------------------------------------------------------------------------

/// One kernel table per dispatch level; all entries obey the masked-tail
/// contract (bits >= n zero) and compute exactly the scalar arithmetic.
/// Tile kernels take n <= kSimdBlock lanes and k <= kTileProbes probes of
/// one query; lanes.k1 == nullptr selects the int-only variant (the float
/// operand arrays are then not read and may be null).
struct SimdKernels {
  const char* name;
  void (*equi_tile)(const SimdLaneBlock& lanes, std::size_t n,
                    const int32_t* key, std::size_t k, SimdMatchScratch* out);
  void (*band_entry_tile)(const SimdLaneBlock& lanes, std::size_t n,
                          int32_t band0, float band1, const int32_t* p0,
                          const float* p1, std::size_t k,
                          SimdMatchScratch* out);
  void (*band_probe_tile)(const SimdLaneBlock& lanes, std::size_t n,
                          const int32_t* lo0, const int32_t* hi0,
                          const float* lo1, const float* hi1, std::size_t k,
                          SimdMatchScratch* out);
  void (*eq_u64)(const uint64_t* v, std::size_t n, uint64_t key,
                 uint64_t* mask);
  void (*eq_groups_i64)(const int64_t* keys, const uint8_t* full,
                        std::size_t n, int64_t key, uint64_t* mask);
  void (*eq_groups_i32)(const int32_t* keys, const uint8_t* full,
                        std::size_t n, int32_t key, uint64_t* mask);
};

/// Kernel table for an explicit level (tests sweep all of them). Levels the
/// build does not provide (non-x86) fall back to the scalar table.
inline const SimdKernels& KernelsFor(SimdLevel level) {
  static const SimdKernels scalar = {
      "scalar",
      &simd_kernels::EquiTileScalar,
      &simd_kernels::BandEntryTileScalar,
      &simd_kernels::BandProbeTileScalar,
      &simd_kernels::EqMaskU64Scalar,
      &simd_kernels::EqGroupsI64Scalar,
      &simd_kernels::EqGroupsI32Scalar,
  };
#if SJOIN_SIMD_X86
  static const SimdKernels sse2 = {
      "sse2",
      &simd_kernels::EquiTileSse2,
      &simd_kernels::BandEntryTileSse2,
      &simd_kernels::BandProbeTileSse2,
      &simd_kernels::EqMaskU64Sse2,
      &simd_kernels::EqGroupsI64Sse2,
      &simd_kernels::EqGroupsI32Sse2,
  };
  // Every rung above SSE2 reuses the SSE2 grouped-equality kernels (see
  // the grouped-equality section note).
  static const SimdKernels avx2 = {
      "avx2",
      &simd_kernels::EquiTileAvx2,
      &simd_kernels::BandEntryTileAvx2,
      &simd_kernels::BandProbeTileAvx2,
      &simd_kernels::EqMaskU64Avx2,
      &simd_kernels::EqGroupsI64Sse2,
      &simd_kernels::EqGroupsI32Sse2,
  };
  // The u64 Seq sweep reuses its AVX2 body (see the AVX-512 section note).
  static const SimdKernels avx512 = {
      "avx512",
      &simd_kernels::EquiTileAvx512,
      &simd_kernels::BandEntryTileAvx512,
      &simd_kernels::BandProbeTileAvx512,
      &simd_kernels::EqMaskU64Avx2,
      &simd_kernels::EqGroupsI64Sse2,
      &simd_kernels::EqGroupsI32Sse2,
  };
  switch (level) {
    case SimdLevel::kScalar:
      return scalar;
    case SimdLevel::kSse2:
      return sse2;
    case SimdLevel::kAvx2:
      return avx2;
    case SimdLevel::kAvx512:
      return avx512;
  }
#else
  (void)level;
#endif
  return scalar;
}

/// The dispatched table for the active level.
inline const SimdKernels& ActiveKernels() {
  return KernelsFor(ActiveSimdLevel());
}

// ---------------------------------------------------------------------------
// Trait hooks
// ---------------------------------------------------------------------------

/// Declares how a stored tuple type maps onto the hot key lanes kept in
/// structure-of-arrays form next to the entry ring:
///
///   static constexpr bool kEnabled = true;
///   static constexpr bool kHasF32  = ...;         // is there a float lane?
///   static int32_t K0(const T&);                  // band/equi int key
///   static float   K1(const T&);                  // float band key (if any)
///
/// Disabled by default: types without a specialization skip lane
/// maintenance entirely and scan through the generic scalar path.
template <typename T>
struct SimdEntryLanes {
  static constexpr bool kEnabled = false;
};

/// Which tile kernel a predicate takes for one probe direction, and how to
/// read its operands. Keyed on (Pred, Probe tuple, Entry tuple): both
/// directions of a join get their own specialization because the band
/// arithmetic must stay on the side where the scalar predicate computes it
/// (bit-identical results):
///
///   kShape = kEqui:      equi_tile, key[j] = Key(pred, probe_j)
///   kShape = kBandEntry: band_entry_tile, Band0/Band1(pred) and per-probe
///                        P0/P1(probe_j) — bounds arithmetic on the ENTRY
///                        side, once per vector of lanes
///   kShape = kBandProbe: band_probe_tile, per-probe Lo0/Hi0/Lo1/Hi1(pred,
///                        probe_j) — bounds arithmetic on the PROBE side,
///                        hoisted to scalars once per (probe, query)
///
/// kUseF32 adds the float term; it requires SimdEntryLanes<Entry>::kHasF32.
template <typename Pred, typename Probe, typename Entry>
struct SimdProbeTraits {
  static constexpr bool kEnabled = false;
};

enum class SimdPredShape : uint8_t { kEqui, kBandEntry, kBandProbe };

}  // namespace sjoin
