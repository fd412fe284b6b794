// The benchmark schemas and join predicates used throughout the paper's
// evaluation (Section 7.1), reproduced verbatim:
//
//   R = < x : int, y : float, z : char[20] >
//   S = < a : int, b : float, c : double, d : bool >
//
// joined by the two-dimensional band predicate
//
//   r.x BETWEEN s.a - 10 AND s.a + 10  AND  r.y BETWEEN s.b - 10 AND s.b + 10
//
// with join attributes uniform in 1..10000 (hit rate ~1 : 250,000). The
// equi-join variant (paper Section 7.6 / Table 2) replaces the band with
// r.x = s.a so node-local hash indexes become applicable.
#pragma once

#include <cstdint>

#include "common/fixed_string.hpp"
#include "common/simd.hpp"

namespace sjoin {

/// Paper benchmark stream R: 〈x:int, y:float, z:char[20]〉.
struct RTuple {
  int32_t x = 0;
  float y = 0.0f;
  FixedString<20> z;
};

/// Paper benchmark stream S: 〈a:int, b:float, c:double, d:bool〉.
struct STuple {
  int32_t a = 0;
  float b = 0.0f;
  double c = 0.0;
  bool d = false;
};

/// The paper's two-dimensional band join predicate.
struct BandPredicate {
  int32_t x_band = 10;
  float y_band = 10.0f;

  bool operator()(const RTuple& r, const STuple& s) const {
    return r.x >= s.a - x_band && r.x <= s.a + x_band &&
           r.y >= s.b - y_band && r.y <= s.b + y_band;
  }
};

/// Equi-join variant of the benchmark predicate (Table 2).
struct EquiPredicate {
  bool operator()(const RTuple& r, const STuple& s) const {
    return r.x == s.a;
  }
};

/// Key extractors for hash-index acceleration of the equi-join.
struct RKey {
  int64_t operator()(const RTuple& r) const { return r.x; }
};
struct SKey {
  int64_t operator()(const STuple& s) const { return s.a; }
};

/// Range-probe bounds for ordered-index acceleration of the *band* join
/// (paper future work, Sections 7.6/9): an R tuple probes the S store for
/// keys in [x-10, x+10] and vice versa; the band predicate still filters
/// the y/b dimension.
struct RBandLowForS {
  int64_t operator()(const RTuple& r) const { return r.x - 10; }
};
struct RBandHighForS {
  int64_t operator()(const RTuple& r) const { return r.x + 10; }
};
struct SBandLowForR {
  int64_t operator()(const STuple& s) const { return s.a - 10; }
};
struct SBandHighForR {
  int64_t operator()(const STuple& s) const { return s.a + 10; }
};

static_assert(sizeof(RTuple) == 28 || sizeof(RTuple) == 32,
              "RTuple should stay a small POD");

// ---------------------------------------------------------------------------
// SIMD probe mappings (common/simd.hpp) for the benchmark schema: the hot
// predicate columns each tuple contributes to the store's SoA lanes, and
// which tile kernel shape the band/equi predicates take per probe
// direction. The decompositions perform exactly the scalar
// predicates' arithmetic on the side where the scalar code computes it, so
// kernel-driven result sets are bit-identical to the scalar path.
// ---------------------------------------------------------------------------

template <>
struct SimdEntryLanes<RTuple> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = true;
  static int32_t K0(const RTuple& r) { return r.x; }
  static float K1(const RTuple& r) { return r.y; }
};

template <>
struct SimdEntryLanes<STuple> {
  static constexpr bool kEnabled = true;
  static constexpr bool kHasF32 = true;
  static int32_t K0(const STuple& s) { return s.a; }
  static float K1(const STuple& s) { return s.b; }
};

/// R probes the S window: the band bounds (s.a +- x_band, s.b +- y_band)
/// are computed from the ENTRY, exactly like the scalar predicate.
template <>
struct SimdProbeTraits<BandPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandEntry;
  static constexpr bool kUseF32 = true;
  static int32_t Band0(const BandPredicate& p) { return p.x_band; }
  static float Band1(const BandPredicate& p) { return p.y_band; }
  static int32_t P0(const RTuple& r) { return r.x; }
  static float P1(const RTuple& r) { return r.y; }
};

/// S probes the R window: the same terms now have the band arithmetic on
/// the PROBE side — hoisted to scalars once per (probe, query).
template <>
struct SimdProbeTraits<BandPredicate, STuple, RTuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kBandProbe;
  static constexpr bool kUseF32 = true;
  static int32_t Lo0(const BandPredicate& p, const STuple& s) {
    return s.a - p.x_band;
  }
  static int32_t Hi0(const BandPredicate& p, const STuple& s) {
    return s.a + p.x_band;
  }
  static float Lo1(const BandPredicate& p, const STuple& s) {
    return s.b - p.y_band;
  }
  static float Hi1(const BandPredicate& p, const STuple& s) {
    return s.b + p.y_band;
  }
};

template <>
struct SimdProbeTraits<EquiPredicate, RTuple, STuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const EquiPredicate&, const RTuple& r) { return r.x; }
};

template <>
struct SimdProbeTraits<EquiPredicate, STuple, RTuple> {
  static constexpr bool kEnabled = true;
  static constexpr SimdPredShape kShape = SimdPredShape::kEqui;
  static int32_t Key(const EquiPredicate&, const STuple& s) { return s.a; }
};

}  // namespace sjoin
