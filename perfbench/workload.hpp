// Workload definitions, input generation and the reference join the
// benchmark checks every run against.
//
// Push schedule (all workloads): push p is a span of `span` tuples of side
// p % 2 (R first), span index p / 2. Tuple i of a side therefore occupies
// schedule slot 2*span*(i/span) + (S ? span : 0) + i%span, which fixes
// both its event timestamp (non-decreasing in push order) and, on
// open-loop runs, the wall time at which it is due.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/schema.hpp"
#include "common/types.hpp"
#include "stream/generator.hpp"
#include "stream/window.hpp"

namespace perfbench {

using sjoin::RTuple;
using sjoin::STuple;

constexpr int kR = 0;
constexpr int kS = 1;

struct Workload {
  std::string name;
  /// ShardedJoinSession over the equi predicate (else JoinSession over the
  /// band predicate).
  bool sharded = false;
  /// Open loop at rate_per_stream for the whole run. Otherwise the run is
  /// closed-loop, followed by an open-loop latency phase at that rate.
  bool paced = false;
  int nodes = 1;  ///< LLHJ pipeline nodes per shard
  int shards = 1;
  sjoin::WindowSpec window = sjoin::WindowSpec::Count(20000);
  int64_t key_domain = sjoin::kPaperKeyDomain;
  uint64_t span = 64;                 ///< tuples per push call
  int64_t rate_per_stream = 0;        ///< open loop: tuples/s per stream
  uint64_t churn_every = 0;  ///< pushes between churn add/remove (0: none)
  int standing = 1;          ///< queries live for the whole run

  /// Threads the workload runs: every pipeline node plus the caller.
  int Threads() const { return nodes * shards + 1; }

  /// Wall-time distance of consecutive schedule slots on the open loop.
  int64_t SlotNs() const { return 1'000'000'000 / (2 * rate_per_stream); }
  /// Event-time distance of consecutive slots, microseconds (exact for the
  /// time-window workload; count windows ignore timestamps).
  int64_t TsStepUs() const { return SlotNs() / 1000; }

  /// Live window length in tuples per side.
  int64_t WindowTuples() const {
    return window.is_count() ? window.size
                             : window.size * rate_per_stream / 1'000'000;
  }

  uint64_t Slot(int side, uint64_t i) const {
    return 2 * span * (i / span) + (side == kS ? span : 0) + i % span;
  }
  sjoin::Timestamp Ts(int side, uint64_t i) const {
    return static_cast<sjoin::Timestamp>(Slot(side, i)) * TsStepUs();
  }

  /// Query ids whose handler must see the pairs whose later input is in
  /// push p: the standing queries, plus the churn query while it is live.
  /// The churn query is added at push churn_every * (2m + 1) and removed
  /// at push churn_every * (2m + 2); every add registers a fresh id.
  void LiveQueries(uint64_t p, std::vector<sjoin::QueryId>* out) const {
    out->clear();
    for (int q = 0; q < standing; ++q) out->push_back(static_cast<sjoin::QueryId>(q));
    if (churn_every > 0 && (p / churn_every) % 2 == 1) {
      out->push_back(static_cast<sjoin::QueryId>(standing + p / (2 * churn_every)));
    }
  }
};

/// The named workloads; the reason for each is in BENCHMARK.json. The
/// open-loop rates are fixed numbers, not derived from the host, so that
/// latency is measured at the same load on every run. On a 4-vCPU AVX-512
/// VM the closed-loop saturation medians (5 seeds) were 80.2k tuples/s per
/// stream on band_saturate, 138k on equi_shard_churn and 60.1k on
/// band_paced's shape run closed-loop; the latency phases of the first two
/// run at about a quarter of that.
inline std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  Workload saturate;
  saturate.name = "band_saturate";
  saturate.nodes = 3;
  saturate.rate_per_stream = 20'000;
  all.push_back(saturate);

  Workload paced;
  paced.name = "band_paced";
  paced.paced = true;
  paced.nodes = 2;
  paced.window = sjoin::WindowSpec::Time(2'000'000);
  paced.key_domain = 2000;
  paced.span = 16;
  paced.rate_per_stream = 10'000;
  all.push_back(paced);

  Workload churn;
  churn.name = "equi_shard_churn";
  churn.sharded = true;
  churn.nodes = 1;
  churn.shards = 2;
  churn.key_domain = 5000;
  churn.churn_every = 200;
  churn.standing = 2;
  churn.rate_per_stream = 32'000;
  all.push_back(churn);
  return all;
}

/// Pre-generated tuples. Tuple i of a side is pool[i mod kPool]; the pool
/// is far longer than any window, and a multiple of every span so a push
/// never wraps.
struct Inputs {
  static constexpr uint64_t kPool = 1 << 17;
  std::vector<RTuple> r;
  std::vector<STuple> s;

  const RTuple& R(uint64_t i) const { return r[i & (kPool - 1)]; }
  const STuple& S(uint64_t i) const { return s[i & (kPool - 1)]; }
};

inline Inputs MakeInputs(const Workload& w, uint64_t seed) {
  sjoin::Rng rng(seed);
  Inputs in;
  in.r.reserve(Inputs::kPool);
  in.s.reserve(Inputs::kPool);
  for (uint64_t i = 0; i < Inputs::kPool; ++i) {
    in.r.push_back(sjoin::MakeBandR(rng, w.key_domain));
    in.s.push_back(sjoin::MakeBandS(rng, w.key_domain));
  }
  return in;
}

/// Order-independent multiset digest of the result triples: the count and
/// the wrapping sum of a 64-bit mix of each (r_seq, s_seq, query).
struct Digest {
  uint64_t results = 0;
  uint64_t hash = 0;
  bool operator==(const Digest&) const = default;
};

inline uint64_t PairHash(sjoin::Seq r, sjoin::Seq s, sjoin::QueryId q) {
  uint64_t state = r * 0x9e3779b97f4a7c15ULL ^ (s + 0x632be59bd9b4e019ULL) *
                   0xbf58476d1ce4e5b9ULL ^ (uint64_t{q} << 48);
  return sjoin::SplitMix64(state);
}

/// Lower bound on wrong results: the count difference, or 2 (one missing,
/// one extra) when the counts agree but the digests do not.
inline uint64_t DigestFailures(const Digest& want, const Digest& got) {
  if (want.results != got.results) {
    return want.results > got.results ? want.results - got.results
                                      : got.results - want.results;
  }
  return want.hash == got.hash ? 0 : 2;
}

/// The expected results of the first `pushes` pushes: every pair whose
/// earlier input is still in the window when the later input arrives,
/// once per query live at the later input's push. Count windows hold the
/// last `size` tuples of a side; under a time window a tuple of timestamp
/// t_e is live for a later arrival at t while t - t_e <= size.
///
/// kIndexed walks only the opposite-window tuples whose key lies within
/// the predicate's reach (per-key lists); otherwise every opposite-window
/// tuple is tested, the brute-force form the self-test compares against.
template <typename Pred, bool kIndexed = true>
Digest Reference(const Workload& w, const Inputs& in, uint64_t pushes) {
  int64_t reach = 0;  // key distance within which the predicate can hold
  if constexpr (requires(Pred pr) { pr.x_band; }) reach = Pred{}.x_band;
  // Per-key lists hold each window tuple's index and float column: with
  // the key that is all the band and equi predicates read, so the walk
  // rebuilds the predicate's argument without touching the input pools.
  struct Entry {
    uint32_t index;
    float column;
  };
  std::vector<std::vector<Entry>> by_key[2];
  std::vector<uint32_t> head[2];
  if constexpr (kIndexed) {
    for (int side : {kR, kS}) {
      by_key[side].resize(static_cast<std::size_t>(w.key_domain) + 1);
      head[side].assign(static_cast<std::size_t>(w.key_domain) + 1, 0);
    }
  }
  uint64_t count[2] = {0, 0};
  uint64_t time_lo[2] = {0, 0};
  std::vector<sjoin::QueryId> live;
  Digest d;
  const Pred pred{};
  const auto emit = [&](uint64_t r, uint64_t s, const RTuple& rv,
                        const STuple& sv) {
    if (!pred(rv, sv)) return;
    for (sjoin::QueryId q : live) {
      ++d.results;
      d.hash += PairHash(r, s, q);
    }
  };
  for (uint64_t p = 0; p < pushes; ++p) {
    const int side = static_cast<int>(p % 2);
    const int opp = 1 - side;
    w.LiveQueries(p, &live);
    for (uint64_t j = 0; j < w.span; ++j) {
      const uint64_t i = (p / 2) * w.span + j;
      uint64_t lo = 0;
      if (w.window.is_count()) {
        const auto size = static_cast<uint64_t>(w.window.size);
        lo = count[opp] > size ? count[opp] - size : 0;
      } else {
        const sjoin::Timestamp t = w.Ts(side, i);
        while (time_lo[opp] < count[opp] &&
               w.Ts(opp, time_lo[opp]) + w.window.size < t) {
          ++time_lo[opp];
        }
        lo = time_lo[opp];
      }
      const RTuple& r_in = in.R(i);
      const STuple& s_in = in.S(i);
      if constexpr (kIndexed) {
        const int64_t k = side == kR ? r_in.x : s_in.a;
        const int64_t k_lo = std::max<int64_t>(0, k - reach);
        const int64_t k_hi = std::min<int64_t>(w.key_domain, k + reach);
        for (int64_t kk = k_lo; kk <= k_hi; ++kk) {
          const auto& list = by_key[opp][static_cast<std::size_t>(kk)];
          uint32_t& h = head[opp][static_cast<std::size_t>(kk)];
          while (h < list.size() && list[h].index < lo) ++h;
          for (std::size_t t = h; t < list.size(); ++t) {
            if (side == kR) {
              STuple sv;
              sv.a = static_cast<int32_t>(kk);
              sv.b = list[t].column;
              emit(i, list[t].index, r_in, sv);
            } else {
              RTuple rv;
              rv.x = static_cast<int32_t>(kk);
              rv.y = list[t].column;
              emit(list[t].index, i, rv, s_in);
            }
          }
        }
        by_key[side][static_cast<std::size_t>(k)].push_back(
            Entry{static_cast<uint32_t>(i), side == kR ? r_in.y : s_in.b});
      } else {
        for (uint64_t o = lo; o < count[opp]; ++o) {
          if (side == kR) {
            emit(i, o, r_in, in.S(o));
          } else {
            emit(o, i, in.R(o), s_in);
          }
        }
      }
      ++count[side];
    }
  }
  return d;
}

}  // namespace perfbench
