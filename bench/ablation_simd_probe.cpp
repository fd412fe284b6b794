// Ablation: SIMD tile kernels vs the forced-scalar fallback on the
// window-scan hot path (DESIGN.md Section 9).
//
// The measured loop is exactly the pipeline nodes' store sweep: one
// VectorStore window of W entries probed by k arrivals x Q registered
// queries through MatchBatch — the same call LlhjNode::ScanGroupAgainstS /
// HsjNode::ScanBatchAgainstS issue per crossing. Three probe shapes cover
// every tile kernel:
//
//   band_entry — R probes the S window; band bounds computed per ENTRY
//                (band_entry_tile, int + float terms);
//   band_probe — S probes the R window; band bounds hoisted per PROBE
//                (band_probe_tile, int + float terms);
//   equi       — key equality sweep (equi_tile);
//   equi_hash  — the lane-grouped HashStore's batched probe (group-equality
//                kernels, DESIGN.md Section 15) vs the brute-force multimap
//                store of tests/multimap_store.hpp, on churned windows; rows
//                carry speedup_vs_multimap and --require_hash_speedup gates
//                it on any host with SSE2 (the widest grouped-probe rung).
//
// The scan shapes run once per probe count in --probes (default 8, the
// pipeline's per-step batch kMsgsPerStep, and 32, two full 16-probe
// tiles). Every supported dispatch level (scalar -> sse2 -> avx2 -> avx512)
// runs the same sweep; the per-level result multisets are asserted
// identical in-bench (bit-identical kernels are the correctness contract,
// not a best effort).
// Throughput is reported as predicate evaluations per second
// (W x k x Q x sweeps / wall) and as ns per probe (one probe against the
// whole window and all Q queries), with speedup_vs_scalar per level.
// --require_speedup=N exits nonzero if the best SIMD level fails to reach
// N x scalar (acceptance runs; CI smoke leaves it off — shared runners).
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "common/simd.hpp"
#include "llhj/store.hpp"
#include "multimap_store.hpp"
#include "stream/query_set.hpp"

using namespace sjoin;
using namespace sjoin::bench;

namespace {

struct Config {
  int64_t window = 16384;   ///< resident entries per sweep
  std::vector<int64_t> probes;  ///< k values: arrival-run lengths swept
  int64_t queries = 4;      ///< Q: registered predicates
  double duration = 0.4;    ///< seconds per (shape, level) measurement
  int64_t key_domain = kPaperKeyDomain;
  uint64_t seed = 42;
  double require_speedup = 0.0;
  double require_hash_speedup = 0.0;
};

/// A 64-bit order-insensitive fingerprint of the emitted (probe, query,
/// seq) triples plus the total count — levels must agree on both.
struct ResultSig {
  uint64_t hash = 0;
  uint64_t count = 0;
  bool operator==(const ResultSig&) const = default;
};

uint64_t MixTriple(std::size_t j, QueryId q, Seq seq) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  h ^= (static_cast<uint64_t>(j) + 1) * 0xff51afd7ed558ccdull;
  h ^= (static_cast<uint64_t>(q) + 1) * 0xc4ceb9fe1a85ec53ull;
  h ^= (seq + 1) * 0x2545f4914f6cdd1dull;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

/// One (store, probes, queries) scan shape, measured at one dispatch level.
struct LevelStats {
  SimdLevel level = SimdLevel::kScalar;
  double wall_s = 0.0;
  uint64_t sweeps = 0;
  ResultSig sig;
  double evals_per_sec = 0.0;
  double ns_per_probe = 0.0;  ///< one probe vs the whole window, all queries
};

template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
LevelStats MeasureLevel(SimdLevel level, const Store& store,
                        const QuerySet<Pred>& queries,
                        const std::vector<Stamped<ProbeT>>& probes,
                        const Config& c) {
  OverrideSimdLevel(level);
  LevelStats stats;
  stats.level = level;
  // Fingerprint sweep (outside the timed loop).
  store.template MatchBatch<kProbeIsLeft>(
      queries, probes.data(), probes.size(),
      [&](std::size_t j, QueryId q, const auto& entry) {
        stats.sig.hash ^= MixTriple(j, q, entry.tuple.seq);
        ++stats.sig.count;
      });
  // Timed sweeps. The per-sweep match count is folded into a sink so the
  // emission path (set-bit walk + callback) stays in the measurement.
  uint64_t sink = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(c.duration * 1e9);
  while (NowNs() < deadline) {
    store.template MatchBatch<kProbeIsLeft>(
        queries, probes.data(), probes.size(),
        [&](std::size_t j, QueryId q, const auto& entry) {
          sink += j + q + static_cast<uint64_t>(entry.tuple.seq & 1);
        });
    ++stats.sweeps;
  }
  const int64_t end = NowNs();
  ClearSimdLevelOverride();
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");  // keep `sink` live
  stats.wall_s = NsToSec(end - start);
  const double evals = static_cast<double>(store.size()) *
                       static_cast<double>(probes.size()) *
                       static_cast<double>(queries.size()) *
                       static_cast<double>(stats.sweeps);
  stats.evals_per_sec = stats.wall_s <= 0 ? 0.0 : evals / stats.wall_s;
  const double probes_run =
      static_cast<double>(probes.size()) * static_cast<double>(stats.sweeps);
  stats.ns_per_probe = probes_run <= 0 ? 0.0 : stats.wall_s * 1e9 / probes_run;
  return stats;
}

/// Runs one scan shape at every level; returns the best SIMD speedup and
/// emits one JSON row per level. Exits the process on a result mismatch.
template <bool kProbeIsLeft, typename Store, typename Pred, typename ProbeT>
double RunShape(const char* shape, const Store& store,
                const QuerySet<Pred>& queries,
                const std::vector<Stamped<ProbeT>>& probes, const Config& c,
                JsonEmitter* json) {
  std::vector<LevelStats> rows;
  for (SimdLevel level : SupportedSimdLevels()) {
    rows.push_back(
        MeasureLevel<kProbeIsLeft>(level, store, queries, probes, c));
  }
  const LevelStats& scalar = rows.front();
  double best_speedup = 1.0;
  std::printf("  %-10s  %3s  %-7s  %10s  %10s  %12s  %10s  %8s\n", "shape",
              "k", "level", "sweeps", "matches", "evals/s", "ns/probe",
              "speedup");
  for (const LevelStats& row : rows) {
    if (!(row.sig == scalar.sig)) {
      std::printf("ERROR: %s result set differs between scalar and %s "
                  "(count %llu vs %llu, hash %016llx vs %016llx)\n",
                  shape, ToString(row.level),
                  static_cast<unsigned long long>(scalar.sig.count),
                  static_cast<unsigned long long>(row.sig.count),
                  static_cast<unsigned long long>(scalar.sig.hash),
                  static_cast<unsigned long long>(row.sig.hash));
      std::exit(1);
    }
    const double speedup =
        row.evals_per_sec <= 0 || scalar.evals_per_sec <= 0
            ? 0.0
            : row.evals_per_sec / scalar.evals_per_sec;
    if (row.level != SimdLevel::kScalar && speedup > best_speedup) {
      best_speedup = speedup;
    }
    std::printf("  %-10s  %3zu  %-7s  %10llu  %10llu  %12.3e  %10.1f  %7.2fx\n",
                shape, probes.size(), ToString(row.level),
                static_cast<unsigned long long>(row.sweeps),
                static_cast<unsigned long long>(row.sig.count),
                row.evals_per_sec, row.ns_per_probe, speedup);
    JsonRow out;
    out.Str("shape", shape)
        .Str("level", ToString(row.level))
        .Str("detected", ToString(DetectedSimdLevel()))
        .Int("window", static_cast<int64_t>(store.size()))
        .Int("probes", static_cast<int64_t>(probes.size()))
        .Int("queries", static_cast<int64_t>(queries.size()))
        .Int("sweeps", static_cast<int64_t>(row.sweeps))
        .Num("wall_s", row.wall_s)
        .Num("evals_per_sec", row.evals_per_sec)
        .Num("ns_per_probe", row.ns_per_probe)
        .Int("matches_per_sweep", static_cast<int64_t>(row.sig.count))
        .Num("speedup_vs_scalar", speedup)
        .Int("results_equal", 1);
    json->Emit(out);
  }
  std::printf("\n");
  return best_speedup;
}

/// Equi hash-probe ablation: the lane-grouped HashStore's batched probe
/// (gather keys -> prefetch home groups -> 8-lane group-equality scans ->
/// insertion-ordered emission) against the brute-force multimap store
/// (test::MultimapStore: one tree-node pointer chase per duplicate). Both
/// stores are built with identical CHURNED contents — insert W, then
/// expire/insert 2W more in FIFO order, the steady-state window shape — and
/// identical probe runs. The multimap has no kernels on its path. Each
/// grouped dispatch level is measured PAIRED against it — alternating short
/// multimap / grouped slices, taking the median per-pair ratio — because on
/// a shared host steal bursts last whole seconds and would otherwise land
/// on one side of the division; adjacent slices are perturbed alike, so the
/// pair ratio holds. Result multisets asserted identical to the multimap's.
/// Returns the best grouped speedup over the multimap.
/// Hash-shape measurement: unlike the scan shapes (fixed probes — the
/// window IS the working set), hash probes touch only their candidates, so
/// a fixed probe batch would leave every candidate slot L1-warm after one
/// sweep and the measurement would reward nothing but instruction count.
/// Pipeline probes arrive once each; to reproduce that cache behavior the
/// timed loop rotates through a pool of probe batches large enough that a
/// batch's candidates have been evicted by the time it comes around again.

/// One full-pool pass at `level`, accumulating the order-insensitive
/// result signature (the cross-store identity check).
template <typename Store>
ResultSig FingerprintHash(SimdLevel level, const Store& store,
                          const QuerySet<EquiPredicate>& queries,
                          const std::vector<Stamped<RTuple>>& pool,
                          std::size_t batch) {
  OverrideSimdLevel(level);
  ResultSig sig;
  for (std::size_t base = 0; base < pool.size(); base += batch) {
    store.template MatchBatch<true>(
        queries, pool.data() + base, std::min(batch, pool.size() - base),
        [&](std::size_t j, QueryId q, const auto& entry) {
          sig.hash ^= MixTriple(base + j, q, entry.tuple.seq);
          ++sig.count;
        });
  }
  ClearSimdLevelOverride();
  return sig;
}

struct SliceStats {
  uint64_t sweeps = 0;
  double wall_s = 0.0;
  double Rate() const {
    return wall_s <= 0 ? 0.0 : static_cast<double>(sweeps) / wall_s;
  }
};

/// One timed slice over the rotating probe pool. `cursor` persists across
/// slices so consecutive slices keep advancing through the pool instead of
/// re-touching the batches the previous slice just warmed.
template <typename Store>
SliceStats TimedHashSlice(const Store& store,
                          const QuerySet<EquiPredicate>& queries,
                          const std::vector<Stamped<RTuple>>& pool,
                          std::size_t batch, int64_t slice_ns,
                          std::size_t* cursor) {
  SliceStats s;
  uint64_t sink = 0;
  const int64_t start = NowNs();
  const int64_t deadline = start + slice_ns;
  while (NowNs() < deadline) {
    store.template MatchBatch<true>(
        queries, pool.data() + *cursor, batch,
        [&](std::size_t j, QueryId q, const auto& entry) {
          sink += j + q + static_cast<uint64_t>(entry.tuple.seq & 1);
        });
    *cursor += batch;
    if (*cursor + batch > pool.size()) *cursor = 0;
    ++s.sweeps;
  }
  if (sink == 0xdeadbeef) std::printf("(unreachable)\n");  // keep `sink` live
  s.wall_s = NsToSec(NowNs() - start);
  return s;
}

double RunEquiHash(const Config& c, JsonEmitter* json) {
  Rng rng(c.seed + 1);
  HashStore<STuple, SKey, RKey> grouped;
  test::MultimapStore<STuple, SKey, RKey> multimap;
  // 4x the scan window (an index probe does per-candidate work, not
  // per-entry, so the store must be big enough that candidates are not
  // cache-resident), ~16 duplicates per key: long enough runs that the
  // probe path (not the hash) dominates, matching the paper's equi skew.
  const int64_t window = 4 * c.window;
  const int64_t domain = std::max<int64_t>(1, window / 16);
  Seq next_seq = 0;
  Seq expire = 0;
  const auto push = [&] {
    const Stamped<STuple> t{MakeBandS(rng, domain), next_seq, 0, 0};
    grouped.Insert(t, false);
    multimap.Insert(t, false);
    ++next_seq;
  };
  for (int64_t i = 0; i < window; ++i) push();
  for (int64_t i = 0; i < 2 * window; ++i) {
    grouped.EraseSeq(expire);
    multimap.EraseSeq(expire);
    ++expire;
    push();
  }
  // Probe at the store's designed chunk width (HashStore::MatchBatch
  // pipelines candidate collection across 32-probe chunks): 4 arrival runs
  // of kMsgsPerStep handed to one batched call, the shape the sharded
  // driver produces under load.
  const std::size_t batch = 4 * kMsgsPerStep;
  std::vector<Stamped<RTuple>> pool;
  for (std::size_t j = 0; j < 512 * batch; ++j) {
    pool.push_back(Stamped<RTuple>{MakeBandR(rng, domain),
                                   static_cast<Seq>(j), 0, 0});
  }
  QuerySet<EquiPredicate> queries{EquiPredicate{}};

  const ResultSig base_sig =
      FingerprintHash(SimdLevel::kScalar, multimap, queries, pool, batch);
  const int64_t slice_ns = static_cast<int64_t>(c.duration * 1e9 / 3.0);
  constexpr int kRounds = 5;
  const auto evals_per_sec = [&](const SliceStats& s, std::size_t sz) {
    return static_cast<double>(sz) * static_cast<double>(batch) *
           static_cast<double>(queries.size()) * s.Rate();
  };

  // Each level: kRounds adjacent multimap/grouped slice pairs; the median
  // pair ratio is the level's speedup over the multimap. The best multimap
  // slice seen anywhere becomes the reported baseline row.
  std::size_t base_cursor = 0;
  SliceStats base_best;
  double grouped_scalar = 0.0;
  double best = 0.0;
  struct LevelRow {
    SimdLevel level;
    SliceStats slice;
    double vs_multimap = 0.0;
  };
  std::vector<LevelRow> rows;
  for (SimdLevel level : SupportedSimdLevels()) {
    const ResultSig sig =
        FingerprintHash(level, grouped, queries, pool, batch);
    if (!(sig == base_sig)) {
      std::printf("ERROR: equi_hash result set differs between the "
                  "multimap baseline and grouped/%s (count %llu vs %llu, hash "
                  "%016llx vs %016llx)\n",
                  ToString(level),
                  static_cast<unsigned long long>(base_sig.count),
                  static_cast<unsigned long long>(sig.count),
                  static_cast<unsigned long long>(base_sig.hash),
                  static_cast<unsigned long long>(sig.hash));
      std::exit(1);
    }
    std::size_t cursor = 0;
    LevelRow row;
    row.level = level;
    std::array<double, kRounds> ratios{};
    for (int r = 0; r < kRounds; ++r) {
      const SliceStats cs =
          TimedHashSlice(multimap, queries, pool, batch, slice_ns,
                         &base_cursor);
      if (cs.Rate() > base_best.Rate()) base_best = cs;
      OverrideSimdLevel(level);
      const SliceStats gs =
          TimedHashSlice(grouped, queries, pool, batch, slice_ns, &cursor);
      ClearSimdLevelOverride();
      if (gs.Rate() > row.slice.Rate()) row.slice = gs;
      ratios[static_cast<std::size_t>(r)] =
          cs.Rate() <= 0 ? 0.0 : gs.Rate() / cs.Rate();
    }
    std::sort(ratios.begin(), ratios.end());
    row.vs_multimap = ratios[kRounds / 2];
    if (level == SimdLevel::kScalar) {
      grouped_scalar = evals_per_sec(row.slice, grouped.size());
    }
    if (row.vs_multimap > best) best = row.vs_multimap;
    rows.push_back(row);
  }

  std::printf("  %-10s  %-7s  %12s  %10s  %14s  %8s\n", "shape", "level",
              "sweeps", "matches", "evals/s", "vs_multimap");
  std::printf("  %-10s  %-7s  %12llu  %10llu  %14.3e  %7.2fx\n", "equi_hash",
              "multimap", static_cast<unsigned long long>(base_best.sweeps),
              static_cast<unsigned long long>(base_sig.count),
              evals_per_sec(base_best, multimap.size()), 1.0);
  JsonRow base_row;
  base_row.Str("shape", "equi_hash")
      .Str("level", "multimap")
      .Str("detected", ToString(DetectedSimdLevel()))
      .Int("window", static_cast<int64_t>(multimap.size()))
      .Int("probes", static_cast<int64_t>(batch))
      .Int("queries", static_cast<int64_t>(queries.size()))
      .Int("sweeps", static_cast<int64_t>(base_best.sweeps))
      .Num("wall_s", base_best.wall_s)
      .Num("evals_per_sec", evals_per_sec(base_best, multimap.size()))
      .Int("matches_per_sweep", static_cast<int64_t>(base_sig.count))
      .Num("speedup_vs_multimap", 1.0)
      .Int("results_equal", 1);
  json->Emit(base_row);

  for (const LevelRow& row : rows) {
    const double eps = evals_per_sec(row.slice, grouped.size());
    const double vs_scalar = grouped_scalar <= 0 ? 0.0 : eps / grouped_scalar;
    std::printf("  %-10s  %-7s  %12llu  %10llu  %14.3e  %7.2fx\n",
                "equi_hash", ToString(row.level),
                static_cast<unsigned long long>(row.slice.sweeps),
                static_cast<unsigned long long>(base_sig.count), eps,
                row.vs_multimap);
    JsonRow out;
    out.Str("shape", "equi_hash")
        .Str("level", ToString(row.level))
        .Str("detected", ToString(DetectedSimdLevel()))
        .Int("window", static_cast<int64_t>(grouped.size()))
        .Int("probes", static_cast<int64_t>(batch))
        .Int("queries", static_cast<int64_t>(queries.size()))
        .Int("sweeps", static_cast<int64_t>(row.slice.sweeps))
        .Num("wall_s", row.slice.wall_s)
        .Num("evals_per_sec", eps)
        .Int("matches_per_sweep", static_cast<int64_t>(base_sig.count))
        .Num("speedup_vs_scalar", vs_scalar)
        .Num("speedup_vs_multimap", row.vs_multimap)
        .Int("results_equal", 1);
    json->Emit(out);
  }
  std::printf("\n");
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Config c;
  c.window = flags.Int("window", c.window);
  c.probes = flags.IntList("probes", "8,32");
  c.queries = flags.Int("queries", c.queries);
  c.duration = flags.Double("duration", c.duration);
  c.key_domain = flags.Int("domain", c.key_domain);
  c.seed = static_cast<uint64_t>(flags.Int("seed", 42));
  c.require_speedup = flags.Double("require_speedup", 0.0);
  c.require_hash_speedup = flags.Double("require_hash_speedup", 0.0);

  PrintHeader("ablation_simd_probe — SIMD tile kernels vs forced-scalar",
              "ROADMAP: SIMD band-join + multi-query probe (DESIGN.md S9)");
  std::printf("window %lld, %lld queries, %.2fs per level, detected %s\n\n",
              static_cast<long long>(c.window),
              static_cast<long long>(c.queries), c.duration,
              ToString(DetectedSimdLevel()));

  JsonEmitter json(flags, "ablation_simd_probe");
  Rng rng(c.seed);

  // Windows and probe runs drawn from the paper's band workload.
  VectorStore<STuple> ws;
  VectorStore<RTuple> wr;
  for (int64_t i = 0; i < c.window; ++i) {
    ws.Insert(Stamped<STuple>{MakeBandS(rng, c.key_domain),
                              static_cast<Seq>(i), 0, 0},
              false);
    wr.Insert(Stamped<RTuple>{MakeBandR(rng, c.key_domain),
                              static_cast<Seq>(i), 0, 0},
              false);
  }
  const int64_t max_probes =
      c.probes.empty() ? 0 : *std::max_element(c.probes.begin(), c.probes.end());
  std::vector<Stamped<RTuple>> probe_r;
  std::vector<Stamped<STuple>> probe_s;
  for (int64_t j = 0; j < max_probes; ++j) {
    probe_r.push_back(Stamped<RTuple>{MakeBandR(rng, c.key_domain),
                                      static_cast<Seq>(j), 0, 0});
    probe_s.push_back(Stamped<STuple>{MakeBandS(rng, c.key_domain),
                                      static_cast<Seq>(j), 0, 0});
  }

  // Q band queries with distinct widths (the multi-query sharing shape);
  // wide enough that matches exist at every window size.
  std::vector<BandPredicate> bands;
  for (int64_t q = 0; q < c.queries; ++q) {
    const int32_t w = static_cast<int32_t>(10 + 40 * q);
    bands.push_back(BandPredicate{w, static_cast<float>(w)});
  }
  QuerySet<BandPredicate> band_queries(bands);
  QuerySet<EquiPredicate> equi_queries{EquiPredicate{}};

  double best = 1.0;
  for (int64_t k : c.probes) {
    const std::vector<Stamped<RTuple>> run_r(probe_r.begin(),
                                             probe_r.begin() + k);
    const std::vector<Stamped<STuple>> run_s(probe_s.begin(),
                                             probe_s.begin() + k);
    best = std::max(best, RunShape<true>("band_entry", ws, band_queries,
                                         run_r, c, &json));
    best = std::max(best, RunShape<false>("band_probe", wr, band_queries,
                                          run_s, c, &json));
    best = std::max(best, RunShape<true>("equi", ws, equi_queries, run_r, c,
                                         &json));
  }
  const double hash_best = RunEquiHash(c, &json);

  if (c.require_speedup > 0 && DetectedSimdLevel() > SimdLevel::kScalar &&
      best < c.require_speedup) {
    std::printf("ERROR: best SIMD speedup %.2fx below required %.2fx\n", best,
                c.require_speedup);
    return 1;
  }
  if (c.require_hash_speedup > 0 &&
      DetectedSimdLevel() >= SimdLevel::kSse2 &&
      hash_best < c.require_hash_speedup) {
    std::printf("ERROR: grouped equi-probe speedup %.2fx over the multimap "
                "below required %.2fx\n",
                hash_best, c.require_hash_speedup);
    return 1;
  }
  std::printf("best SIMD speedup vs forced-scalar: %.2fx\n", best);
  std::printf("grouped equi-probe speedup vs multimap: %.2fx\n", hash_best);
  return 0;
}
