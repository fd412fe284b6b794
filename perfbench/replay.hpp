// Store replay for the llhj.store.* per-layer metrics: a workload's own
// inputs driven on one thread through the public window-store calls an
// LLHJ node makes per batch — MatchBatch of the arriving span against the
// opposite store, Insert into its own store, EraseSeq of the tuples that
// left the window — at the workload's window size.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "llhj/store.hpp"
#include "measure.hpp"
#include "stream/query_set.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayStats {
  uint64_t probes = 0;
  uint64_t inserts = 0;
  uint64_t expiries = 0;
  uint64_t matches = 0;
  double entry_evals = 0;  ///< probe x stored-entry pairs examined
  int64_t probe_ns = 0;
  int64_t insert_ns = 0;
  int64_t expire_ns = 0;
};

/// Fills both stores to the window size untimed, then times `timed`
/// further tuples per side.
template <typename Pred, typename RStore, typename SStore>
ReplayStats ReplayStores(const Workload& w, const Inputs& in, int queries,
                         uint64_t timed) {
  const auto window = static_cast<uint64_t>(w.WindowTuples());
  const sjoin::QuerySet<Pred> qs(std::vector<Pred>(static_cast<std::size_t>(queries), Pred{}));
  RStore r_store;
  SStore s_store;
  std::vector<sjoin::Stamped<RTuple>> r_batch(w.span);
  std::vector<sjoin::Stamped<STuple>> s_batch(w.span);
  uint64_t expire_next[2] = {0, 0};
  ReplayStats st;
  const uint64_t spans = (window + timed) / w.span;
  const auto stamp = [&](auto& batch, int side, uint64_t b, const auto& value_of) {
    for (uint64_t j = 0; j < w.span; ++j) {
      const uint64_t i = b * w.span + j;
      batch[j].value = value_of(i);
      batch[j].seq = i;
      batch[j].ts = w.Ts(side, i);
    }
  };
  const auto step = [&](auto& batch, auto& own, const auto& other, int side,
                        bool measure) {
    const int64_t t0 = NowNs();
    uint64_t m = 0;
    constexpr bool kProbeIsR =
        std::is_same_v<std::decay_t<decltype(batch[0])>, sjoin::Stamped<RTuple>>;
    other.template MatchBatch<kProbeIsR, Pred>(
        qs, batch.data(), batch.size(),
        [&](std::size_t, sjoin::QueryId, const auto&) { ++m; });
    const int64_t t1 = NowNs();
    for (const auto& t : batch) own.Insert(t, false);
    const int64_t t2 = NowNs();
    uint64_t expired = 0;
    while (own.size() > window) {
      own.EraseSeq(expire_next[side]++);
      ++expired;
    }
    const int64_t t3 = NowNs();
    if (!measure) return;
    st.probes += batch.size();
    st.inserts += batch.size();
    st.expiries += expired;
    st.matches += m;
    st.entry_evals += static_cast<double>(batch.size()) *
                      static_cast<double>(other.size());
    st.probe_ns += t1 - t0;
    st.insert_ns += t2 - t1;
    st.expire_ns += t3 - t2;
  };
  for (uint64_t b = 0; b < spans; ++b) {
    const bool measure = b * w.span >= window;
    stamp(r_batch, kR, b, [&](uint64_t i) { return in.R(i); });
    step(r_batch, r_store, s_store, kR, measure);
    stamp(s_batch, kS, b, [&](uint64_t i) { return in.S(i); });
    step(s_batch, s_store, r_store, kS, measure);
  }
  return st;
}

}  // namespace perfbench
