// Brute-force equi-join store: a std::multimap from join key to entry plus a
// seq -> key map. Equal keys keep insertion order (multimap inserts at the
// upper bound), so ForEach yields a key's entries oldest-first, the order
// HashStore guarantees. It is the reference the grouped HashStore is checked
// against (tests/test_store_equivalence.cpp, tests/test_simd_kernels.cpp)
// and the pointer-chasing baseline of bench/ablation_simd_probe.cpp
// equi_hash. Same store concept as llhj/store.hpp, minus the epoch walk.
#pragma once

#include <cstdint>
#include <map>

#include "llhj/store.hpp"
#include "stream/query_set.hpp"

namespace sjoin::test {

template <typename T, typename OwnKey, typename ProbeKey>
class MultimapStore {
 public:
  void Insert(const Stamped<T>& t, bool expedited) {
    const int64_t key = OwnKey{}(t.value);
    entries_.emplace(key, StoreEntry<T>{t, expedited});
    keys_[t.seq] = key;
  }

  bool EraseSeq(Seq seq) {
    const auto it = Locate(seq);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    keys_.erase(seq);
    return true;
  }

  bool ClearExpedited(Seq seq) {
    const auto it = Locate(seq);
    if (it == entries_.end()) return false;
    it->second.expedited = false;
    return true;
  }

  template <typename Probe, typename F>
  void ForEach(const Probe& probe, F&& f) const {
    auto [it, end] = entries_.equal_range(ProbeKey{}(probe));
    for (; it != end; ++it) f(it->second);
  }

  template <bool kProbeIsLeft, typename Pred, typename ProbeT, typename F>
  void MatchBatch(const QuerySet<Pred>& queries, const Stamped<ProbeT>* probes,
                  std::size_t k, F&& f) const {
    for (std::size_t j = 0; j < k; ++j) {
      ForEach(probes[j].value, [&](const StoreEntry<T>& entry) {
        queries.template MatchOriented<kProbeIsLeft>(
            probes[j].value, entry.tuple.value,
            [&](QueryId q) { f(j, q, entry); });
      });
    }
  }

  std::size_t size() const { return entries_.size(); }

 private:
  using Entries = std::multimap<int64_t, StoreEntry<T>>;

  typename Entries::iterator Locate(Seq seq) {
    const auto key = keys_.find(seq);
    if (key == keys_.end()) return entries_.end();
    auto [it, end] = entries_.equal_range(key->second);
    while (it != end && it->second.tuple.seq != seq) ++it;
    return it == end ? entries_.end() : it;
  }

  Entries entries_;
  std::map<Seq, int64_t> keys_;
};

}  // namespace sjoin::test
