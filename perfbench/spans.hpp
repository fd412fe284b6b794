// In-memory span recorder of the traced run. Spans are taken in the
// benchmark's own code around its calls into each layer of the engine
// (push, poll, finish, query add/remove); the handler's time is recorded as
// a child of the call that delivered the results. Every span of one run
// carries the run's id. Aggregates per layer (count, total and self time)
// cover every span; the first `keep` spans the caller asks to keep are also
// kept verbatim and written out when the run ends.
//
// The untraced run uses NoSpans, whose calls are empty inline functions, so
// no clock is read and nothing is stored.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

enum class Layer : uint8_t {
  kRun,
  kPush,
  kPoll,
  kFinish,
  kAddQuery,
  kRemoveQuery,
  kHandler,
  kCount
};

inline const char* LayerName(Layer l) {
  static constexpr std::array<const char*, 7> kNames = {
      "run",           "core.push",         "stream.poll",    "core.finish",
      "core.add_query", "core.remove_query", "stream.handler"};
  return kNames[static_cast<std::size_t>(l)];
}

struct LayerTotals {
  uint64_t spans = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string run_id, std::size_t keep = 1 << 18)
      : run_id_(std::move(run_id)), keep_(keep) {
    kept_.reserve(keep_);
  }

  void Begin(Layer layer) {
    stack_.push_back(Open{next_id_++, layer, NowNs(), 0});
  }

  /// Time `ns` spent in `layer` below the open span, not itself spanned
  /// (the handler: one span per result would cost more than it measures).
  void Child(Layer layer, int64_t ns) {
    if (!stack_.empty()) stack_.back().child_ns += ns;
    LayerTotals& t = totals_[static_cast<std::size_t>(layer)];
    t.total_ns += ns;
    t.self_ns += ns;
  }

  /// Closes the innermost open span; `keep` false aggregates it without
  /// keeping it (the caller's empty polls would crowd out every other span).
  void End(bool keep = true) {
    const Open open = stack_.back();
    stack_.pop_back();
    const int64_t end = NowNs();
    const int64_t dur = end - open.start_ns;
    LayerTotals& t = totals_[static_cast<std::size_t>(open.layer)];
    ++t.spans;
    t.total_ns += dur;
    t.self_ns += dur - open.child_ns;
    const uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    if (!stack_.empty()) stack_.back().child_ns += dur;
    if (!keep) return;
    if (kept_.size() < keep_) {
      kept_.push_back(Span{open.id, parent, open.layer, open.start_ns, end,
                           dur - open.child_ns});
    } else {
      ++dropped_;
    }
  }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }

  /// Writes the kept spans as TSV (times relative to the first span) plus
  /// the per-layer totals. Returns false when the file cannot be written.
  bool Write(const std::string& path, const std::string& header) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t base = kept_.empty() ? 0 : kept_.front().start_ns;
    out << "# " << header << "\n# spans kept " << kept_.size() << ", dropped "
        << dropped_ << "\nrun_id\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n";
    for (const Span& s : kept_) {
      out << run_id_ << '\t' << s.id << '\t' << s.parent << '\t'
          << LayerName(s.layer) << '\t' << s.start_ns - base << '\t'
          << s.end_ns - base << '\t' << s.self_ns << '\n';
    }
    for (std::size_t l = 0; l < totals_.size(); ++l) {
      out << "# total\t" << LayerName(static_cast<Layer>(l)) << "\tspans "
          << totals_[l].spans << "\ttotal_ns " << totals_[l].total_ns
          << "\tself_ns " << totals_[l].self_ns << '\n';
    }
    return static_cast<bool>(out);
  }

 private:
  struct Open {
    uint64_t id;
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Span {
    uint64_t id;
    uint64_t parent;
    Layer layer;
    int64_t start_ns;
    int64_t end_ns;
    int64_t self_ns;
  };

  std::string run_id_;
  std::size_t keep_;
  uint64_t next_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
};

/// The untraced run's recorder: every call compiles to nothing.
struct NoSpans {
  void Begin(Layer) {}
  void Child(Layer, int64_t) {}
  void End(bool = true) {}
};

}  // namespace perfbench
