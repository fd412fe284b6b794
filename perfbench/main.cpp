// Public-API benchmark of the join engine. One process runs one named
// workload through JoinSession / ShardedJoinSession exactly as a user
// would: the caller thread (this one) is the input generator, pushes
// pre-generated spans, polls, and finally calls FinishInput. Every run is
// checked against the reference join of workload.hpp, and a small
// fault-injected run first proves that check catches a lost and a
// duplicated result.
//
//   perfbench --workload band_saturate --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same workload untraced and then traced, half of --seconds each
// (spans around every call into the engine, written to --trace-dir), and
// prints the per-layer metrics. The last stdout line is the JSON result; the line before it is
// the run record (host fingerprint, threads, seed, workload).
#include <sched.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/simd.hpp"
#include "core/join_session.hpp"
#include "core/sharded_session.hpp"
#include "runtime/affinity.hpp"
#include "runtime/topology.hpp"
#include "measure.hpp"
#include "replay.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using Band = sjoin::BandPredicate;
using Equi = sjoin::EquiPredicate;
using Result = sjoin::ResultMsg<RTuple, STuple>;

/// setup_s is the median of kSetupReps set-ups before the first phase and
/// after each phase of an untraced run, so a host burst during one part of
/// the run does not set it; one discarded set-up first warms the process.
constexpr int kSetupReps = 6;
constexpr uint64_t kReplayTuples = 16384;
constexpr int64_t kOpenLoopLeadNs = 2'000'000;
/// Share of a closed-loop workload's run spent in the closed-loop phase
/// (the rest is the open-loop latency phase).
constexpr double kClosedShare = 0.6;
/// Length of the non-threaded run of a traced invocation, as a share of
/// --seconds.
constexpr double kSequentialShare = 0.1;
/// Closed-loop throughput and CPU per tuple are medians over slices of
/// this length, so a host stall that covers a minority of the phase does
/// not set them.
constexpr int64_t kSliceNs = 500'000'000;

/// When each input tuple was due: on open-loop runs its schedule slot, on
/// closed-loop runs the start of the push call that carried it.
struct DueClock {
  const Workload* w = nullptr;
  bool open_loop = false;
  int64_t t0_ns = 0;
  int64_t slot_ns = 0;
  std::vector<int64_t> push_ns[2];

  int64_t Due(int side, uint64_t i) const {
    if (open_loop) {
      return t0_ns + static_cast<int64_t>(w->Slot(side, i)) * slot_ns;
    }
    return push_ns[side][i / w->span];
  }
  int64_t LaterDue(sjoin::Seq r, sjoin::Seq s) const {
    return std::max(Due(kR, r), Due(kS, s));
  }
};

/// The benchmark's output handler: digests every result for the reference
/// check and records its latency from the due time of its later input.
/// `drop_at` / `dup_at` lose or double one result (self-test only).
template <bool kTrace>
class BenchHandler : public sjoin::OutputHandler<RTuple, STuple> {
 public:
  BenchHandler(const DueClock* due, int64_t drop_at, int64_t dup_at)
      : due_(due), drop_at_(drop_at), dup_at_(dup_at) {}

  void OnResult(const Result& m) override {
    const int64_t now = NowNs();
    const auto k = static_cast<int64_t>(seen_++);
    const uint64_t h = PairHash(m.r_seq, m.s_seq, m.query);
    if (k != drop_at_) {
      ++digest_.results;
      digest_.hash += h;
    }
    if (k == dup_at_) {
      ++digest_.results;
      digest_.hash += h;
    }
    latency_.Add(now - due_->LaterDue(m.r_seq, m.s_seq));
    if constexpr (kTrace) handler_ns_ += NowNs() - now;
  }

  void OnQueryRetired(sjoin::QueryId q) override { retired_ns_[q] = NowNs(); }

  uint64_t seen() const { return seen_; }
  int64_t handler_ns() const { return handler_ns_; }
  const Digest& digest() const { return digest_; }
  const LatencyHist& latency() const { return latency_; }
  const std::map<sjoin::QueryId, int64_t>& retired_ns() const {
    return retired_ns_;
  }

 private:
  const DueClock* due_;
  int64_t drop_at_;
  int64_t dup_at_;
  uint64_t seen_ = 0;
  int64_t handler_ns_ = 0;
  Digest digest_;
  LatencyHist latency_;
  std::map<sjoin::QueryId, int64_t> retired_ns_;
};

struct RunOptions {
  double seconds = 1.0;
  std::shared_ptr<const sjoin::Topology> topology;  ///< see SessionTopology
  bool threaded = true;
  bool open_loop = false;
  uint64_t max_pushes = 0;  ///< stop after this many pushes (0: by time)
  int64_t drop_at = -1;
  int64_t dup_at = -1;
};

struct RunResult {
  uint64_t pushes = 0;
  uint64_t tuples = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  double p50_ms = 0, p95_ms = 0, p99_ms = 0, p999_ms = 0;
  uint64_t failed = 0;
  uint64_t results = 0;
  std::vector<double> gen_lag_ms;
  // Closed loop, per slice: tuples/s per stream, and CPU s per M tuples.
  std::vector<double> slice_tput;
  std::vector<double> slice_cpu;
  int threads_seen = 0;
  double node_busy_frac = 0;
  double ctx_invol_per_s = 0;
  std::vector<double> add_us, remove_us, retire_lag_ms;
  // Traced runs only.
  int64_t push_wall_ns = 0;
  int64_t push_cpu_ns = 0;
  uint64_t polls = 0;
  uint64_t useful_polls = 0;
  int64_t useful_poll_self_ns = 0;  ///< Poll time minus handler time
  int64_t empty_poll_self_ns = 0;
  double backlog_sum = 0;
  double backlog_max = 0;
  uint64_t backlog_samples = 0;
  int64_t handler_ns = 0;
  // The median slice on closed loops; the whole run on open loops, whose
  // rate the schedule fixes.
  double Throughput() const {
    if (slice_tput.empty()) return static_cast<double>(tuples) / 2.0 / elapsed_s;
    return Quantile(slice_tput, 0.5);
  }
  double CpuSecondsPerMtuple() const {
    if (slice_cpu.empty()) return cpu_s / (static_cast<double>(tuples) / 1e6);
    return Quantile(slice_cpu, 0.5);
  }
};

template <typename Session>
constexpr bool kSharded = requires(const Session& s) { s.shard_count(); };

/// The machine model every threaded session of a run is placed over. It
/// is detected once, before the caller restricts its own CPUs: node
/// threads inherit the caller's affinity, and detection reads it.
///
/// Every shard of a single-node host gets the whole topology, so the
/// default placement would pin each shard's first node to the same CPU,
/// and the shards would time-share it. For sharded workloads the model
/// gives each shard its own share of the CPUs instead, so the shards run
/// side by side. Either way CPUs stay free for the caller (see
/// CallerCpus).
std::shared_ptr<const sjoin::Topology> SessionTopology(const Workload& w) {
  sjoin::Topology host = sjoin::Topology::Detect();
  const int cpus = host.cpu_count();
  if (w.shards > 1 && host.node_count() == 1 &&
      cpus >= w.shards * (w.nodes + 1)) {
    sjoin::Topology::SyntheticShape shape;
    shape.nodes_per_package = w.shards;
    shape.cores_per_node = cpus / w.shards;
    host = sjoin::Topology::Synthetic(shape);
  }
  return std::make_shared<const sjoin::Topology>(std::move(host));
}

/// The CPUs the default placement leaves to the caller: all but the first
/// `nodes` CPUs of each shard's NUMA node (of the whole model when there
/// is one shard), where the session pins its node threads.
std::vector<int> CallerCpus(const Workload& w, const sjoin::Topology& t) {
  std::vector<int> numa;
  for (const sjoin::TopoCpu& c : t.entries()) {
    if (std::find(numa.begin(), numa.end(), c.node) == numa.end()) {
      numa.push_back(c.node);
    }
  }
  std::vector<int> taken;
  for (int k = 0; k < w.shards; ++k) {
    const std::vector<int> share =
        w.shards == 1 ? t.cpus()
                      : t.CpusOnNode(numa[static_cast<std::size_t>(k) % numa.size()]);
    const auto n = std::min<std::size_t>(share.size(), static_cast<std::size_t>(w.nodes));
    taken.insert(taken.end(), share.begin(), share.begin() + static_cast<std::ptrdiff_t>(n));
  }
  std::vector<int> free;
  for (int cpu : t.cpus()) {
    if (std::find(taken.begin(), taken.end(), cpu) == taken.end()) free.push_back(cpu);
  }
  return free;
}

/// Restricts the calling thread to `cpus`; false (affinity unchanged)
/// when the set is empty or the kernel refuses it.
bool RunOn(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &set);
  }
  return CPU_COUNT(&set) > 0 && sched_setaffinity(0, sizeof(set), &set) == 0;
}

template <typename Session>
std::unique_ptr<Session> MakeSession(
    const Workload& w, bool threaded,
    std::shared_ptr<const sjoin::Topology> topology) {
  sjoin::JoinConfig c;
  c.algorithm = sjoin::Algorithm::kLowLatency;
  c.parallelism = w.nodes;
  c.window_r = w.window;
  c.window_s = w.window;
  c.threaded = threaded;
  c.topology = std::move(topology);
  if constexpr (kSharded<Session>) {
    sjoin::ShardedJoinConfig sc;
    sc.shard = c;
    sc.shards = w.shards;
    sc.partition = sjoin::PartitionPolicy::kHashKey;
    return std::make_unique<Session>(sc);
  } else {
    return std::make_unique<Session>(c);
  }
}

/// Appends `reps` setup_s samples: the wall time of session construction,
/// the standing AddQuery calls and the start of the node threads.
/// ShardedJoinSession starts its shards at the first push, so its setup
/// includes one single-tuple push.
template <typename Session, typename Pred>
void SetupSamples(const Workload& w, const Inputs& in,
                  const std::shared_ptr<const sjoin::Topology>& topology,
                  int reps, std::vector<double>* samples) {
  sjoin::CountingHandler<RTuple, STuple> sink;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t t0 = NowNs();
    auto session = MakeSession<Session>(w, true, topology);
    for (int q = 0; q < w.standing; ++q) session->AddQuery(Pred{}, &sink);
    if constexpr (kSharded<Session>) {
      session->PushR(in.R(0), 0);
    } else {
      session->Start();
    }
    samples->push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
}

/// One measured run. Rec is SpanRecorder (traced) or NoSpans (untraced).
template <typename Session, typename Pred, typename Rec>
RunResult RunOnce(const Workload& w, const Inputs& in, const RunOptions& o,
                  Rec& rec) {
  constexpr bool kTrace = std::is_same_v<Rec, SpanRecorder>;
  using Handle = typename Session::QueryHandle;
  RunResult res;
  DueClock due;
  due.w = &w;
  due.open_loop = o.open_loop;
  due.slot_ns = w.SlotNs();
  BenchHandler<kTrace> handler(&due, o.drop_at, o.dup_at);
  auto session = MakeSession<Session>(w, o.threaded, o.topology);
  for (int q = 0; q < w.standing; ++q) session->AddQuery(Pred{}, &handler);
  if constexpr (!kSharded<Session>) session->Start();

  std::map<sjoin::QueryId, int64_t> removed_ns;
  std::optional<Handle> churn;
  const auto add_query = [&] {
    rec.Begin(Layer::kAddQuery);
    const int64_t t = NowNs();
    const Handle h = session->AddQuery(Pred{}, &handler);
    res.add_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    rec.End();
    return h;
  };
  const auto remove_query = [&](Handle h) {
    rec.Begin(Layer::kRemoveQuery);
    const int64_t t = NowNs();
    session->RemoveQuery(h);
    removed_ns[h.id] = t;
    res.remove_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
    rec.End();
  };
  const auto poll = [&] {
    if constexpr (kTrace) {
      const uint64_t seen = handler.seen();
      const int64_t h0 = handler.handler_ns();
      rec.Begin(Layer::kPoll);
      const int64_t t0 = NowNs();
      session->Poll();
      const int64_t handler_ns = handler.handler_ns() - h0;
      const int64_t self_ns = NowNs() - t0 - handler_ns;
      const bool useful = handler.seen() > seen;
      rec.Child(Layer::kHandler, handler_ns);
      rec.End(useful);
      ++res.polls;
      if (useful) {
        ++res.useful_polls;
        res.useful_poll_self_ns += self_ns;
      } else {
        res.empty_poll_self_ns += self_ns;
      }
    } else {
      session->Poll();
    }
  };

  const uint64_t open_pushes =
      2 * (static_cast<uint64_t>(o.seconds * static_cast<double>(w.rate_per_stream)) /
           w.span);
  if (!o.open_loop) {
    const auto guess = static_cast<std::size_t>(o.seconds * 4096) + 64;
    due.push_ns[kR].reserve(guess);
    due.push_ns[kS].reserve(guess);
  }
  std::vector<sjoin::Timestamp> ts(w.span);
  const auto threads0 = OtherThreadCpuNs();
  const int64_t invol0 = InvoluntarySwitches();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t begin = NowNs();
  const int64_t deadline = begin + static_cast<int64_t>(o.seconds * 1e9);
  due.t0_ns = begin + kOpenLoopLeadNs;
  int64_t prev_return = begin;
  int64_t slice_t0 = begin;
  int64_t slice_cpu0 = cpu0;
  uint64_t slice_p0 = 0;
  rec.Begin(Layer::kRun);
  for (uint64_t p = 0;; ++p) {
    if (o.max_pushes > 0) {
      if (p >= o.max_pushes) break;
    } else if (o.open_loop) {
      if (p >= open_pushes) break;
    } else if (p % 2 == 0) {
      const int64_t now = NowNs();
      if (p > slice_p0 && (now - slice_t0 >= kSliceNs || now >= deadline)) {
        const int64_t cpu = ProcessCpuNs();
        const auto sliced = static_cast<double>((p - slice_p0) * w.span);
        res.slice_tput.push_back(sliced / 2.0 /
                                 (static_cast<double>(now - slice_t0) / 1e9));
        res.slice_cpu.push_back(static_cast<double>(cpu - slice_cpu0) / 1e9 /
                                (sliced / 1e6));
        slice_t0 = now;
        slice_cpu0 = cpu;
        slice_p0 = p;
      }
      if (now >= deadline) break;
    }
    const int side = static_cast<int>(p % 2);
    const uint64_t first = (p / 2) * w.span;
    if (w.churn_every > 0 && p > 0 && p % w.churn_every == 0) {
      if ((p / w.churn_every) % 2 == 1) {
        churn = add_query();
      } else {
        remove_query(*churn);
        churn.reset();
      }
    }
    int64_t due_ns = prev_return;
    if (o.open_loop) {
      due_ns = due.Due(side, first + w.span - 1);
      while (NowNs() < due_ns) poll();
    }
    const int64_t start = NowNs();
    res.gen_lag_ms.push_back(static_cast<double>(start - due_ns) / 1e6);
    if (!o.open_loop) due.push_ns[side].push_back(start);
    for (uint64_t j = 0; j < w.span; ++j) ts[j] = w.Ts(side, first + j);
    const uint64_t pool_at = first & (Inputs::kPool - 1);
    rec.Begin(Layer::kPush);
    int64_t cpu_before = 0;
    if constexpr (kTrace) cpu_before = ThreadCpuNs();
    if (side == kR) {
      session->PushR(std::span<const RTuple>(in.r.data() + pool_at, w.span),
                     std::span<const sjoin::Timestamp>(ts));
    } else {
      session->PushS(std::span<const STuple>(in.s.data() + pool_at, w.span),
                     std::span<const sjoin::Timestamp>(ts));
    }
    if constexpr (kTrace) res.push_cpu_ns += ThreadCpuNs() - cpu_before;
    rec.End();
    prev_return = NowNs();
    if constexpr (kTrace) {
      res.push_wall_ns += prev_return - start;
      if constexpr (requires { session->ingest_backlog(); }) {
        const auto backlog = static_cast<double>(session->ingest_backlog());
        res.backlog_sum += backlog;
        res.backlog_max = std::max(res.backlog_max, backlog);
        ++res.backlog_samples;
      }
    }
    res.pushes = p + 1;
    if (!o.open_loop) poll();
  }
  // Every run ends with a live add and immediate removal of a probe query:
  // it times both calls and the retirement on every workload, and since no
  // input is pushed while it is live it must produce no result.
  remove_query(add_query());
  res.threads_seen = ThreadCount();
  {
    const int64_t h0 = handler.handler_ns();
    rec.Begin(Layer::kFinish);
    session->FinishInput();
    rec.Child(Layer::kHandler, handler.handler_ns() - h0);
    rec.End();
  }
  rec.End();
  const int64_t end = NowNs();
  res.rss_mb = PeakRssMb();
  res.cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) / 1e9;
  res.elapsed_s = static_cast<double>(end - begin) / 1e9;
  const auto threads1 = OtherThreadCpuNs();
  res.ctx_invol_per_s =
      static_cast<double>(InvoluntarySwitches() - invol0) / res.elapsed_s;
  if (!threads1.empty()) {
    double busy = 0;
    for (const auto& [tid, cpu] : threads1) {
      const auto it = threads0.find(tid);
      busy += static_cast<double>(cpu - (it == threads0.end() ? 0 : it->second));
    }
    res.node_busy_frac = busy / static_cast<double>(threads1.size()) /
                         static_cast<double>(end - begin);
  }
  res.handler_ns = handler.handler_ns();
  for (const auto& [q, at] : removed_ns) {
    const auto it = handler.retired_ns().find(q);
    if (it != handler.retired_ns().end()) {
      res.retire_lag_ms.push_back(static_cast<double>(it->second - at) / 1e6);
    }
  }
  const LatencyHist& lat = handler.latency();
  res.p50_ms = lat.QuantileMs(0.50);
  res.p95_ms = lat.QuantileMs(0.95);
  res.p99_ms = lat.QuantileMs(0.99);
  res.p999_ms = lat.QuantileMs(0.999);
  res.tuples = res.pushes * w.span;
  res.results = handler.digest().results;

  const Digest want = Reference<Pred>(w, in, res.pushes);
  res.failed = DigestFailures(want, handler.digest()) +
               session->tuples_shed(sjoin::StreamSide::kR) +
               session->tuples_shed(sjoin::StreamSide::kS) +
               session->pipeline_anomalies() +
               (removed_ns.size() == res.retire_lag_ms.size() ? 0 : 1);
  return res;
}

/// Proves the reference check is armed on this workload's shape: on a
/// small non-threaded run the indexed reference equals the brute-force
/// one, a clean run has no failure, and a lost, a duplicated, and a lost
/// plus a duplicated result each make the failure count non-zero.
template <typename Session, typename Pred>
bool SelfTest(const Workload& w, uint64_t seed, std::string* why) {
  Workload small = w;
  small.window = w.window.is_count()
                     ? sjoin::WindowSpec::Count(300)
                     : sjoin::WindowSpec::Time(300 * w.TsStepUs());
  small.key_domain = 200;
  if (small.churn_every > 0) small.churn_every = 10;
  const Inputs in = MakeInputs(small, seed);
  const uint64_t pushes = 120;
  const Digest indexed = Reference<Pred>(small, in, pushes);
  const Digest brute = Reference<Pred, false>(small, in, pushes);
  if (!(indexed == brute)) {
    *why = "indexed reference disagrees with brute force";
    return false;
  }
  if (indexed.results < 4) {
    *why = "too few results to inject faults into";
    return false;
  }
  const int64_t mid = static_cast<int64_t>(indexed.results / 2);
  const std::array<std::pair<int64_t, int64_t>, 4> faults = {
      std::pair<int64_t, int64_t>{-1, -1}, {mid, -1}, {-1, mid}, {1, mid}};
  for (const auto& [drop, dup] : faults) {
    RunOptions o;
    o.threaded = false;
    o.max_pushes = pushes;
    o.drop_at = drop;
    o.dup_at = dup;
    NoSpans none;
    const RunResult r = RunOnce<Session, Pred>(small, in, o, none);
    const bool faulty = drop >= 0 || dup >= 0;
    if ((r.failed > 0) != faulty) {
      *why = std::string("reference check ") +
             (faulty ? "missed an injected fault" : "failed a clean run");
      return false;
    }
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

template <typename Session, typename Pred>
int RunWorkload(const Workload& w, const Args& a) {
  const int nproc = sjoin::AvailableCpuCount();
  if (w.Threads() > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %d threads (%d nodes x %d shards + the "
                 "caller) but only %d CPUs are available; refusing to run\n",
                 w.name.c_str(), w.Threads(), w.nodes, w.shards, nproc);
    return 3;
  }
  // The caller runs only on CPUs the node placements leave free, so the
  // scheduler never parks it on a node's CPU while that node sleeps in its
  // idle backoff.
  const std::shared_ptr<const sjoin::Topology> topology = SessionTopology(w);
  const std::vector<int> caller_cpus = CallerCpus(w, *topology);
  std::string caller_list;
  if (RunOn(caller_cpus)) {
    for (int cpu : caller_cpus) {
      caller_list += (caller_list.empty() ? "" : ",") + std::to_string(cpu);
    }
  } else {
    caller_list = "any";
  }
  const Inputs in = MakeInputs(w, a.seed);
  std::string why;
  if (!SelfTest<Session, Pred>(w, a.seed, &why)) {
    std::fprintf(stderr, "perfbench: self-test failed on %s: %s\n",
                 w.name.c_str(), why.c_str());
    return 4;
  }
  // The primary phase gives throughput and CPU; latency comes from an
  // open-loop phase at rate_per_stream, since a saturated closed loop
  // measures only how full its queues are. band_paced is open-loop
  // throughout, so its one phase gives both. The open-loop phase runs
  // first: its work is fixed by the schedule, so the peak RSS read after
  // it does not depend on how fast the closed loop ran. A traced
  // invocation measures the phases untraced at half length, then the
  // primary phase traced, so either kind of invocation takes about
  // --seconds.
  const double span_s = a.trace ? a.seconds / 2 : a.seconds;
  RunOptions primary_opt;
  primary_opt.topology = topology;
  primary_opt.open_loop = w.paced;
  primary_opt.seconds = w.paced ? span_s : span_s * kClosedShare;
  RunOptions latency_opt;
  latency_opt.topology = topology;
  latency_opt.open_loop = true;
  latency_opt.seconds = w.paced ? span_s : span_s - primary_opt.seconds;
  std::vector<double> setup;
  const auto set_up = [&](int reps) {
    if (!a.trace) SetupSamples<Session, Pred>(w, in, topology, reps, &setup);
  };
  set_up(1);
  setup.clear();
  set_up(kSetupReps);
  NoSpans none;
  const RunResult paced = RunOnce<Session, Pred>(w, in, latency_opt, none);
  set_up(kSetupReps);
  const RunResult plain =
      w.paced ? paced : RunOnce<Session, Pred>(w, in, primary_opt, none);
  if (!w.paced) set_up(kSetupReps);

  const std::string run_id = w.name + "-" + std::to_string(a.seed) + "-" +
                             std::to_string(NowNs());
  char record[768];
  std::snprintf(record, sizeof(record),
                "{\"run_id\": \"%s\", \"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"nproc\": %d, "
                "\"threads_planned\": %d, \"threads_seen\": %d, "
                "\"caller_cpus\": \"%s\", "
                "\"simd\": \"%s\", \"thp\": \"%s\", \"pmu\": %s, "
                "\"poll_policy\": \"%s\"}",
                run_id.c_str(), w.name.c_str(), a.seed, a.seconds,
                a.trace ? 1 : 0, nproc, w.Threads(), plain.threads_seen,
                caller_list.c_str(),
                sjoin::ToString(sjoin::ActiveSimdLevel()), ThpMode().c_str(),
                PmuAvailable() ? "true" : "false",
                w.paced ? "open loop: busy Poll until the next span is due"
                        : "closed loop: one Poll after every push; latency "
                          "phase: busy Poll until the next span is due");

  if (!a.trace) {
    const uint64_t failed = plain.failed + (w.paced ? 0 : paced.failed);
    const uint64_t attempted = plain.tuples + (w.paced ? 0 : paced.tuples);
    std::printf("fail_frac %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                failed, attempted);
    std::printf("RUN %s\n", record);
    PrintResult(failed == 0, attempted, failed,
                {{"setup_s", Median(setup), "s"},
                 {"tput_tuples_per_s", plain.Throughput(), "1/s"},
                 {"latency_p50_ms", paced.p50_ms, "ms"},
                 {"latency_p95_ms", paced.p95_ms, "ms"},
                 {"cpu_s_per_mtuple", plain.CpuSecondsPerMtuple(), "s"},
                 {"rss_peak_mb", paced.rss_mb, "MB"}});
    return 0;
  }

  SpanRecorder rec(run_id);
  const RunResult traced = RunOnce<Session, Pred>(w, in, primary_opt, rec);
  RunOptions seq_opt;
  seq_opt.seconds = a.seconds * kSequentialShare;
  seq_opt.threaded = false;
  const RunResult sequential = RunOnce<Session, Pred>(w, in, seq_opt, none);

  using RVec = sjoin::VectorStore<RTuple>;
  using SVec = sjoin::VectorStore<STuple>;
  const ReplayStats band =
      ReplayStores<Band, RVec, SVec>(w, in, w.standing, kReplayTuples);
  const ReplayStats equi =
      ReplayStores<Equi, RVec, SVec>(w, in, w.standing, kReplayTuples);
  const ReplayStats& own = std::is_same_v<Pred, Band> ? band : equi;

  std::error_code ec;
  std::filesystem::create_directories(a.trace_dir, ec);
  const std::string trace_path = a.trace_dir + "/" + run_id + ".tsv";
  if (!rec.Write(trace_path, record)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
  }

  const double tuples = static_cast<double>(traced.tuples);
  const double results = static_cast<double>(std::max<uint64_t>(1, traced.results));
  const double caller_ns = static_cast<double>(rec.totals(Layer::kRun).total_ns);
  const double core_self_ns =
      static_cast<double>(rec.totals(Layer::kPush).self_ns +
                          rec.totals(Layer::kFinish).self_ns +
                          rec.totals(Layer::kAddQuery).self_ns +
                          rec.totals(Layer::kRemoveQuery).self_ns);
  const double poll_self_ns = static_cast<double>(rec.totals(Layer::kPoll).self_ns);
  const uint64_t empty_polls = traced.polls - traced.useful_polls;
  const double overhead =
      w.paced ? traced.p50_ms / plain.p50_ms - 1.0
              : plain.Throughput() / traced.Throughput() - 1.0;
  const auto per = [](int64_t ns, uint64_t n) {
    return static_cast<double>(ns) / static_cast<double>(std::max<uint64_t>(1, n));
  };
  const uint64_t failed = plain.failed + traced.failed + sequential.failed +
                          (w.paced ? 0 : paced.failed);
  const uint64_t attempted = plain.tuples + traced.tuples + sequential.tuples +
                             (w.paced ? 0 : paced.tuples);
  std::printf("RUN %s\n", record);
  PrintResult(
      failed == 0, attempted, failed,
      {{"core.push_wall_ns_per_tuple", per(traced.push_wall_ns, traced.tuples), "ns"},
       {"core.push_cpu_ns_per_tuple", per(traced.push_cpu_ns, traced.tuples), "ns"},
       {"core.push_wait_frac",
        1.0 - static_cast<double>(traced.push_cpu_ns) /
                  static_cast<double>(traced.push_wall_ns),
        "frac"},
       {"core.finish_ms", static_cast<double>(rec.totals(Layer::kFinish).total_ns) / 1e6, "ms"},
       {"core.add_query_us", Median(traced.add_us), "us"},
       {"core.remove_query_us", Median(traced.remove_us), "us"},
       {"core.self_frac", core_self_ns / caller_ns, "frac"},
       {"core.sequential_tput", sequential.Throughput(), "1/s"},
       {"stream.poll_ns_per_result",
        static_cast<double>(traced.useful_poll_self_ns) / results, "ns"},
       {"stream.empty_poll_ns", per(traced.empty_poll_self_ns, empty_polls), "ns"},
       {"stream.poll_useful_frac",
        static_cast<double>(traced.useful_polls) /
            static_cast<double>(std::max<uint64_t>(1, traced.polls)),
        "frac"},
       {"stream.results_per_tuple", static_cast<double>(traced.results) / tuples, "count"},
       {"stream.handler_ns_per_result", static_cast<double>(traced.handler_ns) / results, "ns"},
       {"stream.self_frac", poll_self_ns / caller_ns, "frac"},
       {"stream.retire_lag_ms", Median(traced.retire_lag_ms), "ms"},
       {"runtime.backlog_mean",
        traced.backlog_sum /
            static_cast<double>(std::max<uint64_t>(1, traced.backlog_samples)),
        "msgs"},
       {"runtime.backlog_max", traced.backlog_max, "msgs"},
       {"runtime.node_busy_frac", traced.node_busy_frac, "frac"},
       {"runtime.ctx_switch_invol_per_s", traced.ctx_invol_per_s, "1/s"},
       {"llhj.store.band_probe_ns", per(band.probe_ns, band.probes), "ns"},
       {"llhj.store.band_evals_per_s", band.entry_evals / (static_cast<double>(band.probe_ns) / 1e9), "1/s"},
       {"llhj.store.equi_probe_ns", per(equi.probe_ns, equi.probes), "ns"},
       {"llhj.store.insert_ns", per(own.insert_ns, own.inserts), "ns"},
       {"llhj.store.expire_ns", per(own.expire_ns, own.expiries), "ns"},
       {"llhj.store.matches_per_probe",
        static_cast<double>(own.matches) / static_cast<double>(std::max<uint64_t>(1, own.probes)),
        "count"},
       {"gen.lag_p99_ms", Quantile(paced.gen_lag_ms, 0.99), "ms"},
       {"gen.lag_max_ms", Quantile(paced.gen_lag_ms, 1.0), "ms"},
       {"latency_p99_ms", paced.p99_ms, "ms"},
       {"latency_p999_ms", paced.p999_ms, "ms"},
       {"trace.overhead_frac", overhead, "frac"}});
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\nworkloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--trace-dir") {
      a.trace_dir = val;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || a.seconds <= 0) return Usage();
  for (const Workload& w : Workloads()) {
    if (w.name != a.workload) continue;
    if (w.sharded) {
      return RunWorkload<sjoin::ShardedJoinSession<RTuple, STuple, Equi>, Equi>(w, a);
    }
    return RunWorkload<sjoin::JoinSession<RTuple, STuple, Band>, Band>(w, a);
  }
  return Usage();
}
