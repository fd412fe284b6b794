// One shard of a session: a join engine together with its result collector
// and its executor. A shard knows nothing about windows, sequence numbers,
// admission or queries' lifecycles — the session driver core
// (core/session_core.hpp) owns all of that and feeds each shard the
// already-driven event stream through a narrow interface:
//
//   Arrive<side>(tuple, seq, ts, epoch)   an admitted arrival
//   Expire(side, seq, ts)                 a window expiry of a tuple this
//                                         shard received
//   Loss(side, first_seq, count)          an in-band loss bound
//   InstallEpoch(epoch, set, ids)         a live query-set switch
//   EndPush(side)                         the end of one push call
//
// Pipelined engines (HSJ, LLHJ) stage arrivals, expiries and loss bounds in
// flow order and burst-deliver them at EndPush (DESIGN.md Section 8);
// the baselines (Kang, CellJoin) apply every event synchronously.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/cell_join.hpp"
#include "baseline/kang_join.hpp"
#include "common/clock.hpp"
#include "common/types.hpp"
#include "hsj/hsj_pipeline.hpp"
#include "llhj/llhj_pipeline.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "runtime/placement.hpp"
#include "runtime/topology.hpp"
#include "stream/admission.hpp"
#include "stream/collector.hpp"
#include "stream/handlers.hpp"
#include "stream/message.hpp"
#include "stream/ports.hpp"
#include "stream/query_set.hpp"
#include "stream/script.hpp"
#include "stream/window.hpp"

namespace sjoin {

/// The four join engines of this library.
enum class Algorithm : uint8_t {
  kKang,        ///< sequential three-step procedure (Section 2.1)
  kCellJoin,    ///< parallel window scan (Section 2.2.1)
  kHandshake,   ///< original handshake join (Section 2.3)
  kLowLatency,  ///< low-latency handshake join (Section 4)
};

constexpr const char* ToString(Algorithm a) {
  switch (a) {
    case Algorithm::kKang:
      return "kang";
    case Algorithm::kCellJoin:
      return "celljoin";
    case Algorithm::kHandshake:
      return "handshake";
    case Algorithm::kLowLatency:
      return "llhj";
  }
  return "?";
}

struct JoinConfig {
  Algorithm algorithm = Algorithm::kLowLatency;

  /// Pipeline nodes (HSJ/LLHJ) or scan threads (CellJoin: parallelism - 1
  /// workers next to the caller thread). Must be >= 1.
  int parallelism = 4;

  WindowSpec window_r = WindowSpec::Count(1024);
  WindowSpec window_s = WindowSpec::Count(1024);

  /// Pipeline tuning. Capacities must be non-zero.
  std::size_t channel_capacity = 1024;
  std::size_t result_capacity = 1 << 16;

  /// Emit punctuations into the output stream (LLHJ only, Section 6).
  bool punctuate = false;

  /// Run pipeline nodes on their own pinned threads. When false, the
  /// pipeline advances inside Push/Poll on the caller's thread
  /// (deterministic; useful for tests and small workloads).
  bool threaded = true;

  /// Hardware placement policy for threaded pipelines (see
  /// runtime/placement.hpp): where node threads are pinned and which NUMA
  /// node each channel ring is homed on (always the consumer's). kAuto
  /// degrades to flat sibling-order pinning on single-socket hosts;
  /// kNone pins and binds nothing. Ignored when threaded == false.
  PlacementPolicy placement = PlacementPolicy::kAuto;

  /// Hardware model to place over. Null = detect once at session start
  /// (the detected topology is cached and reused for the session's whole
  /// lifetime). Tests inject synthetic shapes here; deployments on
  /// restricted cpusets can pass a pre-filtered topology.
  std::shared_ptr<const Topology> topology;

  /// HSJ only: expected window size in tuples used to derive the per-node
  /// segment capacity. Required (> 0) when either window is time-based —
  /// it must be a *lower* estimate of the live window (smaller segments
  /// mean more relocation, which is always correct; larger ones strand
  /// tuples). Ignored for count windows.
  int64_t hsj_window_tuples_hint = 0;

  /// Overload control (DESIGN.md Section 12). When a latency budget is set
  /// (> 0, microseconds) together with a shedding policy, tuples whose
  /// projected end-to-end latency exceeds the budget are shed AT INGEST —
  /// never mid-window — and every gap is announced in-band to the handlers
  /// via OutputHandler::OnLoss with exact per-side (first_seq, count)
  /// bounds. 0 + kNone (the default) disables admission entirely; bounded
  /// queues then provide lossless backpressure as before.
  int64_t latency_budget_us = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kNone;
};

/// Rejects configurations that would misbehave silently. Throws
/// std::invalid_argument with a message naming the offending field AND the
/// offending value (a validation error should be self-diagnosing).
inline void ValidateJoinConfig(const JoinConfig& config) {
  if (config.parallelism < 1) {
    throw std::invalid_argument(
        "JoinConfig: parallelism must be >= 1, got " +
        std::to_string(config.parallelism));
  }
  if (config.channel_capacity == 0) {
    throw std::invalid_argument(
        "JoinConfig: channel_capacity must be > 0, got " +
        std::to_string(config.channel_capacity) +
        " (bounded channels provide the backpressure; zero would make every "
        "push undeliverable)");
  }
  if (config.result_capacity == 0) {
    throw std::invalid_argument("JoinConfig: result_capacity must be > 0, "
                                "got " +
                                std::to_string(config.result_capacity));
  }
  if (static_cast<uint8_t>(config.placement) >
      static_cast<uint8_t>(PlacementPolicy::kNone)) {
    throw std::invalid_argument(
        "JoinConfig: placement must be auto|compact|scatter|none, got enum "
        "value " +
        std::to_string(static_cast<int>(config.placement)));
  }
  if (config.hsj_window_tuples_hint < 0) {
    // When given at all (non-zero), the hint must be a usable window size.
    throw std::invalid_argument(
        "JoinConfig: hsj_window_tuples_hint must be >= 1 when given, got " +
        std::to_string(config.hsj_window_tuples_hint));
  }
  if (config.algorithm == Algorithm::kHandshake &&
      (config.window_r.is_time() || config.window_s.is_time()) &&
      config.hsj_window_tuples_hint <= 0) {
    throw std::invalid_argument(
        "JoinConfig: a handshake join over time windows requires "
        "hsj_window_tuples_hint (> 0), a lower estimate of the live window "
        "in tuples, to size the per-node segments; got " +
        std::to_string(config.hsj_window_tuples_hint));
  }
  if (config.latency_budget_us < 0) {
    throw std::invalid_argument(
        "JoinConfig: latency_budget_us must be >= 0 (0 disables admission), "
        "got " +
        std::to_string(config.latency_budget_us));
  }
  if (config.overload_policy != OverloadPolicy::kNone &&
      config.latency_budget_us == 0) {
    throw std::invalid_argument(
        std::string("JoinConfig: overload_policy \"") +
        ToString(config.overload_policy) +
        "\" requires a latency budget to shed against; got "
        "latency_budget_us = 0 (set a positive budget, or use policy "
        "\"none\")");
  }
}

template <typename R, typename S, typename Pred>
class EngineShard {
 public:
  explicit EngineShard(const JoinConfig& config) : config_(config) {}
  ~EngineShard() { Stop(); }

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Builds the engine with `set` (dense lanes mapped to the session-wide
  /// `ids`) as query epoch 0. Results, punctuations, loss bounds and epoch
  /// drains all go to `out`.
  void Start(QuerySet<Pred> set, std::vector<QueryId> ids,
             OutputHandler<R, S>* out) {
    out_ = out;
    switch (config_.algorithm) {
      case Algorithm::kKang:
      case Algorithm::kCellJoin: {
        own_registry_ = std::make_unique<QueryEpochRegistry<Pred>>();
        registry_ = own_registry_.get();
        registry_->Install(std::move(set), std::move(ids));
        active_snap_ = registry_->Get(0);
        fan_out_ = FanOutSink{this};
        if (config_.algorithm == Algorithm::kKang) {
          kang_ = std::make_unique<KangJoin<R, S, UnionPred, FanOutSink>>(
              &fan_out_, UnionPred{this});
        } else {
          typename CellJoin<R, S, UnionPred, FanOutSink>::Options options;
          options.workers = config_.parallelism - 1;
          cell_ = std::make_unique<CellJoin<R, S, UnionPred, FanOutSink>>(
              &fan_out_, UnionPred{this}, options);
        }
        return;
      }
      case Algorithm::kHandshake: {
        typename HsjPipeline<R, S, Pred>::Options options;
        options.nodes = config_.parallelism;
        options.result_capacity = config_.result_capacity;
        const int64_t window_tuples = HsjWindowTuples();
        // Segments self-balance (capacity 0), adapting to the live window.
        // HSJ correctness requires the driver's lead over the pipeline to
        // stay well below the window (DESIGN.md, bounded-lag regime): cap
        // the entry channels, and additionally gate deliveries on the total
        // pipeline backlog (see DeliverStage) since thread starvation can
        // build backlog in interior channels too.
        options.channel_capacity = std::min<std::size_t>(
            config_.channel_capacity,
            std::max<std::size_t>(
                8, static_cast<std::size_t>(window_tuples / 4)));
        hsj_lag_budget_ = std::max<std::size_t>(
            16, static_cast<std::size_t>(window_tuples / 2));
        options.placement = Placement();
        hsj_ = std::make_unique<HsjPipeline<R, S, Pred>>(options, set,
                                                         std::move(ids));
        SetUpPipeline(*hsj_);
        return;
      }
      case Algorithm::kLowLatency: {
        typename LlhjPipeline<R, S, Pred>::Options options;
        options.nodes = config_.parallelism;
        options.channel_capacity = config_.channel_capacity;
        options.result_capacity = config_.result_capacity;
        options.punctuate = config_.punctuate;
        options.placement = Placement();
        llhj_ = std::make_unique<LlhjPipeline<R, S, Pred>>(options, set,
                                                           std::move(ids));
        SetUpPipeline(*llhj_);
        return;
      }
    }
  }

  // -- The driver-facing interface -------------------------------------------

  template <StreamSide kSide, typename T>
  void Arrive(const T& tuple, Seq seq, Timestamp ts, Epoch epoch) {
    if (!pipelined_) {
      DriverEvent<R, S> event;
      event.seq = seq;
      event.ts = ts;
      if constexpr (kSide == StreamSide::kR) {
        event.op = DriverOp::kArriveR;
        event.r = tuple;
      } else {
        event.op = DriverOp::kArriveS;
        event.s = tuple;
      }
      Apply(event);
      return;
    }
    FlowMsg<T> msg;
    msg.kind = MsgKind::kArrival;
    msg.seq = seq;
    msg.ts = ts;
    msg.epoch = epoch;
    msg.arrival_wall_ns = NowNs();
    msg.payload = tuple;
    if constexpr (kSide == StreamSide::kR) {
      left_stage_.push_back(msg);
    } else {
      right_stage_.push_back(msg);
    }
  }

  /// The expiry of tuple `seq` of `side` enters the opposite flow. LLHJ
  /// stages it at its exact flow position (the completion gate applies at
  /// delivery, see DeliverStage); HSJ follows the one HSJ expiry rule
  /// (ExpireHsj); the baselines apply it at once.
  void Expire(StreamSide side, Seq seq, Timestamp ts) {
    if (llhj_ != nullptr) {
      if (side == StreamSide::kR) {
        right_stage_.push_back(ExpiryMsg<S>(side, seq, ts));
      } else {
        left_stage_.push_back(ExpiryMsg<R>(side, seq, ts));
      }
    } else if (hsj_ != nullptr) {
      ExpireHsj(side, seq, ts);
    } else {
      DriverEvent<R, S> event;
      event.op = side == StreamSide::kR ? DriverOp::kExpireR
                                        : DriverOp::kExpireS;
      event.seq = seq;
      event.ts = ts;
      Apply(event);
    }
  }

  /// A loss bound travels in-band on the flow the shed arrivals would have
  /// taken; the synchronous baselines have no in-flight results to order
  /// it against and report it at once.
  void Loss(StreamSide side, Seq first_seq, uint64_t count) {
    if (!pipelined_) {
      out_->OnLoss(side, first_seq, count);
    } else if (side == StreamSide::kR) {
      left_stage_.push_back(MakeLossPunct<R>(side, first_seq, count));
    } else {
      right_stage_.push_back(MakeLossPunct<S>(side, first_seq, count));
    }
  }

  /// Switches to epoch `epoch` = (`set`, `ids`) at the current flow
  /// position: an in-band kEpochChange on both flows for the pipelines; an
  /// immediate (and immediately drained) switch for the baselines.
  void InstallEpoch(Epoch epoch, QuerySet<Pred> set, std::vector<QueryId> ids) {
    registry_->Install(std::move(set), std::move(ids));
    if (!pipelined_) {
      active_snap_ = registry_->Get(epoch);
      out_->OnEpochDrained(epoch);
      return;
    }
    FlowMsg<R> left;
    left.kind = MsgKind::kEpochChange;
    left.epoch = epoch;
    PushBlocking(ports_.left, left);
    FlowMsg<S> right;
    right.kind = MsgKind::kEpochChange;
    right.epoch = epoch;
    PushBlocking(ports_.right, right);
    DrainIfSynchronous();
  }

  /// Delivers both staged flows, the pushed side first: an expiry staged in
  /// the opposite flow may be gated on the completion of an arrival from
  /// this very push, so the arrivals must reach the pipeline first.
  void EndPush(StreamSide side) {
    if (!pipelined_) return;
    FlushStages(side);
    DrainIfSynchronous();
  }

  // -- Output and lifecycle ------------------------------------------------

  void Poll() {
    if (collector_ == nullptr) return;  // Kang/Cell deliver synchronously
    if (!config_.threaded) sequential_.RunUntilQuiescent();
    collector_->VacuumOnce();
  }

  /// End of input: delivers what is still staged, flushes the handshake
  /// join (so pairs still separated inside it meet) and drains every
  /// result to the output.
  void Finish() {
    if (!pipelined_) return;
    FlushStages(StreamSide::kR);
    if (hsj_ != nullptr) {
      FlowMsg<R> flush_r;
      flush_r.kind = MsgKind::kFlush;
      PushBlocking(ports_.left, flush_r);
      FlowMsg<S> flush_s;
      flush_s.kind = MsgKind::kFlush;
      PushBlocking(ports_.right, flush_s);
    }
    if (!config_.threaded) {
      sequential_.RunUntilQuiescent();
      collector_->VacuumOnce();
      return;
    }
    WaitQuiescentThreaded();
  }

  void Stop() {
    if (executor_ != nullptr) executor_->Stop();
    if (collector_ != nullptr) collector_->VacuumOnce();
  }

  /// Messages queued in the pipeline's channels (result queues excluded —
  /// their occupancy is the application's polling cadence, not pipeline
  /// pressure). Zero for the synchronous baselines.
  std::size_t backlog() const {
    if (hsj_ != nullptr) return hsj_->ApproxChannelBacklog();
    if (llhj_ != nullptr) return llhj_->ApproxChannelBacklog();
    return 0;
  }

  uint64_t anomalies() const {
    if (hsj_ != nullptr) return hsj_->total_anomalies();
    if (llhj_ != nullptr) return llhj_->total_anomalies();
    return 0;
  }

  const JoinConfig& config() const { return config_; }

 private:
  using Snapshot = QueryEpochSnapshot<Pred>;

  /// Baseline engines evaluate the union of the ACTIVE epoch's predicates
  /// while scanning; the sink then fans each match out to the queries that
  /// actually satisfied it (per-query re-evaluation only on the hit path).
  /// Both read the active snapshot at call time, so an epoch install takes
  /// effect at exactly the next event.
  struct UnionPred {
    const EngineShard* shard = nullptr;
    bool operator()(const R& r, const S& s) const {
      return shard->active_snap_->set.AnyMatch(r, s);
    }
  };

  struct FanOutSink {
    EngineShard* shard = nullptr;
    void Emit(const ResultMsg<R, S>& m) {
      const Snapshot& snap = *shard->active_snap_;
      snap.set.Match(m.r, m.s, [&](QueryId lane) {
        ResultMsg<R, S> tagged = m;
        tagged.query = snap.GlobalId(lane);
        // Baselines evaluate at the later input's push; the active epoch
        // IS that input's epoch.
        tagged.epoch = snap.epoch;
        shard->out_->OnResult(tagged);
      });
    }
  };

  template <typename T>
  static FlowMsg<T> ExpiryMsg(StreamSide side, Seq seq, Timestamp ts) {
    FlowMsg<T> msg;
    msg.kind = MsgKind::kExpiry;
    msg.ref_side = side;
    msg.seq = seq;
    msg.ts = ts;
    return msg;
  }

  void Apply(const DriverEvent<R, S>& event) {
    if (kang_ != nullptr) {
      kang_->OnEvent(event);
    } else {
      cell_->OnEvent(event);
    }
  }

  template <typename Pipeline>
  void SetUpPipeline(Pipeline& pipeline) {
    pipelined_ = true;
    registry_ = pipeline.registry();
    ports_ = pipeline.ports();
    collector_ = pipeline.MakeCollector(out_);
    // The session driver thread is the feeder and the polling thread the
    // collector; both stay unpinned, but the result rings were homed on
    // the plan's collector node — pull them to the actual polling thread
    // now (before the node threads can produce).
    collector_->PrefaultQueues();
    if (config_.threaded) {
      executor_ = std::make_unique<ThreadedExecutor>(Placement());
      for (Steppable* node : pipeline.nodes()) executor_->Add(node);
      executor_->Start();
    } else {
      for (Steppable* node : pipeline.nodes()) sequential_.Add(node);
    }
  }

  int64_t HsjWindowTuples() const {
    // Count windows state their size directly; time windows require the
    // caller's hint (enforced by ValidateJoinConfig).
    if (config_.window_r.is_count() && config_.window_s.is_count()) {
      return std::max<int64_t>(config_.window_r.size, config_.window_s.size);
    }
    return config_.hsj_window_tuples_hint;
  }

  /// The shard's placement plan, built once from the configured (or
  /// once-detected, then cached) topology — the pipeline homes its channel
  /// memory with the SAME plan the executor pins the node threads with.
  /// Non-threaded shards keep the empty plan: everything runs on the
  /// caller's thread, so there is nothing to pin or bind.
  const PlacementPlan& Placement() {
    if (!placement_built_ && config_.threaded) {
      if (config_.topology == nullptr) {
        config_.topology = std::make_shared<const Topology>(Topology::Detect());
      }
      plan_ = PlacementPlan::Build(*config_.topology, config_.placement,
                                   config_.parallelism, kHelperCount);
    }
    placement_built_ = true;
    return plan_;
  }

  /// The one HSJ expiry rule, at every shard count. HSJ has no per-tuple
  /// completion notion to gate an expiry on (cf. the LLHJ gate), and a
  /// driver may push the next arrival right behind the expiry, so two races
  /// open up that the bounded-lag budget cannot close: (a) the expiry
  /// overtaking its tuple's arrival mid-channel, and (b) a trailing
  /// opposite-side arrival crossing the victim while the expiry chase is
  /// bounced off a concurrent segment relocation. Close (a) by draining the
  /// channels before the expiry enters (every prior arrival stored), and
  /// (b) by letting the pipeline settle afterwards, so the chase has fully
  /// resolved before any later message enters. A non-threaded pipeline is
  /// simply run to quiescence on both sides of the expiry.
  void ExpireHsj(StreamSide side, Seq seq, Timestamp ts) {
    FlushStages(side);
    if (config_.threaded) {
      Backoff backoff;
      while (hsj_->ApproxChannelBacklog() > 0) backoff.Pause();
    } else {
      sequential_.RunUntilQuiescent();
    }
    if (side == StreamSide::kR) {
      PushBlocking(ports_.right, ExpiryMsg<S>(side, seq, ts));
    } else {
      PushBlocking(ports_.left, ExpiryMsg<R>(side, seq, ts));
    }
    if (config_.threaded) {
      AwaitHsjSettled();
    } else {
      sequential_.RunUntilQuiescent();
    }
  }

  void FlushStages(StreamSide first) {
    if (first == StreamSide::kR) {
      DeliverStage(&left_stage_, ports_.left);
      DeliverStage(&right_stage_, ports_.right);
    } else {
      DeliverStage(&right_stage_, ports_.right);
      DeliverStage(&left_stage_, ports_.left);
    }
  }

  /// Blocking burst delivery of one staged flow, preserving order. The
  /// longest prefix up to the first gated expiry is handed to
  /// SpscQueue::TryPushBurst; while the channel is full or the front expiry
  /// is gated, the pipeline is advanced (threaded: it advances itself).
  template <typename T>
  void DeliverStage(std::vector<FlowMsg<T>>* stage,
                    SpscQueue<FlowMsg<T>>* port) {
    if (stage->empty()) return;
    std::size_t head = 0;
    Backoff backoff;
    while (head < stage->size()) {
      if (hsj_ != nullptr && config_.threaded) {
        // Bounded-lag enforcement for the handshake join: the driver never
        // runs more than ~half a window ahead of the pipeline, wherever
        // the backlog sits (entry or interior channels).
        while (hsj_->ApproxChannelBacklog() > hsj_lag_budget_) {
          backoff.Pause();
        }
      }
      std::size_t run = stage->size() - head;
      if (llhj_ != nullptr) {
        // LLHJ expiry gate: an expiry enters only after its tuple finished
        // travelling. Deliver the longest prefix up to the first expiry
        // whose tuple has not completed its expedition yet (messages
        // behind a gated expiry wait with it — flow order preserved).
        const HighWaterMarks& hwm = llhj_->hwm();
        run = 0;
        while (head + run < stage->size()) {
          const FlowMsg<T>& m = (*stage)[head + run];
          if (m.kind == MsgKind::kExpiry &&
              hwm.CompletedSeq(m.ref_side) < static_cast<int64_t>(m.seq)) {
            break;
          }
          ++run;
        }
      }
      if (run == 0) {
        AdvancePipeline(&backoff, "expiry gate");
        continue;
      }
      const std::size_t pushed = port->TryPushBurst(stage->data() + head, run);
      head += pushed;
      if (pushed > 0) backoff.Reset();  // progress: restart the spin ladder
      if (pushed < run) AdvancePipeline(&backoff, "full channel");
    }
    stage->clear();
  }

  /// Makes progress while delivery is blocked: threaded pipelines advance
  /// on their own (back off); non-threaded ones are stepped here.
  void AdvancePipeline(Backoff* backoff, const char* why) {
    if (config_.threaded) {
      backoff->Pause();
      return;
    }
    if (!sequential_.StepOnce()) {
      throw std::runtime_error(
          std::string("pipeline stalled during ingestion (") + why + ")");
    }
    collector_->VacuumOnce();
  }

  template <typename T>
  void PushBlocking(SpscQueue<FlowMsg<T>>* queue, const FlowMsg<T>& msg) {
    Backoff backoff;
    while (!queue->TryPush(msg)) AdvancePipeline(&backoff, "full channel");
  }

  /// Keeps the single-threaded pipeline fully drained between pushes so
  /// the driver never runs ahead of it (exactness for any window size).
  void DrainIfSynchronous() {
    if (!config_.threaded) sequential_.RunUntilQuiescent();
  }

  void AwaitHsjSettled() {
    // The chase is resolved once the channels are empty and the node
    // progress counters hold still across a few spaced reads (a node may
    // briefly hold a forwarded expiry in its out-buffer between consuming
    // and draining, which a single instantaneous backlog read could miss).
    uint64_t last_processed = hsj_->TotalProcessed();
    int stable_rounds = 0;
    while (stable_rounds < 3) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      const bool empty = hsj_->ApproxChannelBacklog() == 0;
      const uint64_t processed = hsj_->TotalProcessed();
      if (empty && processed == last_processed) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
        last_processed = processed;
      }
    }
  }

  void WaitQuiescentThreaded() {
    // Distributed quiescence: channel backlog empty, node progress counters
    // stable, and nothing newly collected — several times in a row.
    uint64_t last_processed = 0;
    uint64_t last_collected = 0;
    int stable_rounds = 0;
    while (stable_rounds < 5) {
      collector_->VacuumOnce();
      const std::size_t backlog =
          hsj_ != nullptr ? hsj_->ApproxBacklog() : llhj_->ApproxBacklog();
      const uint64_t processed = hsj_ != nullptr ? hsj_->TotalProcessed()
                                                 : llhj_->TotalProcessed();
      const uint64_t collected = collector_->total_collected();
      if (backlog == 0 && processed == last_processed &&
          collected == last_collected) {
        ++stable_rounds;
      } else {
        stable_rounds = 0;
        last_processed = processed;
        last_collected = collected;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  JoinConfig config_;
  PlacementPlan plan_;
  bool placement_built_ = false;
  bool pipelined_ = false;
  OutputHandler<R, S>* out_ = nullptr;

  // Epoch machinery: the pipeline's registry, or `own_registry_` for the
  // baselines, whose union predicate reads `active_snap_`.
  QueryEpochRegistry<Pred>* registry_ = nullptr;
  std::unique_ptr<QueryEpochRegistry<Pred>> own_registry_;
  std::shared_ptr<const Snapshot> active_snap_;
  FanOutSink fan_out_;

  std::size_t hsj_lag_budget_ = 1 << 20;
  PipelinePorts<R, S> ports_;
  // Staged flows of the current push (reused across calls; always empty
  // between calls).
  std::vector<FlowMsg<R>> left_stage_;
  std::vector<FlowMsg<S>> right_stage_;

  std::unique_ptr<KangJoin<R, S, UnionPred, FanOutSink>> kang_;
  std::unique_ptr<CellJoin<R, S, UnionPred, FanOutSink>> cell_;
  std::unique_ptr<HsjPipeline<R, S, Pred>> hsj_;
  std::unique_ptr<LlhjPipeline<R, S, Pred>> llhj_;
  std::unique_ptr<Collector<R, S>> collector_;
  std::unique_ptr<ThreadedExecutor> executor_;
  SequentialExecutor sequential_;
};

}  // namespace sjoin
