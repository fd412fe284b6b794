// Multi-query, batch-first session API — the public operator of this
// library. One JoinSession owns the complete operator state: the driver
// (window bookkeeping, expiry generation), the join engine, the transport
// channels and the result collector. N queries (predicates of one type, e.g.
// band predicates with different bounds) share all of it:
//
//   JoinConfig config;
//   config.algorithm = Algorithm::kLowLatency;
//   config.window_r = WindowSpec::Time(5'000'000);
//   config.window_s = WindowSpec::Time(5'000'000);
//   JoinSession<RTuple, STuple, BandPredicate> session(config);
//   auto q0 = session.AddQuery(BandPredicate{10, 10.f}, &tight_handler);
//   auto q1 = session.AddQuery(BandPredicate{50, 50.f}, &wide_handler);
//   session.PushR(r, ts);                  // per-tuple ingestion
//   session.PushR(std::span(rs), std::span(tss));  // batch-first ingestion
//   session.Poll();
//   session.FinishInput();
//
// Every window crossing evaluates all registered predicates in a single
// store traversal; each result is tagged with the QueryId that produced it
// and routed to that query's handler (punctuations broadcast to all).
// Transport and window maintenance — the dominant hot-path costs (paper
// Section 7) — are therefore paid once per tuple, not once per query.
//
// A JoinSession is the session driver core (core/session_core.hpp) over
// exactly one EngineShard (core/engine_shard.hpp); ShardedJoinSession is
// the same core over N shards. Query lifecycle, ingestion and
// introspection are the core's; see there and DESIGN.md Sections 8 and 10.
//
// Rules:
//  * At least one query must be live before the first Push.
//  * Timestamps must be non-decreasing across both Push sides (stream
//    order); batch pushes are equivalent to the per-tuple loop over their
//    span, and a batch is ordered internally by span index.
//  * Live AddQuery/RemoveQuery install a new query epoch at the current
//    driver-order boundary; results are attributed to the epoch of the
//    later-pushed input of the pair.
//  * Baseline engines (Kang, CellJoin) support multi-query through a union
//    predicate plus per-match fan-out at the sink — same semantics, no
//    shared-traversal speedup (they exist as oracles, not deployments).
//    Being synchronous, their epoch installs take effect (and drain)
//    immediately at the call.
#pragma once

#include <memory>
#include <vector>

#include "core/engine_shard.hpp"
#include "core/session_core.hpp"

namespace sjoin {

template <typename R, typename S, typename Pred>
class JoinSession : public SessionCore<R, S, Pred, EngineShard<R, S, Pred>> {
  using Shard = EngineShard<R, S, Pred>;
  using Core = SessionCore<R, S, Pred, Shard>;

 public:
  explicit JoinSession(const JoinConfig& config)
      : Core(CoreOptions(config), OneShard(config)) {}

  Algorithm algorithm() const { return config().algorithm; }
  const JoinConfig& config() const { return this->shard(0).config(); }

 private:
  static typename Core::Options CoreOptions(const JoinConfig& config) {
    ValidateJoinConfig(config);
    typename Core::Options options;
    options.name = "JoinSession";
    options.window_r = config.window_r;
    options.window_s = config.window_s;
    options.latency_budget_us = config.latency_budget_us;
    options.overload_policy = config.overload_policy;
    return options;
  }

  static std::vector<std::unique_ptr<Shard>> OneShard(
      const JoinConfig& config) {
    std::vector<std::unique_ptr<Shard>> shards;
    shards.push_back(std::make_unique<Shard>(config));
    return shards;
  }
};

}  // namespace sjoin
