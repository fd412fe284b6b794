// Sharded multi-pipeline scale-out (DESIGN.md Section 13). A
// ShardedJoinSession is the session driver core (core/session_core.hpp)
// over N independent engine shards, each placed on its own share of the
// machine, behind the SAME API and OutputHandler contract as JoinSession:
//
//   partitioning driver — the core's one driver owns sequence numbering,
//     monotonic timestamps, window bookkeeping (a single ExpiryTracker over
//     the global arrival order) and admission. Every arrival is routed by
//     the resolved PartitionPolicy (stream/partitioner.hpp): equi-joins
//     hash both sides on the join key; band/range predicates replicate one
//     side and round-robin the other. Expiries are routed to exactly the
//     shards that received the tuple. Each push is staged per shard and
//     burst-delivered shard by shard.
//   merging output — every shard reports to the core's one QueryRouter, so
//     per-query attribution, epoch retirement (min over shard drained
//     epochs), punctuations (min over shard punctuations), loss accounting
//     and latency histograms (LatencyHistogram::Merge) look exactly like a
//     single session to the registered handlers.
//
// Correctness: restricting the global driver-event sequence to one shard's
// subset preserves relative order, so a pair (r, s) is live-overlapping on
// its shard iff it is live-overlapping globally; hash partitioning puts
// every matching pair on one shard (ShardKeyTraits contract), replication
// puts every candidate pair on exactly one shard. The result multiset is
// therefore EXACTLY the single-shard oracle's — proven per engine by
// tests/test_sharded.cpp and re-proven on every PR by the CI
// sharded-equivalence leg.
//
// Overload control runs at the driver only (per-shard admission is
// rejected by validation): one latency budget governs the whole session,
// sheds are recorded against global sequence numbers, and each loss gap is
// carried in-band by exactly one shard — the router then reports it
// exactly once per handler, keeping tuples_lost_reported == tuples_shed
// after drain.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/join_session.hpp"
#include "runtime/topology.hpp"
#include "stream/admission.hpp"
#include "stream/partitioner.hpp"
#include "stream/stats.hpp"

namespace sjoin {

struct ShardedJoinConfig {
  /// Per-shard engine configuration (engine, windows, parallelism,
  /// threading, placement...). `shard.topology` is the machine model the
  /// shards are spread over: shard k runs on Topology::ForShard(k, shards)
  /// — the NUMA nodes round-robin, a disjoint slice of a node's CPUs when
  /// several shards share it. Per-shard overload fields must stay
  /// disabled — admission runs at the sharding driver (below).
  JoinConfig shard;

  /// Number of independent pipeline shards. Must be >= 1; 1 degenerates to
  /// a plain JoinSession behind the same API.
  int shards = 2;

  /// How the two input streams are split (stream/partitioner.hpp). kAuto
  /// resolves from the predicate type's metadata.
  PartitionPolicy partition = PartitionPolicy::kAuto;

  /// Sharding-level overload control (DESIGN.md Section 12): one budget and
  /// policy for the whole session, applied at the partitioning driver
  /// against the summed shard backlog and the merged latency EWMA.
  int64_t latency_budget_us = 0;
  OverloadPolicy overload_policy = OverloadPolicy::kNone;
};

/// Rejects shard counts and policies the predicate set cannot support.
/// Throws std::invalid_argument naming the offending field AND value.
template <typename R, typename S, typename Pred>
void ValidateShardedJoinConfig(const ShardedJoinConfig& config) {
  if (config.shards < 1) {
    throw std::invalid_argument(
        "ShardedJoinConfig: shards must be >= 1, got " +
        std::to_string(config.shards));
  }
  if (config.shard.latency_budget_us != 0 ||
      config.shard.overload_policy != OverloadPolicy::kNone) {
    throw std::invalid_argument(
        std::string("ShardedJoinConfig: per-shard overload control must stay "
                    "disabled (got shard.latency_budget_us = ") +
        std::to_string(config.shard.latency_budget_us) +
        ", shard.overload_policy = \"" + ToString(config.shard.overload_policy) +
        "\"); admission runs at the sharding driver, which alone sees the "
        "global sequence numbers the loss accounting is expressed in — set "
        "ShardedJoinConfig::latency_budget_us / overload_policy instead");
  }
  if (config.latency_budget_us < 0) {
    throw std::invalid_argument(
        "ShardedJoinConfig: latency_budget_us must be >= 0 (0 disables "
        "admission), got " +
        std::to_string(config.latency_budget_us));
  }
  if (config.overload_policy != OverloadPolicy::kNone &&
      config.latency_budget_us == 0) {
    throw std::invalid_argument(
        std::string("ShardedJoinConfig: overload_policy \"") +
        ToString(config.overload_policy) +
        "\" requires a latency budget to shed against; got "
        "latency_budget_us = 0 (set a positive budget, or use policy "
        "\"none\")");
  }
  // Resolution throws when the requested policy is infeasible for the
  // predicate type (kHashKey without ShardKeyTraits).
  const PartitionPolicy resolved =
      ResolvePartitionPolicy<Pred, R, S>(config.partition);
  // Chase-convergence envelope for the handshake join: HSJ's expiry chase
  // (hsj_node.hpp) converges only while each shard's live window stays
  // comfortably above the pipeline length — with near-empty segments the
  // chase flip-flops against self-balancing relocations until it exhausts
  // its hop budget and leaks the tuple. Partitioning thins a side's stream
  // by the shard count, so the PER-SHARD window is what must clear the
  // floor. Reject configs below it instead of racing.
  if (config.shard.algorithm == Algorithm::kHandshake && config.shards > 1) {
    const int64_t floor =
        std::max<int64_t>(8, 2 * static_cast<int64_t>(config.shard.parallelism));
    auto check_side = [&](const char* side, const WindowSpec& w) {
      const int64_t global_tuples =
          w.is_count() ? w.size : config.shard.hsj_window_tuples_hint;
      const int64_t per_shard = global_tuples / config.shards;
      if (per_shard < floor) {
        throw std::invalid_argument(
            std::string("ShardedJoinConfig: handshake join needs a per-shard "
                        "live window of at least ") +
            std::to_string(floor) + " tuples (max(8, 2 * parallelism " +
            std::to_string(config.shard.parallelism) + ")) on every " +
            "partitioned side for its expiry chase to converge; side " + side +
            " has " + std::to_string(global_tuples) + " / " +
            std::to_string(config.shards) + " shards = " +
            std::to_string(per_shard) +
            ". Use fewer shards, a larger window, or another engine.");
      }
    };
    const bool r_thinned = resolved == PartitionPolicy::kHashKey ||
                           resolved == PartitionPolicy::kReplicateS;
    const bool s_thinned = resolved == PartitionPolicy::kHashKey ||
                           resolved == PartitionPolicy::kReplicateR;
    if (r_thinned) check_side("R", config.shard.window_r);
    if (s_thinned) check_side("S", config.shard.window_s);
  }
  ValidateJoinConfig(config.shard);
}

template <typename R, typename S, typename Pred>
class ShardedJoinSession
    : public SessionCore<R, S, Pred, EngineShard<R, S, Pred>> {
  using Shard = EngineShard<R, S, Pred>;
  using Core = SessionCore<R, S, Pred, Shard>;

 public:
  explicit ShardedJoinSession(const ShardedJoinConfig& config)
      : Core(CoreOptions(config), BuildShards(config)), config_(config) {}

  int shard_count() const { return static_cast<int>(this->shard_total()); }
  /// The resolved (never kAuto) partitioning in effect.
  PartitionPolicy partition() const {
    return ResolvePartitionPolicy<Pred, R, S>(config_.partition);
  }
  const ShardedJoinConfig& config() const { return config_; }

  /// End-to-end latency distribution merged across all shards
  /// (LatencyHistogram::Merge — the merging-output contract).
  LatencyHistogram merged_latency_histogram() const {
    LatencyHistogram merged;
    for (std::size_t k = 0; k < this->shard_total(); ++k) {
      merged.Merge(this->shard_latency(k));
    }
    return merged;
  }

  /// Per-shard results delivered so far (load-balance introspection).
  uint64_t shard_results(int shard) const {
    return this->shard_latency(static_cast<std::size_t>(shard)).count();
  }

 private:
  static typename Core::Options CoreOptions(const ShardedJoinConfig& config) {
    typename Core::Options options;
    options.name = "ShardedJoinSession";
    options.window_r = config.shard.window_r;
    options.window_s = config.shard.window_s;
    options.partition = ResolvePartitionPolicy<Pred, R, S>(config.partition);
    options.latency_budget_us = config.latency_budget_us;
    options.overload_policy = config.overload_policy;
    return options;
  }

  /// Builds the shards. Threaded shards each get their own share of the
  /// configured (or detected) topology, Topology::ForShard, so every
  /// shard's PlacementPlan pins its pipeline and homes its channel memory
  /// there alone. A single shard keeps the caller's topology untouched
  /// (exact degeneration to the plain session).
  static std::vector<std::unique_ptr<Shard>> BuildShards(
      const ShardedJoinConfig& config) {
    ValidateShardedJoinConfig<R, S, Pred>(config);
    const bool spread = config.shard.threaded && config.shards > 1;
    std::shared_ptr<const Topology> topo = config.shard.topology;
    if (spread && topo == nullptr) {
      topo = std::make_shared<const Topology>(Topology::Detect());
    }
    std::vector<std::unique_ptr<Shard>> shards;
    for (int k = 0; k < config.shards; ++k) {
      JoinConfig shard_config = config.shard;
      if (spread) {
        Topology share = topo->ForShard(k, config.shards);
        if (share.cpu_count() > 0) {
          shard_config.topology =
              std::make_shared<const Topology>(std::move(share));
        }
      }
      shards.push_back(std::make_unique<Shard>(shard_config));
    }
    return shards;
  }

  ShardedJoinConfig config_;
};

}  // namespace sjoin
