// Tests for topology (sysfs parsing, synthetic shapes, env override),
// placement planning, channel memory placement, affinity, backoff, and the
// two executors.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <utility>

#include "runtime/affinity.hpp"
#include "runtime/backoff.hpp"
#include "runtime/executor.hpp"
#include "runtime/mempolicy.hpp"
#include "runtime/placement.hpp"
#include "runtime/spsc_queue.hpp"
#include "runtime/topology.hpp"

namespace sjoin {
namespace {

// -- Fake-sysfs fixtures ------------------------------------------------------

/// Builds a sysfs-shaped tree under a fresh temp dir for Topology::FromSysfs.
class SysfsFixture {
 public:
  explicit SysfsFixture(const std::string& name)
      : root_(std::filesystem::path(::testing::TempDir()) /
              ("sjoin_sysfs_" + name)) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "devices/system/cpu");
    std::filesystem::create_directories(root_ / "devices/system/node");
  }

  ~SysfsFixture() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void WriteFile(const std::string& rel, const std::string& content) {
    const std::filesystem::path path = root_ / rel;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << content << "\n";
  }

  void AddCpu(int cpu, int package, int core) {
    const std::string dir =
        "devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    WriteFile(dir + "physical_package_id", std::to_string(package));
    WriteFile(dir + "core_id", std::to_string(core));
  }

  std::string root() const { return root_.string(); }

 private:
  std::filesystem::path root_;
};

/// 1 package, 2 NUMA nodes x 2 cores x 2 SMT siblings, Linux-style sibling
/// numbering (cpu k and cpu k+4 share a core).
void PopulateTwoNodeSmt(SysfsFixture* fix, const std::string& online) {
  fix->WriteFile("devices/system/cpu/possible", "0-7");
  fix->WriteFile("devices/system/cpu/online", online);
  for (int cpu = 0; cpu < 8; ++cpu) fix->AddCpu(cpu, 0, cpu % 4);
  fix->WriteFile("devices/system/node/node0/cpulist", "0-1,4-5");
  fix->WriteFile("devices/system/node/node1/cpulist", "2-3,6-7");
}

TEST(TopologySysfs, ParsesPackagesNodesSmt) {
  SysfsFixture fix("parse");
  PopulateTwoNodeSmt(&fix, "0-7");
  Topology topo = Topology::FromSysfs(fix.root());

  EXPECT_EQ(topo.cpu_count(), 8);
  EXPECT_EQ(topo.package_count(), 1);
  EXPECT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.max_smt(), 2);
  EXPECT_EQ(topo.NodeOfCpu(0), 0);
  EXPECT_EQ(topo.NodeOfCpu(2), 1);
  EXPECT_EQ(topo.NodeOfCpu(6), 1);
  EXPECT_EQ(topo.SmtOfCpu(0), 0);
  EXPECT_EQ(topo.SmtOfCpu(4), 1);  // second sibling of core 0
  // Placement order: one position per physical core first (same-node cores
  // adjacent), SMT siblings only afterwards.
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(topo.cpus(), expected);
  EXPECT_EQ(topo.CpusOnNode(1), (std::vector<int>{2, 3, 6, 7}));
}

TEST(TopologySysfs, SkipsOfflineCpuHoles) {
  SysfsFixture fix("offline");
  PopulateTwoNodeSmt(&fix, "0-2,4-7");  // cpu3 offline
  Topology topo = Topology::FromSysfs(fix.root());

  EXPECT_EQ(topo.cpu_count(), 7);
  EXPECT_EQ(topo.NodeOfCpu(3), -1);  // offline cpu is not in the model
  for (int cpu : topo.cpus()) EXPECT_NE(cpu, 3);
  // cpu7 lost its sibling's co-runner? No: cpu3 and cpu7 share core 3 —
  // with cpu3 offline, cpu7 becomes that core's first (only) sibling.
  EXPECT_EQ(topo.SmtOfCpu(7), 0);
}

TEST(TopologySysfs, MissingTopologyFilesDegradeToFlat) {
  SysfsFixture fix("flat");
  fix.WriteFile("devices/system/cpu/online", "0-3");
  Topology topo = Topology::FromSysfs(fix.root());
  EXPECT_EQ(topo.cpu_count(), 4);
  EXPECT_EQ(topo.node_count(), 1);
  EXPECT_EQ(topo.package_count(), 1);
  EXPECT_EQ(topo.max_smt(), 1);
}

// -- Synthetic shapes and the SJOIN_TOPOLOGY override -------------------------

TEST(Topology, SyntheticShapeEnumerates) {
  Topology::SyntheticShape shape;
  shape.packages = 2;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 2;
  shape.smt_per_core = 2;
  Topology topo = Topology::Synthetic(shape);

  EXPECT_EQ(topo.cpu_count(), 16);
  EXPECT_EQ(topo.package_count(), 2);
  EXPECT_EQ(topo.node_count(), 4);
  EXPECT_EQ(topo.max_smt(), 2);
  // First pass covers every core once (smt 0), second pass the siblings.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(topo.SmtOfCpu(topo.cpus()[static_cast<std::size_t>(i)]), 0)
        << "position " << i;
  }
  for (int i = 8; i < 16; ++i) {
    EXPECT_EQ(topo.SmtOfCpu(topo.cpus()[static_cast<std::size_t>(i)]), 1)
        << "position " << i;
  }
}

TEST(Topology, ForShardSlicesSharedNodesIntoDisjointCpuSets) {
  // One NUMA node, several shards: each shard gets a disjoint, contiguous
  // slice of the node's CPUs in placement order, so no two shards pin
  // their first pipeline node onto the same CPU.
  const Topology flat = Topology::Synthetic(4);
  EXPECT_EQ(flat.ForShard(0, 2).cpus(), (std::vector<int>{0, 1}));
  EXPECT_EQ(flat.ForShard(1, 2).cpus(), (std::vector<int>{2, 3}));
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(flat.ForShard(k, 4).cpus(), (std::vector<int>{k}));
  }
  // No more shards than nodes: every shard keeps its whole node.
  Topology::SyntheticShape shape;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 2;
  const Topology two = Topology::Synthetic(shape);
  EXPECT_EQ(two.ForShard(0, 2).cpus(), two.CpusOnNode(0));
  EXPECT_EQ(two.ForShard(1, 2).cpus(), two.CpusOnNode(1));
  // Three shards on two nodes: shards 0 and 2 split node 0.
  EXPECT_EQ(two.ForShard(0, 3).cpus(), (std::vector<int>{0}));
  EXPECT_EQ(two.ForShard(1, 3).cpus(), two.CpusOnNode(1));
  EXPECT_EQ(two.ForShard(2, 3).cpus(), (std::vector<int>{1}));
  // Fewer CPUs than shards on a node: slices shrink to one CPU each.
  EXPECT_EQ(flat.ForShard(4, 5).cpu_count(), 1);
  EXPECT_EQ(flat.ForShard(5, 5).cpu_count(), 0);  // no such shard
}

TEST(Topology, ParseShapeSpecForms) {
  Topology::SyntheticShape shape;
  ASSERT_TRUE(Topology::ParseShapeSpec("16", &shape));
  EXPECT_EQ(shape.cores_per_node, 16);
  ASSERT_TRUE(Topology::ParseShapeSpec("2x8", &shape));
  EXPECT_EQ(shape.nodes_per_package, 2);
  EXPECT_EQ(shape.cores_per_node, 8);
  ASSERT_TRUE(Topology::ParseShapeSpec("2x8x2", &shape));
  EXPECT_EQ(shape.smt_per_core, 2);
  ASSERT_TRUE(Topology::ParseShapeSpec("2x2x4x2", &shape));
  EXPECT_EQ(shape.packages, 2);
  EXPECT_EQ(shape.nodes_per_package, 2);
  EXPECT_EQ(shape.cores_per_node, 4);
  EXPECT_EQ(shape.smt_per_core, 2);

  // The product is bounded too — each dimension may pass the per-part cap
  // while the shape as a whole would OOM at Synthetic().
  for (const char* bad : {"", "0x2", "-1", "axb", "2x", "x2", "1x2x3x4x5",
                          "1048576x1048576", "1024x1024x1024"}) {
    Topology::SyntheticShape untouched;
    EXPECT_FALSE(Topology::ParseShapeSpec(bad, &untouched)) << bad;
  }
}

/// Saves/restores SJOIN_TOPOLOGY so these tests compose with a CI leg that
/// sets the knob globally.
class ScopedTopologyEnv {
 public:
  explicit ScopedTopologyEnv(const char* value) {
    const char* old = std::getenv("SJOIN_TOPOLOGY");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv("SJOIN_TOPOLOGY", value, 1);
    } else {
      ::unsetenv("SJOIN_TOPOLOGY");
    }
  }
  ~ScopedTopologyEnv() {
    if (had_) {
      ::setenv("SJOIN_TOPOLOGY", saved_.c_str(), 1);
    } else {
      ::unsetenv("SJOIN_TOPOLOGY");
    }
  }

 private:
  std::string saved_;
  bool had_ = false;
};

TEST(Topology, EnvOverrideForcesSyntheticShape) {
  ScopedTopologyEnv env("2x2x2");
  Topology topo = Topology::Detect();
  EXPECT_EQ(topo.cpu_count(), 8);
  EXPECT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.max_smt(), 2);
}

TEST(Topology, EnvOverrideUnrecognizedFallsBackToDetection) {
  ScopedTopologyEnv env("garbage-shape");
  Topology topo = Topology::Detect();  // warns on stderr, then detects
  EXPECT_GE(topo.cpu_count(), 1);
  // The host cannot be guaranteed multi-node, but the parse must not have
  // produced a "garbage" shape of any kind — detection output matches an
  // override-free Detect.
  ScopedTopologyEnv clear(nullptr);
  Topology plain = Topology::Detect();
  EXPECT_EQ(topo.cpus(), plain.cpus());
}

TEST(Topology, DetectIsSubsetOfAffinity) {
  ScopedTopologyEnv clear(nullptr);
  Topology topo = Topology::Detect();
  ASSERT_GE(topo.cpu_count(), 1);
  EXPECT_LE(topo.cpu_count(), AvailableCpuCount());
}

// -- PlacementPlan ------------------------------------------------------------

Topology TwoNodeTopo() {
  Topology::SyntheticShape shape;
  shape.nodes_per_package = 2;
  shape.cores_per_node = 4;
  return Topology::Synthetic(shape);  // 8 cpus: node0 = 0-3, node1 = 4-7
}

TEST(PlacementPlan, CompactCoLocatesNeighboursBeforeRemoteNodes) {
  Topology topo = TwoNodeTopo();
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kCompact, 6, 2);

  // No two planned threads share a CPU.
  std::set<int> cpus;
  for (int pos = 0; pos < plan.positions(); ++pos) {
    const int cpu = plan.CpuForPosition(pos);
    ASSERT_GE(cpu, 0);
    EXPECT_TRUE(cpus.insert(cpu).second) << "duplicate cpu " << cpu;
  }
  for (int h = 0; h < plan.helpers(); ++h) {
    const int cpu = plan.CpuForHelper(h);
    if (cpu >= 0) {
      EXPECT_TRUE(cpus.insert(cpu).second);
    }
  }

  // Node sequence along the pipeline is contiguous: a node is never
  // revisited once left (neighbours co-located before a remote node).
  std::vector<int> node_seq;
  for (int pos = 0; pos < plan.positions(); ++pos) {
    node_seq.push_back(plan.NodeForPosition(pos));
  }
  EXPECT_EQ(node_seq, (std::vector<int>{0, 0, 0, 0, 1, 1}));

  // Helpers take leftover cores near their pipeline end; never -1 while
  // CPUs remain.
  EXPECT_GE(plan.CpuForHelper(kFeederHelper), 0);
  EXPECT_GE(plan.CpuForHelper(kCollectorHelper), 0);
  // The collector-adjacent node (last position's) is node 1.
  EXPECT_EQ(plan.NodeForHelper(kCollectorHelper), 1);
}

TEST(PlacementPlan, HelperSpillReturnsUnpinned) {
  Topology topo = Topology::Synthetic(4);
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kCompact, 4, 2);
  // All four CPUs go to pipeline positions; helpers must spill to -1 and
  // never onto a pipeline CPU.
  EXPECT_EQ(plan.CpuForHelper(kFeederHelper), -1);
  EXPECT_EQ(plan.CpuForHelper(kCollectorHelper), -1);
  EXPECT_EQ(plan.NodeForHelper(kCollectorHelper), -1);
}

TEST(PlacementPlan, PositionsBeyondSupplyAreUnpinned) {
  Topology topo = Topology::Synthetic(2);
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kAuto, 5, 1);
  EXPECT_GE(plan.CpuForPosition(0), 0);
  EXPECT_GE(plan.CpuForPosition(1), 0);
  for (int pos = 2; pos < 5; ++pos) {
    EXPECT_EQ(plan.CpuForPosition(pos), -1);
    EXPECT_EQ(plan.NodeForPosition(pos), -1);
  }
  EXPECT_EQ(plan.CpuForHelper(0), -1);
}

TEST(PlacementPlan, ScatterRoundRobinsNodes) {
  Topology topo = TwoNodeTopo();
  PlacementPlan plan =
      PlacementPlan::Build(topo, PlacementPolicy::kScatter, 4, 0);
  EXPECT_EQ(plan.NodeForPosition(0), 0);
  EXPECT_EQ(plan.NodeForPosition(1), 1);
  EXPECT_EQ(plan.NodeForPosition(2), 0);
  EXPECT_EQ(plan.NodeForPosition(3), 1);
  std::set<int> cpus;
  for (int pos = 0; pos < 4; ++pos) {
    EXPECT_TRUE(cpus.insert(plan.CpuForPosition(pos)).second);
  }
}

TEST(PlacementPlan, NonePlacesNothing) {
  Topology topo = TwoNodeTopo();
  PlacementPlan plan = PlacementPlan::Build(topo, PlacementPolicy::kNone, 4, 2);
  for (int pos = 0; pos < 4; ++pos) {
    EXPECT_EQ(plan.CpuForPosition(pos), -1);
    EXPECT_EQ(plan.NodeForPosition(pos), -1);
  }
  EXPECT_EQ(plan.CpuForHelper(0), -1);
}

TEST(PlacementPlan, ParsePolicyNamesOffendingValue) {
  EXPECT_EQ(ParsePlacementPolicy("auto"), PlacementPolicy::kAuto);
  EXPECT_EQ(ParsePlacementPolicy("compact"), PlacementPolicy::kCompact);
  EXPECT_EQ(ParsePlacementPolicy("scatter"), PlacementPolicy::kScatter);
  EXPECT_EQ(ParsePlacementPolicy("none"), PlacementPolicy::kNone);
  try {
    ParsePlacementPolicy("fastest");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fastest"), std::string::npos)
        << "error must name the offending value: " << e.what();
  }
}

// -- Channel memory placement -------------------------------------------------

struct PodSlot {
  int a = 0;
  int b = 0;
};

TEST(ChannelPlacement, HookRunsAndRecordsHomeNode) {
  SpscQueue<PodSlot> queue(64, /*home_node=*/0);
  EXPECT_EQ(queue.home_node(), 0);
  queue.PrefaultByConsumer();
  EXPECT_NE(queue.placement(), ChannelPlacement::kUnplaced);
  // The ring must still behave: fill, drain, wrap.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(queue.TryPush(PodSlot{i, round}));
    }
    PodSlot out;
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(queue.TryPop(&out));
      EXPECT_EQ(out.a, i);
      EXPECT_EQ(out.b, round);
    }
  }
}

TEST(ChannelPlacement, NonexistentNodeFallsDownTheLadder) {
  // Node 1023 exists on no test host: mbind fails at construction, so the
  // consumer-side hook must take a fallback rung (deferred first-touch for
  // implicit-lifetime slots), never kBound.
  SpscQueue<PodSlot> queue(16, /*home_node=*/1023);
  queue.PrefaultByConsumer();
  EXPECT_NE(queue.placement(), ChannelPlacement::kUnplaced);
  EXPECT_NE(queue.placement(), ChannelPlacement::kBound);
  PodSlot out;
  ASSERT_TRUE(queue.TryPush(PodSlot{7, 9}));
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(out.a, 7);
}

TEST(ChannelPlacement, UnplacedQueueStaysUnplacedUntilHook) {
  SpscQueue<PodSlot> queue(16);
  EXPECT_EQ(queue.home_node(), -1);
  EXPECT_EQ(queue.placement(), ChannelPlacement::kUnplaced);
  queue.PrefaultByConsumer();
  EXPECT_EQ(queue.placement(), ChannelPlacement::kPrefaulted);
}

TEST(Topology, DetectFindsAtLeastOneCpu) {
  Topology topo = Topology::Detect();
  EXPECT_GE(topo.cpu_count(), 1);
}

TEST(Topology, SyntheticEnumerates) {
  Topology topo = Topology::Synthetic(4);
  EXPECT_EQ(topo.cpu_count(), 4);
  EXPECT_EQ(topo.cpus().size(), 4u);
}

TEST(Topology, DistinctPlacementWithinMask) {
  Topology topo = Topology::Synthetic(4);
  EXPECT_EQ(topo.CpuForNode(0, 4), 0);
  EXPECT_EQ(topo.CpuForNode(1, 4), 1);
  EXPECT_EQ(topo.CpuForNode(2, 4), 2);
  EXPECT_EQ(topo.CpuForNode(3, 4), 3);
}

TEST(Topology, NegativeNodeIsInvalid) {
  Topology topo = Topology::Synthetic(2);
  EXPECT_EQ(topo.CpuForNode(-1, 4), -1);
}

// Regression: on an affinity mask smaller than total_nodes + 2 the old
// round-robin wrapped the helper threads (feeder and collector are
// registered after the pipeline nodes) onto the SAME cpus as pipeline
// nodes. Two hard-pinned threads on one cpu serialize the hot path — the
// scheduler cannot separate them. Oversubscribed threads must run unpinned
// (-1) instead of colliding with a pinned pipeline node.
TEST(Topology, SmallMaskDoesNotPinHelpersOntoPipelineNodes) {
  const int pipeline_nodes = 2;
  const int total = pipeline_nodes + 2;  // + feeder + collector
  Topology topo = Topology::Synthetic(pipeline_nodes);

  std::vector<int> node_cpus;
  for (int n = 0; n < pipeline_nodes; ++n) {
    node_cpus.push_back(topo.CpuForNode(n, total));
  }
  for (int helper = pipeline_nodes; helper < total; ++helper) {
    const int cpu = topo.CpuForNode(helper, total);
    for (int node_cpu : node_cpus) {
      EXPECT_TRUE(cpu == -1 || cpu != node_cpu)
          << "helper thread " << helper << " pinned onto pipeline cpu "
          << node_cpu;
    }
  }
  // Pipeline nodes keep one distinct cpu each.
  EXPECT_EQ(node_cpus[0], 0);
  EXPECT_EQ(node_cpus[1], 1);
}

TEST(Affinity, AvailableCpuCountPositive) {
  EXPECT_GE(AvailableCpuCount(), 1);
}

TEST(Affinity, PinToFirstCpuSucceedsOnLinux) {
#if defined(__linux__)
  Topology topo = Topology::Detect();
  EXPECT_TRUE(PinThisThread(topo.cpus().front()));
#else
  GTEST_SKIP();
#endif
}

TEST(Affinity, PinToInvalidCpuFails) { EXPECT_FALSE(PinThisThread(-1)); }

// -- Slab allocation ----------------------------------------------------------

TEST(Slab, AllocationIsPageRoundedAndWritable) {
  Slab slab = AllocateSlab(4096 + 1);
  ASSERT_NE(slab.addr, nullptr);
  EXPECT_EQ(slab.bytes, 2 * kMemPageSize);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(slab.addr) % kMemPageSize, 0u);
  auto* p = static_cast<unsigned char*>(slab.addr);
  for (std::size_t i = 0; i <= 4096; ++i) p[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(p[4095], static_cast<unsigned char>(4095));
  FreeSlab(&slab);
  EXPECT_EQ(slab.addr, nullptr);
  EXPECT_EQ(slab.bytes, 0u);
}

TEST(Slab, ZeroBytesYieldsEmptySlab) {
  Slab slab = AllocateSlab(0);
  EXPECT_EQ(slab.addr, nullptr);
  EXPECT_EQ(slab.bytes, 0u);
  FreeSlab(&slab);  // no-op, must be safe
}

TEST(Slab, SlabArrayResetMoveAndIndexing) {
  SlabArray<int64_t> arr;
  EXPECT_TRUE(arr.empty());
  arr.Reset(1000);
  EXPECT_EQ(arr.count(), 1000u);
  ASSERT_NE(arr.data(), nullptr);
  for (std::size_t i = 0; i < 1000; ++i) arr[i] = static_cast<int64_t>(i * 3);
  EXPECT_EQ(arr[999], 2997);
  SlabArray<int64_t> moved = std::move(arr);
  EXPECT_TRUE(arr.empty());  // NOLINT(bugprone-use-after-move): pinned reset
  EXPECT_EQ(moved.count(), 1000u);
  EXPECT_EQ(moved[999], 2997);
  moved.Reset(0);
  EXPECT_TRUE(moved.empty());
}

TEST(Backoff, EscalatesAndResets) {
  Backoff b;
  EXPECT_EQ(b.attempts(), 0);
  for (int i = 0; i < 20; ++i) b.Pause();
  EXPECT_EQ(b.attempts(), 20);
  b.Reset();
  EXPECT_EQ(b.attempts(), 0);
}

class CountingSteppable : public Steppable {
 public:
  explicit CountingSteppable(int budget) : budget_(budget) {}
  bool Step() override {
    if (budget_ <= 0) return false;
    --budget_;
    ++steps_;
    return true;
  }
  int steps() const { return steps_; }

 private:
  int budget_;
  int steps_ = 0;
};

TEST(SequentialExecutor, RunsUntilQuiescent) {
  CountingSteppable a(5), b(3);
  SequentialExecutor exec;
  exec.Add(&a);
  exec.Add(&b);
  const std::size_t passes = exec.RunUntilQuiescent();
  EXPECT_EQ(a.steps(), 5);
  EXPECT_EQ(b.steps(), 3);
  EXPECT_EQ(passes, 5u);  // passes 0..4 progress; pass 5 is silent
}

TEST(SequentialExecutor, StepOnceReportsProgress) {
  CountingSteppable a(1);
  SequentialExecutor exec;
  exec.Add(&a);
  EXPECT_TRUE(exec.StepOnce());
  EXPECT_FALSE(exec.StepOnce());
}

TEST(SequentialExecutor, HonorsPassLimit) {
  class Endless : public Steppable {
   public:
    bool Step() override { return true; }
  } endless;
  SequentialExecutor exec;
  exec.Add(&endless);
  EXPECT_EQ(exec.RunUntilQuiescent(100), 100u);
}

class AtomicCounterSteppable : public Steppable {
 public:
  bool Step() override {
    count.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  std::atomic<uint64_t> count{0};
};

TEST(ThreadedExecutor, StartsAndStops) {
  AtomicCounterSteppable a, b;
  ThreadedExecutor exec(Topology::Detect());
  exec.Add(&a);
  exec.Add(&b);
  exec.Start();
  EXPECT_TRUE(exec.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  exec.Stop();
  EXPECT_FALSE(exec.running());
  EXPECT_GT(a.count.load(), 0u);
  EXPECT_GT(b.count.load(), 0u);
}

TEST(ThreadedExecutor, StopIsIdempotent) {
  AtomicCounterSteppable a;
  ThreadedExecutor exec;
  exec.Add(&a);
  exec.Start();
  exec.Stop();
  exec.Stop();  // no crash
  EXPECT_FALSE(exec.running());
}

TEST(ThreadedExecutor, OnThreadStartCompletesBeforeAnyStep) {
  // The start barrier orders every OnThreadStart (consumer-side channel
  // prefault) before any Step (production) — across ALL threads, not just
  // within each thread.
  struct Barriered : Steppable {
    std::atomic<int>* started = nullptr;
    std::atomic<int>* violations = nullptr;
    int expected = 0;
    void OnThreadStart() override {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      started->fetch_add(1, std::memory_order_acq_rel);
    }
    bool Step() override {
      if (started->load(std::memory_order_acquire) < expected) {
        violations->fetch_add(1, std::memory_order_relaxed);
      }
      return false;
    }
  };
  std::atomic<int> started{0};
  std::atomic<int> violations{0};
  Barriered a, b, c;
  for (Barriered* s : {&a, &b, &c}) {
    s->started = &started;
    s->violations = &violations;
    s->expected = 3;
  }
  ThreadedExecutor exec(Topology::Synthetic(2));
  exec.Add(&a);
  exec.Add(&b);
  exec.AddHelper(&c);
  exec.Start();
  EXPECT_EQ(started.load(), 3);  // Start() returns only after the barrier
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  exec.Stop();
  EXPECT_EQ(violations.load(), 0);
}

TEST(ThreadedExecutor, IdleSteppableBacksOffWithoutSpinningHot) {
  // A steppable that never has work must not prevent Stop().
  class Idle : public Steppable {
   public:
    bool Step() override { return false; }
  } idle;
  ThreadedExecutor exec;
  exec.Add(&idle);
  exec.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  exec.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace sjoin
