// Tests for the step-scheduled collective-communication engine: topology
// accessors, bitwise equivalence of the uniform-topology schedules with
// the closed-form CommModel, algorithm orderings (recursive halving vs
// ring, tree at small messages, cluster contention), functional payload
// execution against LocalComm, fault hooks and NIC-lane tracing.

#include "comm/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "comm/topology.hpp"
#include "mpisim/comm.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"

namespace accel = toast::accel;
namespace comm = toast::comm;
namespace fault = toast::fault;
namespace obs = toast::obs;
using toast::config::CommAlgorithm;
using toast::mpisim::LocalComm;

namespace {

/// Per-rank integer-valued buffers: the sums are exact in double no
/// matter which order an algorithm reduces in.
std::vector<std::vector<double>> rank_buffers(int ranks, std::size_t m) {
  std::vector<std::vector<double>> bufs(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& b = bufs[static_cast<std::size_t>(r)];
    b.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
      b[i] = static_cast<double>((r + 1) * 1000) + static_cast<double>(i);
    }
  }
  return bufs;
}

fault::FaultPlan link_plan(double probability, double factor,
                           std::uint64_t seed = 7) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLinkDegrade;
  rule.probability = probability;
  rule.factor = factor;
  plan.rules.push_back(rule);
  return plan;
}

fault::FaultPlan chunk_plan(double probability, std::uint64_t seed = 7) {
  fault::FaultPlan plan;
  plan.seed = seed;
  // Generous retry budget so a moderate loss rate never turns persistent
  // (the persistent path has its own test with probability 1).
  plan.retry.max_attempts = 12;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kChunkLoss;
  rule.probability = probability;
  plan.rules.push_back(rule);
  return plan;
}

}  // namespace

// --- topology ---------------------------------------------------------------

TEST(Topology, UniformLayoutIsCongestionFree) {
  const auto topo = comm::Topology::uniform(8);
  EXPECT_EQ(topo.n_ranks(), 8);
  EXPECT_EQ(topo.ranks_per_node(), 1);
  EXPECT_EQ(topo.n_nodes(), 8);
  EXPECT_EQ(topo.n_nics(), 8);
  EXPECT_TRUE(topo.congestion_free());
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(topo.node_of(r), r);
    EXPECT_EQ(topo.nic_of(r), r);
  }
  EXPECT_FALSE(topo.same_node(0, 1));
}

TEST(Topology, ClusterPacksRanksOntoSharedNics) {
  // Perlmutter-like: 16 ranks/node, 4 NICs each.
  const auto topo = comm::Topology::cluster(32, 16);
  EXPECT_EQ(topo.n_nodes(), 2);
  EXPECT_EQ(topo.nics_per_node(), 4);
  EXPECT_EQ(topo.n_nics(), 8);
  EXPECT_FALSE(topo.congestion_free());
  EXPECT_TRUE(topo.same_node(0, 15));
  EXPECT_FALSE(topo.same_node(15, 16));
  // Round-robin NIC assignment: ranks 0 and 4 share node 0's NIC 0.
  EXPECT_EQ(topo.nic_of(0), topo.nic_of(4));
  EXPECT_NE(topo.nic_of(0), topo.nic_of(1));
  EXPECT_EQ(topo.nic_of(16), 4);  // node 1's first NIC
  // Intra-node link is the faster one.
  EXPECT_LT(topo.step_seconds(0, 1, 1e6), topo.step_seconds(15, 16, 1e6));
}

TEST(Topology, ValidatesItsParameters) {
  EXPECT_THROW(comm::Topology::uniform(0), std::invalid_argument);
  EXPECT_THROW(comm::Topology::cluster(8, 0), std::invalid_argument);
  accel::NetworkSpec bad;
  bad.bandwidth = 0.0;
  EXPECT_THROW(comm::Topology::uniform(4, bad), std::invalid_argument);
  bad = {};
  bad.nics_per_node = 0;
  EXPECT_THROW(comm::Topology::cluster(8, 4, bad), std::invalid_argument);
}

TEST(Topology, ShrinkValidatesSurvivorSets) {
  const auto topo = comm::Topology::cluster(8, 4);
  // Count form: out-of-range counts are structured errors.
  EXPECT_THROW(topo.shrink(0), comm::TopologyError);
  EXPECT_THROW(topo.shrink(9), comm::TopologyError);
  EXPECT_EQ(topo.shrink(5).n_ranks(), 5);
  // Set form: empty, duplicate and out-of-range survivor ranks reject,
  // and the error names the offending rank.
  EXPECT_THROW(topo.shrink(std::vector<int>{}), comm::TopologyError);
  try {
    topo.shrink(std::vector<int>{0, 3, 3});
    FAIL() << "duplicate survivor rank must reject";
  } catch (const comm::TopologyError& e) {
    EXPECT_EQ(e.field(), "survivors");
    EXPECT_EQ(e.value(), 3);
  }
  try {
    topo.shrink(std::vector<int>{0, 8});
    FAIL() << "out-of-range survivor rank must reject";
  } catch (const comm::TopologyError& e) {
    EXPECT_EQ(e.field(), "survivors");
    EXPECT_EQ(e.value(), 8);
  }
  // A valid set re-packs densely: same packing, fewer ranks.
  const auto small = topo.shrink(std::vector<int>{0, 2, 5});
  EXPECT_EQ(small.n_ranks(), 3);
  EXPECT_EQ(small.ranks_per_node(), 4);
  // TopologyError still is-a std::invalid_argument for legacy catch sites.
  EXPECT_THROW(topo.shrink(0), std::invalid_argument);
}

// --- bitwise equivalence with the closed forms ------------------------------

TEST(EngineOracle, RingAllreduceEqualsCommModelBitwise) {
  const toast::mpisim::CommModel model;
  for (const int ranks : {2, 3, 4, 5, 8, 16, 32, 64, 128}) {
    const comm::Engine engine(comm::Topology::uniform(ranks));
    for (const double bytes : {8.0, 8.0e3, 1.0e6, 75497472.0}) {
      EXPECT_EQ(engine.allreduce_seconds(bytes, CommAlgorithm::kRing),
                model.allreduce_seconds(bytes, ranks))
          << "ranks=" << ranks << " bytes=" << bytes;
    }
  }
}

TEST(EngineOracle, BcastAndGatherEqualCommModelBitwise) {
  const toast::mpisim::CommModel model;
  for (const int ranks : {2, 3, 5, 8, 16, 64}) {
    const comm::Engine engine(comm::Topology::uniform(ranks));
    for (const double bytes : {8.0, 1.0e6, 75497472.0}) {
      EXPECT_EQ(engine.bcast_seconds(bytes), model.bcast_seconds(bytes, ranks))
          << "bcast ranks=" << ranks << " bytes=" << bytes;
      EXPECT_EQ(engine.gather_seconds(bytes),
                model.gather_seconds(bytes, ranks))
          << "gather ranks=" << ranks << " bytes=" << bytes;
    }
  }
}

TEST(EngineOracle, BoundariesMatchClosedFormZeros) {
  const comm::Engine engine(comm::Topology::uniform(1));
  EXPECT_EQ(engine.allreduce_seconds(1e6), 0.0);
  EXPECT_EQ(engine.bcast_seconds(1e6), 0.0);
  EXPECT_EQ(engine.gather_seconds(1e6), 0.0);
  const comm::Engine engine8(comm::Topology::uniform(8));
  EXPECT_EQ(engine8.allreduce_seconds(0.0), 0.0);
  EXPECT_EQ(engine8.allreduce_seconds(-4.0), 0.0);
}

TEST(EngineOracle, ScheduleIsDeterministic) {
  const comm::Engine engine(comm::Topology::cluster(32, 16));
  const auto dag = comm::ring_allreduce(32, 1.0e6);
  const auto a = engine.schedule(dag);
  const auto b = engine.schedule(dag);
  ASSERT_EQ(a.start.size(), b.start.size());
  for (std::size_t i = 0; i < a.start.size(); ++i) {
    EXPECT_EQ(a.start[i], b.start[i]);
    EXPECT_EQ(a.end[i], b.end[i]);
  }
  EXPECT_EQ(a.makespan, b.makespan);
}

// --- algorithm orderings ----------------------------------------------------

TEST(EngineAlgorithms, RecursiveHalvingBeatsRingLatency) {
  // Same bandwidth term, 2 log2(n) instead of 2(n-1) latency terms: the
  // recursive decomposition can never lose on a uniform topology.
  for (const int ranks : {4, 16, 64}) {
    const comm::Engine engine(comm::Topology::uniform(ranks));
    for (const double bytes : {8.0e3, 1.0e6, 75497472.0}) {
      EXPECT_LE(engine.allreduce_seconds(bytes, CommAlgorithm::kRecursive),
                engine.allreduce_seconds(bytes, CommAlgorithm::kRing))
          << "ranks=" << ranks << " bytes=" << bytes;
    }
  }
}

TEST(EngineAlgorithms, TreeWinsAtSmallMessages) {
  // 2 ceil(log2 n) rounds vs 2(n-1): latency-bound small messages favour
  // the tree once n > 2.
  for (const int ranks : {4, 16, 64}) {
    const comm::Engine engine(comm::Topology::uniform(ranks));
    EXPECT_LT(engine.allreduce_seconds(8.0, CommAlgorithm::kTree),
              engine.allreduce_seconds(8.0, CommAlgorithm::kRing))
        << "ranks=" << ranks;
    // ...and loses at bandwidth-bound large messages.
    EXPECT_GT(engine.allreduce_seconds(75497472.0, CommAlgorithm::kTree),
              engine.allreduce_seconds(75497472.0, CommAlgorithm::kRing))
        << "ranks=" << ranks;
  }
}

TEST(EngineAlgorithms, SharedNicsContendOnClusterTopology) {
  // Recursive halving's long-distance rounds leave every rank sending
  // inter-node at once; with 16 ranks sharing 4 NICs the lanes serialize
  // 4-deep, which the congestion-free uniform layout never sees.
  const double bytes = 75497472.0;
  const comm::Engine uniform(comm::Topology::uniform(64));
  const comm::Engine cluster(comm::Topology::cluster(64, 16));
  EXPECT_GT(cluster.allreduce_seconds(bytes, CommAlgorithm::kRecursive),
            uniform.allreduce_seconds(bytes, CommAlgorithm::kRecursive));
}

TEST(EngineAlgorithms, IntraNodeLinkIsFasterThanNic) {
  // All 8 ranks on one node: every step rides the shared-memory link.
  const comm::Engine packed(comm::Topology::cluster(8, 8));
  const comm::Engine spread(comm::Topology::uniform(8));
  EXPECT_LT(packed.allreduce_seconds(1.0e6, CommAlgorithm::kRing),
            spread.allreduce_seconds(1.0e6, CommAlgorithm::kRing));
}

// --- functional payloads ----------------------------------------------------

TEST(EnginePayload, AllreduceMatchesLocalCommForAllAlgorithms) {
  for (const int ranks : {2, 3, 4, 5, 8, 16}) {
    const std::size_t m = 37;  // deliberately not divisible by ranks
    const auto bufs = rank_buffers(ranks, m);
    const auto expected = LocalComm(ranks).allreduce_sum(bufs);
    const comm::Engine engine(comm::Topology::uniform(ranks));
    for (const auto alg :
         {CommAlgorithm::kRing, CommAlgorithm::kRecursive,
          CommAlgorithm::kTree}) {
      const auto out = engine.allreduce(bufs, alg);
      ASSERT_EQ(out.size(), bufs.size());
      for (int r = 0; r < ranks; ++r) {
        ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), m);
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(out[static_cast<std::size_t>(r)][i], expected[i])
              << "alg=" << toast::config::to_string(alg) << " ranks=" << ranks
              << " rank=" << r << " i=" << i;
        }
      }
    }
  }
}

TEST(EnginePayload, ClusterTopologyDoesNotChangeValues) {
  const int ranks = 32;
  const auto bufs = rank_buffers(ranks, 16);
  const auto expected = LocalComm(ranks).allreduce_sum(bufs);
  const comm::Engine engine(comm::Topology::cluster(ranks, 16));
  const auto out = engine.allreduce(bufs, CommAlgorithm::kRecursive);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out[31][i], expected[i]);
  }
}

TEST(EnginePayload, BcastCopiesRootEverywhere) {
  const int ranks = 5;
  auto bufs = rank_buffers(ranks, 9);
  const comm::Engine engine(comm::Topology::uniform(ranks));
  const auto out = engine.bcast(bufs);
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < 9; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(r)][i], bufs[0][i]);
    }
  }
}

TEST(EnginePayload, GatherConcatenatesRankBlocks) {
  const int ranks = 4;
  const std::size_t m = 3;
  const auto bufs = rank_buffers(ranks, m);
  const comm::Engine engine(comm::Topology::uniform(ranks));
  const auto out = engine.gather(bufs);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(ranks) * m);
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < m; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(r) * m + i],
                bufs[static_cast<std::size_t>(r)][i]);
    }
  }
}

TEST(EnginePayload, ValidatesWorldShape) {
  const comm::Engine engine(comm::Topology::uniform(4));
  EXPECT_THROW(engine.allreduce(rank_buffers(3, 8)), std::invalid_argument);
  auto ragged = rank_buffers(4, 8);
  ragged[2].resize(5);
  EXPECT_THROW(engine.allreduce(ragged), std::invalid_argument);
}

TEST(EnginePayload, SingleRankIsIdentity) {
  const comm::Engine engine(comm::Topology::uniform(1));
  const auto bufs = rank_buffers(1, 4);
  const auto out = engine.allreduce(bufs);
  EXPECT_EQ(out[0], bufs[0]);
  EXPECT_EQ(engine.gather(bufs), bufs[0]);
}

// --- lane tracing -----------------------------------------------------------

TEST(EngineTrace, InterNodeStepsLandOnNicLanes) {
  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  const comm::Engine engine(comm::Topology::uniform(4));
  comm::RunOptions opt;
  opt.tracer = &tracer;
  opt.lane_base = 16;
  const double t = engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt);
  EXPECT_GT(t, 0.0);
  // 2(n-1) rounds x n ranks of chunk spans, all unlogged, on NIC lanes.
  int lane_spans = 0;
  for (const auto& s : tracer.spans()) {
    if (s.category != "comm") {
      continue;
    }
    EXPECT_FALSE(s.logged);
    EXPECT_GE(s.stream, 16);
    EXPECT_LT(s.stream, 16 + 4);
    EXPECT_EQ(s.name, "comm_allreduce_ring");
    EXPECT_GT(s.counters.count("bytes"), 0u);
    ++lane_spans;
  }
  EXPECT_EQ(lane_spans, 2 * 3 * 4);
  // TimeLog aggregation is untouched by the unlogged chunk spans.
  EXPECT_EQ(tracer.timelog().total_seconds(), 0.0);
}

TEST(EngineTrace, IntraNodeStepsTracedOnlyOnRequest) {
  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  const comm::Engine engine(comm::Topology::cluster(4, 4));  // one node
  comm::RunOptions opt;
  opt.tracer = &tracer;
  engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt);
  EXPECT_TRUE(tracer.spans().empty());
  opt.trace_intra = true;
  engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt);
  EXPECT_FALSE(tracer.spans().empty());
}

// --- fault hooks ------------------------------------------------------------

TEST(EngineFaults, ZeroFaultPlanIsBitForBitIdentical) {
  const comm::Engine engine(comm::Topology::cluster(32, 16));
  const double clean = engine.allreduce_seconds(1.0e6);

  fault::FaultInjector disarmed;  // empty plan: hooks are no-ops
  comm::RunOptions opt;
  opt.faults = &disarmed;
  EXPECT_EQ(engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt),
            clean);
  EXPECT_TRUE(disarmed.counters().empty());
}

TEST(EngineFaults, LinkDegradeSlowsDeterministically) {
  const comm::Engine engine(comm::Topology::uniform(8));
  const double clean = engine.allreduce_seconds(1.0e6);

  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  fault::FaultInjector inj_a(link_plan(0.5, 3.0), &clock, &tracer);
  comm::RunOptions opt;
  opt.faults = &inj_a;
  const double slow_a = engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing,
                                                 opt);
  EXPECT_GT(slow_a, clean);
  EXPECT_GT(inj_a.counters().at("fault_link_degrades"), 0.0);

  // Same seed, fresh injector: bit-identical makespan.
  fault::FaultInjector inj_b(link_plan(0.5, 3.0), &clock, &tracer);
  opt.faults = &inj_b;
  EXPECT_EQ(engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt),
            slow_a);
}

TEST(EngineFaults, ChunkLossChargesRetriesOnTheLanes) {
  const comm::Engine engine(comm::Topology::uniform(8));
  const double clean = engine.allreduce_seconds(1.0e6);

  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  fault::FaultInjector inj(chunk_plan(0.4), &clock, &tracer);
  comm::RunOptions opt;
  opt.faults = &inj;
  const double lossy =
      engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt);
  EXPECT_GT(lossy, clean);
  EXPECT_GT(inj.counters().at("fault_chunk_retries"), 0.0);
  // The retry spans are in the trace.
  bool saw_retry = false;
  for (const auto& s : tracer.spans()) {
    if (s.name == "fault_retry_chunk") {
      saw_retry = true;
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(EngineFaults, PersistentChunkLossThrows) {
  const comm::Engine engine(comm::Topology::uniform(4));
  accel::VirtualClock clock;
  obs::Tracer tracer(&clock);
  fault::FaultInjector inj(chunk_plan(1.0), &clock, &tracer);
  comm::RunOptions opt;
  opt.faults = &inj;
  EXPECT_THROW(engine.allreduce_seconds(1.0e6, CommAlgorithm::kRing, opt),
               fault::PersistentFaultError);
  EXPECT_GT(inj.counters().at("fault_persistent"), 0.0);
}

// --- step-at-a-time scheduling (the async runtime's cursor) -----------------

TEST(StepScheduler, IncrementalPlacementEqualsOneShot) {
  // place_next() one step at a time must land every step exactly where
  // Engine::schedule puts it — bitwise, on a contended cluster topology.
  const comm::Engine engine(comm::Topology::cluster(16, 8));
  const auto dag = comm::ring_allreduce(16, 1.0e6);
  comm::RunOptions opt;
  opt.epoch = 3.0;
  const auto oneshot = engine.schedule(dag, opt);

  comm::StepScheduler cursor(engine, dag, opt);
  std::vector<double> ends;
  while (!cursor.done()) {
    ends.push_back(cursor.place_next());
  }
  const auto placed = cursor.finish();
  ASSERT_EQ(placed.start.size(), oneshot.start.size());
  ASSERT_EQ(ends.size(), oneshot.end.size());
  for (std::size_t i = 0; i < placed.start.size(); ++i) {
    EXPECT_EQ(placed.start[i], oneshot.start[i]) << i;
    EXPECT_EQ(placed.end[i], oneshot.end[i]) << i;
    EXPECT_EQ(ends[i], oneshot.end[i]) << i;
  }
  EXPECT_EQ(placed.makespan, oneshot.makespan);
}

TEST(StepScheduler, IncrementalMatchesOneShotUnderFaults) {
  // The per-(kind, site) counter RNG streams give two fresh injectors of
  // the same plan identical draws, so incremental scheduling stays
  // bitwise even with link degradation and chunk retries in play.
  const comm::Engine engine(comm::Topology::uniform(8));
  const auto dag = comm::ring_allreduce(8, 1.0e6);
  auto plan = link_plan(0.5, 2.0);
  fault::FaultRule loss;
  loss.kind = fault::FaultKind::kChunkLoss;
  loss.probability = 0.3;
  plan.rules.push_back(loss);
  plan.retry.max_attempts = 12;

  accel::VirtualClock clock_a;
  obs::Tracer tracer_a(&clock_a);
  fault::FaultInjector inj_a(plan, &clock_a, &tracer_a);
  comm::RunOptions opt_a;
  opt_a.faults = &inj_a;
  const auto oneshot = engine.schedule(dag, opt_a);

  accel::VirtualClock clock_b;
  obs::Tracer tracer_b(&clock_b);
  fault::FaultInjector inj_b(plan, &clock_b, &tracer_b);
  comm::RunOptions opt_b;
  opt_b.faults = &inj_b;
  comm::StepScheduler cursor(engine, dag, opt_b);
  while (!cursor.done()) {
    cursor.place_next();
  }
  const auto placed = cursor.finish();

  ASSERT_EQ(placed.start.size(), oneshot.start.size());
  for (std::size_t i = 0; i < placed.start.size(); ++i) {
    EXPECT_EQ(placed.start[i], oneshot.start[i]) << i;
    EXPECT_EQ(placed.end[i], oneshot.end[i]) << i;
  }
  EXPECT_EQ(placed.makespan, oneshot.makespan);
  EXPECT_EQ(inj_a.counters().at("fault_chunk_retries"),
            inj_b.counters().at("fault_chunk_retries"));
}

// --- generic lane scheduler (sched::schedule_lanes) -------------------------

TEST(ScheduleLanes, SingleLaneChainIsTheSerialFold) {
  std::vector<toast::sched::LaneOp> ops(3);
  for (auto& op : ops) {
    op.seconds = 0.125;
    op.lanes = {0};
  }
  const auto placed = toast::sched::schedule_lanes(ops, 1.0);
  EXPECT_EQ(placed.start[0], 1.0);
  EXPECT_EQ(placed.end[2], ((1.0 + 0.125) + 0.125) + 0.125);
  EXPECT_EQ(placed.makespan, placed.end[2]);
}

TEST(ScheduleLanes, DisjointLanesRunConcurrently) {
  std::vector<toast::sched::LaneOp> ops(2);
  ops[0].seconds = 1.0;
  ops[0].lanes = {0, 3};
  ops[1].seconds = 2.0;
  ops[1].lanes = {1, 2};
  const auto placed = toast::sched::schedule_lanes(ops);
  EXPECT_EQ(placed.start[1], 0.0);
  EXPECT_EQ(placed.makespan, 2.0);
}

TEST(ScheduleLanes, DepsAndLeadDelayTheOp) {
  std::vector<toast::sched::LaneOp> ops(3);
  ops[0].seconds = 1.0;
  ops[0].lanes = {0};
  ops[1].seconds = 1.0;
  ops[1].lanes = {1};
  ops[1].deps = {0};
  ops[2].seconds = 1.0;
  ops[2].lanes = {1};
  ops[2].lead = 0.5;  // retry penalty ahead of the op on its lane
  const auto placed = toast::sched::schedule_lanes(ops);
  EXPECT_EQ(placed.start[1], 1.0);  // waits for dep, not its own lane
  EXPECT_EQ(placed.start[2], 2.5);
  EXPECT_EQ(placed.makespan, 3.5);
}

TEST(ScheduleLanes, RejectsMalformedOps) {
  std::vector<toast::sched::LaneOp> bad_lane(1);
  bad_lane[0].lanes = {-1};
  EXPECT_THROW(toast::sched::schedule_lanes(bad_lane), std::invalid_argument);
  std::vector<toast::sched::LaneOp> fwd_dep(1);
  fwd_dep[0].lanes = {0};
  fwd_dep[0].deps = {0};  // self/forward dep
  EXPECT_THROW(toast::sched::schedule_lanes(fwd_dep), std::invalid_argument);
}
