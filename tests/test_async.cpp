// Tests of the async task-graph view (docs/MODEL.md §11): dependency
// derivation from declared resource uses, overlap placement against
// deps and barriers, and the pipeline post-pass — run_plan_async bitwise
// against the interpreter oracle, overlap re-timing under a pinned
// launch-chaos plan that re-routes a group to its patch, and the
// executor degradation ladder in both drives.

#include "async/lower.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "async/registry.hpp"
#include "core/pipeline.hpp"
#include "fault/fault.hpp"
#include "resilience/policy.hpp"
#include "kernels/jax.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace async = toast::async;
namespace core = toast::core;
namespace fault = toast::fault;
namespace sim = toast::sim;
using core::Backend;

namespace {

core::Data make_data(int n_obs = 2) {
  const auto fp = sim::hex_focalplane(4, 37.0);
  core::Data data;
  for (int ob = 0; ob < n_obs; ++ob) {
    sim::ScanParams scan;
    scan.spin_period = 1024.0 / 37.0 / 4.0;
    data.observations.push_back(sim::simulate_satellite(
        "obs" + std::to_string(ob), fp, 1024, scan,
        7 + static_cast<std::uint64_t>(ob)));
  }
  return data;
}

struct RunResult {
  double runtime = 0.0;
  toast::accel::TimeLog log;
  core::Data data;
  async::GraphReport report;  // run_plan_async drives only
  double planned = 0.0;       // observations that ran a compiled plan
};

enum class Drive {
  kInterpreted,  ///< Pipeline::exec_interpreted (the oracle)
  kStaged,       ///< Pipeline::exec
  kSerial,       ///< async::run_plan_async, Mode::kSerial
  kOverlap,      ///< async::run_plan_async, Mode::kOverlap
};

RunResult run(Backend b, Drive drive, const fault::FaultPlan& fplan = {},
              const toast::resilience::Policy& policy = {}) {
  RunResult r;
  r.data = make_data();
  core::ExecConfig cfg;
  cfg.backend = b;
  cfg.fault_plan = fplan;
  cfg.resilience_policy = policy;
  core::ExecContext ctx(cfg);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  if (drive == Drive::kInterpreted) {
    pipeline.exec_interpreted(r.data, ctx);
  } else if (drive == Drive::kStaged) {
    pipeline.exec(r.data, ctx);
  } else {
    core::PlanStats stats;
    async::Options opt;
    opt.mode =
        drive == Drive::kOverlap ? async::Mode::kOverlap : async::Mode::kSerial;
    for (auto& ob : r.data.observations) {
      r.report.merge(async::run_plan_async(pipeline, ob, ctx, stats, opt));
    }
  }
  r.runtime = ctx.clock().now();
  r.log = ctx.log();
  r.planned =
      pipeline.plan_stats().cache_hits + pipeline.plan_stats().cache_misses;
  return r;
}

fault::FaultPlan launch_chaos_plan() {
  // Persistent launch faults on scan_map: it degrades mid-run.
  fault::FaultPlan fplan;
  fplan.seed = 7;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLaunch;
  rule.site = "scan_map";
  rule.probability = 1.0;
  fplan.rules.push_back(rule);
  return fplan;
}

void expect_logs_equal(const toast::accel::TimeLog& a,
                       const toast::accel::TimeLog& b) {
  ASSERT_EQ(a.categories(), b.categories());
  for (const auto& c : a.categories()) {
    EXPECT_EQ(a.seconds(c), b.seconds(c)) << c;
    EXPECT_EQ(a.calls(c), b.calls(c)) << c;
  }
}

void expect_fields_equal(const core::Data& a, const core::Data& b,
                         const char* field) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t o = 0; o < a.observations.size(); ++o) {
    const auto sa = a.observations[o].field(field).f64();
    const auto sb = b.observations[o].field(field).f64();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      ASSERT_EQ(sa[i], sb[i]) << field << " obs " << o << " index " << i;
    }
  }
}

async::Task named(const char* name) {
  async::Task t;
  t.name = name;
  return t;
}

}  // namespace

// --- dependency derivation --------------------------------------------------

TEST(TaskRegistry, DerivesRawWawWarDeps) {
  async::TaskGraph g;
  async::TaskRegistry reg(g);
  const int w0 = reg.add(named("w0"), {async::writes("x")});
  const int r1 = reg.add(named("r1"), {async::reads("x")});
  const int r2 = reg.add(named("r2"), {async::reads("x")});
  const int w3 = reg.add(named("w3"), {async::writes("x")});
  const int r4 = reg.add(named("r4"), {async::reads("x")});
  EXPECT_TRUE(g.tasks[static_cast<std::size_t>(w0)].deps.empty());
  // RAW: readers depend on the last writer.
  EXPECT_EQ(g.tasks[static_cast<std::size_t>(r1)].deps, std::vector<int>{w0});
  EXPECT_EQ(g.tasks[static_cast<std::size_t>(r2)].deps, std::vector<int>{w0});
  // WAW on w0 plus WAR on both readers, sorted.
  EXPECT_EQ(g.tasks[static_cast<std::size_t>(w3)].deps,
            (std::vector<int>{w0, r1, r2}));
  // The second write retired the readers: only RAW on w3.
  EXPECT_EQ(g.tasks[static_cast<std::size_t>(r4)].deps, std::vector<int>{w3});
}

TEST(TaskRegistry, DisjointResourcesStayIndependent) {
  async::TaskGraph g;
  async::TaskRegistry reg(g);
  reg.add(named("wx"), {async::writes("x")});
  const int wy = reg.add(named("wy"), {async::writes("y")});
  const int rw =
      reg.add(named("rw"), {async::reads("x"), async::writes("y")});
  EXPECT_TRUE(g.tasks[static_cast<std::size_t>(wy)].deps.empty());
  // Mixed-use task: RAW on x's writer + WAW on y's writer.
  EXPECT_EQ(g.tasks[static_cast<std::size_t>(rw)].deps,
            (std::vector<int>{0, wy}));
}

TEST(TaskRegistry, PatchTasksBypassTheVersionTable) {
  async::TaskGraph g;
  async::TaskRegistry reg(g);
  reg.add(named("body"), {async::writes("x")});
  const int alt = reg.add_alt(named("patch"));
  EXPECT_EQ(alt, 0);
  ASSERT_EQ(g.alt_tasks.size(), 1u);
  EXPECT_TRUE(g.alt_tasks[0].deps.empty());
  // The patch left the version table alone: a reader still depends on
  // the body, not on the patch.
  const int r = reg.add(named("reader"), {async::reads("x")});
  EXPECT_EQ(g.tasks[static_cast<std::size_t>(r)].deps, std::vector<int>{0});
}

// --- overlap placement ------------------------------------------------------

TEST(AsyncLowering, OverlapPlacesAgainstDeps) {
  // Hand-built graph, run in id order: two independent 1s tasks on
  // different lanes plus a task depending on both.  The serial sum is
  // 3s; placement overlaps the independent pair for a 2s makespan.
  async::TaskGraph g;
  g.lane_names = {"host", "compute"};
  std::vector<core::StepRecord> order;
  for (int i = 0; i < 3; ++i) {
    async::Task t;
    t.id = i;
    t.name = "t" + std::to_string(i);
    t.lane = i == 1 ? 1 : 0;
    if (i == 2) {
      t.deps = {0, 1};
    }
    t.start = static_cast<double>(i);
    t.seconds = 1.0;
    t.ran = true;
    g.tasks.push_back(std::move(t));
    order.push_back({core::StepRecord::kMain, i, static_cast<double>(i), 1.0});
  }
  const auto rep = async::graph_report(g);
  EXPECT_EQ(rep.total_busy_s, 3.0);
  EXPECT_EQ(rep.critical_path_s, 2.0);

  EXPECT_EQ(async::place_overlap(g, order, 0.0), 2.0);
  // Placed times: t1 starts at 0 on its own lane, t2 at max(dep ends).
  EXPECT_EQ(g.tasks[0].start, 0.0);
  EXPECT_EQ(g.tasks[1].start, 0.0);
  EXPECT_EQ(g.tasks[2].start, 1.0);

  // A barrier after t0 (a patch boundary) serializes t1 behind it.
  order.insert(order.begin() + 1, core::StepRecord{core::StepRecord::kBarrier});
  EXPECT_EQ(async::place_overlap(g, order, 0.0), 3.0);
  EXPECT_EQ(g.tasks[1].start, 1.0);
  EXPECT_EQ(g.tasks[2].start, 2.0);
}

// --- the pipeline post-pass --------------------------------------------------

TEST(AsyncLowering, SerialRunMatchesInterpreterBitwise) {
  const auto interp = run(Backend::kOmpTarget, Drive::kInterpreted);
  const auto graph = run(Backend::kOmpTarget, Drive::kSerial);
  EXPECT_EQ(graph.runtime, interp.runtime);
  expect_logs_equal(graph.log, interp.log);
  expect_fields_equal(graph.data, interp.data, "signal");
  expect_fields_equal(graph.data, interp.data, "zmap");

  // And the report sees real graph structure.
  EXPECT_GT(graph.report.n_tasks, 0);
  EXPECT_GT(graph.report.n_groups, 0);
  EXPECT_EQ(graph.report.patched, 0);
  EXPECT_GT(graph.report.critical_path_s, 0.0);
  EXPECT_LE(graph.report.critical_path_s, graph.report.total_busy_s);
  EXPECT_GE(graph.report.overlap_fraction, 0.0);
  EXPECT_LT(graph.report.overlap_fraction, 1.0);
}

TEST(AsyncLowering, SerialRunMatchesInterpreterUnderLaunchChaos) {
  // scan_map degrades mid-run: the driver's dispatch/recovery/patch route
  // must land where the interpreter's inline fallback does.
  const auto interp =
      run(Backend::kOmpTarget, Drive::kInterpreted, launch_chaos_plan());
  const auto graph =
      run(Backend::kOmpTarget, Drive::kSerial, launch_chaos_plan());
  EXPECT_EQ(graph.runtime, interp.runtime);
  expect_logs_equal(graph.log, interp.log);
  expect_fields_equal(graph.data, interp.data, "signal");
  expect_fields_equal(graph.data, interp.data, "zmap");
  EXPECT_GT(graph.report.patched, 0);  // the degrade re-routed to patches
}

TEST(AsyncLowering, OverlapRunKeepsStagedResultsUnderLaunchChaos) {
  // Overlap only re-times: products and TimeLog stay the staged run's
  // through the mid-run degrade, and the placed clock is never later.
  const auto staged =
      run(Backend::kOmpTarget, Drive::kStaged, launch_chaos_plan());
  const auto overlap =
      run(Backend::kOmpTarget, Drive::kOverlap, launch_chaos_plan());
  expect_logs_equal(overlap.log, staged.log);
  expect_fields_equal(overlap.data, staged.data, "signal");
  expect_fields_equal(overlap.data, staged.data, "zmap");
  EXPECT_GT(overlap.report.patched, 0);
  EXPECT_LE(overlap.runtime, staged.runtime);
}

TEST(AsyncLowering, ExecutorLadderRunsTheInterpreterInBothDrives) {
  // One reported executor fault escalates the "executor" ladder: every
  // later observation runs on the interpreter, in either drive, with
  // the products of the same run without the ladder.
  toast::resilience::Policy ladder;
  ladder.ladders.push_back(toast::resilience::LadderSpec{"executor", 1, 1});
  const auto plain =
      run(Backend::kOmpTarget, Drive::kStaged, launch_chaos_plan());
  EXPECT_EQ(plain.planned, 2.0);  // both observations ran a plan
  for (const Drive drive : {Drive::kStaged, Drive::kOverlap}) {
    const auto laddered =
        run(Backend::kOmpTarget, drive, launch_chaos_plan(), ladder);
    EXPECT_EQ(laddered.planned, 1.0);  // obs1 ran on the interpreter
    expect_fields_equal(laddered.data, plain.data, "signal");
    expect_fields_equal(laddered.data, plain.data, "zmap");
  }
}
