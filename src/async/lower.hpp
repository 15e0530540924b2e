#pragma once

// Pipeline task graphs (docs/MODEL.md §11).
//
// core::execute_plan is the one plan driver; the async layer adds no
// second one.  run_plan_async() runs an observation through
// Pipeline::exec (so the executor degradation ladder applies) and adds a
// post-pass over the steps the driver actually ran:
//
//  - lower_plan() maps every plan step 1:1 onto a Task and derives data
//    dependencies from each step's declared resource uses (host/device
//    field versions, the serial host driver, the prefetch copy engine);
//    the step log says which tasks ran, when and for how long.
//  - Mode::kSerial stops there: the GraphReport says what the dependency
//    structure would allow (critical path, achievable overlap).
//  - Mode::kOverlap re-times the executed tasks (place_overlap) and
//    lands the clock on the placed makespan.  Products, TimeLog and
//    every fault decision are the staged run's, bit for bit: only the
//    clock moves.

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "async/task.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"

namespace toast::async {

enum class Mode {
  kSerial,   ///< report the dependency structure; the clock is the driver's
  kOverlap,  ///< re-time the executed tasks and land the clock on the makespan
};

struct Options {
  Mode mode = Mode::kSerial;
};

/// First Tracer stream id of the lanes below (clear of the sched stream
/// ids, which start at 0).  Lane i traces on stream kLaneBase + i.
inline constexpr int kLaneBase = 32;

/// Lane indices of the lowered graph (TaskGraph::lane_names order).
enum : int {
  kLaneHost = 0,     ///< serial driver: overhead, ensure, host patches
  kLaneCompute = 1,  ///< device kernels, device alloc/evict
  kLaneCopy = 2,     ///< H2D/D2H transfers, prefetch drains
  kLaneComm = 3,     ///< collectives (the destriper's CG allreduces)
};

struct LaneStat {
  std::string name;
  int tasks = 0;
  double busy_s = 0.0;
};

struct GraphReport {
  int n_tasks = 0;   ///< tasks executed (including patch tasks)
  int n_groups = 0;
  int patched = 0;   ///< device-planned groups re-routed to their patch
  std::array<int, kNumTaskKinds> by_kind{};
  double total_busy_s = 0.0;      ///< sum of executed task durations
  double makespan_s = 0.0;        ///< clock delta across the run
  double critical_path_s = 0.0;   ///< longest data-dep chain
  /// 1 - critical/busy: the fraction of busy time the dependency
  /// structure allows off the critical path (0 = fully serial).
  double overlap_fraction = 0.0;
  std::vector<LaneStat> lanes;

  /// Fold another observation's report into this one (serial
  /// composition: busy/makespan/critical path add, counts add).
  void merge(const GraphReport& other);
};

/// The task graph of one plan: a task per step (same indices), a patch
/// task per alt step.  Nothing has run yet.
TaskGraph lower_plan(const core::ExecutionPlan& plan,
                     const std::vector<core::OpMeta>& meta);

/// Counts, busy time and the critical path over the data deps of the
/// executed tasks.  Leaves n_groups, patched and makespan_s to the
/// caller.
GraphReport graph_report(const TaskGraph& graph);

/// The overlap re-timing pass.  Walking `order` (the driver's run order;
/// kMain/kAlt records index graph.tasks/alt_tasks), each executed task
/// starts at max(run_start, its lane's ready time, its deps' placed
/// ends); patch tasks carry no deps, and a barrier record serializes
/// against everything placed so far.  Sets each task's start and
/// returns the placed makespan (seconds past run_start).
double place_overlap(TaskGraph& graph,
                     const std::vector<core::StepRecord>& order,
                     double run_start);

/// Planned execution of one observation with the task-graph post-pass
/// (see file comment).  Accumulates into `stats` what Pipeline::exec
/// would; pass pipeline.plan_stats() to keep one set of counters.
/// `graph`, when set, receives the executed graph (for
/// write_tasks_json).  After an "executor" escalation the interpreter
/// runs and the report is empty.
GraphReport run_plan_async(core::Pipeline& pipeline, core::Observation& ob,
                           core::ExecContext& ctx, core::PlanStats& stats,
                           const Options& opt = {},
                           TaskGraph* graph = nullptr);

/// Dump "toastcase-tasks-v1" JSON: the report plus every executed
/// task with kind/lane/start/seconds/deps (toast-trace tasks reads
/// this).
void write_tasks_json(std::ostream& out, const TaskGraph& graph,
                      const GraphReport& report);

}  // namespace toast::async
