#include "async/lower.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

#include "async/registry.hpp"
#include "obs/json.hpp"

namespace toast::async {

namespace {

/// Numbers are written with enough digits to round-trip a double.
struct Num {
  double v;
};

std::ostream& operator<<(std::ostream& out, Num n) {
  const auto flags = out.flags();
  const auto prec = out.precision();
  out << std::setprecision(17) << n.v;
  out.flags(flags);
  out.precision(prec);
  return out;
}

TaskKind kind_of(core::StepKind k) {
  switch (k) {
    case core::StepKind::kChargeOverhead:
      return TaskKind::kOverhead;
    case core::StepKind::kEnsureFields:
      return TaskKind::kEnsure;
    case core::StepKind::kMapField:
      return TaskKind::kMap;
    case core::StepKind::kUpload:
      return TaskKind::kUpload;
    case core::StepKind::kLaunch:
      return TaskKind::kLaunch;
    case core::StepKind::kDownload:
      return TaskKind::kDownload;
    case core::StepKind::kEvict:
      return TaskKind::kEvict;
    case core::StepKind::kSyncTransfers:
      return TaskKind::kSyncTransfers;
  }
  return TaskKind::kLaunch;
}

int lane_of(const core::PlanStep& s) {
  switch (s.kind) {
    case core::StepKind::kChargeOverhead:
    case core::StepKind::kEnsureFields:
      return kLaneHost;
    case core::StepKind::kMapField:
    case core::StepKind::kEvict:
      return kLaneCompute;
    case core::StepKind::kLaunch:
      return s.on_device ? kLaneCompute : kLaneHost;
    case core::StepKind::kUpload:
    case core::StepKind::kDownload:
    case core::StepKind::kSyncTransfers:
      return kLaneCopy;
  }
  return kLaneHost;
}

/// Declared resource uses of one step.  Versions of "host:<field>" and
/// "dev:<field>" carry the data dependencies; "host" serializes the
/// driver thread; "copy_engine" orders prefetched uploads before the
/// drain that awaits them.
std::vector<ResourceUse> uses_of(const core::ExecutionPlan& plan,
                                 const std::vector<core::OpMeta>& meta,
                                 const core::PlanStep& s) {
  std::vector<ResourceUse> uses;
  auto field = [&](int idx) {
    return plan.field_names[static_cast<std::size_t>(idx)];
  };
  switch (s.kind) {
    case core::StepKind::kChargeOverhead:
      uses.push_back(writes("host"));
      break;
    case core::StepKind::kEnsureFields:
      uses.push_back(writes("host"));
      for (const std::string& f :
           meta[static_cast<std::size_t>(s.op)].touched) {
        uses.push_back(writes("host:" + f));
      }
      break;
    case core::StepKind::kMapField:
      uses.push_back(writes("dev:" + field(s.field)));
      break;
    case core::StepKind::kUpload:
      uses.push_back(reads("host:" + field(s.field)));
      uses.push_back(writes("dev:" + field(s.field)));
      if (s.async) {
        uses.push_back(writes("copy_engine"));
      }
      break;
    case core::StepKind::kLaunch: {
      const core::OpMeta& m = meta[static_cast<std::size_t>(s.op)];
      const char* space = s.on_device ? "dev:" : "host:";
      for (const std::string& f : m.reads) {
        uses.push_back(reads(space + f));
      }
      for (const std::string& f : m.writes) {
        uses.push_back(writes(space + f));
      }
      if (!s.on_device) {
        uses.push_back(writes("host"));
      }
      break;
    }
    case core::StepKind::kDownload:
      uses.push_back(reads("dev:" + field(s.field)));
      uses.push_back(writes("host:" + field(s.field)));
      break;
    case core::StepKind::kEvict:
      uses.push_back(writes("dev:" + field(s.field)));
      break;
    case core::StepKind::kSyncTransfers:
      uses.push_back(reads("copy_engine"));
      break;
  }
  return uses;
}

/// The task a kMain/kAlt step record names.
Task& task_of(TaskGraph& graph, const core::StepRecord& r) {
  auto& tasks =
      r.kind == core::StepRecord::kAlt ? graph.alt_tasks : graph.tasks;
  return tasks[static_cast<std::size_t>(r.index)];
}

std::string name_of(const core::ExecutionPlan& plan,
                    const std::vector<core::OpMeta>& meta,
                    const core::PlanStep& s) {
  if (s.field >= 0) {
    return plan.field_names[static_cast<std::size_t>(s.field)];
  }
  if (s.op >= 0) {
    return meta[static_cast<std::size_t>(s.op)].name;
  }
  return "pipeline";
}

}  // namespace

TaskGraph lower_plan(const core::ExecutionPlan& plan,
                     const std::vector<core::OpMeta>& meta) {
  TaskGraph graph;
  graph.lane_names = {"host", "compute", "copy", "comm"};
  TaskRegistry reg(graph);
  for (const core::PlanStep& s : plan.steps) {
    Task t;
    t.kind = kind_of(s.kind);
    t.name = name_of(plan, meta, s);
    t.lane = lane_of(s);
    reg.add(std::move(t), uses_of(plan, meta, s));
  }
  for (const core::PlanStep& s : plan.alt_steps) {
    Task t;
    t.kind = kind_of(s.kind);
    t.name = name_of(plan, meta, s);
    t.lane = kLaneHost;  // patches run on the serial host driver
    reg.add_alt(std::move(t));
  }
  return graph;
}

GraphReport graph_report(const TaskGraph& graph) {
  GraphReport rep;
  rep.lanes.resize(graph.lane_names.size());
  for (std::size_t i = 0; i < graph.lane_names.size(); ++i) {
    rep.lanes[i].name = graph.lane_names[i];
  }
  auto count = [&](const Task& t) {
    ++rep.n_tasks;
    ++rep.by_kind[static_cast<std::size_t>(t.kind)];
    rep.total_busy_s += t.seconds;
    if (static_cast<std::size_t>(t.lane) < rep.lanes.size()) {
      ++rep.lanes[static_cast<std::size_t>(t.lane)].tasks;
      rep.lanes[static_cast<std::size_t>(t.lane)].busy_s += t.seconds;
    }
  };
  // Longest data-dependency chain over executed tasks.  Patch tasks
  // carry no derived deps (they replace a body that never committed)
  // and run serially on the host lane, so they add to busy time but
  // chain as a block via the driver, not the dep graph.
  std::vector<double> path(graph.tasks.size(), 0.0);
  for (std::size_t i = 0; i < graph.tasks.size(); ++i) {
    const Task& t = graph.tasks[i];
    if (!t.ran) {
      continue;
    }
    count(t);
    double at = 0.0;
    for (int d : t.deps) {
      at = std::max(at, path[static_cast<std::size_t>(d)]);
    }
    path[i] = at + t.seconds;
    rep.critical_path_s = std::max(rep.critical_path_s, path[i]);
  }
  double alt_busy = 0.0;
  for (const Task& t : graph.alt_tasks) {
    if (!t.ran) {
      continue;
    }
    count(t);
    alt_busy += t.seconds;
  }
  rep.critical_path_s += alt_busy;
  rep.overlap_fraction =
      rep.total_busy_s > 0.0 ? 1.0 - rep.critical_path_s / rep.total_busy_s
                             : 0.0;
  return rep;
}

double place_overlap(TaskGraph& graph,
                     const std::vector<core::StepRecord>& order,
                     double run_start) {
  std::vector<double> lane_end(graph.lane_names.size(), run_start);
  std::vector<double> task_end(graph.tasks.size(), run_start);
  double global_end = run_start;
  for (const core::StepRecord& rec : order) {
    if (rec.kind == core::StepRecord::kBarrier) {
      // Recovery serializes: nothing placed after this point may start
      // before everything placed so far has finished.
      for (double& e : lane_end) {
        e = global_end;
      }
      continue;
    }
    const bool alt = rec.kind == core::StepRecord::kAlt;
    Task& t = task_of(graph, rec);
    if (static_cast<std::size_t>(t.lane) >= lane_end.size()) {
      lane_end.resize(static_cast<std::size_t>(t.lane) + 1, run_start);
    }
    double start =
        std::max(run_start, lane_end[static_cast<std::size_t>(t.lane)]);
    if (!alt) {
      // Patch tasks carry no derived deps (they replace a body that
      // never committed); main tasks wait on their data dependencies.
      for (int d : t.deps) {
        start = std::max(start, task_end[static_cast<std::size_t>(d)]);
      }
    }
    const double end = start + t.seconds;
    t.start = start;
    lane_end[static_cast<std::size_t>(t.lane)] = end;
    if (!alt) {
      task_end[static_cast<std::size_t>(rec.index)] = end;
    }
    global_end = std::max(global_end, end);
  }
  return global_end - run_start;
}

GraphReport run_plan_async(core::Pipeline& pipeline, core::Observation& ob,
                           core::ExecContext& ctx, core::PlanStats& stats,
                           const Options& opt, TaskGraph* graph_out) {
  GraphReport rep;
  const auto retime = [&](const core::ExecutionPlan& plan,
                          const core::StepLog& log) {
    TaskGraph graph = lower_plan(plan, pipeline.metadata());
    int patched = 0;
    for (const core::StepRecord& r : log.records) {
      if (r.kind == core::StepRecord::kBarrier) {
        continue;
      }
      Task& t = task_of(graph, r);
      t.start = r.start;
      t.seconds = r.seconds;
      t.ran = true;
      if (r.kind == core::StepRecord::kAlt) {
        // One patch launch per re-routed group; host-planned groups
        // always run their patch and are not re-routes.
        const core::PlanStep& s =
            plan.alt_steps[static_cast<std::size_t>(r.index)];
        if (s.kind == core::StepKind::kLaunch &&
            plan.groups[static_cast<std::size_t>(s.op)].on_accel) {
          ++patched;
        }
      }
    }
    rep = graph_report(graph);
    rep.n_groups = static_cast<int>(plan.groups.size());
    rep.patched = patched;
    rep.makespan_s = ctx.clock().now() - log.start;
    if (opt.mode == Mode::kOverlap) {
      // The driver charged the serial sum; land the clock on the placed
      // makespan instead.
      const double placed_s = place_overlap(graph, log.records, log.start);
      ctx.clock().advance(placed_s - rep.makespan_s);
      rep.makespan_s = placed_s;
    }
    // Structural task spans on the engine lanes, at the (placed) starts;
    // trace-only, never in the TimeLog.
    obs::Tracer& tracer = ctx.tracer();
    for (std::size_t i = 0; i < graph.lane_names.size(); ++i) {
      tracer.set_stream_name(kLaneBase + static_cast<int>(i),
                             "async:" + graph.lane_names[i]);
    }
    for (const core::StepRecord& r : log.records) {
      if (r.kind == core::StepRecord::kBarrier) {
        continue;
      }
      const Task& t = task_of(graph, r);
      if (t.seconds > 0.0) {
        const obs::SpanId span = tracer.record_at(
            to_string(t.kind) + (":" + t.name), "task", t.start, t.seconds,
            {}, nullptr, /*logged=*/false);
        tracer.set_stream(span, kLaneBase + t.lane);
      }
    }
    if (graph_out != nullptr) {
      *graph_out = std::move(graph);
    }
  };
  pipeline.exec(ob, ctx, stats, retime);
  return rep;
}

void GraphReport::merge(const GraphReport& other) {
  n_tasks += other.n_tasks;
  n_groups += other.n_groups;
  patched += other.patched;
  for (int k = 0; k < kNumTaskKinds; ++k) {
    by_kind[static_cast<std::size_t>(k)] +=
        other.by_kind[static_cast<std::size_t>(k)];
  }
  total_busy_s += other.total_busy_s;
  makespan_s += other.makespan_s;
  critical_path_s += other.critical_path_s;
  overlap_fraction =
      total_busy_s > 0.0 ? 1.0 - critical_path_s / total_busy_s : 0.0;
  for (const LaneStat& l : other.lanes) {
    auto it = std::find_if(lanes.begin(), lanes.end(), [&](const LaneStat& m) {
      return m.name == l.name;
    });
    if (it == lanes.end()) {
      lanes.push_back(l);
    } else {
      it->tasks += l.tasks;
      it->busy_s += l.busy_s;
    }
  }
}

void write_tasks_json(std::ostream& out, const TaskGraph& graph,
                      const GraphReport& report) {
  out << "{\"schema\":\"toastcase-tasks-v1\"";
  out << ",\"n_tasks\":" << report.n_tasks
      << ",\"n_groups\":" << report.n_groups
      << ",\"patched\":" << report.patched
      << ",\"total_busy_s\":" << Num{report.total_busy_s}
      << ",\"makespan_s\":" << Num{report.makespan_s}
      << ",\"critical_path_s\":" << Num{report.critical_path_s}
      << ",\"overlap_fraction\":" << Num{report.overlap_fraction};
  out << ",\"by_kind\":{";
  bool first = true;
  for (int k = 0; k < kNumTaskKinds; ++k) {
    const int n = report.by_kind[static_cast<std::size_t>(k)];
    if (n == 0) {
      continue;
    }
    out << (first ? "" : ",") << "\""
        << to_string(static_cast<TaskKind>(k)) << "\":" << n;
    first = false;
  }
  out << "},\"lanes\":[";
  for (std::size_t i = 0; i < report.lanes.size(); ++i) {
    const LaneStat& l = report.lanes[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\""
        << obs::json::escape(l.name) << "\",\"tasks\":" << l.tasks
        << ",\"busy_s\":" << Num{l.busy_s} << "}";
  }
  out << "],\"tasks\":[";
  bool first_task = true;
  auto dump = [&](const Task& t, bool alt) {
    if (!t.ran) {
      return;
    }
    out << (first_task ? "" : ",") << "\n{\"id\":" << t.id
        << ",\"kind\":\"" << to_string(t.kind) << "\",\"name\":\""
        << obs::json::escape(t.name) << "\",\"lane\":" << t.lane
        << ",\"alt\":" << (alt ? "true" : "false")
        << ",\"start_s\":" << Num{t.start}
        << ",\"seconds\":" << Num{t.seconds} << ",\"deps\":[";
    for (std::size_t d = 0; d < t.deps.size(); ++d) {
      out << (d == 0 ? "" : ",") << t.deps[d];
    }
    out << "]}";
    first_task = false;
  };
  for (const Task& t : graph.tasks) {
    dump(t, false);
  }
  for (const Task& t : graph.alt_tasks) {
    dump(t, true);
  }
  out << "\n]}\n";
}

}  // namespace toast::async
