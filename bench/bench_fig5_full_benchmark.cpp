// Figure 5: the full benchmark at the large problem size (5e10 samples,
// ~10 TB, 8 nodes x 16 processes x 4 threads).
//
// Paper findings: vs the OpenMP CPU baseline, JAX is 2.28x faster and
// OpenMP Target Offload 2.58x faster; forcing JAX onto its *CPU* backend
// is 7.4x SLOWER than the threaded baseline (§4.2, excluded from the
// paper's plot because it would dwarf the other bars).
//
// --json <path>: machine-readable results (schema toastcase-bench-fig5-v1).
// --faults <plan>: apply a deterministic fault plan to every modelled run;
//   fault/recovery counters then ride along in the JSON so the chaos CI
//   can assert the runs completed (via retry or CPU fallback).
// --schedule <file>: start every run from a toastcase-schedule-v1 config
//   (the backend slot is re-pinned per implementation; --staging/--comm/
//   --prefetch still apply on top).
// --tuned: run the schedule autotuner per implementation and report
//   tuned-vs-hand runtimes.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "config/schedule.hpp"
#include "fault/fault.hpp"
#include "mpisim/job.hpp"
#include "obs/export.hpp"
#include "tune/tuner.hpp"

namespace config = toast::config;
using toast::bench_model::large_problem;
using toast::core::Backend;
using toast::mpisim::JobConfig;
using toast::mpisim::JobResult;
using toast::mpisim::run_benchmark_job;

namespace {

/// Autotuner result for one implementation (--tuned only).
struct TunedCell {
  bool ran = false;
  bool feasible = false;
  double runtime = 0.0;
  bool not_worse = false;
  std::string config_hash;
  int evaluations = 0;
};

struct Row {
  std::string label;
  JobResult result;
  TunedCell tuned;
};

void write_json(const std::string& path, const toast::bench::BenchOptions& opt,
                const JobResult& cpu, const TunedCell& cpu_tuned,
                const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  toast::bench::JsonWriter w(out);
  w.obj_open();
  w.kv("schema", "toastcase-bench-fig5-v1");
  w.kv("benchmark", "fig5_full_benchmark");
  w.kv("staging", opt.staging.empty() ? "pipelined" : opt.staging);
  w.kv("comm", opt.comm.empty() ? "model" : opt.comm);
  w.kv("prefetch", opt.prefetch);
  w.arr_open("implementations");
  auto emit = [&](const std::string& label, const JobResult& r,
                  const TunedCell& tuned) {
    w.obj_open();
    w.kv("name", label);
    w.kv("oom", r.oom);
    if (!r.oom) {
      w.kv("runtime_s", r.runtime);
      w.kv("speedup_vs_cpu", cpu.runtime / r.runtime);
    }
    if (tuned.ran && tuned.feasible) {
      w.kv("tuned_runtime_s", tuned.runtime);
      w.kv("tuned_not_worse", tuned.not_worse);
      w.kv("tuned_config_hash", tuned.config_hash);
      w.kv("tuned_evaluations", tuned.evaluations);
    }
    if (!r.fault_counters.empty()) {
      w.obj_open("fault_counters");
      for (const auto& [key, value] : r.fault_counters) {
        w.kv(key, value);
      }
      w.obj_close();
    }
    if (!r.plan_counters.empty()) {
      w.obj_open("plan_counters");
      for (const auto& [key, value] : r.plan_counters) {
        w.kv(key, value);
      }
      w.obj_close();
    }
    if (!r.degraded_kernels.empty()) {
      w.arr_open("degraded_kernels");
      for (const auto& kernel : r.degraded_kernels) {
        w.value(kernel);
      }
      w.arr_close();
    }
    w.obj_close();
  };
  emit("cpu", cpu, cpu_tuned);
  for (const auto& row : rows) {
    emit(row.label, row.result, row.tuned);
  }
  w.arr_close();
  w.obj_close();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = toast::bench::parse_options(argc, argv);
  // Artifacts load before any output, so a bad one exits 2 with an empty
  // stdout.
  toast::fault::FaultPlan plan;
  if (!opt.faults_path.empty()) {
    plan = toast::bench::load_artifact(argv[0], opt.faults_path,
                                       toast::fault::FaultPlan::load_file);
  }
  config::ScheduleConfig base_schedule;
  if (!opt.schedule_path.empty()) {
    base_schedule = toast::bench::load_artifact(
        argv[0], opt.schedule_path, config::ScheduleConfig::load_file);
  }
  toast::bench::print_header(
      "Figure 5: full benchmark, large problem (8 nodes x 16 procs x 4 "
      "threads)");

  if (!opt.faults_path.empty()) {
    std::printf("fault plan: %s (%zu rule%s, seed %llu)\n",
                opt.faults_path.c_str(), plan.rules.size(),
                plan.rules.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(plan.seed));
  }
  if (!opt.staging.empty() || opt.prefetch) {
    std::printf("staging: %s%s\n",
                opt.staging.empty() ? "pipelined" : opt.staging.c_str(),
                opt.prefetch ? " + prefetch" : "");
  }
  if (!opt.comm.empty()) {
    std::printf("comm: %s\n", opt.comm.c_str());
  }
  if (!opt.schedule_path.empty()) {
    std::printf("schedule: %s (hash %s)\n", opt.schedule_path.c_str(),
                base_schedule.hash_hex().c_str());
  }
  const auto make_cfg = [&](Backend backend) {
    JobConfig cfg;
    cfg.problem = large_problem();
    if (!opt.schedule_path.empty()) {
      cfg.schedule = base_schedule;
    }
    cfg.schedule.set_backend(backend);
    cfg.fault_plan = plan;
    if (opt.staging == "naive") {
      cfg.schedule.staging.mode = config::Staging::kNaive;
    }
    if (opt.comm == "engine") {
      cfg.schedule.comm.mode = config::CommMode::kEngine;
    }
    if (opt.prefetch) {
      cfg.schedule.staging.prefetch = true;
    }
    return cfg;
  };
  const auto run = [&](Backend backend) {
    return run_benchmark_job(make_cfg(backend));
  };
  const auto tune_cell = [&](Backend backend, const JobResult& hand) {
    TunedCell cell;
    if (!opt.tuned) {
      return cell;
    }
    cell.ran = true;
    const auto report = toast::tune::tune_job(
        make_cfg(backend), toast::tune::SearchSpace::full());
    cell.feasible = std::isfinite(report.best_runtime);
    cell.runtime = report.best_runtime;
    cell.not_worse = hand.oom || report.best_runtime <= hand.runtime;
    cell.config_hash = report.best.hash_hex();
    cell.evaluations = report.evaluations;
    return cell;
  };

  const auto cpu = run(Backend::kCpu);
  const TunedCell cpu_tuned = tune_cell(Backend::kCpu, cpu);
  if (cpu_tuned.ran && cpu_tuned.feasible) {
    std::printf("tuned cpu: %s (%d evaluations)\n",
                toast::bench::fmt_seconds(cpu_tuned.runtime).c_str(),
                cpu_tuned.evaluations);
  }

  std::printf("%-22s %14s %10s\n", "implementation", "runtime", "vs cpu");
  std::printf("------------------------------------------------\n");
  std::printf("%-22s %14s %10s\n", "cpu (OpenMP)",
              toast::bench::fmt_seconds(cpu.runtime).c_str(), "1.00x");

  std::vector<Row> rows;
  for (const auto& [label, json_label, backend] :
       {std::tuple{"jax", "jax", Backend::kJax},
        std::tuple{"omp-target", "omp", Backend::kOmpTarget},
        std::tuple{"jax (CPU backend)", "jax_cpu", Backend::kJaxCpu}}) {
    const auto r = run(backend);
    char speed[32];
    if (r.oom) {
      std::snprintf(speed, sizeof(speed), "OOM");
      std::printf("%-22s %14s %10s\n", label, "OOM", speed);
    } else {
      const double s = cpu.runtime / r.runtime;
      if (s >= 1.0) {
        std::snprintf(speed, sizeof(speed), "%.2fx", s);
      } else {
        std::snprintf(speed, sizeof(speed), "%.1fx slower", 1.0 / s);
      }
      std::printf("%-22s %14s %10s\n", label,
                  toast::bench::fmt_seconds(r.runtime).c_str(), speed);
    }
    Row row{json_label, r, tune_cell(backend, r)};
    if (row.tuned.ran && row.tuned.feasible) {
      std::printf("%-22s %14s %10s\n",
                  (std::string(label) + " tuned").c_str(),
                  toast::bench::fmt_seconds(row.tuned.runtime).c_str(), "");
    }
    rows.push_back(std::move(row));
  }

  std::printf(
      "\npaper: jax 2.28x, omp-target 2.58x faster than cpu;\n"
      "       jax CPU backend 7.4x slower than the threaded baseline.\n");

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, opt, cpu, cpu_tuned, rows);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    // Per-backend span metrics of the representative rank; under a fault
    // plan the fault_* categories land here, so `toast-trace faults` can
    // summarize what fired and what it cost.
    const auto write_rank_metrics = [&](const std::string& tag,
                                        const JobResult& r) {
      if (r.oom) {
        return;
      }
      const std::string path = toast::bench::suffixed_path(opt.trace_path, tag);
      toast::obs::write_metrics_json_file(
          r.rank_spans, path,
          {{"benchmark", "fig5_full_benchmark"}, {"backend", tag}});
      std::printf("wrote %s\n", path.c_str());
    };
    write_rank_metrics("cpu", cpu);
    for (const auto& row : rows) {
      write_rank_metrics(row.label, row.result);
    }
  }
  return 0;
}
