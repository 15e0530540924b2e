// Figure 4: runtime of the medium problem (5e9 samples, 1 node, 4 GPUs)
// as a function of the number of processes, with threads-per-process
// scaled so total CPU resources stay constant (64 cores).
//
// Paper findings to reproduce (shape, not absolute seconds):
//   - the CPU runtime keeps falling as processes increase (serial work is
//     parallelized by adding processes);
//   - JAX cannot run with 1 or 64 processes (GPU / host memory);
//   - the OpenMP-target port fits with 1 process but not 64;
//   - both GPU ports peak at 8 processes (2 per GPU: oversubscription),
//     JAX at ~2.4x and OpenMP-target ~20% faster, ~2.9x;
//   - speedups decline at 16 and 32 processes.
//
// --json <path>: machine-readable sweep (schema toastcase-bench-fig4-v1)
// for scripts/check_bench.py.  --trace <path>: Chrome trace of the
// 8-process representative ranks (path suffixed per backend).
// --schedule <file>: start every point from a toastcase-schedule-v1
// config (the backend slot is re-pinned per column).  --tuned: run the
// schedule autotuner at the paper's peak point (8 processes) and report
// tuned-vs-hand runtimes per backend.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "config/schedule.hpp"
#include "mpisim/job.hpp"
#include "obs/export.hpp"
#include "tune/tuner.hpp"

using toast::bench_model::medium_problem;
using toast::core::Backend;
using toast::mpisim::JobConfig;
using toast::mpisim::JobResult;
using toast::mpisim::run_benchmark_job;

namespace {

/// Autotuner result for one (point, backend) cell (--tuned only).
struct TunedCell {
  bool ran = false;
  bool feasible = false;
  double runtime = 0.0;
  bool not_worse = false;
  std::string config_hash;
  int evaluations = 0;
};

struct SweepPoint {
  int procs = 0;
  int threads = 0;
  JobResult cpu;
  JobResult jax;
  JobResult omp;
  TunedCell tuned_cpu;
  TunedCell tuned_jax;
  TunedCell tuned_omp;
};

void write_json(const std::string& path,
                const std::vector<SweepPoint>& sweep) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  toast::bench::JsonWriter w(out);
  w.obj_open();
  w.kv("schema", "toastcase-bench-fig4-v1");
  w.kv("benchmark", "fig4_proc_sweep");
  w.arr_open("points");
  for (const auto& pt : sweep) {
    w.obj_open();
    w.kv("procs", pt.procs);
    w.kv("threads", pt.threads);
    auto backend = [&](const char* name, const JobResult& r,
                       const TunedCell& tuned) {
      w.obj_open(name);
      w.kv("oom", r.oom);
      if (r.oom) {
        w.kv("oom_reason", r.oom_reason);
      } else {
        w.kv("runtime_s", r.runtime);
        w.kv("host_s", r.host_seconds);
        w.kv("device_s", r.device_seconds);
        w.kv("transfer_s", r.transfer_seconds);
        w.kv("comm_s", r.comm_seconds);
      }
      if (tuned.ran && tuned.feasible) {
        w.kv("tuned_runtime_s", tuned.runtime);
        w.kv("tuned_not_worse", tuned.not_worse);
        w.kv("tuned_config_hash", tuned.config_hash);
        w.kv("tuned_evaluations", tuned.evaluations);
      }
      w.obj_close();
    };
    backend("cpu", pt.cpu, pt.tuned_cpu);
    backend("jax", pt.jax, pt.tuned_jax);
    backend("omp", pt.omp, pt.tuned_omp);
    w.obj_close();
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
  toast::config::ScheduleConfig base_schedule;
  if (!opt.schedule_path.empty()) {
    base_schedule = toast::bench::load_artifact(
        argv[0], opt.schedule_path, toast::config::ScheduleConfig::load_file);
  }
  toast::bench::print_header(
      "Figure 4: runtime vs number of processes (medium, 1 node)");
  std::printf("%6s %8s | %14s | %14s %8s | %14s %8s\n", "procs", "threads",
              "cpu", "jax", "x cpu", "omp-target", "x cpu");
  std::printf("---------------------------------------------------------------"
              "---------\n");

  if (!opt.schedule_path.empty()) {
    std::printf("schedule: %s (hash %s)\n", opt.schedule_path.c_str(),
                base_schedule.hash_hex().c_str());
  }
  auto make_cfg = [&](const toast::bench_model::ProblemSize& problem,
                      Backend b) {
    JobConfig cfg{problem, b};
    if (!opt.schedule_path.empty()) {
      cfg.schedule = base_schedule;
      cfg.schedule.set_backend(b);
    }
    return cfg;
  };
  auto tune_cell = [&](const JobConfig& cfg, const JobResult& hand) {
    TunedCell cell;
    cell.ran = true;
    const auto report =
        toast::tune::tune_job(cfg, toast::tune::SearchSpace::full());
    cell.feasible = std::isfinite(report.best_runtime);
    cell.runtime = report.best_runtime;
    cell.not_worse = hand.oom || report.best_runtime <= hand.runtime;
    cell.config_hash = report.best.hash_hex();
    cell.evaluations = report.evaluations;
    return cell;
  };

  std::vector<SweepPoint> sweep;
  for (const int procs : {1, 2, 4, 8, 16, 32, 64}) {
    auto problem = medium_problem();
    problem.procs_per_node = procs;

    SweepPoint pt;
    pt.procs = procs;
    pt.threads = problem.threads_per_proc();

    const JobConfig cpu_cfg = make_cfg(problem, Backend::kCpu);
    pt.cpu = run_benchmark_job(cpu_cfg);

    const JobConfig jax_cfg = make_cfg(problem, Backend::kJax);
    pt.jax = run_benchmark_job(jax_cfg);

    const JobConfig omp_cfg = make_cfg(problem, Backend::kOmpTarget);
    pt.omp = run_benchmark_job(omp_cfg);

    if (opt.tuned && procs == 8) {
      pt.tuned_cpu = tune_cell(cpu_cfg, pt.cpu);
      pt.tuned_jax = tune_cell(jax_cfg, pt.jax);
      pt.tuned_omp = tune_cell(omp_cfg, pt.omp);
      auto tuned_str = [](const TunedCell& c) {
        return c.feasible ? toast::bench::fmt_seconds(c.runtime)
                          : std::string("OOM");
      };
      std::printf("%6s %8s | %14s | %14s %8s | %14s %8s  (tuned)\n", "", "",
                  tuned_str(pt.tuned_cpu).c_str(),
                  tuned_str(pt.tuned_jax).c_str(), "",
                  tuned_str(pt.tuned_omp).c_str(), "");
    }

    auto cell = [&](const JobResult& r) {
      return r.oom ? std::string("OOM") : toast::bench::fmt_seconds(r.runtime);
    };
    auto speedup = [&](const JobResult& r) {
      return r.oom ? std::string("-")
                   : [&] {
                       char buf[32];
                       std::snprintf(buf, sizeof(buf), "%.2fx",
                                     pt.cpu.runtime / r.runtime);
                       return std::string(buf);
                     }();
    };
    std::printf("%6d %8d | %14s | %14s %8s | %14s %8s\n", procs, pt.threads,
                cell(pt.cpu).c_str(), cell(pt.jax).c_str(),
                speedup(pt.jax).c_str(), cell(pt.omp).c_str(),
                speedup(pt.omp).c_str());
    sweep.push_back(std::move(pt));
  }

  std::printf(
      "\npaper: jax peaks 2.4x @8 procs (2.3x @16, 2.0x @32), OOM @1 and "
      "@64;\n"
      "       omp-target ~20%% faster than jax: 2.9x @8, 2.7x @16, 2.3x "
      "@32,\n"
      "       fits @1 process, OOM @64; cpu falls with process count.\n");

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, sweep);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    for (const auto& pt : sweep) {
      if (pt.procs != 8) {
        continue;
      }
      const std::pair<const char*, const JobResult*> runs[] = {
          {"cpu", &pt.cpu}, {"jax", &pt.jax}, {"omp", &pt.omp}};
      for (const auto& [tag, r] : runs) {
        if (r->oom) {
          continue;
        }
        const std::string path =
            toast::bench::suffixed_path(opt.trace_path, tag);
        toast::obs::write_chrome_trace_file(r->rank_spans, path,
                                            std::string("fig4-rank-") + tag);
        std::printf("wrote %s\n", path.c_str());
      }
    }
  }
  return 0;
}
