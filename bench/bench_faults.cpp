// Chaos benchmark: exercise the deterministic fault-injection layer end
// to end and assert its three contract invariants per backend:
//
//   1. zero-fault: running under an *empty* fault plan is bit-for-bit
//      identical to running with no plan at all (every hook disarmed),
//   2. determinism: the same plan + seed run twice yields identical
//      runtimes AND identical fault counters,
//   3. recovery: a plan with persistent kernel-launch faults still
//      completes — every kernel degrades to its CPU implementation and
//      the fallbacks are visible in the counters.
//
// --json <path>: machine-readable results (schema toastcase-bench-faults-v1;
//   scripts/check_bench.py --faults asserts the invariants held).
// --faults <plan>: replace the built-in chaos plan with one from a file.

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "mpisim/job.hpp"

using toast::bench_model::tiny_problem;
using toast::core::Backend;
using toast::fault::FaultKind;
using toast::fault::FaultPlan;
using toast::fault::FaultRule;
using toast::mpisim::JobConfig;
using toast::mpisim::JobResult;
using toast::mpisim::run_benchmark_job;

namespace {

/// A little of everything: transient transfers and launches, one
/// straggling stream op, memory pressure on the omptarget pool, and a
/// bounded number of rank deaths.
FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.seed = 20230923;
  plan.rules = {
      FaultRule{FaultKind::kTransfer, "", 0.05},
      FaultRule{FaultKind::kLaunch, "", 0.05},
      FaultRule{FaultKind::kStraggler, "", 0.10, -1, 3.0},
      FaultRule{FaultKind::kDeviceOom, "omptarget_pool", 0.25},
      FaultRule{FaultKind::kRankFailure, "", 0.35, 2},
  };
  return plan;
}

/// Every launch fails until the retry budget is spent: the run can only
/// complete through the pipeline's CPU fallback (transfers still work,
/// so device-resident data comes back for the host re-runs).
FaultPlan persistent_launch_plan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.rules = {FaultRule{FaultKind::kLaunch, "", 1.0}};
  return plan;
}

JobResult run(Backend backend, const FaultPlan& plan) {
  JobConfig cfg;
  cfg.problem = tiny_problem();
  cfg.schedule.set_backend(backend);
  cfg.fault_plan = plan;
  return run_benchmark_job(cfg);
}

double counter(const JobResult& r, const std::string& key) {
  const auto it = r.fault_counters.find(key);
  return it == r.fault_counters.end() ? 0.0 : it->second;
}

struct Row {
  std::string label;
  Backend backend = Backend::kCpu;
  bool accel = false;
  double baseline_runtime = 0.0;
  bool zero_fault_identical = false;
  double chaos_runtime = 0.0;
  bool chaos_deterministic = false;
  JobResult chaos;
  // Accelerated backends only: the persistent-launch recovery run.
  double fallback_runtime = 0.0;
  bool fallback_completed = false;
  JobResult fallback;
};

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  toast::bench::JsonWriter w(out);
  w.obj_open();
  w.kv("schema", "toastcase-bench-faults-v1");
  w.kv("benchmark", "faults");
  w.arr_open("backends");
  const auto emit_counters = [&w](const char* key, const JobResult& r) {
    w.obj_open(key);
    for (const auto& [name, value] : r.fault_counters) {
      w.kv(name, value);
    }
    w.obj_close();
  };
  for (const auto& row : rows) {
    w.obj_open();
    w.kv("name", row.label);
    w.kv("baseline_runtime_s", row.baseline_runtime);
    w.kv("zero_fault_identical", row.zero_fault_identical);
    w.kv("chaos_runtime_s", row.chaos_runtime);
    w.kv("chaos_deterministic", row.chaos_deterministic);
    emit_counters("fault_counters", row.chaos);
    if (row.accel) {
      w.kv("fallback_runtime_s", row.fallback_runtime);
      w.kv("fallback_completed", row.fallback_completed);
      emit_counters("fallback_counters", row.fallback);
      w.arr_open("degraded_kernels");
      for (const auto& kernel : row.fallback.degraded_kernels) {
        w.value(kernel);
      }
      w.arr_close();
    }
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
  FaultPlan chaos = chaos_plan();
  if (!opt.faults_path.empty()) {
    chaos = toast::bench::load_artifact(argv[0], opt.faults_path,
                                        FaultPlan::load_file);
  }
  toast::bench::print_header(
      "Fault injection: zero-fault identity, chaos determinism, recovery");

  if (!opt.faults_path.empty()) {
    std::printf("chaos plan: %s (%zu rule%s, seed %llu)\n",
                opt.faults_path.c_str(), chaos.rules.size(),
                chaos.rules.size() == 1 ? "" : "s",
                static_cast<unsigned long long>(chaos.seed));
  }

  std::vector<Row> rows;
  for (const auto& [label, backend] :
       {std::pair{"cpu", Backend::kCpu}, std::pair{"jax", Backend::kJax},
        std::pair{"omp", Backend::kOmpTarget}}) {
    Row row;
    row.label = label;
    row.backend = backend;
    row.accel = toast::core::is_accel(backend);

    const JobResult base = run(backend, FaultPlan{});
    const JobResult zero = run(backend, FaultPlan{});
    const JobResult chaos_a = run(backend, chaos);
    const JobResult chaos_b = run(backend, chaos);
    row.baseline_runtime = base.runtime;
    // Bitwise comparison on purpose: the zero-fault guarantee is "the
    // fault layer does not perturb a single double", not "close".
    row.zero_fault_identical =
        base.runtime == zero.runtime && zero.fault_counters.empty();
    row.chaos_runtime = chaos_a.runtime;
    row.chaos_deterministic =
        chaos_a.runtime == chaos_b.runtime &&
        chaos_a.fault_counters == chaos_b.fault_counters &&
        chaos_a.degraded_kernels == chaos_b.degraded_kernels;
    row.chaos = chaos_a;

    if (row.accel) {
      row.fallback = run(backend, persistent_launch_plan());
      row.fallback_runtime = row.fallback.runtime;
      row.fallback_completed =
          !row.fallback.oom && row.fallback.runtime > 0.0 &&
          counter(row.fallback, "fault_fallbacks") > 0.0;
    }
    rows.push_back(std::move(row));
  }

  std::printf("%-6s %12s %12s %6s %6s %9s %9s %9s\n", "impl", "baseline",
              "chaos", "zero", "det", "retries", "fallbk", "ranks");
  std::printf("------------------------------------------------------------"
              "--------------\n");
  for (const auto& row : rows) {
    const double retries = counter(row.chaos, "fault_transfer_retries") +
                           counter(row.chaos, "fault_launch_retries") +
                           counter(row.chaos, "fault_oom_retries");
    std::printf("%-6s %12s %12s %6s %6s %9.0f %9.0f %9.0f\n",
                row.label.c_str(),
                toast::bench::fmt_seconds(row.baseline_runtime).c_str(),
                toast::bench::fmt_seconds(row.chaos_runtime).c_str(),
                row.zero_fault_identical ? "ok" : "FAIL",
                row.chaos_deterministic ? "ok" : "FAIL", retries,
                counter(row.chaos, "fault_fallbacks"),
                counter(row.chaos, "fault_rank_failures"));
  }
  for (const auto& row : rows) {
    if (row.accel) {
      std::printf(
          "%s under persistent launch faults: %s (%s, %.0f kernels "
          "degraded)\n",
          row.label.c_str(),
          row.fallback_completed ? "completed via CPU fallback" : "FAILED",
          toast::bench::fmt_seconds(row.fallback_runtime).c_str(),
          static_cast<double>(row.fallback.degraded_kernels.size()));
    }
  }

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, rows);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }

  for (const auto& row : rows) {
    if (!row.zero_fault_identical || !row.chaos_deterministic ||
        (row.accel && !row.fallback_completed)) {
      std::fprintf(stderr, "bench_faults: invariant violated for %s\n",
                   row.label.c_str());
      return 1;
    }
  }
  return 0;
}
