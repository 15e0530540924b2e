// Multi-tenant job-service benchmark: open-loop load generator over the
// shared simulated fleet, plus the service's contract invariants:
//
//   1. work conservation: no scheduling pass ever leaves a fitting,
//      quota-eligible job queued,
//   2. no starvation: every admitted job completes,
//   3. isolation: a job's JobResult served under multi-tenant load is
//      bitwise identical to the same config run standalone, and one
//      tenant's chaos plan does not move a single bit of another
//      tenant's results,
//   4. determinism: the same spec run twice produces byte-identical
//      "toastcase-serve-result-v1" documents.
//
// Default mode sweeps offered load (open-loop exponential arrivals, a
// deterministic splitmix64 stream — no std:: distributions, so the
// numbers are portable) and reports throughput, p50/p95/p99 queue wait
// and makespan per point.
//
// --spec <path>:   run a pinned toastcase-serve-v1 scenario instead.
// --result <path>: dump the run's toastcase-serve-result-v1 document
//                  (CI double-runs this and byte-compares with cmp).
// --json <path>:   machine-readable results (toastcase-bench-serve-v1;
//                  scripts/check_bench.py --serve asserts invariants).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "serve/service.hpp"

using toast::fault::FaultKind;
using toast::fault::FaultPlan;
using toast::fault::FaultRule;
using toast::serve::JobSpec;
using toast::serve::SchedPolicy;
using toast::serve::ServedJob;
using toast::serve::Service;
using toast::serve::ServiceReport;
using toast::serve::ServiceSpec;
using toast::serve::TenantSpec;

namespace {

// splitmix64: tiny, seedable, and identical on every platform.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) *
         (1.0 / 9007199254740992.0);
}

/// Exponential inter-arrival with the given mean (open-loop Poisson).
double exponential(std::uint64_t& state, double mean) {
  return -mean * std::log(1.0 - uniform01(state));
}

FaultPlan alpha_chaos() {
  FaultPlan plan;
  plan.seed = 20230923;
  plan.rules = {
      FaultRule{FaultKind::kTransfer, "", 0.05},
      FaultRule{FaultKind::kLaunch, "", 0.05},
      FaultRule{FaultKind::kStraggler, "", 0.10, -1, 3.0},
      FaultRule{FaultKind::kRankFailure, "", 0.35, 2},
  };
  return plan;
}

/// The open-loop sweep scenario: two clean tenants (shares 1 and 2),
/// jobs alternating backends, exponential arrivals at the offered load.
ServiceSpec sweep_scenario(double load, double base_s, int n_jobs) {
  ServiceSpec spec;
  spec.policy = SchedPolicy::kFairShare;
  spec.fleet.nodes = 2;
  spec.fleet.gpus_per_node = 4;
  TenantSpec alpha;
  alpha.name = "alpha";
  alpha.share = 1.0;
  alpha.max_running = 3;
  TenantSpec beta;
  beta.name = "beta";
  beta.share = 2.0;
  beta.max_running = 3;
  spec.tenants = {alpha, beta};

  const char* backends[] = {"omp-target", "jax", "cpu", "omp-target"};
  std::uint64_t rng = 2023;
  double t = 0.0;
  const double mean_gap = base_s / load;
  for (int i = 0; i < n_jobs; ++i) {
    JobSpec j;
    j.name = "job" + std::to_string(i);
    j.tenant = i % 2 == 0 ? "alpha" : "beta";
    j.workload = "tiny";
    if (i % 4 == 0) {
      // Exclusive (MPS off) jobs take their node's GPUs alone; these
      // are what makes the queue actually form under load.
      toast::config::ScheduleConfig s;
      s.backend = "omp-target";
      s.device.mps = false;
      j.schedule = s;
      j.has_schedule = true;
    } else {
      j.backend = backends[i % 4];
    }
    j.submit_s = t;
    spec.jobs.push_back(j);
    t += exponential(rng, mean_gap);
  }
  return spec;
}

/// The isolation scenario: tenant alpha runs under heavy chaos, tenant
/// beta is clean; used for invariants 3 and 4 (with_chaos=false strips
/// alpha's plan to show beta's bits do not move).
ServiceSpec chaos_scenario(bool with_chaos) {
  ServiceSpec spec;
  spec.policy = SchedPolicy::kFairShare;
  spec.fleet.nodes = 2;
  spec.fleet.gpus_per_node = 4;
  TenantSpec alpha;
  alpha.name = "alpha";
  alpha.share = 1.0;
  if (with_chaos) {
    alpha.faults = alpha_chaos();
  }
  TenantSpec beta;
  beta.name = "beta";
  beta.share = 2.0;
  spec.tenants = {alpha, beta};

  const char* backends[] = {"omp-target", "jax", "cpu"};
  for (int i = 0; i < 6; ++i) {
    JobSpec j;
    j.name = "job" + std::to_string(i);
    j.tenant = i % 2 == 0 ? "alpha" : "beta";
    j.workload = "tiny";
    j.backend = backends[i % 3];
    j.submit_s = 0.4 * i;
    spec.jobs.push_back(j);
  }
  return spec;
}

std::string result_string(const ServiceReport& report) {
  std::ostringstream ss;
  toast::serve::write_result_json(ss, report);
  return ss.str();
}

bool no_starvation(const ServiceReport& r) {
  return r.completed == r.admitted;
}

/// Invariant 3a: every completed job's stored result is bitwise what a
/// fresh standalone run of its resolved config produces.
bool served_matches_standalone(const ServiceReport& r) {
  for (const ServedJob& j : r.jobs) {
    if (!j.completed) {
      continue;
    }
    const toast::mpisim::JobResult fresh =
        toast::mpisim::run_benchmark_job(j.config);
    if (!toast::serve::results_bitwise_equal(j.result, fresh)) {
      return false;
    }
  }
  return true;
}

struct Point {
  double offered_load = 0.0;
  ServiceReport report;
};

void write_json(const std::string& path, const std::vector<Point>& points,
                bool work_conserving, bool starvation_free,
                bool served_bitwise, bool isolation_bitwise,
                bool repeat_bitwise) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  toast::bench::JsonWriter w(out);
  w.obj_open();
  w.kv("schema", "toastcase-bench-serve-v1");
  w.kv("benchmark", "serve");
  w.arr_open("points");
  for (const Point& p : points) {
    const ServiceReport& r = p.report;
    w.obj_open();
    w.kv("offered_load", p.offered_load);
    w.kv("submitted", r.submitted);
    w.kv("admitted", r.admitted);
    w.kv("rejected", r.rejected);
    w.kv("completed", r.completed);
    w.kv("makespan_s", r.makespan_s);
    w.kv("throughput_jobs_per_s",
         r.makespan_s > 0.0 ? r.completed / r.makespan_s : 0.0);
    w.kv("queue_wait_p50_s", toast::serve::queue_wait_percentile(r, 50));
    w.kv("queue_wait_p95_s", toast::serve::queue_wait_percentile(r, 95));
    w.kv("queue_wait_p99_s", toast::serve::queue_wait_percentile(r, 99));
    w.kv("utilization", r.utilization);
    w.kv("work_conserving", r.work_conserving);
    w.obj_close();
  }
  w.arr_close();
  w.obj_open("invariants");
  w.kv("work_conserving", work_conserving);
  w.kv("no_starvation", starvation_free);
  w.kv("served_bitwise_standalone", served_bitwise);
  w.kv("isolation_bitwise", isolation_bitwise);
  w.kv("repeat_bitwise", repeat_bitwise);
  w.obj_close();
  w.obj_close();
  out << "\n";
}

void print_points(const std::vector<Point>& points) {
  std::printf("%8s %6s %6s %6s %10s %10s %10s %10s %6s\n", "load", "subm",
              "compl", "rej", "makespan", "p50 wait", "p99 wait", "thruput",
              "util");
  std::printf("--------------------------------------------------------------"
              "-------------\n");
  for (const Point& p : points) {
    const ServiceReport& r = p.report;
    std::printf("%8.2f %6d %6d %6d %10s %10s %10s %8.2f/s %5.0f%%\n",
                p.offered_load, r.submitted, r.completed, r.rejected,
                toast::bench::fmt_seconds(r.makespan_s).c_str(),
                toast::bench::fmt_seconds(
                    toast::serve::queue_wait_percentile(r, 50))
                    .c_str(),
                toast::bench::fmt_seconds(
                    toast::serve::queue_wait_percentile(r, 99))
                    .c_str(),
                r.makespan_s > 0.0 ? r.completed / r.makespan_s : 0.0,
                100.0 * r.utilization);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string result_path;
  const auto opt = toast::bench::parse_options(
      argc, argv,
      {{"--spec", &spec_path}, {"--result", &result_path}});
  // The spec loads before any output, so a bad one exits 2 with an empty
  // stdout.
  ServiceSpec spec;
  if (!spec_path.empty()) {
    spec = toast::bench::load_artifact(argv[0], spec_path,
                                       ServiceSpec::load_file);
  }
  toast::bench::print_header(
      "Multi-tenant job service: load sweep and isolation invariants");

  std::vector<Point> points;
  bool work_conserving = true;
  bool starvation_free = true;
  bool served_bitwise = true;
  bool isolation_bitwise = true;
  bool repeat_bitwise = true;

  if (!spec_path.empty()) {
    // Pinned-scenario mode: run the spec twice; the second run checks
    // byte-identical output, CI additionally cmp's --result dumps from
    // two separate processes.
    ServiceReport a = Service(spec).run();
    const ServiceReport b = Service(spec).run();
    work_conserving = a.work_conserving;
    starvation_free = no_starvation(a);
    served_bitwise = served_matches_standalone(a);
    repeat_bitwise = result_string(a) == result_string(b);
    if (!result_path.empty()) {
      std::ofstream out(result_path);
      if (!out) {
        throw std::runtime_error("cannot open " + result_path);
      }
      toast::serve::write_result_json(out, a);
      std::printf("wrote %s\n", result_path.c_str());
    }
    Point p;
    p.offered_load = 0.0;
    p.report = std::move(a);
    points.push_back(std::move(p));
    print_points(points);
  } else {
    // Calibrate the arrival process on one standalone tiny job, then
    // sweep offered load.
    ServiceSpec probe = sweep_scenario(1.0, 1.0, 1);
    const double base_s = Service(probe).run().jobs[0].service_s;
    std::printf("base tiny job: %s\n",
                toast::bench::fmt_seconds(base_s).c_str());
    for (const double load : {0.5, 1.0, 2.0, 4.0}) {
      Point p;
      p.offered_load = load;
      p.report = Service(sweep_scenario(load, base_s, 16)).run();
      work_conserving = work_conserving && p.report.work_conserving;
      starvation_free = starvation_free && no_starvation(p.report);
      points.push_back(std::move(p));
    }
    print_points(points);

    // Invariants 3 and 4 on the chaos scenario.
    const ServiceSpec chaos = chaos_scenario(true);
    const ServiceReport chaos_a = Service(chaos).run();
    const ServiceReport chaos_b = Service(chaos).run();
    const ServiceReport clean = Service(chaos_scenario(false)).run();
    work_conserving = work_conserving && chaos_a.work_conserving;
    starvation_free = starvation_free && no_starvation(chaos_a);
    served_bitwise = served_matches_standalone(chaos_a);
    repeat_bitwise = result_string(chaos_a) == result_string(chaos_b);
    bool alpha_perturbed = false;
    for (std::size_t i = 0; i < chaos_a.jobs.size(); ++i) {
      const ServedJob& with = chaos_a.jobs[i];
      const ServedJob& without = clean.jobs[i];
      if (with.tenant == "beta") {
        // Beta's bits must not move when alpha runs chaos.
        isolation_bitwise =
            isolation_bitwise &&
            toast::serve::results_bitwise_equal(with.result, without.result);
      } else if (!with.result.fault_counters.empty()) {
        alpha_perturbed = true;
      }
    }
    isolation_bitwise = isolation_bitwise && alpha_perturbed;
    std::printf("\nisolation: beta bitwise %s under alpha chaos "
                "(alpha counters %s)\n",
                isolation_bitwise ? "stable" : "PERTURBED",
                alpha_perturbed ? "non-empty" : "EMPTY");
  }

  std::printf("invariants: work-conserving %s, no-starvation %s, "
              "served==standalone %s, isolation %s, repeat %s\n",
              work_conserving ? "ok" : "FAIL",
              starvation_free ? "ok" : "FAIL", served_bitwise ? "ok" : "FAIL",
              isolation_bitwise ? "ok" : "FAIL",
              repeat_bitwise ? "ok" : "FAIL");

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, points, work_conserving, starvation_free,
               served_bitwise, isolation_bitwise, repeat_bitwise);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }

  if (!work_conserving || !starvation_free || !served_bitwise ||
      !isolation_bitwise || !repeat_bitwise) {
    std::fprintf(stderr, "bench_serve: invariant violated\n");
    return 1;
  }
  return 0;
}
