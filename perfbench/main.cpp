// perfbench: the two-clock benchmark of toastcase (see README.md).
//
//   perfbench --workload <figures|tune_omp_cpu|serve_day> --seed <n>
//             --seconds <s> --trace <0|1> --digests <table>
//             [--tamper-replay]
//   perfbench --list-metrics
//   perfbench --write-digests <table>
//
// --trace 0 runs the workload's measured pass in a closed loop for
// about --seconds host seconds, each pass in a fresh forked process, and
// reports the end-to-end metrics; --trace 1 runs it once through the
// traced per-layer replay and reports the per-layer metrics.  Either way every virtual-clock output
// is checked against the pinned digest table, and the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.hpp"
#include "replay.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* meaning;
};

/// End-to-end metrics (--trace 0), host clock unless noted.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s", "median host seconds of one measured pass"},
    {"jobs_per_s", "1/s", "modelled jobs completed per measured host second"},
    {"setup_s", "s", "median host seconds of one set-up (configs, specs, "
                     "schedule library, digest table, warm-up)"},
    {"peak_rss_mb", "MiB", "median over pass processes of their peak "
                           "resident memory"},
};

/// Per-layer metrics (--trace 1).
constexpr MetricDef kPerLayer[] = {
    {"xla.busy_s", "s", "operator exec time of the 8 XLA kernels, jax slots"},
    {"xla.pointing_detector.busy_s", "s", "one XLA kernel"},
    {"xla.pixels_healpix.busy_s", "s", "one XLA kernel"},
    {"xla.stokes_weights_IQU.busy_s", "s", "one XLA kernel"},
    {"xla.scan_map.busy_s", "s", "one XLA kernel"},
    {"xla.noise_weight.busy_s", "s", "one XLA kernel"},
    {"xla.build_noise_weighted.busy_s", "s", "one XLA kernel"},
    {"xla.template_offset_add_to_signal.busy_s", "s", "one XLA kernel"},
    {"xla.template_offset_project_signal.busy_s", "s", "one XLA kernel"},
    {"xla.cold_obs_excess_s", "s", "first observation's XLA time minus the "
                                   "mean of later ones"},
    {"kernels.cpu.busy_s", "s", "operator exec time, cpu slot"},
    {"kernels.omp-target.busy_s", "s", "operator exec time, omp-target slot"},
    {"sim.busy_s", "s", "hex_focalplane + simulate_satellite + synth_sky / "
                        "sim_noise operators"},
    {"sim.calls", "count", "calls counted in sim.busy_s"},
    {"sim.pipeline_build_s", "s", "make_benchmark_pipeline + TimedOp "
                                  "decoration"},
    {"core.context_s", "s", "ExecContext construction"},
    {"core.pipeline_self_s", "s", "Pipeline::exec minus operator time"},
    {"core.plan_cache_hits", "count", "Pipeline::plan_stats() cache hits"},
    {"core.plan_cache_misses", "count", "Pipeline::plan_stats() misses"},
    {"async.graph_self_s", "s", "run_plan_async minus operator time"},
    {"mpisim.job_ms_p50", "ms", "host ms per run_benchmark_job, median"},
    {"mpisim.job_ms_p90", "ms", "host ms per run_benchmark_job, p90"},
    {"mpisim.job_samples", "count", "run_benchmark_job calls sampled"},
    {"mpisim.compose_s", "s", "job time minus its replayed context + sim + "
                              "pipeline"},
    {"comm.busy_s", "s", "Engine::allreduce_seconds / "
                         "best_allreduce_algorithm calls"},
    {"comm.calls", "count", "allreduce_seconds calls"},
    {"tune.evaluations", "count", "TuneReport evaluations"},
    {"tune.cache_hits", "count", "TuneReport cache hits"},
    {"tune.self_s", "s", "tune_job minus its trials replayed standalone"},
    {"serve.jobs_admitted", "count", "ServiceReport admitted"},
    {"serve.library_hits", "count", "ServiceReport library hits"},
    {"serve.self_s", "s", "Service::run minus its jobs replayed standalone"},
    {"fault.events", "count", "sum of served jobs' fault_counters"},
    {"fault.job_s", "s", "chaos-tenant jobs, timed whole"},
    {"obs.spans_per_job", "count", "mean JobResult::rank_spans size"},
    {"obs.trace_overhead_frac", "ratio", "decorated replay host time over "
                                         "measured job host time, minus 1"},
    {"host.sys_s", "s", "getrusage system time over the measured calls"},
    {"host.minflt", "count", "getrusage minor faults over the measured calls"},
    {"replay.jobs", "count", "jobs replayed through the decomposition"},
    {"failed_frac", "ratio", "failed over attempted operations, traced run"},
    {"paper_err_pct", "%", "virtual clock: mean |modelled/paper - 1| of the "
                           "speed-up ratios the paper reports"},
};

constexpr int kSetupRuns = 3;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --digests <table> "
               "[--tamper-replay]\n       perfbench --list-metrics\n"
               "       perfbench --write-digests <table>\n",
               why.c_str());
  std::exit(2);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : -1.0);
  return buf;
}

/// A JSON array of numbers.
std::string numbers(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", " : "") + num(v[i]);
  }
  return s + "]";
}

std::string quoted(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      q += '\\';
      q += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      q += ' ';
    } else {
      q += c;
    }
  }
  return q + "\"";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void list_metrics() {
  for (const auto& m : kEndToEnd) {
    std::printf("end_to_end %-42s %-6s %s\n", m.name, m.unit, m.meaning);
  }
  for (const auto& m : kPerLayer) {
    std::printf("per_layer  %-42s %-6s %s\n", m.name, m.unit, m.meaning);
  }
}

/// Run one workload's pass and traced run per pinned seed and write
/// every digest they produce.
int write_digests(const std::string& path) {
  DigestTable table;
  bool ok = true;
  for (std::uint64_t run_seed = 0; run_seed < std::size(kModelSeeds);
       ++run_seed) {
    for (const auto& name : workload_names()) {
      WorkloadOptions opt;
      opt.model_seed = model_seed_for(run_seed);
      opt.run_seed = run_seed;
      auto wl = make_workload(name, opt);
      wl->setup();
      wl->prepare();
      Outcome plain;
      wl->pass(plain);
      wl->prepare();
      Outcome traced;
      Layers layers;
      Meter meter;
      JobSamples samples;
      wl->traced(traced, layers, meter, samples);
      DigestMap all = traced.observed;
      for (const auto& [id, d] : plain.observed) {
        if (all.count(id) != 0 && all[id] != d) {
          std::fprintf(stderr, "%s: %s differs between two runs\n",
                       name.c_str(), id.c_str());
          ok = false;
        }
      }
      for (const auto& f : traced.failures) {
        std::fprintf(stderr, "%s: %s\n", name.c_str(), f.c_str());
        ok = false;
      }
      table.put(model_seed_for(run_seed), name, all);
      std::fprintf(stderr, "%s seed %llu: %zu digests\n", name.c_str(),
                   static_cast<unsigned long long>(model_seed_for(run_seed)),
                   all.size());
    }
  }
  if (!ok) {
    return 1;
  }
  table.save(path);
  return 0;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string digests;
  bool tamper = false;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tamper-replay") {
      a.tamper = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && v[0] != '-' && *end == '\0';
      if (!have_seed) {
        usage("--seed takes a non-negative integer");
      }
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("--seconds takes a number in (0, 3600]");
      }
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") {
        usage("--trace takes 0 or 1");
      }
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--digests") {
      a.digests = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0.0 || a.trace < 0 ||
      a.digests.empty()) {
    usage("--workload, --seed, --seconds, --trace and --digests are required");
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  return a;
}

/// Set up `kSetupRuns` times for one model seed — digest table,
/// configs/specs (the service loads its schedule library here), warm-up
/// — timing each; the last set-up is kept.
std::unique_ptr<Workload> set_up(const Args& a, std::uint64_t model_seed,
                                 DigestMap& pinned,
                                 std::vector<double>& setup_runs) {
  std::unique_ptr<Workload> wl;
  for (int i = 0; i < kSetupRuns; ++i) {
    const double t0 = now_s();
    pinned = DigestTable::load(a.digests).get(model_seed, a.workload);
    WorkloadOptions opt;
    opt.model_seed = model_seed;
    opt.run_seed = a.seed;
    opt.pinned = &pinned;
    opt.tamper_replay = a.tamper;
    wl = make_workload(a.workload, opt);
    wl->setup();
    setup_runs.push_back(now_s() - t0);
  }
  return wl;
}

/// What one measured pass reports back to the parent.
struct PassRecord {
  double pass_s = 0.0;
  double sys_s = 0.0;
  double jobs = 0.0;
  double rss_mb = 0.0;
  int attempted = 0;
  int failed = 0;
  std::vector<double> setup_runs;
  std::vector<std::string> failures;
};

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

/// Set up and run one measured pass in a forked child, so that no state
/// — heap, caches, memo tables — carries from one pass to the next.
PassRecord measured_pass(const Args& a, std::uint64_t model_seed) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    std::string text;
    try {
      DigestMap pinned;
      std::vector<double> setup_runs;
      auto wl = set_up(a, model_seed, pinned, setup_runs);
      wl->prepare();
      Outcome out;
      Meter m;
      m.start();
      wl->pass(out);
      m.stop();
      text = "pass " + num(m.wall_s) + " " + num(m.sys_s) + " " +
             num(out.jobs) + " " + num(peak_rss_mb()) + " " +
             std::to_string(out.attempted) + " " +
             std::to_string(out.failed) + "\n";
      for (const double s : setup_runs) {
        text += "setup " + num(s) + "\n";
      }
      for (const auto& f : out.failures) {
        text += "failure " + one_line(f) + "\n";
      }
    } catch (const std::exception& e) {
      text = "failure " + one_line(e.what()) + "\n";
    }
    for (std::size_t done = 0; done < text.size();) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) {
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);

  PassRecord rec;
  bool have_pass = false;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "pass") {
      have_pass = static_cast<bool>(in >> rec.pass_s >> rec.sys_s >>
                                    rec.jobs >> rec.rss_mb >>
                                    rec.attempted >> rec.failed);
    } else if (kind == "setup") {
      double s = 0.0;
      in >> s;
      rec.setup_runs.push_back(s);
    } else if (kind == "failure") {
      rec.failures.push_back(line.substr(8));
    }
  }
  if (!have_pass || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    ++rec.attempted;
    ++rec.failed;
    rec.failures.push_back("pass process for model seed " +
                           std::to_string(model_seed) + " failed");
  }
  return rec;
}

int run(const Args& a) {
  // The traced run and the first measured pass use model_seed_for(seed);
  // measured passes then alternate with the other pinned seed.
  const std::uint64_t model_seed = model_seed_for(a.seed);

  Outcome out;
  std::vector<double> pass_s;
  std::vector<double> pass_sys_s;
  std::vector<double> setup_runs;
  Layers values;  // metric name -> value
  if (a.trace == 0) {
    // Closed loop: pairs of passes, one per model seed, each in a fresh
    // process, while the next pair is expected to fit in the budget (at
    // least one pair).
    double total = 0.0;
    double pair_s = 0.0;
    std::vector<double> rss_mb;
    do {
      pair_s = 0.0;
      for (std::uint64_t k = 0; k < std::size(kModelSeeds); ++k) {
        const PassRecord rec = measured_pass(a, model_seed_for(a.seed + k));
        pass_s.push_back(rec.pass_s);
        pass_sys_s.push_back(rec.sys_s);
        setup_runs.insert(setup_runs.end(), rec.setup_runs.begin(),
                          rec.setup_runs.end());
        out.jobs += rec.jobs;
        out.attempted += rec.attempted;
        out.failed += rec.failed;
        for (const auto& f : rec.failures) {
          if (out.failures.size() < 8) {
            out.failures.push_back(f);
          }
        }
        rss_mb.push_back(rec.rss_mb);
        pair_s += rec.pass_s;
      }
      total += pair_s;
    } while (total + pair_s <= a.seconds);
    values = {{"wall_s", median(pass_s)},
              {"jobs_per_s", out.jobs / total},
              {"setup_s", median(setup_runs)},
              {"peak_rss_mb", median(rss_mb)}};
  } else {
    DigestMap pinned;
    auto wl = set_up(a, model_seed, pinned, setup_runs);
    Layers& layers = values;
    Meter meter;
    JobSamples js;
    wl->prepare();
    wl->traced(out, layers, meter, js);
    pass_s.push_back(meter.wall_s);
    pass_sys_s.push_back(meter.sys_s);
    layers["host.sys_s"] = meter.sys_s;
    layers["host.minflt"] = meter.minflt;
    layers["mpisim.job_ms_p50"] = percentile(js.job_ms, 50.0);
    layers["mpisim.job_ms_p90"] = percentile(js.job_ms, 90.0);
    layers["mpisim.job_samples"] = static_cast<double>(js.job_ms.size());
    layers["obs.spans_per_job"] =
        js.job_ms.empty() ? 0.0 : js.spans / static_cast<double>(js.job_ms.size());
    layers["obs.trace_overhead_frac"] =
        js.measured_s > 0.0 ? js.replay_s / js.measured_s - 1.0 : 0.0;
    layers["paper_err_pct"] = out.paper_err_pct;
    layers["failed_frac"] =
        out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted
                          : 1.0;
  }

  const bool correct = out.attempted > 0 && out.failed == 0;
  // Provenance beside the numbers.
  std::string env = "{\"perfbench_env\": {\"workload\": " +
                    quoted(a.workload) + ", \"seed\": " +
                    std::to_string(a.seed) + ", \"model_seeds\": [" +
                    std::to_string(model_seed) +
                    (a.trace == 0 ? ", " + std::to_string(model_seed_for(a.seed + 1))
                                  : std::string()) +
                    "], \"trace\": " +
                    std::to_string(a.trace) + ", \"nproc\": " +
                    std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ", \"compiler\": " + quoted(PERFBENCH_COMPILER) +
                    ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                    ", \"pass_s\": " + numbers(pass_s) +
                    ", \"pass_sys_s\": " + numbers(pass_sys_s) +
                    ", \"setup_runs_s\": " + numbers(setup_runs) +
                    ", \"paper_ratios\": {";
  bool first_ratio = true;
  for (const auto& [label, r] : out.paper_ratios) {
    env += (first_ratio ? "" : ", ") + quoted(label) + ": {\"modelled\": " +
           num(r.first) + ", \"paper\": " + num(r.second) + "}";
    first_ratio = false;
  }
  env += "}, \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    env += (i ? ", " : "") + quoted(out.failures[i]);
  }
  env += "]}}";
  std::printf("%s\n", env.c_str());

  std::string result = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(out.attempted) +
                       ", \"failed\": " + std::to_string(out.failed) +
                       ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& m : a.trace == 0 ? std::span<const MetricDef>(kEndToEnd)
                                    : std::span<const MetricDef>(kPerLayer)) {
    result += (first_metric ? "" : ", ") + quoted(m.name) +
              ": {\"value\": " + num(values[m.name]) +
              ", \"unit\": " + quoted(m.unit) + "}";
    first_metric = false;
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::strcmp(argv[1], "--list-metrics") == 0) {
      perfbench::list_metrics();
      return 0;
    }
    if (argc == 3 && std::strcmp(argv[1], "--write-digests") == 0) {
      return perfbench::write_digests(argv[2]);
    }
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
