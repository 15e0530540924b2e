#include "workloads.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench_model/problem.hpp"
#include "comm/engine.hpp"
#include "mpisim/job.hpp"
#include "serve/service.hpp"
#include "tune/tuner.hpp"

namespace perfbench {

namespace bm = toast::bench_model;
using toast::mpisim::JobConfig;
using toast::mpisim::JobResult;
using toast::mpisim::run_benchmark_job;

// --- Outcome / Meter ------------------------------------------------------

void Outcome::op(bool ok, const std::string& why) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failures.size() < 8) {
      failures.push_back(why);
    }
  }
}

void Outcome::check(const std::string& id, const std::string& digest,
                    const DigestMap* pinned) {
  observed[id] = digest;
  if (pinned == nullptr) {
    ++attempted;
    return;
  }
  const auto it = pinned->find(id);
  op(it != pinned->end() && it->second == digest,
     id + ": virtual-clock digest " + digest +
         (it == pinned->end() ? " is not pinned" : " != pinned " + it->second));
}

namespace {

void rusage_now(double& sys_s, double& minflt) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
          1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  minflt = static_cast<double>(ru.ru_minflt);
}

}  // namespace

void Meter::start() {
  rusage_now(sys0_, flt0_);
  t0_ = now_s();
}

double Meter::stop() {
  const double dt = now_s() - t0_;
  double sys = 0.0;
  double flt = 0.0;
  rusage_now(sys, flt);
  wall_s += dt;
  sys_s += sys - sys0_;
  minflt += flt - flt0_;
  return dt;
}

namespace {

// --- shared helpers -------------------------------------------------------

/// splitmix64: the workloads' only source of randomness.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

/// Seeded Fisher-Yates: the closed loop's job order.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  SplitMix rng{seed ^ 0x5eed0f0e7a11ULL};
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next() % i]);
  }
}

JobConfig job(const bm::ProblemSize& p, const std::string& slot,
              std::uint64_t seed) {
  JobConfig cfg;
  cfg.problem = p;
  cfg.schedule.backend = slot;
  cfg.seed = seed;
  return cfg;
}

/// Warm-up: one tiny job per backend slot, so lazy one-time set-up
/// (allocator arenas, static tables) is paid before timing.
void warm_up(const std::vector<std::string>& slots, std::uint64_t seed) {
  for (const auto& slot : slots) {
    run_benchmark_job(job(bm::tiny_problem(), slot, seed));
  }
}

/// A modelled speed-up ratio the paper reports: runtime(num) /
/// runtime(den) should read `paper`.
struct PaperRatio {
  const char* num;
  const char* den;
  double paper;
};

/// Set out.paper_ratios and out.paper_err_pct from modelled runtimes.
void paper_error(const std::map<std::string, double>& runtime,
                 const std::vector<PaperRatio>& ratios, Outcome& out) {
  double sum = 0.0;
  int n = 0;
  out.paper_ratios.clear();
  for (const auto& r : ratios) {
    const auto a = runtime.find(r.num);
    const auto b = runtime.find(r.den);
    if (a != runtime.end() && b != runtime.end()) {
      const double modelled = a->second / b->second;
      out.paper_ratios[std::string(r.num) + " / " + r.den] = {modelled,
                                                              r.paper};
      sum += std::fabs(modelled / r.paper - 1.0);
      ++n;
    }
  }
  out.paper_err_pct = n > 0 ? 100.0 * sum / n : 0.0;
}

template <typename F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

/// Replay a measured fault-free job and check it reproduces the job:
/// TimeLog, span count and engine allreduce seconds bitwise, products
/// against the pinned digest.
void check_replay(const std::string& id, const JobConfig& cfg,
                  const JobResult& measured, double job_s, Drive drive,
                  const WorkloadOptions& opt, Outcome& out, Layers& L,
                  JobSamples& js) {
  const Replay rp = replay_job(cfg, drive, L, opt.tamper_replay);
  js.measured_s += job_s;
  js.replay_s += rp.host_s;
  L["mpisim.compose_s"] += job_s - rp.parts_s;
  L["replay.jobs"] += 1.0;
  const bool same =
      timelog_text(rp.log) == timelog_text(measured.rank_log) &&
      rp.spans == measured.rank_spans.size() &&
      (rp.comm_seconds < 0.0 || rp.comm_seconds == measured.comm_seconds);
  out.op(same, id + ": replay TimeLog/spans/comm differ from the job");
  out.check(id + "/products", rp.products, opt.pinned);
}

void note_job(const JobResult& r, double job_s, JobSamples& js) {
  if (!r.oom) {
    js.job_ms.push_back(1e3 * job_s);
    js.spans += static_cast<double>(r.rank_spans.size());
  }
}

// --- figures --------------------------------------------------------------

/// The paper's job set: Fig. 4 process sweep (medium, 1-64 procs x
/// cpu/jax/omp-target), Fig. 5 (large x 4 slots), Fig. 6 ranks.
class Figures final : public Workload {
 public:
  explicit Figures(const WorkloadOptions& opt)
      : opt_(opt), seed_(opt.model_seed) {}

  void setup() override {
    jobs_.clear();
    auto add = [this](const std::string& id, const bm::ProblemSize& p,
                      const std::string& slot) {
      jobs_.push_back(Job{id, job(p, slot, seed_), ""});
    };
    for (const int procs : {1, 2, 4, 8, 16, 32, 64}) {
      auto p = bm::medium_problem();
      p.procs_per_node = procs;
      for (const char* slot : {"cpu", "jax", "omp-target"}) {
        add("fig4/p" + std::to_string(procs) + "/" + slot, p, slot);
      }
    }
    for (const char* slot : {"cpu", "jax", "omp-target", "jax-cpu"}) {
      add(std::string("fig5/") + slot, bm::large_problem(), slot);
    }
    for (const char* slot : {"cpu", "jax", "omp-target"}) {
      jobs_.push_back(Job{std::string("fig6/") + slot, {}, slot});
    }
    shuffle(jobs_, opt_.run_seed);
    warm_up({"cpu", "jax", "omp-target", "jax-cpu"}, seed_);
  }

  void pass(Outcome& out) override {
    std::map<std::string, double> runtime;
    for (const auto& j : jobs_) {
      try {
        if (!j.fig6.empty()) {
          const Replay r = fig6_rank(j.fig6, seed_, nullptr, false);
          out.check(j.id, fig6_digest(r), opt_.pinned);
        } else {
          const JobResult r = run_benchmark_job(j.cfg);
          out.check(j.id, digest_of(job_text(r)), opt_.pinned);
          if (!r.oom) {
            runtime[j.id] = r.runtime;
          }
        }
        out.jobs += 1.0;
      } catch (const std::exception& e) {
        out.op(false, j.id + ": " + e.what());
      }
    }
    paper_error(runtime, kPaper, out);
  }

  void traced(Outcome& out, Layers& L, Meter& m, JobSamples& js) override {
    std::map<std::string, double> runtime;
    for (const auto& j : jobs_) {
      try {
        if (!j.fig6.empty()) {
          m.start();
          const Replay r = fig6_rank(j.fig6, seed_, nullptr, false);
          const double s = m.stop();
          out.check(j.id, fig6_digest(r), opt_.pinned);
          const Replay rp = fig6_rank(j.fig6, seed_, &L, opt_.tamper_replay);
          js.measured_s += s;
          js.replay_s += rp.host_s;
          L["replay.jobs"] += 1.0;
          out.op(timelog_text(rp.log) == timelog_text(r.log) &&
                     rp.spans == r.spans && rp.products == r.products,
                 j.id + ": Figure 6 replay differs from the measured rank");
        } else {
          m.start();
          const JobResult r = run_benchmark_job(j.cfg);
          const double s = m.stop();
          out.check(j.id, digest_of(job_text(r)), opt_.pinned);
          note_job(r, s, js);
          if (!r.oom) {
            runtime[j.id] = r.runtime;
            check_replay(j.id, j.cfg, r, s, Drive::kStaged, opt_, out, L,
                         js);
          }
        }
        out.jobs += 1.0;
      } catch (const std::exception& e) {
        out.op(false, j.id + ": " + e.what());
      }
    }
    paper_error(runtime, kPaper, out);
  }

 private:
  struct Job {
    std::string id;
    JobConfig cfg;
    std::string fig6;  ///< backend slot of a Figure 6 rank, else empty
  };

  static std::string fig6_digest(const Replay& r) {
    return digest_of(timelog_text(r.log) + "|" + r.products);
  }

  /// Paper §4: Fig. 5 jax 2.28x, omp-target 2.58x, jax-cpu 7.4x slower;
  /// Fig. 4 jax 2.4/2.3/2.0x and omp-target 2.9/2.7/2.3x at 8/16/32.
  inline static const std::vector<PaperRatio> kPaper = {
      {"fig5/cpu", "fig5/jax", 2.28},
      {"fig5/cpu", "fig5/omp-target", 2.58},
      {"fig5/jax-cpu", "fig5/cpu", 7.4},
      {"fig4/p8/cpu", "fig4/p8/jax", 2.4},
      {"fig4/p16/cpu", "fig4/p16/jax", 2.3},
      {"fig4/p32/cpu", "fig4/p32/jax", 2.0},
      {"fig4/p8/cpu", "fig4/p8/omp-target", 2.9},
      {"fig4/p16/cpu", "fig4/p16/omp-target", 2.7},
      {"fig4/p32/cpu", "fig4/p32/omp-target", 2.3},
  };

  WorkloadOptions opt_;
  std::uint64_t seed_;
  std::vector<Job> jobs_;
};

// --- tune_omp_cpu ---------------------------------------------------------

/// tune_job(SearchSpace::full()) for the omp-target and cpu rows of
/// fig4-medium@8 and fig5-large, plus the allreduce crossover table.
class TuneOmpCpu final : public Workload {
 public:
  explicit TuneOmpCpu(const WorkloadOptions& opt)
      : opt_(opt), seed_(opt.model_seed) {}

  void setup() override {
    rows_.clear();
    auto medium8 = bm::medium_problem();
    medium8.procs_per_node = 8;
    const auto large = bm::large_problem();
    for (const char* slot : {"omp-target", "cpu"}) {
      rows_.push_back(
          Row{std::string("medium8/") + slot, job(medium8, slot, seed_)});
      rows_.push_back(
          Row{std::string("large/") + slot, job(large, slot, seed_)});
    }
    shuffle(rows_, opt_.run_seed);
    space_ = toast::tune::SearchSpace::full();
    engine_ = std::make_unique<toast::comm::Engine>(
        toast::comm::Topology::cluster(large.total_procs(),
                                       large.procs_per_node));
    warm_up({"cpu", "omp-target"}, seed_);
    // One tuner-sized job too, so the heap reaches its working size.
    run_benchmark_job(job(medium8, "omp-target", seed_));
  }

  void pass(Outcome& out) override {
    std::map<std::string, double> base_runtime;
    for (const auto& row : rows_) {
      try {
        const auto rep = toast::tune::tune_job(row.base, space_);
        check_row(row, rep, out, base_runtime);
      } catch (const std::exception& e) {
        out.op(false, row.id + ": " + e.what());
      }
    }
    crossover(out);
    paper_error(base_runtime, kPaper, out);
  }

  void traced(Outcome& out, Layers& L, Meter& m, JobSamples& js) override {
    std::map<std::string, double> base_runtime;
    for (const auto& row : rows_) {
      try {
        m.start();
        const auto rep = toast::tune::tune_job(row.base, space_);
        const double tune_s = m.stop();
        check_row(row, rep, out, base_runtime);
        L["tune.evaluations"] += rep.evaluations;
        L["tune.cache_hits"] += rep.cache_hits;
        // Every trial again, standalone and back to back as inside the
        // tuner: its self time is its call minus these.  Then each
        // trial's decomposition replay.
        std::vector<JobResult> results(rep.trials.size());
        std::vector<double> secs(rep.trials.size());
        double trials_s = 0.0;
        for (std::size_t i = 0; i < rep.trials.size(); ++i) {
          JobConfig cfg = row.base;
          cfg.schedule = rep.trials[i].config;
          secs[i] = timed([&] { results[i] = run_benchmark_job(cfg); });
          trials_s += secs[i];
          note_job(results[i], secs[i], js);
        }
        for (std::size_t i = 0; i < rep.trials.size(); ++i) {
          const auto& trial = rep.trials[i];
          const JobResult& r = results[i];
          const std::string id = "tune/" + row.id + "/t" + std::to_string(i);
          out.op(r.oom ? !trial.feasible
                       : trial.feasible && r.runtime == trial.runtime,
                 id + ": standalone trial differs from the tuner's");
          if (!r.oom) {
            JobConfig cfg = row.base;
            cfg.schedule = trial.config;
            check_replay(id, cfg, r, secs[i], Drive::kStaged, opt_, out, L,
                         js);
          }
        }
        L["tune.self_s"] += tune_s - trials_s;
      } catch (const std::exception& e) {
        out.op(false, row.id + ": " + e.what());
      }
    }
    m.start();
    crossover(out);
    L["comm.busy_s"] += m.stop();
    L["comm.calls"] += 3.0 * static_cast<double>(std::size(kBytes));
    paper_error(base_runtime, kPaper, out);
  }

 private:
  struct Row {
    std::string id;
    JobConfig base;
  };

  void check_row(const Row& row, const toast::tune::TuneReport& rep,
                 Outcome& out, std::map<std::string, double>& base_runtime) {
    out.check("tune/" + row.id,
              digest_of(rep.best.json() + "|" + exact(rep.best_runtime)),
              opt_.pinned);
    out.jobs += rep.evaluations;
    for (const auto& t : rep.trials) {
      if (t.config == row.base.schedule && t.feasible) {
        base_runtime[row.id] = t.runtime;
      }
    }
  }

  void crossover(Outcome& out) {
    try {
      std::string text;
      for (const double bytes : kBytes) {
        const auto c = toast::tune::best_allreduce_algorithm(*engine_, bytes);
        text += exact(bytes) + ">" +
                toast::config::to_string(c.algorithm) + ":";
        for (const auto& [alg, s] : c.per_algorithm) {
          text += alg + "=" + exact(s) + ";";
        }
      }
      out.check("crossover", digest_of(text), opt_.pinned);
    } catch (const std::exception& e) {
      out.op(false, std::string("crossover: ") + e.what());
    }
  }

  static constexpr double kBytes[] = {8.0,   1024.0, 65536.0,
                                      1.0e6, 8.0e6,  75497472.0};
  /// Default-schedule speed-ups: Fig. 4 omp-target 2.9x at 8 procs,
  /// Fig. 5 omp-target 2.58x.
  inline static const std::vector<PaperRatio> kPaper = {
      {"medium8/cpu", "medium8/omp-target", 2.9},
      {"large/cpu", "large/omp-target", 2.58},
  };

  WorkloadOptions opt_;
  std::uint64_t seed_;
  std::vector<Row> rows_;
  toast::tune::SearchSpace space_;
  std::unique_ptr<toast::comm::Engine> engine_;
};

// --- serve_day ------------------------------------------------------------

struct ServeJobDesc {
  std::string tenant;
  bool overlap = false;
};

/// One seeded service day as a toastcase-serve-v1 document.  The job
/// mix is fixed — 294 tiny jobs from three tenants over all four slots
/// (a fifth of the accelerator ones with `pipeline: overlap`, a quarter
/// of the lab's `tuned`, i.e. library misses), two pairs of medium
/// cpu/omp-target jobs and two tuned large omp-target jobs (library
/// hits) — and the seed shuffles it into an open-loop arrival stream
/// (exponential gaps, mean 0.5 s on the service clock).  Job seeds come
/// from a pool of four, so some jobs repeat each other's work.
std::string make_serve_spec(std::uint64_t seed,
                            std::map<std::string, ServeJobDesc>& descs) {
  struct Entry {
    std::string tenant;
    std::string workload;
    std::string backend;
    bool tuned = false;
    bool overlap = false;
  };
  struct Kind {
    const char* tenant;
    const char* backend;
    int count;
  };
  constexpr Kind kTiny[] = {
      {"survey", "cpu", 48}, {"survey", "omp-target", 48},
      {"survey", "jax", 48}, {"survey", "jax-cpu", 16},
      {"lab", "cpu", 22},    {"lab", "omp-target", 22},
      {"lab", "jax", 22},    {"lab", "jax-cpu", 8},
      {"chaos", "cpu", 24},  {"chaos", "omp-target", 18},
      {"chaos", "jax", 18}};
  std::vector<Entry> entries;
  for (const auto& k : kTiny) {
    const std::string backend = k.backend;
    const bool accel = backend == "omp-target" || backend == "jax";
    for (int i = 0; i < k.count; ++i) {
      entries.push_back(Entry{k.tenant, "tiny", backend,
                              std::string(k.tenant) == "lab" && i % 4 == 0,
                              accel && i % 5 == 0});
    }
  }
  for (int i = 0; i < 2; ++i) {
    entries.push_back(Entry{"lab", "large", "omp-target", true, false});
    entries.push_back(Entry{"lab", "medium", "pair", false, false});
  }
  shuffle(entries, seed);

  SplitMix rng{seed};
  const std::uint64_t pool[] = {seed, seed + 1, seed + 2, seed + 3};
  std::ostringstream js;
  auto emit = [&](const std::string& name, const Entry& e,
                  const std::string& backend, double submit,
                  std::uint64_t job_seed) {
    char t[32];
    std::snprintf(t, sizeof(t), "%.17g", submit);
    js << (descs.empty() ? "" : ",\n") << R"(    {"name": ")" << name
       << R"(", "tenant": ")" << e.tenant << R"(", "workload": ")"
       << e.workload << R"(", "backend": ")" << backend
       << R"(", "submit_s": )" << t << R"(, "seed": )" << job_seed
       << (e.tuned ? R"(, "tuned": true)" : "")
       << (e.overlap ? R"(, "pipeline": "overlap")" : "") << "}";
    descs[name] = ServeJobDesc{e.tenant, e.overlap};
  };
  double t = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    t += -0.5 * std::log1p(-rng.uniform());
    if (e.backend == "pair") {
      // Default-schedule medium jobs on the model seed: Fig. 4 at 16
      // procs, the service day's paper-accuracy check.
      const std::string k = std::to_string(pairs++);
      emit("lab-medium-cpu-" + k, e, "cpu", t, seed);
      emit("lab-medium-omp-target-" + k, e, "omp-target", t, seed);
    } else if (e.workload == "large") {
      emit("lab-large-tuned-" + std::to_string(i), e, e.backend, t, seed);
    } else {
      emit(e.tenant + "-" + std::to_string(i), e, e.backend, t,
           pool[rng.next() % 4]);
    }
  }
  std::ostringstream doc;
  doc << R"({
  "schema": "toastcase-serve-v1",
  "policy": "fair_share",
  "schedule_library": "bench/schedules/index.json",
  "fleet": {"nodes": 8, "gpus_per_node": 4},
  "tenants": [
    {"name": "survey", "share": 2.0},
    {"name": "lab", "share": 1.0, "max_running": 4},
    {"name": "chaos", "share": 1.0, "max_running": 2,
     "faults": {
       "schema": "toastcase-fault-plan-v1",
       "seed": )" << 20230923 + seed
      << R"(,
       "retry": {"max_attempts": 3, "backoff_seconds": 1e-4,
                 "backoff_multiplier": 2.0, "failed_fraction": 0.5},
       "rules": [
         {"kind": "transfer", "probability": 0.05},
         {"kind": "launch", "probability": 0.05},
         {"kind": "straggler", "probability": 0.1, "factor": 3.0},
         {"kind": "rank", "probability": 0.35, "max_fires": 2}
       ]},
     "resilience": {
       "schema": "toastcase-resilience-policy-v1",
       "sites": [
         {"site": "destriper_cg",
          "retry": {"max_attempts": 1, "backoff_seconds": 1e-4,
                    "backoff_multiplier": 2.0, "failed_fraction": 0.5}}
       ],
       "ladders": [
         {"domain": "solver_comm", "escalate_after": 4, "max_level": 2}
       ],
       "elastic": {"enabled": true, "min_ranks": 2,
                   "rebuild_seconds": 1e-3, "requeue": true}
     }}
  ],
  "jobs": [
)" << js.str()
      << "\n  ]\n}\n";
  return doc.str();
}

class ServeDay final : public Workload {
 public:
  explicit ServeDay(const WorkloadOptions& opt)
      : opt_(opt), seed_(opt.model_seed) {}

  void setup() override {
    descs_.clear();
    spec_ = toast::serve::ServiceSpec::parse(make_serve_spec(seed_, descs_));
    service_ = std::make_unique<toast::serve::Service>(spec_);
    warm_up({"cpu", "omp-target", "jax", "jax-cpu"}, seed_);
  }

  void prepare() override {
    if (!service_) {
      service_ = std::make_unique<toast::serve::Service>(spec_);
    }
  }

  void pass(Outcome& out) override {
    toast::serve::ServiceReport report;
    if (run(out, report)) {
      check(report, out);
    }
  }

  void traced(Outcome& out, Layers& L, Meter& m, JobSamples& js) override {
    toast::serve::ServiceReport report;
    m.start();
    const bool ok = run(out, report);
    const double service_s = m.stop();
    if (!ok) {
      return;
    }
    check(report, out);
    L["serve.jobs_admitted"] += report.admitted;
    L["serve.library_hits"] += report.library_hits;
    // Every served job again, standalone and back to back as inside the
    // service: its self time is its run minus these.  Then each job's
    // decomposition replay; chaos-tenant jobs are timed whole.
    const auto& jobs = report.jobs;
    std::vector<JobResult> results(jobs.size());
    std::vector<double> secs(jobs.size(), 0.0);
    double jobs_s = 0.0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].admitted) {
        secs[i] = timed([&] { results[i] = run_benchmark_job(jobs[i].config); });
        jobs_s += secs[i];
        note_job(results[i], secs[i], js);
      }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& sj = jobs[i];
      if (!sj.admitted) {
        continue;
      }
      try {
        for (const auto& [k, v] : sj.result.fault_counters) {
          L["fault.events"] += v;
        }
        out.op(toast::serve::results_bitwise_equal(results[i], sj.result),
               sj.name + ": standalone result differs from the served one");
        const ServeJobDesc& d = descs_.at(sj.name);
        if (d.tenant == "chaos") {
          L["fault.job_s"] += secs[i];
        } else {
          check_replay("serve/" + sj.name, sj.config, results[i], secs[i],
                       d.overlap ? Drive::kOverlap : Drive::kStaged, opt_,
                       out, L, js);
        }
      } catch (const std::exception& e) {
        out.op(false, sj.name + ": " + e.what());
      }
    }
    L["serve.self_s"] += service_s - jobs_s;
  }

 private:
  /// One Service::run on the prepared service (consumed).
  bool run(Outcome& out, toast::serve::ServiceReport& report) {
    const auto service = std::move(service_);
    try {
      report = service->run();
      return true;
    } catch (const std::exception& e) {
      out.op(false, std::string("serve/day: ") + e.what());
      return false;
    }
  }

  void check(const toast::serve::ServiceReport& report, Outcome& out) {
    std::map<std::string, double> runtime;
    for (const auto& sj : report.jobs) {
      out.op(sj.admitted && sj.completed,
             sj.name + ": " +
                 (sj.reject_reason.empty() ? "not completed"
                                           : sj.reject_reason));
      if (sj.completed) {
        out.jobs += 1.0;
        runtime[sj.name] = sj.service_s;
      }
    }
    std::ostringstream doc;
    toast::serve::write_result_json(doc, report);
    out.check("serve/day", digest_of(doc.str()), opt_.pinned);
    paper_error(runtime, kPaper, out);
  }

  /// Default-schedule medium (16 procs) jobs: Fig. 4 omp-target 2.7x.
  inline static const std::vector<PaperRatio> kPaper = {
      {"lab-medium-cpu-0", "lab-medium-omp-target-0", 2.7},
      {"lab-medium-cpu-1", "lab-medium-omp-target-1", 2.7},
  };

  WorkloadOptions opt_;
  std::uint64_t seed_;
  std::map<std::string, ServeJobDesc> descs_;
  toast::serve::ServiceSpec spec_;
  std::unique_ptr<toast::serve::Service> service_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt) {
  if (name == "figures") {
    return std::make_unique<Figures>(opt);
  }
  if (name == "tune_omp_cpu") {
    return std::make_unique<TuneOmpCpu>(opt);
  }
  if (name == "serve_day") {
    return std::make_unique<ServeDay>(opt);
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
