#pragma once

// The three workloads (README.md, "Workloads").  Each is defined only
// through stable public inputs: JobConfig problem + backend slot + seed,
// tune::SearchSpace::full(), and toastcase-serve-v1 specs.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "digest.hpp"
#include "replay.hpp"

namespace perfbench {

/// Pinned model seeds: the default and the held-out seed.  A measured
/// run alternates them pass by pass, starting with kModelSeeds[run_seed
/// % 2]; the traced run uses that first one.  The run seed also orders
/// each workload's job list.
inline constexpr std::uint64_t kModelSeeds[] = {2023, 1729};

inline std::uint64_t model_seed_for(std::uint64_t run_seed) {
  return kModelSeeds[run_seed % 2];
}

/// What one pass (or traced run) attempted, what failed, and the
/// virtual-clock digests it produced.
struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  DigestMap observed;
  /// Modelled jobs completed (run_benchmark_job calls, Figure 6 ranks,
  /// tuner evaluations, served jobs).
  double jobs = 0.0;
  /// Mean |modelled / paper - 1| of the speed-up ratios, in %, and
  /// the ratios themselves: "<num> / <den>" -> {modelled, paper}.
  double paper_err_pct = 0.0;
  std::map<std::string, std::pair<double, double>> paper_ratios;

  /// Count one operation; `ok` false records `why` as a failure.
  void op(bool ok, const std::string& why);
  /// Count one digest check against `pinned` (none when null: record
  /// mode, used to write the table).
  void check(const std::string& id, const std::string& digest,
             const DigestMap* pinned);
};

/// Host wall, system time and minor faults over measured calls only.
class Meter {
 public:
  void start();
  /// Stop; returns the wall seconds of this interval.
  double stop();
  double wall_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;

 private:
  double t0_ = 0.0;
  double sys0_ = 0.0;
  double flt0_ = 0.0;
};

/// Per-job host samples of a traced run, folded into Layers at the end.
struct JobSamples {
  std::vector<double> job_ms;
  double spans = 0.0;
  double measured_s = 0.0;  ///< jobs that were replayed
  double replay_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build configs/specs and warm up (timed as setup_s).
  virtual void setup() = 0;
  /// Untimed preparation before each measured pass.
  virtual void prepare() {}
  /// One measured pass: the closed-loop job set, every output checked.
  virtual void pass(Outcome& out) = 0;
  /// The traced run: the measured calls timed per call (into `meter`),
  /// each job replayed through the layer decomposition.
  virtual void traced(Outcome& out, Layers& layers, Meter& meter,
                      JobSamples& samples) = 0;
};

struct WorkloadOptions {
  std::uint64_t model_seed = kModelSeeds[0];
  std::uint64_t run_seed = 0;
  const DigestMap* pinned = nullptr;  ///< null: record mode
  bool tamper_replay = false;
};

/// "figures", "tune_omp_cpu" or "serve_day"; throws std::runtime_error
/// for anything else.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt);

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"figures", "tune_omp_cpu",
                                                 "serve_day"};
  return names;
}

}  // namespace perfbench
