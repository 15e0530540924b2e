#include "tune/tuner.hpp"

#include <cstddef>
#include <functional>
#include <unordered_map>

namespace toast::tune {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

/// One searchable coordinate: a value count plus a setter that writes
/// the i-th candidate value into a config.
struct Axis {
  const char* name;
  std::size_t count;
  std::function<void(config::ScheduleConfig&, std::size_t)> set;
};

/// The fixed axis order of the descent (see the header comment).  Empty
/// axes are dropped, which pins them to the base schedule's value.
std::vector<Axis> make_axes(const SearchSpace& sp) {
  std::vector<Axis> axes;
  auto add = [&axes](const char* name, std::size_t n, auto set) {
    if (n > 0) {
      axes.push_back(Axis{name, n, set});
    }
  };
  add("staging.mode", sp.staging_modes.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.staging.mode = sp.staging_modes[i];
      });
  add("staging.prefetch", sp.prefetch.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.staging.prefetch = sp.prefetch[i];
      });
  add("staging.evict", sp.evict.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.staging.evict = sp.evict[i];
      });
  add("streams", sp.streams.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.streams = sp.streams[i];
      });
  add("comm.mode", sp.comm_modes.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.comm.mode = sp.comm_modes[i];
      });
  add("comm.algorithm", sp.comm_algorithms.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.comm.algorithm = sp.comm_algorithms[i];
      });
  add("comm.chunk_bytes", sp.chunk_bytes.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.comm.chunk_bytes = sp.chunk_bytes[i];
      });
  add("solver.async_comm", sp.solver_comms.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.solver.async_comm = sp.solver_comms[i];
      });
  add("shape.nodes", sp.nodes.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.shape.nodes = sp.nodes[i];
      });
  add("shape.procs_per_node", sp.procs_per_node.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.shape.procs_per_node = sp.procs_per_node[i];
      });
  add("device.mps", sp.mps.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.device.mps = sp.mps[i];
      });
  add("device.jax_preallocate", sp.jax_preallocate.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.device.jax_preallocate = sp.jax_preallocate[i];
      });
  add("backend", sp.backends.size(),
      [&sp](config::ScheduleConfig& c, std::size_t i) {
        c.backend = sp.backends[i];
      });
  return axes;
}

/// Memoized cost-model evaluation: one run_benchmark_job per distinct
/// config hash, OOM mapped to an infinite (infeasible) runtime.
class Evaluator {
 public:
  Evaluator(const mpisim::JobConfig& base, const TuneOptions& opt,
            TuneReport& report)
      : base_(base), opt_(opt), report_(report) {}

  double evaluate(const config::ScheduleConfig& c) {
    const std::uint64_t h = c.hash();
    const auto it = cache_.find(h);
    if (it != cache_.end()) {
      ++report_.cache_hits;
      return it->second;
    }
    if (opt_.max_evaluations > 0 &&
        report_.evaluations >= opt_.max_evaluations) {
      // Budget exhausted: unevaluated candidates can never win.  Not
      // cached, so the budget itself stays the only cutoff.
      return kInfeasible;
    }
    mpisim::JobConfig job = base_;
    job.schedule = c;
    const mpisim::JobResult r = mpisim::run_benchmark_job(job);
    const double t = r.oom ? kInfeasible : r.runtime;
    ++report_.evaluations;
    report_.trials.push_back(Evaluation{c, t, !r.oom});
    cache_.emplace(h, t);
    return t;
  }

 private:
  const mpisim::JobConfig& base_;
  const TuneOptions& opt_;
  TuneReport& report_;
  std::unordered_map<std::uint64_t, double> cache_;
};

}  // namespace

SearchSpace SearchSpace::full() {
  SearchSpace s;
  s.staging_modes = {config::Staging::kPipelined, config::Staging::kNaive};
  s.prefetch = {false, true};
  s.evict = {false, true};
  s.streams = {1, 2, 4};
  s.comm_modes = {config::CommMode::kModel, config::CommMode::kEngine};
  s.comm_algorithms = {config::CommAlgorithm::kRing,
                       config::CommAlgorithm::kRecursive,
                       config::CommAlgorithm::kTree};
  s.chunk_bytes = {0.0, 1048576.0, 8388608.0};
  s.solver_comms = {config::SolverComm::kStaged, config::SolverComm::kSync,
                    config::SolverComm::kOverlap};
  return s;
}

TuneReport tune_job(const mpisim::JobConfig& base, const SearchSpace& space,
                    const TuneOptions& opt) {
  TuneReport report;
  Evaluator ev(base, opt, report);
  const std::vector<Axis> axes = make_axes(space);

  // The base schedule is the incumbent; every candidate must strictly
  // beat the best seen so far (ties keep the earlier config — the
  // search result never depends on tie-breaking).
  config::ScheduleConfig best = base.schedule;
  double best_runtime = ev.evaluate(best);

  if (opt.exhaustive) {
    // Full Cartesian product in nested-loop order, last axis fastest.
    config::ScheduleConfig cur = base.schedule;
    std::function<void(std::size_t)> enumerate = [&](std::size_t k) {
      if (k == axes.size()) {
        const double t = ev.evaluate(cur);
        if (t < best_runtime) {
          best_runtime = t;
          best = cur;
        }
        return;
      }
      for (std::size_t i = 0; i < axes[k].count; ++i) {
        axes[k].set(cur, i);
        enumerate(k + 1);
      }
    };
    enumerate(0);
    report.sweeps = 1;
  } else {
    // Greedy coordinate descent to a fixpoint.  Terminates: each
    // changed sweep strictly lowers a runtime drawn from a finite set
    // (the sweep cap is pure insurance, never the exit in practice).
    bool changed = true;
    while (changed && report.sweeps < 64) {
      changed = false;
      ++report.sweeps;
      for (const auto& axis : axes) {
        for (std::size_t i = 0; i < axis.count; ++i) {
          config::ScheduleConfig cand = best;
          axis.set(cand, i);
          if (cand == best) {
            continue;  // the incumbent value of this axis
          }
          const double t = ev.evaluate(cand);
          if (t < best_runtime) {
            best_runtime = t;
            best = cand;
            changed = true;
          }
        }
      }
    }
  }

  report.best = best;
  report.best_runtime = best_runtime;
  return report;
}

AllreduceChoice best_allreduce_algorithm(const comm::Engine& engine,
                                         double bytes,
                                         const comm::RunOptions& opt) {
  AllreduceChoice choice;
  constexpr config::CommAlgorithm kAlgorithms[] = {config::CommAlgorithm::kRing,
                                             config::CommAlgorithm::kRecursive,
                                             config::CommAlgorithm::kTree};
  for (const config::CommAlgorithm a : kAlgorithms) {
    const double s = engine.allreduce_seconds(bytes, a, opt);
    choice.per_algorithm[config::to_string(a)] = s;
    if (s < choice.seconds) {
      choice.seconds = s;
      choice.algorithm = a;
    }
  }
  return choice;
}

}  // namespace toast::tune
