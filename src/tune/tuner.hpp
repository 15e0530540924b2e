#pragma once

// Deterministic cost-model autotuner over the schedule space
// (docs/MODEL.md §12).
//
// The tuner searches config::ScheduleConfig candidates for one
// (workload, topology) pair — a mpisim::JobConfig whose non-schedule
// fields (problem, device spec, network, fault plan) stay fixed — and
// picks the candidate with the smallest modelled job runtime.  Every
// evaluation is one run_benchmark_job() on the virtual clock, so the
// search is exactly reproducible: same base job + same search space =
// same winner, bit for bit.  Winners serialize as reusable
// "toastcase-schedule-v1" artifacts (ScheduleConfig::save_file) that
// `--schedule <file>` feeds back into any bench.
//
// Search strategy (TuneOptions::exhaustive = false, the default):
// greedy coordinate descent in a fixed, documented axis order —
//
//   staging.mode -> staging.prefetch -> staging.evict -> streams ->
//   comm.mode -> comm.algorithm -> comm.chunk_bytes ->
//   solver.async_comm -> shape.nodes -> shape.procs_per_node ->
//   device.mps -> device.jax_preallocate -> backend
//
// — iterated to a fixpoint.  A candidate is adopted only on *strict*
// runtime improvement (ties keep the incumbent, so the earliest value in
// the axis list wins and the result never depends on map ordering or
// float tie-breaking).  Evaluations are memoized by config hash; OOM
// configurations are infeasible (infinite runtime), never winners.
//
// Exhaustive mode enumerates the full Cartesian product in nested-loop
// order (last axis fastest) under the same strict-improvement rule —
// the oracle the greedy search is benchmarked against.

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "comm/engine.hpp"
#include "config/schedule.hpp"
#include "mpisim/job.hpp"

namespace toast::tune {

/// Candidate values per schedule axis.  An empty axis is not searched:
/// the base job's value is kept.  Axis value order is significant — on
/// runtime ties the earliest listed value wins.
struct SearchSpace {
  std::vector<std::string> backends;
  std::vector<config::Staging> staging_modes;
  std::vector<bool> prefetch;
  std::vector<bool> evict;
  std::vector<int> streams;
  std::vector<config::CommMode> comm_modes;
  std::vector<config::CommAlgorithm> comm_algorithms;
  std::vector<double> chunk_bytes;
  std::vector<config::SolverComm> solver_comms;
  std::vector<int> nodes;
  std::vector<int> procs_per_node;
  std::vector<bool> mps;
  std::vector<bool> jax_preallocate;

  /// The default schedule search: staging axes, stream counts, the comm
  /// axes (engine algorithms + chunk bounds) and the solver modes.
  /// Backend and shape are left pinned to the base job — the benches
  /// tune per (backend, shape) row.
  static SearchSpace full();
};

struct TuneOptions {
  /// Enumerate the full Cartesian product instead of coordinate descent.
  bool exhaustive = false;
  /// Cap on cost-model evaluations (cache hits don't count); 0 = none.
  int max_evaluations = 0;
};

/// One evaluated candidate, in evaluation order.
struct Evaluation {
  config::ScheduleConfig config;
  double runtime = std::numeric_limits<double>::infinity();
  bool feasible = false;  ///< false = the footprint model said OOM
};

struct TuneReport {
  config::ScheduleConfig best;
  double best_runtime = std::numeric_limits<double>::infinity();
  int evaluations = 0;  ///< cost-model runs (cache misses)
  int cache_hits = 0;   ///< memoized re-visits during the descent
  int sweeps = 0;       ///< coordinate-descent passes until fixpoint
  std::vector<Evaluation> trials;
};

/// Tune the schedule of `base` over `space`.  base.schedule is the
/// starting point of the descent (and the incumbent every candidate must
/// strictly beat).
TuneReport tune_job(const mpisim::JobConfig& base, const SearchSpace& space,
                    const TuneOptions& opt = {});

/// The comm micro-tuner: argmin over the engine's allreduce algorithms
/// for one message size on one topology.  Strict `<` keeps the earliest
/// algorithm in enum order (ring, recursive, tree) on ties.
struct AllreduceChoice {
  config::CommAlgorithm algorithm = config::CommAlgorithm::kRing;
  double seconds = std::numeric_limits<double>::infinity();
  /// Modelled seconds per algorithm, keyed by to_string(algorithm).
  std::map<std::string, double> per_algorithm;
};

AllreduceChoice best_allreduce_algorithm(const comm::Engine& engine,
                                         double bytes,
                                         const comm::RunOptions& opt = {});

}  // namespace toast::tune
