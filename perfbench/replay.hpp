#pragma once

// Traced decomposition of one modelled job (README.md, "Traced run").
//
// replay_job() re-executes mpisim::run_benchmark_job's representative
// rank through the same public calls the job makes — ExecContext,
// sim::hex_focalplane / sim::simulate_satellite,
// sim::make_benchmark_pipeline, Pipeline::exec or async::run_plan_async,
// comm::Engine::allreduce_seconds — timing each call on the host clock.
// Every operator is wrapped in TimedOp, a decorator that forwards name,
// fields and supports_accel, so the compiled plans are unchanged.  The
// caller compares the replay's TimeLog and products with the measured
// job: a replay that differs is a failed operation.

#include <cstdint>
#include <map>
#include <string>

#include "accel/timelog.hpp"
#include "core/observation.hpp"
#include "mpisim/job.hpp"

namespace perfbench {

/// Host seconds since an arbitrary epoch (steady clock).
double now_s();

/// Per-layer accumulators of the traced run, keyed by metric name.
using Layers = std::map<std::string, double>;

/// How the replay drives each observation's pipeline.
enum class Drive {
  kStaged,   ///< core::Pipeline::exec
  kOverlap,  ///< async::run_plan_async in overlap mode
};

struct Replay {
  toast::accel::TimeLog log;
  std::size_t spans = 0;
  /// Digest of every pipeline output field of every observation.
  std::string products;
  /// Engine allreduce seconds (comm mode "engine" only, else -1).
  double comm_seconds = -1.0;
  /// Host seconds of the whole replay, and of its context + sim +
  /// pipeline part (the job's time minus that is its composition).
  double host_s = 0.0;
  double parts_s = 0.0;
};

/// Replay a fault-free job's representative rank, accumulating host
/// time per layer into `layers`.  `tamper` perturbs one product sample
/// (the self-check that a differing replay is caught).
Replay replay_job(const toast::mpisim::JobConfig& cfg, Drive drive,
                  Layers& layers, bool tamper);

/// One Figure 6 rank (medium problem, 16 procs, MPS-shared device) of a
/// backend slot.  With `layers` null it runs undecorated: the measured
/// operation; with `layers` set it is the traced replay.
Replay fig6_rank(const std::string& slot, std::uint64_t seed,
                 Layers* layers, bool tamper);

}  // namespace perfbench
