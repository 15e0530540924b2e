#pragma once

// Pipeline compilation (docs/MODEL.md "Pipeline compilation").
//
// The hybrid pipeline of paper §3.2.2 places data movement from each
// operator's requires/provides declarations.  This layer lifts that
// placement out of the exec loop: from the operator list, the backend
// dispatch and the observation field layout it builds the operator×field
// dataflow graph once and emits a linear ExecutionPlan of typed steps
// (EnsureFields, MapField, Upload, Launch, Download, Evict, ...) with
// per-field liveness — uploads only before first device use, downloads
// only for live-out or host-consumed fields, Evict at a dead device
// intermediate's last use.  Plans are cached per (pipeline signature,
// backend map, staging config, observation layout), like the xla JIT
// cache.
//
// execute_plan is the one plan driver.  The default (pipelined or
// naive, no prefetch, no evict) plan executes the exact step sequence of
// the interpreter (Pipeline::exec_interpreted), with the same runtime
// guards, so its virtual-time results are bit-for-bit identical —
// including under deterministic fault plans, where a degraded kernel
// triggers the plan's host-fallback patch instead of an inline lambda.
// The staging config's prefetch and evict bits trade that guarantee for
// transfer/compute overlap (via the sched copy engine) and a lower peak
// device footprint.  The async layer's overlap mode is not a second
// driver: it re-times the steps execute_plan ran (StepSink).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "backend/manifest.hpp"
#include "config/schedule.hpp"
#include "core/accel_store.hpp"
#include "core/context.hpp"
#include "core/observation.hpp"
#include "core/operator.hpp"
#include "core/types.hpp"

namespace toast::core {

/// Per-operator host-side framework overhead (the Python layer driving
/// the kernels), charged as serial time before every operator.
inline constexpr double kPipelineOverheadSeconds = 5.0e-5;

/// Immutable per-operator metadata, queried once at pipeline construction
/// instead of re-querying requires/provides/name per operator per
/// observation ("requires" is a C++20 keyword, hence reads/writes).
struct OpMeta {
  std::shared_ptr<Operator> op;
  std::string name;
  bool supports_accel = false;
  std::vector<std::string> reads;   ///< requires_fields(), vector order
  std::vector<std::string> writes;  ///< provides_fields(), vector order
  std::vector<std::string> touched;  ///< sorted unique reads ∪ writes
};

std::vector<OpMeta> build_op_metadata(
    const std::vector<std::shared_ptr<Operator>>& operators);

enum class StepKind : std::uint8_t {
  kChargeOverhead,  ///< per-operator serial framework overhead
  kEnsureFields,    ///< op->ensure_fields(ob)
  kMapField,        ///< allocate the device shadow if not mapped
  kUpload,          ///< H2D if the device copy is stale (async: prefetch)
  kLaunch,          ///< operator execution (device or host)
  kDownload,        ///< D2H if the host copy is stale
  kEvict,           ///< drop the device mapping
  kSyncTransfers,   ///< drain the prefetch copy engine
};

const char* to_string(StepKind k);

struct PlanStep {
  StepKind kind = StepKind::kLaunch;
  int op = -1;     ///< operator index (kEnsureFields/kLaunch/kCharge...)
  int field = -1;  ///< index into ExecutionPlan::field_names
  bool on_device = false;          ///< kLaunch: device implementation
  bool async = false;              ///< kUpload: placed on the copy engine
  bool swallow_persistent = false;  ///< kDownload: swallow persistent faults
  bool liveness = false;  ///< kEvict: placed by liveness (not naive cleanup)
};

/// One operator's slice of the plan.  Step ranges (indices into steps):
///   [begin, try_begin)      pre: overhead charge + ensure_fields
///   [try_begin, post_begin) accel body, wrapped in the recovery try
///   [post_begin, post_end)  naive-staging cleanup (skipped after a fault)
///   [post_end, end)         liveness evictions (always run)
/// [alt_begin, alt_end) indexes alt_steps: the host-fallback patch that
/// replaces the accel body when the operator is (or becomes) degraded or
/// host-dispatched.  Host-planned groups have an empty accel body and run
/// the patch unconditionally.
struct PlanGroup {
  int op = -1;  ///< -1: epilogue (end-of-pipeline output downloads)
  Backend backend = Backend::kCpu;  ///< dispatch result at plan time
  /// Manifest slot of `backend` (backend::index_of); backend::npos for
  /// the epilogue group.  Gives the dump and any consumer the tag name
  /// without re-deriving the enum mapping.
  std::size_t tag = backend::npos;
  bool on_accel = false;            ///< staged for the device at plan time
  int begin = 0;
  int try_begin = 0;
  int post_begin = 0;
  int post_end = 0;
  int end = 0;
  int alt_begin = 0;
  int alt_end = 0;
};

/// A kLaunch body bound at plan time: invokes one operator's exec with
/// whatever store/backend the executing group resolved at runtime.
using LaunchFn =
    std::function<void(Observation&, ExecContext&, AccelStore*, Backend)>;

struct ExecutionPlan {
  std::string key;
  /// The pipeline's staging axis at plan time (mode, prefetch, evict).
  config::StagingConfig options;
  std::vector<std::string> field_names;
  std::vector<PlanStep> steps;
  std::vector<PlanStep> alt_steps;
  std::vector<PlanGroup> groups;
  /// Plan-time-bound launch callables, one per operator.  execute_plan
  /// threads kLaunch steps through these instead of re-resolving the
  /// operator object per step, so the plan carries everything a launch
  /// needs except the runtime dispatch decision.
  std::vector<LaunchFn> launches;
  /// Names/backends baked at plan time, for the dump (index = op).
  std::vector<std::string> op_names;
  std::vector<Backend> op_backends;
  std::vector<char> op_on_accel;

  // Static dataflow statistics (modelled per observation, assuming every
  // declared field exists): what the naive strategy would transfer vs
  // what this plan schedules, and how many liveness evictions it placed.
  int naive_transfers = 0;
  int planned_transfers = 0;
  int transfers_avoided = 0;
  int planned_evictions = 0;
  int prefetch_uploads = 0;

  /// Dump as "toastcase-plan-v1" JSON (toast-trace plan reads this).
  void write_json(std::ostream& out) const;
};

/// Cumulative plan/execute statistics of one Pipeline.
struct PlanStats {
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  /// Groups whose baked accel decision was patched to the host fallback
  /// (mid-run degradation) — the plan-level view of fault recovery.
  double replans = 0.0;
  /// Static transfers avoided vs the naive strategy, accumulated per
  /// executed observation.
  double transfers_avoided = 0.0;
  /// Liveness evictions actually performed.
  double evictions = 0.0;
  /// Uploads that ran on the copy engine (prefetch mode).
  double prefetched_uploads = 0.0;
  /// High-water device shadow footprint across executed observations.
  double peak_mapped_bytes = 0.0;
};

/// Compile the operator list into a plan.  `backends`/`on_accel` are the
/// dispatch decisions at plan time (one entry per operator).
ExecutionPlan build_plan(const std::vector<OpMeta>& meta,
                         const config::StagingConfig& options,
                         const std::vector<std::string>& outputs,
                         const std::vector<Backend>& backends,
                         const std::vector<char>& on_accel, std::string key);

/// One entry of a StepLog.  kMain/kAlt: a step of the plan's `steps` /
/// `alt_steps` ran at virtual time `start` and cost `seconds`.  kBarrier
/// brackets every patch range: recovery serializes against everything
/// in flight.
struct StepRecord {
  enum Kind : std::uint8_t { kMain, kAlt, kBarrier };
  Kind kind = kMain;
  int index = 0;
  double start = 0.0;
  double seconds = 0.0;
};

/// The steps one execute_plan run actually ran, in run order.
struct StepLog {
  double start = 0.0;  ///< clock when the first group began
  std::vector<StepRecord> records;
};

/// Post-pass over a finished step log, called inside the pipeline span
/// before the plan's prefetch drain.  The async layer's overlap mode is
/// one: it re-times the run against the steps' data dependencies.
using StepSink = std::function<void(const ExecutionPlan&, const StepLog&)>;

/// The plan driver: execute a plan on one observation.  Re-evaluates
/// each group's dispatch at runtime: a kernel degraded since plan build
/// runs the group's host-fallback patch (counted as a replan) instead of
/// the accel body, and so does a body that hits a recoverable fault.
/// With a `sink`, every step is recorded and handed to it at the end.
void execute_plan(const ExecutionPlan& plan, const std::vector<OpMeta>& meta,
                  Observation& ob, ExecContext& ctx,
                  const std::optional<Backend>& backend_override,
                  PlanStats& stats, const StepSink& sink = {});

}  // namespace toast::core
