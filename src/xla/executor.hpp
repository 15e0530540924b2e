#pragma once

// Compilation (pass pipeline + fusion grouping) and execution of HLO
// modules.  Execution computes real values on the host and, per fusion
// group, a WorkEstimate describing what an XLA GPU executable would have
// done: one launch per group, memory traffic only across group boundaries,
// flops for every element actually computed (including padding and both
// sides of every select - predication is how XLA handles branches).
//
// Scatter lowering is decided from the data, as XLA:GPU does: sorted
// (segment) scatters become a conflict-free segmented reduction; unsorted
// scatters pay atomics with the measured conflict rate.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "accel/work.hpp"
#include "xla/hlo.hpp"
#include "xla/passes.hpp"

namespace toast::xla {

/// How a Compiled module computes its values.  Both modes produce
/// bitwise-identical products and ExecutionReports; only the real
/// wall-clock cost of the value computation differs.
enum class ExecMode {
  kInterpreted,  ///< per-op evaluation, one Literal per instruction
  kCompiled,     ///< fused-loop executable (xla/compiled.hpp)
};

class FusedExecutable;

struct ExecutionReport {
  std::vector<accel::WorkEstimate> group_work;
  /// Whether each group contains a heavy op (reduce/dot/gather/scatter);
  /// XLA's CPU backend parallelizes only these (paper §4.2).
  std::vector<bool> group_heavy;
  /// Data-dependency edges of the fusion-group DAG: group g reads values
  /// produced by every group in group_deps[g] (sorted, deduplicated).
  /// Groups with disjoint dep chains are independent and the runtime may
  /// dispatch them onto different streams.
  std::vector<std::vector<int>> group_deps;
  accel::WorkEstimate total;
  bool segment_lowering_used = false;
  /// Bytes of intermediate buffers held at the peak of execution.
  std::size_t peak_temp_bytes = 0;
};

struct Compiled {
  HloModule module;
  std::vector<int> group_of;  // fusion group per instruction, -1 = memory
  int n_groups = 0;
  PassStats pass_stats;
  /// Modelled XLA compile time (charged once per cache entry).
  double compile_seconds = 0.0;
  /// The shape-static part of every ExecutionReport of this module,
  /// built once by compile(): group work without the scatter-add terms,
  /// heavy flags, group deps and peak temp bytes (`total` is left empty).
  ExecutionReport static_report;
  /// Fused scatter-adds in instruction order: their lowering (segmented
  /// reduction vs atomics) is decided from the executed indices, so
  /// build_report adds their terms per call.
  std::vector<InstrId> scatter_adds;
  /// Lazily-built fused-loop executable (execute_compiled's cache; the
  /// lowering runs once per Compiled, on first compiled execution).
  mutable std::shared_ptr<const FusedExecutable> fused;
};

Compiled compile(HloModule module);

/// Evaluate the compiled module.  `args` must match module params.
std::vector<Literal> execute(const Compiled& compiled,
                             std::span<const Literal> args,
                             ExecutionReport* report = nullptr);

/// Evaluate via the fused-loop executable (xla/compiled.hpp): one
/// specialized loop per materialized value instead of one Literal per
/// instruction.  Products and report are bitwise-identical to execute();
/// throws LoweringError when the module cannot be lowered (the Jit falls
/// back to the interpreter).
std::vector<Literal> execute_compiled(const Compiled& compiled,
                                      std::span<const Literal> args,
                                      ExecutionReport* report = nullptr);

namespace detail {

/// Check args against the traced signature (count, shapes, dtypes);
/// throws std::invalid_argument on mismatch.  Shared by both executors.
void validate_args(const HloModule& m, std::span<const Literal> args);

/// Returns the executed index stream of a scatter instruction (the value
/// of its operands[1]).  The only data dependence of the metering model:
/// everything else in the report derives from shapes and the group
/// assignment (Compiled::static_report), but the scatter-add lowering
/// decision (segmented reduction vs atomics, and the conflict rate) is
/// taken from the actual indices.
using ScatterIdxFn =
    std::function<std::span<const std::int64_t>(InstrId scatter)>;

/// Build the full ExecutionReport for a module: the static report plus
/// the scatter-add terms.  Both executors call this with their own
/// ScatterIdxFn, which is what makes the reports — and hence the
/// modelled TimeLog — bitwise identical across modes.  Every flop and
/// byte term is an integer-valued double below 2^53, so adding the
/// scatter bytes after the static sums is exact.
ExecutionReport build_report(const Compiled& compiled,
                             const ScatterIdxFn& scatter_idx);

}  // namespace detail

}  // namespace toast::xla
