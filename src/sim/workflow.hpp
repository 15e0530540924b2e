#pragma once

// The paper's benchmark workflow: the satellite telescope simulation
// pipeline — simulate sky + noise, expand pointing, and run the iterative
// map-making section (scan / noise-weight / accumulate / offset-template),
// interleaved with stand-ins for the >30 kernels that had no GPU port.

#include <memory>
#include <vector>

#include "core/pipeline.hpp"

namespace toast::sim {

struct WorkflowConfig {
  std::int64_t nside = 64;
  std::int64_t nnz = 3;
  /// Map-maker solver iterations.
  int map_iterations = 5;
  /// Include the unported host-only kernel stand-ins (Amdahl ballast).
  bool include_unported = true;
  /// Template-offset baseline length in samples.
  std::int64_t offset_step_length = 256;
};

/// Build the full benchmark operator list (one pipeline).
core::Pipeline make_benchmark_pipeline(
    const WorkflowConfig& cfg,
    config::Staging staging = config::Staging::kPipelined);

/// Just the pointing expansion chain (pointing -> pixels -> weights).
core::Pipeline make_pointing_pipeline(const WorkflowConfig& cfg);

/// Sky synthesis + pointing expansion + map scanning in ONE pipeline, so
/// the intermediate pointing products stay on the device between the
/// operators (splitting this into separate pipelines would discard the
/// device-only "weights" intermediate).
core::Pipeline make_scan_pipeline(const WorkflowConfig& cfg);

/// Just one map-making iteration.
core::Pipeline make_mapmaking_pipeline(const WorkflowConfig& cfg);

}  // namespace toast::sim
