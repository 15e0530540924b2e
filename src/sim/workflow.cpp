#include "sim/workflow.hpp"

#include "kernels/operators.hpp"
#include "sim/satellite.hpp"

namespace toast::sim {

namespace {

using OpList = std::vector<std::shared_ptr<core::Operator>>;

void append_unported(OpList& ops, const char* phase) {
  // Stand-ins for the >30 unported kernels (calibration, flagging,
  // filtering, statistics...).  Costs are per detector-sample; the mix
  // below makes the unported section comparable to the ported kernels on
  // CPU, which (with the serial framework time) produces the paper's
  // ~3x Amdahl bound.
  ops.push_back(std::make_shared<kernels::UnportedHostOp>(
      std::string("unported_filter_") + phase, 48.0, 30.0));
  ops.push_back(std::make_shared<kernels::UnportedHostOp>(
      std::string("unported_stats_") + phase, 26.0, 18.0));
}

}  // namespace

core::Pipeline make_pointing_pipeline(const WorkflowConfig& cfg) {
  OpList ops;
  ops.push_back(std::make_shared<kernels::PointingDetectorOp>());
  ops.push_back(std::make_shared<kernels::PixelsHealpixOp>(cfg.nside, true));
  ops.push_back(std::make_shared<kernels::StokesWeightsIquOp>(true));
  return core::Pipeline(std::move(ops));
}

core::Pipeline make_scan_pipeline(const WorkflowConfig& cfg) {
  OpList ops;
  ops.push_back(std::make_shared<SynthSkyOp>(cfg.nside, cfg.nnz));
  ops.push_back(std::make_shared<kernels::PointingDetectorOp>());
  ops.push_back(std::make_shared<kernels::PixelsHealpixOp>(cfg.nside, true));
  ops.push_back(std::make_shared<kernels::StokesWeightsIquOp>(true));
  ops.push_back(std::make_shared<kernels::ScanMapOp>(cfg.nnz));
  return core::Pipeline(std::move(ops));
}

core::Pipeline make_mapmaking_pipeline(const WorkflowConfig& cfg) {
  OpList ops;
  kernels::TemplateOffsetConfig tpl{cfg.offset_step_length};
  ops.push_back(std::make_shared<kernels::ScanMapOp>(cfg.nnz));
  ops.push_back(std::make_shared<kernels::NoiseWeightOp>());
  ops.push_back(
      std::make_shared<kernels::BuildNoiseWeightedOp>(cfg.nside, cfg.nnz));
  ops.push_back(std::make_shared<kernels::TemplateOffsetProjectOp>(tpl));
  ops.push_back(std::make_shared<kernels::TemplateOffsetAddOp>(tpl));
  return core::Pipeline(std::move(ops));
}

core::Pipeline make_benchmark_pipeline(const WorkflowConfig& cfg,
                                       config::Staging staging) {
  OpList ops;
  kernels::TemplateOffsetConfig tpl{cfg.offset_step_length};

  // Simulation section (host only, as in TOAST at the time of the paper).
  ops.push_back(std::make_shared<SynthSkyOp>(cfg.nside, cfg.nnz));
  ops.push_back(std::make_shared<SimNoiseOp>());

  // Pointing expansion.
  ops.push_back(std::make_shared<kernels::PointingDetectorOp>());
  ops.push_back(std::make_shared<kernels::PixelsHealpixOp>(cfg.nside, true));
  ops.push_back(std::make_shared<kernels::StokesWeightsIquOp>(true));
  ops.push_back(std::make_shared<kernels::ScanMapOp>(cfg.nnz));
  if (cfg.include_unported) {
    append_unported(ops, "pre");
  }

  // Iterative map-making.
  for (int iter = 0; iter < cfg.map_iterations; ++iter) {
    ops.push_back(std::make_shared<kernels::NoiseWeightOp>());
    ops.push_back(
        std::make_shared<kernels::BuildNoiseWeightedOp>(cfg.nside, cfg.nnz));
    ops.push_back(std::make_shared<kernels::TemplateOffsetProjectOp>(tpl));
    ops.push_back(std::make_shared<kernels::TemplateOffsetAddOp>(tpl));
  }
  if (cfg.include_unported) {
    append_unported(ops, "post");
  }
  return core::Pipeline(std::move(ops), staging);
}

}  // namespace toast::sim
