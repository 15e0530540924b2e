#pragma once

// Satellite telescope simulation (the paper's benchmark workload, §4):
// generates the characteristic scanning motion of a space-based CMB
// telescope - a spin axis precessing about the anti-solar direction, with
// the boresight opening out from the spin axis - plus a hexagonal
// focalplane, scan intervals, a synthetic sky and 1/f detector noise.

#include <cstdint>
#include <vector>

#include "core/context.hpp"
#include "core/observation.hpp"
#include "core/operator.hpp"

namespace toast::sim {

/// Scanning geometry (defaults close to typical satellite designs).
struct ScanParams {
  double sample_rate = 37.0;       // Hz
  double spin_period = 600.0;      // seconds per spin revolution
  double prec_period = 3600.0;     // seconds per precession revolution
  double spin_angle_deg = 30.0;    // boresight opening from spin axis
  double prec_angle_deg = 45.0;    // spin axis opening from anti-solar
  /// Scan intervals: one per spin period, with gaps and length jitter so
  /// interval lengths vary (the padding stressor of both GPU ports).
  double interval_gap_fraction = 0.05;
  double interval_jitter_fraction = 0.3;
};

/// Build a hexagonal focalplane of `n_det` detectors with alternating
/// polarization angles and a 1/f noise model.
core::Focalplane hex_focalplane(std::int64_t n_det, double sample_rate,
                                double fov_deg = 10.0, double net = 50.0e-6,
                                double fknee = 0.05, double alpha = 1.0);

/// Create one observation: boresight quaternions, HWP angle, times, shared
/// flags (a small flagged fraction) and varying-length scan intervals.
core::Observation simulate_satellite(const std::string& name,
                                     const core::Focalplane& fp,
                                     std::int64_t n_samples,
                                     const ScanParams& params = {},
                                     std::uint64_t seed = 0);

/// Seed of the sky SynthSkyOp attaches.
inline constexpr std::uint64_t kSkySeed = 42;

/// Synthesize a smooth sky map (low-order harmonics in I, Q, U) for the
/// given nside; stored as the "sky_map" field, n_pix x nnz.
std::vector<double> synthetic_sky(std::int64_t nside, std::int64_t nnz,
                                  std::uint64_t seed = kSkySeed);

/// Counters of one workload-generation memo table (sim/memo.hpp).  Host
/// diagnostics only: they never enter a JobResult, a trace span, bench
/// JSON or a digest.
struct MemoTableStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;  // keys + values held
};

struct MemoStats {
  MemoTableStats observations;  // simulate_satellite
  MemoTableStats skies;         // synthetic_sky / SynthSkyOp
  MemoTableStats noise;         // SimNoiseOp per-detector realisations
};

MemoStats memo_stats();

/// Drop every memoised value and zero the counters (tests use it to force
/// a miss; results never depend on it).
void clear_memo();

/// Operator: attach the synthetic sky to each observation.
class SynthSkyOp : public core::Operator {
 public:
  SynthSkyOp(std::int64_t nside, std::int64_t nnz = 3)
      : nside_(nside), nnz_(nnz) {}
  std::string name() const override { return "synth_sky"; }
  std::vector<std::string> provides_fields() const override {
    return {core::fields::kSkyMap};
  }
  void exec(core::Observation& ob, core::ExecContext& ctx,
            core::AccelStore* accel, core::Backend backend) override;

 private:
  std::int64_t nside_;
  std::int64_t nnz_;
};

/// Operator: simulate 1/f + white detector noise into "signal" using the
/// counter-based RNG and the FFT substrate (host only, like TOAST's
/// sim_noise at the time of the paper).
class SimNoiseOp : public core::Operator {
 public:
  explicit SimNoiseOp(std::uint64_t seed = 1234567) : seed_(seed) {}
  std::string name() const override { return "sim_noise"; }
  std::vector<std::string> provides_fields() const override {
    return {core::fields::kSignal};
  }
  void ensure_fields(core::Observation& ob) override;
  void exec(core::Observation& ob, core::ExecContext& ctx,
            core::AccelStore* accel, core::Backend backend) override;

 private:
  std::uint64_t seed_;
};

}  // namespace toast::sim
