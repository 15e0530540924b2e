#pragma once

// JAX ports of the kernels (paper §3.1.3): single-source array programs
// traced and JIT-compiled by the mini-XLA.  The ports follow the paper's
// recipe exactly:
//   - loops over (detector, interval, sample) become whole-array
//     operations over a [n_det * n_intervals, max_interval_length] padded
//     index space (static shapes!), with out-of-interval lanes doing
//     dummy work that is masked out of the final scatter;
//   - in-place updates become functional scatter_set / scatter_add
//     (x.at[idx].set / .add);
//   - static values (max interval length, nside, nnz, step length) are
//     JIT static arguments: a new trace is compiled per distinct value.
//
// The same code runs on the simulated GPU or on the XLA CPU backend,
// depending only on the ExecContext configuration - the single-source
// property the paper highlights.

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/context.hpp"
#include "core/types.hpp"

namespace toast::kernels::jax {

void pointing_detector(const double* fp_quats, const double* boresight,
                       const std::uint8_t* shared_flags,
                       std::uint8_t flag_mask,
                       std::span<const core::Interval> intervals,
                       std::int64_t n_det, std::int64_t n_samp, double* quats,
                       core::ExecContext& ctx);

void pixels_healpix(const double* quats, const std::uint8_t* shared_flags,
                    std::uint8_t flag_mask, std::int64_t nside, bool nest,
                    std::span<const core::Interval> intervals,
                    std::int64_t n_det, std::int64_t n_samp,
                    std::int64_t* pixels, core::ExecContext& ctx);

void stokes_weights_iqu(const double* quats, const double* hwp_angle,
                        const double* pol_eff,
                        std::span<const core::Interval> intervals,
                        std::int64_t n_det, std::int64_t n_samp,
                        double* weights, core::ExecContext& ctx);

void stokes_weights_i(std::span<const core::Interval> intervals,
                      std::int64_t n_det, std::int64_t n_samp,
                      double* weights, core::ExecContext& ctx);

void scan_map(const double* sky_map, std::int64_t n_pix, std::int64_t nnz,
              const std::int64_t* pixels, const double* weights,
              double data_scale, std::span<const core::Interval> intervals,
              std::int64_t n_det, std::int64_t n_samp, double* signal,
              core::ExecContext& ctx);

void noise_weight(const double* det_weights,
                  std::span<const core::Interval> intervals,
                  std::int64_t n_det, std::int64_t n_samp, double* signal,
                  core::ExecContext& ctx);

void build_noise_weighted(const std::int64_t* pixels, const double* weights,
                          std::int64_t n_pix, std::int64_t nnz,
                          const double* signal, const double* det_scale,
                          const std::uint8_t* shared_flags,
                          std::uint8_t flag_mask,
                          std::span<const core::Interval> intervals,
                          std::int64_t n_det, std::int64_t n_samp,
                          double* zmap, core::ExecContext& ctx);

void template_offset_add_to_signal(std::int64_t step_length,
                                   const double* amplitudes,
                                   std::int64_t n_amp_det,
                                   std::span<const core::Interval> intervals,
                                   std::int64_t n_det, std::int64_t n_samp,
                                   double* signal, core::ExecContext& ctx);

void template_offset_project_signal(
    std::int64_t step_length, const double* signal,
    std::span<const core::Interval> intervals, std::int64_t n_det,
    std::int64_t n_samp, double* amplitudes, std::int64_t n_amp_det,
    core::ExecContext& ctx);

void template_offset_apply_diag_precond(const double* offset_var,
                                        const double* amp_in,
                                        std::int64_t n_amp, double* amp_out,
                                        core::ExecContext& ctx);

/// Drop every kernel's compiled-executable cache (a fresh process starts
/// with cold JIT caches; the multi-process simulation calls this between
/// ranks so each rank pays its own compile time, as in the paper).
void clear_jit_caches();

/// Interpreter fallbacks summed over every kernel's Jit (xla::Jit::
/// fallbacks): zero when every production module lowers to fused loops.
std::size_t jit_fallbacks();

}  // namespace toast::kernels::jax
