#pragma once

// Support code for the JAX kernel ports: the padded interval view and the
// per-kernel Jit registry.

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/types.hpp"
#include "xla/jit.hpp"

namespace toast::kernels::jax {

/// The static-shape view of the (detector, interval) loop: one row per
/// (det, interval) pair, max_len columns.  Rows carry the detector id,
/// the interval start sample and the interval length; in-graph code
/// derives sample indices, detector-major offsets and validity masks.
struct PaddedView {
  std::int64_t rows = 0;
  std::int64_t max_len = 0;
  xla::Literal det_ids;  // [rows] i64
  xla::Literal starts;   // [rows] i64 (interval start sample)
  xla::Literal lens;     // [rows] i64 (interval length)
};

PaddedView make_padded_view(std::span<const core::Interval> intervals,
                            std::int64_t n_det);

/// In-graph helpers shared by the kernels.  All return [rows, max_len]
/// arrays given the three PaddedView parameter arrays and max_len.
struct PaddedIndex {
  xla::Array samp;   // shared-domain sample index (i64)
  xla::Array detmaj; // detector-major index det * n_samp + samp (i64)
  xla::Array det;    // detector id broadcast (i64)
  xla::Array valid;  // lane is inside its true interval (pred)
};

PaddedIndex padded_index(xla::Array det_ids, xla::Array starts,
                         xla::Array lens, std::int64_t max_len,
                         std::int64_t n_samp);

/// Mask an index array: invalid lanes become -1 (dropped by scatter).
xla::Array masked(xla::Array idx, xla::Array valid);

/// Positive fmod(v, m) for scalar m (python-style modulo).
xla::Array pmod(xla::Array v, double m);

/// Rotate the constant axis (v0, v1, v2) by the quaternion arrays,
/// building exactly the expression tree of kernels::quat_rotate so the
/// JAX port is bit-identical to the compiled kernels.
struct Rotated {
  xla::Array x, y, z;
};
Rotated rotate_axis(xla::Array qx, xla::Array qy, xla::Array qz,
                    xla::Array qw, double v0, double v1, double v2);

/// Per-kernel Jit instances with process-resettable caches.
xla::Jit& registered_jit(const std::string& name, xla::TracedFn fn);

/// Wrap a raw buffer as a borrowed, read-only Literal: no copy, so the
/// buffer must outlive the call that reads it (each wrapper's `args`
/// dies with its jit.call).  The executor never writes through it, so a
/// call that throws leaves the buffer as it was.  The staging costs are
/// charged by the pipeline's AccelStore, not here.
xla::Literal lit_f64(const double* data, std::int64_t n);
xla::Literal lit_i64(const std::int64_t* data, std::int64_t n);
/// Widen a flag buffer into an owned i64 Literal.
xla::Literal lit_u8_as_i64(const std::uint8_t* data, std::int64_t n);

/// Copy a result Literal back into a raw buffer.
void store_f64(const xla::Literal& l, double* out);
void store_i64(const xla::Literal& l, std::int64_t* out);

}  // namespace toast::kernels::jax
