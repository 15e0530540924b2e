#pragma once

// Atomic-update conflicts over warp-sized windows: the one measurement
// behind every atomic_conflict_rate in the model.  The index stream is
// cut into consecutive windows of kWarpWidth positions; within a window,
// an in-range update whose target an earlier in-range update already hit
// is a conflict.  Out-of-range lanes (flagged samples, dropped scatter
// lanes) keep their window position but are not counted.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace toast::accel {

inline constexpr std::size_t kWarpWidth = 32;

struct WarpConflicts {
  std::int64_t valid = 0;      ///< in-range updates
  std::int64_t conflicts = 0;  ///< in-range updates that conflict

  double rate() const {
    return valid > 0 ? static_cast<double>(conflicts) /
                           static_cast<double>(valid)
                     : 0.0;
  }
};

/// Count conflicts among the updates whose target lies in [lo, hi), by a
/// linear scan over at most kWarpWidth distinct targets per window.
inline WarpConflicts warp_conflicts(
    std::span<const std::int64_t> idx, std::int64_t lo,
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  WarpConflicts out;
  std::int64_t seen[kWarpWidth] = {};
  for (std::size_t w0 = 0; w0 < idx.size(); w0 += kWarpWidth) {
    const std::size_t w1 = std::min(idx.size(), w0 + kWarpWidth);
    std::int64_t* last = seen;  // distinct in-range targets of the window
    for (std::size_t k = w0; k < w1; ++k) {
      const std::int64_t j = idx[k];
      if (j < lo || j >= hi) continue;
      ++out.valid;
      if (std::find(seen, last, j) != last) {
        ++out.conflicts;
      } else {
        *last++ = j;
      }
    }
  }
  return out;
}

}  // namespace toast::accel
