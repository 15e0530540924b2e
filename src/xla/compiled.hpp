#pragma once

// Fused-loop executable: the compiled counterpart of the interpreting
// executor (xla/eval.cpp).  Lowering turns each fusion group of a
// Compiled module into one specialized loop body — elementwise and
// structural operands are folded into the loop through composed index
// transforms, so a group executes as a single blocked pass with no
// per-op dispatch and no full-size intermediate Literals.  Only group
// boundaries (params, constants, roots, cross-group values, scatter
// bases/indices, gather tables) are materialized.
//
// The interpreter is the oracle: for every module the fused executable
// can lower, run() produces bitwise-identical products, and
// execute_compiled() produces a bitwise-identical ExecutionReport.
// Modules the lowering rejects (e.g. dtype-mixed arithmetic the
// interpreter would also choke on) raise LoweringError and the Jit
// falls back to interpretation for that call.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "xla/executor.hpp"
#include "xla/hlo.hpp"

namespace toast::xla {

/// The module cannot be lowered to fused loops.  Public so callers (the
/// Jit, tests) can distinguish "fall back to the interpreter" from real
/// evaluation errors.
class LoweringError : public std::logic_error {
 public:
  explicit LoweringError(const std::string& what)
      : std::logic_error("xla/compiled: " + what) {}
};

namespace fused {

/// Index-transform step: maps a loop-domain index to an operand index.
/// Chains compose root-to-leaf as structural ops (broadcast / slice /
/// reshape) are folded into the loop body.
enum class XKind : std::uint8_t {
  kZero,    // scalar-broadcast operand: always element 0
  kDiv,     // BroadcastCol: row index = i / cols
  kMod,     // BroadcastRow: column index = i % cols
  kMulAdd,  // SliceCol: flat index = i * cols + i0
};

struct XOp {
  XKind kind;
  std::int64_t a = 0;
  std::int64_t b = 0;
};

using Xform = std::vector<XOp>;

/// Walk `x` over the block [base, base + n) one maximal affine run at a
/// time: f(k, v, d, len) means the indices of base + k + j map to
/// v + j * d for j in [0, len).  The walk carries (value, stride, run
/// length) through the chain: kZero is stride 0, kDiv / kMod cap the run
/// where the quotient would change or the remainder wrap (then kDiv
/// drops the stride to 0 and kMod keeps it) unless the stride is a
/// multiple of the divisor, kMulAdd scales both.  Indices are
/// non-negative and the arithmetic is exact, so each index equals
/// apply_xform(x, base + k + j).
template <typename F>
void for_each_run(const Xform& x, std::int64_t base, std::int64_t n, F&& f) {
  for (std::int64_t k = 0; k < n;) {
    std::int64_t v = base + k;
    std::int64_t d = 1;
    std::int64_t len = n - k;
    for (const auto& s : x) {
      switch (s.kind) {
        case XKind::kZero:
          v = 0;
          d = 0;
          break;
        case XKind::kDiv:
        case XKind::kMod: {
          const bool div = s.kind == XKind::kDiv;
          if (d % s.a == 0) {
            // Every step crosses whole multiples of a: no cap needed.
            d = div ? d / s.a : 0;
          } else {
            len = std::min(len, (s.a - v % s.a + d - 1) / d);
            if (div) d = 0;
          }
          v = div ? v / s.a : v % s.a;
          break;
        }
        case XKind::kMulAdd:
          v = v * s.a + s.b;
          d *= s.a;
          break;
      }
    }
    f(k, v, d, len);
    k += len;
  }
}

/// Per-element evaluation of `x`: the oracle for_each_run is tested
/// against.
inline std::int64_t apply_xform(const Xform& x, std::int64_t i) {
  for (const auto& s : x) {
    switch (s.kind) {
      case XKind::kZero:
        i = 0;
        break;
      case XKind::kDiv:
        i /= s.a;
        break;
      case XKind::kMod:
        i %= s.a;
        break;
      case XKind::kMulAdd:
        i = i * s.a + s.b;
        break;
    }
  }
  return i;
}

struct Step;
struct ExecState;

/// One blockwise bytecode step.  `fn` is instantiated from a template
/// over (op kind, dtypes) at lowering time, so execution threads
/// directly through specialized loop bodies.
using StepFn = void (*)(const Step&, ExecState&, std::int64_t base,
                        std::int64_t n);

struct Step {
  StepFn fn = nullptr;
  int out = -1;   // destination register in the dtype's pool
  int in0 = -1;   // source registers
  int in1 = -1;
  int in2 = -1;
  int slot = -1;  // materialized value (loads, gather tables)
  Xform xform;    // index mapping for loads / iota
};

enum class LoopKind : std::uint8_t {
  kMap,            // elementwise / structural / gather root
  kReduceSumFull,  // ReduceSum axis=-1
  kReduceSumRows,  // ReduceSum axis=1 on rank 2
  kReduceMax,
  kDot,
  kScatter,  // ScatterAdd / ScatterSet
};

struct Loop {
  LoopKind kind = LoopKind::kMap;
  InstrId root = -1;
  std::vector<Step> steps;
  std::int64_t domain = 0;  // elements iterated (output or input domain)
  std::int64_t rows = 0;
  std::int64_t cols = 0;      // kReduceSumRows
  int value_reg = -1;         // register holding the root expression block
  int value_reg2 = -1;        // second dot operand
  DType dtype = DType::kF64;  // result element type
  int base_slot = -1;         // scatter base (materialized)
  int idx_slot = -1;          // scatter indices (materialized)
  bool scatter_set = false;
  // The base is a computed value whose only use is this scatter and
  // which is not a root: its storage becomes the result (updated in
  // place) instead of being copied.
  bool base_dead = false;
  int n_f64 = 0;  // register pool sizes this loop needs
  int n_i64 = 0;
  int n_pred = 0;
};

}  // namespace fused

/// A lowered module: one fused::Loop per materialized non-leaf value,
/// executed in SSA order.  Immutable after lower(); safe to share across
/// calls (cached on Compiled::fused).
class FusedExecutable {
 public:
  /// Lower a compiled module.  Throws LoweringError when fused loops
  /// cannot reproduce the interpreter bit for bit.
  static std::shared_ptr<const FusedExecutable> lower(const Compiled& c);

  struct RunResult {
    /// Storage for values computed by the loops, indexed by InstrId.
    std::vector<Literal> owned;
    /// Per-instruction view: params point at args, constants at the
    /// module payload, computed values at `owned`.  Non-materialized
    /// instructions stay nullptr — they only ever existed inside a loop
    /// — and so does a dead scatter base once its storage has moved into
    /// the scatter's result.
    std::vector<const Literal*> vals;
  };

  /// Execute the loops.  `args` must already be validated against the
  /// module signature.
  RunResult run(const HloModule& m, std::span<const Literal> args) const;

  std::size_t loop_count() const { return loops_.size(); }
  std::size_t step_count() const;
  std::size_t materialized_count() const { return n_materialized_; }
  /// Scatter loops that update a dead base in place.
  std::size_t in_place_count() const { return n_in_place_; }

 private:
  FusedExecutable() = default;

  std::vector<fused::Loop> loops_;
  std::size_t n_materialized_ = 0;
  std::size_t n_in_place_ = 0;
  int max_f64_ = 0;  // register pool high-water marks across loops
  int max_i64_ = 0;
  int max_pred_ = 0;
};

}  // namespace toast::xla
