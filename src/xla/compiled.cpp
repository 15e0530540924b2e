#include "xla/compiled.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <type_traits>
#include <utility>

namespace toast::xla {

namespace fused {

// Elements evaluated per bytecode pass.  Registers are kBlock wide, so a
// loop's working set is (registers x 8 KiB) and stays cache-resident;
// tiny domains simply thread the same steps once with n = domain.
constexpr std::int64_t kBlock = 1024;

struct ExecState {
  std::vector<std::vector<double>> f64;
  std::vector<std::vector<std::int64_t>> i64;
  std::vector<std::vector<std::uint8_t>> pred;
  const std::vector<const Literal*>* vals = nullptr;
};

namespace {

template <typename T>
std::vector<std::vector<T>>& pool(ExecState& st) {
  if constexpr (std::is_same_v<T, double>) {
    return st.f64;
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return st.i64;
  } else {
    return st.pred;
  }
}

template <typename T>
std::span<const T> lit_span(const Literal& l) {
  if constexpr (std::is_same_v<T, double>) {
    return l.f64();
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    return l.i64();
  } else {
    return l.pred();
  }
}

// --- loads ------------------------------------------------------------------

// An identity load is one contiguous run and a scalar load one fill, so
// every load goes through the run walk.
template <typename T>
void load_step(const Step& s, ExecState& st, std::int64_t base,
               std::int64_t n) {
  const auto src = lit_span<T>(*(*st.vals)[static_cast<std::size_t>(s.slot)]);
  T* dst = pool<T>(st)[static_cast<std::size_t>(s.out)].data();
  for_each_run(s.xform, base, n,
               [&](std::int64_t k, std::int64_t v, std::int64_t d,
                   std::int64_t len) {
                 const T* p = src.data() + v;
                 T* o = dst + k;
                 if (d == 0) {
                   std::fill(o, o + len, *p);
                 } else if (d == 1) {
                   std::copy(p, p + len, o);
                 } else {
                   for (std::int64_t j = 0; j < len; ++j) o[j] = p[j * d];
                 }
               });
}

void iota_step(const Step& s, ExecState& st, std::int64_t base,
               std::int64_t n) {
  std::int64_t* dst =
      pool<std::int64_t>(st)[static_cast<std::size_t>(s.out)].data();
  for_each_run(s.xform, base, n,
               [&](std::int64_t k, std::int64_t v, std::int64_t d,
                   std::int64_t len) {
                 for (std::int64_t j = 0; j < len; ++j) dst[k + j] = v + j * d;
               });
}

// --- compute steps ----------------------------------------------------------

template <typename Out, typename In, typename F>
void unary_step(const Step& s, ExecState& st, std::int64_t, std::int64_t n) {
  const In* a = pool<In>(st)[static_cast<std::size_t>(s.in0)].data();
  Out* o = pool<Out>(st)[static_cast<std::size_t>(s.out)].data();
  for (std::int64_t k = 0; k < n; ++k) o[k] = F{}(a[k]);
}

template <typename Out, typename In, typename F>
void binary_step(const Step& s, ExecState& st, std::int64_t, std::int64_t n) {
  const In* a = pool<In>(st)[static_cast<std::size_t>(s.in0)].data();
  const In* b = pool<In>(st)[static_cast<std::size_t>(s.in1)].data();
  Out* o = pool<Out>(st)[static_cast<std::size_t>(s.out)].data();
  for (std::int64_t k = 0; k < n; ++k) o[k] = F{}(a[k], b[k]);
}

template <typename T>
void select_step(const Step& s, ExecState& st, std::int64_t, std::int64_t n) {
  const std::uint8_t* p =
      pool<std::uint8_t>(st)[static_cast<std::size_t>(s.in0)].data();
  const T* t = pool<T>(st)[static_cast<std::size_t>(s.in1)].data();
  const T* f = pool<T>(st)[static_cast<std::size_t>(s.in2)].data();
  T* o = pool<T>(st)[static_cast<std::size_t>(s.out)].data();
  for (std::int64_t k = 0; k < n; ++k) o[k] = p[k] ? t[k] : f[k];
}

template <typename T>
void clamp_step(const Step& s, ExecState& st, std::int64_t, std::int64_t n) {
  const T* v = pool<T>(st)[static_cast<std::size_t>(s.in0)].data();
  const T* lo = pool<T>(st)[static_cast<std::size_t>(s.in1)].data();
  const T* hi = pool<T>(st)[static_cast<std::size_t>(s.in2)].data();
  T* o = pool<T>(st)[static_cast<std::size_t>(s.out)].data();
  for (std::int64_t k = 0; k < n; ++k) o[k] = std::clamp(v[k], lo[k], hi[k]);
}

template <typename T>
void gather_step(const Step& s, ExecState& st, std::int64_t, std::int64_t n) {
  const auto table =
      lit_span<T>(*(*st.vals)[static_cast<std::size_t>(s.slot)]);
  const std::int64_t t = static_cast<std::int64_t>(table.size());
  const std::int64_t* idx =
      pool<std::int64_t>(st)[static_cast<std::size_t>(s.in0)].data();
  T* o = pool<T>(st)[static_cast<std::size_t>(s.out)].data();
  for (std::int64_t k = 0; k < n; ++k) {
    // JAX clamps out-of-range gather indices (matches eval.cpp).
    const std::int64_t j = std::clamp<std::int64_t>(idx[k], 0, t - 1);
    o[k] = table[static_cast<std::size_t>(j)];
  }
}

// --- functors (each mirrors the exact expression in eval.cpp) ---------------

template <typename T>
struct Neg {
  T operator()(T v) const { return -v; }
};
template <typename T>
struct Abs {
  T operator()(T v) const { return std::abs(v); }
};
template <typename T>
struct Sign {
  T operator()(T v) const { return static_cast<T>((v > T{0}) - (v < T{0})); }
};
struct SqrtF {
  double operator()(double v) const { return std::sqrt(v); }
};
struct TanhF {
  double operator()(double v) const { return std::tanh(v); }
};
struct SinF {
  double operator()(double v) const { return std::sin(v); }
};
struct CosF {
  double operator()(double v) const { return std::cos(v); }
};
struct ExpF {
  double operator()(double v) const { return std::exp(v); }
};
struct LogF {
  double operator()(double v) const { return std::log(v); }
};
struct FloorF {
  double operator()(double v) const { return std::floor(v); }
};
struct NotP {
  std::uint8_t operator()(std::uint8_t v) const { return v ? 0 : 1; }
};
struct CastF64FromI {
  double operator()(std::int64_t v) const { return static_cast<double>(v); }
};
struct CastF64FromP {
  double operator()(std::uint8_t v) const { return static_cast<double>(v); }
};
struct CastI64FromF {
  std::int64_t operator()(double v) const {
    return static_cast<std::int64_t>(v);
  }
};
struct CastI64FromP {
  std::int64_t operator()(std::uint8_t v) const {
    return static_cast<std::int64_t>(v);
  }
};
template <typename T>
struct MinT {
  T operator()(T a, T b) const { return std::min(a, b); }
};
template <typename T>
struct MaxT {
  T operator()(T a, T b) const { return std::max(a, b); }
};
struct Atan2F {
  double operator()(double y, double x) const { return std::atan2(y, x); }
};
struct FmodF {
  double operator()(double a, double b) const { return std::fmod(a, b); }
};
struct ModI {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return a % b;
  }
};
struct AndP {
  std::uint8_t operator()(std::uint8_t a, std::uint8_t b) const {
    return (a && b) ? 1 : 0;
  }
};
struct OrP {
  std::uint8_t operator()(std::uint8_t a, std::uint8_t b) const {
    return (a || b) ? 1 : 0;
  }
};
struct XorP {
  std::uint8_t operator()(std::uint8_t a, std::uint8_t b) const {
    return (a != b) ? 1 : 0;
  }
};
struct AndI {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return a & b;
  }
};
struct OrI {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return a | b;
  }
};
struct XorI {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return a ^ b;
  }
};
struct ShlI {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << b);
  }
};
struct ShrI {
  std::int64_t operator()(std::int64_t a, std::int64_t b) const {
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >> b);
  }
};
template <typename T, typename P>
struct CmpWrap {
  std::uint8_t operator()(T a, T b) const { return P{}(a, b) ? 1 : 0; }
};

// --- step-function selection ------------------------------------------------

StepFn load_fn(DType d) {
  switch (d) {
    case DType::kF64:
      return &load_step<double>;
    case DType::kI64:
      return &load_step<std::int64_t>;
    case DType::kPred:
      return &load_step<std::uint8_t>;
  }
  return nullptr;
}

template <typename T>
StepFn same_type_unary_fn(Opcode op) {
  switch (op) {
    case Opcode::kNeg:
      return &unary_step<T, T, Neg<T>>;
    case Opcode::kAbs:
      return &unary_step<T, T, Abs<T>>;
    case Opcode::kSign:
      return &unary_step<T, T, Sign<T>>;
    default:
      return nullptr;
  }
}

StepFn f64_unary_fn(Opcode op) {
  switch (op) {
    case Opcode::kSqrt:
      return &unary_step<double, double, SqrtF>;
    case Opcode::kTanh:
      return &unary_step<double, double, TanhF>;
    case Opcode::kSin:
      return &unary_step<double, double, SinF>;
    case Opcode::kCos:
      return &unary_step<double, double, CosF>;
    case Opcode::kExp:
      return &unary_step<double, double, ExpF>;
    case Opcode::kLog:
      return &unary_step<double, double, LogF>;
    case Opcode::kFloor:
      return &unary_step<double, double, FloorF>;
    default:
      return nullptr;
  }
}

template <typename T>
StepFn arith_fn(Opcode op) {
  switch (op) {
    case Opcode::kAdd:
      return &binary_step<T, T, std::plus<T>>;
    case Opcode::kSub:
      return &binary_step<T, T, std::minus<T>>;
    case Opcode::kMul:
      return &binary_step<T, T, std::multiplies<T>>;
    case Opcode::kDiv:
      return &binary_step<T, T, std::divides<T>>;
    case Opcode::kMin:
      return &binary_step<T, T, MinT<T>>;
    case Opcode::kMax:
      return &binary_step<T, T, MaxT<T>>;
    case Opcode::kMod:
      if constexpr (std::is_same_v<T, double>) {
        return &binary_step<double, double, FmodF>;
      } else {
        return &binary_step<std::int64_t, std::int64_t, ModI>;
      }
    default:
      return nullptr;
  }
}

template <typename T>
StepFn cmp_fn(Opcode op) {
  switch (op) {
    case Opcode::kLt:
      return &binary_step<std::uint8_t, T, CmpWrap<T, std::less<T>>>;
    case Opcode::kLe:
      return &binary_step<std::uint8_t, T, CmpWrap<T, std::less_equal<T>>>;
    case Opcode::kGt:
      return &binary_step<std::uint8_t, T, CmpWrap<T, std::greater<T>>>;
    case Opcode::kGe:
      return &binary_step<std::uint8_t, T,
                          CmpWrap<T, std::greater_equal<T>>>;
    case Opcode::kEq:
      return &binary_step<std::uint8_t, T, CmpWrap<T, std::equal_to<T>>>;
    case Opcode::kNe:
      return &binary_step<std::uint8_t, T,
                          CmpWrap<T, std::not_equal_to<T>>>;
    default:
      return nullptr;
  }
}

std::string xform_key(const Xform& x) {
  std::string key;
  for (const auto& s : x) {
    key += static_cast<char>('a' + static_cast<int>(s.kind));
    key += std::to_string(s.a);
    key += ',';
    key += std::to_string(s.b);
    key += ';';
  }
  return key;
}

// --- expression lowering ----------------------------------------------------

/// Lowers the fused expression tree rooted at one materialized value
/// into the loop's bytecode, composing index transforms through
/// structural ops and memoizing on (instruction, transform) so shared
/// subexpressions evaluate once per block.
class ExprLowering {
 public:
  ExprLowering(const HloModule& m, const std::vector<char>& mat,
               InstrId root, Loop* loop)
      : m_(m), mat_(mat), root_(root), loop_(loop) {}

  int lower(InstrId id, const Xform& x);

 private:
  int alloc(DType d) {
    switch (d) {
      case DType::kF64:
        return loop_->n_f64++;
      case DType::kI64:
        return loop_->n_i64++;
      case DType::kPred:
        return loop_->n_pred++;
    }
    return -1;
  }

  /// Transform an elementwise operand sees: a size-1 operand is read at
  /// element 0 for every lane (eval.cpp's scalar-broadcast accessors);
  /// anything else inherits the consumer's index.
  Xform ex(InstrId op, const Xform& x) const {
    if (m_.at(op).shape.num_elements() == 1) {
      return Xform{{XKind::kZero, 0, 0}};
    }
    return x;
  }

  [[noreturn]] void reject(const std::string& why) const {
    throw LoweringError(why + " (module '" + m_.name +
                        "', instruction " + std::to_string(root_) + ")");
  }

  const HloModule& m_;
  const std::vector<char>& mat_;
  InstrId root_;
  Loop* loop_;
  std::map<std::pair<InstrId, std::string>, int> memo_;
};

int ExprLowering::lower(InstrId id, const Xform& x) {
  const auto key = std::make_pair(id, xform_key(x));
  if (const auto it = memo_.find(key); it != memo_.end()) {
    return it->second;
  }
  const HloInstruction& in = m_.at(id);
  int reg = -1;

  if (mat_[static_cast<std::size_t>(id)] != 0 && id != root_) {
    // Group boundary: the value exists as a Literal by the time this
    // loop runs; load it through the composed index transform.
    reg = alloc(in.dtype);
    Step s;
    s.out = reg;
    s.slot = id;
    s.xform = x;
    s.fn = load_fn(in.dtype);
    loop_->steps.push_back(std::move(s));
    memo_.emplace(key, reg);
    return reg;
  }

  switch (in.opcode) {
    case Opcode::kIota: {
      reg = alloc(DType::kI64);
      Step s;
      s.out = reg;
      s.xform = x;
      s.fn = &iota_step;
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kReshape:
      // Flat copy: same value at the same flat index.
      reg = lower(in.operands[0], x);
      break;
    case Opcode::kBroadcastCol: {
      Xform cx = x;
      cx.push_back({XKind::kDiv, in.shape.dim(1), 0});
      reg = lower(in.operands[0], cx);
      break;
    }
    case Opcode::kBroadcastRow: {
      Xform cx = x;
      cx.push_back({XKind::kMod, in.shape.dim(1), 0});
      reg = lower(in.operands[0], cx);
      break;
    }
    case Opcode::kSliceCol: {
      Xform cx = x;
      cx.push_back({XKind::kMulAdd, m_.at(in.operands[0]).shape.dim(1),
                    in.i0});
      reg = lower(in.operands[0], cx);
      break;
    }
    case Opcode::kGather: {
      // Table is always materialized; indices are read directly at the
      // output index (no scalar broadcast in eval.cpp's gather).
      if (m_.at(in.operands[1]).dtype != DType::kI64) {
        reject("gather indices must be i64");
      }
      const int idx_reg = lower(in.operands[1], x);
      reg = alloc(in.dtype);
      Step s;
      s.out = reg;
      s.in0 = idx_reg;
      s.slot = in.operands[0];
      switch (in.dtype) {
        case DType::kF64:
          s.fn = &gather_step<double>;
          break;
        case DType::kI64:
          s.fn = &gather_step<std::int64_t>;
          break;
        case DType::kPred:
          s.fn = &gather_step<std::uint8_t>;
          break;
      }
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kSelect: {
      if (m_.at(in.operands[0]).dtype != DType::kPred) {
        reject("select predicate must be pred");
      }
      for (int k = 1; k <= 2; ++k) {
        if (m_.at(in.operands[k]).dtype != in.dtype) {
          reject("dtype-mixed fusion group: select branch dtype differs "
                 "from result");
        }
      }
      const int p = lower(in.operands[0], ex(in.operands[0], x));
      const int t = lower(in.operands[1], ex(in.operands[1], x));
      const int f = lower(in.operands[2], ex(in.operands[2], x));
      reg = alloc(in.dtype);
      Step s;
      s.out = reg;
      s.in0 = p;
      s.in1 = t;
      s.in2 = f;
      switch (in.dtype) {
        case DType::kF64:
          s.fn = &select_step<double>;
          break;
        case DType::kI64:
          s.fn = &select_step<std::int64_t>;
          break;
        case DType::kPred:
          s.fn = &select_step<std::uint8_t>;
          break;
      }
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kClamp: {
      if (in.dtype == DType::kPred) {
        reject("clamp on pred");
      }
      for (int k = 0; k <= 2; ++k) {
        if (m_.at(in.operands[k]).dtype != in.dtype) {
          reject("dtype-mixed fusion group: clamp operand dtype differs "
                 "from result");
        }
      }
      const int v = lower(in.operands[0], ex(in.operands[0], x));
      const int lo = lower(in.operands[1], ex(in.operands[1], x));
      const int hi = lower(in.operands[2], ex(in.operands[2], x));
      reg = alloc(in.dtype);
      Step s;
      s.out = reg;
      s.in0 = v;
      s.in1 = lo;
      s.in2 = hi;
      s.fn = in.dtype == DType::kF64 ? &clamp_step<double>
                                     : &clamp_step<std::int64_t>;
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kCastF64: {
      const DType ad = m_.at(in.operands[0]).dtype;
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      if (ad == DType::kF64) {
        reg = ra;  // identity cast: reuse the operand's register
        break;
      }
      reg = alloc(DType::kF64);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.fn = ad == DType::kI64
                 ? &unary_step<double, std::int64_t, CastF64FromI>
                 : &unary_step<double, std::uint8_t, CastF64FromP>;
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kCastI64: {
      const DType ad = m_.at(in.operands[0]).dtype;
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      if (ad == DType::kI64) {
        reg = ra;
        break;
      }
      reg = alloc(DType::kI64);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.fn = ad == DType::kF64
                 ? &unary_step<std::int64_t, double, CastI64FromF>
                 : &unary_step<std::int64_t, std::uint8_t, CastI64FromP>;
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kNot: {
      if (in.dtype != DType::kPred ||
          m_.at(in.operands[0]).dtype != DType::kPred) {
        reject("logical-not needs pred operand and result");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      reg = alloc(DType::kPred);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.fn = &unary_step<std::uint8_t, std::uint8_t, NotP>;
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kNeg:
    case Opcode::kAbs:
    case Opcode::kSign: {
      if (in.dtype == DType::kPred ||
          m_.at(in.operands[0]).dtype != in.dtype) {
        reject("dtype-mixed fusion group: unary operand dtype differs "
               "from result");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      reg = alloc(in.dtype);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.fn = in.dtype == DType::kF64
                 ? same_type_unary_fn<double>(in.opcode)
                 : same_type_unary_fn<std::int64_t>(in.opcode);
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kSqrt:
    case Opcode::kTanh:
    case Opcode::kSin:
    case Opcode::kCos:
    case Opcode::kExp:
    case Opcode::kLog:
    case Opcode::kFloor: {
      if (in.dtype != DType::kF64 ||
          m_.at(in.operands[0]).dtype != DType::kF64) {
        reject("transcendental on non-f64");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      reg = alloc(DType::kF64);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.fn = f64_unary_fn(in.opcode);
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor: {
      const DType ad = m_.at(in.operands[0]).dtype;
      const DType bd = m_.at(in.operands[1]).dtype;
      if (ad != in.dtype || bd != in.dtype || in.dtype == DType::kF64) {
        reject("dtype-mixed fusion group: logic operand dtype differs "
               "from result");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      const int rb = lower(in.operands[1], ex(in.operands[1], x));
      reg = alloc(in.dtype);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.in1 = rb;
      if (in.dtype == DType::kPred) {
        s.fn = in.opcode == Opcode::kAnd
                   ? &binary_step<std::uint8_t, std::uint8_t, AndP>
               : in.opcode == Opcode::kOr
                   ? &binary_step<std::uint8_t, std::uint8_t, OrP>
                   : &binary_step<std::uint8_t, std::uint8_t, XorP>;
      } else {
        s.fn = in.opcode == Opcode::kAnd
                   ? &binary_step<std::int64_t, std::int64_t, AndI>
               : in.opcode == Opcode::kOr
                   ? &binary_step<std::int64_t, std::int64_t, OrI>
                   : &binary_step<std::int64_t, std::int64_t, XorI>;
      }
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kShl:
    case Opcode::kShr: {
      if (in.dtype != DType::kI64 ||
          m_.at(in.operands[0]).dtype != DType::kI64 ||
          m_.at(in.operands[1]).dtype != DType::kI64) {
        reject("shift on non-i64");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      const int rb = lower(in.operands[1], ex(in.operands[1], x));
      reg = alloc(DType::kI64);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.in1 = rb;
      s.fn = in.opcode == Opcode::kShl
                 ? &binary_step<std::int64_t, std::int64_t, ShlI>
                 : &binary_step<std::int64_t, std::int64_t, ShrI>;
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDiv:
    case Opcode::kMin:
    case Opcode::kMax:
    case Opcode::kAtan2:
    case Opcode::kMod: {
      const DType ad = m_.at(in.operands[0]).dtype;
      const DType bd = m_.at(in.operands[1]).dtype;
      if (in.dtype == DType::kPred || ad != in.dtype || bd != in.dtype) {
        reject("dtype-mixed fusion group: arithmetic operand dtype "
               "differs from result");
      }
      if (in.opcode == Opcode::kAtan2 && in.dtype != DType::kF64) {
        reject("atan2 on non-f64");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      const int rb = lower(in.operands[1], ex(in.operands[1], x));
      reg = alloc(in.dtype);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.in1 = rb;
      if (in.opcode == Opcode::kAtan2) {
        s.fn = &binary_step<double, double, Atan2F>;
      } else {
        s.fn = in.dtype == DType::kF64 ? arith_fn<double>(in.opcode)
                                       : arith_fn<std::int64_t>(in.opcode);
      }
      loop_->steps.push_back(std::move(s));
      break;
    }
    case Opcode::kLt:
    case Opcode::kLe:
    case Opcode::kGt:
    case Opcode::kGe:
    case Opcode::kEq:
    case Opcode::kNe: {
      // eval.cpp keys the comparison on the *first operand's* dtype and
      // reads both operands with it.
      const DType ad = m_.at(in.operands[0]).dtype;
      const DType bd = m_.at(in.operands[1]).dtype;
      if (ad != bd || ad == DType::kPred) {
        reject("dtype-mixed fusion group: comparison operands disagree");
      }
      const int ra = lower(in.operands[0], ex(in.operands[0], x));
      const int rb = lower(in.operands[1], ex(in.operands[1], x));
      reg = alloc(DType::kPred);
      Step s;
      s.out = reg;
      s.in0 = ra;
      s.in1 = rb;
      s.fn = ad == DType::kI64 ? cmp_fn<std::int64_t>(in.opcode)
                               : cmp_fn<double>(in.opcode);
      loop_->steps.push_back(std::move(s));
      break;
    }
    default:
      // kParam/kConstant are always materialized, heavy ops are always
      // loop roots — reaching them here means the materialization scan
      // and the lowering disagree.
      reject(std::string("cannot fuse opcode ") + to_string(in.opcode));
  }

  memo_.emplace(key, reg);
  return reg;
}

}  // namespace
}  // namespace fused

// --- lowering ---------------------------------------------------------------

std::shared_ptr<const FusedExecutable> FusedExecutable::lower(
    const Compiled& c) {
  using namespace fused;
  const HloModule& m = c.module;
  const std::size_t n = m.size();

  // Materialization set: loop boundaries.  Everything else lives only as
  // a register block inside some loop body.
  std::vector<char> mat(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    if (in.opcode == Opcode::kParam || in.opcode == Opcode::kConstant) {
      mat[i] = 1;
    }
    if (is_heavy(in.opcode)) {
      mat[i] = 1;  // heavy ops close their group; they root a loop
    }
    for (const auto op : in.operands) {
      if (c.group_of[static_cast<std::size_t>(op)] !=
          c.group_of[i]) {
        mat[static_cast<std::size_t>(op)] = 1;
      }
    }
    if (in.opcode == Opcode::kGather) {
      mat[static_cast<std::size_t>(in.operands[0])] = 1;
    }
    if (in.opcode == Opcode::kScatterAdd ||
        in.opcode == Opcode::kScatterSet) {
      mat[static_cast<std::size_t>(in.operands[0])] = 1;
      mat[static_cast<std::size_t>(in.operands[1])] = 1;
    }
  }
  // Uses per value, each root listing counting as one: a computed value
  // with exactly one use that is a scatter base is dead after that scatter.
  std::vector<int> uses(n, 0);
  for (const auto r : m.roots) {
    mat[static_cast<std::size_t>(r)] = 1;
    ++uses[static_cast<std::size_t>(r)];
  }
  for (const auto& in : m.instructions) {
    for (const auto op : in.operands) {
      ++uses[static_cast<std::size_t>(op)];
    }
  }

  auto exe = std::shared_ptr<FusedExecutable>(new FusedExecutable());
  for (std::size_t i = 0; i < n; ++i) {
    const HloInstruction& in = m.instructions[i];
    if (mat[i] == 0 || in.opcode == Opcode::kParam ||
        in.opcode == Opcode::kConstant) {
      continue;
    }
    ++exe->n_materialized_;
    const auto id = static_cast<InstrId>(i);
    Loop loop;
    loop.root = id;
    loop.dtype = in.dtype;
    ExprLowering ll(m, mat, id, &loop);

    switch (in.opcode) {
      case Opcode::kReduceSum: {
        const InstrId a = in.operands[0];
        const Shape& ash = m.at(a).shape;
        if (in.dtype == DType::kPred || m.at(a).dtype != in.dtype) {
          throw LoweringError("reduce_sum dtype mismatch in module '" +
                              m.name + "'");
        }
        if (in.i0 == -1) {
          loop.kind = LoopKind::kReduceSumFull;
          loop.domain = ash.num_elements();
        } else {
          if (ash.rank() != 2) {
            throw LoweringError(
                "axis reduce_sum needs a rank-2 operand in module '" +
                m.name + "'");
          }
          loop.kind = LoopKind::kReduceSumRows;
          loop.rows = ash.dim(0);
          loop.cols = ash.dim(1);
          loop.domain = loop.rows * loop.cols;
        }
        loop.value_reg = ll.lower(a, {});
        break;
      }
      case Opcode::kReduceMax: {
        const InstrId a = in.operands[0];
        if (in.dtype == DType::kPred || m.at(a).dtype != in.dtype) {
          throw LoweringError("reduce_max dtype mismatch in module '" +
                              m.name + "'");
        }
        loop.kind = LoopKind::kReduceMax;
        loop.domain = m.at(a).shape.num_elements();
        loop.value_reg = ll.lower(a, {});
        break;
      }
      case Opcode::kDot: {
        const InstrId a = in.operands[0];
        const InstrId b = in.operands[1];
        if (m.at(a).dtype != DType::kF64 || m.at(b).dtype != DType::kF64) {
          throw LoweringError("dot on non-f64 in module '" + m.name + "'");
        }
        loop.kind = LoopKind::kDot;
        loop.domain = m.at(a).shape.num_elements();
        loop.value_reg = ll.lower(a, {});
        loop.value_reg2 = ll.lower(b, {});
        break;
      }
      case Opcode::kScatterAdd:
      case Opcode::kScatterSet: {
        const InstrId base = in.operands[0];
        const InstrId idx = in.operands[1];
        const InstrId upd = in.operands[2];
        if (m.at(idx).dtype != DType::kI64) {
          throw LoweringError("scatter indices must be i64 in module '" +
                              m.name + "'");
        }
        if (in.dtype == DType::kPred || m.at(upd).dtype != in.dtype ||
            m.at(base).dtype != in.dtype) {
          throw LoweringError("scatter dtype mismatch in module '" +
                              m.name + "'");
        }
        loop.kind = LoopKind::kScatter;
        loop.scatter_set = in.opcode == Opcode::kScatterSet;
        loop.base_slot = base;
        loop.base_dead = uses[static_cast<std::size_t>(base)] == 1 &&
                         m.at(base).opcode != Opcode::kParam &&
                         m.at(base).opcode != Opcode::kConstant;
        exe->n_in_place_ += loop.base_dead ? 1 : 0;
        loop.idx_slot = idx;
        loop.domain = m.at(idx).shape.num_elements();
        loop.value_reg = ll.lower(upd, {});
        break;
      }
      default:
        loop.kind = LoopKind::kMap;
        loop.domain = in.shape.num_elements();
        loop.value_reg = ll.lower(id, {});
        break;
    }

    exe->max_f64_ = std::max(exe->max_f64_, loop.n_f64);
    exe->max_i64_ = std::max(exe->max_i64_, loop.n_i64);
    exe->max_pred_ = std::max(exe->max_pred_, loop.n_pred);
    exe->loops_.push_back(std::move(loop));
  }
  return exe;
}

std::size_t FusedExecutable::step_count() const {
  std::size_t n = 0;
  for (const auto& l : loops_) {
    n += l.steps.size();
  }
  return n;
}

// --- execution --------------------------------------------------------------

namespace fused {
namespace {

void run_steps(const Loop& loop, ExecState& st, std::int64_t base,
               std::int64_t n) {
  for (const Step& s : loop.steps) {
    s.fn(s, st, base, n);
  }
}

void exec_loop(const Loop& loop, const HloModule& m, ExecState& st,
               FusedExecutable::RunResult& res) {
  const HloInstruction& in = m.at(loop.root);
  const auto root = static_cast<std::size_t>(loop.root);
  Literal out;

  switch (loop.kind) {
    case LoopKind::kMap: {
      out = Literal(in.shape, in.dtype);
      for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
        const std::int64_t nb = std::min(kBlock, loop.domain - base);
        run_steps(loop, st, base, nb);
        const auto vr = static_cast<std::size_t>(loop.value_reg);
        switch (loop.dtype) {
          case DType::kF64:
            std::copy_n(st.f64[vr].data(), nb, out.f64().data() + base);
            break;
          case DType::kI64:
            std::copy_n(st.i64[vr].data(), nb, out.i64().data() + base);
            break;
          case DType::kPred:
            std::copy_n(st.pred[vr].data(), nb, out.pred().data() + base);
            break;
        }
      }
      break;
    }
    case LoopKind::kReduceSumFull: {
      out = Literal(Shape{}, in.dtype);
      const auto vr = static_cast<std::size_t>(loop.value_reg);
      if (loop.dtype == DType::kF64) {
        double s = 0.0;
        for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
          const std::int64_t nb = std::min(kBlock, loop.domain - base);
          run_steps(loop, st, base, nb);
          const double* v = st.f64[vr].data();
          for (std::int64_t k = 0; k < nb; ++k) s += v[k];
        }
        out.f64()[0] = s;
      } else {
        std::int64_t s = 0;
        for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
          const std::int64_t nb = std::min(kBlock, loop.domain - base);
          run_steps(loop, st, base, nb);
          const std::int64_t* v = st.i64[vr].data();
          for (std::int64_t k = 0; k < nb; ++k) s += v[k];
        }
        out.i64()[0] = s;
      }
      break;
    }
    case LoopKind::kReduceSumRows: {
      out = Literal(in.shape, in.dtype);
      const auto vr = static_cast<std::size_t>(loop.value_reg);
      for (std::int64_t r = 0; r < loop.rows; ++r) {
        if (loop.dtype == DType::kF64) {
          double s = 0.0;
          for (std::int64_t c0 = 0; c0 < loop.cols; c0 += kBlock) {
            const std::int64_t nb = std::min(kBlock, loop.cols - c0);
            run_steps(loop, st, r * loop.cols + c0, nb);
            const double* v = st.f64[vr].data();
            for (std::int64_t k = 0; k < nb; ++k) s += v[k];
          }
          out.f64()[static_cast<std::size_t>(r)] = s;
        } else {
          std::int64_t s = 0;
          for (std::int64_t c0 = 0; c0 < loop.cols; c0 += kBlock) {
            const std::int64_t nb = std::min(kBlock, loop.cols - c0);
            run_steps(loop, st, r * loop.cols + c0, nb);
            const std::int64_t* v = st.i64[vr].data();
            for (std::int64_t k = 0; k < nb; ++k) s += v[k];
          }
          out.i64()[static_cast<std::size_t>(r)] = s;
        }
      }
      break;
    }
    case LoopKind::kReduceMax: {
      out = Literal(Shape{}, in.dtype);
      const auto vr = static_cast<std::size_t>(loop.value_reg);
      if (loop.dtype == DType::kF64) {
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
          const std::int64_t nb = std::min(kBlock, loop.domain - base);
          run_steps(loop, st, base, nb);
          const double* v = st.f64[vr].data();
          for (std::int64_t k = 0; k < nb; ++k) mx = std::max(mx, v[k]);
        }
        out.f64()[0] = mx;
      } else {
        std::int64_t mx = std::numeric_limits<std::int64_t>::min();
        for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
          const std::int64_t nb = std::min(kBlock, loop.domain - base);
          run_steps(loop, st, base, nb);
          const std::int64_t* v = st.i64[vr].data();
          for (std::int64_t k = 0; k < nb; ++k) mx = std::max(mx, v[k]);
        }
        out.i64()[0] = mx;
      }
      break;
    }
    case LoopKind::kDot: {
      out = Literal(Shape{}, DType::kF64);
      const auto va = static_cast<std::size_t>(loop.value_reg);
      const auto vb = static_cast<std::size_t>(loop.value_reg2);
      double s = 0.0;
      for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
        const std::int64_t nb = std::min(kBlock, loop.domain - base);
        run_steps(loop, st, base, nb);
        const double* a = st.f64[va].data();
        const double* b = st.f64[vb].data();
        for (std::int64_t k = 0; k < nb; ++k) s += a[k] * b[k];
      }
      out.f64()[0] = s;
      break;
    }
    case LoopKind::kScatter: {
      // Same order as eval.cpp: copy the base, then apply updates in
      // ascending index order, dropping out-of-range lanes.  A dead base
      // needs no copy: nothing reads it again, so update it in place.
      const auto b = static_cast<std::size_t>(loop.base_slot);
      if (loop.base_dead) {
        out = std::move(res.owned[b]);
        res.vals[b] = nullptr;
      } else {
        out = *(*st.vals)[b];
      }
      const auto idxs =
          (*st.vals)[static_cast<std::size_t>(loop.idx_slot)]->i64();
      const std::int64_t t = out.num_elements();
      const auto vr = static_cast<std::size_t>(loop.value_reg);
      for (std::int64_t base = 0; base < loop.domain; base += kBlock) {
        const std::int64_t nb = std::min(kBlock, loop.domain - base);
        run_steps(loop, st, base, nb);
        if (loop.dtype == DType::kF64) {
          const double* upd = st.f64[vr].data();
          auto dst = out.f64();
          for (std::int64_t k = 0; k < nb; ++k) {
            const std::int64_t j =
                idxs[static_cast<std::size_t>(base + k)];
            if (j < 0 || j >= t) continue;
            if (loop.scatter_set) {
              dst[static_cast<std::size_t>(j)] = upd[k];
            } else {
              dst[static_cast<std::size_t>(j)] += upd[k];
            }
          }
        } else {
          const std::int64_t* upd = st.i64[vr].data();
          auto dst = out.i64();
          for (std::int64_t k = 0; k < nb; ++k) {
            const std::int64_t j =
                idxs[static_cast<std::size_t>(base + k)];
            if (j < 0 || j >= t) continue;
            if (loop.scatter_set) {
              dst[static_cast<std::size_t>(j)] = upd[k];
            } else {
              dst[static_cast<std::size_t>(j)] += upd[k];
            }
          }
        }
      }
      break;
    }
  }

  res.owned[root] = std::move(out);
  res.vals[root] = &res.owned[root];
}

}  // namespace
}  // namespace fused

FusedExecutable::RunResult FusedExecutable::run(
    const HloModule& m, std::span<const Literal> args) const {
  using namespace fused;
  RunResult res;
  const std::size_t n = m.size();
  res.owned.resize(n);
  res.vals.assign(n, nullptr);
  for (std::size_t p = 0; p < m.params.size(); ++p) {
    res.vals[static_cast<std::size_t>(m.params[p])] = &args[p];
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (m.instructions[i].opcode == Opcode::kConstant) {
      res.vals[i] = &*m.instructions[i].literal;
    }
  }

  ExecState st;
  st.f64.assign(static_cast<std::size_t>(max_f64_),
                std::vector<double>(static_cast<std::size_t>(kBlock)));
  st.i64.assign(static_cast<std::size_t>(max_i64_),
                std::vector<std::int64_t>(static_cast<std::size_t>(kBlock)));
  st.pred.assign(static_cast<std::size_t>(max_pred_),
                 std::vector<std::uint8_t>(static_cast<std::size_t>(kBlock)));
  st.vals = &res.vals;

  for (const auto& loop : loops_) {
    exec_loop(loop, m, st, res);
  }
  return res;
}

std::vector<Literal> execute_compiled(const Compiled& compiled,
                                      std::span<const Literal> args,
                                      ExecutionReport* report) {
  const HloModule& m = compiled.module;
  detail::validate_args(m, args);
  if (!compiled.fused) {
    compiled.fused = FusedExecutable::lower(compiled);
  }
  auto res = compiled.fused->run(m, args);

  if (report != nullptr) {
    *report = detail::build_report(
        compiled, [&res, &m](InstrId scatter) {
          const auto idx = m.at(scatter).operands[1];
          return res.vals[static_cast<std::size_t>(idx)]->i64();
        });
  }

  // The report has read the scatter indices, so computed roots can move
  // out.  Params and constants are copied (a borrowed argument becomes
  // owned), and so is every listing of a root but its last.
  std::vector<Literal> outputs;
  outputs.reserve(m.roots.size());
  for (auto it = m.roots.begin(); it != m.roots.end(); ++it) {
    const auto r = static_cast<std::size_t>(*it);
    const bool owned = res.vals[r] == &res.owned[r];
    if (owned && std::find(it + 1, m.roots.end(), *it) == m.roots.end()) {
      outputs.push_back(std::move(res.owned[r]));
    } else {
      outputs.push_back(*res.vals[r]);
    }
  }
  return outputs;
}

}  // namespace toast::xla
