#pragma once

// Value types for the mini-XLA: dtypes, shapes and literals (host buffers).
//
// The real XLA supports many dtypes and ranks; the TOAST kernels need F64
// timestreams, I64 indices and boolean masks, with arrays of rank 0-2.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

namespace toast::xla {

enum class DType : std::uint8_t { kF64, kI64, kPred };

const char* to_string(DType d);
std::size_t dtype_size(DType d);

/// Array extents; rank 0 (scalar) through rank 2.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) { check(); }
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
    check();
  }

  int rank() const { return static_cast<int>(dims_.size()); }
  std::int64_t dim(int i) const { return dims_.at(static_cast<size_t>(i)); }
  const std::vector<std::int64_t>& dims() const { return dims_; }

  std::int64_t num_elements() const {
    std::int64_t n = 1;
    for (const auto d : dims_) n *= d;
    return n;
  }

  bool operator==(const Shape& o) const { return dims_ == o.dims_; }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  std::string to_string() const;

 private:
  void check() const {
    if (dims_.size() > 2) {
      throw std::invalid_argument("xla: only rank 0-2 shapes supported");
    }
    for (const auto d : dims_) {
      if (d < 0) throw std::invalid_argument("xla: negative dimension");
    }
  }
  std::vector<std::int64_t> dims_;
};

/// A concrete array value: shape + dtype + host storage.
///
/// The storage is either owned or a borrowed read-only view of caller
/// memory (borrow_f64 / borrow_i64), which is how kernel arguments cross
/// the call boundary without a copy.  Const access to a borrowed literal
/// aliases the caller's buffer; copying it, or taking mutable access,
/// first makes an owned deep copy, so nothing can write through to the
/// caller.  The caller's buffer must outlive every read of the view.
class Literal {
 public:
  Literal() : dtype_(DType::kF64) {}
  Literal(Shape shape, DType dtype);

  Literal(const Literal& o);
  Literal& operator=(const Literal& o);
  Literal(Literal&& o) noexcept;
  Literal& operator=(Literal&& o) noexcept;

  static Literal scalar_f64(double v);
  static Literal scalar_i64(std::int64_t v);
  static Literal scalar_pred(bool v);
  static Literal from_f64(Shape shape, std::span<const double> data);
  static Literal from_i64(Shape shape, std::span<const std::int64_t> data);
  static Literal borrow_f64(Shape shape, const double* data);
  static Literal borrow_i64(Shape shape, const std::int64_t* data);

  bool borrowed() const { return view_ != nullptr; }

  const Shape& shape() const { return shape_; }
  DType dtype() const { return dtype_; }
  std::int64_t num_elements() const { return shape_.num_elements(); }
  std::size_t byte_size() const {
    return static_cast<std::size_t>(num_elements()) * dtype_size(dtype_);
  }

  std::span<double> f64();
  std::span<const double> f64() const;
  std::span<std::int64_t> i64();
  std::span<const std::int64_t> i64() const;
  std::span<std::uint8_t> pred();
  std::span<const std::uint8_t> pred() const;

  /// Element as double regardless of dtype (for folding and tests).
  double as_double(std::int64_t i) const;

 private:
  template <typename T>
  std::span<const T> read() const;
  template <typename T>
  std::span<T> write();

  Shape shape_;
  DType dtype_;
  // The alternative always names the dtype; a borrowed literal keeps it
  // empty and reads through view_ instead.
  std::variant<std::vector<double>, std::vector<std::int64_t>,
               std::vector<std::uint8_t>>
      data_;
  const void* view_ = nullptr;
};

}  // namespace toast::xla
