#include "xla/types.hpp"

#include <sstream>
#include <type_traits>
#include <utility>

namespace toast::xla {

const char* to_string(DType d) {
  switch (d) {
    case DType::kF64:
      return "f64";
    case DType::kI64:
      return "i64";
    case DType::kPred:
      return "pred";
  }
  return "?";
}

std::size_t dtype_size(DType d) {
  switch (d) {
    case DType::kF64:
      return 8;
    case DType::kI64:
      return 8;
    case DType::kPred:
      return 1;
  }
  return 0;
}

std::string Shape::to_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i > 0) out << ",";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

Literal::Literal(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype) {
  const auto n = static_cast<std::size_t>(shape_.num_elements());
  switch (dtype_) {
    case DType::kF64:
      data_ = std::vector<double>(n, 0.0);
      break;
    case DType::kI64:
      data_ = std::vector<std::int64_t>(n, 0);
      break;
    case DType::kPred:
      data_ = std::vector<std::uint8_t>(n, 0);
      break;
  }
}

Literal Literal::scalar_f64(double v) {
  Literal l(Shape{}, DType::kF64);
  l.f64()[0] = v;
  return l;
}

Literal Literal::scalar_i64(std::int64_t v) {
  Literal l(Shape{}, DType::kI64);
  l.i64()[0] = v;
  return l;
}

Literal Literal::scalar_pred(bool v) {
  Literal l(Shape{}, DType::kPred);
  l.pred()[0] = v ? 1 : 0;
  return l;
}

template <typename T>
std::span<const T> Literal::read() const {
  const auto& v = std::get<std::vector<T>>(data_);  // throws on dtype
  if (view_ != nullptr) {
    return {static_cast<const T*>(view_),
            static_cast<std::size_t>(num_elements())};
  }
  return v;
}

template <typename T>
std::span<T> Literal::write() {
  auto& v = std::get<std::vector<T>>(data_);
  if (view_ != nullptr) {
    const T* p = static_cast<const T*>(view_);
    v.assign(p, p + num_elements());
    view_ = nullptr;
  }
  return v;
}

Literal::Literal(const Literal& o)
    : shape_(o.shape_), dtype_(o.dtype_), data_(o.data_) {
  if (o.view_ != nullptr) {
    // A copy is owned: deep-copy the view into the (empty) alternative.
    std::visit(
        [&o](auto& v) {
          using T = typename std::decay_t<decltype(v)>::value_type;
          const auto src = o.read<T>();
          v.assign(src.begin(), src.end());
        },
        data_);
  }
}

Literal& Literal::operator=(const Literal& o) {
  if (this != &o) {
    *this = Literal(o);
  }
  return *this;
}

Literal::Literal(Literal&& o) noexcept
    : shape_(std::move(o.shape_)),
      dtype_(o.dtype_),
      data_(std::move(o.data_)),
      view_(std::exchange(o.view_, nullptr)) {}

Literal& Literal::operator=(Literal&& o) noexcept {
  shape_ = std::move(o.shape_);
  dtype_ = o.dtype_;
  data_ = std::move(o.data_);
  view_ = std::exchange(o.view_, nullptr);
  return *this;
}

Literal Literal::borrow_f64(Shape shape, const double* data) {
  Literal l;
  l.shape_ = std::move(shape);
  l.dtype_ = DType::kF64;
  l.data_ = std::vector<double>();
  l.view_ = data;
  return l;
}

Literal Literal::borrow_i64(Shape shape, const std::int64_t* data) {
  Literal l;
  l.shape_ = std::move(shape);
  l.dtype_ = DType::kI64;
  l.data_ = std::vector<std::int64_t>();
  l.view_ = data;
  return l;
}

Literal Literal::from_f64(Shape shape, std::span<const double> data) {
  if (static_cast<std::int64_t>(data.size()) != shape.num_elements()) {
    throw std::invalid_argument("Literal::from_f64: size mismatch");
  }
  Literal l;
  l.shape_ = std::move(shape);
  l.dtype_ = DType::kF64;
  l.data_ = std::vector<double>(data.begin(), data.end());
  return l;
}

Literal Literal::from_i64(Shape shape, std::span<const std::int64_t> data) {
  if (static_cast<std::int64_t>(data.size()) != shape.num_elements()) {
    throw std::invalid_argument("Literal::from_i64: size mismatch");
  }
  Literal l;
  l.shape_ = std::move(shape);
  l.dtype_ = DType::kI64;
  l.data_ = std::vector<std::int64_t>(data.begin(), data.end());
  return l;
}

std::span<double> Literal::f64() { return write<double>(); }
std::span<const double> Literal::f64() const { return read<double>(); }
std::span<std::int64_t> Literal::i64() { return write<std::int64_t>(); }
std::span<const std::int64_t> Literal::i64() const {
  return read<std::int64_t>();
}
std::span<std::uint8_t> Literal::pred() { return write<std::uint8_t>(); }
std::span<const std::uint8_t> Literal::pred() const {
  return read<std::uint8_t>();
}

double Literal::as_double(std::int64_t i) const {
  const auto idx = static_cast<std::size_t>(i);
  switch (dtype_) {
    case DType::kF64:
      return f64()[idx];
    case DType::kI64:
      return static_cast<double>(i64()[idx]);
    case DType::kPred:
      return static_cast<double>(pred()[idx]);
  }
  return 0.0;
}

}  // namespace toast::xla
