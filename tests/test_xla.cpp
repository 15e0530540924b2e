// Tests for the mini-XLA: tracing, op semantics through jit, optimization
// passes, fusion grouping and the execution cost model.

#include "xla/jit.hpp"
#include "xla/passes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "xla/compiled.hpp"

namespace xla = toast::xla;
namespace accel = toast::accel;
using xla::Array;
using xla::DType;
using xla::Literal;
using xla::Shape;

namespace {

struct Fixture {
  accel::SimDevice device;
  accel::VirtualClock clock;
  toast::obs::Tracer tracer{&clock};
  xla::Runtime rt{device, clock, tracer};
};

Literal vec(std::initializer_list<double> values) {
  std::vector<double> v(values);
  return Literal::from_f64(Shape{static_cast<std::int64_t>(v.size())}, v);
}

Literal ivec(std::initializer_list<std::int64_t> values) {
  std::vector<std::int64_t> v(values);
  return Literal::from_i64(Shape{static_cast<std::int64_t>(v.size())}, v);
}

}  // namespace

TEST(XlaTrace, OpsOutsideJitThrow) {
  EXPECT_THROW(xla::constant(1.0), std::logic_error);
}

TEST(XlaJit, BasicArithmetic) {
  Fixture f;
  xla::Jit fn("axpy", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 2.0 + in[1]};
  });
  const auto out = fn.call(f.rt, {vec({1.0, 2.0, 3.0}), vec({10.0, 20.0, 30.0})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 12.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 24.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[2], 36.0);
}

TEST(XlaJit, TranscendentalOps) {
  Fixture f;
  xla::Jit fn("trig", [](const std::vector<Array>& in) {
    const Array s = xla::sin(in[0]);
    const Array c = xla::cos(in[0]);
    return std::vector<Array>{s * s + c * c, xla::atan2(s, c)};
  });
  const auto out = fn.call(f.rt, {vec({0.3, 1.2, -2.0})});
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(out[0].f64()[i], 1.0, 1e-15);
  }
  EXPECT_NEAR(out[1].f64()[0], 0.3, 1e-12);
  EXPECT_NEAR(out[1].f64()[2], -2.0, 1e-12);
}

TEST(XlaJit, SelectComparison) {
  Fixture f;
  xla::Jit fn("relu", [](const std::vector<Array>& in) {
    return std::vector<Array>{
        xla::select(xla::gt(in[0], xla::constant(0.0)), in[0],
                    xla::constant(0.0))};
  });
  const auto out = fn.call(f.rt, {vec({-1.0, 2.0, -3.0, 4.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 0.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 2.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[3], 4.0);
}

TEST(XlaJit, IntegerBitOps) {
  Fixture f;
  xla::Jit fn("bits", [](const std::vector<Array>& in) {
    const Array two = xla::constant_i64(2);
    return std::vector<Array>{
        xla::bitwise_or(xla::shift_left(in[0], two), xla::constant_i64(1)),
        xla::bitwise_and(in[0], xla::constant_i64(3))};
  });
  const auto out = fn.call(f.rt, {ivec({1, 2, 7})});
  EXPECT_EQ(out[0].i64()[0], 5);
  EXPECT_EQ(out[0].i64()[2], 29);
  EXPECT_EQ(out[1].i64()[2], 3);
}

TEST(XlaJit, CastAndFloor) {
  Fixture f;
  xla::Jit fn("cast", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::to_i64(xla::floor(in[0])),
                              xla::to_f64(xla::to_i64(xla::floor(in[0])))};
  });
  const auto out = fn.call(f.rt, {vec({1.7, -0.2, 3.0})});
  EXPECT_EQ(out[0].i64()[0], 1);
  EXPECT_EQ(out[0].i64()[1], -1);
  EXPECT_EQ(out[0].i64()[2], 3);
  EXPECT_DOUBLE_EQ(out[1].f64()[1], -1.0);
}

TEST(XlaJit, BroadcastAndSlice) {
  Fixture f;
  xla::Jit fn("bc", [](const std::vector<Array>& in) {
    const Array m = xla::broadcast_col(in[0], 3);   // [2,3]
    const Array r = xla::broadcast_row(in[1], 2);   // [2,3]
    const Array sum = m + r;
    return std::vector<Array>{xla::slice_col(sum, 0),
                              xla::reduce_sum(sum, 1)};
  });
  const auto out =
      fn.call(f.rt, {vec({10.0, 20.0}), vec({1.0, 2.0, 3.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 11.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 21.0);
  EXPECT_DOUBLE_EQ(out[1].f64()[0], 36.0);  // 11+12+13
  EXPECT_DOUBLE_EQ(out[1].f64()[1], 66.0);  // 21+22+23
}

TEST(XlaJit, GatherClampsOutOfRange) {
  Fixture f;
  xla::Jit fn("g", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::gather(in[0], in[1])};
  });
  const auto out =
      fn.call(f.rt, {vec({10.0, 20.0, 30.0}), ivec({0, 2, 5, -3})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 10.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 30.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[2], 30.0);  // clamped high
  EXPECT_DOUBLE_EQ(out[0].f64()[3], 10.0);  // clamped low
}

TEST(XlaJit, ScatterAddDropsOutOfRange) {
  Fixture f;
  xla::Jit fn("s", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  const auto out = fn.call(
      f.rt, {vec({0.0, 0.0, 0.0}), ivec({0, 1, 1, 7}), vec({1.0, 2.0, 3.0, 99.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 1.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[1], 5.0);
  EXPECT_DOUBLE_EQ(out[0].f64()[2], 0.0);
}

TEST(XlaJit, IotaAndReduce) {
  Fixture f;
  xla::Jit fn("i", [](const std::vector<Array>&) {
    const Array idx = xla::iota(10);
    return std::vector<Array>{xla::reduce_sum(xla::to_f64(idx))};
  });
  const auto out = fn.call(f.rt, {});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 45.0);
}

TEST(XlaJit, DotMatchesManualSum) {
  Fixture f;
  xla::Jit fn("d", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::dot(in[0], in[1])};
  });
  const auto out =
      fn.call(f.rt, {vec({1.0, 2.0, 3.0}), vec({4.0, 5.0, 6.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 32.0);
}

TEST(XlaJit, CacheHitsPerSignature) {
  Fixture f;
  xla::Jit fn("c", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + 1.0};
  });
  fn.call(f.rt, {vec({1.0, 2.0})});
  EXPECT_EQ(fn.cache_size(), 1u);
  fn.call(f.rt, {vec({3.0, 4.0})});  // same shape: cache hit
  EXPECT_EQ(fn.cache_size(), 1u);
  fn.call(f.rt, {vec({1.0, 2.0, 3.0})});  // new shape: retrace
  EXPECT_EQ(fn.cache_size(), 2u);
  fn.call(f.rt, {vec({1.0, 2.0})}, "pad=7");  // static arg: retrace
  EXPECT_EQ(fn.cache_size(), 3u);
}

TEST(XlaJit, CompileChargedOncePerSignature) {
  Fixture f;
  xla::Jit fn("c", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 3.0};
  });
  fn.call(f.rt, {vec({1.0})});
  const double t_compile = f.tracer.seconds("jit_compile");
  EXPECT_GT(t_compile, 0.0);
  fn.call(f.rt, {vec({2.0})});
  EXPECT_DOUBLE_EQ(f.tracer.seconds("jit_compile"), t_compile);
  EXPECT_EQ(f.tracer.calls("c"), 2);
}

TEST(XlaJit, ArgumentValidation) {
  Fixture f;
  // Too few arguments: the traced body touches a parameter that does not
  // exist, which surfaces as a trace-time error (like JAX's arity errors).
  xla::Jit fn("v", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + in.at(1)};
  });
  EXPECT_THROW(fn.call(f.rt, {vec({1.0})}), std::exception);
  // Wrong shape on a later call against a cached signature is fine (it
  // retraces); wrong shape against the *module* is caught by execute().
  xla::Jit ok("ok", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + 1.0};
  });
  const auto out = ok.call(f.rt, {vec({1.0, 2.0})});
  EXPECT_EQ(out[0].num_elements(), 2);
}

TEST(XlaPasses, ConstantFolding) {
  Fixture f;
  xla::Jit fn("fold", [](const std::vector<Array>& in) {
    // 2*3+4 should fold to a single constant.
    const Array c = xla::constant(2.0) * xla::constant(3.0) + xla::constant(4.0);
    return std::vector<Array>{in[0] + c};
  });
  fn.call(f.rt, {vec({1.0})});
  const auto* compiled = fn.lookup({vec({1.0})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->pass_stats.folded, 2);
}

TEST(XlaPasses, CseMergesDuplicates) {
  Fixture f;
  xla::Jit fn("cse", [](const std::vector<Array>& in) {
    const Array a = xla::sin(in[0]);
    const Array b = xla::sin(in[0]);  // duplicate
    return std::vector<Array>{a + b};
  });
  fn.call(f.rt, {vec({0.5})});
  const auto* compiled = fn.lookup({vec({0.5})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->pass_stats.cse_removed, 1);
}

TEST(XlaPasses, DceRemovesUnusedWork) {
  Fixture f;
  xla::Jit fn("dce", [](const std::vector<Array>& in) {
    [[maybe_unused]] const Array dead = xla::exp(in[0]) * 7.0;
    return std::vector<Array>{in[0] + 1.0};
  });
  fn.call(f.rt, {vec({0.5})});
  const auto* compiled = fn.lookup({vec({0.5})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_GE(compiled->pass_stats.dce_removed, 2);
}

TEST(XlaPasses, DotPatternRecognized) {
  Fixture f;
  xla::Jit fn("proj", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::reduce_sum(in[0] * in[1])};
  });
  const auto out =
      fn.call(f.rt, {vec({1.0, 2.0}), vec({3.0, 4.0})});
  EXPECT_DOUBLE_EQ(out[0].f64()[0], 11.0);
  const auto* compiled = fn.lookup({vec({1.0, 2.0}), vec({3.0, 4.0})});
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->pass_stats.dot_rewrites, 1);
}

TEST(XlaFusion, ElementwiseChainIsOneLaunch) {
  Fixture f;
  xla::Jit fn("chain", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::sqrt(xla::abs(in[0] * 2.0 + 1.0))};
  });
  xla::ExecutionReport report;
  fn.call_reported(f.rt, {vec({1.0, 2.0, 3.0, 4.0})}, "", report);
  int launches = 0;
  for (const auto& w : report.group_work) {
    if (w.launches > 0.0) ++launches;
  }
  EXPECT_EQ(launches, 1);
}

TEST(XlaFusion, HeavyOpsSplitLaunches) {
  Fixture f;
  // Gathers input-fuse; reduce/scatter close groups.
  xla::Jit fn("split", [](const std::vector<Array>& in) {
    const Array g = xla::gather(in[0], in[1]);      // fuses with consumers
    const Array e = g * 2.0 + 1.0;
    const Array r = xla::reduce_sum(e);             // closes launch 1
    return std::vector<Array>{r + 1.0};             // launch 2
  });
  xla::ExecutionReport report;
  fn.call_reported(f.rt, {vec({1.0, 2.0, 3.0}), ivec({0, 1, 2, 1})}, "",
                   report);
  int launches = 0;
  for (const auto& w : report.group_work) {
    if (w.launches > 0.0) ++launches;
  }
  EXPECT_EQ(launches, 2);
}

TEST(XlaFusion, FusionElidesIntermediateTraffic) {
  Fixture f;
  // One fused chain writes only the final output; the same chain split by
  // a reduce in the middle writes the intermediate too.
  xla::Jit fused("fused", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] * 2.0 + 3.0};
  });
  xla::ExecutionReport report;
  fused.call_reported(f.rt, {vec({1.0, 2.0, 3.0, 4.0})}, "", report);
  // Read one input vector (4 doubles = 32 B, constants are scalars),
  // write one output vector.
  EXPECT_DOUBLE_EQ(report.total.bytes_written, 32.0);
  EXPECT_LE(report.total.bytes_read, 32.0 + 16.0);
}

TEST(XlaScatter, SortedIndicesUseSegmentLowering) {
  Fixture f;
  xla::Jit fn("seg", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  xla::ExecutionReport report;
  fn.call_reported(
      f.rt,
      {vec({0.0, 0.0}), ivec({0, 0, 1, 1}), vec({1.0, 1.0, 1.0, 1.0})}, "",
      report);
  EXPECT_TRUE(report.segment_lowering_used);
  EXPECT_DOUBLE_EQ(report.total.atomic_ops, 0.0);
}

TEST(XlaScatter, UnsortedIndicesPayAtomics) {
  Fixture f;
  xla::Jit fn("atom", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[2])};
  });
  xla::ExecutionReport report;
  fn.call_reported(
      f.rt,
      {vec({0.0, 0.0}), ivec({1, 0, 1, 0}), vec({1.0, 1.0, 1.0, 1.0})}, "",
      report);
  EXPECT_FALSE(report.segment_lowering_used);
  EXPECT_DOUBLE_EQ(report.total.atomic_ops, 4.0);
  EXPECT_NEAR(report.total.atomic_conflict_rate, 0.5, 1e-12);
}

TEST(XlaRuntime, PreallocationClaimsDeviceMemory) {
  Fixture f;
  EXPECT_EQ(f.device.allocated_bytes(), 0u);
  f.rt.enable_preallocation(0.5);
  EXPECT_GT(f.device.allocated_bytes(),
            static_cast<std::size_t>(0.4 * f.device.spec().memory_bytes));
  f.rt.disable_preallocation();
  EXPECT_EQ(f.device.allocated_bytes(), 0u);
}

TEST(XlaRuntime, PreallocationPoolCoversTemporaries) {
  Fixture f;
  f.rt.enable_preallocation(0.75);
  const std::size_t claimed = f.device.allocated_bytes();
  EXPECT_EQ(claimed, f.rt.pool_bytes());
  // Enabling twice is a no-op, not a second claim.
  f.rt.enable_preallocation(0.75);
  EXPECT_EQ(f.device.allocated_bytes(), claimed);
  // With the pool claimed, call temporaries come out of it: the device
  // allocator balance must not move.
  xla::Jit fn("pool", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::sqrt(in[0] * 2.0 + 1.0)};
  });
  fn.call(f.rt, {vec({1.0, 2.0, 3.0, 4.0})});
  EXPECT_EQ(f.device.allocated_bytes(), claimed);
  f.rt.disable_preallocation();
  EXPECT_EQ(f.device.allocated_bytes(), 0u);
  EXPECT_EQ(f.rt.pool_bytes(), 0u);
}

namespace {

/// Two independent reduce chains: four fusion groups, two dependency
/// edges, no edge between the chains.
xla::Jit independent_chains() {
  return xla::Jit("chains", [](const std::vector<Array>& in) {
    const Array r0 = xla::reduce_sum(in[0] * 2.0);
    const Array r1 = xla::reduce_sum(in[1] * 3.0);
    return std::vector<Array>{r0 + 1.0, r1 + 1.0};
  });
}

}  // namespace

TEST(XlaStreams, GroupDepsExposeTheFusionDag) {
  Fixture f;
  xla::Jit fn = independent_chains();
  xla::ExecutionReport report;
  fn.call_reported(f.rt, {vec({1.0, 2.0}), vec({3.0, 4.0})}, "", report);
  ASSERT_EQ(report.group_deps.size(), report.group_work.size());
  // The two reduce chains read only parameters (independent roots); the
  // fused +1.0 epilogue group reads both of their results.  Edges point
  // backwards, sorted and deduplicated.
  std::vector<int> roots;
  std::vector<int> dependents;
  for (std::size_t g = 0; g < report.group_deps.size(); ++g) {
    if (report.group_work[g].launches <= 0.0) {
      continue;
    }
    const auto& deps = report.group_deps[g];
    EXPECT_TRUE(std::is_sorted(deps.begin(), deps.end()));
    for (const int d : deps) {
      EXPECT_GE(d, 0);
      EXPECT_LT(d, static_cast<int>(g));
    }
    (deps.empty() ? roots : dependents).push_back(static_cast<int>(g));
  }
  EXPECT_EQ(roots.size(), 2u);
  ASSERT_EQ(dependents.size(), 1u);
  EXPECT_EQ(report.group_deps[static_cast<std::size_t>(dependents[0])],
            roots);
}

TEST(XlaStreams, OneStreamIsDeterministicAndMultiStreamNeverSlower) {
  // Elapsed time of a cached call (compile charged on the first one).
  const auto elapsed = [](int streams) {
    Fixture f;
    f.rt.set_streams(streams);
    xla::Jit fn = independent_chains();
    const std::vector<Literal> args = {vec({1.0, 2.0}), vec({3.0, 4.0})};
    fn.call(f.rt, args);
    const double t0 = f.clock.now();
    fn.call(f.rt, args);
    return f.clock.now() - t0;
  };
  const double serial = elapsed(1);
  // 1-stream runs are bit-for-bit repeatable (the seed timeline).
  EXPECT_EQ(serial, elapsed(1));
  // Independent chains on two streams pipeline their launch latency.
  const double overlapped = elapsed(2);
  EXPECT_LT(overlapped, serial);
  // More streams than independent work: no further change, never slower.
  EXPECT_LE(elapsed(4), serial);
}

TEST(XlaStreams, StreamCountIsClampedToOne) {
  Fixture f;
  EXPECT_EQ(f.rt.streams(), 1);
  f.rt.set_streams(0);
  EXPECT_EQ(f.rt.streams(), 1);
  f.rt.set_streams(-3);
  EXPECT_EQ(f.rt.streams(), 1);
  f.rt.set_streams(4);
  EXPECT_EQ(f.rt.streams(), 4);
}

TEST(XlaRuntime, DispatchOverheadCharged) {
  Fixture f;
  xla::Jit fn("o", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + 1.0};
  });
  fn.call(f.rt, {vec({1.0})});
  const double after_compile = f.tracer.seconds("o");
  EXPECT_GE(after_compile, f.rt.dispatch_overhead());
}

TEST(XlaRuntime, WorkScaleScalesKernelTime) {
  Fixture a;
  Fixture b;
  b.rt.set_work_scale(1e6);
  xla::Jit fn("w", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::sqrt(in[0]) * 2.0};
  });
  std::vector<double> big(4096, 2.0);
  const Literal arg = Literal::from_f64(Shape{4096}, big);
  fn.call(a.rt, {arg});
  fn.call(b.rt, {arg});
  EXPECT_GT(b.tracer.seconds("w"), a.tracer.seconds("w"));
}

TEST(XlaLiteral, TypedAccessAndValidation) {
  const Literal l = vec({1.0, 2.0});
  EXPECT_EQ(l.byte_size(), 16u);
  EXPECT_DOUBLE_EQ(l.as_double(1), 2.0);
  EXPECT_THROW(Literal::from_f64(Shape{3}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(Shape({1, 2, 3}), std::invalid_argument);
}

TEST(XlaLiteral, BorrowedArgumentsAreReadOnlyViews) {
  std::vector<double> buf = {1.0, -2.5, 3.25, 4.0};
  std::vector<std::int64_t> ibuf = {3, 0, 3, 7};
  const std::vector<double> buf0 = buf;
  const Literal b = Literal::borrow_f64(Shape{4}, buf.data());
  const Literal ib = Literal::borrow_i64(Shape{4}, ibuf.data());
  EXPECT_TRUE(b.borrowed());
  EXPECT_EQ(b.f64().data(), buf.data());  // const access aliases
  EXPECT_EQ(ib.i64().data(), ibuf.data());
  EXPECT_THROW(b.i64(), std::bad_variant_access);  // the dtype still holds
  EXPECT_EQ(b.byte_size(), 32u);

  // A copy is owned: different storage, equal bytes.
  const Literal copy = b;
  EXPECT_FALSE(copy.borrowed());
  EXPECT_NE(copy.f64().data(), buf.data());
  EXPECT_EQ(std::memcmp(copy.f64().data(), buf.data(), b.byte_size()), 0);

  // Mutable access detaches first; the caller's buffer is untouched.
  Literal m = b;
  m = b;  // copy assignment too
  Literal w = Literal::borrow_f64(Shape{4}, buf.data());
  w.f64()[0] = 99.0;
  EXPECT_FALSE(w.borrowed());
  EXPECT_EQ(w.f64()[0], 99.0);
  EXPECT_EQ(w.f64()[1], -2.5);
  EXPECT_EQ(std::memcmp(buf.data(), buf0.data(), sizeof(double) * 4), 0);

  // Moving keeps the view (no copy); the moved-from literal is not read.
  Literal moved = Literal::borrow_f64(Shape{4}, buf.data());
  const Literal to = std::move(moved);
  EXPECT_TRUE(to.borrowed());
  EXPECT_EQ(to.f64().data(), buf.data());

  // A scatter through the interpreter (which copies its params) leaves
  // the borrowed base and indices byte-identical.
  Fixture f;
  f.rt.set_executor(xla::ExecMode::kInterpreted);
  xla::Jit fn("borrowed_scatter", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::scatter_add(in[0], in[1], in[0] * 2.0)};
  });
  const auto out = fn.call(f.rt, {b, ib});
  EXPECT_EQ(std::memcmp(buf.data(), buf0.data(), sizeof(double) * 4), 0);
  EXPECT_EQ(ibuf, (std::vector<std::int64_t>{3, 0, 3, 7}));
  EXPECT_EQ(out[0].f64()[3], 4.0 + 2.0 * 1.0 + 2.0 * 3.25);
}

// ---------------------------------------------------------------------------
// Fused-loop executor (xla/compiled.hpp): the interpreter is the oracle.
// ---------------------------------------------------------------------------

namespace {

void expect_literal_bits(const Literal& a, const Literal& b) {
  ASSERT_EQ(a.dtype(), b.dtype());
  ASSERT_TRUE(a.shape() == b.shape());
  switch (a.dtype()) {
    case DType::kF64:
      ASSERT_EQ(std::memcmp(a.f64().data(), b.f64().data(), a.byte_size()),
                0);
      break;
    case DType::kI64:
      ASSERT_EQ(std::memcmp(a.i64().data(), b.i64().data(), a.byte_size()),
                0);
      break;
    case DType::kPred:
      ASSERT_EQ(std::memcmp(a.pred().data(), b.pred().data(), a.byte_size()),
                0);
      break;
  }
}

void expect_report_equal(const xla::ExecutionReport& a,
                         const xla::ExecutionReport& b) {
  EXPECT_EQ(a.peak_temp_bytes, b.peak_temp_bytes);
  EXPECT_EQ(a.segment_lowering_used, b.segment_lowering_used);
  EXPECT_EQ(a.group_heavy, b.group_heavy);
  EXPECT_EQ(a.group_deps, b.group_deps);
  ASSERT_EQ(a.group_work.size(), b.group_work.size());
  const auto expect_work_equal = [](const accel::WorkEstimate& x,
                                    const accel::WorkEstimate& y) {
    EXPECT_EQ(x.flops, y.flops);
    EXPECT_EQ(x.bytes_read, y.bytes_read);
    EXPECT_EQ(x.bytes_written, y.bytes_written);
    EXPECT_EQ(x.launches, y.launches);
    EXPECT_EQ(x.parallel_items, y.parallel_items);
    EXPECT_EQ(x.divergence, y.divergence);
    EXPECT_EQ(x.atomic_ops, y.atomic_ops);
    EXPECT_EQ(x.atomic_conflict_rate, y.atomic_conflict_rate);
    EXPECT_EQ(x.cpu_vector_eff, y.cpu_vector_eff);
  };
  for (std::size_t g = 0; g < a.group_work.size(); ++g) {
    expect_work_equal(a.group_work[g], b.group_work[g]);
  }
  expect_work_equal(a.total, b.total);
}

/// Run the module both ways and require bitwise-identical products and
/// bitwise-identical ExecutionReports.
void expect_bitwise_parity(xla::Jit& fn, const std::vector<Literal>& args) {
  Fixture f;
  fn.call(f.rt, args);
  const auto* compiled = fn.lookup(args);
  ASSERT_NE(compiled, nullptr);
  xla::ExecutionReport ri;
  xla::ExecutionReport rc;
  const auto oi = xla::execute(*compiled, args, &ri);
  const auto oc = xla::execute_compiled(*compiled, args, &rc);
  ASSERT_EQ(oi.size(), oc.size());
  for (std::size_t k = 0; k < oi.size(); ++k) {
    expect_literal_bits(oi[k], oc[k]);
  }
  expect_report_equal(ri, rc);
}

}  // namespace

TEST(XlaCompiled, ParityElementwiseChain) {
  xla::Jit fn("chain", [](const std::vector<Array>& in) {
    const Array t = xla::sqrt(xla::abs(in[0] * 2.0 + 1.0));
    return std::vector<Array>{xla::sin(t) * xla::cos(t) + xla::tanh(t),
                              xla::atan2(t, in[0]) - xla::exp(-t)};
  });
  expect_bitwise_parity(fn, {vec({0.3, -1.7, 2.9, 4.2, -0.01})});
}

TEST(XlaCompiled, ParityBroadcastSliceReduce) {
  xla::Jit fn("bc", [](const std::vector<Array>& in) {
    const Array m = xla::broadcast_col(in[0], 3) + xla::broadcast_row(in[1], 2);
    return std::vector<Array>{xla::slice_col(m, 1), xla::reduce_sum(m, 1),
                              xla::reduce_sum(m), xla::reduce_max(m)};
  });
  expect_bitwise_parity(fn, {vec({10.0, 20.0}), vec({1.0, 2.0, 3.0})});
}

TEST(XlaCompiled, ParityGatherScatter) {
  xla::Jit fn("gs", [](const std::vector<Array>& in) {
    const Array g = xla::gather(in[0], in[1]) * 2.0;
    return std::vector<Array>{xla::scatter_add(in[0], in[1], g),
                              xla::scatter_set(in[0], in[1], g)};
  });
  // Unsorted indices with out-of-range lanes: atomics path + dropped lanes.
  expect_bitwise_parity(
      fn, {vec({1.0, 2.0, 3.0, 4.0}), ivec({2, 0, 2, 9, -1, 1})});
  // Sorted indices: segment-reduction path.
  expect_bitwise_parity(
      fn, {vec({1.0, 2.0, 3.0, 4.0}), ivec({0, 0, 1, 2, 3, 3})});
}

TEST(XlaCompiled, ParityIntegerAndPredOps) {
  xla::Jit fn("bits", [](const std::vector<Array>& in) {
    const Array two = xla::constant_i64(2);
    const Array p = xla::lt(in[0], xla::constant_i64(5));
    const Array q = xla::ge(in[0], xla::constant_i64(0));
    return std::vector<Array>{
        xla::bitwise_xor(xla::shift_left(in[0], two),
                         xla::shift_right(in[0], xla::constant_i64(1))),
        xla::select(xla::logical_and(p, xla::logical_not(q)),
                    in[0] + xla::constant_i64(100), xla::mod(in[0], two)),
        xla::to_f64(xla::logical_or(p, q))};
  });
  expect_bitwise_parity(fn, {ivec({1, -3, 7, 0, 12, -8})});
}

TEST(XlaCompiled, ParityIotaCastClampSign) {
  xla::Jit fn("misc", [](const std::vector<Array>& in) {
    const Array i = xla::iota(6);
    const Array f = xla::to_f64(i) - 2.5;
    return std::vector<Array>{
        xla::clamp(in[0], xla::constant(-1.0), xla::constant(1.0)),
        xla::sign(f) * xla::floor(xla::abs(f)),
        xla::to_i64(in[0] * 10.0) + i};
  });
  expect_bitwise_parity(fn, {vec({-2.0, -0.5, 0.0, 0.3, 1.7, 9.0})});
}

TEST(XlaCompiled, ParityDotAndScalarBroadcast) {
  xla::Jit fn("dotty", [](const std::vector<Array>& in) {
    // reduce_sum(a*b) is rewritten to dot; the scalar result then
    // broadcasts into the next elementwise group.
    const Array d = xla::reduce_sum(in[0] * in[1]);
    return std::vector<Array>{in[0] * d + xla::maximum(in[1], in[0]),
                              xla::minimum(in[0], in[1]) / d};
  });
  expect_bitwise_parity(
      fn, {vec({1.0, 2.0, 3.0, 4.0}), vec({0.5, -0.25, 8.0, 1.0 / 3.0})});
}

TEST(XlaCompiled, ParityLargeDomainCrossesBlocks) {
  // > 1024 elements so the blocked loop takes more than one pass, and an
  // odd size so the last block is partial.
  xla::Jit fn("big", [](const std::vector<Array>& in) {
    const Array t = in[0] * 1.0000001 + 0.5;
    return std::vector<Array>{xla::sqrt(xla::abs(t)),
                              xla::reduce_sum(t * t),
                              xla::reduce_max(t)};
  });
  std::vector<double> big(3000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = std::sin(static_cast<double>(i) * 0.7) * 100.0;
  }
  expect_bitwise_parity(
      fn, {Literal::from_f64(Shape{static_cast<std::int64_t>(big.size())},
                             big)});
}

TEST(XlaCompiled, ParamOnlyAndConstantOnlyRoots) {
  // Roots that are leaves (a parameter, a folded constant) produce no
  // loops at all; the executable just forwards the materialized values.
  xla::Jit fn("leaves", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0], xla::constant(2.0) * xla::constant(3.0)};
  });
  expect_bitwise_parity(fn, {vec({1.0, 2.0, 3.0})});
}

TEST(XlaCompiled, SingleOpGroup) {
  xla::Jit fn("one", [](const std::vector<Array>& in) {
    return std::vector<Array>{in[0] + in[1]};
  });
  expect_bitwise_parity(fn, {vec({1.0, 2.0}), vec({3.0, 4.0})});
}

TEST(XlaCompiled, FusedStatsExposedAndCached) {
  Fixture f;
  xla::Jit fn("stats", [](const std::vector<Array>& in) {
    return std::vector<Array>{xla::reduce_sum(xla::sqrt(in[0]) * 2.0 + 1.0)};
  });
  const std::vector<Literal> args = {vec({1.0, 4.0, 9.0})};
  f.rt.set_executor(xla::ExecMode::kInterpreted);  // the oracle never lowers
  fn.call(f.rt, args);
  const auto* compiled = fn.lookup(args);
  ASSERT_NE(compiled, nullptr);
  EXPECT_EQ(compiled->fused, nullptr);  // lowering is lazy
  xla::execute_compiled(*compiled, args);
  ASSERT_NE(compiled->fused, nullptr);
  const auto exe = compiled->fused;
  EXPECT_GE(exe->loop_count(), 1u);
  EXPECT_GE(exe->step_count(), exe->loop_count());
  EXPECT_GE(exe->materialized_count(), exe->loop_count());
  // The lowering runs once per Compiled; later calls reuse it.
  xla::execute_compiled(*compiled, args);
  EXPECT_EQ(compiled->fused, exe);
}

TEST(XlaCompiled, DtypeMixedModuleRaisesLoweringError) {
  // Hand-built module (the tracer cannot produce this): f64 + i64.  The
  // interpreter would die on it too; the fused lowering must reject it
  // with LoweringError so the Jit knows to fall back.
  xla::HloModule m;
  m.name = "mixed";
  xla::HloInstruction p0;
  p0.opcode = xla::Opcode::kParam;
  p0.dtype = DType::kF64;
  p0.shape = Shape{2};
  p0.i0 = 0;
  xla::HloInstruction p1;
  p1.opcode = xla::Opcode::kParam;
  p1.dtype = DType::kI64;
  p1.shape = Shape{2};
  p1.i0 = 1;
  xla::HloInstruction add;
  add.opcode = xla::Opcode::kAdd;
  add.dtype = DType::kF64;
  add.shape = Shape{2};
  add.operands = {0, 1};
  m.instructions = {p0, p1, add};
  m.params = {0, 1};
  m.roots = {2};
  const xla::Compiled compiled = xla::compile(std::move(m));
  const std::vector<Literal> args = {vec({1.0, 2.0}), ivec({3, 4})};
  EXPECT_THROW(xla::execute_compiled(compiled, args), xla::LoweringError);
  // Rejection must not poison the cache slot with a bad executable.
  EXPECT_EQ(compiled.fused, nullptr);
}

TEST(XlaCompiled, FallbackLeavesFaultCountersAlone) {
  // The dtype-mixed add above, traced through a Jit over empty arrays so
  // the interpreter can still run it: compiled mode falls back on every
  // call.  That is a host execution choice, so under an armed fault plan
  // the fault counters, products and clock must equal the interpreter
  // run's; the fallback shows up only in Jit::fallbacks().
  const auto plan = toast::fault::FaultPlan::parse(
      R"({"schema": "toastcase-fault-plan-v1", "seed": 11,
          "retry": {"max_attempts": 5},
          "rules": [{"kind": "launch", "probability": 1.0,
                     "max_fires": 2}]})");
  const auto run = [&](xla::ExecMode mode) {
    Fixture f;
    toast::fault::FaultInjector faults(plan, &f.clock, &f.tracer);
    f.rt.set_fault_injector(&faults);
    f.rt.set_executor(mode);
    xla::Jit fn("mixed", [](const std::vector<Array>& in) {
      return std::vector<Array>{in[0] + in[1]};
    });
    const std::vector<Literal> args = {
        Literal::from_f64(Shape{0}, std::vector<double>{}),
        Literal::from_i64(Shape{0}, std::vector<std::int64_t>{})};
    std::vector<Literal> out;
    for (int k = 0; k < 3; ++k) {
      out = fn.call(f.rt, args);
    }
    return std::make_tuple(std::move(out), faults.counters(), f.clock.now(),
                           fn.fallbacks());
  };
  const auto [oi, ci, ti, fi] = run(xla::ExecMode::kInterpreted);
  const auto [oc, cc, tc, fc] = run(xla::ExecMode::kCompiled);
  ASSERT_EQ(oi.size(), 1u);
  ASSERT_EQ(oc.size(), 1u);
  EXPECT_EQ(oc[0].dtype(), oi[0].dtype());
  EXPECT_TRUE(oc[0].shape() == oi[0].shape());
  EXPECT_FALSE(ci.empty());  // the plan really fired
  EXPECT_EQ(ci, cc);
  EXPECT_EQ(ti, tc);
  EXPECT_EQ(fi, 0u);
  EXPECT_EQ(fc, 3u);
}

TEST(XlaCompiled, JitCompiledModeMatchesInterpretedTimeline) {
  // End to end through the Jit: same products, same virtual clock, same
  // tracer totals — the executor mode must be invisible to the model.
  const auto run = [](xla::ExecMode mode) {
    Fixture f;
    f.rt.set_executor(mode);
    xla::Jit fn("e2e", [](const std::vector<Array>& in) {
      const Array g = xla::gather(in[0], in[1]) * 2.0 + 1.0;
      const Array r = xla::reduce_sum(g);
      return std::vector<Array>{xla::scatter_add(in[0], in[1], g + r)};
    });
    const std::vector<Literal> args = {vec({1.0, 2.0, 3.0}),
                                       ivec({2, 0, 1, 5})};
    auto out = fn.call(f.rt, args);
    out = fn.call(f.rt, args);  // cached-call timing too
    return std::make_tuple(std::move(out), f.clock.now(),
                           f.tracer.seconds("e2e"), f.tracer.calls("e2e"));
  };
  const auto [oi, ti, si, ci] = run(xla::ExecMode::kInterpreted);
  const auto [oc, tc, sc, cc] = run(xla::ExecMode::kCompiled);
  ASSERT_EQ(oi.size(), oc.size());
  for (std::size_t k = 0; k < oi.size(); ++k) {
    expect_literal_bits(oi[k], oc[k]);
  }
  EXPECT_EQ(ti, tc);
  EXPECT_EQ(si, sc);
  EXPECT_EQ(ci, cc);
}

namespace {

/// splitmix64: a pinned generator, so the sweep below is the same on every
/// standard library.
std::uint64_t next_u64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::int64_t draw(std::uint64_t& s, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  next_u64(s) % static_cast<std::uint64_t>(hi - lo + 1));
}

struct XRun {
  std::int64_t k, v, d, len;
};

std::vector<XRun> runs_of(const xla::fused::Xform& x, std::int64_t base,
                         std::int64_t n) {
  std::vector<XRun> out;
  xla::fused::for_each_run(
      x, base, n,
      [&](std::int64_t k, std::int64_t v, std::int64_t d, std::int64_t len) {
        out.push_back({k, v, d, len});
      });
  return out;
}

}  // namespace

TEST(XlaFused, RunWalkMatchesApplyXform) {
  using xla::fused::XKind;
  std::uint64_t seed = 16;
  for (int trial = 0; trial < 3000; ++trial) {
    xla::fused::Xform x;
    const std::int64_t chain = draw(seed, 0, 4);
    for (std::int64_t c = 0; c < chain; ++c) {
      const auto kind = static_cast<XKind>(draw(seed, 0, 3));
      if (kind == XKind::kMulAdd) {
        const std::int64_t a = draw(seed, 0, 9);
        x.push_back({kind, a, draw(seed, 0, 50)});
      } else if (kind == XKind::kZero) {
        x.push_back({kind, 0, 0});
      } else {
        x.push_back({kind, draw(seed, 1, 700), 0});
      }
    }
    const std::int64_t base = draw(seed, 0, 1000000);
    const std::int64_t n = draw(seed, 1, 1024);
    std::int64_t next = 0;
    for (const XRun& r : runs_of(x, base, n)) {
      ASSERT_EQ(r.k, next) << "trial " << trial;
      ASSERT_GE(r.len, 1) << "trial " << trial;
      for (std::int64_t j = 0; j < r.len; ++j) {
        ASSERT_EQ(r.v + j * r.d, xla::fused::apply_xform(x, base + r.k + j))
            << "trial " << trial << " k " << r.k + j;
      }
      next += r.len;
    }
    ASSERT_EQ(next, n) << "trial " << trial;
  }
}

TEST(XlaFused, RunWalkFastPathsOnHotShapes) {
  using xla::fused::XKind;
  // Row broadcast (BroadcastCol): every run is a fill, one per row touched.
  const auto div = runs_of({{XKind::kDiv, 638, 0}}, 1000, 1024);
  ASSERT_EQ(div.size(), 3u);
  for (const XRun& r : div) EXPECT_EQ(r.d, 0);
  EXPECT_EQ(div[0].len, 276);  // up to the row edge at 1276
  // Column broadcast / iota (BroadcastRow): contiguous runs up to the wrap.
  const auto mod = runs_of({{XKind::kMod, 638, 0}}, 1000, 1024);
  ASSERT_EQ(mod.size(), 3u);
  for (const XRun& r : mod) EXPECT_EQ(r.d, 1);
  EXPECT_EQ(mod[1].len, 638);
  // A unit-stride slice is one contiguous run; a slice of a broadcast
  // collapses back to a contiguous run too.
  const auto add = runs_of({{XKind::kMulAdd, 1, 7}}, 1000, 1024);
  ASSERT_EQ(add.size(), 1u);
  EXPECT_EQ(add[0].d, 1);
  EXPECT_EQ(add[0].v, 1007);
  const auto slice_of_bcast =
      runs_of({{XKind::kMulAdd, 7, 3}, {XKind::kDiv, 7, 0}}, 1000, 1024);
  ASSERT_EQ(slice_of_bcast.size(), 1u);
  EXPECT_EQ(slice_of_bcast[0].d, 1);
}

TEST(XlaCompiled, ParityComposedTransformsAcrossBlocks) {
  // 3 x 1031 = 3093 elements: runs straddle the 1024-element block edges
  // and the last block is partial.
  constexpr std::int64_t kRows = 3;
  constexpr std::int64_t kCols = 1031;
  xla::Jit fn("composed", [](const std::vector<Array>& in) {
    const Shape grid{kRows, kCols};
    const Array rows = xla::broadcast_col(in[0], kCols);
    const Array cols = xla::broadcast_row(in[1], kRows);
    const Array slice_of_bcast = xla::reshape(
        xla::slice_col(xla::broadcast_col(in[2], 7), 3), grid);
    const Array strided = xla::broadcast_row(
        xla::slice_col(xla::reshape(in[2], Shape{kCols, kRows}), 1), kRows);
    const Array ramp = xla::to_f64(xla::broadcast_row(xla::iota(kCols), kRows));
    return std::vector<Array>{rows * cols + slice_of_bcast,
                              strided - ramp * 0.25,
                              xla::reduce_sum(rows + ramp, 1)};
  });
  std::vector<double> r(kRows), c(kCols), g(kRows * kCols);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = 1.5 + static_cast<double>(i);
  for (std::size_t i = 0; i < c.size(); ++i) {
    c[i] = std::cos(static_cast<double>(i) * 0.3);
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    g[i] = std::sin(static_cast<double>(i) * 0.7) * 10.0;
  }
  expect_bitwise_parity(
      fn, {Literal::from_f64(Shape{kRows}, r), Literal::from_f64(Shape{kCols}, c),
           Literal::from_f64(Shape{kRows * kCols}, g)});
}

TEST(XlaCompiled, ParityInPlaceScatterChain) {
  // A 3-deep scatter_add chain on a param base, as build_noise_weighted
  // builds: the two intermediate bases are dead after their scatter and
  // are updated in place.  Around it: a scatter base with a second
  // consumer, a scatter base that is also a root, a param root and a
  // root listed twice, none of which may be moved.
  constexpr std::int64_t kPix = 1500;
  constexpr std::int64_t kSamp = 2600;  // crosses block edges
  xla::Jit fn("inplace", [](const std::vector<Array>& in) {
    const Array& map = in[0];
    const Array& pix = in[1];
    const Array& sig = in[2];
    Array z = map;
    for (int k = 0; k < 3; ++k) {
      z = xla::scatter_add(z, pix, sig * static_cast<double>(k + 1));
    }
    const Array shared = map * 0.5;  // base of a scatter and read again
    const Array s2 = xla::scatter_add(shared, pix, sig);
    const Array rooted = map + 1.0;  // base of a scatter and a root
    const Array s3 = xla::scatter_set(rooted, pix, sig);
    const Array twice = xla::scatter_add(map * 2.0, pix, sig);
    return std::vector<Array>{z,     s2 + shared, rooted, s3,
                              in[2], twice,       twice};
  });
  std::vector<double> map(kPix), sig(kSamp);
  std::vector<std::int64_t> pix(kSamp);
  for (std::size_t i = 0; i < map.size(); ++i) {
    map[i] = std::cos(static_cast<double>(i) * 0.1);
  }
  for (std::size_t i = 0; i < sig.size(); ++i) {
    sig[i] = std::sin(static_cast<double>(i) * 0.7) * 3.0;
    // Unsorted, repeated and out-of-range indices.
    pix[i] = static_cast<std::int64_t>((i * 7919) % (kPix + 40)) - 20;
  }
  const auto map0 = map;
  const auto sig0 = sig;
  const auto pix0 = pix;
  const std::vector<Literal> args = {
      Literal::borrow_f64(Shape{kPix}, map.data()),
      Literal::borrow_i64(Shape{kSamp}, pix.data()),
      Literal::borrow_f64(Shape{kSamp}, sig.data())};
  expect_bitwise_parity(fn, args);
  EXPECT_EQ(map, map0);
  EXPECT_EQ(sig, sig0);
  EXPECT_EQ(pix, pix0);

  // Outputs are owned, and a param root is a copy, not the caller's
  // buffer.
  const auto* compiled = fn.lookup(args);
  ASSERT_NE(compiled, nullptr);
  const auto out = xla::execute_compiled(*compiled, args);
  // The chain's two intermediate bases and the base of `twice`.
  EXPECT_EQ(compiled->fused->in_place_count(), 3u);
  ASSERT_EQ(out.size(), 7u);
  for (const auto& o : out) {
    EXPECT_FALSE(o.borrowed());
  }
  EXPECT_NE(out[4].f64().data(), sig.data());
  EXPECT_EQ(std::memcmp(out[4].f64().data(), sig.data(), out[4].byte_size()),
            0);
  EXPECT_NE(out[5].f64().data(), out[6].f64().data());
  EXPECT_EQ(map, map0);
}
