// Tests for the virtual stream/event scheduler: in-order streams, event
// ordering, PCIe-link serialization, launch pipelining, and the exact
// equivalence of the 1-stream / synchronous paths with the plain
// clock-advance timeline.

#include "sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace accel = toast::accel;
namespace obs = toast::obs;
namespace sched = toast::sched;

namespace {

accel::WorkEstimate kernel(double n) {
  accel::WorkEstimate w;
  w.flops = 100.0 * n;
  w.bytes_read = 16.0 * n;
  w.bytes_written = 8.0 * n;
  w.launches = 1.0;
  w.parallel_items = n;
  return w;
}

struct Fixture {
  accel::SimDevice device;
  accel::VirtualClock clock;
  obs::Tracer tracer{&clock};
  sched::Scheduler sch{device, clock, &tracer, /*n_streams=*/4};

  /// Every placed op leaves one span, in placement order.
  const std::vector<obs::Span>& spans() const { return tracer.spans(); }
};

double end_of(const obs::Span& s) { return s.start + s.duration; }

}  // namespace

// --- schedule_batch --------------------------------------------------------

TEST(ScheduleBatch, OneStreamIsTheSerialSumExactly) {
  // With one stream the placement must reproduce the seed's
  // left-associative accumulation bit for bit, not just approximately.
  const double lead_in = 6.25e-6;
  std::vector<sched::BatchOp> ops;
  double serial = lead_in;
  for (const double t : {1.0e-3, 3.33e-4, 7.77e-5, 1.23e-6}) {
    ops.push_back({"op", t, /*launch_part=*/4.0e-6, {}});
  }
  const auto placed = sched::schedule_batch(ops, 1, lead_in);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(placed.start[i], serial) << "op " << i;
    serial += ops[i].duration;
    EXPECT_EQ(placed.end[i], serial) << "op " << i;
    EXPECT_EQ(placed.stream[i], 0);
  }
  EXPECT_EQ(placed.makespan, serial);
}

TEST(ScheduleBatch, EmptyBatchCostsTheLeadIn) {
  const auto placed = sched::schedule_batch({}, 4, 1.5e-5);
  EXPECT_DOUBLE_EQ(placed.makespan, 1.5e-5);
}

TEST(ScheduleBatch, IndependentOpsPipelineLaunchLatency) {
  // Two independent kernels on two streams: the second one's launch slice
  // hides in the first one's tail, so the makespan shrinks by exactly
  // launch_part versus the serial sum.
  const double lp = 4.0e-6;
  const std::vector<sched::BatchOp> ops = {
      {"a", 1.0e-3, lp, {}},
      {"b", 2.0e-3, lp, {}},
  };
  const auto one = sched::schedule_batch(ops, 1, 0.0);
  const auto two = sched::schedule_batch(ops, 2, 0.0);
  EXPECT_NE(two.stream[0], two.stream[1]);
  EXPECT_DOUBLE_EQ(two.start[1], one.end[0] - lp);
  EXPECT_NEAR(one.makespan - two.makespan, lp, 1e-15);
}

TEST(ScheduleBatch, DependentOpsDoNotOverlap) {
  // b reads a's output: no pipelining even with streams to spare.
  const std::vector<sched::BatchOp> ops = {
      {"a", 1.0e-3, 4.0e-6, {}},
      {"b", 2.0e-3, 4.0e-6, {0}},
  };
  const auto placed = sched::schedule_batch(ops, 4, 0.0);
  EXPECT_GE(placed.start[1], placed.end[0]);
  EXPECT_DOUBLE_EQ(placed.makespan, placed.end[1]);
}

// --- async engine ----------------------------------------------------------

TEST(SchedAsync, StreamsCompleteInOrder) {
  Fixture f;
  const double end1 = f.sch.launch_async(0, "a", kernel(1e6));
  const double end2 = f.sch.launch_async(0, "b", kernel(1e6));
  EXPECT_GT(end2, end1);
  ASSERT_EQ(f.spans().size(), 2u);
  EXPECT_GE(f.spans()[1].start, end_of(f.spans()[0]));
}

TEST(SchedAsync, TransfersSerializeOnTheLink) {
  // Different streams, one PCIe link: the second transfer starts exactly
  // when the first completes.
  Fixture f;
  const double end1 = f.sch.transfer_async(0, "h2d_a", 1e8, true);
  f.sch.transfer_async(1, "h2d_b", 1e8, true);
  EXPECT_DOUBLE_EQ(f.spans()[1].start, end1);
}

TEST(SchedAsync, TransferOverlapsCompute) {
  // A transfer on one stream starts immediately even while a kernel owns
  // the compute engine on another.
  Fixture f;
  f.sch.launch_async(0, "k", kernel(1e8));
  f.sch.transfer_async(1, "h2d", 1e8, true);
  EXPECT_DOUBLE_EQ(f.spans()[1].start, 0.0);
}

TEST(SchedAsync, LaunchLatencyPipelinesAcrossStreams) {
  Fixture f;
  const accel::WorkEstimate w = kernel(1e7);
  const double lp = w.launches * f.device.spec().launch_latency;
  const double end1 = f.sch.launch_async(0, "a", w);
  f.sch.launch_async(1, "b", w);
  // Kernel bodies serialize on the compute engine; only the launch slice
  // overlaps the first kernel's tail.
  EXPECT_DOUBLE_EQ(f.spans()[1].start, end1 - lp);
}

TEST(SchedAsync, EventsOrderWorkAcrossStreams) {
  Fixture f;
  const double t_end = f.sch.transfer_async(0, "h2d", 1e8, true);
  const sched::EventId ev = f.sch.record_event(0);
  EXPECT_DOUBLE_EQ(f.sch.event_time(ev), t_end);
  // A kernel elsewhere that depends on the upload starts no earlier.
  f.sch.launch_async(1, "consume", kernel(1e6), {ev});
  EXPECT_GE(f.spans().back().start, t_end);
  // Without the dependency it would have started immediately.
  Fixture g;
  g.sch.transfer_async(0, "h2d", 1e8, true);
  g.sch.launch_async(1, "consume", kernel(1e6));
  EXPECT_DOUBLE_EQ(g.spans().back().start, 0.0);
}

TEST(SchedAsync, StreamWaitEventBlocksTheWholeStream) {
  Fixture f;
  const double t_end = f.sch.transfer_async(0, "h2d", 1e8, true);
  const sched::EventId ev = f.sch.record_event(0);
  f.sch.stream_wait_event(1, ev);
  f.sch.launch_async(1, "k", kernel(1e6));
  EXPECT_GE(f.spans().back().start, t_end);
}

TEST(SchedAsync, SyncStreamWaitsOnlyForThatStream) {
  Fixture f;
  const double short_end = f.sch.launch_async(0, "short", kernel(1e5));
  f.sch.transfer_async(1, "long", 1e9, true);
  f.sch.sync_stream(0);
  EXPECT_DOUBLE_EQ(f.clock.now(), short_end);
  EXPECT_FALSE(f.sch.idle());
  f.sch.sync_all();
  EXPECT_TRUE(f.sch.idle());
}

TEST(SchedAsync, PendingTransferCompletionDrains) {
  Fixture f;
  EXPECT_DOUBLE_EQ(f.sch.pending_transfer_completion(), 0.0);
  const double end = f.sch.transfer_async(0, "h2d", 1e8, true);
  EXPECT_DOUBLE_EQ(f.sch.pending_transfer_completion(), end);
  f.sch.sync_transfers();
  EXPECT_DOUBLE_EQ(f.sch.pending_transfer_completion(), 0.0);
}

// --- synchronous path ------------------------------------------------------

TEST(SchedSync, DrainedEnginesUseSeedArithmetic) {
  // On a drained device the sync ops must advance the clock by exactly
  // the model times — the same doubles a bare clock.advance() would add.
  Fixture f;
  accel::VirtualClock ref;
  const accel::WorkEstimate w = kernel(1e6);

  f.sch.transfer_sync("h2d", 1e8, true);
  ref.advance(f.device.transfer_time(1e8));
  EXPECT_EQ(f.clock.now(), ref.now());

  f.sch.kernel_sync("k", w, /*host_overhead=*/6.0e-6);
  ref.advance(f.device.exec_time(w) + 6.0e-6);
  EXPECT_EQ(f.clock.now(), ref.now());

  f.sch.fill_sync("fill", 1e8);
  ref.advance(f.device.fill_time(1e8));
  EXPECT_EQ(f.clock.now(), ref.now());
}

TEST(SchedSync, OneStreamPipelineEqualsSyncBitForBit) {
  // The serial-equivalence guarantee behind bench_overlap: submitting a
  // whole H2D+kernel pipeline on one stream and draining it lands the
  // clock on exactly the synchronous timeline.
  Fixture async_f;
  Fixture sync_f;
  const accel::WorkEstimate w = kernel(3e6);
  for (int i = 0; i < 5; ++i) {
    async_f.sch.transfer_async(0, "h2d", 1e8, true);
    async_f.sch.launch_async(0, "k", w);
    sync_f.sch.transfer_sync("h2d", 1e8, true);
    sync_f.sch.kernel_sync("k", w);
  }
  async_f.sch.sync_all();
  EXPECT_EQ(async_f.clock.now(), sync_f.clock.now());
}

TEST(SchedSync, WaitAfterAsyncChargesOnlyTheRemainder) {
  // Async transfer, then a sync kernel long enough to cover it: the
  // transfer wait is free (the omptarget wait_transfers semantics).
  Fixture f;
  f.sch.transfer_async(0, "h2d", 1e6, true);
  f.sch.kernel_sync("k", kernel(1e9));
  const double before = f.clock.now();
  f.sch.sync_transfers();
  EXPECT_DOUBLE_EQ(f.clock.now(), before);
}

TEST(SchedSync, CountersSplitByDirection) {
  Fixture f;
  f.sch.transfer_sync("h2d", 1000.0, true);
  f.sch.transfer_async(0, "d2h", 500.0, false);
  EXPECT_DOUBLE_EQ(f.device.total_h2d_bytes(), 1000.0);
  EXPECT_DOUBLE_EQ(f.device.total_d2h_bytes(), 500.0);
  EXPECT_GT(f.device.total_h2d_seconds(), 0.0);
  EXPECT_GT(f.device.total_d2h_seconds(), 0.0);
}

TEST(SchedSync, NegativeStreamIdThrows) {
  Fixture f;
  EXPECT_THROW(f.sch.launch_async(-1, "k", kernel(1.0)),
               std::out_of_range);
}

TEST(SchedSync, StreamsGrowOnDemand) {
  Fixture f;
  EXPECT_EQ(f.sch.n_streams(), 4);
  f.sch.launch_async(7, "k", kernel(1.0));
  EXPECT_EQ(f.sch.n_streams(), 8);
}
