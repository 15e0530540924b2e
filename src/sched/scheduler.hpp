#pragma once

// Virtual stream/event execution engine over accel::SimDevice and
// accel::VirtualClock (paper §4.1–§4.2: launch overhead, dispatch cost and
// data movement are what streams exist to hide).
//
// The model is CUDA-shaped:
//   - a *stream* is an independent virtual timeline with in-order
//     completion: each op starts no earlier than the previous op on the
//     same stream finished;
//   - an *event* snapshots a stream's completion front; other streams (or
//     individual ops, via `depends`) wait on it;
//   - the device has one copy engine and one compute engine.  Concurrent
//     transfers fully serialize on the PCIe link (one engine, one link);
//     kernel *bodies* serialize on the compute engine, but the launch
//     latency of a kernel overlaps the tail of the previous kernel when
//     they come from different submission points (launch pipelining).
//     Transfers and compute overlap freely — that is the whole point.
//
// Synchronous ops use the same placement rules but advance the clock with
// the seed's exact arithmetic (`clock.advance(t)` when the engines are
// drained), so a program that never goes async reproduces the old
// single-timeline numbers bit for bit.  `schedule_batch()` is the
// relative-time variant used by the XLA executor: it places a DAG of
// kernels onto N streams starting from a common epoch and reports the
// makespan; with one stream it degenerates to the seed's left-associative
// serial sum, again bit for bit.
//
// Every async op is also reported to obs::Tracer with its stream id, so
// Chrome traces render one overlap lane per stream.

#include <cstdint>
#include <string>
#include <vector>

#include "accel/sim_device.hpp"
#include "accel/work.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"

namespace toast::sched {

using StreamId = int;
using EventId = std::int64_t;
inline constexpr EventId kNoEvent = -1;

// --- relative-time batch scheduling (the XLA path) -------------------------

/// One kernel in a dependency DAG to be placed onto streams.
struct BatchOp {
  std::string name;
  double duration = 0.0;     // device execution time of the kernel body
  double launch_part = 0.0;  // leading slice that pipelines across streams
  std::vector<int> deps;     // indices of earlier BatchOps
};

struct BatchPlacement {
  std::vector<double> start;  // relative to the batch epoch
  std::vector<double> end;
  std::vector<StreamId> stream;
  /// Completion of the last op (>= lead_in even for an empty batch).
  double makespan = 0.0;
};

/// Place `ops` (in submission order; deps must point backwards) onto
/// `n_streams` streams that all become available at `lead_in` (the host
/// dispatch overhead).  Each op goes to the stream where it can start
/// earliest; one compute engine serializes kernel bodies across streams
/// while launch latency pipelines.  With n_streams == 1 the result is the
/// seed's serial sum: start_i = lead_in + t_1 + ... + t_{i-1}, exactly.
BatchPlacement schedule_batch(const std::vector<BatchOp>& ops, int n_streams,
                              double lead_in);

// --- generic multi-lane DAG scheduling (the comm path) ---------------------

/// One op occupying a *set* of engine lanes for its whole duration — e.g.
/// a point-to-point chunk transfer holding the sender's TX and the
/// receiver's RX NIC engine — with DAG dependencies on earlier ops.
struct LaneOp {
  double seconds = 0.0;
  /// Extra delay charged on the op's lanes ahead of it (fault-retry
  /// penalty placed by the caller).
  double lead = 0.0;
  std::vector<int> lanes;
  std::vector<int> deps;  // indices of earlier LaneOps
};

struct LanePlacement {
  std::vector<double> start;  // absolute (>= epoch)
  std::vector<double> end;
  double makespan = 0.0;  // max end, or epoch for an empty op list
};

/// Place `ops` (submission order; deps must point backwards) onto their
/// lanes, all idle at `epoch`: an op starts once its dependencies are done
/// and every lane it occupies is free, then holds those lanes until it
/// ends.  A chain of ops on one lane degenerates to the left-associative
/// serial sum `epoch + t_0 + t_1 + ...`, exactly — the equivalence the
/// comm engine's uniform-topology guarantee rests on (docs/MODEL.md §9).
/// Throws std::invalid_argument on negative lane ids or out-of-order deps.
LanePlacement schedule_lanes(const std::vector<LaneOp>& ops,
                             double epoch = 0.0);

/// Incremental form of schedule_lanes: ops are pushed one at a time and
/// placed immediately.  schedule_lanes is a batch push loop over this
/// class, so feeding the same op sequence step-at-a-time (the async task
/// runtime's mode of operation) is bit-for-bit the one-shot placement.
/// Lanes grow on demand and start idle at the epoch.
class LaneSchedule {
 public:
  explicit LaneSchedule(double epoch = 0.0)
      : epoch_(epoch), makespan_(epoch) {}

  /// Place one op (deps index earlier pushes); returns its index.
  int push(const LaneOp& op);

  double start(int i) const { return start_[static_cast<std::size_t>(i)]; }
  double end(int i) const { return end_[static_cast<std::size_t>(i)]; }
  /// When lane `l` frees up; epoch for lanes no op has touched yet.
  double lane_ready(int l) const;
  double epoch() const { return epoch_; }
  double makespan() const { return makespan_; }
  std::size_t size() const { return start_.size(); }

 private:
  double epoch_;
  double makespan_;
  std::vector<double> start_;
  std::vector<double> end_;
  std::vector<double> lane_ready_;
};

// --- absolute-time engine (the omptarget path) -----------------------------

class Scheduler {
 public:
  /// `tracer` may be null (no spans emitted).  `backend` labels the spans.
  Scheduler(accel::SimDevice& device, accel::VirtualClock& clock,
            obs::Tracer* tracer = nullptr, int n_streams = 1,
            std::string backend = {});

  /// Streams grow on demand when an op names a new stream id.
  int n_streams() const { return static_cast<int>(stream_ready_.size()); }

  /// Attach a fault injector (nullptr detaches).  Not owned.  Kernel and
  /// transfer ops then probe for injected failures: sync ops charge
  /// retry/backoff to the clock before placement; async ops are delayed
  /// by the retry penalty on their stream; stragglers stretch the op.  A
  /// disarmed injector leaves every placement bit-for-bit unchanged.
  void set_fault_injector(fault::FaultInjector* f) { faults_ = f; }

  // --- async submission (returns the op's completion time) ---------------

  /// Enqueue a kernel: waits for the stream front, any `depends` events,
  /// and the compute engine (minus the launch-pipelining overlap).
  double launch_async(StreamId s, const std::string& name,
                      const accel::WorkEstimate& work,
                      const std::vector<EventId>& depends = {});
  /// Enqueue an H2D/D2H transfer; concurrent transfers serialize on the
  /// PCIe link but overlap with compute.
  double transfer_async(StreamId s, const std::string& name, double bytes,
                        bool to_device,
                        const std::vector<EventId>& depends = {});
  /// Like transfer_async, but with the duration supplied by the caller —
  /// for backend-scaled transfer costs (the AccelStore jax factors) that
  /// the device's raw transfer_time does not know about.
  double transfer_async_timed(StreamId s, const std::string& name,
                              double bytes, double seconds, bool to_device,
                              const std::vector<EventId>& depends = {});
  /// Enqueue a device-side fill (compute engine, like a memset kernel).
  double fill_async(StreamId s, const std::string& name, double bytes,
                    const std::vector<EventId>& depends = {});

  // --- events -------------------------------------------------------------

  /// Snapshot stream `s`'s completion front.
  EventId record_event(StreamId s);
  double event_time(EventId e) const;
  /// Make stream `s` wait for `e` (cudaStreamWaitEvent).
  void stream_wait_event(StreamId s, EventId e);

  // --- synchronous ops (seed-exact clock arithmetic) ----------------------

  /// Blocking transfer: places on the link, advances the clock to
  /// completion, updates device counters and logs `name`.  When the link
  /// is drained this is exactly the seed's `advance(transfer_time(b))`.
  double transfer_sync(const std::string& name, double bytes,
                       bool to_device);
  /// Blocking kernel: `host_overhead` (dispatch) is charged inside the
  /// logged duration, exactly like the seed's charge() path.
  double kernel_sync(const std::string& name, const accel::WorkEstimate& work,
                     double host_overhead = 0.0);
  /// Blocking fill (the data_reset path).
  double fill_sync(const std::string& name, double bytes);

  // --- host-side waits ----------------------------------------------------

  /// Block until stream `s` drains; logs `name` for the waited time only.
  double sync_stream(StreamId s, const std::string& name = "stream_wait");
  /// Block until the PCIe link drains (the wait_transfers path).
  double sync_transfers(const std::string& name = "transfer_wait");
  /// Block until every engine and stream drains.
  double sync_all(const std::string& name = "device_wait");

  // --- inspection ---------------------------------------------------------

  double stream_ready(StreamId s) const;
  double link_ready() const { return link_ready_; }
  double compute_ready() const { return compute_ready_; }
  /// Completion time of in-flight transfers, 0.0 when the link is drained.
  double pending_transfer_completion() const;
  /// True when nothing is in flight beyond the current clock time.
  bool idle() const;

 private:
  StreamId ensure_stream(StreamId s);
  double deps_ready(const std::vector<EventId>& depends) const;
  obs::SpanId emit(const std::string& name, const std::string& category,
                   double start, double seconds, StreamId stream,
                   const accel::WorkEstimate* work);
  void note_direction(obs::SpanId span, double bytes, double seconds,
                      bool to_device);
  /// Advance the clock to `target` using the seed's arithmetic: when the
  /// op starts "now" (all engines drained) the advance is exactly `t`.
  void advance_sync(double start, double t);

  accel::SimDevice& device_;
  accel::VirtualClock& clock_;
  obs::Tracer* tracer_;
  fault::FaultInjector* faults_ = nullptr;
  std::string backend_;
  std::vector<double> stream_ready_;
  double link_ready_ = 0.0;
  double compute_ready_ = 0.0;
  std::vector<double> events_;
};

}  // namespace toast::sched
