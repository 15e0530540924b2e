#include "sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace toast::sched {

// --- batch scheduling ------------------------------------------------------

BatchPlacement schedule_batch(const std::vector<BatchOp>& ops, int n_streams,
                              double lead_in) {
  const int streams = std::max(1, n_streams);
  BatchPlacement out;
  out.start.resize(ops.size());
  out.end.resize(ops.size());
  out.stream.resize(ops.size());
  out.makespan = lead_in;

  std::vector<double> stream_ready(static_cast<std::size_t>(streams),
                                   lead_in);
  double compute_ready = 0.0;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const BatchOp& op = ops[i];
    double dep_ready = 0.0;
    for (const int d : op.deps) {
      if (d >= 0 && static_cast<std::size_t>(d) < i) {
        dep_ready = std::max(dep_ready, out.end[static_cast<std::size_t>(d)]);
      }
    }
    // Earliest-start stream assignment (ties -> lowest id).
    int best = 0;
    double best_issue = std::max(stream_ready[0], dep_ready);
    for (int s = 1; s < streams; ++s) {
      const double issue =
          std::max(stream_ready[static_cast<std::size_t>(s)], dep_ready);
      if (issue < best_issue) {
        best = s;
        best_issue = issue;
      }
    }
    // One compute engine: kernel bodies serialize, launch latency
    // pipelines into the previous kernel's tail.
    const double start =
        std::max(best_issue, compute_ready - op.launch_part);
    const double end = start + op.duration;
    stream_ready[static_cast<std::size_t>(best)] = end;
    compute_ready = end;
    out.start[i] = start;
    out.end[i] = end;
    out.stream[i] = best;
    out.makespan = std::max(out.makespan, end);
  }
  return out;
}

// --- multi-lane DAG scheduling ---------------------------------------------

int LaneSchedule::push(const LaneOp& op) {
  for (const int l : op.lanes) {
    if (l < 0) {
      throw std::invalid_argument("schedule_lanes: negative lane id");
    }
    if (static_cast<std::size_t>(l) >= lane_ready_.size()) {
      lane_ready_.resize(static_cast<std::size_t>(l) + 1, epoch_);
    }
  }
  double ready = epoch_;
  for (const int d : op.deps) {
    if (d < 0 || static_cast<std::size_t>(d) >= start_.size()) {
      throw std::invalid_argument(
          "schedule_lanes: deps must point at earlier ops");
    }
    ready = std::max(ready, end_[static_cast<std::size_t>(d)]);
  }
  for (const int l : op.lanes) {
    ready = std::max(ready, lane_ready_[static_cast<std::size_t>(l)]);
  }
  // The retry lead occupies the lanes too (a lost chunk is re-sent on
  // the same wire); with lead == 0 this adds exactly 0.0 and the chain
  // on a lane stays the plain left-associative sum.
  const double start = ready + op.lead;
  const double end = start + op.seconds;
  start_.push_back(start);
  end_.push_back(end);
  for (const int l : op.lanes) {
    lane_ready_[static_cast<std::size_t>(l)] = end;
  }
  makespan_ = std::max(makespan_, end);
  return static_cast<int>(start_.size()) - 1;
}

double LaneSchedule::lane_ready(int l) const {
  if (l < 0 || static_cast<std::size_t>(l) >= lane_ready_.size()) {
    return epoch_;
  }
  return lane_ready_[static_cast<std::size_t>(l)];
}

LanePlacement schedule_lanes(const std::vector<LaneOp>& ops, double epoch) {
  LaneSchedule sched(epoch);
  for (const LaneOp& op : ops) {
    sched.push(op);
  }
  LanePlacement out;
  out.start.resize(ops.size());
  out.end.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    out.start[i] = sched.start(static_cast<int>(i));
    out.end[i] = sched.end(static_cast<int>(i));
  }
  out.makespan = sched.makespan();
  return out;
}

// --- absolute-time engine --------------------------------------------------

Scheduler::Scheduler(accel::SimDevice& device, accel::VirtualClock& clock,
                     obs::Tracer* tracer, int n_streams, std::string backend)
    : device_(device),
      clock_(clock),
      tracer_(tracer),
      backend_(std::move(backend)),
      stream_ready_(static_cast<std::size_t>(std::max(1, n_streams)), 0.0) {}

StreamId Scheduler::ensure_stream(StreamId s) {
  if (s < 0) {
    throw std::out_of_range("sched: negative stream id");
  }
  if (static_cast<std::size_t>(s) >= stream_ready_.size()) {
    stream_ready_.resize(static_cast<std::size_t>(s) + 1, 0.0);
  }
  return s;
}

double Scheduler::deps_ready(const std::vector<EventId>& depends) const {
  double t = 0.0;
  for (const EventId e : depends) {
    if (e >= 0 && static_cast<std::size_t>(e) < events_.size()) {
      t = std::max(t, events_[static_cast<std::size_t>(e)]);
    }
  }
  return t;
}

obs::SpanId Scheduler::emit(const std::string& name,
                            const std::string& category, double start,
                            double seconds, StreamId stream,
                            const accel::WorkEstimate* work) {
  if (tracer_ == nullptr) {
    return obs::kInvalidSpan;
  }
  const obs::SpanId id =
      tracer_->record_at(name, category, start, seconds, backend_, work);
  tracer_->set_stream(id, stream);
  return id;
}

void Scheduler::note_direction(obs::SpanId span, double bytes, double seconds,
                               bool to_device) {
  if (tracer_ == nullptr || span == obs::kInvalidSpan) {
    return;
  }
  tracer_->add_counter(span, to_device ? "bytes_h2d" : "bytes_d2h", bytes);
  tracer_->add_counter(span, to_device ? "seconds_h2d" : "seconds_d2h",
                       seconds);
}

void Scheduler::advance_sync(double start, double t) {
  const double now = clock_.now();
  if (start <= now) {
    // Engines drained: the seed's arithmetic, bit for bit.
    clock_.advance(t);
  } else {
    clock_.advance((start - now) + t);
  }
}

double Scheduler::launch_async(StreamId s, const std::string& name,
                               const accel::WorkEstimate& work,
                               const std::vector<EventId>& depends) {
  ensure_stream(s);
  const double t_base = device_.exec_time(work);
  double t = t_base;
  double penalty = 0.0;
  fault::ProbeResult pr;
  if (faults_ != nullptr && faults_->armed()) {
    t *= faults_->straggler_factor(name);
    pr = faults_->probe(fault::FaultKind::kLaunch, name, t);
    if (pr.persistent) {
      faults_->note_async_retries(fault::FaultKind::kLaunch, name,
                                  clock_.now(), pr);
      throw fault::PersistentFaultError(fault::FaultKind::kLaunch, name,
                                        pr.failures);
    }
    penalty = pr.penalty;
  }
  const double launch_part =
      std::min(t, work.launches * device_.spec().launch_latency);
  const double issue =
      std::max({clock_.now(), stream_ready_[static_cast<std::size_t>(s)],
                deps_ready(depends)});
  const double start = std::max(issue, compute_ready_ - launch_part) + penalty;
  if (pr.failures > 0 && faults_ != nullptr) {
    faults_->note_async_retries(fault::FaultKind::kLaunch, name,
                                start - penalty, pr);
  }
  const double end = start + t;
  stream_ready_[static_cast<std::size_t>(s)] = end;
  compute_ready_ = end;
  device_.count_execution(work, t);
  emit(name, "kernel", start, t, s, &work);
  if (t > t_base && faults_ != nullptr) {
    faults_->note_straggler(name, start + t_base, t - t_base);
  }
  return end;
}

double Scheduler::transfer_async(StreamId s, const std::string& name,
                                 double bytes, bool to_device,
                                 const std::vector<EventId>& depends) {
  return transfer_async_timed(s, name, bytes, device_.transfer_time(bytes),
                              to_device, depends);
}

double Scheduler::transfer_async_timed(StreamId s, const std::string& name,
                                       double bytes, double seconds,
                                       bool to_device,
                                       const std::vector<EventId>& depends) {
  ensure_stream(s);
  const double t = seconds;
  double penalty = 0.0;
  fault::ProbeResult pr;
  if (faults_ != nullptr && faults_->armed()) {
    pr = faults_->probe(fault::FaultKind::kTransfer, name, t);
    if (pr.persistent) {
      faults_->note_async_retries(fault::FaultKind::kTransfer, name,
                                  clock_.now(), pr);
      throw fault::PersistentFaultError(fault::FaultKind::kTransfer, name,
                                        pr.failures);
    }
    penalty = pr.penalty;
  }
  const double issue =
      std::max({clock_.now(), stream_ready_[static_cast<std::size_t>(s)],
                deps_ready(depends)});
  // One copy engine: concurrent transfers serialize on the PCIe link.
  const double start = std::max(issue, link_ready_) + penalty;
  if (pr.failures > 0 && faults_ != nullptr) {
    faults_->note_async_retries(fault::FaultKind::kTransfer, name,
                                start - penalty, pr);
  }
  const double end = start + t;
  stream_ready_[static_cast<std::size_t>(s)] = end;
  link_ready_ = end;
  device_.count_transfer(bytes, t, to_device);
  const obs::SpanId span = emit(name, "transfer", start, t, s, nullptr);
  note_direction(span, bytes, t, to_device);
  return end;
}

double Scheduler::fill_async(StreamId s, const std::string& name,
                             double bytes,
                             const std::vector<EventId>& depends) {
  ensure_stream(s);
  const double t = device_.fill_time(bytes);
  const double launch_part = std::min(t, device_.spec().launch_latency);
  const double issue =
      std::max({clock_.now(), stream_ready_[static_cast<std::size_t>(s)],
                deps_ready(depends)});
  const double start = std::max(issue, compute_ready_ - launch_part);
  const double end = start + t;
  stream_ready_[static_cast<std::size_t>(s)] = end;
  compute_ready_ = end;
  emit(name, "transfer", start, t, s, nullptr);
  return end;
}

EventId Scheduler::record_event(StreamId s) {
  ensure_stream(s);
  events_.push_back(stream_ready_[static_cast<std::size_t>(s)]);
  return static_cast<EventId>(events_.size()) - 1;
}

double Scheduler::event_time(EventId e) const {
  if (e < 0 || static_cast<std::size_t>(e) >= events_.size()) {
    return 0.0;
  }
  return events_[static_cast<std::size_t>(e)];
}

void Scheduler::stream_wait_event(StreamId s, EventId e) {
  ensure_stream(s);
  stream_ready_[static_cast<std::size_t>(s)] =
      std::max(stream_ready_[static_cast<std::size_t>(s)], event_time(e));
}

double Scheduler::transfer_sync(const std::string& name, double bytes,
                                bool to_device) {
  const double t = device_.transfer_time(bytes);
  if (faults_ != nullptr && faults_->armed()) {
    // Charges retry/backoff to the clock; throws on a persistent fault.
    faults_->attempt_sync(fault::FaultKind::kTransfer, name, t);
  }
  const double start = std::max(clock_.now(), link_ready_);
  advance_sync(start, t);
  const double end = clock_.now();
  link_ready_ = end;
  device_.note_transfer(bytes, t, to_device);
  if (tracer_ != nullptr) {
    const obs::SpanId span =
        tracer_->record(name, "transfer", t, backend_);
    note_direction(span, bytes, t, to_device);
  }
  return end;
}

double Scheduler::kernel_sync(const std::string& name,
                              const accel::WorkEstimate& work,
                              double host_overhead) {
  double t = device_.exec_time(work) + host_overhead;
  if (faults_ != nullptr && faults_->armed()) {
    const double stretched = t * faults_->straggler_factor(name);
    if (stretched > t) {
      faults_->note_straggler(name, clock_.now(), stretched - t);
      t = stretched;
    }
    faults_->attempt_sync(fault::FaultKind::kLaunch, name, t);
  }
  const double start = std::max(clock_.now(), compute_ready_);
  advance_sync(start, t);
  const double end = clock_.now();
  compute_ready_ = end;
  device_.note_execution(work, t);
  if (tracer_ != nullptr) {
    tracer_->record(name, "kernel", t, backend_, &work);
  }
  return end;
}

double Scheduler::fill_sync(const std::string& name, double bytes) {
  const double t = device_.fill_time(bytes);
  const double start = std::max(clock_.now(), compute_ready_);
  advance_sync(start, t);
  const double end = clock_.now();
  compute_ready_ = end;
  if (tracer_ != nullptr) {
    tracer_->record(name, "transfer", t, backend_);
  }
  return end;
}

double Scheduler::sync_stream(StreamId s, const std::string& name) {
  ensure_stream(s);
  const double now = clock_.now();
  const double target = stream_ready_[static_cast<std::size_t>(s)];
  if (target > now) {
    const double wait = target - now;
    clock_.advance(wait);
    if (tracer_ != nullptr) {
      tracer_->record(name, "sync", wait, backend_);
    }
  }
  return clock_.now();
}

double Scheduler::sync_transfers(const std::string& name) {
  const double now = clock_.now();
  if (link_ready_ > now) {
    const double wait = link_ready_ - now;
    clock_.advance(wait);
    if (tracer_ != nullptr) {
      tracer_->record(name, "transfer", wait, backend_);
    }
  }
  return clock_.now();
}

double Scheduler::sync_all(const std::string& name) {
  const double now = clock_.now();
  double target = std::max(compute_ready_, link_ready_);
  for (const double r : stream_ready_) {
    target = std::max(target, r);
  }
  if (target > now) {
    const double wait = target - now;
    clock_.advance(wait);
    if (tracer_ != nullptr) {
      tracer_->record(name, "sync", wait, backend_);
    }
  }
  return clock_.now();
}

double Scheduler::stream_ready(StreamId s) const {
  if (s < 0 || static_cast<std::size_t>(s) >= stream_ready_.size()) {
    return 0.0;
  }
  return stream_ready_[static_cast<std::size_t>(s)];
}

double Scheduler::pending_transfer_completion() const {
  return link_ready_ > clock_.now() ? link_ready_ : 0.0;
}

bool Scheduler::idle() const {
  const double now = clock_.now();
  if (compute_ready_ > now || link_ready_ > now) {
    return false;
  }
  for (const double r : stream_ready_) {
    if (r > now) {
      return false;
    }
  }
  return true;
}

}  // namespace toast::sched
