#include "comm/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "sched/scheduler.hpp"

namespace toast::comm {

namespace {

/// Element boundary of chunk `c` when `count` elements are cut into
/// `ranks` near-equal chunks (chunk c spans [bound(c), bound(c+1))).
std::size_t chunk_bound(std::size_t count, int ranks, int c) {
  return count * static_cast<std::size_t>(c) /
         static_cast<std::size_t>(ranks);
}

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

}  // namespace

StepDag ring_allreduce(int ranks, double bytes, std::size_t count) {
  StepDag dag;
  dag.collective = "allreduce";
  dag.algorithm = config::CommAlgorithm::kRing;
  dag.ranks = ranks;
  if (ranks <= 1 || bytes <= 0.0) {
    return dag;
  }
  const int n = ranks;
  const double chunk_bytes = bytes / static_cast<double>(n);
  // 2(n-1) global rounds: n-1 reduce-scatter then n-1 all-gather.  In
  // round g, rank r forwards one chunk to its right neighbour; the chunk
  // index walks the ring so that chunk c finishes fully reduced at rank
  // (c-1+n)%n after the scatter phase, then circulates back out.
  dag.steps.reserve(static_cast<std::size_t>(2 * (n - 1)) *
                    static_cast<std::size_t>(n));
  for (int g = 0; g < 2 * (n - 1); ++g) {
    const bool reduce = g < n - 1;
    for (int r = 0; r < n; ++r) {
      Step st;
      st.src = r;
      st.dst = (r + 1) % n;
      st.bytes = chunk_bytes;
      const int c = reduce ? (((r - g) % n) + n) % n
                           : (((r + 1 - (g - (n - 1))) % n) + n) % n;
      st.src_offset = chunk_bound(count, n, c);
      st.dst_offset = st.src_offset;
      st.count = chunk_bound(count, n, c + 1) - st.src_offset;
      st.reduce = reduce;
      st.round = g;
      if (g > 0) {
        // The sender forwards what it received last round from its left
        // neighbour.
        st.deps.push_back((g - 1) * n + (r - 1 + n) % n);
      }
      dag.steps.push_back(std::move(st));
    }
  }
  return dag;
}

StepDag rs_ag_allreduce(int ranks, double bytes, std::size_t count) {
  if (!is_pow2(ranks)) {
    // Recursive halving needs a power of two; fall back to the ring
    // decomposition but keep the requested label so callers see which
    // algorithm they asked for.
    StepDag dag = ring_allreduce(ranks, bytes, count);
    dag.algorithm = config::CommAlgorithm::kRecursive;
    return dag;
  }
  StepDag dag;
  dag.collective = "allreduce";
  dag.algorithm = config::CommAlgorithm::kRecursive;
  dag.ranks = ranks;
  if (ranks <= 1 || bytes <= 0.0) {
    return dag;
  }
  const int n = ranks;
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;

  // Per-rank owned element segment [lo, hi) and the index of the last
  // step that wrote into the rank's buffer (the receive of the previous
  // round) for DAG dependencies.
  std::vector<std::size_t> lo(static_cast<std::size_t>(n), 0);
  std::vector<std::size_t> hi(static_cast<std::size_t>(n), count);
  std::vector<int> last(static_cast<std::size_t>(n), -1);

  // Reduce-scatter: recursive halving.  Round j pairs r with r^dist and
  // each sends the half of its segment the partner keeps.
  double vol = bytes * 0.5;
  for (int j = 0; j < rounds; ++j) {
    const int dist = n >> (j + 1);
    const std::vector<std::size_t> cur_lo = lo;
    const std::vector<std::size_t> cur_hi = hi;
    const std::vector<int> cur_last = last;
    for (int r = 0; r < n; ++r) {
      const int p = r ^ dist;
      const std::size_t l = cur_lo[static_cast<std::size_t>(r)];
      const std::size_t h = cur_hi[static_cast<std::size_t>(r)];
      const std::size_t mid = l + (h - l) / 2;
      Step st;
      st.src = r;
      st.dst = p;
      st.bytes = vol;
      if ((r & dist) == 0) {  // keep lower half, send upper
        st.src_offset = mid;
        st.count = h - mid;
        lo[static_cast<std::size_t>(r)] = l;
        hi[static_cast<std::size_t>(r)] = mid;
      } else {  // keep upper half, send lower
        st.src_offset = l;
        st.count = mid - l;
        lo[static_cast<std::size_t>(r)] = mid;
        hi[static_cast<std::size_t>(r)] = h;
      }
      st.dst_offset = st.src_offset;
      st.reduce = true;
      st.round = j;
      if (cur_last[static_cast<std::size_t>(r)] >= 0) {
        st.deps.push_back(cur_last[static_cast<std::size_t>(r)]);
      }
      if (cur_last[static_cast<std::size_t>(p)] >= 0 && p != r) {
        st.deps.push_back(cur_last[static_cast<std::size_t>(p)]);
      }
      last[static_cast<std::size_t>(p)] = static_cast<int>(dag.steps.size());
      dag.steps.push_back(std::move(st));
    }
    vol *= 0.5;
  }

  // All-gather: recursive doubling, mirrored.  Each rank sends its whole
  // owned segment; partners merge into contiguous unions.
  vol = bytes / static_cast<double>(n);
  for (int k = 0; k < rounds; ++k) {
    const int dist = 1 << k;
    const std::vector<std::size_t> cur_lo = lo;
    const std::vector<std::size_t> cur_hi = hi;
    const std::vector<int> cur_last = last;
    for (int r = 0; r < n; ++r) {
      const int p = r ^ dist;
      Step st;
      st.src = r;
      st.dst = p;
      st.bytes = vol;
      st.src_offset = cur_lo[static_cast<std::size_t>(r)];
      st.dst_offset = st.src_offset;
      st.count = cur_hi[static_cast<std::size_t>(r)] -
                 cur_lo[static_cast<std::size_t>(r)];
      st.reduce = false;
      st.round = rounds + k;
      if (cur_last[static_cast<std::size_t>(r)] >= 0) {
        st.deps.push_back(cur_last[static_cast<std::size_t>(r)]);
      }
      if (cur_last[static_cast<std::size_t>(p)] >= 0) {
        st.deps.push_back(cur_last[static_cast<std::size_t>(p)]);
      }
      last[static_cast<std::size_t>(p)] = static_cast<int>(dag.steps.size());
      dag.steps.push_back(std::move(st));
      lo[static_cast<std::size_t>(r)] =
          std::min(cur_lo[static_cast<std::size_t>(r)],
                   cur_lo[static_cast<std::size_t>(p)]);
      hi[static_cast<std::size_t>(r)] =
          std::max(cur_hi[static_cast<std::size_t>(r)],
                   cur_hi[static_cast<std::size_t>(p)]);
    }
    vol *= 2.0;
  }
  return dag;
}

namespace {

/// Binomial-tree reduce to rank 0 appended to `dag`; `last[r]` tracks
/// the last step touching rank r's buffer for dependency wiring.
void append_tree_reduce(StepDag& dag, int n, double bytes, std::size_t count,
                        std::vector<int>& last, int round0) {
  int round = round0;
  for (int dist = 1; dist < n; dist *= 2, ++round) {
    for (int r = 0; r + dist < n; r += 2 * dist) {
      Step st;
      st.src = r + dist;
      st.dst = r;
      st.bytes = bytes;
      st.count = count;
      st.reduce = true;
      st.round = round;
      if (last[static_cast<std::size_t>(st.src)] >= 0) {
        st.deps.push_back(last[static_cast<std::size_t>(st.src)]);
      }
      if (last[static_cast<std::size_t>(st.dst)] >= 0) {
        st.deps.push_back(last[static_cast<std::size_t>(st.dst)]);
      }
      const int idx = static_cast<int>(dag.steps.size());
      last[static_cast<std::size_t>(st.src)] = idx;
      last[static_cast<std::size_t>(st.dst)] = idx;
      dag.steps.push_back(std::move(st));
    }
  }
}

/// Binomial-tree broadcast from rank 0 appended to `dag`.
void append_tree_bcast(StepDag& dag, int n, double bytes, std::size_t count,
                       std::vector<int>& last, int round0) {
  int rounds = 0;
  while ((1 << rounds) < n) ++rounds;
  int round = round0;
  for (int dist = 1 << (rounds - 1); dist >= 1; dist /= 2, ++round) {
    for (int r = 0; r + dist < n; r += 2 * dist) {
      Step st;
      st.src = r;
      st.dst = r + dist;
      st.bytes = bytes;
      st.count = count;
      st.reduce = false;
      st.round = round;
      if (last[static_cast<std::size_t>(st.src)] >= 0) {
        st.deps.push_back(last[static_cast<std::size_t>(st.src)]);
      }
      if (last[static_cast<std::size_t>(st.dst)] >= 0) {
        st.deps.push_back(last[static_cast<std::size_t>(st.dst)]);
      }
      const int idx = static_cast<int>(dag.steps.size());
      last[static_cast<std::size_t>(st.src)] = idx;
      last[static_cast<std::size_t>(st.dst)] = idx;
      dag.steps.push_back(std::move(st));
    }
  }
}

}  // namespace

StepDag tree_reduce(int ranks, double bytes, std::size_t count) {
  StepDag dag;
  dag.collective = "reduce";
  dag.algorithm = config::CommAlgorithm::kTree;
  dag.ranks = ranks;
  if (ranks <= 1 || bytes <= 0.0) {
    return dag;
  }
  std::vector<int> last(static_cast<std::size_t>(ranks), -1);
  append_tree_reduce(dag, ranks, bytes, count, last, 0);
  return dag;
}

StepDag tree_bcast(int ranks, double bytes, std::size_t count) {
  StepDag dag;
  dag.collective = "bcast";
  dag.algorithm = config::CommAlgorithm::kTree;
  dag.ranks = ranks;
  if (ranks <= 1 || bytes <= 0.0) {
    return dag;
  }
  std::vector<int> last(static_cast<std::size_t>(ranks), -1);
  append_tree_bcast(dag, ranks, bytes, count, last, 0);
  return dag;
}

StepDag tree_allreduce(int ranks, double bytes, std::size_t count) {
  StepDag dag;
  dag.collective = "allreduce";
  dag.algorithm = config::CommAlgorithm::kTree;
  dag.ranks = ranks;
  if (ranks <= 1 || bytes <= 0.0) {
    return dag;
  }
  int rounds = 0;
  while ((1 << rounds) < ranks) ++rounds;
  std::vector<int> last(static_cast<std::size_t>(ranks), -1);
  append_tree_reduce(dag, ranks, bytes, count, last, 0);
  // The shared last[] makes the first broadcast send depend on the final
  // reduce into rank 0.
  append_tree_bcast(dag, ranks, bytes, count, last, rounds);
  return dag;
}

StepDag linear_gather(int ranks, double bytes_per_rank, std::size_t count) {
  StepDag dag;
  dag.collective = "gather";
  dag.algorithm = config::CommAlgorithm::kTree;
  dag.ranks = ranks;
  if (ranks <= 1 || bytes_per_rank <= 0.0) {
    return dag;
  }
  // No deps: the root's RX lane serializes the arrivals.
  for (int r = 1; r < ranks; ++r) {
    Step st;
    st.src = r;
    st.dst = 0;
    st.bytes = bytes_per_rank;
    st.dst_offset = static_cast<std::size_t>(r) * count;
    st.count = count;
    st.round = 0;
    dag.steps.push_back(std::move(st));
  }
  return dag;
}

StepDag allreduce_dag(config::CommAlgorithm alg, int ranks, double bytes,
                      std::size_t count) {
  switch (alg) {
    case config::CommAlgorithm::kRing:
      return ring_allreduce(ranks, bytes, count);
    case config::CommAlgorithm::kRecursive:
      return rs_ag_allreduce(ranks, bytes, count);
    case config::CommAlgorithm::kTree:
      return tree_allreduce(ranks, bytes, count);
  }
  throw std::runtime_error("allreduce_dag: unknown algorithm");
}

StepDag split_chunks(const StepDag& dag, double max_chunk_bytes) {
  if (max_chunk_bytes <= 0.0) {
    return dag;
  }
  StepDag out;
  out.collective = dag.collective;
  out.algorithm = dag.algorithm;
  out.ranks = dag.ranks;
  // Last sub-step index of each original step, for dependency remapping.
  std::vector<int> last_piece(dag.steps.size(), -1);
  for (std::size_t i = 0; i < dag.steps.size(); ++i) {
    const Step& st = dag.steps[i];
    const int pieces =
        st.bytes > max_chunk_bytes
            ? static_cast<int>(std::ceil(st.bytes / max_chunk_bytes))
            : 1;
    const double piece_bytes = st.bytes / static_cast<double>(pieces);
    for (int j = 0; j < pieces; ++j) {
      Step p = st;
      p.bytes = piece_bytes;
      const std::size_t lo = chunk_bound(st.count, pieces, j);
      p.src_offset = st.src_offset + lo;
      p.dst_offset = st.dst_offset + lo;
      p.count = chunk_bound(st.count, pieces, j + 1) - lo;
      p.deps.clear();
      if (j == 0) {
        for (const int d : st.deps) {
          p.deps.push_back(last_piece[static_cast<std::size_t>(d)]);
        }
      } else {
        p.deps.push_back(static_cast<int>(out.steps.size()) - 1);
      }
      out.steps.push_back(std::move(p));
    }
    last_piece[i] = static_cast<int>(out.steps.size()) - 1;
  }
  return out;
}

// --- scheduling -------------------------------------------------------------

StepScheduler::StepScheduler(const Engine& engine, const StepDag& dag,
                             const RunOptions& opt)
    : engine_(engine),
      dag_(dag),
      opt_(opt),
      faulty_(opt.faults != nullptr && opt.faults->armed()),
      lanes_(opt.epoch) {
  seconds_.reserve(dag.steps.size());
}

double StepScheduler::place_next() {
  const Topology& topo = engine_.topology();
  const int n_nics = topo.n_nics();
  const std::size_t i = placed();
  if (i >= dag_.steps.size()) {
    throw std::runtime_error("StepScheduler: all steps already placed");
  }
  const Step& st = dag_.steps[i];
  sched::LaneOp op;
  double t = topo.step_seconds(st.src, st.dst, st.bytes);
  if (faulty_) {
    // The fault draws come from per-(kind, site) counter streams, so
    // drawing per placement (instead of all up front) reads the exact
    // same values: per-site draw order is the step order either way.
    const std::string edge =
        std::to_string(st.src) + ">" + std::to_string(st.dst);
    const double factor =
        opt_.faults->link_degrade_factor(opt_.site + "/link/" + edge);
    FaultNote note;
    note.step = i;
    if (factor > 1.0) {
      note.extra = t * (factor - 1.0);
      note.site = opt_.site + "/link/" + edge;
      t *= factor;
    }
    note.probe = opt_.faults->chunk_loss(opt_.site + "/chunk/" + edge, t);
    if (note.probe.failures > 0) {
      op.lead = note.probe.penalty;
      if (note.site.empty()) {
        note.site = opt_.site + "/chunk/" + edge;
      }
    }
    if (note.extra > 0.0 || note.probe.failures > 0) {
      notes_.push_back(std::move(note));
    }
  }
  op.seconds = t;
  if (topo.same_node(st.src, st.dst)) {
    op.lanes = {2 * n_nics + 2 * st.src, 2 * n_nics + 2 * st.dst + 1};
  } else {
    op.lanes = {2 * topo.nic_of(st.src), 2 * topo.nic_of(st.dst) + 1};
  }
  op.deps = st.deps;
  seconds_.push_back(t);
  const int idx = lanes_.push(op);
  return lanes_.end(idx);
}

ScheduleResult StepScheduler::finish() {
  if (!done()) {
    throw std::runtime_error("StepScheduler: finish() before all steps");
  }
  const Topology& topo = engine_.topology();
  const int n_nics = topo.n_nics();

  if (opt_.tracer != nullptr) {
    const std::string name = std::string("comm_") + dag_.collective + "_" +
                             to_string(dag_.algorithm);
    for (std::size_t i = 0; i < dag_.steps.size(); ++i) {
      const Step& st = dag_.steps[i];
      const bool intra = topo.same_node(st.src, st.dst);
      if (intra && !opt_.trace_intra) {
        continue;
      }
      const obs::SpanId id = opt_.tracer->record_at(
          name, "comm", lanes_.start(static_cast<int>(i)), seconds_[i],
          /*backend=*/{}, nullptr, /*logged=*/false);
      opt_.tracer->add_counter(id, "bytes", st.bytes);
      opt_.tracer->add_counter(id, "src", st.src);
      opt_.tracer->add_counter(id, "dst", st.dst);
      opt_.tracer->add_counter(id, "round", st.round);
      opt_.tracer->set_stream(
          id, opt_.lane_base +
                  (intra ? n_nics + st.src : topo.nic_of(st.src)));
    }
  }

  if (faulty_) {
    const FaultNote* dead = nullptr;
    for (const FaultNote& note : notes_) {
      if (note.extra > 0.0) {
        opt_.faults->note_straggler(
            note.site, lanes_.start(static_cast<int>(note.step)),
            note.extra);
      }
      if (note.probe.failures > 0) {
        // The retry penalty sits on the step's lanes just ahead of it.
        opt_.faults->note_async_retries(
            fault::FaultKind::kChunkLoss, note.site,
            lanes_.start(static_cast<int>(note.step)) - note.probe.penalty,
            note.probe);
      }
      if (note.probe.persistent && dead == nullptr) {
        dead = &note;
      }
    }
    if (dead != nullptr) {
      throw fault::PersistentFaultError(fault::FaultKind::kChunkLoss,
                                        dead->site, dead->probe.failures);
    }
  }

  ScheduleResult out;
  out.start.resize(dag_.steps.size());
  out.end.resize(dag_.steps.size());
  for (std::size_t i = 0; i < dag_.steps.size(); ++i) {
    out.start[i] = lanes_.start(static_cast<int>(i));
    out.end[i] = lanes_.end(static_cast<int>(i));
  }
  out.makespan = lanes_.makespan() - opt_.epoch;
  return out;
}

ScheduleResult Engine::schedule(const StepDag& dag,
                                const RunOptions& opt) const {
  StepScheduler cursor(*this, dag, opt);
  while (!cursor.done()) {
    cursor.place_next();
  }
  return cursor.finish();
}

double Engine::allreduce_seconds(double bytes, config::CommAlgorithm alg,
                                 const RunOptions& opt) const {
  return schedule(split_chunks(allreduce_dag(alg, topo_.n_ranks(), bytes),
                               opt.max_chunk_bytes),
                  opt)
      .makespan;
}

double Engine::bcast_seconds(double bytes, const RunOptions& opt) const {
  return schedule(
             split_chunks(tree_bcast(topo_.n_ranks(), bytes),
                          opt.max_chunk_bytes),
             opt)
      .makespan;
}

double Engine::reduce_seconds(double bytes, const RunOptions& opt) const {
  return schedule(
             split_chunks(tree_reduce(topo_.n_ranks(), bytes),
                          opt.max_chunk_bytes),
             opt)
      .makespan;
}

double Engine::gather_seconds(double bytes_per_rank,
                              const RunOptions& opt) const {
  return schedule(
             split_chunks(linear_gather(topo_.n_ranks(), bytes_per_rank),
                          opt.max_chunk_bytes),
             opt)
      .makespan;
}

// --- functional execution ---------------------------------------------------

void Engine::execute_payload(const StepDag& dag,
                             std::vector<std::vector<double>>& bufs) {
  for (const Step& st : dag.steps) {
    if (st.count == 0) {
      continue;
    }
    if (st.src < 0 || st.dst < 0 ||
        static_cast<std::size_t>(st.src) >= bufs.size() ||
        static_cast<std::size_t>(st.dst) >= bufs.size() || st.src == st.dst) {
      throw std::invalid_argument("execute_payload: step rank out of range");
    }
    const std::vector<double>& src = bufs[static_cast<std::size_t>(st.src)];
    std::vector<double>& dst = bufs[static_cast<std::size_t>(st.dst)];
    if (st.src_offset + st.count > src.size() ||
        st.dst_offset + st.count > dst.size()) {
      throw std::invalid_argument(
          "execute_payload: step span exceeds rank buffer");
    }
    if (st.reduce) {
      for (std::size_t i = 0; i < st.count; ++i) {
        dst[st.dst_offset + i] += src[st.src_offset + i];
      }
    } else {
      for (std::size_t i = 0; i < st.count; ++i) {
        dst[st.dst_offset + i] = src[st.src_offset + i];
      }
    }
  }
}

std::size_t Engine::check_world(
    const std::vector<std::vector<double>>& bufs) const {
  if (static_cast<int>(bufs.size()) != topo_.n_ranks()) {
    throw std::invalid_argument(
        "comm::Engine: expected " + std::to_string(topo_.n_ranks()) +
        " rank buffers, got " + std::to_string(bufs.size()));
  }
  const std::size_t m = bufs.front().size();
  for (const std::vector<double>& b : bufs) {
    if (b.size() != m) {
      throw std::invalid_argument(
          "comm::Engine: rank buffers must have equal length");
    }
  }
  return m;
}

std::vector<std::vector<double>> Engine::allreduce(
    const std::vector<std::vector<double>>& bufs, config::CommAlgorithm alg,
    ScheduleResult* sched_out, const RunOptions& opt) const {
  const std::size_t m = check_world(bufs);
  const StepDag dag = allreduce_dag(alg, topo_.n_ranks(),
                                    static_cast<double>(m) * 8.0, m);
  ScheduleResult placed = schedule(dag, opt);
  std::vector<std::vector<double>> out = bufs;
  execute_payload(dag, out);
  if (sched_out != nullptr) {
    *sched_out = std::move(placed);
  }
  return out;
}

std::vector<std::vector<double>> Engine::bcast(
    const std::vector<std::vector<double>>& bufs, ScheduleResult* sched_out,
    const RunOptions& opt) const {
  const std::size_t m = check_world(bufs);
  const StepDag dag =
      tree_bcast(topo_.n_ranks(), static_cast<double>(m) * 8.0, m);
  ScheduleResult placed = schedule(dag, opt);
  std::vector<std::vector<double>> out = bufs;
  execute_payload(dag, out);
  if (sched_out != nullptr) {
    *sched_out = std::move(placed);
  }
  return out;
}

std::vector<double> Engine::gather(
    const std::vector<std::vector<double>>& bufs, ScheduleResult* sched_out,
    const RunOptions& opt) const {
  const std::size_t m = check_world(bufs);
  const StepDag dag =
      linear_gather(topo_.n_ranks(), static_cast<double>(m) * 8.0, m);
  ScheduleResult placed = schedule(dag, opt);
  std::vector<std::vector<double>> work = bufs;
  // The root's own block is already at offset 0; make room for the rest.
  work.front().resize(static_cast<std::size_t>(topo_.n_ranks()) * m, 0.0);
  execute_payload(dag, work);
  if (sched_out != nullptr) {
    *sched_out = std::move(placed);
  }
  return std::move(work.front());
}

}  // namespace toast::comm
