// Collective-communication sweep: the step-scheduled comm engine vs the
// closed-form CommModel across ranks x message size x algorithm.
//
// The engine's ring allreduce on the uniform topology must reproduce the
// closed form BIT FOR BIT (the model is the engine's test oracle) — the
// JSON carries a `ring_equals_formula` flag per point and
// scripts/check_bench.py --comm fails the build if any point disagrees.
// The sweep also exercises the algorithm trade-offs the engine models:
// recursive halving beats the ring on bandwidth, the binomial tree wins
// at small messages, and packed cluster topologies contend on shared
// NICs.
//
// --json <path>: machine-readable results (schema toastcase-bench-comm-v1).
// --trace <path>: Chrome trace of one engine ring allreduce (per-rank NIC
//   lanes; `toast-trace comm` summarizes lane occupancy).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "accel/sim_device.hpp"
#include "bench_util.hpp"
#include "comm/engine.hpp"
#include "fault/fault.hpp"
#include "mpisim/comm.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace comm = toast::comm;
namespace fault = toast::fault;
using toast::config::CommAlgorithm;
using comm::Engine;
using comm::Topology;

namespace {

struct Point {
  int ranks = 0;
  double bytes = 0.0;
  double formula_s = 0.0;       // CommModel closed form
  double ring_s = 0.0;          // engine, uniform topology
  double rsag_s = 0.0;          // reduce-scatter + all-gather
  double tree_s = 0.0;          // binomial tree
  double cluster_rsag_s = 0.0;  // rs+ag on the packed cluster topology
  bool ring_equals_formula = false;
};

struct Determinism {
  bool repeat_identical = false;   // same schedule twice, bitwise
  bool chaos_deterministic = false;  // pinned fault plan twice, bitwise
  bool chaos_slower = false;       // degraded links cost time
};

fault::FaultPlan chaos_plan() {
  fault::FaultPlan plan;
  plan.seed = 2718;
  fault::FaultRule rule;
  rule.kind = fault::FaultKind::kLinkDegrade;
  rule.site = "link";
  rule.probability = 0.3;
  rule.factor = 3.0;
  plan.rules = {rule};
  return plan;
}

Determinism run_determinism() {
  Determinism d;
  const Engine engine(Topology::uniform(16));
  const auto dag = comm::ring_allreduce(16, 1.0e6);
  const auto a = engine.schedule(dag);
  const auto b = engine.schedule(dag);
  d.repeat_identical =
      a.makespan == b.makespan && a.start == b.start && a.end == b.end;

  // Pinned chaos plan: degraded links slow the collective, and the same
  // seed reproduces the exact same schedule.
  const auto run_chaos = [&]() {
    toast::accel::VirtualClock clock;
    toast::obs::Tracer tracer(&clock);
    fault::FaultInjector inj(chaos_plan(), &clock, &tracer);
    comm::RunOptions opt;
    opt.faults = &inj;
    return engine.schedule(dag, opt).makespan;
  };
  const double chaos_a = run_chaos();
  const double chaos_b = run_chaos();
  d.chaos_deterministic = chaos_a == chaos_b;
  d.chaos_slower = chaos_a > a.makespan;
  return d;
}

void write_json(const std::string& path, const std::vector<Point>& points,
                const Determinism& det) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  toast::bench::JsonWriter w(out);
  w.obj_open();
  w.kv("schema", "toastcase-bench-comm-v1");
  w.kv("benchmark", "comm");
  w.arr_open("points");
  for (const auto& p : points) {
    w.obj_open();
    w.kv("ranks", p.ranks);
    w.kv("bytes", p.bytes);
    w.kv("formula_s", p.formula_s);
    w.kv("ring_s", p.ring_s);
    w.kv("rsag_s", p.rsag_s);
    w.kv("tree_s", p.tree_s);
    w.kv("cluster_rsag_s", p.cluster_rsag_s);
    w.kv("ring_equals_formula", p.ring_equals_formula);
    w.obj_close();
  }
  w.arr_close();
  w.obj_open("determinism");
  w.kv("repeat_identical", det.repeat_identical);
  w.kv("chaos_deterministic", det.chaos_deterministic);
  w.kv("chaos_slower", det.chaos_slower);
  w.obj_close();
  w.obj_close();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = toast::bench::parse_options(argc, argv);
  toast::bench::print_header(
      "Collective engine sweep: ranks x size x algorithm vs closed form");

  const toast::mpisim::CommModel model;  // default slingshot network
  const std::vector<int> rank_grid = {2, 4, 8, 16, 32, 64, 128};
  const std::vector<double> byte_grid = {8.0e3, 1.0e6, 75497472.0};

  std::vector<Point> points;
  std::printf("%6s %12s %12s %12s %12s %12s %12s %8s\n", "ranks", "bytes",
              "formula", "ring", "rs+ag", "tree", "cluster", "ring==");
  for (const int ranks : rank_grid) {
    const Engine uniform(Topology::uniform(ranks));
    const Engine cluster(
        Topology::cluster(ranks, std::min(ranks, 16)));
    for (const double bytes : byte_grid) {
      Point p;
      p.ranks = ranks;
      p.bytes = bytes;
      p.formula_s = model.allreduce_seconds(bytes, ranks);
      p.ring_s = uniform.allreduce_seconds(bytes, CommAlgorithm::kRing);
      p.rsag_s = uniform.allreduce_seconds(bytes, CommAlgorithm::kRecursive);
      p.tree_s = uniform.allreduce_seconds(bytes, CommAlgorithm::kTree);
      p.cluster_rsag_s =
          cluster.allreduce_seconds(bytes, CommAlgorithm::kRecursive);
      p.ring_equals_formula = p.ring_s == p.formula_s;
      std::printf("%6d %12.0f %12.4g %12.4g %12.4g %12.4g %12.4g %8s\n",
                  p.ranks, p.bytes, p.formula_s, p.ring_s, p.rsag_s,
                  p.tree_s, p.cluster_rsag_s,
                  p.ring_equals_formula ? "yes" : "NO");
      points.push_back(p);
    }
  }

  const Determinism det = run_determinism();
  std::printf(
      "\ndeterminism: repeat %s, pinned chaos %s (%s than clean)\n",
      det.repeat_identical ? "identical" : "DIVERGED",
      det.chaos_deterministic ? "identical" : "DIVERGED",
      det.chaos_slower ? "slower" : "NOT slower");

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, points, det);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    // One traced ring allreduce: every chunk transfer lands on its
    // source/destination NIC lanes.
    toast::accel::VirtualClock clock;
    toast::obs::Tracer tracer(&clock);
    const Engine engine(Topology::uniform(16));
    comm::RunOptions topt;
    topt.tracer = &tracer;
    engine.schedule(comm::ring_allreduce(16, 1.0e6), topt);
    toast::obs::write_chrome_trace_file(tracer.spans(), opt.trace_path,
                                        "bench_comm");
    std::printf("wrote %s\n", opt.trace_path.c_str());
  }
  return 0;
}
