// Interpreter vs compiled fused-loop executor (schema
// toastcase-bench-executor-v1).
//
// The mini-XLA has two executors for the same Compiled module: the
// fused-loop executable (xla/compiled.cpp), which every jax slot runs
// on, and the per-op interpreter (xla/eval.cpp), kept as its oracle and
// selected with Runtime::set_executor.  This benchmark drives the real
// JAX kernel ports through both, measuring actual wall-clock time of the value
// computation — the one place this repository measures host time rather
// than the virtual clock — and asserting the compiled executor's
// contract: bitwise-identical products, bitwise-identical TimeLog, and
// an identical virtual-time trajectory, including under a pinned
// persistent-launch fault plan.
//
//   fig4 rows:  scan_map alone across a sample-count sweep
//   fig5 row:   the full kernel chain (pointing -> pixels -> weights ->
//               scan -> noise -> accumulation -> template projection)
//   chaos row:  scan_map under a probability-1 launch fault; both
//               executors must fail identically (same exception, same
//               fault counters, untouched host products)
//
// scripts/check_bench.py --executor gates CI on products/TimeLog parity
// and a minimum compiled-over-interpreter speedup on the fig5 chain.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/context.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "xla/compiled.hpp"

namespace core = toast::core;
namespace jax = toast::kernels::jax;
namespace xla = toast::xla;
using core::Backend;
using core::Interval;

namespace {

constexpr double kPi = 3.14159265358979323846;

// --- workload ---------------------------------------------------------------

/// Synthetic observation slice: inputs plus every buffer the kernel
/// chain mutates.  Copy-constructed per executor mode so both modes see
/// identical starting state.
struct Workload {
  std::int64_t n_det = 4;
  std::int64_t n_samp = 0;
  std::int64_t nnz = 3;
  std::int64_t nside = 64;
  std::int64_t step_length = 256;
  std::vector<Interval> intervals;

  std::vector<double> fp_quats;
  std::vector<double> boresight;
  std::vector<std::uint8_t> flags;
  std::vector<double> hwp;
  std::vector<double> pol_eff;
  std::vector<double> sky_map;
  std::vector<double> det_scale;
  std::vector<double> det_weights;

  // Mutated by the chain (the products compared across modes).
  std::vector<double> quats;
  std::vector<std::int64_t> pixels;
  std::vector<double> weights;
  std::vector<double> signal;
  std::vector<double> zmap;
  std::vector<double> amplitudes;

  std::int64_t n_pix() const { return 12 * nside * nside; }
  std::int64_t n_amp_det() const {
    return (n_samp + step_length - 1) / step_length;
  }

  explicit Workload(std::int64_t samples) : n_samp(samples) {
    // Realistic interval structure: ~1000-sample scans with gaps.
    for (std::int64_t start = 0; start < n_samp;) {
      const std::int64_t stop = std::min(start + 997, n_samp);
      intervals.push_back({start, stop});
      start = stop + 31;
    }

    std::mt19937 gen(20230923);
    std::normal_distribution<double> nd(0.0, 1.0);
    std::uniform_real_distribution<double> ud(0.0, 1.0);
    auto unit_quat = [&](double* q) {
      double n2 = 0.0;
      for (int c = 0; c < 4; ++c) {
        q[c] = nd(gen);
        n2 += q[c] * q[c];
      }
      const double inv = 1.0 / std::sqrt(n2);
      for (int c = 0; c < 4; ++c) {
        q[c] *= inv;
      }
    };

    fp_quats.resize(static_cast<std::size_t>(4 * n_det));
    for (std::int64_t d = 0; d < n_det; ++d) {
      unit_quat(&fp_quats[static_cast<std::size_t>(4 * d)]);
    }
    boresight.resize(static_cast<std::size_t>(4 * n_samp));
    for (std::int64_t s = 0; s < n_samp; ++s) {
      unit_quat(&boresight[static_cast<std::size_t>(4 * s)]);
    }
    flags.assign(static_cast<std::size_t>(n_samp), 0);
    for (std::int64_t s = 0; s < n_samp; s += 17) {
      flags[static_cast<std::size_t>(s)] = 1;
    }
    hwp.resize(static_cast<std::size_t>(n_samp));
    for (auto& v : hwp) {
      v = 2.0 * kPi * ud(gen);
    }
    pol_eff.assign(static_cast<std::size_t>(n_det), 1.0);
    pol_eff[0] = 0.95;
    sky_map.resize(static_cast<std::size_t>(n_pix() * nnz));
    for (auto& v : sky_map) {
      v = nd(gen);
    }
    det_scale.assign(static_cast<std::size_t>(n_det), 1.0);
    det_weights.assign(static_cast<std::size_t>(n_det), 1.0);
    for (std::int64_t d = 0; d < n_det; ++d) {
      det_scale[static_cast<std::size_t>(d)] =
          1.0 + 0.01 * static_cast<double>(d);
      det_weights[static_cast<std::size_t>(d)] =
          1.0 / (1.0 + 0.1 * static_cast<double>(d));
    }

    quats.assign(static_cast<std::size_t>(4 * n_det * n_samp), 0.0);
    // Realistic pointing products so the standalone fig4 rows exercise
    // the gather/scatter paths (the chain row overwrites these anyway).
    // Every 31st pixel is flagged (-1), as in the unit-test fixtures.
    pixels.resize(static_cast<std::size_t>(n_det * n_samp));
    std::uniform_int_distribution<std::int64_t> pd(0, n_pix() - 1);
    for (std::size_t i = 0; i < pixels.size(); ++i) {
      pixels[i] = (i % 31 == 0) ? -1 : pd(gen);
    }
    weights.resize(static_cast<std::size_t>(nnz * n_det * n_samp));
    for (auto& v : weights) {
      v = nd(gen);
    }
    signal.resize(static_cast<std::size_t>(n_det * n_samp));
    for (auto& v : signal) {
      v = nd(gen);
    }
    zmap.assign(static_cast<std::size_t>(n_pix() * nnz), 0.0);
    amplitudes.assign(static_cast<std::size_t>(n_det * n_amp_det()), 0.0);
  }
};

core::ExecContext make_ctx(const toast::fault::FaultPlan& plan) {
  core::ExecConfig cfg;
  cfg.backend = Backend::kJax;
  cfg.fault_plan = plan;
  return core::ExecContext(cfg);
}

void run_scan_map(Workload& w, core::ExecContext& ctx) {
  jax::scan_map(w.sky_map.data(), w.n_pix(), w.nnz, w.pixels.data(),
                w.weights.data(), 1.0, w.intervals, w.n_det, w.n_samp,
                w.signal.data(), ctx);
}

void run_chain(Workload& w, core::ExecContext& ctx) {
  jax::pointing_detector(w.fp_quats.data(), w.boresight.data(),
                         w.flags.data(), 1, w.intervals, w.n_det, w.n_samp,
                         w.quats.data(), ctx);
  jax::pixels_healpix(w.quats.data(), w.flags.data(), 1, w.nside,
                      /*nest=*/true, w.intervals, w.n_det, w.n_samp,
                      w.pixels.data(), ctx);
  jax::stokes_weights_iqu(w.quats.data(), w.hwp.data(), w.pol_eff.data(),
                          w.intervals, w.n_det, w.n_samp, w.weights.data(),
                          ctx);
  run_scan_map(w, ctx);
  jax::noise_weight(w.det_weights.data(), w.intervals, w.n_det, w.n_samp,
                    w.signal.data(), ctx);
  jax::build_noise_weighted(w.pixels.data(), w.weights.data(), w.n_pix(),
                            w.nnz, w.signal.data(), w.det_scale.data(),
                            w.flags.data(), 1, w.intervals, w.n_det,
                            w.n_samp, w.zmap.data(), ctx);
  jax::template_offset_project_signal(w.step_length, w.signal.data(),
                                      w.intervals, w.n_det, w.n_samp,
                                      w.amplitudes.data(), w.n_amp_det(),
                                      ctx);
  jax::template_offset_add_to_signal(w.step_length, w.amplitudes.data(),
                                     w.n_amp_det(), w.intervals, w.n_det,
                                     w.n_samp, w.signal.data(), ctx);
}

// --- measurement ------------------------------------------------------------

bool logs_equal(const toast::accel::TimeLog& a,
                const toast::accel::TimeLog& b) {
  const auto ca = a.categories();
  if (ca != b.categories()) {
    return false;
  }
  for (const auto& c : ca) {
    if (a.seconds(c) != b.seconds(c) || a.calls(c) != b.calls(c)) {
      return false;
    }
  }
  return true;
}

template <typename T>
bool bits_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

bool products_equal(const Workload& a, const Workload& b) {
  return bits_equal(a.quats, b.quats) && bits_equal(a.pixels, b.pixels) &&
         bits_equal(a.weights, b.weights) &&
         bits_equal(a.signal, b.signal) && bits_equal(a.zmap, b.zmap) &&
         bits_equal(a.amplitudes, b.amplitudes);
}

struct ModeRun {
  Workload workload;
  double wall_s = 0.0;       // timed repetitions only (JIT warm)
  double virtual_s = 0.0;    // ctx.elapsed() after all calls
  toast::accel::TimeLog log;

  ModeRun(const Workload& w, xla::ExecMode mode, int reps,
          void (*body)(Workload&, core::ExecContext&))
      : workload(w) {
    // Cold caches per mode: both executors pay the same compile charge,
    // so their virtual timelines are comparable end to end.
    jax::clear_jit_caches();
    auto ctx = make_ctx({});
    ctx.jax().set_executor(mode);  // the interpreter is the oracle switch
    body(workload, ctx);  // warm: trace + compile (+ fused lowering)
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
      body(workload, ctx);
    }
    const auto t1 = std::chrono::steady_clock::now();
    wall_s = std::chrono::duration<double>(t1 - t0).count();
    virtual_s = ctx.elapsed();
    log = ctx.log();
  }
};

struct Row {
  std::string name;
  std::int64_t n_samp = 0;
  int reps = 0;
  double interpreted_wall_s = 0.0;
  double compiled_wall_s = 0.0;
  double speedup = 0.0;
  bool products_equal = false;
  bool timelog_equal = false;
  bool vclock_equal = false;
};

Row measure(const std::string& name, std::int64_t n_samp, int reps,
            void (*body)(Workload&, core::ExecContext&)) {
  const Workload base(n_samp);
  const ModeRun interp(base, xla::ExecMode::kInterpreted, reps, body);
  const ModeRun compiled(base, xla::ExecMode::kCompiled, reps, body);
  Row row;
  row.name = name;
  row.n_samp = n_samp;
  row.reps = reps;
  row.interpreted_wall_s = interp.wall_s;
  row.compiled_wall_s = compiled.wall_s;
  row.speedup = compiled.wall_s > 0.0 ? interp.wall_s / compiled.wall_s : 0.0;
  row.products_equal = products_equal(interp.workload, compiled.workload);
  row.timelog_equal = logs_equal(interp.log, compiled.log);
  row.vclock_equal = interp.virtual_s == compiled.virtual_s;
  std::printf("%-24s %10.4f s %10.4f s %7.2fx  %s %s %s\n", name.c_str(),
              row.interpreted_wall_s, row.compiled_wall_s, row.speedup,
              row.products_equal ? "products=OK" : "products=DIFF",
              row.timelog_equal ? "timelog=OK" : "timelog=DIFF",
              row.vclock_equal ? "vclock=OK" : "vclock=DIFF");
  return row;
}

// --- chaos parity -----------------------------------------------------------

struct ChaosResult {
  std::string plan;
  bool both_failed = false;
  bool counters_equal = false;
  bool products_equal = false;
  bool vclock_equal = false;
  double fault_events = 0.0;
};

ChaosResult run_chaos(const toast::fault::FaultPlan& plan,
                      const std::string& plan_name) {
  struct Outcome {
    Workload workload{4096};
    bool failed = false;
    std::map<std::string, double> counters;
    double virtual_s = 0.0;
  };
  const auto run = [&](xla::ExecMode mode) {
    Outcome o;
    jax::clear_jit_caches();
    auto ctx = make_ctx(plan);
    ctx.jax().set_executor(mode);
    try {
      run_scan_map(o.workload, ctx);
    } catch (const toast::fault::PersistentFaultError&) {
      o.failed = true;
    }
    o.counters = ctx.faults().counters();
    o.virtual_s = ctx.elapsed();
    return o;
  };
  const Outcome interp = run(xla::ExecMode::kInterpreted);
  const Outcome compiled = run(xla::ExecMode::kCompiled);
  ChaosResult r;
  r.plan = plan_name;
  r.both_failed = interp.failed && compiled.failed;
  r.counters_equal = interp.counters == compiled.counters;
  r.products_equal = products_equal(interp.workload, compiled.workload);
  r.vclock_equal = interp.virtual_s == compiled.virtual_s;
  for (const auto& kv : interp.counters) {
    r.fault_events += kv.second;
  }
  std::printf(
      "chaos(%s): failed=%s/%s counters=%s products=%s vclock=%s\n",
      plan_name.c_str(), interp.failed ? "yes" : "no",
      compiled.failed ? "yes" : "no", r.counters_equal ? "OK" : "DIFF",
      r.products_equal ? "OK" : "DIFF", r.vclock_equal ? "OK" : "DIFF");
  return r;
}

// --- fused-lowering statistics ----------------------------------------------

struct FusedStats {
  long loops = 0;
  long steps = 0;
  long materialized = 0;
  long instructions = 0;
};

/// Lowering statistics of a representative module (a scan_map-shaped
/// gather/multiply/mask/scatter graph): how far the fused executable
/// compresses the instruction stream.
FusedStats representative_fused_stats() {
  xla::Jit fn("bench_executor_repr", [](const std::vector<xla::Array>& in) {
    using namespace xla;
    const Array pix = gather(in[0], in[1]);
    const Array ok = ge(pix, constant_i64(0));
    const Array safe = maximum(pix, constant_i64(0));
    Array value = constant(0.0);
    for (int k = 0; k < 3; ++k) {
      const Array idx =
          add(mul(safe, constant_i64(3)), constant_i64(k));
      value = value + gather(in[2], idx) * gather(in[3], idx);
    }
    const Array upd = gather(in[4], in[1]) + value;
    return std::vector<Array>{
        scatter_set(in[4], select(ok, in[1], constant_i64(-1)), upd)};
  });
  toast::accel::SimDevice device;
  toast::accel::VirtualClock clock;
  toast::obs::Tracer tracer(&clock);
  xla::Runtime rt(device, clock, tracer);

  const std::int64_t n = 512;
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    idx[static_cast<std::size_t>(i)] = (i * 7) % n;
  }
  std::vector<double> table(static_cast<std::size_t>(3 * n), 1.5);
  std::vector<xla::Literal> args;
  args.push_back(
      xla::Literal::from_i64(xla::Shape{n}, idx));  // pix table
  args.push_back(xla::Literal::from_i64(xla::Shape{n}, idx));
  args.push_back(xla::Literal::from_f64(xla::Shape{3 * n}, table));
  args.push_back(xla::Literal::from_f64(xla::Shape{3 * n}, table));
  args.push_back(xla::Literal::from_f64(
      xla::Shape{n}, std::vector<double>(static_cast<std::size_t>(n), 0.0)));
  fn.call(rt, args);
  const xla::Compiled* compiled = fn.lookup(args);
  if (compiled == nullptr) {
    throw std::logic_error("bench_executor: representative module missing");
  }
  xla::execute_compiled(*compiled, args);
  FusedStats s;
  s.loops = static_cast<long>(compiled->fused->loop_count());
  s.steps = static_cast<long>(compiled->fused->step_count());
  s.materialized = static_cast<long>(compiled->fused->materialized_count());
  s.instructions = static_cast<long>(compiled->module.size());
  return s;
}

// --- output -----------------------------------------------------------------

void write_json(const std::string& path, const std::vector<Row>& rows,
                const ChaosResult& chaos, const FusedStats& fused) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path);
  }
  toast::bench::JsonWriter w(out);
  w.obj_open();
  w.kv("schema", "toastcase-bench-executor-v1");
  w.kv("benchmark", "bench_executor");
  w.arr_open("rows");
  for (const auto& r : rows) {
    w.obj_open();
    w.kv("name", r.name);
    w.kv("n_samp", static_cast<long>(r.n_samp));
    w.kv("reps", r.reps);
    w.kv("interpreted_wall_s", r.interpreted_wall_s);
    w.kv("compiled_wall_s", r.compiled_wall_s);
    w.kv("speedup", r.speedup);
    w.kv("products_equal", r.products_equal);
    w.kv("timelog_equal", r.timelog_equal);
    w.kv("vclock_equal", r.vclock_equal);
    w.obj_close();
  }
  w.arr_close();
  w.obj_open("chaos");
  w.kv("plan", chaos.plan);
  w.kv("both_failed", chaos.both_failed);
  w.kv("counters_equal", chaos.counters_equal);
  w.kv("products_equal", chaos.products_equal);
  w.kv("vclock_equal", chaos.vclock_equal);
  w.kv("fault_events", chaos.fault_events);
  w.obj_close();
  w.obj_open("fused");
  w.kv("loops", fused.loops);
  w.kv("steps", fused.steps);
  w.kv("materialized", fused.materialized);
  w.kv("instructions", fused.instructions);
  w.obj_close();
  w.obj_close();
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = toast::bench::parse_options(argc, argv);
  // Chaos parity: the pinned plan (or --faults) must hit both executors
  // identically.  Loaded before any timed row runs, so a bad artifact
  // exits 2 at once.
  toast::fault::FaultPlan plan;
  std::string plan_name = "builtin_launch_persistent";
  if (!opt.faults_path.empty()) {
    plan = toast::bench::load_artifact(argv[0], opt.faults_path,
                                       toast::fault::FaultPlan::load_file);
    plan_name = opt.faults_path;
  } else {
    plan.seed = 7;
    toast::fault::FaultRule rule;
    rule.kind = toast::fault::FaultKind::kLaunch;
    rule.probability = 1.0;
    plan.rules.push_back(rule);
  }
  toast::bench::print_header(
      "Executor: interpreter vs compiled fused loops (real wall clock)");
  std::printf("%-24s %12s %12s %8s\n", "workload", "interpreted",
              "compiled", "speedup");

  std::vector<Row> rows;
  // fig4-style size sweep on the scatter-heavy kernel alone.
  for (const std::int64_t n : {4096, 16384, 65536}) {
    rows.push_back(measure("fig4_scan_map_" + std::to_string(n), n, 4,
                           &run_scan_map));
  }
  // fig5: the full chain, the workload the paper's headline numbers use.
  rows.push_back(measure("fig5_chain", 16384, 2, &run_chain));

  const ChaosResult chaos = run_chaos(plan, plan_name);

  const FusedStats fused = representative_fused_stats();
  std::printf(
      "fused lowering: %ld instructions -> %ld loops, %ld steps, "
      "%ld materialized\n",
      fused.instructions, fused.loops, fused.steps, fused.materialized);

  if (!opt.json_path.empty()) {
    write_json(opt.json_path, rows, chaos, fused);
    std::printf("wrote %s\n", opt.json_path.c_str());
  }
  return 0;
}
