#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "async/lower.hpp"
#include "bench_model/calibration.hpp"
#include "comm/engine.hpp"
#include "core/context.hpp"
#include "core/operator.hpp"
#include "core/pipeline.hpp"
#include "digest.hpp"
#include "kernels/jax.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace perfbench {

namespace tc = toast::core;
namespace sim = toast::sim;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// The eight kernels with an XLA port (paper Figure 6).
constexpr const char* kXlaKernels[] = {
    "pointing_detector",
    "pixels_healpix",
    "stokes_weights_IQU",
    "scan_map",
    "noise_weight",
    "build_noise_weighted",
    "template_offset_add_to_signal",
    "template_offset_project_signal",
};

bool is_xla_kernel(const std::string& name) {
  return std::find(std::begin(kXlaKernels), std::end(kXlaKernels), name) !=
         std::end(kXlaKernels);
}

bool is_sim_op(const std::string& name) {
  return name == "synth_sky" || name == "sim_noise";
}

bool is_xla_slot(const std::string& slot) {
  return slot == "jax" || slot == "jax-cpu";
}

/// Host time of operator exec() calls, per operator name and in total.
struct OpProbe {
  std::map<std::string, double> by_op;
  double pending = 0.0;  ///< op seconds since the last take()
  double xla_pending = 0.0;
  std::string slot;
  bool tamper = false;

  double take() { return std::exchange(pending, 0.0); }
};

/// Timing decorator: forwards the whole Operator interface unchanged and
/// times exec() on the host clock.
class TimedOp final : public tc::Operator {
 public:
  TimedOp(std::shared_ptr<tc::Operator> inner, OpProbe& probe)
      : inner_(std::move(inner)), name_(inner_->name()), probe_(probe) {}

  std::string name() const override { return name_; }
  bool supports_accel() const override { return inner_->supports_accel(); }
  std::vector<std::string> requires_fields() const override {
    return inner_->requires_fields();
  }
  std::vector<std::string> provides_fields() const override {
    return inner_->provides_fields();
  }
  void ensure_fields(tc::Observation& ob) override {
    inner_->ensure_fields(ob);
  }
  void exec(tc::Observation& ob, tc::ExecContext& ctx, tc::AccelStore* accel,
            tc::Backend backend) override {
    const double t0 = now_s();
    inner_->exec(ob, ctx, accel, backend);
    const double dt = now_s() - t0;
    probe_.by_op[name_] += dt;
    probe_.pending += dt;
    if (is_xla_slot(probe_.slot) && is_xla_kernel(name_)) {
      probe_.xla_pending += dt;
    }
    if (probe_.tamper && name_ == "sim_noise") {
      ob.field(tc::fields::kSignal).f64()[0] += 1.0;
    }
  }

 private:
  std::shared_ptr<tc::Operator> inner_;
  std::string name_;
  OpProbe& probe_;
};

/// Rebuild `base` with every operator wrapped in TimedOp.
tc::Pipeline decorate(const tc::Pipeline& base, OpProbe& probe) {
  std::vector<std::shared_ptr<tc::Operator>> ops;
  for (const auto& op : base.operators()) {
    ops.push_back(std::make_shared<TimedOp>(op, probe));
  }
  tc::Pipeline p(std::move(ops), base.schedule().staging.mode);
  p.set_schedule(base.schedule());
  p.set_outputs(base.outputs());
  return p;
}

/// Attribute the probe's per-operator seconds to the layer metrics.
void attribute_ops(const OpProbe& probe, Layers& L) {
  for (const auto& [name, s] : probe.by_op) {
    if (is_sim_op(name)) {
      L["sim.busy_s"] += s;
    } else if (is_xla_slot(probe.slot)) {
      // The unported host operators of a jax slot (a negligible share)
      // belong to no XLA kernel and are left out.
      if (is_xla_kernel(name)) {
        L["xla.busy_s"] += s;
        L["xla." + name + ".busy_s"] += s;
      }
    } else {
      L["kernels." + probe.slot + ".busy_s"] += s;
    }
  }
}

/// cold-observation excess of one job: first observation's XLA seconds
/// minus the mean of the later ones.
void note_cold_excess(const std::vector<double>& per_obs, Layers& L) {
  if (per_obs.size() < 2) {
    return;
  }
  double later = 0.0;
  for (std::size_t i = 1; i < per_obs.size(); ++i) {
    later += per_obs[i];
  }
  L["xla.cold_obs_excess_s"] +=
      per_obs[0] - later / static_cast<double>(per_obs.size() - 1);
}

/// Simulate the rank's observations exactly as the job does.
std::vector<tc::Observation> simulate(
    const toast::bench_model::ProblemSize& p, std::uint64_t seed,
    Layers* L) {
  const double t0 = now_s();
  const auto fp = sim::hex_focalplane(p.actual_n_detectors, 37.0);
  std::vector<tc::Observation> obs;
  for (int ob = 0; ob < p.observations_per_proc; ++ob) {
    sim::ScanParams scan;
    scan.spin_period = static_cast<double>(p.actual_n_samples) / 37.0 / 6.0;
    obs.push_back(sim::simulate_satellite(
        "obs" + std::to_string(ob), fp, p.actual_n_samples, scan,
        seed + static_cast<std::uint64_t>(ob)));
  }
  if (L != nullptr) {
    (*L)["sim.busy_s"] += now_s() - t0;
    (*L)["sim.calls"] += 1.0 + static_cast<double>(obs.size());
  }
  return obs;
}

/// Run `base` over every observation with each operator wrapped in
/// TimedOp, accumulating operator, self and plan-cache metrics.
void run_decorated(const tc::Pipeline& base, std::vector<tc::Observation>& obs,
                   tc::ExecContext& ctx, const std::string& slot, Drive drive,
                   bool tamper, Layers& L) {
  double t0 = now_s();
  OpProbe probe;
  probe.slot = slot;
  probe.tamper = tamper;
  tc::Pipeline pipeline = decorate(base, probe);
  L["sim.pipeline_build_s"] += now_s() - t0;

  tc::PlanStats graph_stats;
  std::vector<double> xla_per_obs;
  for (auto& ob : obs) {
    t0 = now_s();
    if (drive == Drive::kOverlap) {
      toast::async::Options aopt;
      aopt.mode = toast::async::Mode::kOverlap;
      toast::async::run_plan_async(pipeline, ob, ctx, graph_stats, aopt);
      L["async.graph_self_s"] += (now_s() - t0) - probe.take();
    } else {
      pipeline.exec(ob, ctx);
      L["core.pipeline_self_s"] += (now_s() - t0) - probe.take();
    }
    xla_per_obs.push_back(std::exchange(probe.xla_pending, 0.0));
  }
  attribute_ops(probe, L);
  note_cold_excess(xla_per_obs, L);
  L["core.plan_cache_hits"] += pipeline.plan_stats().cache_hits;
  L["core.plan_cache_misses"] += pipeline.plan_stats().cache_misses;
}

}  // namespace

Replay replay_job(const toast::mpisim::JobConfig& cfg, Drive drive,
                  Layers& L, bool tamper) {
  const double t_start = now_s();
  const auto p = cfg.effective_problem();
  const tc::Backend backend = cfg.backend_id();
  const auto fw = toast::bench_model::framework_model();

  tc::ExecConfig ec;
  ec.schedule = cfg.schedule;
  ec.backend = backend;
  ec.threads = p.threads_per_proc();
  ec.socket_active_threads = p.cores_per_node;
  ec.sharing = toast::accel::Sharing::kExclusive;
  ec.procs_per_gpu = 1;
  ec.work_scale = p.sample_scale();
  ec.map_scale = (512.0 / static_cast<double>(p.nside)) *
                 (512.0 / static_cast<double>(p.nside));
  ec.device_spec = cfg.device_spec;
  ec.omp_dispatch_overhead = cfg.omp_dispatch_overhead;
  ec.fault_plan = cfg.fault_plan;
  ec.resilience_policy = cfg.resilience_policy;
  double t0 = now_s();
  tc::ExecContext ctx(ec);
  L["core.context_s"] += now_s() - t0;
  if (ctx.faults().armed()) {
    throw std::logic_error("replay_job: fault-armed jobs are timed whole");
  }
  const auto rank_span = ctx.tracer().begin(
      "rank:" + std::string(tc::to_string(backend)), "rank",
      tc::to_string(backend));
  toast::kernels::jax::clear_jit_caches();
  if (tc::is_accel(backend)) {
    ctx.charge_serial("accel_init", backend == tc::Backend::kJax ? 1.2 : 0.8);
  }

  std::vector<tc::Observation> obs;
  {
    toast::obs::ScopedSpan sim_span(ctx.tracer(), "simulate_observations",
                                    "phase");
    obs = simulate(p, cfg.seed, &L);
  }

  sim::WorkflowConfig wf;
  wf.nside = p.nside;
  wf.map_iterations =
      cfg.map_iterations > 0 ? cfg.map_iterations : fw.map_iterations;
  t0 = now_s();
  auto base = sim::make_benchmark_pipeline(wf, cfg.schedule.staging.mode);
  base.set_schedule(cfg.schedule);
  L["sim.pipeline_build_s"] += now_s() - t0;
  run_decorated(base, obs, ctx, cfg.schedule.backend, drive, tamper, L);

  const double rank_samples =
      p.paper_total_samples / static_cast<double>(p.total_procs());
  ctx.charge_serial("framework_serial",
                    fw.serial_seconds_per_sample * rank_samples);
  ctx.tracer().end(rank_span);

  Replay out;
  out.parts_s = now_s() - t_start;
  if (cfg.schedule.comm.mode == toast::config::CommMode::kEngine) {
    t0 = now_s();
    const toast::comm::Engine engine(toast::comm::Topology::cluster(
        p.total_procs(), p.procs_per_node, cfg.network));
    toast::comm::RunOptions copt;
    copt.epoch = ctx.clock().now();
    copt.tracer = &ctx.tracer();
    copt.lane_base = 16;
    copt.trace_intra = true;
    copt.site = "map_allreduce";
    copt.faults = &ctx.faults();
    copt.max_chunk_bytes = cfg.schedule.comm.chunk_bytes;
    out.comm_seconds = engine.allreduce_seconds(
        12.0 * 512.0 * 512.0 * 3.0 * 8.0, cfg.schedule.comm.algorithm, copt);
    L["comm.busy_s"] += now_s() - t0;
    L["comm.calls"] += 1.0;
  }

  out.log = ctx.log();
  // The job records one more (unlogged) span: the map allreduce.
  out.spans = ctx.tracer().spans().size() + 1;
  out.host_s = now_s() - t_start;
  out.products = products_digest(obs, base.outputs());
  return out;
}

Replay fig6_rank(const std::string& slot, std::uint64_t seed, Layers* L,
                 bool tamper) {
  const double t_start = now_s();
  const auto p = toast::bench_model::medium_problem();  // 16 procs
  toast::config::ScheduleConfig sc;
  sc.backend = slot;
  const tc::Backend backend = sc.backend_id();
  tc::ExecConfig ec;
  ec.backend = backend;
  ec.threads = p.threads_per_proc();
  ec.socket_active_threads = p.cores_per_node;
  // Kernel wall times as the paper's timers saw them: 4 processes share
  // each GPU through MPS.
  ec.sharing = tc::is_accel(backend) ? toast::accel::Sharing::kMps
                                     : toast::accel::Sharing::kExclusive;
  ec.procs_per_gpu = p.procs_per_node / p.gpus_per_node;
  ec.work_scale = p.sample_scale();
  ec.map_scale = (512.0 / static_cast<double>(p.nside)) *
                 (512.0 / static_cast<double>(p.nside));
  Layers unused;
  Layers& layers = L != nullptr ? *L : unused;
  double t0 = now_s();
  tc::ExecContext ctx(ec);
  layers["core.context_s"] += now_s() - t0;
  toast::kernels::jax::clear_jit_caches();

  auto obs = simulate(p, seed, &layers);
  sim::WorkflowConfig wf;
  wf.nside = p.nside;
  t0 = now_s();
  auto base = sim::make_benchmark_pipeline(wf);
  layers["sim.pipeline_build_s"] += now_s() - t0;
  if (L == nullptr) {
    for (auto& ob : obs) {
      base.exec(ob, ctx);
    }
  } else {
    run_decorated(base, obs, ctx, slot, Drive::kStaged, tamper, *L);
  }
  Replay out;
  out.log = ctx.log();
  out.spans = ctx.tracer().spans().size();
  out.host_s = out.parts_s = now_s() - t_start;
  out.products = products_digest(obs, base.outputs());
  return out;
}

}  // namespace perfbench
