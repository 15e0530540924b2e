// Tests of the destriping map-maker: convergence, cross-backend
// agreement, actual removal of injected noise offsets, and the overlap
// comm lane (pinned placements, its own trace stream).

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>
#include <string>

#include "async/lower.hpp"
#include "fault/fault.hpp"
#include "kernels/jax.hpp"
#include "resilience/policy.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"
#include "solver/destriper.hpp"

namespace core = toast::core;
namespace sim = toast::sim;
using core::Backend;
using toast::solver::Destriper;
using toast::solver::DestriperConfig;

namespace {

// An observation with pointing expanded and a signal consisting of the
// scanned sky plus known step-wise offsets (the thing the destriper must
// recover) plus a little white noise.
struct Scenario {
  core::Observation ob;
  std::vector<double> injected;  // true offsets per (det, step)
  DestriperConfig cfg;
};

Scenario make_scenario(std::uint64_t seed = 11, double white_sigma = 1e-7) {
  DestriperConfig cfg;
  cfg.nside = 16;
  cfg.step_length = 128;
  cfg.max_iterations = 150;
  cfg.tolerance = 1e-8;

  const auto fp = sim::hex_focalplane(4, 37.0, 10.0, 50e-6);
  sim::ScanParams scan;
  scan.spin_period = 60.0;
  Scenario s{sim::simulate_satellite("destripe", fp, 8192, scan, seed), {},
             cfg};

  // Sky synthesis + pointing + scan in one pipeline (weights stay on the
  // device between the operators).
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  sim::WorkflowConfig wf;
  wf.nside = cfg.nside;
  core::Data data;
  data.observations.push_back(std::move(s.ob));
  sim::make_scan_pipeline(wf).exec(data, ctx);
  s.ob = std::move(data.observations[0]);

  // Inject known offsets + white noise.
  const std::int64_t n_det = s.ob.n_detectors();
  const std::int64_t n_samp = s.ob.n_samples();
  const std::int64_t n_amp_det =
      (n_samp + cfg.step_length - 1) / cfg.step_length;
  std::mt19937 gen(static_cast<unsigned>(seed));
  std::normal_distribution<double> off(0.0, 1e-4);
  std::normal_distribution<double> white(0.0, white_sigma);
  s.injected.resize(static_cast<std::size_t>(n_det * n_amp_det));
  for (auto& v : s.injected) v = off(gen);
  auto signal = s.ob.field(core::fields::kSignal).f64();
  for (std::int64_t d = 0; d < n_det; ++d) {
    for (std::int64_t t = 0; t < n_samp; ++t) {
      signal[static_cast<std::size_t>(d * n_samp + t)] +=
          s.injected[static_cast<std::size_t>(d * n_amp_det +
                                              t / cfg.step_length)] +
          white(gen);
    }
  }
  return s;
}

double tod_rms(const core::Observation& ob) {
  const auto s = ob.field(core::fields::kSignal).f64();
  double acc = 0.0;
  for (const double v : s) acc += v * v;
  return std::sqrt(acc / static_cast<double>(s.size()));
}

}  // namespace

TEST(Destriper, ConvergesOnCpu) {
  auto sc = make_scenario();
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.reduction(), 1e-7);
  EXPECT_GT(result.iterations, 1);
  // Residuals decrease overall.
  EXPECT_LT(result.residuals.back(), result.residuals.front());
}

TEST(Destriper, RecoversInjectedOffsets) {
  auto sc = make_scenario(21);
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  ASSERT_TRUE(result.converged);

  // The solved amplitudes match the injected ones up to a common offset
  // per detector (the absolute level is degenerate with the sky).
  const std::int64_t n_det = sc.ob.n_detectors();
  const auto n_amp_det =
      static_cast<std::int64_t>(result.amplitudes.size()) / n_det;
  double err = 0.0, sig = 0.0;
  for (std::int64_t d = 0; d < n_det; ++d) {
    double mean_diff = 0.0;
    for (std::int64_t a = 0; a < n_amp_det; ++a) {
      const auto i = static_cast<std::size_t>(d * n_amp_det + a);
      mean_diff += result.amplitudes[i] - sc.injected[i];
    }
    mean_diff /= static_cast<double>(n_amp_det);
    for (std::int64_t a = 0; a < n_amp_det; ++a) {
      const auto i = static_cast<std::size_t>(d * n_amp_det + a);
      const double diff =
          result.amplitudes[i] - sc.injected[i] - mean_diff;
      err += diff * diff;
      sig += sc.injected[i] * sc.injected[i];
    }
  }
  EXPECT_LT(std::sqrt(err / sig), 0.15);
}

TEST(Destriper, ApplyReducesStriping) {
  auto sc = make_scenario(31);
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const double rms_before = tod_rms(sc.ob);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  destriper.apply(sc.ob, result, ctx, Backend::kCpu);
  const double rms_after = tod_rms(sc.ob);
  // The offsets dominate the signal in this scenario; destriping must
  // remove most of the variance.
  EXPECT_LT(rms_after, 0.5 * rms_before);
}

TEST(Destriper, BackendsAgree) {
  auto sc_cpu = make_scenario(41);
  auto sc_omp = make_scenario(41);
  auto sc_jax = make_scenario(41);
  core::ExecConfig ec;
  core::ExecContext c1(ec), c2(ec), c3(ec);
  toast::kernels::jax::clear_jit_caches();
  Destriper destriper(sc_cpu.cfg);
  const auto r_cpu = destriper.solve(sc_cpu.ob, c1, Backend::kCpu);
  const auto r_omp = destriper.solve(sc_omp.ob, c2, Backend::kOmpTarget);
  const auto r_jax = destriper.solve(sc_jax.ob, c3, Backend::kJax);
  ASSERT_EQ(r_cpu.amplitudes.size(), r_omp.amplitudes.size());
  ASSERT_EQ(r_cpu.amplitudes.size(), r_jax.amplitudes.size());
  for (std::size_t i = 0; i < r_cpu.amplitudes.size(); ++i) {
    ASSERT_DOUBLE_EQ(r_cpu.amplitudes[i], r_omp.amplitudes[i]) << i;
    ASSERT_DOUBLE_EQ(r_cpu.amplitudes[i], r_jax.amplitudes[i]) << i;
  }
}

TEST(Destriper, RequiresPointing) {
  const auto fp = sim::hex_focalplane(2, 37.0);
  auto ob = sim::simulate_satellite("nopointing", fp, 512, {}, 3);
  ob.create_detdata(core::fields::kSignal, core::FieldType::kF64);
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper;
  EXPECT_THROW(destriper.solve(ob, ctx, Backend::kCpu),
               std::invalid_argument);
}

TEST(Destriper, DistributedCommChargesTimeNotValues) {
  // Running the solve with a simulated multi-rank comm config must charge
  // allreduce time on the virtual clock without perturbing the numerics:
  // every rank computes the same global dot products, so amplitudes and
  // residuals stay bitwise identical to the single-rank solve.
  auto solo = make_scenario(33);
  core::ExecConfig ec;
  core::ExecContext ctx_solo(ec);
  const auto r_solo =
      Destriper(solo.cfg).solve(solo.ob, ctx_solo, Backend::kCpu);

  auto dist = make_scenario(33);
  dist.cfg.comm_ranks = 4;
  dist.cfg.comm_ranks_per_node = 2;
  core::ExecContext ctx_dist(ec);
  const auto r_dist =
      Destriper(dist.cfg).solve(dist.ob, ctx_dist, Backend::kCpu);

  ASSERT_EQ(r_solo.amplitudes.size(), r_dist.amplitudes.size());
  for (std::size_t i = 0; i < r_solo.amplitudes.size(); ++i) {
    ASSERT_EQ(r_solo.amplitudes[i], r_dist.amplitudes[i]) << i;
  }
  ASSERT_EQ(r_solo.residuals.size(), r_dist.residuals.size());
  for (std::size_t i = 0; i < r_solo.residuals.size(); ++i) {
    ASSERT_EQ(r_solo.residuals[i], r_dist.residuals[i]) << i;
  }

  // The comm charges show up on the clock and in the trace.
  EXPECT_GT(ctx_dist.elapsed(), ctx_solo.elapsed());
  int dot_spans = 0;
  int map_spans = 0;
  for (const auto& s : ctx_dist.tracer().spans()) {
    if (s.name == "destriper_allreduce_dot") ++dot_spans;
    if (s.name == "destriper_allreduce_map") ++map_spans;
  }
  EXPECT_GT(dot_spans, 0);
  EXPECT_GT(map_spans, 0);

  // And the distributed run itself is deterministic.
  auto again = make_scenario(33);
  again.cfg.comm_ranks = 4;
  again.cfg.comm_ranks_per_node = 2;
  core::ExecContext ctx_again(ec);
  const auto r_again =
      Destriper(again.cfg).solve(again.ob, ctx_again, Backend::kCpu);
  EXPECT_EQ(ctx_dist.elapsed(), ctx_again.elapsed());
  ASSERT_EQ(r_dist.amplitudes.size(), r_again.amplitudes.size());
  for (std::size_t i = 0; i < r_dist.amplitudes.size(); ++i) {
    ASSERT_EQ(r_dist.amplitudes[i], r_again.amplitudes[i]) << i;
  }
}

TEST(Destriper, AsyncSerialCommIsBitwiseStaged) {
  // Routing the CG collectives through the task engine in serial mode is
  // the oracle case: runtime, TimeLog and solver products must all be
  // bitwise identical to the staged (blocking) collectives.
  auto staged = make_scenario(33);
  staged.cfg.comm_ranks = 4;
  staged.cfg.comm_ranks_per_node = 2;
  core::ExecConfig ec;
  core::ExecContext ctx_staged(ec);
  const auto r_staged =
      Destriper(staged.cfg).solve(staged.ob, ctx_staged, Backend::kCpu);

  auto sync = make_scenario(33);
  sync.cfg.comm_ranks = 4;
  sync.cfg.comm_ranks_per_node = 2;
  sync.cfg.async_comm = toast::config::SolverComm::kSync;
  core::ExecContext ctx_sync(ec);
  const auto r_sync =
      Destriper(sync.cfg).solve(sync.ob, ctx_sync, Backend::kCpu);

  EXPECT_EQ(ctx_staged.elapsed(), ctx_sync.elapsed());
  const auto log_staged = ctx_staged.log();
  const auto log_sync = ctx_sync.log();
  ASSERT_EQ(log_staged.categories(), log_sync.categories());
  for (const auto& c : log_staged.categories()) {
    EXPECT_EQ(log_staged.seconds(c), log_sync.seconds(c)) << c;
    EXPECT_EQ(log_staged.calls(c), log_sync.calls(c)) << c;
  }
  ASSERT_EQ(r_staged.amplitudes.size(), r_sync.amplitudes.size());
  for (std::size_t i = 0; i < r_staged.amplitudes.size(); ++i) {
    ASSERT_EQ(r_staged.amplitudes[i], r_sync.amplitudes[i]) << i;
  }
  ASSERT_EQ(r_staged.residuals, r_sync.residuals);
}

TEST(Destriper, AsyncOverlapHidesCollectivesKeepsProducts) {
  // Overlap mode pipelines each allreduce behind the next matvec: the
  // solve must get strictly faster while amplitudes and residuals stay
  // bitwise (the awaited values are the same numbers, just later).
  auto staged = make_scenario(33);
  staged.cfg.comm_ranks = 4;
  staged.cfg.comm_ranks_per_node = 2;
  core::ExecConfig ec;
  core::ExecContext ctx_staged(ec);
  const auto r_staged =
      Destriper(staged.cfg).solve(staged.ob, ctx_staged, Backend::kCpu);

  auto ov = make_scenario(33);
  ov.cfg.comm_ranks = 4;
  ov.cfg.comm_ranks_per_node = 2;
  ov.cfg.async_comm = toast::config::SolverComm::kOverlap;
  core::ExecContext ctx_ov(ec);
  const auto r_ov = Destriper(ov.cfg).solve(ov.ob, ctx_ov, Backend::kCpu);

  EXPECT_LT(ctx_ov.elapsed(), ctx_staged.elapsed());
  ASSERT_EQ(r_staged.amplitudes.size(), r_ov.amplitudes.size());
  for (std::size_t i = 0; i < r_staged.amplitudes.size(); ++i) {
    ASSERT_EQ(r_staged.amplitudes[i], r_ov.amplitudes[i]) << i;
  }
  ASSERT_EQ(r_staged.residuals, r_ov.residuals);

  // Unhidden latency surfaces as explicit wait spans on the trace.
  double wait_s = 0.0;
  bool saw_engine_lane = false;
  for (const auto& s : ctx_ov.tracer().spans()) {
    if (s.category == "wait") {
      wait_s += s.duration;
    }
  }
  for (const auto& [stream, name] : ctx_ov.tracer().stream_names()) {
    (void)stream;
    if (name == "async:comm") {
      saw_engine_lane = true;
    }
  }
  EXPECT_GE(wait_s, 0.0);
  EXPECT_TRUE(saw_engine_lane);
}

TEST(Destriper, PriorStabilizesUnhitSteps) {
  // With a tiny prior the solve must still converge even though flagged
  // samples leave some steps weakly constrained.
  auto sc = make_scenario(51);
  sc.cfg.prior_weight = 1e-8;
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  Destriper destriper(sc.cfg);
  const auto result = destriper.solve(sc.ob, ctx, Backend::kCpu);
  EXPECT_TRUE(result.converged);
  for (const double a : result.amplitudes) {
    ASSERT_TRUE(std::isfinite(a));
  }
}

// --- the overlap comm lane -------------------------------------------------

namespace {

// The solve of the ResilienceElastic tests (tests/test_resilience.cpp):
// 3-detector scan, 12 CG iterations, 4 ranks on 2 nodes, overlap
// collectives.
struct OverlapSolve {
  double elapsed = 0.0;
  double wait_s = 0.0;  ///< total "wait" spans, in trace order
  std::vector<double> allreduce_starts;
  double requeues = 0.0;
};

OverlapSolve overlap_solve(const toast::fault::FaultPlan& plan,
                           const toast::resilience::Policy& policy) {
  const auto fp = sim::hex_focalplane(3, 37.0, 10.0, 50e-6);
  sim::ScanParams scan;
  scan.spin_period = 60.0;
  core::ExecConfig ec;
  ec.fault_plan = plan;
  ec.resilience_policy = policy;
  core::ExecContext ctx(ec);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  core::Data data;
  data.observations.push_back(
      sim::simulate_satellite("elastic", fp, 4096, scan, 11));
  sim::make_scan_pipeline(wf).exec(data, ctx);

  DestriperConfig dc;
  dc.nside = 16;
  dc.step_length = 128;
  dc.max_iterations = 12;
  dc.tolerance = 0.0;
  dc.checkpoint_interval = 4;
  dc.comm_ranks = 4;
  dc.comm_ranks_per_node = 2;
  dc.async_comm = toast::config::SolverComm::kOverlap;
  Destriper(dc).solve(data.observations[0], ctx, Backend::kCpu);

  OverlapSolve out;
  out.elapsed = ctx.elapsed();
  for (const auto& s : ctx.tracer().spans()) {
    if (s.category == "wait") {
      out.wait_s += s.duration;
    }
    if (s.name.rfind("destriper_allreduce_", 0) == 0) {
      out.allreduce_starts.push_back(s.start);
    }
  }
  const auto counters = ctx.resilience().counters();
  const auto it = counters.find("resilience_task_requeues");
  out.requeues = it == counters.end() ? 0.0 : it->second;
  return out;
}

double sum(const std::vector<double>& v) {
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc;
}

}  // namespace

TEST(Destriper, OverlapSolvesArePinned) {
  // Clean and requeue-chaos overlap solves, pinned bitwise: the clock,
  // the charged slack and every allreduce placement (count, first, last
  // and their in-order sum).
  const OverlapSolve clean = overlap_solve({}, {});
  toast::fault::FaultPlan plan;
  plan.seed = 2026;
  plan.retry.max_attempts = 1;
  plan.rules = {toast::fault::FaultRule{toast::fault::FaultKind::kRankFailure,
                                        "destriper_cg", 0.6, 5}};
  toast::resilience::Policy policy;
  policy.elastic.enabled = true;
  policy.elastic.min_ranks = 2;
  policy.elastic.rebuild_seconds = 1e-3;
  policy.elastic.requeue = true;
  const OverlapSolve chaos = overlap_solve(plan, policy);
  EXPECT_EQ(clean.elapsed, 0x1.d5cea1b30bd97p-9);
  EXPECT_EQ(clean.wait_s, 0x1.1b30b711851cp-15);
  ASSERT_EQ(clean.allreduce_starts.size(), 51u);
  EXPECT_EQ(clean.allreduce_starts.front(), 0x1.a8aa59269e28ap-11);
  EXPECT_EQ(clean.allreduce_starts.back(), 0x1.d43bf65c72d0fp-9);
  EXPECT_EQ(sum(clean.allreduce_starts), 0x1.d2efa985959cap-4);
  EXPECT_EQ(clean.requeues, 0.0);

  EXPECT_EQ(chaos.elapsed, 0x1.7a4bc476c32eep-8);
  EXPECT_EQ(chaos.wait_s, 0x1.ad8a286bbcp-21);
  ASSERT_EQ(chaos.allreduce_starts.size(), 55u);
  EXPECT_EQ(chaos.allreduce_starts.front(), 0x1.a8aa59269e28ap-11);
  EXPECT_EQ(chaos.allreduce_starts.back(), 0x1.7a3e58257fd1p-8);
  EXPECT_EQ(sum(chaos.allreduce_starts), 0x1.cc0a35a9ff886p-3);
  EXPECT_GT(chaos.requeues, 0.0);
}

TEST(Destriper, CommLaneHasItsOwnTraceStream) {
  // A pipeline post-pass and a destriper solve on one context: the
  // post-pass names its four lanes, the solve names the comm lane, and
  // no stream id may carry two lanes' spans under one name.
  core::ExecConfig ec;
  core::ExecContext ctx(ec);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  core::Data data;
  data.observations.push_back(sim::simulate_satellite(
      "lanes", sim::hex_focalplane(4, 37.0), 1024, sim::ScanParams{}, 7));
  auto pipeline = sim::make_benchmark_pipeline(wf);
  toast::async::run_plan_async(pipeline, data.observations[0], ctx,
                               pipeline.plan_stats(),
                               {toast::async::Mode::kOverlap});

  auto sc = make_scenario(33);
  sc.cfg.comm_ranks = 4;
  sc.cfg.comm_ranks_per_node = 2;
  sc.cfg.async_comm = toast::config::SolverComm::kOverlap;
  Destriper(sc.cfg).solve(sc.ob, ctx, Backend::kCpu);

  const auto& names = ctx.tracer().stream_names();
  std::set<std::string> distinct;
  for (const auto& [stream, name] : names) {
    EXPECT_TRUE(distinct.insert(name).second)
        << "stream " << stream << " reuses the name " << name;
  }
  EXPECT_EQ(names.at(toast::async::kLaneBase + toast::async::kLaneHost),
            "async:host");
  int allreduces = 0;
  for (const auto& s : ctx.tracer().spans()) {
    if (s.name.rfind("destriper_allreduce_", 0) == 0) {
      ++allreduces;
      ASSERT_TRUE(names.count(s.stream) == 1) << s.name;
      EXPECT_EQ(names.at(s.stream), "async:comm") << s.name;
    }
  }
  EXPECT_GT(allreduces, 0);
}
