// Integration tests of the hybrid pipeline: cross-backend equivalence of
// the full benchmark workflow, staging state-machine correctness, naive
// vs pipelined transfer behaviour, and dispatch overrides.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/pipeline.hpp"
#include "kernels/jax.hpp"
#include "kernels/operators.hpp"
#include "mpisim/job.hpp"
#include "serve/service.hpp"
#include "sim/satellite.hpp"
#include "sim/workflow.hpp"

namespace config = toast::config;
namespace core = toast::core;
namespace sim = toast::sim;
using core::Backend;

namespace {

core::Data make_data(std::int64_t n_det = 4, std::int64_t n_samp = 1024,
                     int n_obs = 2) {
  const auto fp = sim::hex_focalplane(n_det, 37.0);
  core::Data data;
  for (int ob = 0; ob < n_obs; ++ob) {
    sim::ScanParams scan;
    scan.spin_period = static_cast<double>(n_samp) / 37.0 / 4.0;
    data.observations.push_back(sim::simulate_satellite(
        "obs" + std::to_string(ob), fp, n_samp, scan,
        7 + static_cast<std::uint64_t>(ob)));
  }
  return data;
}

core::ExecContext make_ctx(Backend b) {
  core::ExecConfig cfg;
  cfg.backend = b;
  return core::ExecContext(cfg);
}

core::Data run_workflow(Backend b,
                        config::Staging staging =
                            config::Staging::kPipelined) {
  auto data = make_data();
  auto ctx = make_ctx(b);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  auto pipeline = sim::make_benchmark_pipeline(wf, staging);
  pipeline.exec(data, ctx);
  return data;
}

/// One benchmark-pipeline run on an explicit xla executor mode: the
/// products plus every modelled-time output.
struct ExecutorRun {
  core::Data data;
  toast::accel::TimeLog log;
  double elapsed = 0.0;
};

ExecutorRun run_workflow_on(Backend b, toast::xla::ExecMode mode) {
  ExecutorRun run{make_data(), {}, 0.0};
  auto ctx = make_ctx(b);
  ctx.jax().set_executor(mode);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.exec(run.data, ctx);
  run.log = ctx.log();
  run.elapsed = ctx.elapsed();
  return run;
}

void expect_fields_equal(const core::Data& a, const core::Data& b,
                         const char* field) {
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t o = 0; o < a.observations.size(); ++o) {
    const auto& fa = a.observations[o].field(field);
    const auto& fb = b.observations[o].field(field);
    ASSERT_EQ(fa.count(), fb.count());
    const auto sa = fa.f64();
    const auto sb = fb.f64();
    for (std::int64_t i = 0; i < fa.count(); ++i) {
      ASSERT_DOUBLE_EQ(sa[static_cast<std::size_t>(i)],
                       sb[static_cast<std::size_t>(i)])
          << field << " obs " << o << " index " << i;
    }
  }
}

}  // namespace

TEST(PipelineEquivalence, FullWorkflowAcrossBackends) {
  // The complete benchmark pipeline must produce bit-identical science
  // products on every backend (the paper's ports preserved outputs).
  const auto cpu = run_workflow(Backend::kCpu);
  const auto omp = run_workflow(Backend::kOmpTarget);
  const auto jax = run_workflow(Backend::kJax);
  const auto jax_cpu = run_workflow(Backend::kJaxCpu);

  for (const char* field : {"signal", "zmap", "amplitudes"}) {
    expect_fields_equal(cpu, omp, field);
    expect_fields_equal(cpu, jax, field);
    expect_fields_equal(cpu, jax_cpu, field);
  }
}

TEST(PipelineEquivalence, CompiledExecutorMatchesInterpreterOracle) {
  // The production kernels on the fused-loop executor against the
  // interpreter oracle, on both jax slots: every field bitwise equal,
  // the same TimeLog and the same virtual seconds, and no module falls
  // back to the interpreter.
  const std::size_t fallbacks_before = toast::kernels::jax::jit_fallbacks();
  for (const Backend b : {Backend::kJax, Backend::kJaxCpu}) {
    const auto compiled = run_workflow_on(b, toast::xla::ExecMode::kCompiled);
    const auto oracle =
        run_workflow_on(b, toast::xla::ExecMode::kInterpreted);
    ASSERT_EQ(compiled.data.observations.size(),
              oracle.data.observations.size());
    for (std::size_t o = 0; o < oracle.data.observations.size(); ++o) {
      const auto& oc = compiled.data.observations[o];
      const auto& oi = oracle.data.observations[o];
      ASSERT_EQ(oc.field_names(), oi.field_names());
      for (const auto& name : oi.field_names()) {
        const auto& fc = oc.field(name);
        const auto& fi = oi.field(name);
        ASSERT_EQ(fc.byte_size(), fi.byte_size()) << name;
        EXPECT_EQ(std::memcmp(fc.raw(), fi.raw(), fi.byte_size()), 0)
            << core::to_string(b) << " field " << name << " obs " << o;
      }
    }
    ASSERT_EQ(compiled.log.categories(), oracle.log.categories());
    for (const auto& c : oracle.log.categories()) {
      EXPECT_EQ(compiled.log.seconds(c), oracle.log.seconds(c)) << c;
      EXPECT_EQ(compiled.log.calls(c), oracle.log.calls(c)) << c;
    }
    EXPECT_EQ(compiled.elapsed, oracle.elapsed) << core::to_string(b);
    EXPECT_GT(compiled.log.seconds("jit_compile"), 0.0);  // proof jax ran
  }
  EXPECT_EQ(toast::kernels::jax::jit_fallbacks(), fallbacks_before);
}

TEST(PipelineEquivalence, NaiveStagingSameResults) {
  const auto a = run_workflow(Backend::kOmpTarget,
                              config::Staging::kPipelined);
  const auto b =
      run_workflow(Backend::kOmpTarget, config::Staging::kNaive);
  for (const char* field : {"signal", "zmap", "amplitudes"}) {
    expect_fields_equal(a, b, field);
  }
}

TEST(PipelineEquivalence, PerKernelOverride) {
  // Route just pixels_healpix to JAX inside an otherwise OMP run
  // (paper §3.2.1: per-kernel implementation selection).
  auto data = make_data();
  auto ctx = make_ctx(Backend::kOmpTarget);
  ctx.set_kernel_backend("pixels_healpix", Backend::kJax);
  toast::kernels::jax::clear_jit_caches();
  sim::WorkflowConfig wf;
  wf.nside = 32;
  wf.map_iterations = 2;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.exec(data, ctx);
  EXPECT_GT(ctx.log().seconds("pixels_healpix"), 0.0);
  EXPECT_GT(ctx.log().seconds("jit_compile"), 0.0);  // proof JAX ran

  const auto reference = run_workflow(Backend::kOmpTarget);
  expect_fields_equal(reference, data, "signal");
  expect_fields_equal(reference, data, "zmap");
}

TEST(PipelineStaging, TransfersOnlyAtBoundaries) {
  core::ExecContext ctx = make_ctx(Backend::kOmpTarget);
  auto data = make_data(2, 512, 1);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  wf.map_iterations = 3;
  wf.include_unported = false;  // pure GPU section: minimal movement
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.exec(data, ctx);
  // With no host-only operators inside the GPU section, each field is
  // uploaded at most once and downloaded at most once per observation;
  // the map-making iterations run entirely on the device.
  // One upload per distinct input field (boresight, flags, fp_quats, hwp,
  // pol_eff, sky_map, signal, det_weights, det_scale, zmap, amplitudes)
  // and one download per science product.
  const long uploads = ctx.log().calls("accel_data_update_device");
  const long downloads = ctx.log().calls("accel_data_update_host");
  EXPECT_LE(uploads, 12);
  EXPECT_LE(downloads, 5);
}

TEST(PipelineStaging, NaiveMovesMuchMoreData) {
  core::ExecContext a = make_ctx(Backend::kOmpTarget);
  core::ExecContext b = make_ctx(Backend::kOmpTarget);
  auto d1 = make_data(2, 512, 1);
  auto d2 = make_data(2, 512, 1);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  wf.map_iterations = 3;
  auto staged = sim::make_benchmark_pipeline(
      wf, config::Staging::kPipelined);
  auto naive =
      sim::make_benchmark_pipeline(wf, config::Staging::kNaive);
  staged.exec(d1, a);
  naive.exec(d2, b);
  EXPECT_GT(b.log().calls("accel_data_update_device"),
            3 * a.log().calls("accel_data_update_device"));
}

TEST(PipelineStaging, HostOperatorForcesReadback) {
  // A host-only operator between GPU operators must see up-to-date data.
  auto data = make_data(2, 256, 1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  wf.map_iterations = 1;
  wf.include_unported = true;  // unported host ops touch "signal"
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.exec(data, ctx);
  EXPECT_GT(ctx.log().calls("accel_data_update_host"), 0);
}

TEST(PipelineStaging, CpuBackendDoesNoStaging) {
  core::ExecContext ctx = make_ctx(Backend::kCpu);
  auto data = make_data(2, 256, 1);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  wf.map_iterations = 1;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.exec(data, ctx);
  EXPECT_EQ(ctx.log().calls("accel_data_update_device"), 0);
  EXPECT_EQ(ctx.log().calls("accel_data_create"), 0);
}

TEST(PipelineStaging, PipelineOverrideForcesBackend) {
  auto data = make_data(2, 256, 1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  wf.map_iterations = 1;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.set_backend_override(Backend::kCpu);
  pipeline.exec(data, ctx);
  // Everything forced to CPU: no device activity at all.
  EXPECT_EQ(ctx.log().calls("accel_data_update_device"), 0);
  EXPECT_EQ(ctx.device().total_launches(), 0u);
}

TEST(PipelineStaging, CustomOutputsControlCopyBack) {
  // Restricting the output list must skip the copy-back of everything
  // else; the skipped field keeps its stale host content.
  auto data = make_data(2, 256, 1);
  auto ctx = make_ctx(Backend::kOmpTarget);
  sim::WorkflowConfig wf;
  wf.nside = 16;
  wf.map_iterations = 1;
  wf.include_unported = false;
  auto pipeline = sim::make_benchmark_pipeline(wf);
  pipeline.set_outputs({std::string(core::fields::kZmap)});
  pipeline.exec(data, ctx);
  const auto& ob = data.observations[0];
  // zmap came back with content...
  double zpower = 0.0;
  for (const double v : ob.field(core::fields::kZmap).f64()) zpower += v * v;
  EXPECT_GT(zpower, 0.0);
  // ...while quats (a device-only intermediate) is still all zeros on
  // the host.
  double qpower = 0.0;
  for (const double v : ob.field(core::fields::kQuats).f64()) qpower += v * v;
  EXPECT_DOUBLE_EQ(qpower, 0.0);
}

TEST(PipelineStaging, ScienceOutputsAreFinite) {
  const auto data = run_workflow(Backend::kOmpTarget);
  for (const auto& ob : data.observations) {
    for (const double v : ob.field("signal").f64()) {
      ASSERT_TRUE(std::isfinite(v));
    }
    double map_power = 0.0;
    for (const double v : ob.field("zmap").f64()) {
      ASSERT_TRUE(std::isfinite(v));
      map_power += v * v;
    }
    EXPECT_GT(map_power, 0.0);  // the map actually accumulated something
  }
}

TEST(PipelineMemo, WarmMemoJobEqualsColdMemoJob) {
  // The workload-generation memo is host-only: a job whose observations,
  // sky and noise come from a warm memo is bitwise the job that generated
  // them, on every slot.
  auto problem = toast::bench_model::tiny_problem();
  problem.observations_per_proc = 2;
  for (const Backend b : {Backend::kCpu, Backend::kOmpTarget, Backend::kJax,
                          Backend::kJaxCpu}) {
    const toast::mpisim::JobConfig cfg(problem, b);
    sim::clear_memo();
    const auto cold = toast::mpisim::run_benchmark_job(cfg);
    const auto stats = sim::memo_stats();
    EXPECT_EQ(stats.observations.hits, 0u) << core::to_string(b);
    EXPECT_EQ(stats.skies.hits, 1u) << core::to_string(b);
    const auto warm = toast::mpisim::run_benchmark_job(cfg);
    EXPECT_GT(sim::memo_stats().observations.hits, 0u) << core::to_string(b);
    EXPECT_TRUE(toast::serve::results_bitwise_equal(cold, warm))
        << core::to_string(b);
    EXPECT_EQ(cold.rank_spans.size(), warm.rank_spans.size())
        << core::to_string(b);
    EXPECT_EQ(cold.rank_log.total_seconds(), warm.rank_log.total_seconds())
        << core::to_string(b);
  }
}
