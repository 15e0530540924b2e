// Tests of the simulated MPI layer and the job-level benchmark model,
// including the OOM pattern of Figure 4 and the qualitative orderings the
// reproduced figures depend on.

#include <gtest/gtest.h>

#include "mpisim/comm.hpp"
#include "mpisim/job.hpp"

using namespace toast;
using core::Backend;
using mpisim::JobConfig;
using mpisim::run_benchmark_job;

namespace {

JobConfig medium_cfg(Backend b, int procs) {
  auto p = bench_model::medium_problem();
  p.procs_per_node = procs;
  return JobConfig{p, b};
}

}  // namespace

TEST(CommModel, AllreduceScaling) {
  mpisim::CommModel comm;
  EXPECT_DOUBLE_EQ(comm.allreduce_seconds(1e6, 1), 0.0);
  const double t2 = comm.allreduce_seconds(1e6, 2);
  const double t16 = comm.allreduce_seconds(1e6, 16);
  EXPECT_GT(t2, 0.0);
  EXPECT_GT(t16, t2);
  // Bandwidth term saturates at 2x bytes/bw for large rank counts.
  const double t512 = comm.allreduce_seconds(1e9, 512);
  EXPECT_NEAR(t512, 2.0 * 1e9 / 25.0e9, 0.01);
}

TEST(CommModel, BcastLogScaling) {
  mpisim::CommModel comm;
  const double t2 = comm.bcast_seconds(1e6, 2);
  const double t8 = comm.bcast_seconds(1e6, 8);
  EXPECT_NEAR(t8 / t2, 3.0, 0.01);  // log2(8)/log2(2)
}

TEST(CommModel, ClosedFormGoldenValues) {
  // slingshot_spec: 25 GB/s per NIC, 2 us latency.
  mpisim::CommModel comm;
  // allreduce: 2(n-1) rounds of latency + (bytes/n)/bandwidth.
  EXPECT_NEAR(comm.allreduce_seconds(1e6, 8),
              2.0 * 7.0 / 8.0 * 1e6 / 25.0e9 + 14.0 * 2.0e-6, 1e-12);
  // bcast: ceil(log2 n) rounds of latency + bytes/bandwidth; n=5 pays
  // the same 3 rounds as n=8.
  const double bcast_round = 2.0e-6 + 1e6 / 25.0e9;
  EXPECT_NEAR(comm.bcast_seconds(1e6, 8), 3.0 * bcast_round, 1e-12);
  EXPECT_NEAR(comm.bcast_seconds(1e6, 5), 3.0 * bcast_round, 1e-12);
  // gather: n-1 serial arrivals at the root.
  EXPECT_NEAR(comm.gather_seconds(1e6, 8), 7.0 * bcast_round, 1e-12);
}

TEST(CommModel, BoundariesAreExactlyZero) {
  mpisim::CommModel comm;
  EXPECT_EQ(comm.allreduce_seconds(1e6, 1), 0.0);
  EXPECT_EQ(comm.allreduce_seconds(1e6, 0), 0.0);
  EXPECT_EQ(comm.allreduce_seconds(0.0, 8), 0.0);
  EXPECT_EQ(comm.allreduce_seconds(-1.0, 8), 0.0);
  EXPECT_EQ(comm.bcast_seconds(1e6, 1), 0.0);
  EXPECT_EQ(comm.bcast_seconds(0.0, 8), 0.0);
  EXPECT_EQ(comm.bcast_seconds(-5.0, 8), 0.0);
  EXPECT_EQ(comm.gather_seconds(1e6, 1), 0.0);
  EXPECT_EQ(comm.gather_seconds(0.0, 8), 0.0);
  EXPECT_EQ(comm.gather_seconds(-5.0, 8), 0.0);
}

TEST(LocalComm, AllreduceSumValues) {
  const mpisim::LocalComm comm(3);
  const auto out =
      comm.allreduce_sum({{1.0, 2.0}, {10.0, 20.0}, {100.0, 200.0}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 111.0);
  EXPECT_DOUBLE_EQ(out[1], 222.0);
  EXPECT_THROW(comm.allreduce_sum({{1.0}, {1.0, 2.0}, {3.0}}),
               std::invalid_argument);
}

TEST(LocalComm, AllreduceSumValidatesWorldSize) {
  const mpisim::LocalComm comm(3);
  EXPECT_THROW(comm.allreduce_sum({{1.0}, {2.0}}), std::invalid_argument);
  EXPECT_THROW(comm.allreduce_sum({}), std::invalid_argument);
  EXPECT_THROW(
      comm.allreduce_sum({{1.0}, {2.0}, {3.0}, {4.0}}),
      std::invalid_argument);
}

TEST(JobMemory, Figure4OomPattern) {
  // JAX cannot run the medium problem with 1 or 64 processes; the OpenMP
  // port runs with 1 but not 64; the CPU baseline runs everywhere.
  for (const int procs : {1, 2, 4, 8, 16, 32, 64}) {
    const auto jax = mpisim::estimate_memory(medium_cfg(Backend::kJax, procs));
    const auto omp =
        mpisim::estimate_memory(medium_cfg(Backend::kOmpTarget, procs));
    const auto cpu = mpisim::estimate_memory(medium_cfg(Backend::kCpu, procs));

    const bool jax_oom = jax.device_oom || jax.host_oom;
    const bool omp_oom = omp.device_oom || omp.host_oom;
    const bool cpu_oom = cpu.host_oom;
    EXPECT_EQ(jax_oom, procs == 1 || procs == 64) << "jax procs=" << procs;
    EXPECT_EQ(omp_oom, procs == 64) << "omp procs=" << procs;
    EXPECT_FALSE(cpu_oom) << "cpu procs=" << procs;
  }
}

TEST(JobMemory, JaxUsesMoreDeviceMemoryThanOmp) {
  const auto jax = mpisim::estimate_memory(medium_cfg(Backend::kJax, 16));
  const auto omp =
      mpisim::estimate_memory(medium_cfg(Backend::kOmpTarget, 16));
  EXPECT_GT(jax.device_bytes_per_proc, omp.device_bytes_per_proc);
}

TEST(JobModel, GpuPortsBeatCpuAtDefaultConfig) {
  const auto cpu = run_benchmark_job(medium_cfg(Backend::kCpu, 16));
  const auto jax = run_benchmark_job(medium_cfg(Backend::kJax, 16));
  const auto omp = run_benchmark_job(medium_cfg(Backend::kOmpTarget, 16));
  ASSERT_FALSE(cpu.oom);
  ASSERT_FALSE(jax.oom);
  ASSERT_FALSE(omp.oom);
  // Paper: jax 2.3x, omp 2.7x at 16 procs; require the right ordering and
  // a generous band around the values.
  const double s_jax = cpu.runtime / jax.runtime;
  const double s_omp = cpu.runtime / omp.runtime;
  EXPECT_GT(s_jax, 1.6);
  EXPECT_LT(s_jax, 3.2);
  EXPECT_GT(s_omp, 2.0);
  EXPECT_LT(s_omp, 3.6);
  EXPECT_GT(s_omp, s_jax);  // omp-target consistently faster (§4.1)
  // ...by roughly 10-35%.
  EXPECT_GT(jax.runtime / omp.runtime, 1.05);
  EXPECT_LT(jax.runtime / omp.runtime, 1.45);
}

TEST(JobModel, CpuRuntimeFallsWithProcessCount) {
  double prev = 1e30;
  for (const int procs : {1, 4, 16, 64}) {
    const auto r = run_benchmark_job(medium_cfg(Backend::kCpu, procs));
    ASSERT_FALSE(r.oom);
    EXPECT_LT(r.runtime, prev) << "procs=" << procs;
    prev = r.runtime;
  }
}

TEST(JobModel, OversubscriptionHelps) {
  // Going from 1 to 2 processes per GPU (4 -> 8 procs) must improve the
  // GPU ports more than the CPU baseline (paper §4.1).
  const auto cpu4 = run_benchmark_job(medium_cfg(Backend::kCpu, 4));
  const auto cpu8 = run_benchmark_job(medium_cfg(Backend::kCpu, 8));
  const auto omp4 = run_benchmark_job(medium_cfg(Backend::kOmpTarget, 4));
  const auto omp8 = run_benchmark_job(medium_cfg(Backend::kOmpTarget, 8));
  const double cpu_gain = cpu4.runtime / cpu8.runtime;
  const double omp_gain = omp4.runtime / omp8.runtime;
  EXPECT_GT(omp_gain, cpu_gain);
}

TEST(JobModel, MpsOffCapsOversubscription) {
  auto on = medium_cfg(Backend::kOmpTarget, 16);
  auto off = medium_cfg(Backend::kOmpTarget, 16);
  off.schedule.device.mps = false;
  const auto r_on = run_benchmark_job(on);
  const auto r_off = run_benchmark_job(off);
  // Without MPS, 16 procs perform like ~4 (one per device): much slower.
  EXPECT_GT(r_off.runtime, 1.5 * r_on.runtime);
  // With one process per GPU, MPS is irrelevant.
  auto on4 = medium_cfg(Backend::kOmpTarget, 4);
  auto off4 = medium_cfg(Backend::kOmpTarget, 4);
  off4.schedule.device.mps = false;
  EXPECT_NEAR(run_benchmark_job(on4).runtime,
              run_benchmark_job(off4).runtime, 1e-9);
}

TEST(JobModel, StagingBeatsNaive) {
  auto staged = medium_cfg(Backend::kOmpTarget, 16);
  auto naive = medium_cfg(Backend::kOmpTarget, 16);
  naive.schedule.staging.mode = config::Staging::kNaive;
  const auto a = run_benchmark_job(staged);
  const auto b = run_benchmark_job(naive);
  EXPECT_GT(b.runtime, 1.2 * a.runtime);
  EXPECT_GT(b.transfer_seconds, 3.0 * a.transfer_seconds);
}

TEST(JobModel, LargeProblemMatchesPaperBand) {
  auto p = bench_model::large_problem();
  const auto cpu = run_benchmark_job({p, Backend::kCpu});
  const auto jax = run_benchmark_job({p, Backend::kJax});
  const auto omp = run_benchmark_job({p, Backend::kOmpTarget});
  ASSERT_FALSE(jax.oom);
  ASSERT_FALSE(omp.oom);
  // Paper: 2.28x and 2.58x.
  EXPECT_NEAR(cpu.runtime / jax.runtime, 2.28, 0.5);
  EXPECT_NEAR(cpu.runtime / omp.runtime, 2.58, 0.5);
}

TEST(JobModel, JaxCpuBackendMuchSlower) {
  auto p = bench_model::large_problem();
  const auto cpu = run_benchmark_job({p, Backend::kCpu});
  const auto jax_cpu = run_benchmark_job({p, Backend::kJaxCpu});
  // Paper: 7.4x slower; require "several times slower".
  EXPECT_GT(jax_cpu.runtime, 3.0 * cpu.runtime);
  EXPECT_LT(jax_cpu.runtime, 12.0 * cpu.runtime);
}

TEST(JobModel, CommIncludedAndSmall) {
  const auto r = run_benchmark_job(medium_cfg(Backend::kOmpTarget, 16));
  EXPECT_GT(r.comm_seconds, 0.0);
  EXPECT_LT(r.comm_seconds, 0.05 * r.runtime);
}

TEST(JobModel, NetworkSpecPlumbsThroughJobConfig) {
  auto fast = medium_cfg(Backend::kCpu, 16);
  auto slow = medium_cfg(Backend::kCpu, 16);
  slow.network.bandwidth /= 10.0;
  slow.network.latency *= 10.0;
  const auto rf = run_benchmark_job(fast);
  const auto rs = run_benchmark_job(slow);
  EXPECT_GT(rs.comm_seconds, 5.0 * rf.comm_seconds);
  // The default spec is the slingshot model the seed hard-coded.
  mpisim::CommModel seed_model;
  const double map_bytes = 12.0 * 512.0 * 512.0 * 3.0 * 8.0;
  EXPECT_EQ(rf.comm_seconds,
            seed_model.allreduce_seconds(map_bytes,
                                         fast.problem.total_procs()));
}

TEST(JobModel, EngineCommModeIsDeterministicAndTraced) {
  auto cfg = medium_cfg(Backend::kCpu, 16);
  cfg.schedule.comm.mode = config::CommMode::kEngine;
  const auto a = run_benchmark_job(cfg);
  const auto b = run_benchmark_job(cfg);
  ASSERT_FALSE(a.oom);
  EXPECT_GT(a.comm_seconds, 0.0);
  // Bitwise deterministic for a fixed seed/config.
  EXPECT_EQ(a.comm_seconds, b.comm_seconds);
  EXPECT_EQ(a.runtime, b.runtime);
  // Per-step chunk spans land on NIC lanes above the compute streams.
  int lane_spans = 0;
  for (const auto& s : a.rank_spans) {
    if (s.category == "comm" && s.stream >= 16) {
      ++lane_spans;
    }
  }
  EXPECT_GT(lane_spans, 0);
}
