// Satellite benchmark driver: run the paper's medium or large problem for
// any backend / process-count / MPS / staging configuration and print the
// modelled job runtime with its decomposition.  This is the programmable
// version of the Figure 4/5 benchmarks.
//
//   ./satellite_benchmark [medium|large] [backend] [procs] [--no-mps]
//                         [--naive] [--prealloc]

#include <cstdio>
#include <cstring>
#include <string>

#include "mpisim/job.hpp"

using namespace toast;

int main(int argc, char** argv) {
  auto problem = bench_model::medium_problem();
  core::Backend backend = core::Backend::kOmpTarget;
  mpisim::JobConfig cfg{problem, backend};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "medium") cfg.problem = bench_model::medium_problem();
    else if (arg == "large") cfg.problem = bench_model::large_problem();
    else if (arg == "cpu") cfg.schedule.set_backend(core::Backend::kCpu);
    else if (arg == "omptarget") cfg.schedule.set_backend(core::Backend::kOmpTarget);
    else if (arg == "jax") cfg.schedule.set_backend(core::Backend::kJax);
    else if (arg == "jax-cpu") cfg.schedule.set_backend(core::Backend::kJaxCpu);
    else if (arg == "--no-mps") cfg.schedule.device.mps = false;
    else if (arg == "--naive") cfg.schedule.staging.mode = config::Staging::kNaive;
    else if (arg == "--prealloc") cfg.schedule.device.jax_preallocate = true;
    else if (std::isdigit(static_cast<unsigned char>(arg[0]))) {
      cfg.problem.procs_per_node = std::stoi(arg);
    } else {
      std::fprintf(stderr,
                   "usage: %s [medium|large] [cpu|omptarget|jax|jax-cpu] "
                   "[procs-per-node] [--no-mps] [--naive] [--prealloc]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("problem %s: %.1e samples over %d node(s), %d procs/node x %d "
              "threads, %d GPU(s)/node\n",
              cfg.problem.name.c_str(), cfg.problem.paper_total_samples,
              cfg.problem.nodes, cfg.problem.procs_per_node,
              cfg.problem.threads_per_proc(), cfg.problem.gpus_per_node);
  std::printf("backend %s, mps %s, staging %s\n",
              core::to_string(cfg.backend_id()),
              cfg.schedule.device.mps ? "on" : "off",
              cfg.schedule.staging.mode == config::Staging::kPipelined
                  ? "pipelined"
                  : "naive");

  const auto result = mpisim::run_benchmark_job(cfg);
  if (result.oom) {
    std::printf("\n-> does not fit: %s\n", result.oom_reason.c_str());
    std::printf("   host/proc %.1f GB, device/proc %.1f GB (device/GPU "
                "%.1f GB of 40)\n",
                result.memory.host_bytes_per_proc / 1e9,
                result.memory.device_bytes_per_proc / 1e9,
                result.memory.device_bytes_per_gpu / 1e9);
    return 1;
  }

  std::printf("\nmodelled job runtime : %10.2f s\n", result.runtime);
  std::printf("  host lane          : %10.2f s\n", result.host_seconds);
  std::printf("  device (one rank)  : %10.2f s\n", result.device_seconds);
  std::printf("  device busy / GPU  : %10.2f s\n", result.device_busy_per_gpu);
  std::printf("  PCIe transfers     : %10.2f s\n", result.transfer_seconds);
  std::printf("  MPI collectives    : %10.4f s\n", result.comm_seconds);
  std::printf("  host mem / proc    : %10.2f GB\n",
              result.memory.host_bytes_per_proc / 1e9);
  std::printf("  device mem / GPU   : %10.2f GB\n",
              result.memory.device_bytes_per_gpu / 1e9);

  std::printf("\ntop categories (one rank):\n");
  for (const auto& name : result.rank_log.categories()) {
    const double s = result.rank_log.seconds(name);
    if (s > 0.01 * result.runtime) {
      std::printf("  %-34s %10.3f s\n", name.c_str(), s);
    }
  }
  return 0;
}
