// Ablation (paper §3.2.2): hybrid-pipeline data staging vs the naive
// strategy of transferring data to/from the GPU around every kernel.
// The paper measured the pipelined staging at ~40% faster end to end.

#include <cstdio>

#include "bench_util.hpp"
#include "mpisim/job.hpp"

using namespace toast;
using core::Backend;

int main() {
  toast::bench::print_header(
      "Ablation: pipelined staging vs naive per-kernel transfers "
      "(medium, 16 procs)");

  const auto problem = bench_model::medium_problem();
  std::printf("%-12s %16s %16s %10s\n", "backend", "pipelined", "naive",
              "gain");
  std::printf("----------------------------------------------------------\n");
  for (const auto& [label, backend] :
       {std::pair{"omp-target", Backend::kOmpTarget},
        std::pair{"jax", Backend::kJax}}) {
    mpisim::JobConfig staged{problem, backend};
    staged.schedule.staging.mode = config::Staging::kPipelined;
    mpisim::JobConfig naive{problem, backend};
    naive.schedule.staging.mode = config::Staging::kNaive;
    const auto a = mpisim::run_benchmark_job(staged);
    const auto b = mpisim::run_benchmark_job(naive);
    std::printf("%-12s %16s %16s %9.0f%%\n", label,
                toast::bench::fmt_seconds(a.runtime).c_str(),
                toast::bench::fmt_seconds(b.runtime).c_str(),
                100.0 * (b.runtime / a.runtime - 1.0));
    std::printf("  transfers: %s vs %s\n",
                toast::bench::fmt_seconds(a.transfer_seconds).c_str(),
                toast::bench::fmt_seconds(b.transfer_seconds).c_str());
  }
  std::printf("\npaper: staging gave ~40%% end-to-end speedup over the naive\n"
              "       per-kernel transfer strategy (early tests, §3.2.2).\n");
  return 0;
}
