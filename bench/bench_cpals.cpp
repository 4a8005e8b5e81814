// Experiment F7 — end-to-end CP-ALS: per-iteration time and phase
// dissection (MTTKRP / dense updates / fit), per engine.
//
// Mirrors the "CP-ALS iteration time" tables and the run-time dissection
// figure of the sparse-CP papers. Expected shape: MTTKRP dominates, so the
// end-to-end ranking follows the F1 kernel ranking; dense/fit phases are
// engine-independent noise.
#include <sstream>

#include "bench_common.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace mdcp;
  using namespace mdcp::bench;

  init(argc, argv);
  set_num_threads(1);
  CpAlsOptions opt;
  opt.rank = 16;
  opt.max_iterations = 5;
  opt.tolerance = 0;  // fixed iteration count for fair timing
  opt.seed = 4242;

  note("== F7: CP-ALS per-iteration time (R=%u, %d iters, 1 thread) ==\n\n",
       opt.rank, opt.max_iterations);

  const char* const engines[] = {"coo",        "csf",       "dtree-flat",
                                 "dtree-3lvl", "dtree-bdt", "auto"};

  for (const auto& ds : standard_datasets()) {
    note("dataset: %s (%s)\n", ds.name.c_str(), ds.tensor.summary().c_str());
    TablePrinter table({"engine", "iter-total", "mttkrp", "dense", "fit",
                        "symbolic", "numeric", "scratch", "final-fit"},
                       14, "F7/" + ds.name);
    for (const char* engine : engines) {
      opt.engine_name = engine;
      const auto result = cp_als(ds.tensor, opt);
      const double iters = result.iterations;
      std::ostringstream fit;
      fit.precision(4);
      fit << result.final_fit();
      // symbolic/numeric/scratch come from the engine's KernelStats: the
      // one-time prepare cost, the summed kernel time (a subset of the
      // mttkrp wall column), and the peak per-thread workspace footprint.
      table.add_row(
          {result.engine_name,
           fmt_seconds((result.mttkrp_seconds + result.dense_seconds +
                        result.fit_seconds) /
                       iters),
           fmt_seconds(result.mttkrp_seconds / iters),
           fmt_seconds(result.dense_seconds / iters),
           fmt_seconds(result.fit_seconds / iters),
           fmt_seconds(result.kernel_stats.symbolic_seconds),
           fmt_seconds(result.kernel_stats.numeric_seconds / iters),
           fmt_bytes(result.kernel_stats.peak_scratch_bytes), fit.str()});
    }
    table.print();
  }
  return 0;
}
