// Computational phenotyping on a 5-mode EHR-style tensor
// (patient × diagnosis × medication × procedure × visit-month) — the
// higher-order workload that motivates memoized MTTKRP: at order 5 the
// baseline recomputes every contraction 5 times per iteration.
//
// The example (a) compares engine wall-times on the same decomposition,
// demonstrating the model-driven choice, and (b) prints the extracted
// "phenotypes": the top-loading diagnosis/medication indices per component.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "mdcp.hpp"

namespace {

std::vector<mdcp::index_t> top_loadings(const mdcp::Matrix& factor,
                                        mdcp::index_t component, int k) {
  std::vector<mdcp::index_t> idx(factor.rows());
  for (mdcp::index_t i = 0; i < factor.rows(); ++i) idx[i] = i;
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](mdcp::index_t a, mdcp::index_t b) {
                      return factor(a, component) > factor(b, component);
                    });
  idx.resize(static_cast<std::size_t>(k));
  return idx;
}

}  // namespace

int main() {
  using namespace mdcp;

  // Synthetic EHR: 8k patients, 900 diagnoses, 600 medications, 400
  // procedures, 36 months; clustered so that comorbidity groups exist.
  const shape_t shape{8000, 900, 600, 400, 36};
  const CooTensor ehr = generate_clustered(
      shape, 120000, {.clusters = 40, .spread = 5.0}, 90210);
  std::printf("EHR tensor: %s\n\n", ehr.summary().c_str());

  // (a) Engine comparison on identical work (3 iterations, rank 16). The
  // trajectories are identical across engines; only the time differs.
  CpAlsOptions opt;
  opt.rank = 16;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  std::printf("%-12s %-14s %-12s\n", "engine", "mttkrp/iter", "fit@3");
  for (const char* engine : {"csf", "dtree-bdt", "auto"}) {
    opt.engine_name = engine;
    const auto r = cp_als(ehr, opt);
    std::printf("%-12s %-14.4f %-12.5f\n", r.engine_name.c_str(),
                r.mttkrp_seconds / r.iterations,
                static_cast<double>(r.final_fit()));
  }

  // (b) Phenotype extraction with the tuned engine, run to convergence.
  opt.engine_name = "auto";
  opt.max_iterations = 20;
  opt.tolerance = 1e-5;
  const auto result = cp_als(ehr, opt);
  std::printf("\nphenotypes (fit %.4f):\n",
              static_cast<double>(result.final_fit()));
  for (index_t comp = 0; comp < 3; ++comp) {
    std::printf("  component %u (weight %.3f):\n", comp,
                static_cast<double>(result.model.weights[comp]));
    const auto dx = top_loadings(result.model.factors[1], comp, 3);
    const auto rx = top_loadings(result.model.factors[2], comp, 3);
    std::printf("    top diagnoses:   %u %u %u\n", dx[0], dx[1], dx[2]);
    std::printf("    top medications: %u %u %u\n", rx[0], rx[1], rx[2]);
  }
  return 0;
}
