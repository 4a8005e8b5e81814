// Quickstart: build a small sparse tensor, run CP-ALS with the model-driven
// engine, and inspect the result.
//
//   $ ./quickstart
//
// Covers the three-call core API: construct a CooTensor, pick CpAlsOptions,
// call cp_als().
#include <cstdio>

#include "mdcp.hpp"

int main() {
  using namespace mdcp;

  // A 4x4x4 tensor describing a toy (user, item, context) interaction cube.
  CooTensor x(shape_t{4, 4, 4});
  const std::vector<std::array<index_t, 3>> coords{
      {0, 0, 0}, {0, 1, 0}, {1, 0, 1}, {1, 1, 1}, {2, 2, 2},
      {2, 3, 2}, {3, 2, 3}, {3, 3, 3}, {0, 2, 1}, {1, 3, 0},
  };
  const std::vector<real_t> vals{5, 4, 3, 5, 4, 5, 2, 4, 1, 2};
  for (std::size_t i = 0; i < coords.size(); ++i)
    x.push_back(coords[i], vals[i]);

  std::printf("input: %s, |X| = %.3f\n", x.summary().c_str(),
              static_cast<double>(x.norm()));

  // Decompose at rank 2. The "auto" engine asks the model-driven tuner to
  // pick the MTTKRP strategy; for a 3-mode toy it will choose a cheap tree.
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 100;
  opt.tolerance = 1e-8;
  opt.engine_name = "auto";
  opt.verbose = false;

  const CpAlsResult result = cp_als(x, opt);

  std::printf("engine: %s\n", result.engine_name.c_str());
  std::printf("converged after %d iterations, fit = %.5f\n", result.iterations,
              static_cast<double>(result.final_fit()));

  // The model is lambda-weighted: X ≈ Σ_r λ_r u_r ∘ v_r ∘ w_r.
  for (index_t r = 0; r < result.model.rank(); ++r) {
    std::printf("component %u (weight %.4f): mode-0 loadings [", r,
                static_cast<double>(result.model.weights[r]));
    for (index_t i = 0; i < 4; ++i)
      std::printf("%s%.3f", i ? ", " : "",
                  static_cast<double>(result.model.factors[0](i, r)));
    std::printf("]\n");
  }

  // Point predictions at arbitrary coordinates (including unobserved ones).
  const std::array<index_t, 3> seen{0, 0, 0};
  const std::array<index_t, 3> unseen{0, 3, 0};
  std::printf("predicted X(0,0,0) = %.3f (stored 5.0)\n",
              static_cast<double>(result.model.value_at(seen)));
  std::printf("predicted X(0,3,0) = %.3f (unobserved)\n",
              static_cast<double>(result.model.value_at(unseen)));
  return 0;
}
