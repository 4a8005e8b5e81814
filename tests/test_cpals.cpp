#include <gtest/gtest.h>

#include <cmath>

#include "cpals/cp_mu.hpp"
#include "cpals/cpals.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"

namespace mdcp {
namespace {

using mdcp::testing::exact_engine_names;
using mdcp::testing::engine_label;

TEST(CpAls, RecoversPlantedLowRankTensor) {
  // Noiseless rank-3 data on a fully observed grid: ALS should fit it almost
  // perfectly. (A sparsely *sampled* low-rank model is not itself low-rank —
  // unstored entries are true zeros to sparse CP-ALS.)
  const auto planted = generate_planted_dense(shape_t{12, 14, 16}, 3, 0.0, 1);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 60;
  opt.tolerance = 1e-9;
  opt.engine_name = "dtree-bdt";
  // Multiple restarts: single-init ALS can land in a local minimum.
  const auto result = cp_als_best_of(planted.tensor, opt, 3);
  EXPECT_GT(result.final_fit(), 0.98) << "iterations " << result.iterations;
}

TEST(CpAls, BestOfPicksBestRestart) {
  // The contract: cp_als_best_of returns the best of `num_starts` plain
  // cp_als runs seeded splitmix64(seed + s), the first one on a tie.
  const auto planted = generate_planted_dense(shape_t{10, 10, 10}, 2, 0.0, 3);
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 40;
  opt.tolerance = 1e-9;
  const int starts = 4;
  CpAlsResult best;
  for (int s = 0; s < starts; ++s) {
    CpAlsOptions one = opt;
    one.seed = splitmix64(opt.seed + static_cast<std::uint64_t>(s));
    CpAlsResult run = cp_als(planted.tensor, one);
    if (s == 0 || run.final_fit() > best.final_fit()) best = std::move(run);
  }
  const auto multi = cp_als_best_of(planted.tensor, opt, starts);
  EXPECT_EQ(multi.fits, best.fits);
  EXPECT_EQ(multi.model.weights, best.model.weights);
  ASSERT_EQ(multi.model.factors.size(), best.model.factors.size());
  for (std::size_t m = 0; m < best.model.factors.size(); ++m)
    EXPECT_EQ(Matrix::max_abs_diff(multi.model.factors[m],
                                   best.model.factors[m]),
              0.0)
        << "mode " << m;
}

TEST(CpAls, FitNonDecreasingUpToTolerance) {
  const auto t = generate_zipf(shape_t{25, 30, 35, 40}, 3000, 1.1, 3);
  CpAlsOptions opt;
  opt.rank = 8;
  opt.max_iterations = 15;
  opt.tolerance = 0;  // run all iterations
  const auto result = cp_als(t, opt);
  ASSERT_EQ(result.iterations, 15);
  for (std::size_t i = 1; i < result.fits.size(); ++i) {
    EXPECT_GE(result.fits[i], result.fits[i - 1] - 1e-8)
        << "iteration " << i;
  }
}

TEST(CpAls, ConvergesAndStopsEarly) {
  const auto planted = generate_planted_dense(shape_t{10, 12, 14}, 2, 0.0, 5);
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 200;
  opt.tolerance = 1e-7;
  const auto result = cp_als(planted.tensor, opt);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 200);
}

TEST(CpAls, AllEnginesProduceIdenticalTrajectories) {
  // Every engine computes the exact same MTTKRP, and the driver is otherwise
  // deterministic, so the per-iteration fits must agree to round-off.
  const auto t = generate_uniform(shape_t{15, 18, 21, 24}, 1200, 7);
  CpAlsOptions opt;
  opt.rank = 5;
  opt.max_iterations = 8;
  opt.tolerance = 0;
  opt.seed = 99;

  std::vector<real_t> reference_fits;
  for (const std::string& k : exact_engine_names()) {
    opt.engine_name = k;
    const auto result = cp_als(t, opt);
    ASSERT_EQ(result.fits.size(), 8u) << engine_label(k);
    if (reference_fits.empty()) {
      reference_fits = result.fits;
    } else {
      for (std::size_t i = 0; i < reference_fits.size(); ++i) {
        EXPECT_NEAR(result.fits[i], reference_fits[i], 1e-8)
            << engine_label(k) << " iteration " << i;
      }
    }
  }
}

TEST(CpAls, AutoEngineMatchesExplicitTrajectory) {
  const auto t = generate_clustered(shape_t{40, 40, 40, 40}, 2000,
                                    {.clusters = 8, .spread = 3.0}, 9);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 6;
  opt.tolerance = 0;
  opt.engine_name = "dtree-bdt";
  const auto expect = cp_als(t, opt);
  opt.engine_name = "auto";
  const auto got = cp_als(t, opt);
  ASSERT_EQ(got.fits.size(), expect.fits.size());
  for (std::size_t i = 0; i < got.fits.size(); ++i)
    EXPECT_NEAR(got.fits[i], expect.fits[i], 1e-8);
  EXPECT_EQ(got.engine_name.rfind("auto:", 0), 0u);
}

TEST(CpAls, FitMatchesExactResidual) {
  // The fast fit identity must agree with the exact residual computation.
  const auto t = generate_uniform(shape_t{12, 14, 16}, 600, 11);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 5;
  opt.tolerance = 0;
  const auto result = cp_als(t, opt);
  const real_t exact_fit = 1 - residual_norm(t, result.model) / t.norm();
  EXPECT_NEAR(result.final_fit(), exact_fit, 1e-8);
}

TEST(CpAls, ReusedEngineGivesSameResult) {
  // The amortization pattern: one engine, several CP-ALS runs (e.g. rank
  // search / multiple restarts). State must be fully reset between runs.
  const auto t = generate_uniform(shape_t{15, 15, 15, 15}, 800, 13);
  auto engine = make_engine("dtree-bdt", t, 4);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 5;
  opt.tolerance = 0;
  const auto first = cp_als(t, *engine, opt);
  const auto second = cp_als(t, *engine, opt);
  ASSERT_EQ(first.fits.size(), second.fits.size());
  for (std::size_t i = 0; i < first.fits.size(); ++i)
    EXPECT_DOUBLE_EQ(first.fits[i], second.fits[i]);
}

TEST(CpAls, DifferentSeedsDifferentInits) {
  const auto t = generate_uniform(shape_t{15, 15, 15}, 500, 17);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 1;
  opt.tolerance = 0;
  opt.seed = 1;
  const auto a = cp_als(t, opt);
  opt.seed = 2;
  const auto b = cp_als(t, opt);
  EXPECT_NE(a.fits[0], b.fits[0]);
}

TEST(CpAls, TimingDissectionPopulated) {
  const auto t = generate_uniform(shape_t{20, 20, 20}, 1000, 19);
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  const auto result = cp_als(t, opt);
  EXPECT_GT(result.mttkrp_seconds, 0.0);
  EXPECT_GT(result.dense_seconds, 0.0);
  EXPECT_GT(result.fit_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.mttkrp_seconds);
}

TEST(CpAls, ModelShapesMatchInput) {
  const auto t = generate_uniform(shape_t{9, 11, 13}, 300, 23);
  CpAlsOptions opt;
  opt.rank = 5;
  opt.max_iterations = 2;
  const auto result = cp_als(t, opt);
  ASSERT_EQ(result.model.order(), 3);
  EXPECT_EQ(result.model.rank(), 5u);
  for (mode_t m = 0; m < 3; ++m) {
    EXPECT_EQ(result.model.factors[m].rows(), t.dim(m));
    EXPECT_EQ(result.model.factors[m].cols(), 5u);
  }
  result.model.validate();
}

TEST(CpAls, FactorColumnsAreUnitNorm) {
  const auto t = generate_uniform(shape_t{10, 12, 14}, 400, 29);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 3;
  const auto result = cp_als(t, opt);
  // The last-updated factor (mode N-1) is explicitly normalized.
  const auto& u = result.model.factors[2];
  for (index_t r = 0; r < 4; ++r) {
    real_t norm = 0;
    for (index_t i = 0; i < u.rows(); ++i) norm += u(i, r) * u(i, r);
    EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-10);
  }
}

TEST(CpAls, InvalidOptionsThrow) {
  const auto t = generate_uniform(shape_t{5, 5}, 20, 31);
  CpAlsOptions opt;
  opt.rank = 0;
  EXPECT_THROW(cp_als(t, opt), error);
  opt.rank = 2;
  opt.max_iterations = 0;
  EXPECT_THROW(cp_als(t, opt), error);
}

TEST(CpAls, HigherOrderSmoke) {
  const auto planted =
      generate_planted_dense(shape_t{4, 4, 4, 4, 4, 4}, 2, 0.0, 37);
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 40;
  opt.tolerance = 1e-8;
  opt.engine_name = "dtree-bdt";
  const auto result = cp_als_best_of(planted.tensor, opt, 3);
  EXPECT_GT(result.final_fit(), 0.95);
}

TEST(CpAls, NonnegativeFactorsStayNonnegative) {
  // Count-like data (all values positive): projected ALS must produce
  // entrywise nonnegative factors and still fit reasonably.
  const auto t = generate_zipf(shape_t{30, 35, 40}, 2500, 1.2, 41);
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 12;
  opt.tolerance = 0;
  opt.nonnegative = true;
  const auto result = cp_als(t, opt);
  for (mode_t m = 0; m < 3; ++m) {
    const auto& f = result.model.factors[m];
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t r = 0; r < f.cols(); ++r)
        EXPECT_GE(f(i, r), 0.0) << "mode " << m;
  }
  for (real_t w : result.model.weights) EXPECT_GE(w, 0.0);
  EXPECT_GT(result.final_fit(), 0.0);
}

TEST(CpAls, NonnegativeFitNotWildlyWorse) {
  const auto planted = generate_planted_dense(shape_t{8, 8, 8}, 2, 0.0, 43);
  // Make the planted data nonnegative by flipping the sign structure: use
  // absolute values so a nonnegative model is feasible-ish.
  CooTensor t = planted.tensor;
  for (nnz_t i = 0; i < t.nnz(); ++i) t.value(i) = std::abs(t.value(i));
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 30;
  opt.tolerance = 1e-7;
  opt.nonnegative = true;
  const auto nn = cp_als(t, opt);
  EXPECT_GT(nn.final_fit(), 0.3);
}

TEST(CpAls, RidgeStabilizesRankDeficientFit) {
  // Rank-1 data at rank 4 makes H singular without regularization; with a
  // ridge the Cholesky fast path always succeeds and the fit stays high.
  const auto planted = generate_planted_dense(shape_t{8, 8, 8}, 1, 0.0, 61);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 20;
  opt.tolerance = 0;
  opt.ridge = 1e-8;
  const auto result = cp_als(planted.tensor, opt);
  for (real_t f : result.fits) EXPECT_TRUE(std::isfinite(f));
  EXPECT_GT(result.final_fit(), 0.99);
}

TEST(CpAls, ZeroRidgeMatchesDefault) {
  const auto t = generate_uniform(shape_t{10, 12, 14}, 400, 63);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  const auto a = cp_als(t, opt);
  opt.ridge = 0;
  const auto b = cp_als(t, opt);
  for (std::size_t i = 0; i < a.fits.size(); ++i)
    EXPECT_DOUBLE_EQ(a.fits[i], b.fits[i]);
}

TEST(CpMu, RejectsNegativeData) {
  CooTensor t(shape_t{3, 3});
  t.push_back(std::array<index_t, 2>{0, 0}, -1.0);
  CpAlsOptions opt;
  opt.rank = 2;
  EXPECT_THROW(cp_mu(t, opt), error);
}

TEST(CpMu, FactorsNonnegativeAndFitImproves) {
  const auto t = generate_zipf(shape_t{25, 30, 35}, 2000, 1.2, 45);
  CpAlsOptions opt;
  opt.rank = 5;
  opt.max_iterations = 25;
  opt.tolerance = 0;
  const auto result = cp_mu(t, opt);
  for (mode_t m = 0; m < 3; ++m) {
    const auto& f = result.model.factors[m];
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t r = 0; r < f.cols(); ++r) EXPECT_GE(f(i, r), 0.0);
  }
  // Multiplicative updates are monotone in the objective: fit never drops.
  for (std::size_t i = 1; i < result.fits.size(); ++i)
    EXPECT_GE(result.fits[i], result.fits[i - 1] - 1e-8);
  EXPECT_GT(result.final_fit(), result.fits.front());
}

TEST(CpMu, RecoversNonnegativePlantedModel) {
  // Nonnegative planted data: generate_planted uses nonnegative factors.
  const auto planted = generate_planted(shape_t{12, 12, 12}, 2, 100000, 0.0, 47);
  // With nnz_target >= positions the sample is effectively dense.
  CpAlsOptions opt;
  opt.rank = 2;
  opt.max_iterations = 150;
  opt.tolerance = 1e-9;
  const auto result = cp_mu(planted.tensor, opt);
  // Multiplicative updates converge slowly near all-positive (collinear)
  // planted factors; 0.8 after 150 iterations is the expected regime.
  EXPECT_GT(result.final_fit(), 0.8);
}

TEST(CpMu, WorksWithAllEngines) {
  const auto t = generate_uniform(shape_t{10, 12, 14, 16}, 500, 49);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  std::vector<real_t> reference;
  for (const std::string& k : mdcp::testing::exact_engine_names()) {
    opt.engine_name = k;
    const auto r = cp_mu(t, opt);
    if (reference.empty()) {
      reference = r.fits;
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_NEAR(r.fits[i], reference[i], 1e-8) << engine_label(k);
    }
  }
}

TEST(CpAls, CongruenceDiagnosticOnRecovery) {
  const auto planted = generate_planted_dense(shape_t{12, 14, 16}, 3, 0.0, 7);
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 80;
  opt.tolerance = 1e-10;
  const auto result = cp_als_best_of(planted.tensor, opt, 3);
  KruskalTensor truth{planted.weights, planted.factors};
  EXPECT_GT(factor_congruence(truth, result.model), 0.95)
      << "fit was " << result.final_fit();
}

}  // namespace
}  // namespace mdcp
