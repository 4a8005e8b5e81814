// Parameterized property sweeps across module boundaries: exhaustive CSF
// mode orders, KMV accuracy vs sketch size, SPD solves across dimensions,
// and MTTKRP linearity/scaling identities.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "test_helpers.hpp"

namespace mdcp {
namespace {

using mdcp::testing::random_factors;

// --- all 24 CSF mode orders of a 4-mode tensor -----------------------------

class AllCsfOrders : public ::testing::TestWithParam<int> {};

std::vector<mode_t> nth_permutation(mode_t order, int n) {
  std::vector<mode_t> p(order);
  std::iota(p.begin(), p.end(), mode_t{0});
  for (int i = 0; i < n; ++i) std::next_permutation(p.begin(), p.end());
  return p;
}

TEST_P(AllCsfOrders, StructureAndRootKernel) {
  const auto t = generate_zipf(shape_t{12, 14, 16, 18}, 400, 1.0, 2100);
  const auto order = nth_permutation(4, GetParam());
  const CsfTensor csf(t, order);

  // Fiber counts are monotone with depth and end at nnz.
  for (mode_t l = 1; l < 4; ++l)
    EXPECT_LE(csf.num_fibers(l - 1), csf.num_fibers(l));
  EXPECT_EQ(csf.num_fibers(3), t.nnz());

  // fptr arrays are monotone and consistent with the next level.
  for (mode_t l = 0; l < 3; ++l) {
    const auto ptr = csf.fptr(l);
    ASSERT_EQ(ptr.size(), csf.num_fibers(l) + 1);
    EXPECT_EQ(ptr.front(), 0u);
    EXPECT_EQ(ptr.back(), csf.num_fibers(l + 1));
    for (std::size_t i = 1; i < ptr.size(); ++i)
      EXPECT_LT(ptr[i - 1], ptr[i]);  // every fiber has >= 1 child
  }

  // Root-mode MTTKRP under this ordering is exact.
  const auto factors = random_factors(t, 3, 2200u + GetParam());
  Matrix got, want;
  csf_mttkrp_root(csf, factors, got);
  mttkrp_reference(t, factors, order[0], want);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-10);

  // And the single-CSF engine is exact for every mode under this ordering.
  CsfOneMttkrpEngine one(t, order);
  for (mode_t m = 0; m < 4; ++m) {
    one.compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-10) << "mode " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Permutations, AllCsfOrders, ::testing::Range(0, 24));

// --- KMV accuracy scales as ~1/sqrt(k) -------------------------------------

class KmvAccuracy : public ::testing::TestWithParam<unsigned> {};

TEST_P(KmvAccuracy, WithinTheoreticalBand) {
  const unsigned k = GetParam();
  const auto t = generate_uniform(shape_t{400, 400, 400}, 50000, 2300);
  const auto exact =
      static_cast<double>(exact_distinct_projections(t, 0b011));
  const auto est =
      static_cast<double>(kmv_distinct_projections(t, 0b011, k));
  // KMV standard error is ~1/sqrt(k-2); allow 5 sigma.
  const double band = 5.0 / std::sqrt(static_cast<double>(k));
  EXPECT_NEAR(est / exact, 1.0, band) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(SketchSizes, KmvAccuracy,
                         ::testing::Values(64u, 256u, 1024u, 4096u));

// --- SPD solves across sizes ------------------------------------------------

class CholeskySizes : public ::testing::TestWithParam<index_t> {};

TEST_P(CholeskySizes, SolveResidualTiny) {
  const index_t n = GetParam();
  Rng rng(2400u + n);
  const Matrix b = Matrix::random_normal(n + 5, n, rng);
  Matrix h = gram(b);
  for (index_t i = 0; i < n; ++i) h(i, i) += 1;
  const Matrix m = Matrix::random_normal(7, n, rng);
  const Matrix x = solve_normal_equations(h, m);
  EXPECT_LT(Matrix::max_abs_diff(multiply(x, h), m), 1e-7) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizes,
                         ::testing::Values(index_t{1}, index_t{2}, index_t{8},
                                           index_t{32}, index_t{64}));

// --- algebraic identities of MTTKRP ----------------------------------------

TEST(MttkrpIdentities, LinearInTensorValues) {
  // MTTKRP(aX + bY) == a·MTTKRP(X) + b·MTTKRP(Y) for tensors on the same
  // sparsity pattern.
  const auto x = generate_uniform(shape_t{10, 12, 14}, 300, 2500);
  CooTensor y = x;
  Rng rng(2501);
  for (nnz_t i = 0; i < y.nnz(); ++i) y.value(i) = rng.next_real();
  CooTensor combo = x;
  for (nnz_t i = 0; i < combo.nnz(); ++i)
    combo.value(i) = 2 * x.value(i) - 3 * y.value(i);

  const auto factors = random_factors(x, 4, 2502);
  Matrix mx, my, mc;
  mttkrp_reference(x, factors, 1, mx);
  mttkrp_reference(y, factors, 1, my);
  mttkrp_reference(combo, factors, 1, mc);
  for (index_t i = 0; i < mc.rows(); ++i)
    for (index_t r = 0; r < mc.cols(); ++r)
      EXPECT_NEAR(mc(i, r), 2 * mx(i, r) - 3 * my(i, r), 1e-10);
}

TEST(MttkrpIdentities, ScalingAFactorScalesOutput) {
  // Scaling factor U^(j) (j ≠ output mode) by c scales the MTTKRP by c.
  const auto t = generate_uniform(shape_t{8, 9, 10, 11}, 200, 2600);
  auto factors = random_factors(t, 3, 2601);
  const auto engine = make_engine("dtree-bdt", t, 3);
  Matrix base, scaled;
  engine->compute(0, factors, base);
  for (std::size_t e = 0; e < factors[2].size(); ++e)
    factors[2].data()[e] *= 4.0;
  engine->factor_updated(2);
  engine->compute(0, factors, scaled);
  for (index_t i = 0; i < base.rows(); ++i)
    for (index_t r = 0; r < base.cols(); ++r)
      EXPECT_NEAR(scaled(i, r), 4.0 * base(i, r), 1e-9);
}

TEST(MttkrpIdentities, SumOverOutputEqualsFullContraction) {
  // Σᵢ M⁽⁰⁾(i, r) = X ×₀ 1 ×₁ u_r ... — check against a TTV chain with an
  // all-ones vector in the output mode.
  const auto t = generate_uniform(shape_t{7, 8, 9}, 150, 2700);
  const auto factors = random_factors(t, 2, 2701);
  Matrix m;
  mttkrp_reference(t, factors, 0, m);
  for (index_t r = 0; r < 2; ++r) {
    real_t column_sum = 0;
    for (index_t i = 0; i < m.rows(); ++i) column_sum += m(i, r);
    // Direct full contraction.
    real_t expect = 0;
    for (nnz_t i = 0; i < t.nnz(); ++i) {
      expect += t.value(i) * factors[1](t.index(1, i), r) *
                factors[2](t.index(2, i), r);
    }
    EXPECT_NEAR(column_sum, expect, 1e-10);
  }
}

}  // namespace
}  // namespace mdcp
