// Cross-cutting edge cases and failure-injection tests: degenerate shapes,
// extreme sparsity, malformed specs, and boundary parameter values across
// all modules.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "test_helpers.hpp"

namespace mdcp {
namespace {

using mdcp::testing::exact_engine_names;
using mdcp::testing::random_factors;

// --- degenerate tensor shapes --------------------------------------------

TEST(EdgeCases, SizeOneModes) {
  // Modes of size 1 are legal and common after slicing.
  CooTensor t(shape_t{1, 5, 1, 7});
  t.push_back(std::array<index_t, 4>{0, 2, 0, 3}, 1.5);
  t.push_back(std::array<index_t, 4>{0, 4, 0, 6}, -2.5);
  const auto factors = random_factors(t, 3, 1);
  for (const std::string& k : exact_engine_names()) {
    const auto engine = make_engine(k, t, 3);
    Matrix got, want;
    for (mode_t m = 0; m < 4; ++m) {
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-12)
          << k << " mode " << m;
    }
  }
}

TEST(EdgeCases, FullyDenseTensor) {
  // Every position occupied: maximal fiber sharing everywhere.
  CooTensor t(shape_t{3, 3, 3});
  std::array<index_t, 3> c{};
  Rng rng(2);
  for (c[0] = 0; c[0] < 3; ++c[0])
    for (c[1] = 0; c[1] < 3; ++c[1])
      for (c[2] = 0; c[2] < 3; ++c[2]) t.push_back(c, rng.next_real());
  const auto factors = random_factors(t, 4, 3);
  for (const std::string& k : exact_engine_names()) {
    const auto engine = make_engine(k, t, 4);
    Matrix got, want;
    engine->compute(1, factors, got);
    mttkrp_reference(t, factors, 1, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-12) << k;
  }
}

TEST(EdgeCases, DiagonalTensor) {
  // Hyper-diagonal: zero index overlap under any projection except single
  // modes — the worst case for memoization, still must be exact.
  CooTensor t(shape_t{20, 20, 20, 20});
  for (index_t i = 0; i < 20; ++i)
    t.push_back(std::array<index_t, 4>{i, i, i, i}, static_cast<real_t>(i + 1));
  const auto factors = random_factors(t, 5, 4);
  for (const std::string& k : exact_engine_names()) {
    const auto engine = make_engine(k, t, 5);
    Matrix got, want;
    for (mode_t m = 0; m < 4; ++m) {
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-10) << k;
    }
  }
}

TEST(EdgeCases, SingleSliceRepeated) {
  // All nonzeros share the same index in mode 0 (one gigantic slice).
  CooTensor t(shape_t{10, 15, 15});
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    t.push_back(std::array<index_t, 3>{7, rng.next_index(15),
                                       rng.next_index(15)},
                rng.next_real());
  }
  t.coalesce();
  const auto factors = random_factors(t, 3, 6);
  for (const std::string& k : exact_engine_names()) {
    const auto engine = make_engine(k, t, 3);
    Matrix got, want;
    engine->compute(0, factors, got);
    mttkrp_reference(t, factors, 0, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-10) << k;
    // All non-7 rows must be zero.
    for (index_t i = 0; i < 10; ++i) {
      if (i == 7) continue;
      for (index_t r = 0; r < 3; ++r) EXPECT_DOUBLE_EQ(got(i, r), 0.0);
    }
  }
}

// --- huge-rank and rank-1 boundaries --------------------------------------

TEST(EdgeCases, LargeRankStillExact) {
  const auto t = generate_uniform(shape_t{12, 13, 14}, 200, 7);
  const index_t rank = 128;
  const auto factors = random_factors(t, rank, 8);
  const auto engine = make_engine("dtree-bdt", t, rank);
  Matrix got, want;
  engine->compute(2, factors, got);
  mttkrp_reference(t, factors, 2, want);
  EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-8);
}

// --- numerical pathologies -------------------------------------------------

TEST(EdgeCases, HugeAndTinyValues) {
  CooTensor t(shape_t{4, 4, 4});
  t.push_back(std::array<index_t, 3>{0, 0, 0}, 1e12);
  t.push_back(std::array<index_t, 3>{1, 1, 1}, 1e-12);
  t.push_back(std::array<index_t, 3>{2, 2, 2}, -1e12);
  const auto factors = random_factors(t, 2, 9);
  for (const std::string& k : exact_engine_names()) {
    const auto engine = make_engine(k, t, 2);
    Matrix got, want;
    engine->compute(0, factors, got);
    mttkrp_reference(t, factors, 0, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-2) << k;
    for (std::size_t e = 0; e < got.size(); ++e)
      EXPECT_TRUE(std::isfinite(got.data()[e]));
  }
}

TEST(EdgeCases, CpAlsOnRankDeficientData) {
  // Rank-1 data decomposed at rank 4: H^(n) becomes singular as columns
  // align; the pseudo-inverse fallback must keep iterations finite.
  const auto planted = generate_planted_dense(shape_t{8, 8, 8}, 1, 0.0, 11);
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 25;
  opt.tolerance = 0;
  const auto result = cp_als(planted.tensor, opt);
  for (real_t f : result.fits) EXPECT_TRUE(std::isfinite(f));
  EXPECT_GT(result.final_fit(), 0.99);  // rank-4 ⊇ rank-1
}

// --- spec/validation failure injection -------------------------------------

TEST(EdgeCases, TreeSpecSingleChildRejected) {
  TreeSpec bad;
  bad.modes = {0, 1};
  TreeSpec only;
  only.modes = {0, 1};
  only.children = {TreeSpec{{0}, {}}, TreeSpec{{1}, {}}};
  bad.children.push_back(only);
  EXPECT_THROW(bad.validate(2), error);
}

TEST(EdgeCases, TreeSpecLeafWithManyModesRejected) {
  TreeSpec bad;
  bad.modes = {0, 1};  // "leaf" (no children) with two modes
  EXPECT_THROW(bad.validate(2), error);
}

TEST(EdgeCases, TunerRejectsZeroRank) {
  const auto t = generate_uniform(shape_t{5, 5, 5}, 20, 13);
  EXPECT_THROW(select_strategy(t, 0), error);
}

TEST(EdgeCases, CsfOneRejectsWrongFactorCount) {
  const auto t = generate_uniform(shape_t{5, 5, 5}, 20, 15);
  CsfOneMttkrpEngine engine(t);
  std::vector<Matrix> two_factors{Matrix(5, 2), Matrix(5, 2)};
  Matrix out;
  EXPECT_THROW(engine.compute(0, two_factors, out), error);
}

// --- cross-module integration ----------------------------------------------

TEST(EdgeCases, CompactThenDecompose) {
  // Tensor with massive empty-slice waste: compact, decompose, map back.
  CooTensor t(shape_t{100000, 100000, 100000});
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    t.push_back(std::array<index_t, 3>{rng.next_index(50) * 2000,
                                       rng.next_index(50) * 2000,
                                       rng.next_index(50) * 2000},
                rng.next_real() + 0.1);
  }
  t.coalesce();
  const auto c = compact(t);
  EXPECT_LE(c.tensor.dim(0), 50u);

  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 5;
  opt.tolerance = 0;
  const auto result = cp_als(c.tensor, opt);
  EXPECT_EQ(result.model.factors[0].rows(), c.tensor.dim(0));
  // Row k of the compact factor corresponds to original index old_index[0][k].
  EXPECT_LT(c.original(0, 0), 100000u);
}

TEST(EdgeCases, DTreeAgainstReferenceOnMixedSignTensor) {
  // The memoized tree and the definition must agree on a tensor with
  // repeated values and mixed signs.
  CooTensor t(shape_t{6, 7, 8, 9});
  Rng rng(19);
  for (int i = 0; i < 120; ++i) {
    t.push_back(
        std::array<index_t, 4>{rng.next_index(6), rng.next_index(7),
                               rng.next_index(8), rng.next_index(9)},
        (i % 2 ? 1.0 : -1.0) * (1 + (i % 5)));
  }
  t.coalesce();
  const auto factors = random_factors(t, 4, 20);
  auto bdt = make_engine("dtree-bdt", t, 4);
  Matrix got, want;
  for (mode_t m = 0; m < 4; ++m) {
    bdt->compute(m, factors, got);
    mttkrp_reference(t, factors, m, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-10) << "mode " << m;
  }
}

}  // namespace
}  // namespace mdcp
