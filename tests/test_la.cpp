#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/dense_kernels.hpp"
#include "la/eigen.hpp"
#include "la/matrix.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {
namespace {

using dense::Isa;
using testing::dense_path_name;
using testing::kAllDensePaths;

// Runs fn(m) at 1, 2 and 4 threads and expects the same bits each time.
template <typename Fn>
void expect_bitwise_across_threads(Fn&& fn) {
  const int saved = num_threads();
  std::vector<Matrix> outs;
  for (int threads : {1, 2, 4}) {
    set_num_threads(threads);
    outs.push_back(fn());
  }
  set_num_threads(saved);
  for (std::size_t k = 1; k < outs.size(); ++k)
    EXPECT_EQ(outs[k], outs[0]) << "thread count changed the bits";
}

// One suite per area, each run on every path.
class Blas : public testing::DensePathTest {};
class FactorUpdate : public testing::DensePathTest {};

real_t max_abs(const Matrix& a) {
  real_t v = 0;
  for (std::size_t e = 0; e < a.size(); ++e) v = std::max(v, std::abs(a.data()[e]));
  return v;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 2, 1.5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 1.5);
  m(1, 0) = -4;
  EXPECT_DOUBLE_EQ(m(1, 0), -4.0);
  EXPECT_DOUBLE_EQ(m.row(1)[0], -4.0);
}

TEST(Matrix, FillAndZero) {
  Matrix m(2, 2, 3);
  m.zero();
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 0.0);
  m.fill(2);
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 4.0);
}

TEST(Matrix, Transposed) {
  Matrix m(2, 3);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j) m(i, j) = static_cast<real_t>(i * 3 + j);
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(t(j, i), m(i, j));
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a(2, 2, 1), b(2, 2, 1);
  b(1, 1) = 4;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 3.0);
}

TEST(Matrix, RandomDeterministic) {
  Rng r1(5), r2(5);
  EXPECT_EQ(Matrix::random_uniform(4, 3, r1), Matrix::random_uniform(4, 3, r2));
}

TEST_P(Blas, GramMatchesBruteForce) {
  Rng rng(3);
  const Matrix a = Matrix::random_normal(37, 5, rng);
  const Matrix g = gram(a);
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      real_t expect = 0;
      for (index_t k = 0; k < 37; ++k) expect += a(k, i) * a(k, j);
      EXPECT_NEAR(g(i, j), expect, 1e-10);
    }
  }
}

TEST_P(Blas, GramIsSymmetric) {
  Rng rng(4);
  const Matrix g = gram(Matrix::random_normal(20, 6, rng));
  for (index_t i = 0; i < 6; ++i)
    for (index_t j = 0; j < 6; ++j) EXPECT_DOUBLE_EQ(g(i, j), g(j, i));
}

TEST_P(Blas, MultiplyMatchesBruteForce) {
  Rng rng(6);
  const Matrix a = Matrix::random_normal(7, 4, rng);
  const Matrix b = Matrix::random_normal(4, 5, rng);
  const Matrix c = multiply(a, b);
  for (index_t i = 0; i < 7; ++i) {
    for (index_t j = 0; j < 5; ++j) {
      real_t expect = 0;
      for (index_t k = 0; k < 4; ++k) expect += a(i, k) * b(k, j);
      EXPECT_NEAR(c(i, j), expect, 1e-12);
    }
  }
}

TEST_P(Blas, MultiplyShapeMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  Matrix c;
  EXPECT_THROW(multiply_into(a, b, c), error);
}

TEST_P(Blas, HadamardInPlace) {
  Matrix a(2, 2, 3), b(2, 2, 2);
  hadamard_inplace(a, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 6.0);
}

TEST_P(Blas, HadamardAll) {
  const Matrix a(2, 2, 2), b(2, 2, 3), c(2, 2, 5);
  const Matrix h = hadamard_all({&a, &b, &c});
  EXPECT_DOUBLE_EQ(h(1, 1), 30.0);
}

TEST_P(Blas, ColumnNormalize) {
  Matrix m(2, 2);
  m(0, 0) = 3;
  m(1, 0) = 4;
  m(0, 1) = 0;
  m(1, 1) = 0;
  const auto norms = column_normalize(m);
  EXPECT_DOUBLE_EQ(norms[0], 5.0);
  EXPECT_DOUBLE_EQ(norms[1], 0.0);  // zero column untouched
  EXPECT_DOUBLE_EQ(m(0, 0), 0.6);
  EXPECT_DOUBLE_EQ(m(1, 0), 0.8);
}

TEST_P(Blas, Dot) {
  Matrix a(2, 2, 2), b(2, 2, 3);
  EXPECT_DOUBLE_EQ(dot(a, b), 24.0);
}

// Tail columns (R not a lane multiple), rows not a tile multiple, and more
// than one 2048-row block.
TEST_P(Blas, GramMatchesBruteForceAcrossShapes) {
  Rng rng(7);
  for (index_t r : {1, 3, 8, 13, 20, 33, 64}) {
    for (index_t n : {1, 5, 31, 33, 2048 + 70}) {
      const Matrix a = Matrix::random_normal(n, r, rng);
      const Matrix g = gram(a);
      Matrix expect(r, r, 0);
      for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < r; ++j)
          for (index_t k = 0; k < r; ++k) expect(j, k) += a(i, j) * a(i, k);
      EXPECT_LE(Matrix::max_abs_diff(g, expect), 1e-12 * max_abs(expect))
          << n << "x" << r;
      for (index_t j = 0; j < r; ++j)
        for (index_t k = 0; k < r; ++k) ASSERT_EQ(g(j, k), g(k, j));
    }
  }
}

TEST_P(Blas, MultiplyMatchesBruteForceAcrossShapes) {
  Rng rng(8);
  for (index_t k : {1, 4, 17}) {
    for (index_t n : {1, 3, 9, 20, 64}) {
      for (index_t rows : {1, 6, 2048 + 3}) {
        const Matrix a = Matrix::random_normal(rows, k, rng);
        const Matrix b = Matrix::random_normal(k, n, rng);
        const Matrix c = multiply(a, b);
        ASSERT_EQ(c.rows(), rows);
        ASSERT_EQ(c.cols(), n);
        Matrix expect(rows, n, 0);
        for (index_t i = 0; i < rows; ++i)
          for (index_t j = 0; j < n; ++j)
            for (index_t q = 0; q < k; ++q) expect(i, j) += a(i, q) * b(q, j);
        EXPECT_LE(Matrix::max_abs_diff(c, expect), 1e-12 * max_abs(expect))
            << rows << "x" << k << " * " << k << "x" << n;
      }
    }
  }
}

TEST_P(Blas, GramBitwiseAcrossThreadCounts) {
  Rng rng(9);
  const Matrix a = Matrix::random_normal(3 * 2048 + 77, 20, rng);
  expect_bitwise_across_threads([&] { return gram(a); });
}

TEST_P(Blas, MultiplyBitwiseAcrossThreadCounts) {
  Rng rng(10);
  const Matrix a = Matrix::random_normal(3 * 2048 + 77, 20, rng);
  const Matrix b = Matrix::random_normal(20, 20, rng);
  expect_bitwise_across_threads([&] { return multiply(a, b); });
}

INSTANTIATE_TEST_SUITE_P(Isa, Blas, kAllDensePaths, dense_path_name);

TEST(Cholesky, FactorAndSolveSpd) {
  // A = Bᵀ B + I is SPD.
  Rng rng(8);
  const Matrix b = Matrix::random_normal(10, 4, rng);
  Matrix a = gram(b);
  for (index_t i = 0; i < 4; ++i) a(i, i) += 1;

  const Matrix a_copy = a;
  ASSERT_TRUE(cholesky_factor(a));

  // Solve X·A = M for a random M and verify residual.
  const Matrix m = Matrix::random_normal(6, 4, rng);
  Matrix x = m;
  cholesky_solve_rows(a, x);
  const Matrix recon = multiply(x, a_copy);
  EXPECT_LT(Matrix::max_abs_diff(recon, m), 1e-9);
}

TEST(Cholesky, FactorFailsOnIndefinite) {
  Matrix a(2, 2, 0);
  a(0, 0) = 1;
  a(1, 1) = -1;
  EXPECT_FALSE(cholesky_factor(a));
}

TEST(Eigen, DiagonalizesKnownMatrix) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 2;  // eigenvalues 1 and 3
  Matrix v;
  std::vector<real_t> w;
  jacobi_eigen_symmetric(a, v, w);
  std::sort(w.begin(), w.end());
  EXPECT_NEAR(w[0], 1.0, 1e-10);
  EXPECT_NEAR(w[1], 3.0, 1e-10);
}

TEST(Eigen, ReconstructsFromEigenpairs) {
  Rng rng(10);
  const Matrix b = Matrix::random_normal(8, 5, rng);
  const Matrix a = gram(b);
  Matrix v;
  std::vector<real_t> w;
  jacobi_eigen_symmetric(a, v, w);
  // A == V diag(w) Vᵀ.
  Matrix recon(5, 5, 0);
  for (index_t k = 0; k < 5; ++k)
    for (index_t i = 0; i < 5; ++i)
      for (index_t j = 0; j < 5; ++j)
        recon(i, j) += v(i, k) * w[k] * v(j, k);
  EXPECT_LT(Matrix::max_abs_diff(recon, a), 1e-8);
}

TEST(Eigen, PseudoInverseOfSingularMatrix) {
  // Rank-1 symmetric matrix: A = u uᵀ with u = (1, 2)ᵀ.
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  const Matrix ap = pseudo_inverse(a);
  // A · A⁺ · A == A characterizes the Moore–Penrose inverse here.
  const Matrix prod = multiply(multiply(a, ap), a);
  EXPECT_LT(Matrix::max_abs_diff(prod, a), 1e-9);
}

TEST(Cholesky, NormalEquationsSolveSpdPath) {
  Rng rng(12);
  const Matrix b = Matrix::random_normal(20, 4, rng);
  Matrix h = gram(b);
  for (index_t i = 0; i < 4; ++i) h(i, i) += 0.5;
  const Matrix m = Matrix::random_normal(9, 4, rng);
  const Matrix x = solve_normal_equations(h, m);
  EXPECT_LT(Matrix::max_abs_diff(multiply(x, h), m), 1e-9);
}

TEST(Cholesky, NormalEquationsSingularFallback) {
  // H singular (rank 1): solution must satisfy X·H·H⁺ = M·H⁺·H ... we verify
  // the weaker Moore–Penrose property X = M·H⁺ minimizes ‖X·H − M‖ by
  // checking the normal-equation residual is orthogonal to range(H).
  Matrix h(2, 2);
  h(0, 0) = 1;
  h(0, 1) = 1;
  h(1, 0) = 1;
  h(1, 1) = 1;
  Matrix m(3, 2, 1.0);
  const Matrix x = solve_normal_equations(h, m);
  // For this H and M, M·H⁺ = [[0.5, 0.5], ...] and X·H = M exactly.
  EXPECT_LT(Matrix::max_abs_diff(multiply(x, h), m), 1e-9);
}

// --- factor_update: the fused in-place dense update -------------------------

// What factor_update replaces: solve, clamp, normalize (re-randomizing
// collapsed columns), Gram — each a separate pass.
struct Reference {
  Matrix u;
  std::vector<real_t> lambda;
  Matrix gram;
};

Reference reference_update(const Matrix& m, const Matrix& h, bool nonnegative,
                           Rng& rng) {
  Reference ref;
  ref.u = solve_normal_equations(h, m);
  if (nonnegative)
    for (index_t i = 0; i < ref.u.rows(); ++i)
      for (index_t j = 0; j < ref.u.cols(); ++j)
        ref.u(i, j) = std::max<real_t>(ref.u(i, j), 0);
  ref.lambda = column_normalize(ref.u);
  for (index_t j = 0; j < ref.u.cols(); ++j) {
    if (ref.lambda[j] != 0) continue;
    for (index_t i = 0; i < ref.u.rows(); ++i) ref.u(i, j) = rng.next_real();
    column_normalize(ref.u);
  }
  ref.gram = gram(ref.u);
  return ref;
}

// Relative agreement to 1e-12 of u, λ and the Gram, plus equal RNG use.
void expect_matches_reference(const Matrix& m, const Matrix& h,
                              bool nonnegative, index_t collapsed) {
  Rng ref_rng(99), rng(99);
  const Reference ref = reference_update(m, h, nonnegative, ref_rng);
  Matrix u(m.rows(), m.cols()), g;
  std::vector<real_t> lambda;
  const FactorUpdateInfo info = factor_update(
      m, normal_equations_inverse(h), nonnegative, rng, u, lambda, g);
  ASSERT_TRUE(info.finite);
  EXPECT_EQ(info.collapsed, collapsed);
  EXPECT_LE(Matrix::max_abs_diff(u, ref.u), 1e-12 * max_abs(ref.u));
  EXPECT_LE(Matrix::max_abs_diff(g, ref.gram), 1e-12 * max_abs(ref.gram));
  ASSERT_EQ(lambda.size(), ref.lambda.size());
  for (std::size_t j = 0; j < lambda.size(); ++j)
    EXPECT_NEAR(lambda[j], ref.lambda[j], 1e-12 * ref.lambda[j]) << j;
  EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << "RNG draws differ";
}

Matrix spd(index_t r, Rng& rng) {
  Matrix h = gram(Matrix::random_normal(3 * r, r, rng));
  for (index_t i = 0; i < r; ++i) h(i, i) += 0.1;
  return h;
}

// 5000 rows: two full 2048-row blocks and a partial one.
constexpr index_t kRows = 5000;

TEST_P(FactorUpdate, MatchesReferenceOnSpdH) {
  Rng rng(21);
  for (index_t r : {3, 16, 20}) {
    const Matrix h = spd(r, rng);
    SolveInfo info;
    normal_equations_inverse(h, &info);
    ASSERT_EQ(info.ridge_retries, 0);
    expect_matches_reference(Matrix::random_normal(kRows, r, rng), h, false, 0);
  }
}

TEST_P(FactorUpdate, MatchesReferenceOnRidgeRetryH) {
  // The all-ones matrix is singular with a positive trace: the first ridge
  // makes it SPD.
  const index_t r = 16;
  const Matrix h(r, r, 1);
  SolveInfo info;
  normal_equations_inverse(h, &info);
  ASSERT_GE(info.ridge_retries, 1);
  ASSERT_FALSE(info.used_pseudo_inverse);
  Rng rng(22);
  expect_matches_reference(Matrix::random_normal(kRows, r, rng), h, false, 0);
}

TEST_P(FactorUpdate, MatchesReferenceOnPseudoInverseH) {
  // Indefinite: no ridge of up to 1e-6 × the mean diagonal repairs a -1.
  const index_t r = 8;
  Matrix h(r, r, 0);
  for (index_t i = 0; i < r; ++i) h(i, i) = i == 2 ? -1.0 : 2.0 + i;
  SolveInfo info;
  normal_equations_inverse(h, &info);
  ASSERT_TRUE(info.used_pseudo_inverse);
  Rng rng(23);
  expect_matches_reference(Matrix::random_normal(kRows, r, rng), h, false, 0);
}

TEST_P(FactorUpdate, NonnegativeClampsBeforeNormalizing) {
  Rng rng(24);
  const index_t r = 12;
  expect_matches_reference(Matrix::random_normal(kRows, r, rng), spd(r, rng),
                           true, 0);
}

TEST_P(FactorUpdate, ZeroColumnIsReRandomized) {
  const index_t r = 10;
  Rng rng(25);
  Matrix m = Matrix::random_normal(kRows, r, rng);
  for (index_t i = 0; i < kRows; ++i) m(i, 4) = 0;
  Matrix h(r, r, 0);  // diagonal: a zero column of M stays zero in M·H⁻¹
  for (index_t i = 0; i < r; ++i) h(i, i) = 1 + i;
  expect_matches_reference(m, h, false, 1);

  Matrix u, g;
  std::vector<real_t> lambda;
  Rng draw(3);
  factor_update(m, normal_equations_inverse(h), false, draw, u, lambda, g);
  EXPECT_EQ(lambda[4], 0);  // λ stays 0; the column is a fresh unit vector
  EXPECT_NEAR(g(4, 4), 1.0, 1e-12);
}

TEST_P(FactorUpdate, NanRowReportsNonFiniteAndLeavesOutputs) {
  const index_t r = 8;
  Rng rng(26);
  Matrix m = Matrix::random_normal(kRows, r, rng);
  m(3000, 5) = std::numeric_limits<real_t>::quiet_NaN();
  Matrix u, g(r, r, 7);
  std::vector<real_t> lambda(r, 7);
  const FactorUpdateInfo info =
      factor_update(m, normal_equations_inverse(spd(r, rng)), false, rng, u,
                    lambda, g);
  EXPECT_FALSE(info.finite);
  EXPECT_EQ(lambda, std::vector<real_t>(r, 7));
  EXPECT_EQ(g, Matrix(r, r, 7));
}

TEST_P(FactorUpdate, NegativeInfinityIsCaughtBeforeTheClamp) {
  const index_t r = 8;
  Rng rng(27);
  Matrix m = Matrix::random_uniform(100, r, rng);
  m(10, 0) = -std::numeric_limits<real_t>::infinity();
  // A positive H⁻¹ turns the whole row into -inf, which the clamp would
  // silently make 0.
  const Matrix h_inv(r, r, 1);
  Matrix u, g;
  std::vector<real_t> lambda;
  EXPECT_FALSE(factor_update(m, h_inv, true, rng, u, lambda, g).finite);
}

TEST_P(FactorUpdate, InPlaceAndBitwiseAcrossThreadCounts) {
  const index_t r = 16;
  Rng rng(28);
  const Matrix m = Matrix::random_normal(3 * 2048 + 77, r, rng);
  const Matrix h_inv = normal_equations_inverse(spd(r, rng));
  const int saved = num_threads();
  std::vector<Matrix> us, gs;
  std::vector<std::vector<real_t>> lambdas;
  for (int threads : {1, 2, 4}) {
    set_num_threads(threads);
    Rng draw(5);
    Matrix u(m.rows(), r), g;
    std::vector<real_t> lambda;
    const real_t* before = u.data();
    ASSERT_TRUE(factor_update(m, h_inv, false, draw, u, lambda, g).finite);
    EXPECT_EQ(u.data(), before) << "factor was reallocated";
    us.push_back(u);
    gs.push_back(g);
    lambdas.push_back(lambda);
  }
  set_num_threads(saved);
  for (std::size_t k = 1; k < us.size(); ++k) {
    EXPECT_EQ(us[k], us[0]);
    EXPECT_EQ(gs[k], gs[0]);
    EXPECT_EQ(lambdas[k], lambdas[0]);
  }
  for (index_t j = 0; j < r; ++j)
    for (index_t k = 0; k < r; ++k) EXPECT_EQ(gs[0](j, k), gs[0](k, j));
}

// The Gram taken in the first sweep, scaled by 1/(λ_j·λ_k), against gram()
// of the factor it returns; a collapsed column takes the fallback path.
TEST_P(FactorUpdate, FirstSweepGramMatchesGramOfOutput) {
  for (bool nonnegative : {false, true}) {
    for (index_t r : {5, 16, 20, 64}) {
      Rng rng(29 + r);
      Matrix m = Matrix::random_normal(kRows, r, rng);
      const bool collapse = r == 20;
      if (collapse)
        for (index_t i = 0; i < kRows; ++i) m(i, 7) = 0;
      Matrix h(r, r, 0);  // diagonal: a zero column of M stays zero
      for (index_t i = 0; i < r; ++i) h(i, i) = 1 + 0.5 * i;
      Matrix u, g;
      std::vector<real_t> lambda;
      const FactorUpdateInfo info = factor_update(
          m, normal_equations_inverse(h), nonnegative, rng, u, lambda, g);
      ASSERT_TRUE(info.finite);
      EXPECT_EQ(info.collapsed, collapse ? 1u : 0u);
      const Matrix expect = gram(u);
      EXPECT_LE(Matrix::max_abs_diff(g, expect), 1e-12 * max_abs(expect))
          << "r=" << r << " nonnegative=" << nonnegative;
      for (index_t j = 0; j < r; ++j) {
        EXPECT_NEAR(g(j, j), 1.0, 1e-12) << j;
        for (index_t k = 0; k < r; ++k) ASSERT_EQ(g(j, k), g(k, j));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, FactorUpdate, kAllDensePaths,
                         dense_path_name);

// Every supported path against the baseline one: the FMA paths round
// differently, so agreement is to 1e-12 relative, not bitwise.
TEST(DensePaths, AgreeAcrossIsaPaths) {
  Rng rng(30);
  const index_t r = 20;
  const Matrix m = Matrix::random_normal(2 * 2048 + 5, r, rng);
  const Matrix h_inv = normal_equations_inverse(spd(r, rng));
  struct Out {
    Matrix u, g, gram, product;
    std::vector<real_t> lambda;
  };
  const auto run = [&](Isa isa) {
    const dense::ScopedIsa scope(isa);
    Out out;
    Rng draw(6);
    factor_update(m, h_inv, true, draw, out.u, out.lambda, out.g);
    out.gram = gram(m);
    out.product = multiply(m, h_inv);
    return out;
  };
  const Out base = run(Isa::kBaseline);
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (!dense::isa_supported(isa)) continue;
    SCOPED_TRACE(dense::isa_name(isa));
    const Out o = run(isa);
    EXPECT_LE(Matrix::max_abs_diff(o.u, base.u), 1e-12 * max_abs(base.u));
    EXPECT_LE(Matrix::max_abs_diff(o.g, base.g), 1e-12 * max_abs(base.g));
    EXPECT_LE(Matrix::max_abs_diff(o.gram, base.gram),
              1e-12 * max_abs(base.gram));
    EXPECT_LE(Matrix::max_abs_diff(o.product, base.product),
              1e-12 * max_abs(base.product));
    for (index_t j = 0; j < r; ++j)
      EXPECT_NEAR(o.lambda[j], base.lambda[j], 1e-12 * base.lambda[j]);
  }
}

TEST(DensePaths, SelectedPathIsSupported) {
  EXPECT_TRUE(dense::isa_supported(Isa::kBaseline));
  EXPECT_TRUE(dense::isa_supported(dense::selected_isa()));
  EXPECT_EQ(dense::kernels().isa, dense::selected_isa());
}

// The side-by-side solve keeps a row-by-row solve's operations, so it
// matches one bitwise, below the work gate (an R×R inverse) and above it
// at any thread count. A build that may contract a·b − c into an FMA (e.g.
// -march=native) can contract the two loops differently, so there the
// match is to rounding.
TEST(Cholesky, SolveRowsMatchesRowByRowSolveBitwise) {
  Rng rng(31);
  for (index_t rows : {16, 1500}) {
    const index_t n = 24;
    Matrix l = spd(n, rng);
    ASSERT_TRUE(cholesky_factor(l));
    const Matrix rhs = Matrix::random_normal(rows, n, rng);
    Matrix expect = rhs;
    for (index_t r = 0; r < rows; ++r) {
      real_t* x = expect.row(r).data();
      for (index_t i = 0; i < n; ++i) {
        real_t s = x[i];
        for (index_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
        x[i] = s / l(i, i);
      }
      for (index_t ii = n; ii-- > 0;) {
        real_t s = x[ii];
        for (index_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
        x[ii] = s / l(ii, ii);
      }
    }
    expect_bitwise_across_threads([&] {
      Matrix x = rhs;
      cholesky_solve_rows(l, x);
#if defined(__FMA__)
      EXPECT_LE(Matrix::max_abs_diff(x, expect), 1e-12 * max_abs(expect))
          << rows << " rows";
#else
      EXPECT_EQ(x, expect) << rows << " rows";
#endif
      return x;
    });
  }
}

}  // namespace
}  // namespace mdcp
