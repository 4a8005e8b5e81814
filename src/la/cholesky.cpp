#include "la/cholesky.hpp"

#include <cmath>
#include <vector>

#include "la/blas.hpp"
#include "la/eigen.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mdcp {

CholeskyStatus cholesky_factor_status(Matrix& a) {
  MDCP_CHECK(a.rows() == a.cols());
  const index_t n = a.rows();
  for (index_t j = 0; j < n; ++j) {
    real_t d = a(j, j);
    for (index_t k = 0; k < j; ++k) d -= a(j, k) * a(j, k);
    if (!std::isfinite(d)) return CholeskyStatus::kNanInput;
    if (!(d > 0)) return CholeskyStatus::kNotSpd;
    const real_t lj = std::sqrt(d);
    a(j, j) = lj;
    for (index_t i = j + 1; i < n; ++i) {
      real_t s = a(i, j);
      for (index_t k = 0; k < j; ++k) s -= a(i, k) * a(j, k);
      a(i, j) = s / lj;
    }
  }
  return CholeskyStatus::kOk;
}

bool cholesky_factor(Matrix& a) {
  return cholesky_factor_status(a) == CholeskyStatus::kOk;
}

void cholesky_solve_rows(const Matrix& l, Matrix& rhs_rows) {
  MDCP_CHECK(l.rows() == l.cols());
  MDCP_CHECK(rhs_rows.cols() == l.rows());
  const index_t n = l.rows();
  const index_t m = rhs_rows.rows();
  // The right-hand sides are solved side by side: t(i, c) holds x_c[i] for
  // the team member's rows c, so each substitution step is one vector
  // update across them. Per entry the operations and their order are those
  // of a row-by-row solve (s = b_i; s -= l(i,k)·x_k for k ascending;
  // x_i = s / l(i,i)), so the split does not change the bits. An R×R
  // inverse stays below the work gate and runs on the caller.
  parallel_team(threads_for_work(nnz_t{m} * n), [&](int tid, int team) {
    const Range mine = chunk_range(m, team, tid);
    const auto w = static_cast<index_t>(mine.size());
    if (w == 0) return;
    std::vector<real_t> t(static_cast<std::size_t>(n) * w);
    const auto col = [&](index_t i) {
      return t.data() + static_cast<std::size_t>(i) * w;
    };
    for (index_t c = 0; c < w; ++c)
      for (index_t i = 0; i < n; ++i)
        col(i)[c] = rhs_rows(static_cast<index_t>(mine.begin) + c, i);
    // Forward substitution: L y = b.
    for (index_t i = 0; i < n; ++i) {
      real_t* ti = col(i);
      for (index_t k = 0; k < i; ++k) {
        const real_t lik = l(i, k);
        const real_t* tk = col(k);
#pragma omp simd
        for (index_t c = 0; c < w; ++c) ti[c] -= lik * tk[c];
      }
      const real_t d = l(i, i);
#pragma omp simd
      for (index_t c = 0; c < w; ++c) ti[c] /= d;
    }
    // Backward substitution: Lᵀ x = y.
    for (index_t ii = n; ii-- > 0;) {
      real_t* ti = col(ii);
      for (index_t k = ii + 1; k < n; ++k) {
        const real_t lki = l(k, ii);
        const real_t* tk = col(k);
#pragma omp simd
        for (index_t c = 0; c < w; ++c) ti[c] -= lki * tk[c];
      }
      const real_t d = l(ii, ii);
#pragma omp simd
      for (index_t c = 0; c < w; ++c) ti[c] /= d;
    }
    for (index_t c = 0; c < w; ++c)
      for (index_t i = 0; i < n; ++i)
        rhs_rows(static_cast<index_t>(mine.begin) + c, i) = col(i)[c];
  });
}

Matrix normal_equations_inverse(const Matrix& h, SolveInfo* info) {
  MDCP_CHECK(h.rows() == h.cols());
  SolveInfo local;
  SolveInfo& si = info != nullptr ? *info : local;
  si = SolveInfo{};
  const index_t n = h.rows();
  // L·Lᵀ·X = I solved row by row: X = (L·Lᵀ)⁻¹.
  const auto inverse_from_factor = [n](const Matrix& l) {
    Matrix x(n, n, 0);
    for (index_t i = 0; i < n; ++i) x(i, i) = 1;
    cholesky_solve_rows(l, x);
    return x;
  };

  Matrix l = h;
  si.cholesky = cholesky_factor_status(l);
  if (si.cholesky == CholeskyStatus::kOk) return inverse_from_factor(l);
  if (si.cholesky == CholeskyStatus::kNanInput)
    throw numeric_error(
        "normal-equations Gram matrix contains non-finite values");

  // Rank-deficient H: retry with an escalating ridge. λ is seeded relative
  // to the mean diagonal so the perturbation scales with the problem; each
  // failed retry escalates λ by 100×. A zero/negative trace means the ridge
  // cannot restore positive-definiteness at a meaningful scale — go straight
  // to the pseudo-inverse.
  real_t trace = 0;
  for (index_t i = 0; i < n; ++i) trace += h(i, i);
  if (trace > 0) {
    constexpr int kMaxRidgeRetries = 3;
    real_t lambda = (trace / static_cast<real_t>(n)) * 1e-10;
    for (int retry = 1; retry <= kMaxRidgeRetries; ++retry, lambda *= 100) {
      Matrix lr = h;
      for (index_t i = 0; i < n; ++i) lr(i, i) += lambda;
      si.ridge_retries = retry;
      if (cholesky_factor_status(lr) == CholeskyStatus::kOk) {
        si.ridge_lambda = lambda;
        return inverse_from_factor(lr);
      }
    }
  }

  // Last resort: the Moore–Penrose pseudo-inverse.
  si.used_pseudo_inverse = true;
  return pseudo_inverse(h);
}

Matrix solve_normal_equations(const Matrix& h, const Matrix& m,
                              SolveInfo* info) {
  MDCP_CHECK(m.cols() == h.rows());
  return multiply(m, normal_equations_inverse(h, info));
}

}  // namespace mdcp
