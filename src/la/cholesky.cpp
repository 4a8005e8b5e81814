#include "la/cholesky.hpp"

#include <cmath>

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
  parallel_for(rhs_rows.rows(), [&](nnz_t ri) {
    auto x = rhs_rows.row(static_cast<index_t>(ri));
    // Forward substitution: L y = b.
    for (index_t i = 0; i < n; ++i) {
      real_t s = x[i];
      for (index_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
      x[i] = s / l(i, i);
    }
    // Backward substitution: Lᵀ x = y.
    for (index_t ii = n; ii-- > 0;) {
      real_t s = x[ii];
      for (index_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
      x[ii] = s / l(ii, ii);
    }
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
