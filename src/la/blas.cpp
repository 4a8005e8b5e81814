#include "la/blas.hpp"

#include <algorithm>
#include <cmath>

#include "mttkrp/microkernel.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// Row blocks of the tall-skinny reductions (gram, factor_update). Fixed, not
// derived from the thread count: per-block partials reduced in block order
// give the same bits for any number of threads.
constexpr index_t kBlock = 2048;

index_t num_blocks(index_t rows) { return (rows + kBlock - 1) / kBlock; }

// out = a · B for one row `a`, as a chain of rank-tiled axpys over B's rows
// (kernel rank = B's column count).
inline void row_times(const mk::Kernel& k, const real_t* a, const Matrix& b,
                      real_t* out) {
  k.fill(out, 0);
  for (index_t q = 0; q < b.rows(); ++q)
    if (a[q] != 0) k.axpy_accum(out, b.row(q).data(), a[q]);
}

}  // namespace

void gram(const Matrix& a, Matrix& out) {
  const index_t n = a.rows();
  const index_t r = a.cols();
  out.resize(r, r, 0);

  // Fixed-size row blocks (independent of the thread count) accumulated in
  // parallel, then reduced in block order: bitwise-deterministic for any
  // number of threads, atomics-free, single scan of the tall matrix.
  const index_t blocks = num_blocks(n);
  std::vector<Matrix> partial(blocks, Matrix(r, r, 0));
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 0; b < static_cast<std::int64_t>(blocks); ++b) {
    Matrix& local = partial[static_cast<std::size_t>(b)];
    const index_t begin = static_cast<index_t>(b) * kBlock;
    const index_t end = std::min<index_t>(begin + kBlock, n);
    for (index_t i = begin; i < end; ++i) {
      const auto row = a.row(i);
      for (index_t j = 0; j < r; ++j) {
        const real_t aj = row[j];
        if (aj == 0) continue;
        real_t* lrow = &local(j, 0);
        for (index_t k = j; k < r; ++k) lrow[k] += aj * row[k];
      }
    }
  }
  for (const auto& p : partial)
    for (index_t j = 0; j < r; ++j)
      for (index_t k = j; k < r; ++k) out(j, k) += p(j, k);
  // Mirror the upper triangle.
  for (index_t j = 0; j < r; ++j)
    for (index_t k = j + 1; k < r; ++k) out(k, j) = out(j, k);
}

Matrix gram(const Matrix& a) {
  Matrix out;
  gram(a, out);
  return out;
}

void multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  MDCP_CHECK(a.cols() == b.rows());
  c.resize(a.rows(), b.cols(), 0);
  const mk::Kernel k(b.cols());
  parallel_for(a.rows(), [&](nnz_t i) {
    const auto row = static_cast<index_t>(i);
    row_times(k, a.row(row).data(), b, c.row(row).data());
  });
}

Matrix multiply(const Matrix& a, const Matrix& b) {
  Matrix c;
  multiply_into(a, b, c);
  return c;
}

void hadamard_inplace(Matrix& a, const Matrix& b) {
  MDCP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  real_t* pa = a.data();
  const real_t* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) pa[i] *= pb[i];
}

Matrix hadamard_all(const std::vector<const Matrix*>& ms) {
  MDCP_CHECK_MSG(!ms.empty(), "hadamard_all needs at least one matrix");
  Matrix out = *ms.front();
  for (std::size_t i = 1; i < ms.size(); ++i) hadamard_inplace(out, *ms[i]);
  return out;
}

std::vector<real_t> column_normalize(Matrix& a) {
  const index_t r = a.cols();
  std::vector<real_t> norms(r, 0);
  for (index_t i = 0; i < a.rows(); ++i) {
    const auto row = a.row(i);
    for (index_t j = 0; j < r; ++j) norms[j] += row[j] * row[j];
  }
  for (auto& x : norms) x = std::sqrt(x);
  for (index_t i = 0; i < a.rows(); ++i) {
    auto row = a.row(i);
    for (index_t j = 0; j < r; ++j)
      if (norms[j] > 0) row[j] /= norms[j];
  }
  return norms;
}

FactorUpdateInfo factor_update(const Matrix& m, const Matrix& h_inv,
                               bool nonnegative, Rng& rng, Matrix& u,
                               std::vector<real_t>& lambda, Matrix& gram_out) {
  const index_t n = m.rows();
  const index_t r = m.cols();
  MDCP_CHECK(h_inv.rows() == r && h_inv.cols() == r);
  MDCP_CHECK_MSG(&u != &m, "factor_update writes u while reading m");
  if (u.rows() != n || u.cols() != r) u.resize(n, r);
  const mk::Kernel k(r);
  const index_t blocks = num_blocks(n);
  const auto block_end = [n](index_t b) {
    return std::min<index_t>((b + 1) * kBlock, n);
  };

  // Sweep 1: u = M·H⁻¹ row by row; per block, a finiteness probe (x - x is
  // NaN exactly when x is not finite, so the sum stays 0 iff every entry is
  // finite) and the squared column norms.
  std::vector<real_t> col_sq(static_cast<std::size_t>(blocks) * r, 0);
  std::vector<real_t> probe(blocks, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(blocks); ++bi) {
    const auto b = static_cast<index_t>(bi);
    real_t* sq = col_sq.data() + static_cast<std::size_t>(b) * r;
    real_t nonfinite = 0;
    for (index_t i = b * kBlock; i < block_end(b); ++i) {
      real_t* x = u.row(i).data();
      row_times(k, m.row(i).data(), h_inv, x);
#pragma omp simd reduction(+ : nonfinite)
      for (index_t j = 0; j < r; ++j) nonfinite += x[j] - x[j];
      if (nonnegative) {
        // Projected ALS: negative entries are infeasible for count data.
#pragma omp simd
        for (index_t j = 0; j < r; ++j) x[j] = x[j] < 0 ? 0 : x[j];
      }
#pragma omp simd
      for (index_t j = 0; j < r; ++j) sq[j] += x[j] * x[j];
    }
    probe[b] = nonfinite;
  }
  for (real_t p : probe)
    if (p != 0) return {false, 0};

  lambda.assign(r, 0);
  for (index_t b = 0; b < blocks; ++b)
    for (index_t j = 0; j < r; ++j)
      lambda[j] += col_sq[static_cast<std::size_t>(b) * r + j];
  std::vector<real_t> inv(r, 1);
  FactorUpdateInfo info;
  for (index_t j = 0; j < r; ++j) {
    lambda[j] = std::sqrt(lambda[j]);
    if (lambda[j] > 0) {
      inv[j] = 1 / lambda[j];
      continue;
    }
    // A collapsed column would poison H; re-randomize it (λ stays 0).
    ++info.collapsed;
    real_t norm = 0;
    for (index_t i = 0; i < n; ++i) {
      const real_t v = rng.next_real();
      u(i, j) = v;
      norm += v * v;
    }
    norm = std::sqrt(norm);
    if (norm > 0) inv[j] = 1 / norm;
  }

  // Sweep 2: normalize each row and accumulate the block's full R×R Gram.
  // (u_ij·u_ik and u_ik·u_ij round alike, so each partial is symmetric.)
  std::vector<real_t> partial(static_cast<std::size_t>(blocks) * r * r, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(blocks); ++bi) {
    const auto b = static_cast<index_t>(bi);
    real_t* g = partial.data() + static_cast<std::size_t>(b) * r * r;
    for (index_t i = b * kBlock; i < block_end(b); ++i) {
      real_t* x = u.row(i).data();
      k.hadamard(x, inv.data());
      for (index_t j = 0; j < r; ++j)
        if (x[j] != 0) k.axpy_accum(g + static_cast<std::size_t>(j) * r, x, x[j]);
    }
  }
  gram_out.resize(r, r, 0);
  real_t* out = gram_out.data();
  for (index_t b = 0; b < blocks; ++b) {
    const real_t* g = partial.data() + static_cast<std::size_t>(b) * r * r;
    for (std::size_t e = 0; e < static_cast<std::size_t>(r) * r; ++e)
      out[e] += g[e];
  }
  return info;
}

real_t dot(const Matrix& a, const Matrix& b) {
  MDCP_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  real_t s = 0;
  const real_t* pa = a.data();
  const real_t* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) s += pa[i] * pb[i];
  return s;
}

}  // namespace mdcp
