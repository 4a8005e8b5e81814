#include "la/blas.hpp"

#include <algorithm>
#include <cmath>

#include "la/dense_kernels.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

// Row blocks of the tall-skinny reductions (gram, factor_update). Fixed, not
// derived from the thread count: per-block partials reduced in block order
// give the same bits for any number of threads.
constexpr index_t kBlock = 2048;

index_t num_blocks(index_t rows) { return (rows + kBlock - 1) / kBlock; }

// Columns rounded up to the selected path's lane width.
index_t padded(const dense::Kernels& k, index_t n) {
  return (n + k.lanes - 1) / k.lanes * k.lanes;
}

// Runs fn(b, begin, end, scratch) for every row block of a rows×cols input,
// on a team no larger than the block count: one block (or too little work)
// runs on the caller and starts no parallel region. `scratch` is the
// running thread's buffer of `scratch_reals`, allocated by the caller (so
// the workers make no heap arenas of their own). Each block's result
// depends only on its rows, so the split does not change the bits.
template <typename Fn>
void for_each_block(index_t rows, index_t cols, std::size_t scratch_reals,
                    Fn&& fn) {
  const index_t blocks = num_blocks(rows);
  const int threads =
      blocks > 1 ? std::min<int>(threads_for_work(nnz_t{rows} * cols),
                                 static_cast<int>(blocks))
                 : 1;
  std::vector<real_t> scratch(static_cast<std::size_t>(threads) *
                              scratch_reals);
  parallel_team(threads, [&](int tid, int team) {
    real_t* mine_scratch =
        scratch.data() + static_cast<std::size_t>(tid) * scratch_reals;
    const Range mine = chunk_range(blocks, team, tid);
    for (nnz_t b = mine.begin; b < mine.end; ++b) {
      const auto begin = static_cast<index_t>(b) * kBlock;
      fn(static_cast<index_t>(b), begin, std::min<index_t>(begin + kBlock, rows),
         mine_scratch);
    }
  });
}

// Upper triangle of the sum of per-block np×np Gram partials, in block
// order, into the r×r `out`, mirrored below the diagonal.
void reduce_gram(const std::vector<real_t>& partial, index_t blocks,
                 index_t r, index_t np, Matrix& out) {
  out.resize(r, r, 0);
  const std::size_t stride = static_cast<std::size_t>(np) * np;
  for (index_t b = 0; b < blocks; ++b) {
    const real_t* g = partial.data() + b * stride;
    for (index_t j = 0; j < r; ++j)
      for (index_t k = j; k < r; ++k)
        out(j, k) += g[static_cast<std::size_t>(j) * np + k];
  }
  for (index_t j = 0; j < r; ++j)
    for (index_t k = j + 1; k < r; ++k) out(k, j) = out(j, k);
}

}  // namespace

void gram(const Matrix& a, Matrix& out) {
  const index_t n = a.rows();
  const index_t r = a.cols();
  const dense::Kernels& k = dense::kernels();
  const index_t np = padded(k, r);
  const index_t blocks = num_blocks(n);
  // One scan of the tall matrix; the path's kernel stages each chunk of
  // rows, zero-padded, in a per-thread buffer.
  const std::size_t g_stride = static_cast<std::size_t>(np) * np;
  std::vector<real_t> partial(blocks * g_stride, 0);
  for_each_block(n, r, std::size_t{dense::kGramChunk} * np,
                 [&](index_t b, index_t begin, index_t end, real_t* work) {
                   k.gram_upper(a.row(begin).data(), end - begin, r,
                                partial.data() + b * g_stride, work);
                 });
  reduce_gram(partial, blocks, r, np, out);
}

Matrix gram(const Matrix& a) {
  Matrix out;
  gram(a, out);
  return out;
}

void multiply_into(const Matrix& a, const Matrix& b, Matrix& c) {
  MDCP_CHECK(a.cols() == b.rows());
  MDCP_CHECK_MSG(&c != &a && &c != &b, "multiply_into output aliases input");
  c.resize(a.rows(), b.cols(), 0);
  const dense::Kernels& k = dense::kernels();
  std::vector<real_t> packed(static_cast<std::size_t>(b.rows()) *
                             padded(k, b.cols()));
  k.pack(b.data(), b.rows(), b.cols(), packed.data());
  for_each_block(a.rows(), a.cols(), 0,
                 [&](index_t, index_t begin, index_t end, real_t*) {
                   k.gemm_rows(a.row(begin).data(), end - begin, a.cols(),
                               packed.data(), b.cols(), c.row(begin).data());
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
  const dense::Kernels& k = dense::kernels();
  const index_t np = padded(k, r);
  const index_t blocks = num_blocks(n);
  const std::size_t g_stride = static_cast<std::size_t>(np) * np;
  std::vector<real_t> packed(static_cast<std::size_t>(r) * np);
  k.pack(h_inv.data(), r, r, packed.data());

  // Sweep 1: u = M·H⁻¹ in register tiles; per block, a finiteness probe
  // (taken before the clamp) and the upper triangle of the raw Gram uᵀu,
  // accumulated while the rows are still in cache.
  std::vector<real_t> partial(blocks * g_stride, 0);
  std::vector<real_t> probe(blocks, 0);
  for_each_block(n, r, std::size_t{dense::kGramChunk} * np,
                 [&](index_t b, index_t begin, index_t end, real_t* work) {
                   probe[b] = k.solve_rows(
                       m.row(begin).data(), end - begin, r, packed.data(),
                       nonnegative, u.row(begin).data(),
                       partial.data() + b * g_stride, work);
                 });
  for (real_t p : probe)
    if (p != 0) return {false, 0};

  Matrix raw;
  reduce_gram(partial, blocks, r, np, raw);
  // λ_j = ‖u(:,j)‖ is the root of the raw Gram's diagonal.
  lambda.assign(r, 0);
  std::vector<real_t> inv(r, 1);
  FactorUpdateInfo info;
  for (index_t j = 0; j < r; ++j) {
    lambda[j] = std::sqrt(raw(j, j));
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

  // Sweep 2: normalize each row.
  for_each_block(n, r, 0, [&](index_t, index_t begin, index_t end, real_t*) {
    k.scale_rows(u.row(begin).data(), end - begin, r, inv.data());
  });
  if (info.collapsed > 0) {
    // The raw Gram does not cover the refilled columns: take the Gram of
    // the normalized factor instead.
    gram(u, gram_out);
    return info;
  }
  // Otherwise the normalized Gram is the raw one scaled on both sides.
  gram_out.resize(r, r, 0);
  for (index_t j = 0; j < r; ++j) {
    for (index_t q = j; q < r; ++q) {
      gram_out(j, q) = raw(j, q) * inv[j] * inv[q];
      gram_out(q, j) = gram_out(j, q);
    }
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
