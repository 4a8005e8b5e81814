// Hand-rolled dense kernels sized for CP-ALS: tall-skinny Gram products,
// tiny R×R algebra, Hadamard products, and column normalization.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mdcp {

/// out = A^T A (out is cols×cols, symmetric): the upper triangle per
/// 2048-row block at the selected ISA path's width (la/dense_kernels.hpp),
/// blocks in parallel when there is more than one, reduced in block order.
void gram(const Matrix& a, Matrix& out);

/// Returns A^T A.
Matrix gram(const Matrix& a);

/// C = A * B (dimensions must agree; C must not alias A or B). B is packed
/// once, then the rows of A run through the selected path's register tile,
/// in 2048-row blocks (in parallel when there is more than one). A is
/// typically I×R and B is R×R in CP-ALS.
void multiply_into(const Matrix& a, const Matrix& b, Matrix& c);
Matrix multiply(const Matrix& a, const Matrix& b);

/// a <- a ∘ b (elementwise).
void hadamard_inplace(Matrix& a, const Matrix& b);

/// Elementwise product of a list of same-shape matrices.
Matrix hadamard_all(const std::vector<const Matrix*>& ms);

/// Normalizes each column of `a` to unit 2-norm; returns the norms.
/// Zero columns get norm 0 and are left untouched (caller may reinitialize).
std::vector<real_t> column_normalize(Matrix& a);

/// Outcome of factor_update.
struct FactorUpdateInfo {
  /// False when M·H⁻¹ had a NaN/Inf entry: `u` then holds garbage and
  /// `lambda` and `gram_out` are unchanged.
  bool finite = true;
  /// Columns that collapsed to zero norm and were re-randomized.
  index_t collapsed = 0;
};

/// The CP-ALS dense update of one factor, in place and in two sweeps over
/// the I×R rows (fixed 2048-row blocks, bitwise identical for any thread
/// count within one ISA path):
///   1. u = M · h_inv in register tiles, clamped at 0 when `nonnegative`;
///      per block, finiteness (checked before the clamp) and the upper
///      triangle of the raw Gram G = uᵀu.
///   2. u(:,r) *= 1/λ_r with λ_r = √G_rr = ‖u(:,r)‖, and
///      gram_out_jk = G_jk / (λ_j·λ_k).
/// A column with λ_r = 0 keeps λ_r = 0 and is refilled from `rng` with
/// Uniform(0,1) entries, row by row, then normalized on its own; gram_out is
/// then computed from the normalized u in a third pass. `u` must not alias
/// `m`; it is reallocated only when its shape differs from M's. Equals
/// solve_normal_equations → column_normalize → gram up to rounding.
FactorUpdateInfo factor_update(const Matrix& m, const Matrix& h_inv,
                               bool nonnegative, Rng& rng, Matrix& u,
                               std::vector<real_t>& lambda, Matrix& gram_out);

/// <a, b> = sum_ij a_ij b_ij.
real_t dot(const Matrix& a, const Matrix& b);

}  // namespace mdcp
