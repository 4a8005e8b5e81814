// Symmetric positive-(semi)definite solves for the CP-ALS normal equations.
//
// Each sub-iteration solves U = M · H⁺ where H = ∘_{i≠n} (Uᵢᵀ Uᵢ) is R×R and
// symmetric PSD. All the robustness lives on the R×R side: we form H⁻¹ from
// a Cholesky factor first (fast path); if H is merely rank-deficient we
// retry with an escalating ridge λ·I (standard ALS practice), then fall back
// to the Moore–Penrose pseudo-inverse built from a Jacobi
// eigendecomposition. Whichever path succeeds, the I×R work is one
// multiplication by the returned R×R matrix. A non-finite H is a distinct,
// unrecoverable condition — no amount of regularization repairs a NaN Gram
// matrix — so it is reported as its own status and normal_equations_inverse
// raises a typed mdcp::numeric_error that the CP-ALS recovery path converts
// into a factor restart.
#pragma once

#include "la/matrix.hpp"

namespace mdcp {

/// Outcome of a Cholesky factorization attempt. Distinguishes "H is not SPD"
/// (recoverable: ridge or pseudo-inverse) from "H contains non-finite
/// values" (unrecoverable by regularization: the caller must rebuild its
/// inputs).
enum class CholeskyStatus {
  kOk = 0,
  kNotSpd,    ///< a non-positive (but finite) pivot appeared
  kNanInput,  ///< a pivot evaluated to NaN/Inf — the input is poisoned
};

/// In-place lower Cholesky factorization A = L·Lᵀ (only the lower triangle of
/// the output is meaningful). On a non-kOk status the matrix is left
/// partially factorized and must be discarded.
CholeskyStatus cholesky_factor_status(Matrix& a);

/// Back-compat predicate: cholesky_factor_status(a) == kOk.
bool cholesky_factor(Matrix& a);

/// Solves L·Lᵀ·x = b for each row b of `rhs_rows` (i.e. computes rhs·A⁻¹ for
/// symmetric A given its Cholesky factor L). rhs_rows is I×R, modified
/// in place.
void cholesky_solve_rows(const Matrix& l, Matrix& rhs_rows);

/// How solve_normal_equations obtained its result — consumed by the CP-ALS
/// recovery accounting and the run reporter.
struct SolveInfo {
  CholeskyStatus cholesky = CholeskyStatus::kOk;  ///< first, un-ridged attempt
  int ridge_retries = 0;     ///< escalating-λ retries performed
  double ridge_lambda = 0;   ///< the λ that succeeded (0 = none needed)
  bool used_pseudo_inverse = false;
};

/// Returns H⁻¹ robustly: from a Cholesky factor when H is SPD, from an
/// escalating-ridge Cholesky factor when it is rank-deficient, and the
/// pseudo-inverse H⁺ as the last resort. `h` is R×R symmetric; fills `*info`
/// (when given) with the path taken. All three outcomes are one R×R matrix,
/// so the caller applies them to the I×R right-hand side the same way.
/// Throws mdcp::numeric_error if `h` is non-finite — see
/// CholeskyStatus::kNanInput.
Matrix normal_equations_inverse(const Matrix& h, SolveInfo* info = nullptr);

/// Computes X = M · H⁺ as M · normal_equations_inverse(h, info). `m` is I×R;
/// returns X (I×R).
Matrix solve_normal_equations(const Matrix& h, const Matrix& m,
                              SolveInfo* info = nullptr);

}  // namespace mdcp
