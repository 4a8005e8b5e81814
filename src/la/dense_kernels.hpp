// Per-ISA entry points of the CP-ALS dense layer, and the process-wide
// choice among them.
//
// The block kernels behind gram, multiply_into and factor_update are
// compiled three times from one source (dense_kernels.inc): for baseline
// x86-64, for AVX2+FMA and for AVX-512F, each in its own translation unit
// with its own target flags. cpuid picks one table per process, so the
// default build runs at the host's vector width without `-march`. The
// parallel loops (fixed row blocks, block-ordered reductions) stay in
// blas.cpp and are the same for every path.
//
// Rounding: the AVX2 and AVX-512 paths contract a·b + c into one FMA, the
// baseline path does not, so results agree across paths to ~1e-15 relative
// rather than bitwise. Within one path every entry is computed in a fixed
// order that does not depend on the thread count or on the register tile.
//
// This header is included by the per-ISA translation units, so it declares
// no inline function: an inline body compiled with AVX-512 flags could be
// the copy the linker keeps for every caller.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace mdcp::dense {

/// A compiled dense-kernel target, narrowest first.
enum class Isa : int { kBaseline = 0, kAvx2 = 1, kAvx512 = 2 };

/// Rows per Gram chunk: the block kernels stage this many rows in `work`
/// (zero-padded to the lane width) and fold them into the Gram partial at
/// once. Equal on every path, so AVX2 and AVX-512 sum in the same order.
inline constexpr index_t kGramChunk = 32;

/// One path's kernels. Matrices are row-major with contiguous rows (row
/// stride = column count) unless a parameter says otherwise. `np` below is
/// a column count rounded up to `lanes`.
struct Kernels {
  Isa isa;
  /// Reals per vector register.
  index_t lanes;
  /// packed = the k×n matrix b in gemm_rows' panel layout (k·np reals, the
  /// pad columns zero).
  void (*pack)(const real_t* b, index_t k, index_t n, real_t* packed);
  /// c(rows×n) = a(rows×k) · b, with b from pack. Each entry is the sum over
  /// q = 0..k-1 in order.
  void (*gemm_rows)(const real_t* a, index_t rows, index_t k,
                    const real_t* packed, index_t n, real_t* c);
  /// g(np×np) += upper triangle of xᵀx for x(rows×n); entries of g below
  /// the diagonal hold partial sums and must be ignored. `work` holds
  /// kGramChunk·np reals.
  void (*gram_upper)(const real_t* x, index_t rows, index_t n, real_t* g,
                     real_t* work);
  /// Sweep 1 of factor_update over a row block: u = m · H⁻¹ (H⁻¹ from pack,
  /// r×r); with `nonnegative`, entries below 0 become 0; then
  /// g(np×np) += upper(uᵀu) as in gram_upper. Returns the sum of x − x over
  /// every entry before the clamp: 0 exactly when all of them are finite.
  real_t (*solve_rows)(const real_t* m, index_t rows, index_t r,
                       const real_t* packed, bool nonnegative, real_t* u,
                       real_t* g, real_t* work);
  /// Row i of u(rows×n) *= s elementwise.
  void (*scale_rows)(real_t* u, index_t rows, index_t n, const real_t* s);
  /// Runs `iters` rounds of independent multiply-add chains at this path's
  /// width; returns the flops done and writes a checksum to `sink`.
  std::uint64_t (*fma_burst)(std::uint64_t iters, real_t* sink);
};

/// Each path's table. Only the baseline one is always defined; the others
/// exist when the compiler accepts their target flags (x86-64 builds).
extern const Kernels kBaselineKernels;
extern const Kernels kAvx2Kernels;
extern const Kernels kAvx512Kernels;

/// Lower-case name: "baseline", "avx2" or "avx512".
const char* isa_name(Isa isa) noexcept;

/// True when `isa` is compiled into this build and the CPU (and OS) can run
/// it.
bool isa_supported(Isa isa) noexcept;

/// The path this process runs: the widest supported one, unless the
/// environment variable MDCP_ISA (baseline|avx2|avx512) names a narrower
/// supported one. MDCP_ISA exists so tests and CI can cover the fallback
/// paths on a wide host; it is not a tuning knob. Resolved on first use.
Isa selected_isa() noexcept;

/// The selected path's kernels.
const Kernels& kernels() noexcept;

/// Tests only: runs every later dense call on `isa` (which must be
/// supported) until the scope ends. Not thread-safe; switch paths only
/// outside parallel regions.
class ScopedIsa {
 public:
  explicit ScopedIsa(Isa isa);
  ~ScopedIsa();
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  int saved_;  // the previous forced path, -1 for none
};

}  // namespace mdcp::dense
