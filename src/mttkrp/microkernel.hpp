// Shared SIMD rank-blocked microkernel layer for all MTTKRP engines.
//
// Every engine's per-nonzero inner loop is some composition of the same
// handful of length-R vector primitives: set a Hadamard accumulator, multiply
// factor rows into it, add it into an output row. Before this layer each
// engine hand-rolled those as scalar `for (k < r)` loops; now they all route
// through mk::Kernel, which executes each primitive as a sequence of
// compile-time fixed-width tiles (R-tile ∈ {32, 16, 8}) followed by a
// runtime-width remainder. The fixed trip counts let the compiler fully
// vectorize and unroll under `#pragma omp simd`, and the tile cascade
// (32-tiles, then 16, then 8, then scalar tail) keeps the remainder at most
// 7 lanes for any R.
//
// Alignment contract: the Workspace hands out 64-byte aligned slabs and
// la::Matrix aligns its storage base to 64 bytes (mk::kAlignment). Engines
// lay out their scratch so that every *accumulator* pointer they pass is
// slab-origin or offset by a multiple of padded_rank(r) reals — i.e. still
// 64-byte aligned — and mark it with mk::assume_aligned() at the call site.
// The hint propagates through inlining into the tile loops, so aligned
// vector loads/stores are emitted without a second code path. Factor-row
// pointers are only aligned when R is a multiple of kVectorWidth and are
// passed unannotated.
//
// The dispatcher is selected once per prepare(): mk::Kernel(r) snapshots the
// largest tile ≤ R; engines record kernel.tile() into KernelStats so bench
// tables, trace spans, and `mdcp_cli profile` can attribute roofline deltas
// to the tile actually run. The cost model charges flops at the padded rank
// (tile_efficiency), so engine ranking stays honest at awkward ranks like
// R = 17 where a quarter of every vector is wasted lanes.
//
// This follows the compile-time rank-specialization approach of ALTO
// ("Accelerating Sparse Tensor Decomposition Using Adaptive Linearized
// Representation"): specialize the hot loop for a few ranks, dispatch once,
// never branch per nonzero.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.hpp"

namespace mdcp::mk {

/// Alignment (bytes) of workspace slabs and matrix storage: one x86 cache
/// line, one AVX-512 vector.
inline constexpr std::size_t kAlignment = 64;

/// Reals per assumed SIMD vector (64 B of real_t). The efficiency model and
/// padded strides round ranks up to this.
inline constexpr index_t kVectorWidth =
    static_cast<index_t>(kAlignment / sizeof(real_t));

/// Compile-time tile widths, widest first. A kernel runs ⌊r/32⌋ 32-tiles,
/// then a 16- and an 8-tile over what remains, then a scalar tail of < 8.
inline constexpr index_t kTileWidths[] = {32, 16, 8};

/// The R-tile the dispatcher selects for rank r: the widest tile that fits,
/// 0 when r < 8 (pure remainder path).
constexpr index_t select_tile(index_t r) noexcept {
  for (index_t w : kTileWidths)
    if (r >= w) return w;
  return 0;
}

/// r rounded up to the vector width: the lanes a SIMD sweep actually pays
/// for. padded_rank(17) = 24, padded_rank(16) = 16, padded_rank(0) = 0.
constexpr index_t padded_rank(index_t r) noexcept {
  return (r + kVectorWidth - 1) / kVectorWidth * kVectorWidth;
}

/// Useful-lane fraction r / padded_rank(r) ∈ (0, 1]. 1 at tile-multiple
/// ranks; 17/24 ≈ 0.71 at R = 17.
constexpr double tile_efficiency(index_t r) noexcept {
  return r == 0 ? 1.0
                : static_cast<double>(r) / static_cast<double>(padded_rank(r));
}

/// Flop inflation the cost model charges for wasted vector lanes:
/// padded_rank(r) / r = 1 / tile_efficiency(r).
constexpr double flop_scale(index_t r) noexcept {
  return r == 0 ? 1.0
                : static_cast<double>(padded_rank(r)) / static_cast<double>(r);
}

// Padded strides keep slab-carved accumulators on the alignment contract.
static_assert(padded_rank(1) * sizeof(real_t) % kAlignment == 0,
              "padded stride must preserve slab alignment");
static_assert(select_tile(kVectorWidth) == kVectorWidth,
              "smallest tile must equal the vector width");

/// Marks a pointer as kAlignment-aligned at the call site. Engines apply
/// this to slab-origin (or padded-stride offset) scratch pointers only;
/// passing a misaligned pointer through it is undefined behavior, which
/// test_runtime's alignment checks guard against.
inline real_t* assume_aligned(real_t* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<real_t*>(__builtin_assume_aligned(p, kAlignment));
#else
  return p;
#endif
}
inline const real_t* assume_aligned(const real_t* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return static_cast<const real_t*>(__builtin_assume_aligned(p, kAlignment));
#else
  return p;
#endif
}

#if defined(__GNUC__) || defined(__clang__)
#define MDCP_MK_RESTRICT __restrict__
// The primitives run per nonzero inside recursive traversals; left to its
// own heuristics the compiler keeps the multi-loop dispatch bodies
// out-of-line there, paying a call per vector op. Force them inline so the
// tile switch hoists out of the per-nonzero loops (tile_ is loop-invariant).
#define MDCP_MK_INLINE inline __attribute__((always_inline))
#else
#define MDCP_MK_RESTRICT
#define MDCP_MK_INLINE inline
#endif

namespace detail {

// Fixed-width tile bodies. W is a compile-time constant, so `#pragma omp
// simd` vectorizes the full trip count with no runtime loop overhead; with
// OpenMP off the pragma is ignored and the compiler's auto-vectorizer sees
// the same constant-trip loop.

template <index_t W>
MDCP_MK_INLINE void fill_w(real_t* MDCP_MK_RESTRICT d, real_t v) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] = v;
}

template <index_t W>
MDCP_MK_INLINE void copy_w(real_t* MDCP_MK_RESTRICT d,
                   const real_t* MDCP_MK_RESTRICT s) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] = s[k];
}

template <index_t W>
MDCP_MK_INLINE void add_scalar_w(real_t* MDCP_MK_RESTRICT d, real_t v) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] += v;
}

template <index_t W>
MDCP_MK_INLINE void set_scale_w(real_t* MDCP_MK_RESTRICT d,
                        const real_t* MDCP_MK_RESTRICT s, real_t v) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] = v * s[k];
}

template <index_t W>
MDCP_MK_INLINE void hadamard_w(real_t* MDCP_MK_RESTRICT d,
                       const real_t* MDCP_MK_RESTRICT s) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] *= s[k];
}

template <index_t W>
MDCP_MK_INLINE void mul_w(real_t* MDCP_MK_RESTRICT d, const real_t* MDCP_MK_RESTRICT a,
                  const real_t* MDCP_MK_RESTRICT b) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] = a[k] * b[k];
}

template <index_t W>
MDCP_MK_INLINE void accum_w(real_t* MDCP_MK_RESTRICT d,
                    const real_t* MDCP_MK_RESTRICT s) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] += s[k];
}

template <index_t W>
MDCP_MK_INLINE void axpy_w(real_t* MDCP_MK_RESTRICT d,
                   const real_t* MDCP_MK_RESTRICT s, real_t v) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] += v * s[k];
}

// Fused order-3 hot path: d += v · a∘b, no Hadamard staging buffer.
template <index_t W>
MDCP_MK_INLINE void fused2_w(real_t* MDCP_MK_RESTRICT d,
                     const real_t* MDCP_MK_RESTRICT a,
                     const real_t* MDCP_MK_RESTRICT b, real_t v) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] += v * a[k] * b[k];
}

// Fused order-4 hot path: d += v · a∘b∘c.
template <index_t W>
MDCP_MK_INLINE void fused3_w(real_t* MDCP_MK_RESTRICT d,
                     const real_t* MDCP_MK_RESTRICT a,
                     const real_t* MDCP_MK_RESTRICT b,
                     const real_t* MDCP_MK_RESTRICT c, real_t v) noexcept {
#pragma omp simd
  for (index_t k = 0; k < W; ++k) d[k] += v * a[k] * b[k] * c[k];
}

// Tile-cascade driver: runs BODY over 32/16/8-wide tiles (entered at the
// dispatcher-selected width, falling through to the narrower tiles for the
// remainder) and a scalar simd tail. The switch is per *vector op*, not per
// lane, and the tile parameter is loop-invariant, so the branch predicts
// perfectly in the per-nonzero hot loops.
#define MDCP_MK_DISPATCH(tile, r, TILE_STMT, TAIL_STMT)      \
  do {                                                       \
    index_t k = 0;                                           \
    switch (tile) {                                          \
      case 32:                                               \
        for (; k + 32 <= (r); k += 32) TILE_STMT(32);        \
        [[fallthrough]];                                     \
      case 16:                                               \
        for (; k + 16 <= (r); k += 16) TILE_STMT(16);        \
        [[fallthrough]];                                     \
      case 8:                                                \
        for (; k + 8 <= (r); k += 8) TILE_STMT(8);           \
        break;                                               \
      default:                                               \
        break;                                               \
    }                                                        \
    TAIL_STMT                                                \
  } while (0)

}  // namespace detail

/// Rank-blocked vector kernel, dispatched once per prepare(). All methods
/// operate on length-rank() arrays; pointer arguments documented as
/// accumulators should be passed through mk::assume_aligned() when the
/// engine's layout guarantees slab alignment.
class Kernel {
 public:
  Kernel() = default;
  explicit Kernel(index_t r) noexcept : r_(r), tile_(select_tile(r)) {}

  index_t rank() const noexcept { return r_; }
  /// The selected R-tile width (0 = scalar remainder only, r < 8).
  index_t tile() const noexcept { return tile_; }
  /// Slab stride (in reals) that keeps consecutive length-r accumulators on
  /// the alignment contract.
  index_t padded() const noexcept { return padded_rank(r_); }

  /// d[k] = v
  MDCP_MK_INLINE void fill(real_t* d, real_t v) const noexcept {
#define MDCP_MK_T(W) detail::fill_w<W>(d + k, v)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] = v;
    });
#undef MDCP_MK_T
  }

  /// d[k] += v (degenerate order-1 MTTKRP: broadcast-accumulate)
  MDCP_MK_INLINE void add_scalar(real_t* d, real_t v) const noexcept {
#define MDCP_MK_T(W) detail::add_scalar_w<W>(d + k, v)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] += v;
    });
#undef MDCP_MK_T
  }

  /// d[k] = s[k]
  MDCP_MK_INLINE void copy(real_t* MDCP_MK_RESTRICT d,
            const real_t* MDCP_MK_RESTRICT s) const noexcept {
#define MDCP_MK_T(W) detail::copy_w<W>(d + k, s + k)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] = s[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] = v · s[k]
  MDCP_MK_INLINE void set_scale(real_t* MDCP_MK_RESTRICT d, const real_t* MDCP_MK_RESTRICT s,
                 real_t v) const noexcept {
#define MDCP_MK_T(W) detail::set_scale_w<W>(d + k, s + k, v)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] = v * s[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] *= s[k]
  MDCP_MK_INLINE void hadamard(real_t* MDCP_MK_RESTRICT d,
                const real_t* MDCP_MK_RESTRICT s) const noexcept {
#define MDCP_MK_T(W) detail::hadamard_w<W>(d + k, s + k)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] *= s[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] = a[k] · b[k]
  MDCP_MK_INLINE void mul(real_t* MDCP_MK_RESTRICT d, const real_t* MDCP_MK_RESTRICT a,
           const real_t* MDCP_MK_RESTRICT b) const noexcept {
#define MDCP_MK_T(W) detail::mul_w<W>(d + k, a + k, b + k)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] = a[k] * b[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] += s[k]
  MDCP_MK_INLINE void accum(real_t* MDCP_MK_RESTRICT d,
             const real_t* MDCP_MK_RESTRICT s) const noexcept {
#define MDCP_MK_T(W) detail::accum_w<W>(d + k, s + k)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] += s[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] += v · s[k]
  MDCP_MK_INLINE void axpy_accum(real_t* MDCP_MK_RESTRICT d,
                  const real_t* MDCP_MK_RESTRICT s, real_t v) const noexcept {
#define MDCP_MK_T(W) detail::axpy_w<W>(d + k, s + k, v)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] += v * s[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] += v · a[k] · b[k] — the fused order-3 MTTKRP path (two live
  /// factor rows, no staging accumulator).
  MDCP_MK_INLINE void fused2_accum(real_t* MDCP_MK_RESTRICT d,
                    const real_t* MDCP_MK_RESTRICT a,
                    const real_t* MDCP_MK_RESTRICT b, real_t v) const noexcept {
#define MDCP_MK_T(W) detail::fused2_w<W>(d + k, a + k, b + k, v)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] += v * a[k] * b[k];
    });
#undef MDCP_MK_T
  }

  /// d[k] += v · a[k] · b[k] · c[k] — the fused order-4 MTTKRP path.
  MDCP_MK_INLINE void fused3_accum(real_t* MDCP_MK_RESTRICT d,
                    const real_t* MDCP_MK_RESTRICT a,
                    const real_t* MDCP_MK_RESTRICT b,
                    const real_t* MDCP_MK_RESTRICT c,
                    real_t v) const noexcept {
#define MDCP_MK_T(W) detail::fused3_w<W>(d + k, a + k, b + k, c + k, v)
    MDCP_MK_DISPATCH(tile_, r_, MDCP_MK_T, {
      for (; k < r_; ++k) d[k] += v * a[k] * b[k] * c[k];
    });
#undef MDCP_MK_T
  }

 private:
  index_t r_ = 0;
  index_t tile_ = 0;
};

#undef MDCP_MK_DISPATCH

}  // namespace mdcp::mk
