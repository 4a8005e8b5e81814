// Unit tests for the shared SIMD rank-blocked microkernel layer
// (mttkrp/microkernel.hpp): every primitive against a scalar reference for
// ranks spanning all tile-cascade cases, plus the static tile-selection and
// cost-scaling helpers the model layer depends on.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "mttkrp/microkernel.hpp"
#include "util/aligned.hpp"

namespace mdcp {
namespace {

// Deterministic non-trivial fill values (no RNG needed: we check exact
// equality against the scalar reference, not statistics).
real_t val(index_t i, int salt) {
  return 0.25 * static_cast<real_t>((i * 7 + salt * 13) % 31) - 3.0;
}

class MicrokernelTest : public ::testing::TestWithParam<index_t> {};

// Ranks covering: zero, scalar-only tail (<8), each tile width, tile+tail
// mixes, cascade boundaries (15/16/17, 31/32/33), and a 32+8+tail case.
INSTANTIATE_TEST_SUITE_P(Ranks, MicrokernelTest,
                         ::testing::Values(0, 1, 3, 7, 8, 9, 15, 16, 17, 24,
                                           31, 32, 33, 40, 43));

TEST_P(MicrokernelTest, PrimitivesMatchScalarReference) {
  const index_t r = GetParam();
  const mk::Kernel mk(r);
  ASSERT_EQ(mk.rank(), r);

  // One guard lane past r in every destination: primitives must never write
  // beyond rank() even though the slab stride is padded.
  const index_t n = r + 1;
  aligned_real_vector d(n), ref(n), a(n), b(n), c(n);
  const real_t v = 1.75;
  for (index_t k = 0; k < n; ++k) {
    a[k] = val(k, 1);
    b[k] = val(k, 2);
    c[k] = val(k, 3);
  }
  const auto reset = [&] {
    for (index_t k = 0; k < n; ++k) d[k] = ref[k] = val(k, 4);
  };
  const auto expect_equal = [&](const char* what) {
    for (index_t k = 0; k < n; ++k)
      ASSERT_EQ(d[k], ref[k]) << what << " lane " << k << " rank " << r;
  };

  reset();
  mk.fill(d.data(), v);
  for (index_t k = 0; k < r; ++k) ref[k] = v;
  expect_equal("fill");

  reset();
  mk.add_scalar(d.data(), v);
  for (index_t k = 0; k < r; ++k) ref[k] += v;
  expect_equal("add_scalar");

  reset();
  mk.copy(d.data(), a.data());
  for (index_t k = 0; k < r; ++k) ref[k] = a[k];
  expect_equal("copy");

  reset();
  mk.set_scale(d.data(), a.data(), v);
  for (index_t k = 0; k < r; ++k) ref[k] = v * a[k];
  expect_equal("set_scale");

  reset();
  mk.hadamard(d.data(), a.data());
  for (index_t k = 0; k < r; ++k) ref[k] *= a[k];
  expect_equal("hadamard");

  reset();
  mk.mul(d.data(), a.data(), b.data());
  for (index_t k = 0; k < r; ++k) ref[k] = a[k] * b[k];
  expect_equal("mul");

  reset();
  mk.accum(d.data(), a.data());
  for (index_t k = 0; k < r; ++k) ref[k] += a[k];
  expect_equal("accum");

  reset();
  mk.axpy_accum(d.data(), a.data(), v);
  for (index_t k = 0; k < r; ++k) ref[k] += v * a[k];
  expect_equal("axpy_accum");

  reset();
  mk.fused2_accum(d.data(), a.data(), b.data(), v);
  for (index_t k = 0; k < r; ++k) ref[k] += v * a[k] * b[k];
  expect_equal("fused2_accum");

  reset();
  mk.fused3_accum(d.data(), a.data(), b.data(), c.data(), v);
  for (index_t k = 0; k < r; ++k) ref[k] += v * a[k] * b[k] * c[k];
  expect_equal("fused3_accum");
}

TEST_P(MicrokernelTest, FusedPathsMatchStagedComposition) {
  // The fused order-3/4 paths must be bitwise identical to the staged
  // fill/hadamard/accum composition they replace: v is multiplied first in
  // both (fill(tmp, v) then hadamards == v * a * b left-to-right), so the
  // differential oracle sees no drift when an engine switches to fused.
  const index_t r = GetParam();
  const mk::Kernel mk(r);
  aligned_real_vector fused(r), staged(r), tmp(mk.padded()), a(r), b(r), cc(r);
  const real_t v = -0.375;
  for (index_t k = 0; k < r; ++k) {
    a[k] = val(k, 5);
    b[k] = val(k, 6);
    cc[k] = val(k, 7);
    fused[k] = staged[k] = val(k, 8);
  }

  mk.fused2_accum(fused.data(), a.data(), b.data(), v);
  mk.fill(tmp.data(), v);
  mk.hadamard(tmp.data(), a.data());
  mk.hadamard(tmp.data(), b.data());
  mk.accum(staged.data(), tmp.data());
  for (index_t k = 0; k < r; ++k) ASSERT_EQ(fused[k], staged[k]) << k;

  mk.fused3_accum(fused.data(), a.data(), b.data(), cc.data(), v);
  mk.fill(tmp.data(), v);
  mk.hadamard(tmp.data(), a.data());
  mk.hadamard(tmp.data(), b.data());
  mk.hadamard(tmp.data(), cc.data());
  mk.accum(staged.data(), tmp.data());
  for (index_t k = 0; k < r; ++k) ASSERT_EQ(fused[k], staged[k]) << k;
}

TEST(Microkernel, TileSelection) {
  EXPECT_EQ(mk::select_tile(0), 0u);
  EXPECT_EQ(mk::select_tile(1), 0u);
  EXPECT_EQ(mk::select_tile(7), 0u);
  EXPECT_EQ(mk::select_tile(8), 8u);
  EXPECT_EQ(mk::select_tile(15), 8u);
  EXPECT_EQ(mk::select_tile(16), 16u);
  EXPECT_EQ(mk::select_tile(17), 16u);
  EXPECT_EQ(mk::select_tile(31), 16u);
  EXPECT_EQ(mk::select_tile(32), 32u);
  EXPECT_EQ(mk::select_tile(33), 32u);
  EXPECT_EQ(mk::select_tile(1000), 32u);

  EXPECT_EQ(mk::Kernel(17).tile(), 16u);
  EXPECT_EQ(mk::Kernel().tile(), 0u);
  EXPECT_EQ(mk::Kernel().rank(), 0u);
}

TEST(Microkernel, PaddedRankAndCostScaling) {
  EXPECT_EQ(mk::padded_rank(0), 0u);
  EXPECT_EQ(mk::padded_rank(1), mk::kVectorWidth);
  EXPECT_EQ(mk::padded_rank(8), 8u);
  EXPECT_EQ(mk::padded_rank(17), 24u);
  EXPECT_EQ(mk::padded_rank(32), 32u);
  // Padded strides preserve slab alignment for consecutive accumulators.
  for (index_t r : {1u, 7u, 9u, 17u, 33u})
    EXPECT_EQ(mk::padded_rank(r) * sizeof(real_t) % mk::kAlignment, 0u) << r;

  EXPECT_DOUBLE_EQ(mk::tile_efficiency(16), 1.0);
  EXPECT_DOUBLE_EQ(mk::tile_efficiency(17), 17.0 / 24.0);
  EXPECT_DOUBLE_EQ(mk::flop_scale(17), 24.0 / 17.0);
  EXPECT_DOUBLE_EQ(mk::flop_scale(17) * mk::tile_efficiency(17), 1.0);
  EXPECT_DOUBLE_EQ(mk::flop_scale(0), 1.0);
}

TEST(Microkernel, AlignedAllocatorContract) {
  // The buffers used throughout this test file rely on aligned_real_vector
  // actually honoring kNumericAlignment.
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    aligned_real_vector buf(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                  kNumericAlignment,
              0u)
        << n;
  }
  static_assert(mk::kAlignment == kNumericAlignment,
                "microkernel and allocator alignment must agree");
}

}  // namespace
}  // namespace mdcp
