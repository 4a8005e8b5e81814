// Tests for the kernel execution runtime: the engine registry, the
// prepare()/compute() lifecycle, KernelStats recording, workspace injection,
// and the cross-engine memoization-invalidation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "mttkrp/microkernel.hpp"
#include "mttkrp/registry.hpp"
#include "obs/metrics.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace mdcp {
namespace {

using mdcp::testing::random_factors;

TEST(Registry, BuiltinNamesInCanonicalOrder) {
  const std::vector<std::string> expect{
      "coo",        "bcoo",      "alto", "csf",       "csf1",
      "dtree-flat", "dtree-3lvl", "dtree-bdt", "auto", "auto+probe"};
  EXPECT_EQ(EngineRegistry::instance().names(), expect);
  for (const auto& name : expect)
    EXPECT_TRUE(EngineRegistry::instance().contains(name)) << name;
  EXPECT_FALSE(EngineRegistry::instance().contains("no-such-engine"));
}

TEST(Registry, UnknownNameThrowsListingKnownEngines) {
  try {
    (void)make_engine("splattzilla");
    FAIL() << "expected throw";
  } catch (const error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("splattzilla"), std::string::npos);
    EXPECT_NE(what.find("dtree-bdt"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  EXPECT_THROW(EngineRegistry::instance().register_engine(
                   "coo", "dup", [](KernelContext ctx) {
                     return make_engine("csf", ctx);
                   }),
               error);
}

TEST(Registry, CreatedEnginesReportTheirName) {
  for (const auto& name : EngineRegistry::instance().names()) {
    const auto engine = make_engine(name);
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_FALSE(engine->prepared()) << name;
    if (name != "auto" && name != "auto+probe")  // auto names its strategy
      EXPECT_EQ(engine->name(), name);
  }
}

TEST(Runtime, ComputeBeforePrepareThrows) {
  const auto t = testing::small_tensor(3, 10, 60, 301);
  const auto factors = random_factors(t, 4, 302);
  for (const auto& name : EngineRegistry::instance().names()) {
    const auto engine = make_engine(name);
    Matrix out;
    EXPECT_THROW(engine->compute(0, factors, out), error) << name;
  }
}

TEST(Runtime, EveryRegistryEngineMatchesReference) {
  const auto t = generate_zipf(shape_t{12, 18, 24, 30}, 900, 1.1, 303);
  const auto factors = random_factors(t, 5, 304);
  for (const auto& name : EngineRegistry::instance().names()) {
    const auto engine = make_engine(name, t, 5);
    EXPECT_TRUE(engine->prepared()) << name;
    for (mode_t m = 0; m < t.order(); ++m) {
      Matrix got, want;
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9)
          << name << " mode " << m;
    }
  }
}

TEST(Runtime, RePrepareRetargetsEngine) {
  const auto t1 = testing::small_tensor(3, 12, 100, 305);
  const auto t2 = generate_zipf(shape_t{8, 14, 20, 26}, 400, 1.0, 306);
  for (const auto& name : EngineRegistry::instance().names()) {
    const auto engine = make_engine(name, t1, 4);
    const auto f1 = random_factors(t1, 4, 307);
    Matrix out;
    engine->compute(0, f1, out);
    // Retarget at a tensor of a different order and recompute.
    engine->prepare(t2, 4);
    engine->invalidate_all();
    const auto f2 = random_factors(t2, 4, 308);
    Matrix got, want;
    engine->compute(1, f2, got);
    mttkrp_reference(t2, f2, 1, want);
    EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9) << name;
  }
}

TEST(Runtime, StatsRecordPhasesAndFlops) {
  const auto t = testing::small_tensor(4, 15, 500, 309);
  const auto factors = random_factors(t, 6, 310);
  KernelStats sink;
  Workspace ws;
  const auto engine =
      make_engine("csf", t, 6, KernelContext{&ws, 0, &sink});
  EXPECT_EQ(engine->stats().prepare_calls, 1u);
  EXPECT_EQ(engine->stats().compute_calls, 0u);
  Matrix out;
  engine->compute(0, factors, out);
  engine->compute(1, factors, out);
  const KernelStats& s = engine->stats();
  EXPECT_EQ(s.prepare_calls, 1u);
  EXPECT_EQ(s.compute_calls, 2u);
  EXPECT_GE(s.symbolic_seconds, 0.0);
  EXPECT_GT(s.numeric_seconds, 0.0);
  EXPECT_GT(s.flops, 0u);
  // The CSF kernel needs order×R reals per thread, so scratch was used.
  EXPECT_GT(s.peak_scratch_bytes, 0u);
  EXPECT_GT(ws.peak_bytes(), 0u);
  // The shared sink mirrors the engine-local counters.
  EXPECT_EQ(sink.prepare_calls, s.prepare_calls);
  EXPECT_EQ(sink.compute_calls, s.compute_calls);
  EXPECT_EQ(sink.flops, s.flops);
}

TEST(Runtime, EveryEngineCountsEachMttkrpOnce) {
  // One CP-ALS run of K iterations on an order-N tensor makes N·K MTTKRPs
  // and one prepare, whichever engine runs them: a wrapper engine (auto,
  // auto+probe) must not count its inner engine's calls a second time, and
  // the global flop counter must agree with the engine's own.
  const auto t = generate_zipf(shape_t{30, 40, 50, 60}, 2000, 1.1, 321);
  auto& metrics = obs::MetricsRegistry::instance();
  const obs::Counter& computes = metrics.counter("kernel.compute_calls");
  const obs::Counter& prepares = metrics.counter("kernel.prepare_calls");
  const obs::Counter& flops = metrics.counter("kernel.flops");
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  const std::uint64_t expect_calls =
      static_cast<std::uint64_t>(t.order()) * opt.max_iterations;
  for (const auto& name : EngineRegistry::instance().names()) {
    opt.engine_name = name;
    const std::uint64_t computes0 = computes.value();
    const std::uint64_t prepares0 = prepares.value();
    const std::uint64_t flops0 = flops.value();
    const CpAlsResult r = cp_als(t, opt);
    ASSERT_EQ(r.iterations, opt.max_iterations) << name;
    EXPECT_EQ(computes.value() - computes0, expect_calls) << name;
    EXPECT_EQ(prepares.value() - prepares0, 1u) << name;
    EXPECT_EQ(flops.value() - flops0, r.kernel_stats.flops) << name;
    EXPECT_EQ(r.kernel_stats.compute_calls, expect_calls) << name;
    EXPECT_EQ(r.kernel_stats.prepare_calls, 1u) << name;
  }
}

TEST(Runtime, InjectedWorkspaceIsUsedForScratch) {
  const auto t = testing::small_tensor(3, 20, 400, 311);
  const auto factors = random_factors(t, 8, 312);
  Workspace ws;
  EXPECT_EQ(ws.allocated_bytes(), 0u);
  const auto engine = make_engine("coo", t, 8, KernelContext{&ws, 0, nullptr});
  // The rank hint lets prepare() pre-reserve the per-thread scratch...
  EXPECT_GT(ws.allocated_bytes(), 0u);
  const std::size_t after_prepare = ws.allocated_bytes();
  Matrix out;
  engine->compute(0, factors, out);
  // ...so compute() performs no further workspace growth.
  EXPECT_EQ(ws.allocated_bytes(), after_prepare);
}

TEST(Runtime, MidSweepFactorUpdateInvalidatesMemoizedState) {
  // The cross-engine memoization contract: after updating one factor and
  // calling factor_updated(m), every engine must produce the same result as
  // the stateless reference — stale memoized intermediates that still embed
  // the old factor would break this.
  const auto t = generate_zipf(shape_t{10, 14, 18, 22, 26}, 800, 1.1, 313);
  auto factors = random_factors(t, 5, 314);

  for (const auto& name : EngineRegistry::instance().names()) {
    const auto engine = make_engine(name, t, 5);
    Matrix out;
    // Warm the memoization with a partial sweep.
    engine->compute(0, factors, out);
    engine->compute(1, factors, out);
    // Mid-sequence single-factor update, as CP-ALS does after each solve.
    Rng rng(315);
    factors[1] = Matrix::random_uniform(t.dim(1), 5, rng);
    engine->factor_updated(1);
    for (mode_t m = 0; m < t.order(); ++m) {
      if (m == 1) continue;  // MTTKRP in mode 1 does not read factor 1
      Matrix got, want;
      engine->compute(m, factors, got);
      mttkrp_reference(t, factors, m, want);
      EXPECT_LT(Matrix::max_abs_diff(got, want), 1e-9)
          << name << " stale after factor_updated(1), mode " << m;
    }
    // Restore shared factors for the next engine.
    factors = random_factors(t, 5, 314);
  }
}

TEST(Runtime, InvalidateAllReleasesValueMatrices) {
  // The dtree engines hold materialized node value matrices after a
  // compute(); invalidate_all() must actually free them (memory_bytes drops
  // back to the symbolic-only footprint), not merely mark them stale.
  const auto t = generate_zipf(shape_t{15, 20, 25, 30}, 1200, 1.1, 316);
  const auto factors = random_factors(t, 8, 317);
  for (const std::string name : {"dtree-flat", "dtree-3lvl", "dtree-bdt"}) {
    const auto engine = make_engine(name, t, 8);
    const std::size_t symbolic_only = engine->memory_bytes();
    Matrix out;
    engine->compute(0, factors, out);
    const std::size_t with_values = engine->memory_bytes();
    EXPECT_GT(with_values, symbolic_only) << name;
    engine->invalidate_all();
    EXPECT_EQ(engine->memory_bytes(), symbolic_only) << name;
    EXPECT_GE(engine->peak_memory_bytes(), with_values) << name;
  }
}

TEST(Runtime, WorkspaceSlabsHonorMicrokernelAlignment) {
  // The microkernel's assume_aligned contract: every thread's slab base must
  // be 64-byte aligned for any slab size and any thread count, including
  // after growth reallocations.
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % mk::kAlignment == 0;
  };
  static_assert(Workspace::kAlignment % mk::kAlignment == 0,
                "workspace slabs must satisfy the microkernel contract");
  Workspace ws;
  for (const std::size_t reals : {1u, 3u, 17u, 100u, 4099u}) {
    ws.reserve(4, reals * sizeof(real_t));
    struct ThreadRestore {
      ~ThreadRestore() { set_num_threads(1); }
    } restore;
    set_num_threads(4);
#pragma omp parallel
    {
      const auto slab = ws.thread_scratch<real_t>(reals);
#pragma omp critical
      {
        EXPECT_TRUE(aligned(slab.data())) << "size " << reals;
        EXPECT_GE(slab.size(), reals);
      }
    }
  }
}

TEST(Runtime, MatrixStorageHonorsMicrokernelAlignment) {
  // la::Matrix base storage is 64-byte aligned (rows additionally so when
  // cols is a multiple of the vector width — the padded-rank layouts the
  // engines carve scratch with).
  static_assert(Matrix::kAlignment % mk::kAlignment == 0,
                "matrix storage must satisfy the microkernel contract");
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % mk::kAlignment == 0;
  };
  Rng rng(404);
  for (const index_t cols : {1u, 7u, 8u, 17u, 32u}) {
    Matrix m = Matrix::random_uniform(13, cols, rng);
    EXPECT_TRUE(aligned(m.data())) << cols;
    if (cols % mk::kVectorWidth == 0) {
      for (index_t i = 0; i < m.rows(); ++i)
        ASSERT_TRUE(aligned(m.row(i).data())) << cols << " row " << i;
    }
    // Growth through resize must preserve the base alignment.
    m.resize(257, cols, 0);
    EXPECT_TRUE(aligned(m.data())) << cols << " after resize";
  }
}

TEST(Runtime, EnginesRecordMicrokernelTile) {
  // Every engine is rank-blocked and reports the tile its last compute
  // dispatched. The auto engine's inner engine records into the auto
  // engine's stats.
  const auto t = testing::small_tensor(3, 10, 80, 401);
  for (const auto rank : {index_t{7}, index_t{16}, index_t{33}}) {
    const auto factors = random_factors(t, rank, 402 + rank);
    for (const auto& name : EngineRegistry::instance().names()) {
      if (name == "auto+probe") continue;  // probing benchmarks itself
      const auto engine = make_engine(name, t, rank);
      Matrix out;
      engine->compute(0, factors, out);
      EXPECT_EQ(engine->stats().last_tile, mk::select_tile(rank))
          << name << " rank " << rank;
    }
  }
}

TEST(Runtime, AutoEngineRequiresRankHint) {
  const auto t = testing::small_tensor(3, 10, 80, 318);
  const auto engine = make_engine("auto");
  EXPECT_THROW(engine->prepare(t), error);
  EXPECT_THROW(engine->prepare(t, 0), error);
  engine->prepare(t, 4);
  EXPECT_TRUE(engine->prepared());
  // Once prepared, the name reports the chosen strategy.
  EXPECT_EQ(engine->name().rfind("auto:", 0), 0u) << engine->name();
}

}  // namespace
}  // namespace mdcp
