// Bitwise determinism across thread counts: all parallel kernels accumulate
// per output element in a fixed order, so results must be *identical* (not
// just close) for any number of threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cpals/cpals.hpp"
#include "la/blas.hpp"
#include "la/dense_kernels.hpp"
#include "mttkrp/registry.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace mdcp {
namespace {

using mdcp::testing::random_factors;

class ThreadRestore {
 public:
  ~ThreadRestore() { set_num_threads(1); }
};

// The suites below enumerate EngineRegistry::names(), so an engine that
// silently unregisters would drop out of coverage without failing anything.
// Pin the engines whose determinism story these tests were written to lock
// down — in particular the linearized "alto" engine, whose partition-window
// merge order is the whole reason it can promise bitwise owner-mode results.
TEST(Determinism, RegistryListsBitwiseCriticalEngines) {
  const auto names = EngineRegistry::instance().names();
  for (const char* expected : {"coo", "bcoo", "alto", "csf", "dtree-bdt"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "engine \"" << expected
        << "\" missing from the registry-driven determinism matrix";
  }
}

TEST(Determinism, MttkrpBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{30, 35, 40, 45}, 3000, 1.1, 61);
  const auto factors = random_factors(t, 8, 62);

  // Every registered engine must produce bit-identical output regardless of
  // thread count. "auto+probe" is excluded: its strategy choice depends on
  // measured probe timings, which can legitimately differ across thread
  // counts (each chosen strategy is itself deterministic — that is covered
  // by the dtree names below; plain "auto" picks from the analytic model
  // only, so it stays in).
  for (const auto& name : EngineRegistry::instance().names()) {
    if (name == "auto+probe") continue;
    std::vector<Matrix> results;
    for (int threads : {1, 2, 4}) {
      set_num_threads(threads);
      const auto engine = make_engine(name, t, 8);
      Matrix out;
      engine->compute(2, factors, out);
      results.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0] == results[i], true)
          << name << ": thread count changed the bits";
    }
  }
}

// Forced owner-computes keeps the cross-thread-count bitwise guarantee even
// on tensors where the auto heuristic would choose privatized tiles.
TEST(Determinism, ForcedOwnerBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{40, 36, 32}, 4000, 1.3, 71);
  const auto factors = random_factors(t, 8, 72);
  for (const auto& name : EngineRegistry::instance().names()) {
    if (name == "auto+probe") continue;
    KernelContext ctx;
    ctx.sched = ScheduleMode::kOwner;
    std::vector<Matrix> results;
    for (int threads : {1, 2, 4}) {
      set_num_threads(threads);
      const auto engine = make_engine(name, t, 8, ctx);
      Matrix out;
      engine->compute(1, factors, out);
      results.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[0] == results[i], true)
          << name << ": forced owner changed bits across thread counts";
    }
  }
}

// The privatized schedule combines per-thread partials in fixed thread
// order, so at a *fixed* thread count repeated runs must be bitwise
// identical; across different thread counts the accumulation order changes
// and only closeness is guaranteed.
TEST(Determinism, PrivatizedBitwiseAtFixedThreadCount) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{40, 36, 32, 28}, 5000, 1.2, 73);
  const auto factors = random_factors(t, 8, 74);
  KernelContext ctx;
  ctx.sched = ScheduleMode::kPrivatized;
  for (const auto& name : EngineRegistry::instance().names()) {
    if (name == "auto+probe") continue;
    set_num_threads(4);
    std::vector<Matrix> runs;
    for (int rep = 0; rep < 3; ++rep) {
      const auto engine = make_engine(name, t, 8, ctx);
      Matrix out;
      engine->compute(2, factors, out);
      runs.push_back(std::move(out));
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      EXPECT_EQ(runs[0] == runs[i], true)
          << name << ": privatized run-to-run bits differ at 4 threads";
    }
  }
}

TEST(Determinism, PrivatizedDriftAcrossThreadCountsWithinTolerance) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{40, 36, 32, 28}, 5000, 1.2, 75);
  const auto factors = random_factors(t, 8, 76);
  KernelContext ctx;
  ctx.sched = ScheduleMode::kPrivatized;
  for (const auto& name : EngineRegistry::instance().names()) {
    if (name == "auto+probe") continue;
    set_num_threads(1);
    const auto e1 = make_engine(name, t, 8, ctx);
    Matrix out1;
    e1->compute(0, factors, out1);
    set_num_threads(4);
    const auto e4 = make_engine(name, t, 8, ctx);
    Matrix out4;
    e4->compute(0, factors, out4);
    ASSERT_EQ(out1.rows(), out4.rows());
    ASSERT_EQ(out1.cols(), out4.cols());
    double scale = 1.0, err = 0.0;
    for (index_t i = 0; i < out1.rows(); ++i) {
      for (index_t k = 0; k < out1.cols(); ++k) {
        scale = std::max(scale, std::abs(static_cast<double>(out1(i, k))));
        err = std::max(err, std::abs(static_cast<double>(out1(i, k)) -
                                     static_cast<double>(out4(i, k))));
      }
    }
    EXPECT_LT(err / scale, 1e-12)
        << name << ": 1-vs-4-thread privatized drift too large";
  }
}

// The dense layer (la/dense_kernels.hpp) runs on one of several ISA paths;
// the bitwise guarantee holds within each. Paths this CPU cannot run are
// skipped.
class DeterminismPerPath : public mdcp::testing::DensePathTest {};

TEST_P(DeterminismPerPath, GramBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  Rng rng(63);
  // One block (no parallel region) and several blocks.
  for (index_t rows : {997, 3 * 2048 + 5}) {
    const Matrix a = Matrix::random_normal(rows, 16, rng);
    set_num_threads(1);
    const Matrix g1 = gram(a);
    set_num_threads(4);
    const Matrix g4 = gram(a);
    EXPECT_TRUE(g1 == g4) << rows << " rows";
  }
}

CpAlsOptions small_cp_als_options() {
  CpAlsOptions opt;
  opt.rank = 4;
  opt.max_iterations = 4;
  opt.tolerance = 0;
  opt.engine_name = "dtree-bdt";
  return opt;
}

TEST_P(DeterminismPerPath, CpAlsBitwiseAcrossThreadCounts) {
  ThreadRestore restore;
  const auto t = generate_uniform(shape_t{18, 20, 22}, 900, 67);
  const CpAlsOptions opt = small_cp_als_options();

  set_num_threads(1);
  const auto r1 = cp_als(t, opt);
  set_num_threads(4);
  const auto r4 = cp_als(t, opt);
  ASSERT_EQ(r1.fits.size(), r4.fits.size());
  for (std::size_t i = 0; i < r1.fits.size(); ++i)
    EXPECT_EQ(r1.fits[i], r4.fits[i]) << "iteration " << i;
  for (mode_t m = 0; m < 3; ++m)
    EXPECT_TRUE(r1.model.factors[m] == r4.model.factors[m]) << "mode " << m;
}

// A mode longer than one 2048-row block, so factor_update runs its blocks
// in parallel.
TEST_P(DeterminismPerPath, CpAlsWithMultiBlockModeBitwise) {
  ThreadRestore restore;
  const auto t = generate_zipf(shape_t{5000, 30, 40}, 8000, 1.1, 68);
  CpAlsOptions opt = small_cp_als_options();
  opt.rank = 20;
  opt.engine_name = "coo";
  set_num_threads(1);
  const auto r1 = cp_als(t, opt);
  set_num_threads(4);
  const auto r4 = cp_als(t, opt);
  EXPECT_EQ(r1.fits, r4.fits);
  for (mode_t m = 0; m < 3; ++m)
    EXPECT_TRUE(r1.model.factors[m] == r4.model.factors[m]) << "mode " << m;
}

INSTANTIATE_TEST_SUITE_P(Isa, DeterminismPerPath,
                         mdcp::testing::kAllDensePaths,
                         mdcp::testing::dense_path_name);

// Across paths only rounding differs (FMA contraction): fits and factors
// agree to 1e-12.
TEST(Determinism, CpAlsAgreesAcrossIsaPaths) {
  ThreadRestore restore;
  const auto t = generate_uniform(shape_t{18, 20, 22}, 900, 67);
  const CpAlsOptions opt = small_cp_als_options();
  set_num_threads(4);
  const auto run = [&](dense::Isa isa) {
    const dense::ScopedIsa scope(isa);
    return cp_als(t, opt);
  };
  const auto base = run(dense::Isa::kBaseline);
  for (dense::Isa isa : {dense::Isa::kAvx2, dense::Isa::kAvx512}) {
    if (!dense::isa_supported(isa)) continue;
    SCOPED_TRACE(dense::isa_name(isa));
    const auto r = run(isa);
    ASSERT_EQ(r.fits.size(), base.fits.size());
    for (std::size_t i = 0; i < r.fits.size(); ++i)
      EXPECT_NEAR(r.fits[i], base.fits[i], 1e-12) << "iteration " << i;
    for (mode_t m = 0; m < 3; ++m)
      EXPECT_LE(Matrix::max_abs_diff(r.model.factors[m],
                                     base.model.factors[m]),
                1e-12)
          << "mode " << m;
  }
}

}  // namespace
}  // namespace mdcp
