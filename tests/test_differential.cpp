// Differential suite: every registered engine × every mode × every schedule
// against the dense-materialization oracle (tests/oracle.hpp), across tensor
// orders 1–6, structural patterns (uniform, skewed, duplicate coordinates,
// empty slices), and ranks {1, 7, 16}. Runs with 4 threads so both the
// owner-computes and the privatized-reduction paths execute in parallel.
//
// Every tensor is generated from a seed derived with splitmix64 and logged
// via SCOPED_TRACE, so a failure names the exact configuration to replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mttkrp/registry.hpp"
#include "oracle.hpp"
#include "tensor/generator.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace mdcp {
namespace {

using mdcp::testing::max_scaled_error;
using mdcp::testing::oracle_mttkrp;
using mdcp::testing::random_factors;

constexpr double kTol = 1e-10;
constexpr std::uint64_t kSuiteSeed = 0xd1ffULL;

enum class Pattern { kUniform, kSkewed, kDuplicates, kEmptySlices };

const char* pattern_name(Pattern p) {
  switch (p) {
    case Pattern::kUniform: return "uniform";
    case Pattern::kSkewed: return "skewed";
    case Pattern::kDuplicates: return "duplicates";
    case Pattern::kEmptySlices: return "empty-slices";
  }
  return "?";
}

// Coordinates drawn from a small pool, so most positions receive several
// raw entries. The library contract requires coalesced input (CSF asserts
// it), so the duplicates are folded by coalesce() here — the oracle folds
// its own copy independently during dense materialization, which makes the
// summed values themselves part of the differential check.
CooTensor make_duplicates(const shape_t& shape, nnz_t nnz,
                          std::uint64_t seed) {
  Rng rng(seed);
  const nnz_t pool = std::max<nnz_t>(nnz / 4, 1);
  std::vector<std::vector<index_t>> coords(pool);
  for (auto& c : coords)
    for (index_t d : shape) c.push_back(rng.next_index(d));
  CooTensor t(shape);
  for (nnz_t i = 0; i < nnz; ++i)
    t.push_back(coords[rng.next_below(pool)], rng.next_real() - 0.5);
  t.coalesce();
  return t;
}

// Only even indices appear in every mode: half of each mode's slices are
// empty, so output rows with no contributing nonzero must come back zero.
CooTensor make_empty_slices(const shape_t& shape, nnz_t nnz,
                            std::uint64_t seed) {
  Rng rng(seed);
  CooTensor t(shape);
  std::vector<index_t> c(shape.size());
  for (nnz_t i = 0; i < nnz; ++i) {
    for (std::size_t m = 0; m < shape.size(); ++m) {
      const index_t half = (shape[m] + 1) / 2;
      c[m] = 2 * rng.next_index(half) % shape[m];
    }
    t.push_back(c, rng.next_real() + 0.25);
  }
  t.coalesce();
  return t;
}

CooTensor make_pattern(Pattern p, const shape_t& shape, nnz_t nnz,
                       std::uint64_t seed) {
  switch (p) {
    case Pattern::kUniform: return generate_uniform(shape, nnz, seed);
    case Pattern::kSkewed: return generate_zipf(shape, nnz, 1.4, seed);
    case Pattern::kDuplicates: return make_duplicates(shape, nnz, seed);
    case Pattern::kEmptySlices: return make_empty_slices(shape, nnz, seed);
  }
  return CooTensor{};
}

bool engine_supports(const std::string& name, mode_t order) {
  if (order >= 2) return true;
  // Dimension trees (and the auto engines built on them) contract down to
  // at least one mode and need order >= 2.
  return name.rfind("dtree", 0) != 0 && name.rfind("auto", 0) != 0;
}

struct ThreadRestore {
  ~ThreadRestore() { set_num_threads(1); }
};

void run_order(mode_t order, const shape_t& shape, nnz_t nnz) {
  ThreadRestore restore;
  set_num_threads(4);
  const auto names = EngineRegistry::instance().names();

  for (Pattern pattern : {Pattern::kUniform, Pattern::kSkewed,
                          Pattern::kDuplicates, Pattern::kEmptySlices}) {
    const std::uint64_t seed =
        splitmix64(kSuiteSeed ^ (static_cast<std::uint64_t>(order) << 8) ^
                   static_cast<std::uint64_t>(pattern));
    SCOPED_TRACE(::testing::Message()
                 << "pattern=" << pattern_name(pattern) << " order="
                 << static_cast<int>(order) << " seed=" << seed);
    const CooTensor t = make_pattern(pattern, shape, nnz, seed);
    ASSERT_GT(t.nnz(), 0u);

    // Ranks bracket every microkernel tile-cascade case: scalar tail only
    // (1, 7), 8-tile + tail (15), exact 16-tile (16), 16-tile + tail (17).
    for (index_t rank : {index_t{1}, index_t{7}, index_t{15}, index_t{16},
                         index_t{17}}) {
      const auto factors = random_factors(t, rank, splitmix64(seed + rank));
      std::vector<Matrix> oracle;
      for (mode_t m = 0; m < order; ++m)
        oracle.push_back(oracle_mttkrp(t, factors, m));

      for (const auto& name : names) {
        if (!engine_supports(name, order)) continue;
        for (ScheduleMode sm : {ScheduleMode::kAuto, ScheduleMode::kOwner,
                                ScheduleMode::kPrivatized}) {
          SCOPED_TRACE(::testing::Message()
                       << "engine=" << name << " rank=" << rank << " sched="
                       << static_cast<int>(sm));
          KernelContext ctx;
          ctx.threads = 4;
          ctx.sched = sm;
          const auto engine = make_engine(name, t, rank, ctx);
          for (mode_t m = 0; m < order; ++m) {
            Matrix out;
            engine->compute(m, factors, out);
            EXPECT_LT(max_scaled_error(oracle[m], out), kTol)
                << "mode " << static_cast<int>(m);
          }
        }
      }
    }
  }
}

// Registry-completeness guard: the matrix above enumerates
// EngineRegistry::names() dynamically, so the only way a registered engine
// can escape coverage is an engine_supports() skip. Pin the skip list to the
// known contraction-based family, require every other engine to run at every
// order, and require the engines the suite was written against (including
// the linearized "alto" engine) to actually be registered — if one is
// renamed or dropped, this fails instead of silently shrinking the matrix.
TEST(Differential, MatrixCoversEveryRegisteredEngine) {
  const auto names = EngineRegistry::instance().names();
  for (const char* expected :
       {"coo", "bcoo", "alto", "csf", "csf1", "dtree-flat", "dtree-3lvl",
        "dtree-bdt", "auto", "auto+probe"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "engine \"" << expected << "\" missing from the registry";
  }
  const CooTensor probe = generate_uniform(shape_t{6, 5, 4}, 40, kSuiteSeed);
  for (const auto& name : names) {
    SCOPED_TRACE(::testing::Message() << "engine=" << name);
    for (mode_t order = 2; order <= 6; ++order)
      EXPECT_TRUE(engine_supports(name, order));
    if (!engine_supports(name, 1)) {
      EXPECT_TRUE(name.rfind("dtree", 0) == 0 || name.rfind("auto", 0) == 0)
          << "only contraction-based engines may skip order 1";
    }
    // Every registered factory must produce a working engine for the matrix.
    const auto engine = make_engine(name, probe, 4, {});
    ASSERT_NE(engine, nullptr);
    EXPECT_FALSE(engine->name().empty());
  }
}

TEST(Differential, Order1) { run_order(1, shape_t{64}, 48); }
TEST(Differential, Order2) { run_order(2, shape_t{16, 12}, 80); }
TEST(Differential, Order3) { run_order(3, shape_t{9, 8, 7}, 120); }
TEST(Differential, Order4) { run_order(4, shape_t{7, 6, 5, 4}, 150); }
TEST(Differential, Order5) { run_order(5, shape_t{5, 5, 4, 3, 3}, 150); }
TEST(Differential, Order6) { run_order(6, shape_t{4, 3, 3, 3, 2, 2}, 120); }

}  // namespace
}  // namespace mdcp
