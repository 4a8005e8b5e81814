// Shared fixtures/utilities for the mdcp test suite.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "mdcp.hpp"

namespace mdcp::dense {
/// Names the path in gtest's parameter output.
inline void PrintTo(Isa isa, std::ostream* os) { *os << isa_name(isa); }
}  // namespace mdcp::dense

namespace mdcp::testing {

/// Base of a suite that runs once per dense ISA path compiled into the
/// library (la/dense_kernels.hpp). A path this CPU cannot run is skipped.
/// Instantiate with kAllDensePaths and dense_path_name.
class DensePathTest : public ::testing::TestWithParam<dense::Isa> {
 protected:
  void SetUp() override {
    if (!dense::isa_supported(GetParam()))
      GTEST_SKIP() << dense::isa_name(GetParam()) << " not supported here";
    scope_.emplace(GetParam());
  }

 private:
  std::optional<dense::ScopedIsa> scope_;
};

inline const auto kAllDensePaths = ::testing::Values(
    dense::Isa::kBaseline, dense::Isa::kAvx2, dense::Isa::kAvx512);

inline std::string dense_path_name(
    const ::testing::TestParamInfo<dense::Isa>& info) {
  return dense::isa_name(info.param);
}

/// Random factor matrices matching `tensor` with the given rank.
inline std::vector<Matrix> random_factors(const CooTensor& tensor,
                                          index_t rank, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> f;
  f.reserve(tensor.order());
  for (mode_t m = 0; m < tensor.order(); ++m)
    f.push_back(Matrix::random_uniform(tensor.dim(m), rank, rng));
  return f;
}

/// Small dense-ish tensor for brute-force comparisons.
inline CooTensor small_tensor(mode_t order, index_t dim, nnz_t nnz,
                              std::uint64_t seed) {
  shape_t shape(order, dim);
  return generate_uniform(shape, nnz, seed);
}

/// All engine kinds that are exact MTTKRPs (everything except kAuto, which
/// is itself one of the dtree engines under the hood and is tested
/// separately).
inline std::vector<EngineKind> exact_engine_kinds() {
  return {EngineKind::kCoo,           EngineKind::kBlockedCoo,
          EngineKind::kTtvChain,      EngineKind::kCsf,
          EngineKind::kCsfOne,        EngineKind::kDTreeFlat,
          EngineKind::kDTreeThreeLevel, EngineKind::kDTreeBdt};
}

/// Label-friendly name for parameterized tests.
inline std::string kind_label(EngineKind k) {
  std::string s = engine_kind_name(k);
  for (auto& c : s)
    if (c == '-') c = '_';
  return s;
}

}  // namespace mdcp::testing
