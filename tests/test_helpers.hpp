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

/// Every registered engine that is an exact MTTKRP: the registry minus the
/// auto* engines, which run one of these under the hood and are tested
/// separately.
inline std::vector<std::string> exact_engine_names() {
  std::vector<std::string> names;
  for (const auto& name : EngineRegistry::instance().names())
    if (name.rfind("auto", 0) != 0) names.push_back(name);
  return names;
}

/// Label-friendly engine name for parameterized tests.
inline std::string engine_label(std::string name) {
  for (auto& c : name)
    if (c == '-') c = '_';
  return name;
}

}  // namespace mdcp::testing
