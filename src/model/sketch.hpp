// Distinct-count estimation for projected index tuples.
//
// The cost model needs |π_S(nnz(X))| — the number of distinct tuples when
// the nonzeros are projected onto a mode subset S — for every candidate tree
// node. This equals the tuple count of the corresponding memoized
// intermediate, so it determines both the flops and the memory of a
// strategy. Computing it by sorting (as the symbolic pass does) would cost
// as much as building the tree; instead we hash every projected tuple and
// either count distinct hashes exactly (small tensors) or use a k-minimum-
// values (KMV) sketch (large tensors) — a single O(nnz) pass per subset,
// with results cached per subset across all candidate strategies.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "tensor/coo_tensor.hpp"
#include "util/mapped.hpp"
#include "util/types.hpp"

namespace mdcp {

/// 64-bit hash of the projection of nonzero i onto `modes`.
std::uint64_t projection_hash(const CooTensor& t, nnz_t i, mode_set_t modes,
                              std::uint64_t seed = 0x9e3779b9ULL);

/// Exact count of distinct projection_hash values: the hashes are bucketed
/// by their top bits and each bucket is sorted and counted on its own, in
/// parallel above kMinParallelWork nonzeros. The result does not depend on
/// the thread count. (Collisions would undercount with probability
/// ~nnz²/2⁶⁴ — negligible at any realistic size.) `scratch` holds 2·nnz
/// values the pass may overwrite; null allocates them for this call.
nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes,
                                 std::uint64_t* scratch = nullptr);

/// KMV estimate of the distinct-projection count using the k smallest
/// distinct hashes: D ≈ (k−1)·2⁶⁴ / h_(k). Relative error ~1/√k. Chunks
/// are scanned in parallel and merged; the estimate does not depend on the
/// thread count.
nnz_t kmv_distinct_projections(const CooTensor& t, mode_set_t modes,
                               unsigned k = 1024,
                               std::uint64_t seed = 0x9e3779b9ULL);

/// Caching facade: exact below `exact_threshold` nonzeros, KMV above.
/// Results are memoized per mode subset, so enumerating many tree shapes
/// that share nodes (e.g. all BDT orderings) costs one pass per subset.
class ProjectionCounter {
 public:
  explicit ProjectionCounter(const CooTensor& tensor,
                             nnz_t exact_threshold = nnz_t{1} << 21,
                             unsigned kmv_k = 1024);

  /// Estimated (or exact) number of distinct projected tuples onto `modes`.
  nnz_t count(mode_set_t modes);

  /// Number of cache misses so far (test/diagnostic hook).
  std::size_t passes() const noexcept { return passes_; }

 private:
  const CooTensor& tensor_;
  nnz_t exact_threshold_;
  unsigned kmv_k_;
  std::unordered_map<mode_set_t, nnz_t> cache_;
  std::size_t passes_ = 0;
  std::optional<MappedArray<std::uint64_t>> scratch_;  // exact passes, 2·nnz
};

}  // namespace mdcp
