#include "dtree/symbolic.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "dtree/dimension_tree.hpp"
#include "util/error.hpp"
#include "util/mapped.hpp"

namespace mdcp {

namespace {

// Tuple ids [0, n) ordered lexicographically by (keys[0][i], keys[1][i],
// ...), ties kept in id order. This is a stable LSD radix sort: one
// counting pass per 16-bit digit, the last key first and the low digit
// first. Stability carries each pass's order into the next, so the result
// equals a comparator stable_sort. The high-digit pass runs only for a key
// whose largest value exceeds 65535, each histogram is only as wide as the
// digit's range, and a pass whose digit is the same for every id is skipped
// (it would not move anything). `ids` (2n) holds the two id buffers and
// `digit` (n) the current digits; returns the buffer with the result.
template <typename Id>
const Id* radix_sort_ids(std::span<const std::span<const index_t>> keys,
                         nnz_t n, Id* ids, std::uint16_t* digit) {
  constexpr int kDigitBits = 16;
  constexpr index_t kDigitMask = (index_t{1} << kDigitBits) - 1;
  Id* perm = ids;
  Id* next = ids + n;
  std::iota(perm, perm + n, Id{0});
  if (n < 2) return perm;
  std::vector<nnz_t> count;
  for (std::size_t k = keys.size(); k-- > 0;) {
    const index_t* const key = keys[k].data();
    const index_t top = *std::max_element(key, key + n);
    const int passes = top > kDigitMask ? 2 : 1;
    for (int pass = 0; pass < passes; ++pass) {
      const int shift = pass * kDigitBits;
      const std::size_t buckets =
          std::min<std::size_t>(std::size_t{top >> shift}, kDigitMask) + 1;
      count.assign(buckets + 1, 0);
      for (nnz_t i = 0; i < n; ++i) {
        const auto d =
            static_cast<std::uint16_t>((key[perm[i]] >> shift) & kDigitMask);
        digit[i] = d;
        ++count[std::size_t{d} + 1];
      }
      if (count[std::size_t{digit[0]} + 1] == n) continue;
      for (std::size_t b = 1; b <= buckets; ++b) count[b] += count[b - 1];
      for (nnz_t i = 0; i < n; ++i) next[count[digit[i]]++] = perm[i];
      std::swap(perm, next);
    }
  }
  return perm;
}

// The sort's scratch is mapped (util/mapped.hpp) and uses 32-bit ids below
// 2^32 tuples, so it is small and leaves no heap holes behind.
std::vector<nnz_t> sort_by_key(std::span<const std::span<const index_t>> keys,
                               nnz_t n) {
  MappedArray<std::uint16_t> digit(n);
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    MappedArray<nnz_t> ids(2 * n);
    const nnz_t* perm = radix_sort_ids(keys, n, ids.data(), digit.data());
    return std::vector<nnz_t>(perm, perm + n);
  }
  MappedArray<std::uint32_t> ids(2 * n);
  const std::uint32_t* perm = radix_sort_ids(keys, n, ids.data(), digit.data());
  return std::vector<nnz_t>(perm, perm + n);
}

}  // namespace

void build_symbolic(DimensionTree& tree) {
  // BFS order guarantees each parent is finalized before its children.
  for (int id : tree.bfs_order()) {
    auto& n = tree.node(id);
    if (n.is_root()) continue;

    const int parent = n.parent;
    const nnz_t pcount = tree.node_tuples(parent);

    // Gather the parent's index arrays for this node's modes once.
    std::vector<std::span<const index_t>> keys;
    keys.reserve(n.modes.size());
    for (mode_t m : n.modes) keys.push_back(tree.node_mode_index(parent, m));

    // Sort parent tuple ids by the projected key.
    std::vector<nnz_t> perm = sort_by_key(keys, pcount);

    const auto same_key = [&](nnz_t a, nnz_t b) {
      for (const auto& k : keys)
        if (k[a] != k[b]) return false;
      return true;
    };

    // Group equal keys: each group becomes one tuple of this node, and the
    // group's members form its reduction set.
    n.idx.assign(n.modes.size(), {});
    n.red_ids = std::move(perm);
    n.red_ptr.clear();
    for (nnz_t p = 0; p < pcount; ++p) {
      if (p == 0 || !same_key(n.red_ids[p], n.red_ids[p - 1])) {
        n.red_ptr.push_back(p);
        for (std::size_t m = 0; m < keys.size(); ++m)
          n.idx[m].push_back(keys[m][n.red_ids[p]]);
      }
    }
    n.red_ptr.push_back(pcount);
    n.tuples = n.red_ptr.size() - 1;
    MDCP_CHECK(n.tuples <= pcount);
    n.max_red = 0;
    for (nnz_t t = 0; t < n.tuples; ++t)
      n.max_red = std::max(n.max_red, n.red_ptr[t + 1] - n.red_ptr[t]);
    n.owner_tiles = {};
    n.split_tiles = {};
  }
}

}  // namespace mdcp
