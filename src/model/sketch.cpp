#include "model/sketch.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "util/error.hpp"
#include "util/mapped.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mdcp {

namespace {

// Default seed of projection_hash (the exact count must reproduce its
// values, so it hashes with the same one).
constexpr std::uint64_t kProjectionSeed = 0x9e3779b9ULL;

// Bucket bits of the exact count: 4096 buckets keep each bucket a few dozen
// hashes at the tuner's tensor sizes, so sorting them is cache-resident.
constexpr int kBucketBits = 12;
constexpr std::size_t kBuckets = std::size_t{1} << kBucketBits;

// Nonzeros hashed per block by the KMV scan (stack buffer).
constexpr nnz_t kHashBlock = 1024;

// projection_hash of nonzeros [r.begin, r.end) into out[0, r.size()),
// computed mode-major: one linear sweep per mode of `modes`, in ascending
// mode order with the same splitmix64 chain, so every value equals
// projection_hash(t, i, modes, seed).
void hash_projections(const CooTensor& t, mode_set_t modes,
                      std::uint64_t seed, Range r, std::uint64_t* out) {
  std::fill(out, out + r.size(), seed);
  for (mode_t m = 0; m < t.order(); ++m) {
    if (!mode_in(modes, m)) continue;
    const index_t* idx = t.mode_indices(m).data() + r.begin;
    const std::uint64_t tag = static_cast<std::uint64_t>(m) << 40;
    for (nnz_t i = 0; i < r.size(); ++i)
      out[i] = splitmix64(out[i] ^ (static_cast<std::uint64_t>(idx[i]) | tag));
  }
}

// Sorts `v`, drops duplicates, and keeps at most the k smallest.
void keep_k_smallest_distinct(std::vector<std::uint64_t>& v, unsigned k) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  if (v.size() > k) v.resize(k);
}

// The k smallest distinct projection hashes of nonzeros [r.begin, r.end).
// Candidates collect in a buffer that is cut back to k whenever it reaches
// 4k; once k distinct values are known, only hashes below the largest of
// them can still belong to the result.
std::vector<std::uint64_t> kmv_scan(const CooTensor& t, mode_set_t modes,
                                    std::uint64_t seed, Range r, unsigned k) {
  const std::size_t limit = 4 * std::size_t{k};
  std::vector<std::uint64_t> mins;
  mins.reserve(limit);
  bool full = false;
  std::uint64_t cut = 0;
  std::array<std::uint64_t, kHashBlock> block;
  for (nnz_t b = r.begin; b < r.end; b += kHashBlock) {
    const Range br{b, std::min(r.end, b + kHashBlock)};
    hash_projections(t, modes, seed, br, block.data());
    for (nnz_t i = 0; i < br.size(); ++i) {
      if (full && block[i] >= cut) continue;
      mins.push_back(block[i]);
      if (mins.size() == limit) {
        keep_k_smallest_distinct(mins, k);
        if (mins.size() == k) {
          full = true;
          cut = mins.back();
        }
      }
    }
  }
  keep_k_smallest_distinct(mins, k);
  return mins;
}

}  // namespace

std::uint64_t projection_hash(const CooTensor& t, nnz_t i, mode_set_t modes,
                              std::uint64_t seed) {
  std::uint64_t h = seed;
  for (mode_t m = 0; m < t.order(); ++m) {
    if (!mode_in(modes, m)) continue;
    h = splitmix64(h ^ (static_cast<std::uint64_t>(t.index(m, i)) |
                        (static_cast<std::uint64_t>(m) << 40)));
  }
  return h;
}

nnz_t exact_distinct_projections(const CooTensor& t, mode_set_t modes,
                                 std::uint64_t* scratch) {
  const nnz_t n = t.nnz();
  if (n == 0) return 0;
  if ((modes & all_modes(t.order())) == 0) return 1;  // scalar projection

  // Equal hashes share their top kBucketBits, so they land in one bucket,
  // and the distinct count is the sum of the buckets' distinct counts.
  const int threads = threads_for_work(n);
  std::optional<MappedArray<std::uint64_t>> owned;
  if (scratch == nullptr) scratch = owned.emplace(2 * n).data();
  std::uint64_t* const hashes = scratch;
  std::uint64_t* const bucketed = scratch + n;
  // cursor[tid * kBuckets + b]: thread tid's histogram of bucket b, then its
  // next write position in `bucketed`.
  std::vector<nnz_t> cursor(static_cast<std::size_t>(threads) * kBuckets);
  std::vector<nnz_t> bucket_start(kBuckets + 1);
  std::vector<nnz_t> distinct(static_cast<std::size_t>(threads), 0);
  const auto bucket_of = [](std::uint64_t h) {
    return static_cast<std::size_t>(h >> (64 - kBucketBits));
  };

  parallel_team(threads, [&](int tid, int team) {
    const Range mine = chunk_range(n, team, tid);
    std::uint64_t* const h = hashes + mine.begin;
    hash_projections(t, modes, kProjectionSeed, mine, h);
    nnz_t* const hist = cursor.data() + static_cast<std::size_t>(tid) * kBuckets;
    for (nnz_t i = 0; i < mine.size(); ++i) ++hist[bucket_of(h[i])];
#pragma omp barrier
    if (tid == 0) {
      // Bucket-major, thread-minor offsets.
      nnz_t at = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        bucket_start[b] = at;
        for (int u = 0; u < team; ++u) {
          nnz_t& c = cursor[static_cast<std::size_t>(u) * kBuckets + b];
          const nnz_t size = c;
          c = at;
          at += size;
        }
      }
      bucket_start[kBuckets] = at;
    }
#pragma omp barrier
    for (nnz_t i = 0; i < mine.size(); ++i)
      bucketed[hist[bucket_of(h[i])]++] = h[i];
#pragma omp barrier
    // Each thread counts the buckets that start inside its share of
    // [0, n), which balances the threads by elements, not by buckets.
    const auto first = std::lower_bound(bucket_start.begin(),
                                        bucket_start.end() - 1, mine.begin);
    const auto last = std::lower_bound(first, bucket_start.end() - 1,
                                       mine.end);
    nnz_t count = 0;
    for (auto b = first; b != last; ++b) {
      std::uint64_t* const lo = bucketed + *b;
      std::uint64_t* const hi = bucketed + *(b + 1);
      if (lo == hi) continue;
      std::sort(lo, hi);
      count += 1;
      for (const std::uint64_t* p = lo + 1; p != hi; ++p) count += *p != p[-1];
    }
    distinct[static_cast<std::size_t>(tid)] = count;
  });

  nnz_t total = 0;
  for (nnz_t d : distinct) total += d;
  return total;
}

nnz_t kmv_distinct_projections(const CooTensor& t, mode_set_t modes,
                               unsigned k, std::uint64_t seed) {
  MDCP_CHECK(k >= 2);
  if (t.nnz() == 0) return 0;
  if ((modes & all_modes(t.order())) == 0) return 1;

  // The k smallest distinct hashes of the whole tensor are among the k
  // smallest distinct hashes of the chunk each came from, so merging the
  // per-chunk sets gives exactly the serial result at any thread count.
  // Duplicates must be dropped, not kept — otherwise copies of small hashes
  // crowd out larger distinct values and the estimate collapses.
  const int threads = threads_for_work(t.nnz());
  std::vector<std::vector<std::uint64_t>> partial(
      static_cast<std::size_t>(threads));
  parallel_team(threads, [&](int tid, int team) {
    partial[static_cast<std::size_t>(tid)] =
        kmv_scan(t, modes, seed, chunk_range(t.nnz(), team, tid), k);
  });
  std::vector<std::uint64_t> mins;
  for (const auto& p : partial) mins.insert(mins.end(), p.begin(), p.end());
  keep_k_smallest_distinct(mins, k);

  if (mins.size() < k) return static_cast<nnz_t>(mins.size());  // saw them all
  const long double kth = static_cast<long double>(mins.back());
  MDCP_CHECK(kth > 0);
  const long double est =
      (static_cast<long double>(k) - 1) * 18446744073709551616.0L / kth;
  return static_cast<nnz_t>(std::min<long double>(
      est, static_cast<long double>(t.nnz())));
}

ProjectionCounter::ProjectionCounter(const CooTensor& tensor,
                                     nnz_t exact_threshold, unsigned kmv_k)
    : tensor_(tensor), exact_threshold_(exact_threshold), kmv_k_(kmv_k) {}

nnz_t ProjectionCounter::count(mode_set_t modes) {
  modes &= all_modes(tensor_.order());
  const auto it = cache_.find(modes);
  if (it != cache_.end()) return it->second;
  ++passes_;
  nnz_t result = 0;
  if (tensor_.nnz() <= exact_threshold_) {
    // One scratch serves every exact pass of this counter.
    if (!scratch_) scratch_.emplace(2 * tensor_.nnz());
    result = exact_distinct_projections(tensor_, modes, scratch_->data());
  } else {
    result = kmv_distinct_projections(tensor_, modes, kmv_k_);
  }
  cache_.emplace(modes, result);
  return result;
}

}  // namespace mdcp
