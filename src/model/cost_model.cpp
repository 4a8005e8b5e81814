#include "model/cost_model.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <string>

#include "csf/csf_tensor.hpp"
#include "dtree/dtree_engine.hpp"
#include "mttkrp/microkernel.hpp"
#include "sched/schedule.hpp"
#include "tensor/generator.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {

mode_set_t spec_mode_set(const TreeSpec& spec) {
  mode_set_t s = 0;
  for (mode_t m : spec.modes) s |= mode_set_t{1} << m;
  return s;
}

}  // namespace

StrategyPrediction predict_strategy(const CooTensor& tensor,
                                    const TreeSpec& spec, index_t rank,
                                    ProjectionCounter& counter,
                                    const CostModelParams& params) {
  spec.validate(tensor.order());
  StrategyPrediction pred;
  const double r = static_cast<double>(rank);
  // Vector-width-aware flop term: the microkernel issues whole SIMD lanes,
  // so an awkward rank (e.g. 17) pays for the next multiple of the vector
  // width. Byte terms keep the true r — memory traffic is not padded.
  const double rv = static_cast<double>(mk::padded_rank(rank));

  // Per-leaf path costs, used for the peak-value-memory bound.
  std::vector<std::size_t> path_value_bytes;

  const std::function<void(const TreeSpec&, mode_set_t, nnz_t, std::size_t)>
      visit = [&](const TreeSpec& node, mode_set_t parent_set,
                  nnz_t parent_tuples, std::size_t path_bytes_above) {
        const mode_set_t ms = spec_mode_set(node);
        const bool is_root = parent_set == 0;
        nnz_t tuples = is_root ? tensor.nnz() : counter.count(ms);
        if (!is_root) tuples = std::min(tuples, parent_tuples);

        std::size_t my_value_bytes = 0;
        if (!is_root) {
          NodeCostEstimate nc;
          nc.mode_set = ms;
          nc.tuples = tuples;
          nc.parent_tuples = parent_tuples;
          nc.delta = mode_count(parent_set & ~ms);
          const double pt = static_cast<double>(parent_tuples);
          nc.flops = pt * rv * (nc.delta + 1);
          nc.bytes = pt * (r * sizeof(real_t)                 // parent row
                           + nc.delta * r * sizeof(real_t)    // factor rows
                           + sizeof(nnz_t))                   // reduction id
                     + static_cast<double>(tuples) * r * sizeof(real_t);
          pred.nodes.push_back(nc);
          pred.flops_per_iteration += nc.flops;
          pred.bytes_per_iteration += nc.bytes;

          // Privatized-reduction envelope: a launch above the work gate may
          // run split tiles at `threads` partials, adding a combine pass
          // (threads × tuples × R adds) and a transient partial-slab
          // footprint. The model lacks per-launch skew, so this is the
          // worst case the scheduler can choose, not a certainty.
          if (params.threads > 1 && parent_tuples >= sched::kMinPrivatizeWork) {
            const double red = static_cast<double>(params.threads) *
                               static_cast<double>(tuples) * r;
            pred.reduction_flops_per_iteration += red;
            pred.flops_per_iteration += red;
            pred.bytes_per_iteration +=
                static_cast<double>(params.threads) *
                static_cast<double>(tuples) * r * sizeof(real_t);
            pred.privatized_partial_bytes = std::max(
                pred.privatized_partial_bytes,
                sched::privatized_partial_bytes(
                    params.threads, static_cast<index_t>(tuples), rank));
          }

          // Persistent symbolic structures of this node.
          pred.symbolic_bytes +=
              static_cast<std::size_t>(tuples) *
                  (node.is_leaf() ? 1 : node.modes.size()) * sizeof(index_t) +
              static_cast<std::size_t>(parent_tuples) * sizeof(nnz_t) +
              (static_cast<std::size_t>(tuples) + 1) * sizeof(nnz_t);
          my_value_bytes =
              static_cast<std::size_t>(tuples) * rank * sizeof(real_t);
        }

        const std::size_t path_bytes = path_bytes_above + my_value_bytes;
        if (node.is_leaf()) {
          path_value_bytes.push_back(path_bytes);
          return;
        }
        for (const auto& c : node.children)
          visit(c, ms, tuples, path_bytes);
      };
  visit(spec, 0, 0, 0);

  pred.peak_value_bytes =
      path_value_bytes.empty()
          ? 0
          : *std::max_element(path_value_bytes.begin(), path_value_bytes.end());
  pred.seconds_per_iteration =
      params.seconds_per_flop * pred.flops_per_iteration +
      params.seconds_per_byte * pred.bytes_per_iteration;
  return pred;
}

namespace {

// Shared pieces of the fallback-engine footprint formulas, mirroring the
// actual container layouts in mttkrp/ and csf/.

// One per-mode scatter plan (coo engine, csf1 non-root modes): a
// permutation, distinct output rows, and a CSR-style row_start.
std::size_t scatter_plan_bytes(nnz_t nnz, nnz_t distinct_rows) {
  return static_cast<std::size_t>(nnz) * sizeof(nnz_t) +
         static_cast<std::size_t>(distinct_rows) * sizeof(index_t) +
         static_cast<std::size_t>(distinct_rows + 1) * sizeof(nnz_t);
}

// Total linearization bits the alto engine's packed key needs (the codec's
// bit budget: ceil(log2(dim)) per mode). Zero-sized modes contribute
// nothing here — the engine itself rejects them at prepare().
index_t alto_key_bits(const CooTensor& t) {
  index_t total = 0;
  for (mode_t m = 0; m < t.order(); ++m)
    if (t.dim(m) > 1)
      total += static_cast<index_t>(std::bit_width(t.dim(m) - 1));
  return total;
}

// One CSF trie rooted at `root`: values, per-level fiber ids, per-non-leaf
// fptr. Level l fiber counts are the distinct counts of the mode-order
// prefixes (nnz upper bound without a counter).
std::size_t csf_tree_bytes(const CooTensor& t, mode_t root,
                           ProjectionCounter* counter) {
  const mode_t order = t.order();
  const std::vector<mode_t> mode_order = CsfTensor::default_order(t, root);
  std::size_t b = static_cast<std::size_t>(t.nnz()) * sizeof(real_t);
  mode_set_t prefix = 0;
  for (mode_t l = 0; l < order; ++l) {
    prefix |= mode_set_t{1} << mode_order[l];
    const nnz_t fibers =
        (l + 1 == order) ? t.nnz()
        : counter != nullptr ? std::min(counter->count(prefix), t.nnz())
                             : t.nnz();
    b += static_cast<std::size_t>(fibers) * sizeof(index_t);
    if (l + 1 < order)
      b += static_cast<std::size_t>(fibers + 1) * sizeof(nnz_t);
  }
  return b;
}

// Worst-case privatized partial-output slabs a launch may claim, charged
// only when the auto heuristic is allowed to pick the privatized schedule
// and the work clears its gate.
std::size_t privatized_envelope_bytes(const CooTensor& t, index_t rank,
                                      int threads, ScheduleMode sched_mode) {
  if (sched_mode == ScheduleMode::kOwner || threads <= 1) return 0;
  if (static_cast<nnz_t>(t.nnz()) * rank < sched::kMinPrivatizeWork) return 0;
  index_t max_dim = 0;
  for (mode_t m = 0; m < t.order(); ++m) max_dim = std::max(max_dim, t.dim(m));
  return sched::privatized_partial_bytes(threads, max_dim, rank);
}

}  // namespace

std::size_t predict_engine_footprint(const CooTensor& tensor,
                                     const std::string& engine, index_t rank,
                                     ProjectionCounter* counter,
                                     const CostModelParams& params,
                                     ScheduleMode sched_mode) {
  const mode_t order = tensor.order();
  const nnz_t nnz = tensor.nnz();
  const int threads = std::max(1, params.threads);
  const auto distinct = [&](mode_t m) -> nnz_t {
    const nnz_t d = counter != nullptr
                        ? counter->count(mode_set_t{1} << m)
                        : std::min<nnz_t>(nnz, tensor.dim(m));
    return std::min(d, nnz);
  };

  std::size_t b = 0;
  if (engine == "coo") {
    for (mode_t m = 0; m < order; ++m)
      b += scatter_plan_bytes(nnz, distinct(m));
    // Owner-computes tile accumulator: one R-row per thread.
    b += static_cast<std::size_t>(threads) * rank * sizeof(real_t);
  } else if (engine == "bcoo") {
    // Block-sorted copy: per-nonzero block-local bytes + value, plus block
    // directory (bounded by nnz).
    b += static_cast<std::size_t>(nnz) *
         (order * sizeof(std::uint8_t) + sizeof(real_t));
    b += static_cast<std::size_t>(nnz) *
         (order * sizeof(index_t) / 4 + sizeof(nnz_t));
  } else if (engine == "alto") {
    // Linearized copy: one packed key per nonzero (8 B on the 64-bit fast
    // path, 16 B when the shape's bit budget exceeds 64) plus the value
    // stream, the mode-0 row grouping, and — transiently — one set of
    // per-partition dense accumulator windows for the output mode, bounded
    // by the distinct rows the mode can have.
    b += static_cast<std::size_t>(nnz) *
         ((alto_key_bits(tensor) <= 64 ? 8 : 16) + sizeof(real_t));
    b += static_cast<std::size_t>(distinct(0)) *
         (sizeof(index_t) + sizeof(nnz_t));
    nnz_t max_rows = 0;
    for (mode_t m = 0; m < order; ++m)
      max_rows = std::max(max_rows, distinct(m));
    b += static_cast<std::size_t>(max_rows) * mk::padded_rank(rank) *
         sizeof(real_t);
    b += static_cast<std::size_t>(threads) * mk::padded_rank(rank) *
         sizeof(real_t);
  } else if (engine == "csf") {
    for (mode_t m = 0; m < order; ++m) b += csf_tree_bytes(tensor, m, counter);
    b += static_cast<std::size_t>(threads) * order * rank * sizeof(real_t);
  } else if (engine == "csf1") {
    b += csf_tree_bytes(tensor, 0, counter);
    for (mode_t m = 1; m < order; ++m)
      b += scatter_plan_bytes(nnz, distinct(m));
    // Fiber-buffer reused across non-root modes (one R-vector per live
    // fiber, bounded by nnz).
    b += static_cast<std::size_t>(nnz) * rank * sizeof(real_t) /
         std::max<std::size_t>(1, order);
    b += static_cast<std::size_t>(threads) * order * rank * sizeof(real_t);
  } else {
    MDCP_CHECK_MSG(false, "predict_engine_footprint: unknown fixed engine '"
                              << engine << "'");
  }
  return b + privatized_envelope_bytes(tensor, rank, threads, sched_mode);
}

double predict_engine_seconds(const CooTensor& tensor,
                              const std::string& engine, index_t rank,
                              const CostModelParams& params) {
  const double n = static_cast<double>(tensor.nnz());
  const double r = static_cast<double>(rank);
  // Rank-blocked engines issue whole SIMD lanes, so their flop term uses
  // the padded rank.
  const double rv = static_cast<double>(mk::padded_rank(rank));
  const double ord = static_cast<double>(tensor.order());
  // Per-sweep (all modes) element work; the relative weights express the
  // well-known ordering coo ≈ bcoo > csf (fiber sharing).
  double flops = 0;
  if (engine == "coo" || engine == "bcoo") {
    flops = ord * n * rv * ord;
  } else if (engine == "alto") {
    // Same fused per-nonzero kernels as coo, plus the on-the-fly decode
    // (one shift + mask per mode per nonzero) and the partition-window
    // merge, charged as one extra op per mode per nonzero.
    flops = ord * n * (rv * ord + ord);
  } else if (engine == "csf" || engine == "csf1") {
    flops = ord * n * rv * 2;  // fiber sharing amortizes the Hadamard chain
  } else {
    MDCP_CHECK_MSG(false, "predict_engine_seconds: unknown fixed engine '"
                              << engine << "'");
  }
  // Per-nonzero index traffic: every engine streams order × 4-byte indices
  // except alto, whose packed key is 8 bytes (16 past the 64-bit budget).
  const double index_bytes =
      engine == "alto" ? (alto_key_bits(tensor) <= 64 ? 8.0 : 16.0)
                       : ord * sizeof(index_t);
  const double bytes =
      ord * n * (index_bytes + sizeof(real_t) + r * sizeof(real_t));
  return params.seconds_per_flop * flops + params.seconds_per_byte * bytes;
}

CostModelParams calibrate_cost_model(index_t rank, std::uint64_t seed) {
  CostModelParams params;
  // Probe: one flat-tree MTTKRP sweep on a small uniform 4-D tensor; fit
  // seconds_per_flop so that predicted == measured, holding the machine-
  // balance ratio between the flop and byte terms fixed.
  const shape_t shape{200, 200, 200, 200};
  const nnz_t probe_nnz = 40000;
  const CooTensor probe = generate_uniform(shape, probe_nnz, seed);
  auto engine = make_dtree_flat(probe);

  Rng rng(seed);
  std::vector<Matrix> factors;
  for (mode_t m = 0; m < probe.order(); ++m)
    factors.push_back(Matrix::random_uniform(probe.dim(m), rank, rng));

  Matrix out;
  engine->compute(0, factors, out);  // warm-up (symbolic already built)
  WallTimer t;
  const int reps = 5;
  for (int rep = 0; rep < reps; ++rep) {
    engine->invalidate_all();
    for (mode_t m = 0; m < probe.order(); ++m)
      engine->compute(m, factors, out);
  }
  const double measured = t.seconds() / reps;

  ProjectionCounter counter(probe);
  std::vector<mode_t> order(probe.order());
  for (mode_t m = 0; m < probe.order(); ++m) order[m] = m;
  const auto pred =
      predict_strategy(probe, TreeSpec::flat(order), rank, counter, params);
  if (pred.seconds_per_iteration > 0 && measured > 0) {
    const double scale = measured / pred.seconds_per_iteration;
    params.seconds_per_flop *= scale;
    params.seconds_per_byte *= scale;
  }
  return params;
}

}  // namespace mdcp
