// Analytic per-iteration cost model for memoization strategies.
//
// Given a candidate tree shape, the model predicts — without building the
// tree — the work and memory of one CP-ALS iteration:
//
//   flops(node)  = |parent tuples| · R · (|δ| + 1)
//                  (each contributing parent tuple costs |δ| Hadamard
//                   row-multiplies plus one accumulate, over R columns)
//   bytes(node)  ≈ reads of the parent rows and factor rows + the reduction
//                  ids + the output write, all per iteration
//   peak memory  = max over root→leaf paths of the value matrices alive at
//                  once (the dimension-tree scheduling bound) + persistent
//                  symbolic index structures.
//
// Node tuple counts come from the ProjectionCounter sketches, so evaluating
// a strategy costs O(nnz) once per *distinct mode subset* across all
// candidates — orders of magnitude cheaper than running each candidate.
// Predicted seconds = α·flops + β·bytes; only the ratio α:β matters for
// ranking strategies, and `calibrate_cost_model` fits α empirically with a
// microprobe if desired.
#pragma once

#include <string>
#include <vector>

#include "dtree/dimension_tree.hpp"
#include "model/sketch.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/workspace.hpp"

namespace mdcp {

struct CostModelParams {
  double seconds_per_flop = 1.5e-9;  ///< effective scalar FMA cost
  double seconds_per_byte = 1.5e-10; ///< effective memory-traffic cost
  /// Thread budget the kernels will run under. Above 1, the model charges
  /// each TTMV pass that clears the privatization work gate
  /// (sched::kMinPrivatizeWork) with the privatized-reduction worst case:
  /// threads × tuples × R combine flops and a threads × tuples × R × 8-byte
  /// partial-slab footprint. 1 (the default) reproduces the serial model.
  int threads = 1;
};

struct NodeCostEstimate {
  mode_set_t mode_set = 0;
  nnz_t tuples = 0;         ///< estimated projected-tuple count
  nnz_t parent_tuples = 0;  ///< estimated tuple count of the parent
  int delta = 0;            ///< modes contracted parent→node
  double flops = 0;
  double bytes = 0;
};

struct StrategyPrediction {
  /// Flop terms are vector-width-aware: the shared microkernel issues whole
  /// SIMD lanes, so ranks are charged at mk::padded_rank(r) (e.g. R=17 costs
  /// 24 lanes per row op). Byte terms use the true rank.
  double flops_per_iteration = 0;
  double bytes_per_iteration = 0;
  double seconds_per_iteration = 0;
  std::size_t symbolic_bytes = 0;    ///< persistent index + reduction memory
  std::size_t peak_value_bytes = 0;  ///< live value matrices (schedule bound)
  /// Combine-pass flops charged for launches that may run the privatized
  /// schedule (already included in flops_per_iteration). 0 at threads = 1.
  double reduction_flops_per_iteration = 0;
  /// Peak per-thread partial-output slab footprint across launches (one
  /// launch's slabs live at a time). 0 at threads = 1.
  std::size_t privatized_partial_bytes = 0;
  std::vector<NodeCostEstimate> nodes;

  std::size_t total_memory_bytes() const {
    return symbolic_bytes + peak_value_bytes + privatized_partial_bytes;
  }
};

/// Predicts one CP-ALS iteration of MTTKRPs under `spec` at rank `rank`.
StrategyPrediction predict_strategy(const CooTensor& tensor,
                                    const TreeSpec& spec, index_t rank,
                                    ProjectionCounter& counter,
                                    const CostModelParams& params = {});

/// Coarse resident-footprint envelope for one of the fixed (non-dimension-
/// tree) engines — the degradation-chain side of the model. Covers the
/// engine's persistent structures (scatter plans, CSF tries, linearized
/// key streams) plus the worst-case transient the parallel schedule may
/// claim (privatized partial-output slabs, partition accumulator windows).
/// `engine` is a registry name: "coo", "bcoo", "alto", "csf", or "csf1". A
/// ProjectionCounter sharpens the CSF/scatter-plan estimates with
/// distinct-prefix counts; without one, per-level fiber counts fall back to
/// the nnz upper bound.
/// `sched_mode` narrows the envelope: pinning owner-computes drops the
/// privatized-slab term, which is how the AutoEngine keeps the last resorts
/// of its chain viable under tight budgets.
std::size_t predict_engine_footprint(
    const CooTensor& tensor, const std::string& engine, index_t rank,
    ProjectionCounter* counter = nullptr, const CostModelParams& params = {},
    ScheduleMode sched_mode = ScheduleMode::kAuto);

/// Coarse per-iteration time prediction for the same fixed engines, on the
/// same α·flops + β·bytes scale as predict_strategy — comparable enough to
/// rank the degradation chain against the dtree candidates. One CP-ALS
/// iteration = one MTTKRP per mode.
double predict_engine_seconds(const CooTensor& tensor,
                              const std::string& engine, index_t rank,
                              const CostModelParams& params = {});

/// Fits `seconds_per_flop` by timing a small synthetic contraction probe on
/// this machine; `seconds_per_byte` keeps the default machine-balance ratio.
CostModelParams calibrate_cost_model(index_t rank = 16,
                                     std::uint64_t seed = 7);

}  // namespace mdcp
