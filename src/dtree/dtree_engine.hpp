// MTTKRP engine backed by a dimension tree (the memoized scheme).
//
// compute(n) materializes the root→leaf(n) path, reusing any intermediate
// already valid from earlier modes in the CP-ALS sweep. factor_updated(n)
// invalidates exactly the nodes contracted with U^(n) — together these
// reproduce the destroy/compute schedule of the dimension-tree CP-ALS
// algorithm, including its ⌈log N⌉ live-value-matrix memory bound for BDTs.
//
// The tree itself is symbolic state built in prepare(); per-thread TTMV
// temporaries come from the KernelContext workspace.
#pragma once

#include <memory>

#include "dtree/dimension_tree.hpp"
#include "mttkrp/engine.hpp"

namespace mdcp {

/// A tree shape as a function of the tensor's order, so an engine can be
/// named before its tensor is known. The canonical shapes below use the
/// natural mode order 0..N-1.
using TreeShape = TreeSpec (*)(mode_t order);
TreeSpec flat_shape(mode_t order);
TreeSpec three_level_shape(mode_t order);  ///< split at ⌈N/2⌉
TreeSpec bdt_shape(mode_t order);

class DTreeMttkrpEngine final : public MttkrpEngine {
 public:
  /// Shape form: prepare() builds the tree `shape(tensor.order())`.
  /// `display_name` appears in logs and benchmark tables ("dtree-bdt",
  /// "dtree-flat", ...).
  DTreeMttkrpEngine(TreeShape shape, std::string display_name,
                    KernelContext ctx = {});
  /// Fixed-spec form: prepare() builds the tree `spec` (the tuner's chosen
  /// strategy); the spec must cover the prepared tensor's modes.
  explicit DTreeMttkrpEngine(TreeSpec spec, std::string display_name = "dtree",
                             KernelContext ctx = {});
  /// Convenience: construct and prepare in one step. The tensor must outlive
  /// the engine.
  DTreeMttkrpEngine(const CooTensor& tensor, const TreeSpec& spec,
                    std::string display_name = "dtree", KernelContext ctx = {});

  void factor_updated(mode_t mode) override;
  void invalidate_all() override;
  std::string name() const override { return name_; }
  std::size_t memory_bytes() const override;
  std::size_t peak_memory_bytes() const override { return peak_bytes_; }

  const DimensionTree& tree() const { return *tree_; }
  /// The spec of the prepared tree (shape form: empty before prepare()).
  const TreeSpec& spec() const noexcept { return spec_; }

 protected:
  void do_prepare(index_t rank) override;
  void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                  Matrix& out) override;

 private:
  TreeShape shape_ = nullptr;  ///< null = fixed spec_
  TreeSpec spec_;
  std::unique_ptr<DimensionTree> tree_;
  std::string name_;
  index_t rank_ = 0;  // rank of the last compute(); mismatch resets state
  std::size_t peak_bytes_ = 0;
};

/// Convenience factories for the three canonical shapes, prepared for
/// `tensor`.
std::unique_ptr<DTreeMttkrpEngine> make_dtree_flat(const CooTensor& tensor,
                                                   KernelContext ctx = {});
std::unique_ptr<DTreeMttkrpEngine> make_dtree_three_level(
    const CooTensor& tensor, KernelContext ctx = {});
std::unique_ptr<DTreeMttkrpEngine> make_dtree_bdt(const CooTensor& tensor,
                                                  KernelContext ctx = {});

}  // namespace mdcp
