#include "dtree/dtree_engine.hpp"

#include <algorithm>
#include <numeric>

#include "dtree/numeric.hpp"
#include "mttkrp/microkernel.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mdcp {

namespace {

std::vector<mode_t> natural_order(mode_t order) {
  std::vector<mode_t> o(order);
  std::iota(o.begin(), o.end(), mode_t{0});
  return o;
}

std::unique_ptr<DTreeMttkrpEngine> make_prepared(const CooTensor& tensor,
                                                 TreeShape shape,
                                                 const char* name,
                                                 KernelContext ctx) {
  auto engine = std::make_unique<DTreeMttkrpEngine>(shape, name, ctx);
  engine->prepare(tensor);
  return engine;
}

}  // namespace

TreeSpec flat_shape(mode_t order) {
  return TreeSpec::flat(natural_order(order));
}

TreeSpec three_level_shape(mode_t order) {
  return TreeSpec::three_level(natural_order(order),
                               static_cast<mode_t>((order + 1) / 2));
}

TreeSpec bdt_shape(mode_t order) { return TreeSpec::bdt(natural_order(order)); }

DTreeMttkrpEngine::DTreeMttkrpEngine(TreeShape shape, std::string display_name,
                                     KernelContext ctx)
    : MttkrpEngine(ctx), shape_(shape), name_(std::move(display_name)) {}

DTreeMttkrpEngine::DTreeMttkrpEngine(TreeSpec spec, std::string display_name,
                                     KernelContext ctx)
    : MttkrpEngine(ctx), spec_(std::move(spec)), name_(std::move(display_name)) {}

DTreeMttkrpEngine::DTreeMttkrpEngine(const CooTensor& tensor,
                                     const TreeSpec& spec,
                                     std::string display_name,
                                     KernelContext ctx)
    : MttkrpEngine(ctx), spec_(spec), name_(std::move(display_name)) {
  prepare(tensor);
}

void DTreeMttkrpEngine::do_prepare(index_t rank) {
  if (shape_ != nullptr) spec_ = shape_(tensor().order());
  tree_ = std::make_unique<DimensionTree>(tensor(), spec_);
  rank_ = 0;
  peak_bytes_ = memory_bytes();
  if (rank > 0)
    workspace().reserve(effective_threads(),
                        mk::padded_rank(rank) * sizeof(real_t));
}

void DTreeMttkrpEngine::do_compute(mode_t mode,
                                   const std::vector<Matrix>& factors,
                                   Matrix& out) {
  DimensionTree& tree = *tree_;
  const index_t r = check_factors(tree.tensor(), factors);
  MDCP_CHECK(mode < tree.order());
  if (r != rank_) {
    // Rank changed since the last call: every cached value matrix has the
    // wrong width.
    invalidate_all_nodes(tree);
    rank_ = r;
  }

  const int leaf = tree.leaf_for_mode(mode);
  record_tile(mk::select_tile(r));
  TtmvSched ts{.threads = effective_threads(), .mode = schedule_mode()};
  count_flops(compute_node_values(tree, leaf, factors, r, workspace(), &ts));
  peak_bytes_ = std::max(peak_bytes_, memory_bytes());

  // Scatter the leaf tuples into the dense output (rows of unused indices
  // stay zero, matching the MTTKRP of empty slices). Pure copy with one
  // writer per row — always owner-computes, not counted as a launch.
  const auto& ln = tree.node(leaf);
  out.resize(tree.tensor().dim(mode), r, 0);
  const auto rows = tree.node_mode_index(leaf, mode);
  parallel_for(ln.tuples, [&](nnz_t t) {
    const auto src = ln.values.row(static_cast<index_t>(t));
    auto dst = out.row(rows[t]);
    std::copy(src.begin(), src.end(), dst.begin());
  });

  if (ts.owner_launches + ts.privatized_launches > 0) {
    // The decision of the leaf's own TTMV (the last launch in the chain)
    // defines last_schedule; intermediate node launches are counted too.
    record_schedule(ts.last, ts.owner_launches, ts.privatized_launches);
  } else {
    // Fully memoized compute (every node served from cache): report the
    // no-op so benches still see a schedule column.
    record_schedule({sched::Schedule::kOwner, 1, 0.0, 0, "memoized"}, 1, 0);
  }
  if (ts.privatized_launches > 0)
    count_flops(sched::reduction_flops(ts.last.tiles,
                                       static_cast<index_t>(ln.tuples), r));
}

void DTreeMttkrpEngine::factor_updated(mode_t mode) {
  if (!tree_) return;
  MDCP_CHECK(mode < tree_->order());
  invalidate_mode(*tree_, mode);
}

void DTreeMttkrpEngine::invalidate_all() {
  if (tree_) invalidate_all_nodes(*tree_);
}

std::size_t DTreeMttkrpEngine::memory_bytes() const {
  if (!tree_) return 0;
  return tree_->symbolic_bytes() + tree_->value_bytes();
}

std::unique_ptr<DTreeMttkrpEngine> make_dtree_flat(const CooTensor& tensor,
                                                   KernelContext ctx) {
  return make_prepared(tensor, flat_shape, "dtree-flat", ctx);
}

std::unique_ptr<DTreeMttkrpEngine> make_dtree_three_level(
    const CooTensor& tensor, KernelContext ctx) {
  return make_prepared(tensor, three_level_shape, "dtree-3lvl", ctx);
}

std::unique_ptr<DTreeMttkrpEngine> make_dtree_bdt(const CooTensor& tensor,
                                                  KernelContext ctx) {
  return make_prepared(tensor, bdt_shape, "dtree-bdt", ctx);
}

}  // namespace mdcp
