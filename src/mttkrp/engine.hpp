// Abstract interface for MTTKRP computation engines.
//
// CP-ALS (and the benchmarks) are written against this interface so that the
// COO baselines, the SPLATT-style CSF kernel, and the memoized
// dimension-tree engines are interchangeable — and so the model-driven tuner
// can swap in whichever strategy it predicts to be fastest.
//
// Lifecycle: every engine is constructed from a KernelContext (workspace +
// thread budget + optional stats sink), then runs an explicit two-phase
// protocol:
//
//   engine.prepare(tensor, rank);          // symbolic phase: build index
//                                          //   structures, reserve scratch
//   engine.compute(mode, factors, out);    // numeric phase: allocation-free,
//                                          //   scratch from the workspace
//
// The base class wraps both phases (non-virtual interface): it times the
// symbolic and numeric work, applies the context's thread override, and
// tracks the workspace scratch high-water mark, so every engine reports
// uniform KernelStats without touching a timer itself. Subclasses implement
// do_prepare()/do_compute(). The convenience constructors that take a tensor
// call prepare() immediately; either way the tensor must outlive the engine.
//
// One instrumentation frame per call: the outermost prepare()/compute() on a
// thread opens the frame (span, flight-recorder events, fault sites, thread
// scope, budget install, call counters). An engine called from inside that
// frame — the auto engine's chosen strategy, the tuner's probe sweeps — runs
// its do_prepare()/do_compute() directly, and its flops, schedule, tile and
// degradation records land in the stats of the engine that opened the frame.
// Each MTTKRP is therefore counted once, whichever wrapper ran it.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "la/matrix.hpp"
#include "sched/schedule.hpp"
#include "tensor/coo_tensor.hpp"
#include "util/workspace.hpp"

namespace mdcp {

class MttkrpEngine {
 public:
  explicit MttkrpEngine(KernelContext ctx = {});
  virtual ~MttkrpEngine() = default;

  /// Symbolic phase: binds the engine to `tensor` (which must outlive it)
  /// and builds all index structures. `rank` is a hint used to pre-reserve
  /// per-thread scratch and by rank-dependent engines (the tuner); 0 =
  /// unknown, scratch is then sized at the first compute(). May be called
  /// again to re-target the engine at a different tensor.
  void prepare(const CooTensor& tensor, index_t rank = 0);

  /// Numeric phase: out = MTTKRP(X, {factors}, mode) — the matricized
  /// tensor in `mode` times the Khatri–Rao product of all other factors.
  /// `out` is resized to (dim(mode) × R). `factors` must contain one I_m×R
  /// matrix per mode, all with the same column count R. Requires prepare();
  /// draws all scratch from the context workspace (no heap allocation on
  /// the steady-state path).
  void compute(mode_t mode, const std::vector<Matrix>& factors, Matrix& out);

  bool prepared() const noexcept { return tensor_ != nullptr; }

  /// Notifies the engine that factor matrix `mode` has changed since the
  /// last compute() call. Engines that memoize partial products use this to
  /// invalidate stale intermediates; stateless engines ignore it.
  virtual void factor_updated(mode_t mode) { (void)mode; }

  /// Drops all memoized state (stateless engines: no-op).
  virtual void invalidate_all() {}

  /// Engine identifier for logs and benchmark tables.
  virtual std::string name() const = 0;

  /// Bytes of auxiliary structures currently held (index arrays, memoized
  /// value matrices, CSF fibers, ...), excluding the input tensor itself
  /// and the shared workspace.
  virtual std::size_t memory_bytes() const { return 0; }

  /// Peak bytes of auxiliary structures observed so far.
  virtual std::size_t peak_memory_bytes() const { return memory_bytes(); }

  /// Per-engine counters recorded by prepare()/compute(). An engine that
  /// only ever runs inside another engine's frame keeps these at zero.
  const KernelStats& stats() const noexcept { return stats_; }

  KernelContext& context() noexcept { return ctx_; }
  const KernelContext& context() const noexcept { return ctx_; }
  Workspace& workspace() const noexcept { return *ctx_.workspace; }

 protected:
  /// Builds the engine's symbolic structures for tensor() at rank hint
  /// `rank`. Called with the thread override already applied.
  virtual void do_prepare(index_t rank) = 0;

  /// The numeric kernel. Scratch must come from workspace().
  virtual void do_compute(mode_t mode, const std::vector<Matrix>& factors,
                          Matrix& out) = 0;

  /// The tensor bound by prepare(). Throws if not prepared.
  const CooTensor& tensor() const;

  /// Rank hint passed to prepare() (0 = unknown).
  index_t rank_hint() const noexcept { return rank_hint_; }

  /// Records approximate numeric flops into the stats sinks.
  void count_flops(std::uint64_t flops) noexcept;

  /// Records one scheduled parallel launch into the stats sinks, metrics,
  /// and trace (schedule, tile count, heuristic reason). Engines call this
  /// once per launch; the last call of a compute() defines last_schedule.
  void record_schedule(const sched::Decision& d) noexcept;

  /// Bulk form for engines that run a chain of launches before reporting
  /// (the dimension-tree node evaluations): `d` is the last launch's
  /// decision, the counts cover the whole chain.
  void record_schedule(const sched::Decision& d, std::uint64_t owner_launches,
                       std::uint64_t privatized_launches) noexcept;

  /// Records how the prepared plan was chosen ("model" or "history"; see
  /// obs/history.hpp) into the stats sinks and the tuner.plan_source trace
  /// span. `source` must be a static string.
  void record_plan_source(const char* source) noexcept;

  /// Records one degradation-chain fallback (see model/tuner.hpp) into the
  /// stats sinks and the "engine.degradations" metric. `reason` must be a
  /// static string ("predicted-over-budget", "budget-exceeded",
  /// "alloc-failure").
  void record_degradation(const char* reason) noexcept;

  /// Records the microkernel R-tile width selected for this compute() (see
  /// mttkrp/microkernel.hpp) into the stats sinks and a trace span, so bench
  /// meta and `mdcp_cli profile` can attribute roofline deltas to the tile
  /// actually run. `tile` ∈ {32, 16, 8, 0}.
  void record_tile(index_t tile) noexcept;

  /// Schedule override from the context (kAuto = per-mode heuristic).
  ScheduleMode schedule_mode() const noexcept { return ctx_.sched; }

  /// Threads the next kernel launch will use (the context override, or the
  /// library-wide setting).
  int effective_threads() const noexcept;

  KernelContext ctx_;

 private:
  /// Applies `update` to the stats sinks of the engine whose frame is open
  /// (this engine when none is): its own KernelStats and the context sink.
  template <typename F>
  void update_sinks(F&& update) noexcept;

  const CooTensor* tensor_ = nullptr;
  index_t rank_hint_ = 0;
  KernelStats stats_;
  // Span label for the numeric phase ("mttkrp:<name>"), cached at prepare()
  // time so compute() never allocates for tracing.
  std::string trace_label_;
};

/// Checks that the factor list is consistent with the tensor: one matrix per
/// mode, rows match mode sizes, uniform column count. Returns R.
index_t check_factors(const CooTensor& tensor,
                      const std::vector<Matrix>& factors);

/// Reference MTTKRP: direct quadratic-in-order evaluation straight from the
/// definition, single-threaded. Used as the oracle in tests.
void mttkrp_reference(const CooTensor& tensor,
                      const std::vector<Matrix>& factors, mode_t mode,
                      Matrix& out);

}  // namespace mdcp
