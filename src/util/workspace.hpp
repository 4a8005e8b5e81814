// Kernel execution runtime: per-thread scratch arenas and shared counters.
//
// Every MTTKRP engine draws its per-thread numeric scratch from a Workspace
// instead of allocating inside hot loops. A Workspace owns one slab per
// thread id; `thread_scratch(n)` returns the calling thread's slab (grown
// geometrically, 64-byte aligned, reused across calls), so after the first
// compute() of a given size the numeric path performs no heap allocation.
//
// KernelContext bundles the workspace with a thread-count override and an
// optional shared KernelStats sink; it is the single injection point the
// engine registry, the tuner, and the benchmarks use to control where
// kernels get their scratch and where their counters go.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "util/aligned.hpp"

namespace mdcp {

class Workspace {
 public:
  /// Slab alignment (one x86 cache line / AVX-512 vector). Matches the
  /// matrix-storage alignment so the microkernel's assume_aligned contract
  /// holds for every slab-origin accumulator pointer.
  static constexpr std::size_t kAlignment = kNumericAlignment;
  static_assert(kAlignment % sizeof(real_t) == 0 &&
                    (kAlignment & (kAlignment - 1)) == 0,
                "slab stride must be a power-of-two multiple of real_t");
  /// Upper bound on concurrently served thread ids.
  static constexpr int kMaxThreads = 256;

  Workspace() = default;
  ~Workspace();
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns the calling thread's scratch slab, at least `bytes` large.
  /// Grows the slab if needed (geometric, so amortized allocation-free);
  /// contents are uninitialized. Safe to call concurrently from different
  /// threads — each thread id owns a distinct slab.
  std::span<std::byte> thread_scratch_bytes(std::size_t bytes);

  /// Typed view of the calling thread's slab: `count` elements of T.
  template <typename T>
  std::span<T> thread_scratch(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      std::is_trivially_default_constructible_v<T>,
                  "workspace scratch holds raw POD data only");
    static_assert(alignof(T) <= kAlignment, "over-aligned scratch type");
    auto raw = thread_scratch_bytes(count * sizeof(T));
    return {reinterpret_cast<T*>(raw.data()), count};
  }

  /// Pre-grows the slabs of thread ids [0, threads) to `bytes_per_thread`
  /// so the first compute() call is already allocation-free. Must be called
  /// outside parallel regions (it touches other threads' slabs).
  void reserve(int threads, std::size_t bytes_per_thread);

  /// Caps the total bytes this arena may hold across all slabs (0 =
  /// unlimited, the default). A growth that would push allocated_bytes()
  /// past the budget throws mdcp::budget_error *before* allocating, leaving
  /// the arena unchanged — callers (the AutoEngine degradation chain) can
  /// catch it and fall back to a cheaper engine. Set outside parallel
  /// regions.
  void set_budget_bytes(std::size_t bytes) noexcept {
    budget_bytes_.store(bytes, std::memory_order_relaxed);
  }
  std::size_t budget_bytes() const noexcept {
    return budget_bytes_.load(std::memory_order_relaxed);
  }

  /// Bytes currently allocated across all slabs.
  std::size_t allocated_bytes() const noexcept {
    return total_bytes_.load(std::memory_order_relaxed);
  }

  /// Largest allocated_bytes() observed since construction / reset_peak().
  std::size_t peak_bytes() const noexcept {
    return peak_bytes_.load(std::memory_order_relaxed);
  }

  /// Resets the high-water mark to the current allocation (used to attribute
  /// scratch peaks to one engine when a workspace is shared).
  void reset_peak() noexcept {
    peak_bytes_.store(allocated_bytes(), std::memory_order_relaxed);
  }

  /// Capacity of thread `tid`'s slab in bytes. Slabs only grow, so this is
  /// that thread's scratch high-water mark since construction (or the last
  /// release()). Read outside parallel regions — slab growth is not
  /// synchronized with this accessor.
  std::size_t thread_slab_bytes(int tid) const noexcept {
    return (tid >= 0 && tid < kMaxThreads) ? slabs_[tid].capacity : 0;
  }

  /// Frees every slab. Outstanding spans are invalidated; must be called
  /// outside parallel regions.
  void release() noexcept;

 private:
  struct Slab {
    std::byte* data = nullptr;
    std::size_t capacity = 0;
  };

  void grow(Slab& slab, std::size_t bytes);

  Slab slabs_[kMaxThreads];
  std::atomic<std::size_t> total_bytes_{0};
  std::atomic<std::size_t> peak_bytes_{0};
  std::atomic<std::size_t> budget_bytes_{0};
};

/// Process-wide default arena used when a KernelContext names no workspace.
Workspace& default_workspace();

/// Caller-side override for the parallel schedule of MTTKRP kernels.
/// kAuto lets each engine's heuristic pick per mode (skew × threads ×
/// output size; see sched/schedule.hpp); the forced modes pin one schedule
/// for benchmarking, testing, and strategy-layer control. Kernels whose
/// outputs are never shared between tiles (pure scatter copies, independent
/// columns) ignore a kPrivatized request — there is nothing to privatize.
enum class ScheduleMode : std::uint8_t {
  kAuto = 0,
  kOwner = 1,       ///< owner-computes: whole-group tiles, race-free
  kPrivatized = 2,  ///< split tiles + per-thread partial outputs
};

/// Uniform per-engine counters recorded by the MttkrpEngine base class:
/// wall-clock split into the symbolic (prepare) and numeric (compute)
/// phases, call counts, approximate numeric flops, and the scratch
/// high-water mark of the engine's workspace.
struct KernelStats {
  double symbolic_seconds = 0;
  double numeric_seconds = 0;
  std::uint64_t prepare_calls = 0;
  std::uint64_t compute_calls = 0;
  std::uint64_t flops = 0;  ///< approximate; engines report mul+add counts
  std::size_t peak_scratch_bytes = 0;

  // Parallel-schedule telemetry (see sched/schedule.hpp). A "launch" is one
  // scheduled parallel kernel region; engines with multiple phases (or
  // memoized node chains) may launch several times per compute().
  std::uint64_t owner_launches = 0;
  std::uint64_t privatized_launches = 0;
  /// sched::Schedule of the most recent launch (255 = none yet).
  std::uint8_t last_schedule = 255;
  int last_tiles = 0;
  /// Static string naming why the last schedule was chosen ("skewed",
  /// "single-thread", "forced-owner", ...).
  const char* last_sched_reason = "";

  // Microkernel telemetry (see mttkrp/microkernel.hpp): the R-tile width the
  // rank-blocked dispatcher selected for the most recent compute() (32, 16,
  // or 8; 0 = scalar remainder only, i.e. R < 8 or no rank-blocked loop).
  std::uint32_t last_tile = 0;

  // Plan-provenance telemetry: how the last prepared plan was chosen.
  // "model" = analytic cost-model ranking, "history" = measured-best
  // override from the run-history store (see obs/history.hpp), "" = the
  // engine is not model-driven (fixed engines never set it).
  const char* plan_source = "";

  // Fault-tolerance telemetry: engine fallbacks taken by the degradation
  // chain when a predicted or actual allocation exceeded the memory budget
  // (see model/tuner.hpp).
  std::uint64_t degradations = 0;
  /// Static string naming why the last degradation fired
  /// ("predicted-over-budget", "budget-exceeded", "alloc-failure"; "" =
  /// none).
  const char* last_degradation_reason = "";

  /// Field-wise delta against an earlier snapshot of the same stats object
  /// (peaks are carried over, not subtracted). Used to attribute one CP-ALS
  /// run's share of a long-lived engine's counters.
  KernelStats since(const KernelStats& baseline) const noexcept {
    KernelStats d;
    d.symbolic_seconds = symbolic_seconds - baseline.symbolic_seconds;
    d.numeric_seconds = numeric_seconds - baseline.numeric_seconds;
    d.prepare_calls = prepare_calls - baseline.prepare_calls;
    d.compute_calls = compute_calls - baseline.compute_calls;
    d.flops = flops - baseline.flops;
    d.peak_scratch_bytes = peak_scratch_bytes;
    d.owner_launches = owner_launches - baseline.owner_launches;
    d.privatized_launches = privatized_launches - baseline.privatized_launches;
    d.last_schedule = last_schedule;
    d.last_tiles = last_tiles;
    d.last_sched_reason = last_sched_reason;
    d.last_tile = last_tile;
    d.plan_source = plan_source;
    d.degradations = degradations - baseline.degradations;
    d.last_degradation_reason = last_degradation_reason;
    return d;
  }
};

/// Execution context injected into every engine: where scratch comes from,
/// how many threads kernels may use, and (optionally) where counters are
/// mirrored. Copyable by design — engines hold it by value.
struct KernelContext {
  Workspace* workspace = nullptr;  ///< null = default_workspace()
  int threads = 0;                 ///< 0 = the library-wide thread setting
  KernelStats* stats = nullptr;    ///< optional shared sink (e.g. per bench)
  /// Parallel-schedule override consulted by every engine's numeric phase
  /// (kAuto = per-mode heuristic). The strategy layer and benchmarks use
  /// this to pin owner-computes or privatized-reduction execution.
  ScheduleMode sched = ScheduleMode::kAuto;
  /// Memory budget in bytes for this execution (0 = unlimited). prepare()
  /// installs it as the workspace arena budget (over-budget scratch growth
  /// throws mdcp::budget_error), the cost model skips strategies predicted
  /// to exceed it, and the AutoEngine walks its degradation chain
  /// (dtree → alto → csf → coo) on a predicted or actual
  /// violation.
  std::size_t mem_budget = 0;
  /// Cooperative cancellation flag (null = never cancelled). Checked by the
  /// CP-ALS driver between modes and iterations; set by the watchdog's
  /// `cancel` policy and by `mdcp_cli --timeout-s`. Kernels never poll it
  /// mid-compute — cancellation lands at the next mode boundary.
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace mdcp
