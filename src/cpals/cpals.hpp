// CP-ALS: alternating least squares for sparse CP decomposition, with a
// pluggable MTTKRP engine.
//
// The driver implements the standard ALS sweep: for each mode n, compute the
// MTTKRP M^(n), form H^(n) = ∘_{i≠n} U^(i)ᵀU^(i), solve U^(n) = M^(n)·H⁺,
// column-normalize into λ, refresh the Gram matrix, and notify the engine
// that U^(n) changed. Convergence is monitored with the O(I·R) fit identity
// — the dense reconstruction is never formed.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "cpals/kruskal.hpp"
#include "mttkrp/engine.hpp"
#include "obs/watchdog.hpp"
#include "tensor/coo_tensor.hpp"

namespace mdcp {

namespace obs {
class HistoryStore;
class RunReporter;
}  // namespace obs

struct CpAlsOptions {
  index_t rank = 16;
  int max_iterations = 50;
  real_t tolerance = 1e-5;   ///< stop when |fit − prev_fit| < tolerance
  /// Tikhonov/ridge term added to the normal-equations diagonal
  /// (H + ridge·I). Stabilizes ill-conditioned updates when components
  /// become collinear; 0 disables.
  real_t ridge = 0;
  std::uint64_t seed = 42;   ///< factor initialization seed
  /// MTTKRP engine, by EngineRegistry name (mttkrp/registry.hpp): "coo",
  /// "csf", "dtree-bdt", "auto" (model-driven strategy choice), ...
  std::string engine_name = "dtree-bdt";
  /// Memory budget of the run (0 = unlimited): the workspace arena enforces
  /// it for every engine, and the auto engines also plan their degradation
  /// chain against it.
  std::size_t memory_budget_bytes = 0;
  /// Projected nonnegative ALS: clamp each factor update at zero before
  /// normalization (multilinear NMF-style decompositions for count data).
  bool nonnegative = false;
  /// Numerical-recovery budget: when a factor update or the fit turns
  /// non-finite (overflow, poisoned kernel output, NaN Gram matrix), the
  /// offending factor is re-randomized from the run's RNG and the sweep
  /// continues. After this many recoveries in one run a typed
  /// mdcp::numeric_error is raised instead. 0 disables recovery (the first
  /// non-finite update throws).
  int max_recoveries = 5;
  bool verbose = false;
  /// Optional JSONL run reporter: when set, cp_als appends one "iteration"
  /// record per ALS iteration (fit, fit delta, per-mode MTTKRP seconds,
  /// phase split, kernel-stats and memo hit/miss deltas) and one "summary"
  /// record at the end. The caller owns the reporter (and typically writes
  /// the provenance header first); see obs/report.hpp.
  obs::RunReporter* reporter = nullptr;
  /// Optional cross-run history store (see obs/history.hpp). When set, the
  /// model-driven engines (auto / auto+probe) consult the measured-best
  /// plan for this tensor before trusting the analytic ranking, and the
  /// run's outcome is recorded back so later runs warm-start. The caller
  /// owns the store.
  obs::HistoryStore* history = nullptr;
  /// Master switch for the empirical overlay (the CLI's --no-history).
  /// Recording the outcome into `history` still happens when off.
  bool use_history = true;
  /// Warm-start threshold: trust-weighted observations a strategy needs
  /// before history may override the model (same build/machine runs weigh
  /// 1 each; see obs::TrustPolicy).
  double history_min_weight = 1.0;
  /// Cooperative cancellation flag (null = never cancelled). Checked between
  /// modes and iterations; when it flips, the run stops cleanly with
  /// result.cancelled = true and a "cancelled":true summary record instead
  /// of a hard abort. Set by `mdcp_cli --timeout-s` and by the watchdog's
  /// cancel policy.
  std::atomic<bool>* cancel = nullptr;
  /// Opt-in stall watchdog for this run (deadline_seconds <= 0 = off, the
  /// default). cp_als starts the monitor thread for the duration of the run;
  /// under the kCancel policy with no explicit `cancel` target it is wired
  /// to a run-local flag automatically. See obs/watchdog.hpp.
  obs::WatchdogOptions watchdog;
};

struct CpAlsResult {
  KruskalTensor model;
  std::vector<real_t> fits;  ///< fit after each iteration
  int iterations = 0;
  bool converged = false;
  std::string engine_name;

  // Per-phase wall-clock dissection (seconds over all iterations).
  double mttkrp_seconds = 0;
  double dense_seconds = 0;  ///< Gram/Hadamard/solve/normalize
  double fit_seconds = 0;
  double total_seconds = 0;
  /// MTTKRP seconds per mode, summed over all iterations (one entry per
  /// tensor mode). Exposes the asymmetric per-mode cost the memoized
  /// engines exploit.
  std::vector<double> mttkrp_mode_seconds;

  // Numerical-recovery telemetry (see CpAlsOptions::max_recoveries and
  // la/cholesky.hpp SolveInfo).
  int recoveries = 0;             ///< factor re-randomizations taken
  int ridge_retries = 0;          ///< escalating-λ Cholesky retries, all solves
  int pseudo_inverse_solves = 0;  ///< solves that fell through to M·H⁺

  /// Engine-side counters for this run only (symbolic/numeric split, flops,
  /// peak workspace scratch) — the delta of the engine's KernelStats. Engine
  /// fallbacks taken under a memory budget appear in
  /// kernel_stats.degradations.
  KernelStats kernel_stats;

  /// Peak auxiliary memory of the engine (index structures + memoized value
  /// matrices, excluding workspace scratch) observed during the run.
  std::size_t engine_peak_memory_bytes = 0;

  // Tuner prediction for the chosen strategy when the engine was
  // model-driven (auto / auto+probe); zeros for fixed engines. The measured
  // counterparts are mttkrp_seconds / iterations and
  // engine_peak_memory_bytes, which makes the paper's model-accuracy
  // experiment reproducible from any ordinary run.
  double predicted_seconds_per_iteration = 0;
  std::size_t predicted_memory_bytes = 0;

  /// How the executed plan was chosen: "model" (analytic ranking),
  /// "history" (measured-best override), or "fixed" (the engine was not
  /// model-driven). Mirrored into the JSONL summary record.
  std::string plan_source;

  /// True when the run stopped at a cooperative-cancellation check (timeout,
  /// watchdog cancel policy, or a caller-set CpAlsOptions::cancel flag). The
  /// factors reflect the last completed update; converged stays false.
  bool cancelled = false;
  /// Watchdog telemetry for this run (meaningful only when
  /// CpAlsOptions::watchdog armed one).
  bool watchdog_fired = false;
  std::string watchdog_dump_path;

  real_t final_fit() const { return fits.empty() ? 0 : fits.back(); }
};

/// Runs CP-ALS with an engine created according to `options.engine_name`.
CpAlsResult cp_als(const CooTensor& tensor, const CpAlsOptions& options);

/// Runs CP-ALS with a caller-provided engine (reused across calls — the
/// amortized-symbolic-cost usage pattern). The engine's memoized state is
/// reset at entry.
CpAlsResult cp_als(const CooTensor& tensor, MttkrpEngine& engine,
                   const CpAlsOptions& options);

/// Multi-restart CP-ALS: runs `num_starts` times with distinct
/// initializations derived from options.seed and returns the run with the
/// best final fit. ALS is sensitive to initialization (local minima /
/// swamps); restarts are the standard mitigation, and they reuse one engine
/// so the symbolic preprocessing is paid once.
CpAlsResult cp_als_best_of(const CooTensor& tensor,
                           const CpAlsOptions& options, int num_starts);

}  // namespace mdcp
