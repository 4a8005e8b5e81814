#include "cpals/cpals.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "model/tuner.hpp"
#include "mttkrp/registry.hpp"
#include "obs/flightrec.hpp"
#include "obs/history.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {

// Single construction path for the engine named in the options. The memory
// budget rides in through the context, so fixed engines get arena
// enforcement (typed budget_error) and the auto engines additionally plan
// their degradation chain; the auto engines also get the empirical-overlay
// knobs. Engines are created *unprepared*: cp_als prepares lazily, which
// keeps prepare-time degradation events inside the run's reporting window.
std::unique_ptr<MttkrpEngine> make_options_engine(const CpAlsOptions& options) {
  KernelContext ctx;
  ctx.mem_budget = options.memory_budget_bytes;
  const std::string& name = options.engine_name;
  if (name != "auto" && name != "auto+probe") return make_engine(name, ctx);
  TunerOptions tuner;
  tuner.use_history = options.use_history && options.history != nullptr;
  tuner.history = options.history;
  tuner.trust.min_weight = options.history_min_weight;
  return std::make_unique<AutoEngine>(name == "auto+probe",
                                      options.memory_budget_bytes,
                                      CostModelParams{}, 3, ctx, tuner);
}

}  // namespace

CpAlsResult cp_als(const CooTensor& tensor, const CpAlsOptions& options) {
  const auto engine = make_options_engine(options);
  return cp_als(tensor, *engine, options);
}

CpAlsResult cp_als_best_of(const CooTensor& tensor,
                           const CpAlsOptions& options, int num_starts) {
  MDCP_CHECK_MSG(num_starts > 0, "need at least one start");
  const auto engine = make_options_engine(options);
  CpAlsResult best;
  for (int s = 0; s < num_starts; ++s) {
    CpAlsOptions opt = options;
    opt.seed = splitmix64(options.seed + static_cast<std::uint64_t>(s));
    CpAlsResult run = cp_als(tensor, *engine, opt);
    if (s == 0 || run.final_fit() > best.final_fit()) best = std::move(run);
  }
  return best;
}

namespace {

// Scoped crash-forensics registrations: the engine's KernelStats and (when
// reporting) the pre-formatted `aborted` summary become reachable from the
// watchdog dump and the signal handlers only while a run is actually in
// flight.
struct CrashScopeGuard {
  bool report_attached = false;
  ~CrashScopeGuard() {
    obs::crash_set_kernel_stats(nullptr);
    if (report_attached) obs::crash_detach_report();
  }
};

void append_kernel_stats(obs::JsonWriter& w, const KernelStats& s) {
  w.key("kernel")
      .begin_object()
      .kv("symbolic_seconds", s.symbolic_seconds)
      .kv("numeric_seconds", s.numeric_seconds)
      .kv("prepare_calls", s.prepare_calls)
      .kv("compute_calls", s.compute_calls)
      .kv("flops", s.flops)
      .kv("peak_scratch_bytes", static_cast<std::uint64_t>(s.peak_scratch_bytes))
      .kv("degradations", s.degradations)
      .end_object();
}

}  // namespace

CpAlsResult cp_als(const CooTensor& tensor, MttkrpEngine& engine,
                   const CpAlsOptions& options) {
  MDCP_CHECK_MSG(options.rank > 0, "rank must be positive");
  MDCP_CHECK_MSG(options.max_iterations > 0, "need at least one iteration");
  const mode_t order = tensor.order();
  const index_t rank = options.rank;

  MDCP_TRACE_SPAN("cpals.run", "rank", static_cast<std::int64_t>(rank));

  // Degradation-event cursor taken before prepare() so chain fallbacks made
  // at prepare time ("predicted-over-budget") are reported with this run.
  const auto* auto_engine = dynamic_cast<const AutoEngine*>(&engine);
  const std::size_t degradations_before =
      auto_engine != nullptr ? auto_engine->degradation_events().size() : 0;

  // Stats snapshot taken before the (possibly lazy) prepare so prepare-time
  // work — symbolic seconds and predicted-over-budget degradations — is
  // attributed to this run.
  const KernelStats stats_before = engine.stats();
  engine.invalidate_all();
  if (!engine.prepared()) engine.prepare(tensor, rank);

  CpAlsResult result;
  result.engine_name = engine.name();
  result.mttkrp_mode_seconds.assign(order, 0.0);

  // --- Liveness + crash forensics for this run. ---------------------------
  // The engine's stats become reachable from crash dumps, and (when
  // reporting) a pre-formatted `aborted` summary is registered so a signal
  // handler can promote the in-flight `.tmp` report into one the history
  // store ingests. Both registrations are scoped to the run by the guard.
  std::atomic<bool> local_cancel{false};
  CrashScopeGuard crash_scope;
  obs::crash_set_kernel_stats(&engine.stats());
  if (options.reporter != nullptr && options.reporter->ok()) {
    const char* plan_src = engine.stats().plan_source;
    obs::JsonWriter w;
    w.begin_object()
        .kv("type", "summary")
        .kv("schema", obs::kReportSchema)
        .kv("engine", result.engine_name)
        .kv("rank", static_cast<std::uint64_t>(rank))
        .kv("plan_source",
            (plan_src != nullptr && plan_src[0] != '\0') ? plan_src : "fixed")
        .kv("iterations", 0)
        .kv("converged", false)
        .kv("cancelled", false)
        .kv("aborted", true)
        .end_object();
    obs::crash_attach_report(options.reporter->tmp_path(),
                             options.reporter->path(), w.str());
    crash_scope.report_attached = true;
  }
  std::unique_ptr<obs::Watchdog> watchdog;
  if (options.watchdog.deadline_seconds > 0) {
    obs::WatchdogOptions wd = options.watchdog;
    if (wd.policy == obs::WatchdogPolicy::kCancel && wd.cancel == nullptr)
      wd.cancel = options.cancel != nullptr ? options.cancel : &local_cancel;
    watchdog = std::make_unique<obs::Watchdog>(wd);
  }
  // Cooperative cancellation: caller flag, watchdog-wired run-local flag, or
  // a flag planted on the engine's KernelContext. Checked between modes and
  // iterations only — kernels never poll mid-compute.
  const auto cancel_requested = [&]() noexcept {
    return (options.cancel != nullptr &&
            options.cancel->load(std::memory_order_relaxed)) ||
           local_cancel.load(std::memory_order_relaxed) ||
           (engine.context().cancel != nullptr &&
            engine.context().cancel->load(std::memory_order_relaxed));
  };

  // Memo counter snapshots for per-iteration hit/miss deltas (global
  // registry counters; zero-delta for non-memoizing engines).
  auto& metrics = obs::MetricsRegistry::instance();
  obs::Counter& memo_hits = metrics.counter("dtree.memo_hits");
  obs::Counter& memo_misses = metrics.counter("dtree.memo_misses");

  // Per-mode MTTKRP latency distributions (one histogram per mode, looked up
  // once — record() inside the loop is lock-free).
  std::vector<obs::Histogram*> mode_latency;
  mode_latency.reserve(order);
  for (mode_t m = 0; m < order; ++m) {
    mode_latency.push_back(&metrics.histogram("cpals.mttkrp_seconds.mode" +
                                              std::to_string(m)));
  }

  WallTimer total_timer;
  PhaseTimer mttkrp_t, dense_t, fit_t;
  std::vector<double> iter_mode_seconds(order, 0.0);

  // Initialize factors Uniform(0,1) and precompute Gram matrices.
  Rng rng(options.seed);
  std::vector<Matrix> factors;
  factors.reserve(order);
  for (mode_t m = 0; m < order; ++m)
    factors.push_back(Matrix::random_uniform(tensor.dim(m), rank, rng));

  std::vector<Matrix> grams(order);
  for (mode_t m = 0; m < order; ++m) gram(factors[m], grams[m]);

  const real_t x_norm = tensor.norm();
  std::vector<real_t> lambda(rank, 1);
  Matrix mttkrp_out;
  Matrix h, h_inv;
  real_t prev_fit = 0;

  obs::Counter& recoveries_metric = metrics.counter("cpals.recoveries");
  // Bounded restart: re-randomize the offending factor and continue the
  // sweep. Throws numeric_error once the per-run budget is spent — a
  // persistently poisoned input must not loop forever.
  const auto recover_factor = [&](mode_t n, const char* why) {
    ++result.recoveries;
    if (result.recoveries > options.max_recoveries)
      throw numeric_error(std::string("cp-als: numerical recovery budget "
                                      "exhausted (last cause: ") +
                          why + ")");
    MDCP_TRACE_SPAN("cpals.recovery", "mode", static_cast<std::int64_t>(n));
    obs::fr_record(obs::FrEvent::kRecovery, obs::FrPhase::kSolve,
                   static_cast<std::int64_t>(n));
    recoveries_metric.add();
    if (options.verbose)
      std::printf("[cp-als] recovery %d: %s, re-randomizing factor %u\n",
                  result.recoveries, why, static_cast<unsigned>(n));
    factors[n] = Matrix::random_uniform(tensor.dim(n), rank, rng);
    column_normalize(factors[n]);
    std::fill(lambda.begin(), lambda.end(), real_t{1});
    gram(factors[n], grams[n]);
    engine.factor_updated(n);
  };

  bool cancelled = false;
  for (int it = 0; it < options.max_iterations; ++it) {
    MDCP_TRACE_SPAN("cpals.iteration", "iter", static_cast<std::int64_t>(it));
    obs::fr_record(obs::FrEvent::kIteration, obs::FrPhase::kIteration, it);
    obs::fr_beat(obs::FrPhase::kIteration, it);
    if (cancel_requested()) {
      obs::fr_record(obs::FrEvent::kCancel, obs::FrPhase::kIteration, it);
      cancelled = true;
      break;
    }
    if (fault::should_inject(fault::Site::kStall)) {
      obs::fr_record(
          obs::FrEvent::kStall, obs::FrPhase::kIteration,
          static_cast<std::int64_t>(
              fault::FaultPlan::instance().config(fault::Site::kStall)
                  .threshold));
      fault::inject_stall();
    }
    if (fault::should_inject(fault::Site::kSegv)) fault::inject_segv();
    const KernelStats iter_stats_before = engine.stats();
    const std::uint64_t iter_hits_before = memo_hits.value();
    const std::uint64_t iter_misses_before = memo_misses.value();

    for (mode_t n = 0; n < order; ++n) {
      if (n > 0 && cancel_requested()) {
        obs::fr_record(obs::FrEvent::kCancel, obs::FrPhase::kIteration, it,
                       static_cast<std::int64_t>(n));
        cancelled = true;
        break;
      }
      mttkrp_t.start();
      engine.compute(n, factors, mttkrp_out);
      mttkrp_t.stop();
      iter_mode_seconds[n] = mttkrp_t.last_seconds();
      result.mttkrp_mode_seconds[n] += mttkrp_t.last_seconds();
      mode_latency[n]->record(mttkrp_t.last_seconds());

      MDCP_TRACE_SPAN("cpals.solve", "mode", static_cast<std::int64_t>(n));
      obs::fr_beat(obs::FrPhase::kSolve, static_cast<std::int64_t>(n));
      dense_t.start();
      // H^(n) = ∘_{i≠n} Gram_i.
      h.resize(rank, rank, 1);
      for (mode_t i = 0; i < order; ++i) {
        if (i != n) hadamard_inplace(h, grams[i]);
      }
      if (options.ridge > 0) {
        for (index_t d = 0; d < rank; ++d) h(d, d) += options.ridge;
      }
      // H⁻¹ once on the R×R side (Cholesky, ridge or pseudo-inverse), then
      // two in-place sweeps over the I×R factor. mttkrp_out stays M: the fit
      // below reads it.
      bool update_ok = true;
      SolveInfo solve_info;
      try {
        h_inv = normal_equations_inverse(h, &solve_info);
      } catch (const numeric_error&) {
        // Non-finite Gram matrix: a poisoned upstream factor (or injected
        // kernel NaN) reached H. Regularization cannot repair it — restart
        // the factor instead.
        update_ok = false;
      }
      result.ridge_retries += solve_info.ridge_retries;
      if (solve_info.used_pseudo_inverse) ++result.pseudo_inverse_solves;
      // Guard the update itself: a NaN/Inf row (e.g. a poisoned MTTKRP
      // output pushed through the solve) must not survive into the Gram
      // matrices, where it would contaminate every later mode.
      if (update_ok)
        update_ok = factor_update(mttkrp_out, h_inv, options.nonnegative, rng,
                                  factors[n], lambda, grams[n])
                        .finite;
      if (!update_ok) recover_factor(n, "non-finite factor update");
      dense_t.stop();

      engine.factor_updated(n);
    }
    if (cancelled) break;

    // Fit from the last sub-iteration's MTTKRP (mode order-1): M^(n) does not
    // depend on U^(n), so it is still consistent with the updated factor.
    // ⟨X,M⟩ = Σ_r λ_r Σ_i U(i,r)·M(i,r); ‖M‖² = λᵀ(∘_n Gram_n)λ — both from
    // state already in hand, no factor copies.
    real_t fit = 0;
    {
      MDCP_TRACE_SPAN("cpals.fit");
      obs::fr_beat(obs::FrPhase::kFit, it);
      fit_t.start();
      real_t inner = 0;
      {
        const auto& u = factors[order - 1];
        for (index_t i = 0; i < u.rows(); ++i) {
          const auto urow = u.row(i);
          const auto mrow = mttkrp_out.row(i);
          for (index_t r = 0; r < rank; ++r)
            inner += lambda[r] * urow[r] * mrow[r];
        }
      }
      real_t m_norm_sq = 0;
      {
        Matrix acc(rank, rank, 1);
        for (mode_t i = 0; i < order; ++i) hadamard_inplace(acc, grams[i]);
        for (index_t r = 0; r < rank; ++r)
          for (index_t q = 0; q < rank; ++q)
            m_norm_sq += lambda[r] * lambda[q] * acc(r, q);
      }
      const real_t m_norm = std::sqrt(std::max<real_t>(m_norm_sq, 0));
      fit = fit_from_parts(x_norm, inner, m_norm);
      fit_t.stop();
    }

    // Fit guard: a non-finite fit means a poisoned value slipped past the
    // per-update checks (it can arrive through the cached MTTKRP output the
    // fit identity reuses). Restart the factor that fed it and report the
    // previous fit so convergence is neither declared nor corrupted.
    bool recovered_this_iter = false;
    if (!std::isfinite(fit)) {
      recover_factor(static_cast<mode_t>(order - 1), "non-finite fit");
      fit = prev_fit;
      recovered_this_iter = true;
    }

    result.fits.push_back(fit);
    result.iterations = it + 1;
    if (options.verbose) {
      std::printf("[cp-als %s] iter %3d fit %.6f\n", engine.name().c_str(),
                  it + 1, static_cast<double>(fit));
    }

    if (options.reporter != nullptr) {
      obs::JsonWriter w;
      w.begin_object()
          .kv("type", "iteration")
          .kv("schema", obs::kReportSchema)
          .kv("iter", it + 1)
          .kv("fit", static_cast<double>(fit))
          .kv("fit_delta", static_cast<double>(fit - prev_fit))
          .kv("mttkrp_seconds", mttkrp_t.total_seconds())
          .kv("dense_seconds", dense_t.total_seconds())
          .kv("fit_seconds", fit_t.total_seconds());
      w.key("mttkrp_mode_seconds").begin_array();
      for (mode_t n = 0; n < order; ++n) w.value(iter_mode_seconds[n]);
      w.end_array();
      w.kv("memo_hits", memo_hits.value() - iter_hits_before)
          .kv("memo_misses", memo_misses.value() - iter_misses_before)
          .kv("recoveries", result.recoveries);
      append_kernel_stats(w, engine.stats().since(iter_stats_before));
      w.end_object();
      options.reporter->write_line(w.str());
    }

    if (!recovered_this_iter && it > 0 &&
        std::abs(fit - prev_fit) < options.tolerance) {
      result.converged = true;
      prev_fit = fit;
      break;
    }
    prev_fit = fit;
  }

  obs::fr_beat(obs::FrPhase::kShutdown);
  if (watchdog != nullptr) {
    watchdog->stop();
    result.watchdog_fired = watchdog->fired();
    result.watchdog_dump_path = watchdog->dump_path();
  }
  result.cancelled = cancelled;

  result.model.weights = std::move(lambda);
  result.model.factors = std::move(factors);
  result.mttkrp_seconds = mttkrp_t.total_seconds();
  result.dense_seconds = dense_t.total_seconds();
  result.fit_seconds = fit_t.total_seconds();
  result.total_seconds = total_timer.seconds();
  // KernelStats::since is a field-wise delta EXCEPT peak_scratch_bytes: a
  // workspace high-water mark cannot be subtracted, so the peak is carried
  // over as-is. With an engine reused across runs this peak may therefore
  // predate this run (it is a process-lifetime bound, not a per-run one).
  result.kernel_stats = engine.stats().since(stats_before);
  result.engine_peak_memory_bytes = engine.peak_memory_bytes();
  // Fixed engines never set KernelStats::plan_source — there was no plan to
  // choose. Spell that "fixed" so report consumers can tell it apart from a
  // model-driven run that predates the field.
  result.plan_source = (result.kernel_stats.plan_source != nullptr &&
                        result.kernel_stats.plan_source[0] != '\0')
                           ? result.kernel_stats.plan_source
                           : "fixed";

  if (auto_engine != nullptr) {
    const auto& prediction = auto_engine->report().winner().prediction;
    result.predicted_seconds_per_iteration = prediction.seconds_per_iteration;
    result.predicted_memory_bytes = prediction.total_memory_bytes();
    // Close the model-accuracy loop: measured counterparts of the tuner's
    // prediction, exported so every auto run doubles as a model-error
    // sample (cf. bench_model).
    if (result.iterations > 0) {
      const double measured =
          result.mttkrp_seconds / static_cast<double>(result.iterations);
      metrics.gauge("tuner.measured_seconds_per_iter").set(measured);
      if (measured > 0) {
        metrics.gauge("tuner.time_error_ratio")
            .set(result.predicted_seconds_per_iteration / measured);
      }
      metrics.gauge("tuner.measured_memory_bytes")
          .set(static_cast<double>(result.engine_peak_memory_bytes));
      if (result.engine_peak_memory_bytes > 0) {
        metrics.gauge("tuner.memory_error_ratio")
            .set(static_cast<double>(result.predicted_memory_bytes) /
                 static_cast<double>(result.engine_peak_memory_bytes));
      }
    }
  }

  if (options.reporter != nullptr && auto_engine != nullptr) {
    // One "degradation" record per engine fallback taken during this run
    // (including prepare-time skips), ahead of the summary so downstream
    // consumers see causes before outcomes.
    const auto& events = auto_engine->degradation_events();
    for (std::size_t i = degradations_before; i < events.size(); ++i) {
      const DegradationEvent& ev = events[i];
      obs::JsonWriter w;
      w.begin_object()
          .kv("type", "degradation")
          .kv("schema", obs::kReportSchema)
          .kv("from", ev.from)
          .kv("to", ev.to)
          .kv("reason", ev.reason)
          .kv("predicted_bytes", static_cast<std::uint64_t>(ev.predicted_bytes))
          .kv("budget_bytes", static_cast<std::uint64_t>(ev.budget_bytes))
          .kv("at_prepare", ev.at_prepare)
          .end_object();
      options.reporter->write_line(w.str());
    }
  }

  if (options.reporter != nullptr) {
    obs::JsonWriter w;
    w.begin_object()
        .kv("type", "summary")
        .kv("schema", obs::kReportSchema)
        .kv("engine", result.engine_name)
        .kv("rank", static_cast<std::uint64_t>(rank))
        .kv("plan_source", result.plan_source)
        .kv("iterations", result.iterations)
        .kv("converged", result.converged)
        .kv("cancelled", result.cancelled)
        .kv("aborted", false)
        .kv("watchdog_fired", result.watchdog_fired)
        .kv("final_fit", static_cast<double>(result.final_fit()))
        .kv("total_seconds", result.total_seconds)
        .kv("mttkrp_seconds", result.mttkrp_seconds)
        .kv("dense_seconds", result.dense_seconds)
        .kv("fit_seconds", result.fit_seconds);
    w.key("mttkrp_mode_seconds").begin_array();
    for (mode_t n = 0; n < order; ++n) w.value(result.mttkrp_mode_seconds[n]);
    w.end_array();
    // Per-mode latency distribution of the process-lifetime histograms
    // (log-bucketed, ~19% quantile error; see obs/metrics.hpp). These span
    // every run in this process, not just this one.
    w.key("mttkrp_mode_quantiles").begin_array();
    for (mode_t n = 0; n < order; ++n) {
      w.begin_object()
          .kv("p50", mode_latency[n]->p50())
          .kv("p95", mode_latency[n]->p95())
          .kv("p99", mode_latency[n]->p99())
          .end_object();
    }
    w.end_array();
    append_kernel_stats(w, result.kernel_stats);
    w.kv("recoveries", result.recoveries)
        .kv("ridge_retries", result.ridge_retries)
        .kv("pseudo_inverse_solves", result.pseudo_inverse_solves);
    w.kv("engine_peak_memory_bytes",
         static_cast<std::uint64_t>(result.engine_peak_memory_bytes))
        .kv("predicted_seconds_per_iteration",
            result.predicted_seconds_per_iteration)
        .kv("predicted_memory_bytes",
            static_cast<std::uint64_t>(result.predicted_memory_bytes))
        .kv("memo_hits_total", memo_hits.value())
        .kv("memo_misses_total", memo_misses.value());
    w.key("workspace_thread_peak_bytes").begin_array();
    const Workspace& ws = engine.workspace();
    for (int tid = 0; tid < Workspace::kMaxThreads; ++tid) {
      const std::size_t bytes = ws.thread_slab_bytes(tid);
      if (bytes == 0) break;  // slabs are claimed densely from tid 0
      w.value(static_cast<std::uint64_t>(bytes));
    }
    w.end_array().end_object();
    options.reporter->write_line(w.str());
  }

  // Feed the outcome back into the history store so repeat runs in this
  // process warm-start without re-reading the report directory. Mirrors the
  // observation the ingester would extract from this run's report.
  if (options.history != nullptr && result.iterations > 0) {
    obs::RunObservation o;
    o.fingerprint = obs::tensor_fingerprint(tensor);
    o.engine_label = result.engine_name;
    o.strategy = obs::strategy_from_engine_label(result.engine_name);
    o.rank = static_cast<std::uint32_t>(rank);
    o.threads = engine.context().threads;
    o.build_id = obs::HistoryStore::current_build_id();
    o.machine_id = obs::HistoryStore::current_machine_id();
    o.iterations = result.iterations;
    const double iters = static_cast<double>(result.iterations);
    o.seconds_per_iteration = result.mttkrp_seconds / iters;
    o.mode_seconds.reserve(order);
    for (mode_t n = 0; n < order; ++n)
      o.mode_seconds.push_back(result.mttkrp_mode_seconds[n] / iters);
    if (o.seconds_per_iteration > 0)
      o.time_error_ratio =
          result.predicted_seconds_per_iteration / o.seconds_per_iteration;
    o.final_fit = static_cast<double>(result.final_fit());
    o.plan_source = result.plan_source;
    options.history->record(std::move(o));
  }
  return result;
}

}  // namespace mdcp
