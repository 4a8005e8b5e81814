#include "model/tuner.hpp"

#include <algorithm>
#include <new>
#include <sstream>
#include <string_view>

#include "mttkrp/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {

// Publishes the tuner's decision so a later measured run can be compared
// against the prediction (cp_als fills in the measured side and the error
// ratios; see "tuner.*" gauges in docs/observability.md).
void record_selection(const TunerReport& report) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("tuner.selections").add();
  const auto& win = report.winner();
  reg.gauge("tuner.predicted_seconds_per_iter")
      .set(win.prediction.seconds_per_iteration);
  reg.gauge("tuner.predicted_memory_bytes")
      .set(static_cast<double>(win.prediction.total_memory_bytes()));
}

// The empirical overlay: once the history store holds enough trusted
// measurements of a strategy for this exact (tensor fingerprint, rank),
// prefer the measured winner over the analytic ranking. Only budget-feasible
// candidates are eligible — a measured-fast plan that no longer fits the
// budget must not resurrect itself. Returns true when the override fired.
bool apply_history_overlay(const CooTensor& tensor, index_t rank,
                           TunerReport& report, const TunerOptions& options) {
  if (!options.use_history || options.history == nullptr ||
      options.history->empty())
    return false;
  auto& reg = obs::MetricsRegistry::instance();
  const std::uint64_t fp = obs::tensor_fingerprint(tensor);
  const auto best = options.history->measured_best(
      fp, static_cast<std::uint32_t>(rank), options.trust);
  if (best) {
    for (std::size_t i = 0; i < report.ranked.size(); ++i) {
      if (report.ranked[i].fits_budget &&
          report.ranked[i].strategy.name == best->strategy) {
        MDCP_TRACE_SPAN("tuner.history", "candidate",
                        static_cast<std::int64_t>(i));
        report.chosen = i;
        report.plan_source = "history";
        reg.counter("tuner.history_hits").add();
        reg.gauge("tuner.history_weight").set(best->weight);
        return true;
      }
    }
  }
  reg.counter("tuner.history_misses").add();
  return false;
}

}  // namespace

TunerReport select_strategy(const CooTensor& tensor, index_t rank,
                            std::size_t memory_budget_bytes,
                            const CostModelParams& params,
                            const TunerOptions& options,
                            ProjectionCounter* counter) {
  MDCP_CHECK(rank > 0);
  MDCP_TRACE_SPAN("tuner.select", "rank", static_cast<std::int64_t>(rank));
  ProjectionCounter local(tensor);
  if (counter == nullptr) counter = &local;
  TunerReport report;
  for (auto& strat : enumerate_strategies(tensor, counter)) {
    RankedStrategy rs;
    rs.prediction =
        predict_strategy(tensor, strat.spec, rank, *counter, params);
    rs.fits_budget = memory_budget_bytes == 0 ||
                     rs.prediction.total_memory_bytes() <= memory_budget_bytes;
    rs.strategy = std::move(strat);
    report.ranked.push_back(std::move(rs));
  }
  std::stable_sort(report.ranked.begin(), report.ranked.end(),
                   [](const RankedStrategy& a, const RankedStrategy& b) {
                     return a.prediction.seconds_per_iteration <
                            b.prediction.seconds_per_iteration;
                   });

  // First (fastest) strategy that fits the budget; if none fit, fall back to
  // the minimum-memory one.
  report.chosen = report.ranked.size();
  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    if (report.ranked[i].fits_budget) {
      report.chosen = i;
      break;
    }
  }
  if (report.chosen == report.ranked.size()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < report.ranked.size(); ++i) {
      if (report.ranked[i].prediction.total_memory_bytes() <
          report.ranked[best].prediction.total_memory_bytes())
        best = i;
    }
    report.chosen = best;
  }
  apply_history_overlay(tensor, rank, report, options);
  record_selection(report);
  return report;
}

TunerReport select_strategy_probed(const CooTensor& tensor, index_t rank,
                                   std::size_t memory_budget_bytes,
                                   const CostModelParams& params,
                                   int shortlist, KernelContext ctx,
                                   const TunerOptions& options,
                                   ProjectionCounter* counter) {
  MDCP_CHECK(shortlist > 0);
  TunerReport report = select_strategy(tensor, rank, memory_budget_bytes,
                                       params, options, counter);
  const std::size_t history_choice =
      std::string_view(report.plan_source) == "history" ? report.chosen
                                                        : report.ranked.size();

  // Probe inputs: fixed-seed factors (probe time, not output, depends on
  // them) shared by all candidates.
  Rng rng(0xbeefULL);
  std::vector<Matrix> factors;
  for (mode_t m = 0; m < tensor.order(); ++m)
    factors.push_back(Matrix::random_uniform(tensor.dim(m), rank, rng));

  // Probe sweeps are tuning overhead, not kernel work: they stay out of the
  // caller's stats sink. Inside the auto engine's prepare() they run in its
  // frame, so they count no calls there either.
  ctx.stats = nullptr;
  double best_time = -1;
  std::size_t best_idx = report.chosen;
  int probed = 0;
  for (std::size_t i = 0; i < report.ranked.size(); ++i) {
    if (!report.ranked[i].fits_budget) continue;
    // A history override outside the model's shortlist is still probed: the
    // measured winner must defend its title against the shortlist, and the
    // shortlist must beat it on the clock to take the plan back.
    if (probed >= shortlist && i != history_choice) continue;
    ++probed;
    MDCP_TRACE_SPAN("tuner.probe", "candidate",
                    static_cast<std::int64_t>(i));
    try {
      DTreeMttkrpEngine engine(report.ranked[i].strategy.spec,
                               report.ranked[i].strategy.name, ctx);
      engine.prepare(tensor, rank);
      Matrix out;
      // One warm sweep, then the minimum of two timed sweeps (the minimum is
      // the least-noisy estimator of intrinsic cost on a shared host).
      double candidate = -1;
      for (int pass = 0; pass < 3; ++pass) {
        WallTimer t;
        for (mode_t m = 0; m < tensor.order(); ++m) {
          engine.compute(m, factors, out);
          engine.factor_updated(m);
        }
        const double secs = t.seconds();
        if (pass > 0 && (candidate < 0 || secs < candidate)) candidate = secs;
      }
      if (best_time < 0 || candidate < best_time) {
        best_time = candidate;
        best_idx = i;
      }
    } catch (const budget_error&) {
      // The model under-estimated this candidate's scratch: it tripped the
      // arena budget mid-probe. Demote it so selection cannot pick it.
      report.ranked[i].fits_budget = false;
    } catch (const std::bad_alloc&) {
      report.ranked[i].fits_budget = false;
    }
  }
  report.chosen = best_idx;
  if (!report.ranked[report.chosen].fits_budget) {
    // The probed winner (or its fallback) got demoted — re-run the static
    // selection rule over the updated feasibility flags.
    report.chosen = report.ranked.size();
    for (std::size_t i = 0; i < report.ranked.size(); ++i) {
      if (report.ranked[i].fits_budget) {
        report.chosen = i;
        break;
      }
    }
    if (report.chosen == report.ranked.size()) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < report.ranked.size(); ++i) {
        if (report.ranked[i].prediction.total_memory_bytes() <
            report.ranked[best].prediction.total_memory_bytes())
          best = i;
      }
      report.chosen = best;
    }
  }
  // The override only survives if probing kept the history pick on top.
  report.plan_source = report.chosen == history_choice ? "history" : "model";
  record_selection(report);  // re-publish: probing may move the winner
  return report;
}

AutoEngine::AutoEngine(bool probed, std::size_t memory_budget_bytes,
                       CostModelParams params, int shortlist, KernelContext ctx,
                       TunerOptions tuner_options)
    : MttkrpEngine(ctx),
      probed_(probed),
      memory_budget_bytes_(memory_budget_bytes),
      params_(params),
      shortlist_(shortlist),
      tuner_options_(std::move(tuner_options)) {}

void AutoEngine::do_prepare(index_t rank) {
  MDCP_CHECK_MSG(rank > 0,
                 "the auto engine needs a rank hint: prepare(tensor, rank)");
  // A budget may arrive through the constructor or through the context;
  // honor the tighter of the two.
  if (context().mem_budget != 0 &&
      (memory_budget_bytes_ == 0 || context().mem_budget < memory_budget_bytes_))
    memory_budget_bytes_ = context().mem_budget;
  if (memory_budget_bytes_ != 0)
    workspace().set_budget_bytes(memory_budget_bytes_);
  KernelContext inner_ctx = context();
  inner_ctx.mem_budget = memory_budget_bytes_;
  // Predict under the thread budget the kernels will actually run with, so
  // the privatization memory/flop terms participate in strategy ranking.
  if (params_.threads <= 1) params_.threads = effective_threads();
  // One counter for the tuner and the chain: the chain's footprints reuse
  // the subsets the tuner already counted.
  ProjectionCounter counter(tensor());
  report_ = probed_ ? select_strategy_probed(tensor(), rank,
                                             memory_budget_bytes_, params_,
                                             shortlist_, inner_ctx,
                                             tuner_options_, &counter)
                    : select_strategy(tensor(), rank, memory_budget_bytes_,
                                      params_, tuner_options_, &counter);
  record_plan_source(report_.plan_source);
  const auto& win = report_.winner();
  const char* prefix = probed_ ? "auto+probe:" : "auto:";

  // Plan the degradation chain: the dtree winner first, then (under a
  // budget) the fixed fallbacks in decreasing-speed order. Fallbacks whose
  // privatized-schedule envelope alone blows the budget are retried with
  // owner-computes pinned before being ruled out.
  chain_.clear();
  chain_pos_ = 0;
  ChainEntry head;
  head.engine = "";
  head.label = prefix + win.strategy.name;
  head.predicted_bytes = win.prediction.total_memory_bytes();
  head.fits_budget = win.fits_budget;
  chain_.push_back(std::move(head));

  if (memory_budget_bytes_ != 0) {
    for (const char* fallback : {"alto", "csf", "coo"}) {
      ChainEntry e;
      e.engine = fallback;
      e.label = std::string(prefix) + fallback;
      e.predicted_bytes = predict_engine_footprint(
          tensor(), fallback, rank, &counter, params_, ScheduleMode::kAuto);
      e.fits_budget = e.predicted_bytes <= memory_budget_bytes_;
      if (!e.fits_budget) {
        const std::size_t owner_bytes = predict_engine_footprint(
            tensor(), fallback, rank, &counter, params_, ScheduleMode::kOwner);
        if (owner_bytes <= memory_budget_bytes_) {
          e.predicted_bytes = owner_bytes;
          e.fits_budget = true;
          e.forced_sched = ScheduleMode::kOwner;
        }
      }
      chain_.push_back(std::move(e));
    }
  }
  projection_passes_ = counter.passes();

  // Start at the first level the model predicts in budget, recording every
  // skip. If no level fits, run the last (cheapest) one anyway — the arena
  // budget still backstops it at run time.
  while (chain_pos_ + 1 < chain_.size() && !chain_[chain_pos_].fits_budget) {
    note_degradation(chain_pos_, chain_pos_ + 1, "predicted-over-budget",
                     /*at_prepare=*/true);
    ++chain_pos_;
  }
  build_inner(rank);
}

ScheduleMode AutoEngine::effective_inner_sched() const noexcept {
  // An explicit caller override always wins; otherwise the chain entry may
  // pin owner-computes to keep its footprint inside the budget.
  return context().sched != ScheduleMode::kAuto
             ? context().sched
             : chain_[chain_pos_].forced_sched;
}

void AutoEngine::build_inner(index_t rank) {
  KernelContext inner_ctx = context();
  inner_ctx.mem_budget = memory_budget_bytes_;
  for (;;) {
    const ChainEntry& entry = chain_[chain_pos_];
    KernelContext ctx = inner_ctx;
    ctx.sched = effective_inner_sched();
    try {
      if (entry.engine.empty()) {
        const auto& win = report_.winner();
        inner_ = std::make_unique<DTreeMttkrpEngine>(win.strategy.spec,
                                                     entry.label, ctx);
      } else {
        inner_ = make_engine(entry.engine, ctx);
      }
      inner_->prepare(tensor(), rank);
      return;
    } catch (const budget_error&) {
      if (chain_pos_ + 1 >= chain_.size()) throw;
      note_degradation(chain_pos_, chain_pos_ + 1, "budget-exceeded",
                       /*at_prepare=*/false);
      ++chain_pos_;
    } catch (const std::bad_alloc&) {
      if (chain_pos_ + 1 >= chain_.size()) {
        std::ostringstream os;
        os << "allocation failed preparing engine '" << entry.label
           << "' and the degradation chain is exhausted";
        throw budget_error(os.str(), entry.predicted_bytes,
                           memory_budget_bytes_);
      }
      note_degradation(chain_pos_, chain_pos_ + 1, "alloc-failure",
                       /*at_prepare=*/false);
      ++chain_pos_;
    }
  }
}

void AutoEngine::note_degradation(std::size_t from, std::size_t to,
                                  const char* reason, bool at_prepare) {
  MDCP_TRACE_SPAN("engine.degradation", "level",
                  static_cast<std::int64_t>(to));
  DegradationEvent ev;
  ev.from = chain_[from].label;
  ev.to = chain_[to].label;
  ev.reason = reason;
  ev.predicted_bytes = chain_[from].predicted_bytes;
  ev.budget_bytes = memory_budget_bytes_;
  ev.at_prepare = at_prepare;
  degradations_.push_back(std::move(ev));
  record_degradation(reason);
  if (inner_)
    retired_peak_bytes_ =
        std::max(retired_peak_bytes_, inner_->peak_memory_bytes());
}

void AutoEngine::do_compute(mode_t mode, const std::vector<Matrix>& factors,
                            Matrix& out) {
  for (;;) {
    inner_->context().sched = effective_inner_sched();  // forward overrides
    try {
      inner_->compute(mode, factors, out);  // runs inside this frame
      return;
    } catch (const budget_error&) {
      if (chain_pos_ + 1 >= chain_.size()) throw;
      note_degradation(chain_pos_, chain_pos_ + 1, "budget-exceeded",
                       /*at_prepare=*/false);
      ++chain_pos_;
      build_inner(rank_hint());
    } catch (const std::bad_alloc&) {
      if (chain_pos_ + 1 >= chain_.size()) {
        std::ostringstream os;
        os << "allocation failed in engine '" << chain_[chain_pos_].label
           << "' and the degradation chain is exhausted";
        throw budget_error(os.str(), chain_[chain_pos_].predicted_bytes,
                           memory_budget_bytes_);
      }
      note_degradation(chain_pos_, chain_pos_ + 1, "alloc-failure",
                       /*at_prepare=*/false);
      ++chain_pos_;
      build_inner(rank_hint());
    }
  }
}

void AutoEngine::factor_updated(mode_t mode) {
  if (inner_) inner_->factor_updated(mode);
}

void AutoEngine::invalidate_all() {
  if (inner_) inner_->invalidate_all();
}

std::string AutoEngine::name() const {
  if (inner_) return inner_->name();
  return probed_ ? "auto+probe" : "auto";
}

std::size_t AutoEngine::memory_bytes() const {
  return inner_ ? inner_->memory_bytes() : 0;
}

std::size_t AutoEngine::peak_memory_bytes() const {
  return std::max(retired_peak_bytes_,
                  inner_ ? inner_->peak_memory_bytes() : 0);
}

std::unique_ptr<MttkrpEngine> make_auto_engine(const CooTensor& tensor,
                                               index_t rank,
                                               std::size_t memory_budget_bytes,
                                               const CostModelParams& params) {
  auto engine = std::make_unique<AutoEngine>(/*probed=*/false,
                                             memory_budget_bytes, params, 3);
  engine->prepare(tensor, rank);
  return engine;
}

std::unique_ptr<MttkrpEngine> make_probed_engine(
    const CooTensor& tensor, index_t rank, std::size_t memory_budget_bytes,
    const CostModelParams& params, int shortlist) {
  auto engine = std::make_unique<AutoEngine>(/*probed=*/true,
                                             memory_budget_bytes, params,
                                             shortlist);
  engine->prepare(tensor, rank);
  return engine;
}

}  // namespace mdcp
