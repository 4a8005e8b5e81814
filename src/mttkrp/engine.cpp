#include "mttkrp/engine.hpp"

#include <algorithm>
#include <limits>
#include <string_view>

#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace mdcp {

namespace {

// Registry references resolved once — the NVI wrappers run once per
// prepare()/compute(), so metric updates must stay at relaxed-atomic cost.
obs::Counter& prepare_calls_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernel.prepare_calls");
  return c;
}
obs::Counter& compute_calls_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernel.compute_calls");
  return c;
}
obs::Counter& flops_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("kernel.flops");
  return c;
}
obs::Gauge& symbolic_seconds_metric() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("kernel.symbolic_seconds");
  return g;
}
obs::Gauge& numeric_seconds_metric() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("kernel.numeric_seconds");
  return g;
}
obs::Gauge& peak_scratch_metric() {
  static obs::Gauge& g =
      obs::MetricsRegistry::instance().gauge("workspace.peak_scratch_bytes");
  return g;
}
obs::Counter& owner_launches_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("sched.owner_launches");
  return c;
}
obs::Counter& privatized_launches_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("sched.privatized_launches");
  return c;
}
obs::Counter& degradations_metric() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().counter("engine.degradations");
  return c;
}

// The engine whose instrumentation frame is open on this thread (null =
// none). Only the outermost prepare()/compute() opens one.
thread_local MttkrpEngine* t_frame = nullptr;

class FrameScope {
 public:
  explicit FrameScope(MttkrpEngine* engine) noexcept { t_frame = engine; }
  ~FrameScope() { t_frame = nullptr; }
  FrameScope(const FrameScope&) = delete;
  FrameScope& operator=(const FrameScope&) = delete;
};

}  // namespace

template <typename F>
void MttkrpEngine::update_sinks(F&& update) noexcept {
  MttkrpEngine& owner = t_frame != nullptr ? *t_frame : *this;
  update(owner.stats_);
  if (owner.ctx_.stats != nullptr) update(*owner.ctx_.stats);
}

MttkrpEngine::MttkrpEngine(KernelContext ctx) : ctx_(ctx) {
  if (ctx_.workspace == nullptr) ctx_.workspace = &default_workspace();
}

void MttkrpEngine::prepare(const CooTensor& tensor, index_t rank) {
  tensor_ = &tensor;
  rank_hint_ = rank;
  if (t_frame != nullptr) {
    do_prepare(rank);
    return;
  }
  // The context budget governs this execution: install it on the arena so
  // over-budget scratch growth fails as a typed budget_error instead of an
  // unbounded allocation.
  if (ctx_.mem_budget != 0) ctx_.workspace->set_budget_bytes(ctx_.mem_budget);
  WallTimer timer;
  {
    FrameScope frame(this);
    MDCP_TRACE_SPAN(("prepare:" + name()).c_str(), "rank",
                    static_cast<std::int64_t>(rank));
    obs::fr_record(obs::FrEvent::kPrepareBegin, obs::FrPhase::kPrepare,
                   static_cast<std::int64_t>(rank));
    obs::fr_beat(obs::FrPhase::kPrepare, static_cast<std::int64_t>(rank));
    ThreadScope scope(ctx_.threads);
    do_prepare(rank);
    obs::fr_record(obs::FrEvent::kPrepareEnd, obs::FrPhase::kPrepare);
  }
  // name() may change during do_prepare (the auto engine resolves to its
  // chosen strategy), so the compute-span label is cached afterwards.
  trace_label_ = "mttkrp:" + name();
  const double secs = timer.seconds();
  prepare_calls_metric().add();
  symbolic_seconds_metric().add(secs);
  update_sinks([&](KernelStats& s) {
    s.symbolic_seconds += secs;
    ++s.prepare_calls;
  });
}

void MttkrpEngine::compute(mode_t mode, const std::vector<Matrix>& factors,
                           Matrix& out) {
  MDCP_CHECK_MSG(prepared(), "engine " << name()
                                       << ": compute() before prepare()");
  if (t_frame != nullptr) {
    do_compute(mode, factors, out);
    return;
  }
  WallTimer timer;
  {
    FrameScope frame(this);
    // PerfRegion doubles as the numeric-phase trace span; with perf enabled
    // it also attaches hardware-counter deltas to the span and to the
    // perf.* metrics (no-ops at two relaxed loads when both are off).
    obs::PerfRegion perf_region(trace_label_.c_str(), "mode",
                                static_cast<std::int64_t>(mode));
    obs::fr_record(obs::FrEvent::kComputeBegin, obs::FrPhase::kCompute,
                   static_cast<std::int64_t>(mode));
    obs::fr_beat(obs::FrPhase::kCompute, static_cast<std::int64_t>(mode));
    // Fault-injection site: deterministic liveness stall so watchdog firing
    // is testable without wall-clock flakiness. The sleeping thread stops
    // beating, which is exactly the signal the watchdog watches for.
    if (fault::should_inject(fault::Site::kStall)) {
      obs::fr_record(
          obs::FrEvent::kStall, obs::FrPhase::kCompute,
          static_cast<std::int64_t>(
              fault::FaultPlan::instance().config(fault::Site::kStall)
                  .threshold));
      fault::inject_stall();
    }
    ThreadScope scope(ctx_.threads);
    do_compute(mode, factors, out);
    obs::fr_record(obs::FrEvent::kComputeEnd, obs::FrPhase::kCompute,
                   static_cast<std::int64_t>(mode));
    obs::fr_beat(obs::FrPhase::kCompute, static_cast<std::int64_t>(mode));
    // Fault-injection site: poison the kernel output with a quiet NaN so the
    // CP-ALS numerical-recovery path can be exercised deterministically.
    // Compiled to nothing without MDCP_ENABLE_FAULTINJECT.
    if (fault::should_inject(fault::Site::kNan) && out.size() > 0)
      out(0, 0) = std::numeric_limits<real_t>::quiet_NaN();
  }
  const double secs = timer.seconds();
  const std::size_t peak = ctx_.workspace->peak_bytes();
  compute_calls_metric().add();
  numeric_seconds_metric().add(secs);
  peak_scratch_metric().record_max(static_cast<double>(peak));
  update_sinks([&](KernelStats& s) {
    s.numeric_seconds += secs;
    ++s.compute_calls;
    s.peak_scratch_bytes = std::max(s.peak_scratch_bytes, peak);
  });
}

const CooTensor& MttkrpEngine::tensor() const {
  MDCP_CHECK_MSG(tensor_ != nullptr, "engine not prepared");
  return *tensor_;
}

void MttkrpEngine::count_flops(std::uint64_t flops) noexcept {
  flops_metric().add(flops);
  update_sinks([&](KernelStats& s) { s.flops += flops; });
}

void MttkrpEngine::record_schedule(const sched::Decision& d) noexcept {
  const bool priv = d.schedule == sched::Schedule::kPrivatized;
  record_schedule(d, priv ? 0 : 1, priv ? 1 : 0);
}

void MttkrpEngine::record_schedule(const sched::Decision& d,
                                   std::uint64_t owner_launches,
                                   std::uint64_t privatized_launches) noexcept {
  MDCP_TRACE_SPAN(d.schedule == sched::Schedule::kPrivatized
                      ? "sched.privatized"
                      : "sched.owner",
                  "tiles", static_cast<std::int64_t>(d.tiles));
  obs::fr_record(obs::FrEvent::kTileBatch, obs::FrPhase::kCompute,
                 static_cast<std::int64_t>(d.tiles),
                 static_cast<std::int64_t>(d.schedule));
  owner_launches_metric().add(owner_launches);
  privatized_launches_metric().add(privatized_launches);
  update_sinks([&](KernelStats& s) {
    s.owner_launches += owner_launches;
    s.privatized_launches += privatized_launches;
    s.last_schedule = static_cast<std::uint8_t>(d.schedule);
    s.last_tiles = d.tiles;
    s.last_sched_reason = d.reason;
  });
}

void MttkrpEngine::record_tile(index_t tile) noexcept {
  MDCP_TRACE_SPAN("mk.tile", "width", static_cast<std::int64_t>(tile));
  update_sinks([&](KernelStats& s) { s.last_tile = tile; });
}

void MttkrpEngine::record_plan_source(const char* source) noexcept {
  MDCP_TRACE_SPAN("tuner.plan_source", "history",
                  static_cast<std::int64_t>(
                      std::string_view(source) == "history" ? 1 : 0));
  update_sinks([&](KernelStats& s) { s.plan_source = source; });
}

void MttkrpEngine::record_degradation(const char* reason) noexcept {
  obs::fr_record(obs::FrEvent::kDegradation, obs::FrPhase::kCompute);
  degradations_metric().add();
  update_sinks([&](KernelStats& s) {
    ++s.degradations;
    s.last_degradation_reason = reason;
  });
}

int MttkrpEngine::effective_threads() const noexcept {
  return ctx_.threads > 0 ? ctx_.threads : num_threads();
}

index_t check_factors(const CooTensor& tensor,
                      const std::vector<Matrix>& factors) {
  MDCP_CHECK_MSG(factors.size() == tensor.order(),
                 "need one factor matrix per mode");
  MDCP_CHECK_MSG(!factors.empty() && factors[0].cols() > 0,
                 "factor matrices must have positive rank");
  const index_t r = factors[0].cols();
  for (mode_t m = 0; m < tensor.order(); ++m) {
    MDCP_CHECK_MSG(factors[m].rows() == tensor.dim(m),
                   "factor " << m << " row count " << factors[m].rows()
                             << " != mode size " << tensor.dim(m));
    MDCP_CHECK_MSG(factors[m].cols() == r, "factor ranks differ across modes");
  }
  return r;
}

void mttkrp_reference(const CooTensor& tensor,
                      const std::vector<Matrix>& factors, mode_t mode,
                      Matrix& out) {
  const index_t r = check_factors(tensor, factors);
  out.resize(tensor.dim(mode), r, 0);
  for (nnz_t i = 0; i < tensor.nnz(); ++i) {
    const index_t row = tensor.index(mode, i);
    for (index_t k = 0; k < r; ++k) {
      real_t prod = tensor.value(i);
      for (mode_t m = 0; m < tensor.order(); ++m) {
        if (m == mode) continue;
        prod *= factors[m](tensor.index(m, i), k);
      }
      out(row, k) += prod;
    }
  }
}

}  // namespace mdcp
