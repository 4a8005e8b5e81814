// Tests for the cross-run history layer: golden-fixture ingest (including
// the skip counters for truncated / future-version / incomplete reports),
// crash-safe report promotion, a real cp_als round-trip through
// parse_report_file, trust-weight decay, the measured-best tuner override
// (fires after K trusted observations, not before, and never across a
// provenance break), and robust-z drift banding.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cpals/cpals.hpp"
#include "model/tuner.hpp"
#include "obs/history.hpp"
#include "obs/report.hpp"
#include "tensor/generator.hpp"

namespace mdcp {
namespace {

std::string fixture_dir() {
  return std::string(MDCP_TEST_DATA_DIR) + "/history";
}

TEST(HistoryIngest, FixtureDirCountsEverySkipKind) {
  obs::HistoryStore store;
  const obs::HistoryIngestStats stats = store.ingest_dir(fixture_dir());
  EXPECT_EQ(stats.files_scanned, 5u);
  EXPECT_EQ(stats.files_ingested, 2u);
  EXPECT_EQ(stats.files_unparseable, 1u);
  EXPECT_EQ(stats.files_unknown_version, 1u);
  EXPECT_EQ(stats.files_incomplete, 1u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(HistoryIngest, MissingDirectoryIngestsNothing) {
  obs::HistoryStore store;
  const auto stats = store.ingest_dir(fixture_dir() + "/does-not-exist");
  EXPECT_EQ(stats.files_scanned, 0u);
  EXPECT_TRUE(store.empty());
}

TEST(HistoryIngest, OrphanedTmpReportsAreCountedNotIngested) {
  // A `<path>.tmp` leftover is a run that died before RunReporter::close()
  // (and before any crash handler promoted it) — evidence of a crash the
  // skip counters must surface instead of silently ignoring.
  const std::string dir = ::testing::TempDir() + "/mdcp_orphan_tmp";
  std::filesystem::create_directories(dir);
  {
    std::ofstream os(dir + "/run-123.jsonl.tmp");
    os << "{\"type\":\"header\",\"schema\":\"mdcp-run-report/1\"}\n";
  }
  obs::HistoryStore store;
  const auto stats = store.ingest_dir(dir);
  EXPECT_EQ(stats.files_orphaned_tmp, 1u);
  EXPECT_EQ(stats.files_ingested, 0u);
  EXPECT_EQ(stats.files_scanned, 0u);  // never entered the .jsonl scan
  EXPECT_TRUE(store.empty());
  std::filesystem::remove_all(dir);
}

TEST(HistoryIngest, GoldenV2FieldsRoundTrip) {
  obs::HistoryIngestStats stats;
  const auto obs =
      obs::HistoryStore::parse_report_file(fixture_dir() + "/golden_v2.jsonl",
                                           &stats);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->fingerprint, 0xdeadbeefULL);
  EXPECT_EQ(obs->engine_label, "auto:greedy");
  EXPECT_EQ(obs->strategy, "greedy");
  EXPECT_EQ(obs->rank, 8u);
  EXPECT_EQ(obs->threads, 4);
  EXPECT_EQ(obs->iterations, 4);
  // Summary totals are normalized per iteration (0.4 s over 4 sweeps).
  EXPECT_DOUBLE_EQ(obs->seconds_per_iteration, 0.1);
  ASSERT_EQ(obs->mode_seconds.size(), 3u);
  EXPECT_DOUBLE_EQ(obs->mode_seconds[0], 0.05);
  EXPECT_DOUBLE_EQ(obs->mode_seconds[2], 0.02);
  // predicted 0.09 vs measured 0.1 per iteration.
  EXPECT_NEAR(obs->time_error_ratio, 0.9, 1e-12);
  EXPECT_EQ(obs->plan_source, "model");
  EXPECT_DOUBLE_EQ(obs->final_fit, 0.125);
  EXPECT_EQ(stats.files_ingested, 1u);
}

TEST(HistoryIngest, PreVersionedReportParsesAsVersionOne) {
  const auto obs =
      obs::HistoryStore::parse_report_file(fixture_dir() + "/golden_v1.jsonl");
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->engine_label, "csf");
  EXPECT_EQ(obs->strategy, "csf");  // fixed engines keep their name
  EXPECT_EQ(obs->rank, 0u);         // v1 reports predate the rank field
  EXPECT_DOUBLE_EQ(obs->seconds_per_iteration, 0.25);
  EXPECT_TRUE(obs->plan_source.empty());
}

TEST(HistoryIngest, SkippedFilesBumpTheRightCounter) {
  obs::HistoryIngestStats stats;
  EXPECT_FALSE(obs::HistoryStore::parse_report_file(
      fixture_dir() + "/future_version.jsonl", &stats));
  EXPECT_EQ(stats.files_unknown_version, 1u);
  EXPECT_FALSE(obs::HistoryStore::parse_report_file(
      fixture_dir() + "/truncated.jsonl", &stats));
  EXPECT_EQ(stats.files_unparseable, 1u);
  EXPECT_FALSE(obs::HistoryStore::parse_report_file(
      fixture_dir() + "/incomplete.jsonl", &stats));
  EXPECT_EQ(stats.files_incomplete, 1u);
}

TEST(HistoryQuery, RankZeroObservationsOnlyMatchRankZeroQueries) {
  obs::HistoryStore store;
  store.ingest_dir(fixture_dir());  // one rank-8 and one rank-0 observation
  EXPECT_EQ(store.query(0xdeadbeefULL).size(), 2u);  // rank 0 = match any
  EXPECT_EQ(store.query(0xdeadbeefULL, 8).size(), 1u);
  EXPECT_EQ(store.query(0xdeadbeefULL, 8, "greedy").size(), 1u);
  EXPECT_EQ(store.query(0xdeadbeefULL, 8, "csf").size(), 0u);
  EXPECT_EQ(store.query(0x1234ULL).size(), 0u);  // unknown tensor
}

TEST(StrategyFromEngineLabel, StripsAutoPrefixes) {
  EXPECT_EQ(obs::strategy_from_engine_label("auto:bdt/asc"), "bdt/asc");
  EXPECT_EQ(obs::strategy_from_engine_label("auto+probe:greedy"), "greedy");
  EXPECT_EQ(obs::strategy_from_engine_label("csf"), "csf");
  EXPECT_EQ(obs::strategy_from_engine_label(""), "");
}

TEST(Report, CloseRenamesTmpIntoPlace) {
  namespace fs = std::filesystem;
  const std::string path = ::testing::TempDir() + "/mdcp_atomic_report.jsonl";
  fs::remove(path);
  fs::remove(path + ".tmp");
  const auto tensor = generate_uniform({8, 9, 10}, 120, 3);
  {
    obs::RunReporter reporter(path);
    ASSERT_TRUE(reporter.ok());
    reporter.write_header(tensor, "test_history atomic", 1);
    // Until close(), only the crash-leftover tmp file exists: a reader (or
    // ingest_dir, which only scans *.jsonl) never sees a half-written report.
    EXPECT_TRUE(fs::exists(path + ".tmp"));
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(reporter.close());
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// A real cp_als run with reporter + history attached must produce a report
// parse_report_file can round-trip, and must record the same observation
// in-process.
TEST(HistoryRoundTrip, CpAlsReportMatchesInProcessObservation) {
  const std::string path = ::testing::TempDir() + "/mdcp_history_rt.jsonl";
  const auto tensor = generate_uniform({20, 24, 28}, 800, 17);

  obs::HistoryStore store;
  CpAlsOptions opt;
  opt.rank = 6;
  opt.max_iterations = 3;
  opt.tolerance = 0;
  opt.seed = 5;
  opt.engine_name = "auto";
  opt.history = &store;
  {
    obs::RunReporter reporter(path);
    ASSERT_TRUE(reporter.ok());
    reporter.write_header(tensor, "test_history round-trip", 1);
    opt.reporter = &reporter;
    const auto result = cp_als(tensor, opt);
    EXPECT_EQ(result.iterations, 3);
    // Empty store at selection time: the tuner had nothing to consult.
    EXPECT_EQ(result.plan_source, "model");
    ASSERT_TRUE(reporter.close());

    ASSERT_EQ(store.size(), 1u);
    const obs::RunObservation& rec = store.observations()[0];
    const auto parsed = obs::HistoryStore::parse_report_file(path);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->fingerprint, obs::tensor_fingerprint(tensor));
    EXPECT_EQ(parsed->fingerprint, rec.fingerprint);
    EXPECT_EQ(parsed->engine_label, result.engine_name);
    EXPECT_EQ(parsed->strategy, rec.strategy);
    EXPECT_EQ(parsed->rank, 6u);
    EXPECT_EQ(parsed->iterations, 3);
    EXPECT_EQ(parsed->plan_source, "model");
    EXPECT_NEAR(parsed->seconds_per_iteration, rec.seconds_per_iteration,
                1e-9);
    EXPECT_EQ(parsed->mode_seconds.size(),
              static_cast<std::size_t>(tensor.order()));
    // The report was written by this build on this machine.
    EXPECT_EQ(parsed->build_id, obs::HistoryStore::current_build_id());
    EXPECT_EQ(parsed->machine_id, obs::HistoryStore::current_machine_id());
  }
}

TEST(Trust, WeightDecaysPerMismatchedProvenanceAxis) {
  obs::TrustPolicy policy;
  policy.build_id = 11;
  policy.machine_id = 22;
  policy.threads = 0;  // thread axis not enforced

  obs::RunObservation o;
  o.build_id = 11;
  o.machine_id = 22;
  o.threads = 8;
  EXPECT_DOUBLE_EQ(obs::HistoryStore::trust_weight(o, policy), 1.0);

  o.build_id = 99;  // rebuilt
  EXPECT_DOUBLE_EQ(obs::HistoryStore::trust_weight(o, policy), 0.25);

  o.machine_id = 99;  // rebuilt AND moved host
  EXPECT_DOUBLE_EQ(obs::HistoryStore::trust_weight(o, policy), 0.0625);

  policy.threads = 4;  // now the thread axis is enforced too
  EXPECT_DOUBLE_EQ(obs::HistoryStore::trust_weight(o, policy),
                   0.25 * 0.25 * 0.25);
  o.threads = 4;
  EXPECT_DOUBLE_EQ(obs::HistoryStore::trust_weight(o, policy), 0.0625);
}

obs::RunObservation make_obs(std::uint64_t fingerprint,
                             const std::string& strategy, std::uint32_t rank,
                             double spi) {
  obs::RunObservation o;
  o.fingerprint = fingerprint;
  o.engine_label = "auto:" + strategy;
  o.strategy = strategy;
  o.rank = rank;
  o.build_id = obs::HistoryStore::current_build_id();
  o.machine_id = obs::HistoryStore::current_machine_id();
  o.iterations = 1;
  o.seconds_per_iteration = spi;
  o.plan_source = "model";
  return o;
}

TEST(Trust, MeasuredBestNeedsMinWeightAndPicksFastest) {
  const std::uint64_t fp = 0xabcULL;
  obs::HistoryStore store;
  obs::TrustPolicy policy;
  policy.min_weight = 2.0;

  store.record(make_obs(fp, "slow", 4, 0.5));
  store.record(make_obs(fp, "slow", 4, 0.5));
  store.record(make_obs(fp, "fast", 4, 0.1));
  // "fast" is quicker but has only weight 1 < 2: not yet trusted; "slow"
  // qualifies, so it is the best *trusted* plan.
  auto best = store.measured_best(fp, 4, policy);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->strategy, "slow");

  store.record(make_obs(fp, "fast", 4, 0.2));
  best = store.measured_best(fp, 4, policy);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->strategy, "fast");
  EXPECT_DOUBLE_EQ(best->seconds_per_iteration, 0.15);  // weighted mean
  EXPECT_DOUBLE_EQ(best->weight, 2.0);
  EXPECT_EQ(best->observations, 2u);

  // Wrong rank / wrong tensor: nothing qualifies.
  EXPECT_FALSE(store.measured_best(fp, 5, policy).has_value());
  EXPECT_FALSE(store.measured_best(0x999ULL, 4, policy).has_value());
}

// The tuner-facing behavior the whole layer exists for: after K trusted
// observations of a strategy, select_strategy prefers the measured plan and
// says so via plan_source — and does NOT before K, nor across a provenance
// break, nor when the overlay is switched off.
class TunerOverlay : public ::testing::Test {
 protected:
  void SetUp() override {
    tensor_ = generate_uniform({24, 26, 28}, 900, 21);
    fp_ = obs::tensor_fingerprint(tensor_);
    const TunerReport base = select_strategy(tensor_, kRank);
    ASSERT_GE(base.ranked.size(), 2u);
    EXPECT_STREQ(base.plan_source, "model");
    model_choice_ = base.winner().strategy.name;
    // Pick a budget-feasible candidate the model did NOT choose, so an
    // override is observable.
    for (std::size_t i = 0; i < base.ranked.size(); ++i) {
      if (i != base.chosen && base.ranked[i].fits_budget) {
        alt_choice_ = base.ranked[i].strategy.name;
        break;
      }
    }
    ASSERT_FALSE(alt_choice_.empty());
  }

  static constexpr index_t kRank = 8;
  CooTensor tensor_;
  std::uint64_t fp_ = 0;
  std::string model_choice_;
  std::string alt_choice_;
};

TEST_F(TunerOverlay, OverridesAfterKObservationsNotBefore) {
  obs::HistoryStore store;
  TunerOptions topt;
  topt.history = &store;
  topt.trust.min_weight = 2.0;  // warm-start after K = 2 runs

  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  TunerReport report = select_strategy(tensor_, kRank, 0, {}, topt);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);

  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  report = select_strategy(tensor_, kRank, 0, {}, topt);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, alt_choice_);
}

TEST_F(TunerOverlay, DisabledOverlayAndEmptyStoreStayOnModel) {
  obs::HistoryStore store;
  TunerOptions topt;
  topt.history = &store;
  topt.trust.min_weight = 1.0;

  // Empty store: nothing to consult.
  TunerReport report = select_strategy(tensor_, kRank, 0, {}, topt);
  EXPECT_STREQ(report.plan_source, "model");

  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  topt.use_history = false;  // the --no-history switch
  report = select_strategy(tensor_, kRank, 0, {}, topt);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);
}

TEST_F(TunerOverlay, ProvenanceBreakDecaysTrustBelowThreshold) {
  obs::HistoryStore store;
  // Two observations from a different build: weight 2 × 0.25 = 0.5 < 1.
  for (int i = 0; i < 2; ++i) {
    obs::RunObservation o = make_obs(fp_, alt_choice_, kRank, 1e-5);
    o.build_id ^= 0x1;
    store.record(std::move(o));
  }
  TunerOptions topt;
  topt.history = &store;
  topt.trust.min_weight = 1.0;
  TunerReport report = select_strategy(tensor_, kRank, 0, {}, topt);
  EXPECT_STREQ(report.plan_source, "model");
  EXPECT_EQ(report.winner().strategy.name, model_choice_);

  // Two more from THIS build re-earn the trust.
  store.record(make_obs(fp_, alt_choice_, kRank, 1e-5));
  report = select_strategy(tensor_, kRank, 0, {}, topt);
  EXPECT_STREQ(report.plan_source, "history");
  EXPECT_EQ(report.winner().strategy.name, alt_choice_);
}

obs::RunObservation make_drift_obs(double spi, double jitter) {
  obs::RunObservation o = make_obs(0xd41f7ULL, "bdt", 8, spi * (1 + jitter));
  o.mode_seconds = {0.5 * o.seconds_per_iteration,
                    0.3 * o.seconds_per_iteration,
                    0.2 * o.seconds_per_iteration};
  return o;
}

class Drift : public ::testing::Test {
 protected:
  void SetUp() override {
    // Four clean runs with ±2% scheduling jitter.
    for (const double j : {-0.02, -0.01, 0.01, 0.02})
      store_.record(make_drift_obs(0.1, j));
  }
  obs::HistoryStore store_;
};

TEST_F(Drift, FlagsInjectedThreeTimesSlowdownOnEveryKernel) {
  const obs::DriftReport dr =
      obs::detect_drift(store_, make_drift_obs(0.3, 0.0));
  EXPECT_EQ(dr.history_runs, 4u);
  EXPECT_TRUE(dr.regressed);
  EXPECT_TRUE(dr.out_of_band);
  ASSERT_EQ(dr.findings.size(), 4u);  // mode0..2 + mttkrp
  for (const auto& f : dr.findings) {
    EXPECT_STREQ(f.status, "regression") << f.kernel;
    EXPECT_GT(f.z, 3.5) << f.kernel;
    EXPECT_NEAR(f.measured / f.median, 3.0, 0.1) << f.kernel;
  }
}

TEST_F(Drift, QuietAcrossTheNoiseBand) {
  // A fifth clean run inside the jitter band must not alarm.
  const obs::DriftReport dr =
      obs::detect_drift(store_, make_drift_obs(0.1, 0.015));
  EXPECT_FALSE(dr.regressed);
  EXPECT_FALSE(dr.out_of_band);
  for (const auto& f : dr.findings) EXPECT_STREQ(f.status, "ok") << f.kernel;
}

TEST_F(Drift, ImprovementIsOutOfBandButNotARegression) {
  const obs::DriftReport dr =
      obs::detect_drift(store_, make_drift_obs(0.02, 0.0));
  EXPECT_FALSE(dr.regressed);
  EXPECT_TRUE(dr.out_of_band);
  bool improved = false;
  for (const auto& f : dr.findings)
    if (std::string(f.status) == "improved") improved = true;
  EXPECT_TRUE(improved);
}

TEST_F(Drift, InsufficientHistoryReportsWhyAndStaysEmpty) {
  obs::HistoryStore sparse;
  sparse.record(make_drift_obs(0.1, 0.0));
  const obs::DriftReport dr =
      obs::detect_drift(sparse, make_drift_obs(0.3, 0.0));
  EXPECT_EQ(dr.history_runs, 1u);
  EXPECT_TRUE(dr.findings.empty());
  EXPECT_FALSE(dr.regressed);

  // Different strategy / rank / tensor are not comparable either.
  const obs::DriftReport other =
      obs::detect_drift(store_, make_obs(0xd41f7ULL, "csf", 8, 0.3));
  EXPECT_EQ(other.history_runs, 0u);
  EXPECT_TRUE(other.findings.empty());
}

}  // namespace
}  // namespace mdcp
