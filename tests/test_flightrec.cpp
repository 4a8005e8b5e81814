// Flight recorder, stall watchdog, and crash-forensics tests.
//
// Covers the liveness layer end to end: lock-free ring overflow under
// concurrent writers, heartbeat epoch monotonicity, watchdog firing (and
// not firing) semantics, the mdcp-crash-dump/1 schema, postmortem analysis
// of golden and truncated dumps, cooperative cancellation through cp_als,
// a fork-based SIGSEGV death test of the signal handlers, and an audit
// that the handler-path dump writer performs zero heap allocations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "cpals/cpals.hpp"
#include "obs/flightrec.hpp"
#include "obs/history.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/watchdog.hpp"
#include "tensor/generator.hpp"
#include "util/faultinject.hpp"

#ifndef MDCP_TEST_DATA_DIR
#define MDCP_TEST_DATA_DIR "tests/data"
#endif

// ---------------------------------------------------------------------------
// Heap-allocation audit instrumentation. The global operator new is replaced
// for this whole test binary; allocations are only *counted* while a test
// arms the audit flag around a handler-path call.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_audit_allocations{false};
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_audit_allocations.load(std::memory_order_relaxed))
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mdcp {
namespace {

std::string crash_fixture(const char* name) {
  return std::string(MDCP_TEST_DATA_DIR) + "/crash/" + name;
}

std::string temp_dir(const char* tag) {
  static std::atomic<int> counter{0};
  std::string d = ::testing::TempDir() + "mdcp-" + tag + "-" +
                  std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::create_directories(d, ec);
  return d;
}

std::string find_crash_dump(const std::string& dir) {
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("crash-", 0) == 0) return e.path().string();
  }
  return {};
}

// ---------------------------------------------------------------------------
// Flight recorder core.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, RingOverflowWithConcurrentWriters) {
  auto& fr = obs::FlightRecorder::instance();
  fr.reset();
  const std::uint64_t base = fr.events_recorded();

  constexpr int kThreads = 4;
  constexpr int kPerThread =
      static_cast<int>(obs::FlightRecorder::kRingCapacity);  // 4x overflow
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i)
        obs::fr_record(obs::FrEvent::kIteration, obs::FrPhase::kIteration, i,
                       t);
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(fr.events_recorded() - base,
            static_cast<std::uint64_t>(kThreads) * kPerThread);

  const auto events = fr.snapshot_events();
  ASSERT_FALSE(events.empty());
  EXPECT_LE(events.size(), obs::FlightRecorder::kRingCapacity);
  // Oldest-first, strictly increasing global sequence, no duplicates.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  // Only the newest ring-capacity events can be retained.
  const std::uint64_t total = fr.events_recorded();
  for (const auto& e : events)
    EXPECT_GT(e.seq + obs::FlightRecorder::kRingCapacity, total);
}

TEST(FlightRecorder, HeartbeatEpochsAreMonotonic) {
  auto& fr = obs::FlightRecorder::instance();
  fr.reset();
  const std::uint32_t tid = fr.thread_slot();

  std::uint64_t prev_epoch = 0;
  std::uint64_t prev_progress = fr.progress();
  for (int i = 1; i <= 64; ++i) {
    fr.beat(obs::FrPhase::kCompute, i);
    const auto hearts = fr.snapshot_heartbeats();
    const auto it = std::find_if(
        hearts.begin(), hearts.end(),
        [&](const obs::HeartbeatSnapshot& h) { return h.tid == tid; });
    ASSERT_NE(it, hearts.end());
    EXPECT_GT(it->epoch, prev_epoch);
    EXPECT_EQ(it->phase, obs::FrPhase::kCompute);
    EXPECT_EQ(it->detail, i);
    prev_epoch = it->epoch;
    EXPECT_GT(fr.progress(), prev_progress);
    prev_progress = fr.progress();
  }
}

// ---------------------------------------------------------------------------
// Watchdog.
// ---------------------------------------------------------------------------

TEST(Watchdog, FiresOnQuietRunAndSetsCancelFlag) {
  obs::FlightRecorder::instance().reset();
  const std::string dir = temp_dir("wd-fire");
  std::atomic<bool> cancel{false};

  obs::WatchdogOptions wd;
  wd.deadline_seconds = 0.15;
  wd.poll_seconds = 0.02;
  wd.policy = obs::WatchdogPolicy::kCancel;
  wd.dump_dir = dir;
  wd.cancel = &cancel;
  obs::Watchdog dog(wd);

  // Nobody beats: the watchdog must fire within a few deadlines.
  for (int i = 0; i < 200 && !dog.fired(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  dog.stop();
  ASSERT_TRUE(dog.fired());
  EXPECT_TRUE(cancel.load());
  ASSERT_FALSE(dog.dump_path().empty());

  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(dog.dump_path(), a, &err)) << err;
  EXPECT_EQ(a.cause, "watchdog");
  EXPECT_TRUE(a.complete);
}

TEST(Watchdog, DoesNotFireWhileHeartbeatsAdvance) {
  obs::FlightRecorder::instance().reset();
  const std::string dir = temp_dir("wd-quiet");

  obs::WatchdogOptions wd;
  wd.deadline_seconds = 0.2;
  wd.poll_seconds = 0.02;
  wd.dump_dir = dir;
  obs::Watchdog dog(wd);

  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  while (std::chrono::steady_clock::now() < until) {
    obs::fr_beat(obs::FrPhase::kIteration, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  dog.stop();
  EXPECT_FALSE(dog.fired());
  EXPECT_TRUE(find_crash_dump(dir).empty());
}

TEST(Watchdog, PolicyNamesRoundTrip) {
  for (const auto p :
       {obs::WatchdogPolicy::kReport, obs::WatchdogPolicy::kCancel,
        obs::WatchdogPolicy::kAbort}) {
    obs::WatchdogPolicy parsed = obs::WatchdogPolicy::kReport;
    ASSERT_TRUE(
        obs::watchdog_policy_from_name(obs::watchdog_policy_name(p), parsed));
    EXPECT_EQ(parsed, p);
  }
  obs::WatchdogPolicy parsed = obs::WatchdogPolicy::kReport;
  EXPECT_FALSE(obs::watchdog_policy_from_name("bogus", parsed));
}

// ---------------------------------------------------------------------------
// Dump schema + postmortem analysis.
// ---------------------------------------------------------------------------

TEST(CrashDump, EveryLineIsValidJsonAndSchemaTagged) {
  auto& fr = obs::FlightRecorder::instance();
  fr.reset();
  obs::fr_record(obs::FrEvent::kIteration, obs::FrPhase::kIteration, 1);
  obs::fr_beat(obs::FrPhase::kCompute, 2);

  const std::string dir = temp_dir("dump-schema");
  const std::string path = obs::write_crash_dump_file(dir, "test", 0);
  ASSERT_FALSE(path.empty());

  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::string line;
  std::vector<std::string> types;
  while (std::getline(is, line)) {
    ASSERT_FALSE(line.empty());
    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::json_parse(line, v, &err)) << line << ": " << err;
    const auto* t = v.find("type", obs::JsonValue::Kind::kString);
    ASSERT_NE(t, nullptr) << line;
    types.push_back(t->as_string());
    if (types.back() == "crash") {
      const auto* schema = v.find("schema", obs::JsonValue::Kind::kString);
      ASSERT_NE(schema, nullptr);
      EXPECT_EQ(schema->as_string(), obs::kCrashDumpSchema);
    }
  }
  ASSERT_FALSE(types.empty());
  EXPECT_EQ(types.front(), "crash");
  EXPECT_EQ(types.back(), "end");
  EXPECT_NE(std::find(types.begin(), types.end(), "heartbeat"), types.end());
  EXPECT_NE(std::find(types.begin(), types.end(), "event"), types.end());
}

TEST(Postmortem, GoldenWatchdogDumpYieldsVerdict) {
  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(crash_fixture("watchdog-golden.json"),
                                      a, &err))
      << err;
  EXPECT_EQ(a.cause, "watchdog");
  EXPECT_EQ(a.signal, 0);
  EXPECT_EQ(a.pid, 1234);
  EXPECT_EQ(a.host, "golden-host");
  EXPECT_TRUE(a.complete);
  EXPECT_EQ(a.truncated_lines, 0u);

  ASSERT_EQ(a.threads.size(), 2u);
  EXPECT_EQ(a.threads[0].tid, 0u);
  EXPECT_EQ(a.threads[0].phase, "compute");
  EXPECT_EQ(a.threads[0].age_ns, 100000000u);
  EXPECT_EQ(a.threads[1].phase, "parallel-for");

  ASSERT_EQ(a.events.size(), 3u);
  EXPECT_EQ(a.events[0].kind, "iteration");
  EXPECT_EQ(a.events[2].kind, "tile-batch");
  EXPECT_EQ(a.events[2].b, 2);

  EXPECT_TRUE(a.has_kernel_stats);
  EXPECT_EQ(a.compute_calls, 9u);
  EXPECT_EQ(a.degradations, 1u);
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].first, "watchdog.fired");

  // tid 0 beat most recently (smallest age): the stall is attributed to its
  // phase, not to the long-idle worker.
  ASSERT_TRUE(a.has_verdict);
  EXPECT_EQ(a.verdict_tid, 0u);
  EXPECT_EQ(a.verdict_phase, "compute");
  EXPECT_EQ(a.verdict_detail, 1);
  EXPECT_EQ(a.verdict_age_ns, 100000000u);
}

TEST(Postmortem, TruncatedDumpStillAnalyzes) {
  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(crash_fixture("truncated-golden.json"),
                                      a, &err))
      << err;
  EXPECT_EQ(a.cause, "signal");
  EXPECT_EQ(a.signal, 11);
  EXPECT_FALSE(a.complete);          // no {"type":"end"} terminator
  EXPECT_EQ(a.truncated_lines, 1u);  // the cut-off trailing event line
  ASSERT_EQ(a.threads.size(), 1u);
  ASSERT_TRUE(a.has_verdict);
  EXPECT_EQ(a.verdict_phase, "solve");
}

TEST(Postmortem, GeneratedDumpTruncatedMidFileStillAnalyzes) {
  auto& fr = obs::FlightRecorder::instance();
  fr.reset();
  for (int i = 0; i < 32; ++i)
    obs::fr_record(obs::FrEvent::kIteration, obs::FrPhase::kIteration, i);
  obs::fr_beat(obs::FrPhase::kIteration, 31);

  const std::string dir = temp_dir("dump-trunc");
  const std::string path = obs::write_crash_dump_file(dir, "test", 0);
  ASSERT_FALSE(path.empty());
  const auto full = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full * 3 / 5);

  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(path, a, &err)) << err;
  EXPECT_FALSE(a.complete);
}

TEST(Postmortem, RejectsFileWithoutCrashHeader) {
  const std::string dir = temp_dir("no-header");
  const std::string path = dir + "/not-a-dump.json";
  std::ofstream(path) << "{\"type\":\"event\",\"seq\":1}\n";
  obs::CrashDumpAnalysis a;
  std::string err;
  EXPECT_FALSE(obs::analyze_crash_dump(path, a, &err));
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// Cooperative cancellation through cp_als.
// ---------------------------------------------------------------------------

TEST(Cancel, PreSetFlagStopsBeforeFirstIteration) {
  const CooTensor t = generate_uniform({12, 13, 14}, 300, 7);
  std::atomic<bool> cancel{true};
  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 20;
  opt.engine_name = "coo";
  opt.cancel = &cancel;
  const CpAlsResult r = cp_als(t, opt);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 0);
}

TEST(Cancel, SummaryRecordsCancelledTrue) {
  const CooTensor t = generate_uniform({12, 13, 14}, 300, 7);
  const std::string dir = temp_dir("cancel-report");
  const std::string report = dir + "/run.jsonl";
  std::atomic<bool> cancel{true};
  {
    obs::RunReporter reporter(report);
    ASSERT_TRUE(reporter.ok());
    reporter.write_header(t, "test", 1);
    CpAlsOptions opt;
    opt.rank = 3;
    opt.max_iterations = 20;
    opt.engine_name = "coo";
    opt.cancel = &cancel;
    opt.reporter = &reporter;
    const CpAlsResult r = cp_als(t, opt);
    EXPECT_TRUE(r.cancelled);
    ASSERT_TRUE(reporter.close());
  }
  std::ifstream is(report);
  std::string line, last;
  while (std::getline(is, line))
    if (!line.empty()) last = line;
  obs::JsonValue v;
  ASSERT_TRUE(obs::json_parse(last, v, nullptr)) << last;
  const auto* cancelled = v.find("cancelled", obs::JsonValue::Kind::kBool);
  ASSERT_NE(cancelled, nullptr);
  EXPECT_TRUE(cancelled->as_bool());
  const auto* aborted = v.find("aborted", obs::JsonValue::Kind::kBool);
  ASSERT_NE(aborted, nullptr);
  EXPECT_FALSE(aborted->as_bool());
}

TEST(Cancel, TimerFlipsFlag) {
  std::atomic<bool> flag{false};
  {
    obs::CancelTimer timer(0.05, &flag);
    for (int i = 0; i < 100 && !flag.load(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(flag.load());
}

// ---------------------------------------------------------------------------
// Handler-path allocation audit: the signal-safe dump core must not touch
// the heap. The faultinject alloc site is armed so any workspace growth on
// the path would additionally throw (it must never be reached).
// ---------------------------------------------------------------------------

TEST(CrashHandlers, DumpCorePerformsZeroHeapAllocations) {
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "POSIX-only";
#else
  auto& fr = obs::FlightRecorder::instance();
  fr.reset();
  for (int i = 0; i < 100; ++i)
    obs::fr_record(obs::FrEvent::kComputeBegin, obs::FrPhase::kCompute, i);
  obs::fr_beat(obs::FrPhase::kCompute, 0);

  // Install once so the counter snapshot (taken under the registry mutex in
  // normal context) is populated — the handler path then reads it lock-free.
  const std::string dir = temp_dir("audit");
  ASSERT_TRUE(obs::crash_handlers_install(dir));
  KernelStats stats;
  stats.compute_calls = 7;
  obs::crash_set_kernel_stats(&stats);

  const std::string out = dir + "/audit-dump.json";
  const int fd = ::open(out.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  ASSERT_GE(fd, 0);

#if MDCP_ENABLE_FAULTINJECT
  fault::FaultPlan::instance().parse_spec("alloc.nth=1");
#endif
  g_allocation_count.store(0);
  g_audit_allocations.store(true);
  const std::size_t torn = obs::write_crash_dump_core(fd, "audit", 0);
  obs::write_crash_dump_end(fd, torn);
  g_audit_allocations.store(false);
#if MDCP_ENABLE_FAULTINJECT
  fault::FaultPlan::instance().reset();
#endif
  ::close(fd);
  obs::crash_set_kernel_stats(nullptr);
  obs::crash_handlers_uninstall();

  EXPECT_EQ(g_allocation_count.load(), 0u)
      << "crash-handler dump path allocated on the heap";

  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(out, a, &err)) << err;
  EXPECT_TRUE(a.complete);
  EXPECT_TRUE(a.has_kernel_stats);
  EXPECT_EQ(a.compute_calls, 7u);
#endif
}

// ---------------------------------------------------------------------------
// Fork-based death test: an injected SIGSEGV must leave a parseable dump
// and promote the in-flight report with an `aborted` summary record.
// ---------------------------------------------------------------------------

TEST(CrashHandlers, SigsegvLeavesDumpAndAbortedReport) {
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "POSIX-only";
#else
  const std::string dir = temp_dir("death");
  const std::string report = dir + "/run-death.jsonl";

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: set up a run-in-flight and die. Only _exit on failure paths —
    // gtest must not double-report from the forked process.
    obs::FlightRecorder::instance().reset();
    obs::fr_record(obs::FrEvent::kIteration, obs::FrPhase::kIteration, 5);
    obs::fr_beat(obs::FrPhase::kCompute, 1);
    if (!obs::crash_handlers_install(dir)) ::_exit(10);
    {
      std::ofstream os(report + ".tmp");
      os << "{\"type\":\"header\",\"schema\":\"mdcp-run-report/1\","
            "\"report_version\":2,\"tensor_fingerprint\":1,"
            "\"kernel_threads\":1}\n";
    }
    obs::crash_attach_report(
        report + ".tmp", report,
        "{\"type\":\"summary\",\"schema\":\"mdcp-run-report/1\","
        "\"engine\":\"test\",\"rank\":3,\"iterations\":0,"
        "\"converged\":false,\"aborted\":true}");
    ::raise(SIGSEGV);
    ::_exit(11);  // unreachable: the handler re-raises with SIG_DFL
  }

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << status;
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  // The dump is parseable and attributes the crash.
  const std::string dump = find_crash_dump(dir);
  ASSERT_FALSE(dump.empty());
  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(dump, a, &err)) << err;
  EXPECT_EQ(a.cause, "signal");
  EXPECT_EQ(a.signal, SIGSEGV);
  EXPECT_TRUE(a.complete);
  ASSERT_TRUE(a.has_verdict);
  EXPECT_EQ(a.verdict_phase, "compute");

  // The .tmp report was promoted with the aborted summary appended...
  EXPECT_FALSE(std::filesystem::exists(report + ".tmp"));
  ASSERT_TRUE(std::filesystem::exists(report));

  // ...and the history store ingests it as an aborted observation instead of
  // skipping an orphan.
  obs::HistoryStore store;
  obs::HistoryIngestStats st = store.ingest_dir(dir);
  EXPECT_EQ(st.files_ingested, 1u);
  EXPECT_EQ(st.files_orphaned_tmp, 0u);
  ASSERT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.observations()[0].aborted);
  const auto groups = store.groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].runs, 0u);
  EXPECT_EQ(groups[0].aborted_runs, 1u);
#endif
}

// ---------------------------------------------------------------------------
// Stall / segv fault-injection sites (spec grammar only; firing them needs
// MDCP_ENABLE_FAULTINJECT and is exercised by the CI crash-smoke job).
// ---------------------------------------------------------------------------

TEST(FaultSites, StallAndSegvSpecsParse) {
  fault::FaultPlan p;
  p.parse_spec("stall.nth=2;stall.ms=2000;segv.nth=5");
  EXPECT_EQ(p.config(fault::Site::kStall).nth, 2u);
  EXPECT_EQ(p.config(fault::Site::kStall).threshold, 2000u);
  EXPECT_EQ(p.config(fault::Site::kSegv).nth, 5u);
  EXPECT_TRUE(p.armed());
  EXPECT_STREQ(fault::site_name(fault::Site::kStall), "stall");
  EXPECT_STREQ(fault::site_name(fault::Site::kSegv), "segv");
}

#if MDCP_ENABLE_FAULTINJECT
TEST(FaultSites, InjectedStallTripsWatchdog) {
  const CooTensor t = generate_uniform({12, 13, 14}, 300, 7);
  obs::FlightRecorder::instance().reset();
  const std::string dir = temp_dir("stall-wd");
  // Stall 1.2 s at the second liveness site against a 0.2 s deadline.
  fault::FaultPlan::instance().parse_spec("stall.nth=2;stall.ms=1200");

  CpAlsOptions opt;
  opt.rank = 3;
  opt.max_iterations = 10;
  opt.engine_name = "coo";
  opt.watchdog.deadline_seconds = 0.2;
  opt.watchdog.poll_seconds = 0.02;
  opt.watchdog.policy = obs::WatchdogPolicy::kCancel;
  opt.watchdog.dump_dir = dir;
  const CpAlsResult r = cp_als(t, opt);
  fault::FaultPlan::instance().reset();

  EXPECT_TRUE(r.watchdog_fired);
  EXPECT_TRUE(r.cancelled);
  ASSERT_FALSE(r.watchdog_dump_path.empty());
  obs::CrashDumpAnalysis a;
  std::string err;
  ASSERT_TRUE(obs::analyze_crash_dump(r.watchdog_dump_path, a, &err)) << err;
  EXPECT_EQ(a.cause, "watchdog");
  ASSERT_TRUE(a.has_verdict);
}
#endif  // MDCP_ENABLE_FAULTINJECT

}  // namespace
}  // namespace mdcp
