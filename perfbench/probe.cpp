// perfprobe: times calls into the public mdcp API (mdcp.hpp) for the
// perfbench harness (perfbench/run.py). Every subcommand prints one JSON
// object on stdout and exits 0, or prints {"ok":false,"error":...} and exits 1.
//
//   perfprobe setup-iter <tensor.tns> --ranks R1,R2,.. --iters K --threads T
//                        --seed S [--history-dir D]
//       Replays what `mdcp_cli decompose --engine auto --tol 0` does before
//       its first iteration (parse, history ingest + report header when D is
//       given, AutoEngine::prepare with the CLI's defaults), then cp_als on
//       the prepared engine; once per rank, in order, into one history dir.
//   perfprobe layers <tensor.tns> (same options) --trace-out F.json
//       The traced per-layer run: the same sequence with each layer timed
//       from outside through its public call, plus standalone MTTKRP sweeps
//       of the auto engine and of every fixed engine, and a replayed dense
//       update. Spans go to obs::Tracer and are written to F.json at the end.
//   perfprobe reference <tensor.tns> --ranks .. --iters K --threads T --seed S
//       cp_als with the coo engine; prints each rank's fit from residual_norm.
//   perfprobe check <tensor.tns> --prefixes P1,P2,.. --ranks R1,R2,..
//       For each (P, R): parses P.lambda and P.U<m> strictly (in parallel),
//       requires finite values, and recomputes the fit with residual_norm.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "mdcp.hpp"

namespace {

using namespace mdcp;
using mdcp::mode_t;  // not the POSIX mode_t from <sys/types.h>

struct Options {
  std::string command;
  std::string tns;
  std::vector<index_t> ranks;
  int iters = 0;
  int threads = 1;
  std::uint64_t seed = 1;
  std::string history_dir;
  std::string trace_out;
  std::vector<std::string> prefixes;
};

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(tok);
  return out;
}

Options parse_options(int argc, char** argv) {
  if (argc < 3) throw std::runtime_error("usage: perfprobe <command> <tns> ...");
  Options o;
  o.command = argv[1];
  o.tns = argv[2];
  for (int i = 3; i < argc; i += 2) {
    if (i + 1 >= argc)
      throw std::runtime_error(std::string("missing value for ") + argv[i]);
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--ranks") {
      for (const std::string& tok : split_list(v))
        o.ranks.push_back(static_cast<index_t>(std::stoul(tok)));
    } else if (k == "--iters") {
      o.iters = std::stoi(v);
    } else if (k == "--threads") {
      o.threads = std::stoi(v);
    } else if (k == "--seed") {
      o.seed = std::stoull(v);
    } else if (k == "--history-dir") {
      o.history_dir = v;
    } else if (k == "--trace-out") {
      o.trace_out = v;
    } else if (k == "--prefixes") {
      o.prefixes = split_list(v);
    } else {
      throw std::runtime_error("unknown option " + k);
    }
  }
  if (o.ranks.empty()) throw std::runtime_error("need --ranks");
  return o;
}

// Runs `fn` and returns its wall seconds. The interval is also recorded as a
// span named `name` when the tracer is on, so the trace file and the printed
// numbers are one measurement.
template <class Fn>
double timed(const std::string& name, Fn&& fn) {
  const std::uint64_t t0 = obs::clock_ns();
  fn();
  const std::uint64_t dur = obs::clock_ns() - t0;
  if (obs::Tracer::instance().enabled())
    obs::Tracer::instance().record(name.c_str(), t0, dur, nullptr, 0);
  return static_cast<double>(dur) * 1e-9;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// State of one `mdcp_cli decompose` run up to its first ALS iteration.
// Member order matters: the engine points at the tensor and the history.
struct Run {
  CooTensor tensor;
  obs::HistoryStore history;
  std::unique_ptr<obs::RunReporter> reporter;
  std::unique_ptr<AutoEngine> engine;
};

TunerOptions tuner_options(const Options& o, const Run& run) {
  TunerOptions t;
  t.use_history = !o.history_dir.empty();
  t.history = o.history_dir.empty() ? nullptr : &run.history;
  t.trust.min_weight = 1.0;
  return t;
}

void parse_tensor(const Options& o, Run& run) {
  TnsReadOptions io;
  io.strict = true;
  run.tensor = read_tns_file(o.tns, {}, io);
}

void ingest_history(const Options& o, Run& run) {
  std::filesystem::create_directories(o.history_dir);
  run.history.ingest_dir(o.history_dir);
}

void open_report(const Options& o, Run& run) {
  const std::string path = o.history_dir + "/run-" +
                           std::to_string(obs::clock_ns()) + "-" +
                           std::to_string(::getpid()) + ".jsonl";
  run.reporter = std::make_unique<obs::RunReporter>(path);
  if (!run.reporter->ok()) throw std::runtime_error("cannot write " + path);
  run.reporter->write_header(run.tensor, "decompose", num_threads());
}

void prepare_engine(const Options& o, Run& run, index_t rank) {
  KernelContext ctx;
  ctx.mem_budget = 0;
  run.engine = std::make_unique<AutoEngine>(false, 0, CostModelParams{}, 3,
                                            ctx, tuner_options(o, run));
  run.engine->prepare(run.tensor, rank);
}

CpAlsOptions als_options(const Options& o, Run& run, index_t rank) {
  CpAlsOptions opt;
  opt.rank = rank;
  opt.max_iterations = o.iters;
  opt.tolerance = 0;
  opt.seed = o.seed;
  opt.engine_name = "auto";
  opt.reporter = run.reporter.get();
  if (!o.history_dir.empty()) {
    opt.history = &run.history;
    opt.use_history = true;
    opt.history_min_weight = 1.0;
  }
  return opt;
}

std::uintmax_t close_report(Run& run) {
  if (!run.reporter) return 0;
  if (!run.reporter->close())
    throw std::runtime_error("cannot finalize " + run.reporter->path());
  return std::filesystem::file_size(run.reporter->path());
}

void print_failure(const std::string& what) {
  obs::JsonWriter w;
  w.begin_object().kv("ok", false).kv("error", what).end_object();
  std::printf("%s\n", w.str().c_str());
}

int cmd_setup_iter(const Options& o) {
  obs::JsonWriter w;
  w.begin_object().kv("ok", true).key("runs").begin_array();
  for (index_t rank : o.ranks) {
    Run run;
    const double setup = timed("setup", [&] {
      parse_tensor(o, run);
      if (!o.history_dir.empty()) {
        ingest_history(o, run);
        open_report(o, run);
      }
      prepare_engine(o, run, rank);
    });
    const CpAlsOptions opt = als_options(o, run, rank);
    CpAlsResult res;
    const double als =
        timed("cpals.als", [&] { res = cp_als(run.tensor, *run.engine, opt); });
    close_report(run);
    w.begin_object()
        .kv("rank", static_cast<std::uint64_t>(rank))
        .kv("setup_s", setup)
        .kv("als_s", als)
        .kv("iterations", res.iterations)
        .kv("fit", static_cast<double>(res.final_fit()))
        .end_object();
  }
  w.end_array().end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// The untimed reference: cp_als with the coo engine, fit by residual_norm.
int cmd_reference(const Options& o) {
  TnsReadOptions io;
  io.strict = true;
  const CooTensor x = read_tns_file(o.tns, {}, io);
  obs::JsonWriter w;
  w.begin_object().kv("ok", true).key("runs").begin_array();
  for (index_t rank : o.ranks) {
    CpAlsOptions opt;
    opt.rank = rank;
    opt.max_iterations = o.iters;
    opt.tolerance = 0;
    opt.seed = o.seed;
    opt.engine_name = "coo";
    const CpAlsResult res = cp_als(x, opt);
    const double fit = 1.0 - static_cast<double>(residual_norm(x, res.model)) /
                                 static_cast<double>(x.norm());
    w.begin_object()
        .kv("rank", static_cast<std::uint64_t>(rank))
        .kv("fit", fit)
        .end_object();
  }
  w.end_array().end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// --- layers -----------------------------------------------------------------

struct Sweep {
  double seconds = 0;
  std::vector<double> mode_seconds;
  std::uint64_t flops = 0;           ///< KernelStats delta, one sweep
  std::uint64_t metric_calls = 0;    ///< kernel.compute_calls delta
  std::uint64_t metric_flops = 0;    ///< kernel.flops delta
};

constexpr int kSweepReps = 3;

// One warm-up sweep, then kSweepReps timed sweeps in CP-ALS order (compute
// then factor_updated per mode). Reports medians; the counter deltas come
// from the first timed sweep.
Sweep time_sweeps(MttkrpEngine& engine, const std::vector<Matrix>& factors,
                  const std::string& label) {
  const mode_t order = static_cast<mode_t>(factors.size());
  Matrix out;
  auto& metrics = obs::MetricsRegistry::instance();
  obs::Counter& calls = metrics.counter("kernel.compute_calls");
  obs::Counter& flops = metrics.counter("kernel.flops");
  for (mode_t m = 0; m < order; ++m) {
    engine.compute(m, factors, out);
    engine.factor_updated(m);
  }
  Sweep s;
  std::vector<double> totals;
  std::vector<std::vector<double>> per_mode(order);
  for (int rep = 0; rep < kSweepReps; ++rep) {
    const std::uint64_t flops_before = engine.stats().flops;
    const std::uint64_t calls_before = calls.value();
    const std::uint64_t mflops_before = flops.value();
    const double total = timed(label, [&] {
      for (mode_t m = 0; m < order; ++m) {
        per_mode[m].push_back(timed(label + ".mode" + std::to_string(m), [&] {
          engine.compute(m, factors, out);
          engine.factor_updated(m);
        }));
      }
    });
    totals.push_back(total);
    if (rep == 0) {
      s.flops = engine.stats().flops - flops_before;
      s.metric_calls = calls.value() - calls_before;
      s.metric_flops = flops.value() - mflops_before;
    }
  }
  s.seconds = median(totals);
  for (mode_t m = 0; m < order; ++m) s.mode_seconds.push_back(median(per_mode[m]));
  return s;
}

struct DenseTimes {
  double hadamard = 0, solve = 0, normalize = 0, gram = 0;
  int retries = 0;
};

// Replays kSweepReps ALS iterations through the public dense calls, on the
// engine's real MTTKRP output, timing each dense step from outside.
DenseTimes time_dense(MttkrpEngine& engine, std::vector<Matrix> factors,
                      index_t rank) {
  const mode_t order = static_cast<mode_t>(factors.size());
  std::vector<Matrix> grams(order);
  for (mode_t m = 0; m < order; ++m) gram(factors[m], grams[m]);
  Matrix out, h;
  std::vector<double> had, sol, nrm, grm;
  DenseTimes d;
  for (int rep = 0; rep < kSweepReps; ++rep) {
    double th = 0, ts = 0, tn = 0, tg = 0;
    timed("la.update", [&] {
      for (mode_t n = 0; n < order; ++n) {
        timed("la.mttkrp_input", [&] { engine.compute(n, factors, out); });
        th += timed("la.hadamard", [&] {
          h.resize(rank, rank, 1);
          for (mode_t i = 0; i < order; ++i)
            if (i != n) hadamard_inplace(h, grams[i]);
        });
        SolveInfo info;
        ts += timed("la.solve",
                    [&] { factors[n] = solve_normal_equations(h, out, &info); });
        d.retries += info.ridge_retries + (info.used_pseudo_inverse ? 1 : 0);
        tn += timed("la.normalize", [&] { column_normalize(factors[n]); });
        tg += timed("la.gram", [&] { gram(factors[n], grams[n]); });
        engine.factor_updated(n);
      }
    });
    had.push_back(th);
    sol.push_back(ts);
    nrm.push_back(tn);
    grm.push_back(tg);
  }
  d.hadamard = median(had);
  d.solve = median(sol);
  d.normalize = median(nrm);
  d.gram = median(grm);
  return d;
}

bool fixed_engine(const std::string& name) {
  // ttv-chain is 55-150x slower than the rest and would dominate the run;
  // the auto* names are the model-driven engine measured separately.
  return name != "ttv-chain" && name.rfind("auto", 0) != 0;
}

int cmd_layers(const Options& o) {
  const int threads = num_threads();
  auto& tracer = obs::Tracer::instance();
  if (!o.trace_out.empty()) {
    // Room for every span of the run: on overflow the ring drops the oldest
    // spans, which would be the outer layer spans.
    tracer.set_ring_capacity(std::size_t{1} << 16);
    tracer.set_process_name("perfprobe layers");
    tracer.set_current_thread_name("main");
    tracer.set_enabled(true);
  }
  obs::JsonWriter w;
  w.begin_object().kv("ok", true).kv("threads", threads).key("runs").begin_array();
  for (index_t rank : o.ranks) {
    Run run;
    const double parse = timed("tensor.parse", [&] { parse_tensor(o, run); });
    double ingest = 0, header = 0;
    if (!o.history_dir.empty()) {
      ingest = timed("obs.history_ingest", [&] { ingest_history(o, run); });
      header = timed("obs.report_header", [&] { open_report(o, run); });
    }
    const double prepare =
        timed("mttkrp.prepare", [&] { prepare_engine(o, run, rank); });
    // Before cp_als, which records its run into the history store.
    TunerReport selection;
    const double select = timed("model.select", [&] {
      selection = select_strategy(run.tensor, rank, 0, CostModelParams{},
                                  tuner_options(o, run));
    });
    // The op's own sequence comes first, so that its traced wall time
    // compares with the untraced setup_s + iterations x iter_s.
    const CpAlsOptions opt = als_options(o, run, rank);
    CpAlsResult res;
    AutoEngine& engine = *run.engine;
    const double als =
        timed("cpals.als", [&] { res = cp_als(run.tensor, engine, opt); });
    const std::uintmax_t report_bytes = close_report(run);

    engine.invalidate_all();  // memoized state of cp_als's factors
    Rng rng(o.seed);
    std::vector<Matrix> factors;
    for (mode_t m = 0; m < run.tensor.order(); ++m)
      factors.push_back(Matrix::random_uniform(run.tensor.dim(m), rank, rng));

    const Sweep sweep = time_sweeps(engine, factors, "mttkrp.sweep");
    set_num_threads(1);
    const Sweep sweep_t1 = time_sweeps(engine, factors, "mttkrp.sweep_t1");
    set_num_threads(threads);
    const DenseTimes dense = time_dense(engine, factors, rank);

    w.begin_object()
        .kv("rank", static_cast<std::uint64_t>(rank))
        .kv("order", static_cast<std::uint64_t>(run.tensor.order()))
        .kv("engine", engine.name())
        .kv("parse_s", parse)
        .kv("history_ingest_s", ingest)
        .kv("report_header_s", header)
        .kv("select_s", select)
        .kv("candidates", static_cast<std::uint64_t>(selection.ranked.size()))
        .kv("predicted_s", selection.winner().prediction.seconds_per_iteration)
        .kv("prepare_s", prepare)
        .kv("sweep_s", sweep.seconds)
        .kv("sweep_s_t1", sweep_t1.seconds)
        .kv("flops", sweep.flops)
        .kv("metric_compute_calls", sweep.metric_calls)
        .kv("metric_flops", sweep.metric_flops)
        .kv("engine_bytes", static_cast<std::uint64_t>(engine.peak_memory_bytes()))
        .kv("scratch_bytes",
            static_cast<std::uint64_t>(engine.stats().peak_scratch_bytes))
        .kv("degradations", engine.stats().degradations)
        .kv("hadamard_s", dense.hadamard)
        .kv("solve_s", dense.solve)
        .kv("normalize_s", dense.normalize)
        .kv("gram_s", dense.gram)
        .kv("la_retries", dense.retries);
    w.key("mode_s").begin_array();
    for (double s : sweep.mode_seconds) w.value(s);
    w.end_array();

    w.key("fixed").begin_array();
    for (const std::string& name : EngineRegistry::instance().names()) {
      if (!fixed_engine(name)) continue;
      auto fixed = make_engine(name, KernelContext{});
      const double fixed_prepare = timed("mttkrp." + name + ".prepare",
                                         [&] { fixed->prepare(run.tensor, rank); });
      const Sweep fs = time_sweeps(*fixed, factors, "mttkrp." + name + ".sweep");
      w.begin_object()
          .kv("name", name)
          .kv("prepare_s", fixed_prepare)
          .kv("sweep_s", fs.seconds)
          .kv("engine_bytes",
              static_cast<std::uint64_t>(fixed->peak_memory_bytes()))
          .end_object();
    }
    w.end_array();
    w.kv("als_s", als)
        .kv("iterations", res.iterations)
        .kv("cpals_mttkrp_s", res.mttkrp_seconds)
        .kv("cpals_dense_s", res.dense_seconds)
        .kv("cpals_fit_s", res.fit_seconds)
        .kv("cpals_recoveries", res.recoveries)
        .kv("report_bytes", static_cast<std::uint64_t>(report_bytes))
        .kv("traced_wall_s", parse + ingest + header + prepare + als)
        .end_object();
  }
  w.end_array();
  if (!o.trace_out.empty()) {
    tracer.set_enabled(false);
    if (!tracer.write_chrome_json(o.trace_out))
      throw std::runtime_error("cannot write " + o.trace_out);
    w.kv("trace_events", tracer.retained_events())
        .kv("trace_dropped", tracer.dropped_events());
  }
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// --- check ------------------------------------------------------------------

// Reads `rows` lines of exactly `cols` finite numbers each.
Matrix read_factor_file(const std::string& path, index_t rows, index_t cols,
                        std::uintmax_t& bytes) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("missing " + path);
  bytes += std::filesystem::file_size(path);
  Matrix m(rows, cols);
  std::string line;
  for (index_t i = 0; i < rows; ++i) {
    if (!std::getline(is, line))
      throw std::runtime_error(path + ": too few rows");
    const char* p = line.c_str();
    for (index_t r = 0; r < cols; ++r) {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      if (end == p) throw std::runtime_error(path + ": short row " + std::to_string(i));
      if (!std::isfinite(v))
        throw std::runtime_error(path + ": non-finite value in row " + std::to_string(i));
      m(i, r) = static_cast<real_t>(v);
      p = end;
    }
    while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
    if (*p != '\0') throw std::runtime_error(path + ": long row " + std::to_string(i));
  }
  while (std::getline(is, line))
    if (!line.empty()) throw std::runtime_error(path + ": too many rows");
  return m;
}

// One factor file to read: `rows` lines of `cols` numbers.
struct FactorFile {
  std::string path;
  index_t rows = 0;
  index_t cols = 0;
  Matrix values;
  std::uintmax_t bytes = 0;
  std::string error;
};

int cmd_check(const Options& o) {
  if (o.prefixes.size() != o.ranks.size())
    throw std::runtime_error("need one --prefixes entry per rank");
  TnsReadOptions io;
  io.strict = true;
  const CooTensor x = read_tns_file(o.tns, {}, io);
  // Per rank: P.lambda, then P.U0 .. P.U<order-1>.
  std::vector<FactorFile> files;
  for (std::size_t k = 0; k < o.ranks.size(); ++k) {
    files.push_back(FactorFile{o.prefixes[k] + ".lambda", o.ranks[k], 1, {}, 0, {}});
    for (mode_t m = 0; m < x.order(); ++m)
      files.push_back(FactorFile{o.prefixes[k] + ".U" + std::to_string(m),
                                 x.dim(m), o.ranks[k], {}, 0, {}});
  }
  parallel_for_dynamic(files.size(), [&](nnz_t i) {
    FactorFile& f = files[i];
    try {
      f.values = read_factor_file(f.path, f.rows, f.cols, f.bytes);
    } catch (const std::exception& e) {
      f.error = e.what();
    }
  }, 1);
  for (const FactorFile& f : files)
    if (!f.error.empty()) throw std::runtime_error(f.error);

  obs::JsonWriter w;
  w.begin_object().kv("ok", true).key("runs").begin_array();
  const std::size_t per_rank = 1 + x.order();
  for (std::size_t k = 0; k < o.ranks.size(); ++k) {
    const FactorFile* f = &files[k * per_rank];
    KruskalTensor model;
    for (index_t r = 0; r < o.ranks[k]; ++r)
      model.weights.push_back(f[0].values(r, 0));
    std::uintmax_t bytes = f[0].bytes;
    for (mode_t m = 0; m < x.order(); ++m) {
      model.factors.push_back(f[1 + m].values);
      bytes += f[1 + m].bytes;
    }
    model.validate();
    const double fit = 1.0 - static_cast<double>(residual_norm(x, model)) /
                                 static_cast<double>(x.norm());
    if (!std::isfinite(fit)) throw std::runtime_error("non-finite recomputed fit");
    w.begin_object()
        .kv("rank", static_cast<std::uint64_t>(o.ranks[k]))
        .kv("fit", fit)
        .kv("factor_bytes", static_cast<std::uint64_t>(bytes))
        .end_object();
  }
  w.end_array().end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_options(argc, argv);
    set_num_threads(o.threads);
    if (o.command == "setup-iter") return cmd_setup_iter(o);
    if (o.command == "layers") return cmd_layers(o);
    if (o.command == "check") return cmd_check(o);
    if (o.command == "reference") return cmd_reference(o);
    throw std::runtime_error("unknown command " + o.command);
  } catch (const std::exception& e) {
    print_failure(e.what());
    return 1;
  }
}
