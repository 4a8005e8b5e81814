#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `mdcp_cli decompose`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tags4-zipf --seed 1 --seconds 20 --trace 0

It builds mdcp_cli and perfbench/probe.cpp into .bench_build (or
$CARGO_TARGET_DIR), generates the workload's tensor from --seed, runs a
coo reference decomposition and one discarded warm-up op, then runs ops in a
closed loop with one client for --seconds. One op is the workload's
`mdcp_cli decompose` child process(es), timed from spawn to exit with peak RSS
from wait4, followed by the output checks and one untraced `perfprobe
setup-iter` child that times setup and ALS through the library API. With
--trace 1 a traced `perfprobe layers` run follows the timed ops and the
per-layer metrics are reported instead of the end-to-end ones. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

See perfbench/README.md for the workloads, the metrics and what each should
move.
"""
import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = {
    # Four long modes with few nonzeros per row: the dense update and the
    # ~18 MB factor write dominate; memoization has little to reuse.
    "tags4-zipf": dict(kind="zipf", shape="500x20000x80000x30000",
                       nnz=117000, ranks=[16], iters=30, history=False),
    # Order 6 with strong index overlap (the paper's regime): MTTKRP,
    # memoization, the tuner and the symbolic prepare dominate.
    "ehr6-clustered": dict(kind="clustered", shape="x".join(["8000"] * 6),
                           nnz=200000, ranks=[16], iters=30, history=False),
    # "Which rank?" exploration: four short decompositions sharing one fresh
    # history store, so parse/tuner/prepare and history I/O repeat per rank,
    # and the ranks cover every microkernel tile width (8; 16 + tail; 32).
    "kb3-rank-sweep": dict(kind="zipf", shape="2000x50000x400", nnz=300000,
                           ranks=[8, 20, 32, 64], iters=5, history=True),
}

# Fits are compared to this absolute tolerance (the CLI prints 6 decimals).
FIT_TOL = 1e-6
# A child that runs longer than this counts as a failed op.
CHILD_TIMEOUT_S = 60.0
# Stop starting ops after this many seconds of the whole run, so the run
# ends well inside 180 s even on a slow host.
RUN_DEADLINE_S = 110.0
MIN_OPS = 3
# Seed of every workload's sparsity pattern (see make_input).
PATTERN_SEED = 1
# Reconciliation bounds (see README.md): how far the outside-timed layer sum
# and cp_als's own phase split may sit from the untraced medians.
LAYERS_GAP_BOUND = 0.25
CPALS_GAP_BOUND = 0.10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build(build_dir, threads):
    """Configures (once) and builds mdcp_cli and perfprobe. Returns paths."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(threads),
                    "--target", "mdcp_cli", "perfprobe"],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)
    cli = os.path.join(build_dir, "mdcp", "tools", "mdcp_cli")
    probe = os.path.join(build_dir, "perfprobe")
    for p in (cli, probe):
        if not os.access(p, os.X_OK):
            raise BenchError("build did not produce " + p)
    return cli, probe


def spawn(cmd, cwd, out_path, timeout=CHILD_TIMEOUT_S):
    """Runs one child to exit. Returns (wall_s, returncode, maxrss_kib,
    stdout). A child past `timeout` is killed and reported as rc None."""
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=out,
                                stderr=subprocess.STDOUT)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            proc.returncode = -9
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    rc = None if timed_out.is_set() else proc.returncode
    return wall, rc, usage.ru_maxrss, text


def probe_json(text):
    lines = [l for l in text.splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError("probe printed no JSON: " + text[-300:])
    return json.loads(lines[-1])


def printed_fit(text):
    for line in text.splitlines():
        if line.startswith("final fit:"):
            return float(line.split(":", 1)[1])
    raise BenchError("no 'final fit:' line in mdcp_cli output")


class Bench:
    def __init__(self, cli, probe, work, threads):
        self.cli = cli
        self.probe = probe
        self.work = work
        self.threads = threads

    def run_child(self, cmd, name):
        wall, rc, rss, text = spawn(cmd, self.work,
                                    os.path.join(self.work, name + ".out"))
        if rc is None:
            raise BenchError("%s timed out after %.0f s" % (name, CHILD_TIMEOUT_S))
        if rc != 0:
            raise BenchError("%s exited %d: %s" % (name, rc, text[-300:]))
        return wall, rss, text

    def check_factors(self, tns, runs):
        """Parses the written factors of `runs` and recomputes each fit
        (residual_norm). Returns [(fit, factor_bytes)] in the order of `runs`.
        Raises BenchError on a missing, malformed or non-finite file."""
        _, _, text = self.run_child(
            [self.probe, "check", tns,
             "--prefixes", ",".join(r["prefix"] for r in runs),
             "--ranks", ",".join(str(r["rank"]) for r in runs),
             "--threads", str(self.threads)], "check")
        res = probe_json(text)
        if not res.get("ok"):
            raise BenchError("output check: " + res.get("error", "?"))
        return [(c["fit"], c["factor_bytes"]) for c in res["runs"]]

    def decompose(self, wl, tns, seed, tag):
        """One pass of the workload through mdcp_cli. Returns per-rank
        results plus the summed wall time and the max RSS."""
        opdir = os.path.join(self.work, tag)
        shutil.rmtree(opdir, ignore_errors=True)
        os.makedirs(opdir)
        runs, wall_sum, rss_max = [], 0.0, 0
        for rank in wl["ranks"]:
            prefix = os.path.join(opdir, "f%d" % rank)
            cmd = [self.cli, "decompose", tns, "--rank", str(rank),
                   "--iters", str(wl["iters"]), "--tol", "0",
                   "--engine", "auto", "--threads", str(self.threads),
                   "--seed", str(seed), "--out-prefix", prefix]
            if wl["history"]:
                cmd += ["--history-dir", os.path.join(opdir, "hist")]
            wall, rss, text = self.run_child(cmd, "decompose")
            wall_sum += wall
            rss_max = max(rss_max, rss)
            runs.append(dict(rank=rank, prefix=prefix, fit=printed_fit(text)))
        return runs, wall_sum, rss_max

    def run_probe(self, command, wl, tns, seed, *extra, history_dir=None):
        """Runs `perfprobe <command>` with the workload's options and returns
        its JSON result."""
        cmd = [self.probe, command, tns,
               "--ranks", ",".join(str(r) for r in wl["ranks"]),
               "--iters", str(wl["iters"]), "--threads", str(self.threads),
               "--seed", str(seed)] + list(extra)
        if history_dir:
            shutil.rmtree(history_dir, ignore_errors=True)
            cmd += ["--history-dir", history_dir]
        _, _, text = self.run_child(cmd, command)
        res = probe_json(text)
        if not res.get("ok"):
            raise BenchError("%s: %s" % (command, res.get("error", "?")))
        return res

    def setup_iter(self, wl, tns, seed, tag):
        hist = os.path.join(self.work, tag + "-probe-hist") if wl["history"] else None
        return self.run_probe("setup-iter", wl, tns, seed, history_dir=hist)["runs"]

    def reference_fits(self, wl, tns, seed):
        """Fits of the untimed coo reference run, by rank."""
        runs = self.run_probe("reference", wl, tns, seed)["runs"]
        return {r["rank"]: r["fit"] for r in runs}


def check_op(bench, tns, runs, ref_fits):
    """The output checks of one op. Returns the mean fit recomputed from the
    written factors and the factor bytes. Raises BenchError on the first
    failed check."""
    factor_bytes, fits = 0, []
    for r, (fit, nbytes) in zip(runs, bench.check_factors(tns, runs)):
        factor_bytes += nbytes
        fits.append(fit)
        if abs(fit - r["fit"]) > FIT_TOL:
            raise BenchError("rank %d: fit from the written factors %.9f != "
                             "printed %.9f" % (r["rank"], fit, r["fit"]))
        ref = ref_fits[r["rank"]]
        if abs(fit - ref) > FIT_TOL:
            raise BenchError("rank %d: fit %.9f != coo reference %.9f"
                             % (r["rank"], fit, ref))
    return statistics.fmean(fits), factor_bytes


def run_op(bench, wl, tns, seed, ref_fits, tag):
    """One op: the decompose child(ren), the output checks (skipped when
    `ref_fits` is None, for the warm-up) and the setup-iter probe."""
    t0 = time.perf_counter()
    runs, wall, rss = bench.decompose(wl, tns, seed, tag)
    t1 = time.perf_counter()
    fit, factor_bytes = (check_op(bench, tns, runs, ref_fits) if ref_fits
                         else (float("nan"), 0))
    shutil.rmtree(os.path.join(bench.work, tag), ignore_errors=True)
    t2 = time.perf_counter()
    probe = bench.setup_iter(wl, tns, seed, tag)
    t3 = time.perf_counter()
    log("%s: decompose %.3f s, check %.3f s, probe %.3f s: setup %s als %s"
        % (tag, t1 - t0, t2 - t1, t3 - t2,
           [round(p["setup_s"], 3) for p in probe], [round(p["als_s"], 3) for p in probe]))
    iters = sum(p["iterations"] for p in probe)
    if iters != wl["iters"] * len(wl["ranks"]):
        raise BenchError("setup-iter ran %d iterations" % iters)
    return dict(
        decompose_s=wall,
        peak_rss_mib=rss / 1024.0,
        fit=fit,
        setup_s=sum(p["setup_s"] for p in probe),
        iter_s=sum(p["als_s"] for p in probe) / iters,
        factor_bytes=factor_bytes,
    )


def span_self_times(trace_path):
    """Per span name: count, total and self seconds. A span's parent is the
    innermost span on the same thread that contains it; its self time is its
    duration minus what its direct children cover."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    agg = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        child_cover = {}
        for i, e in enumerate(evs):
            while stack and e["ts"] >= evs[stack[-1]]["ts"] + evs[stack[-1]]["dur"]:
                stack.pop()
            if stack:
                child_cover[stack[-1]] = child_cover.get(stack[-1], 0.0) + e["dur"]
            stack.append(i)
        for i, e in enumerate(evs):
            a = agg.setdefault(e["name"], [0, 0.0, 0.0])
            a[0] += 1
            a[1] += e["dur"] * 1e-6
            a[2] += (e["dur"] - min(e["dur"], child_cover.get(i, 0.0))) * 1e-6
    return agg


def layer_metrics(layers, e2e, wl, threads, factor_bytes):
    """Per-layer metrics from the traced probe run. `e2e` holds the untraced
    medians. Per-iteration layers are means over the workload's ranks (the
    way iter_s averages); per-op layers are sums; ratios use the sums.
    Returns (metrics, extra, gaps): `extra` holds the ones that exist only on
    some workloads (modes past 2, history I/O); `gaps` the signed
    reconciliation gaps."""
    runs = layers["runs"]
    n = len(runs)

    def tot(key):
        return sum(r[key] for r in runs)

    iters = tot("iterations")
    m, extra = {}, {}
    m["tensor.parse_s"] = (tot("parse_s"), "s")
    m["model.select_s"] = (tot("select_s"), "s")
    m["model.candidates"] = (tot("candidates") / n, "count")
    m["model.pred_ratio"] = (tot("predicted_s") / tot("sweep_s"), "ratio")
    best_fixed = sum(min(f["sweep_s"] for f in r["fixed"]) for r in runs)
    m["model.regret"] = (tot("sweep_s") / best_fixed, "ratio")
    m["mttkrp.prepare_s"] = (tot("prepare_s"), "s")
    m["mttkrp.sweep_s"] = (tot("sweep_s") / n, "s")
    order = runs[0]["order"]
    for mode in range(order):
        v = (sum(r["mode_s"][mode] for r in runs) / n, "s")
        (m if mode < 3 else extra)["mttkrp.mode%d_s" % mode] = v
    m["mttkrp.sweep_s_t1"] = (tot("sweep_s_t1") / n, "s")
    m["mttkrp.par_eff"] = (tot("sweep_s_t1") / (threads * tot("sweep_s")), "ratio")
    m["mttkrp.flops"] = (tot("flops") / n, "count")
    m["mttkrp.gflops"] = (tot("flops") / tot("sweep_s") / 1e9, "GFLOP/s")
    m["mttkrp.engine_mib"] = (max(r["engine_bytes"] for r in runs) / 2**20, "MiB")
    m["mttkrp.scratch_kib"] = (max(r["scratch_bytes"] for r in runs) / 1024, "KiB")
    m["mttkrp.degradations"] = (tot("degradations"), "count")
    for name in [f["name"] for f in runs[0]["fixed"]]:
        fs = [f for r in runs for f in r["fixed"] if f["name"] == name]
        m["mttkrp.%s.prepare_s" % name] = (sum(f["prepare_s"] for f in fs), "s")
        m["mttkrp.%s.sweep_s" % name] = (sum(f["sweep_s"] for f in fs) / n, "s")
        m["mttkrp.%s.engine_mib" % name] = (
            max(f["engine_bytes"] for f in fs) / 2**20, "MiB")
    dense = 0.0
    for part in ("hadamard", "solve", "normalize", "gram"):
        v = tot(part + "_s") / n
        dense += v
        m["la.%s_s" % part] = (v, "s")
    m["la.dense_s"] = (dense, "s")
    m["la.retries"] = (tot("la_retries"), "count")
    m["cpals.mttkrp_s"] = (tot("cpals_mttkrp_s") / iters, "s")
    m["cpals.dense_s"] = (tot("cpals_dense_s") / iters, "s")
    m["cpals.fit_s"] = (tot("cpals_fit_s") / iters, "s")
    m["cpals.recoveries"] = (tot("cpals_recoveries"), "count")
    if wl["history"]:
        extra["obs.history_ingest_s"] = (tot("history_ingest_s"), "s")
        extra["obs.report_bytes"] = (tot("report_bytes"), "bytes")
    m["obs.compute_calls_per_mode"] = (
        tot("metric_compute_calls") / sum(r["order"] for r in runs), "ratio")
    m["obs.flops_ratio"] = (tot("metric_flops") / tot("flops"), "ratio")

    untraced = e2e["setup_s"] + iters * e2e["iter_s"]
    m["cli.residual_s"] = (e2e["decompose_s"] - untraced, "s")
    m["cli.factor_bytes"] = (factor_bytes, "bytes")
    m["bench.trace_overhead_s"] = (tot("traced_wall_s") - untraced, "s")
    layer_sum = sum(
        r["parse_s"] + r["history_ingest_s"] + r["report_header_s"] + r["prepare_s"]
        + r["iterations"] * (r["sweep_s"] + r["hadamard_s"] + r["solve_s"]
                             + r["normalize_s"] + r["gram_s"])
        for r in runs)
    cpals_sum = tot("cpals_mttkrp_s") + tot("cpals_dense_s") + tot("cpals_fit_s")
    gaps = {"bench.layers_gap": layer_sum / untraced - 1.0,
            "bench.cpals_gap": cpals_sum / (iters * e2e["iter_s"]) - 1.0}
    for name, gap in gaps.items():
        m[name] = (abs(gap), "frac")
    return m, extra, gaps


def provenance(bench, wl, tns_bytes, nnz, order, factor_bytes):
    info = subprocess.run([bench.cli, "info"], capture_output=True, text=True,
                          check=True).stdout
    fields = dict(l.split(":", 1) for l in info.splitlines() if ":" in l)

    def getconf(name):
        r = subprocess.run(["getconf", name], capture_output=True, text=True)
        return int(r.stdout.strip() or 0) if r.returncode == 0 else 0

    dims = [int(d) for d in wl["shape"].split("x")]
    return {
        "nproc": os.cpu_count(),
        "threads": bench.threads,
        "compiler": fields.get("compiler", "?").strip(),
        "build_type": fields.get("build type", "?").strip(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "tensor_file_bytes": tns_bytes,
        "tensor_nnz": nnz,
        # COO in memory: uint32 coordinates + double values.
        "tensor_mem_bytes": nnz * (4 * order + 8),
        "factor_mem_bytes": sum(sum(dims) * r * 8 for r in wl["ranks"]),
        "factor_file_bytes": factor_bytes,
    }


def make_input(bench, wl, seed, tns):
    """Writes the workload's tensor (not timed) and returns its nnz.

    The sparsity pattern comes from `mdcp_cli generate` with a fixed seed;
    `seed` scales each generated value by a factor drawn uniformly from
    [0.9, 1.1), which keeps the large sums of coalesced zipf duplicates, and
    is the ALS seed of the ops. Patterns drawn from different seeds made the
    tuner pick different trees: ALS time on ehr6-clustered moved by up to
    1.8x between seeds, more than any bound of this benchmark could absorb.
    Factors from [0.5, 1.5) moved the fit on tags4-zipf by 25%."""
    pattern = os.path.join(bench.work, "pattern.tns")
    _, _, text = bench.run_child(
        [bench.cli, "generate", "--kind", wl["kind"], "--shape", wl["shape"],
         "--nnz", str(wl["nnz"]), "--seed", str(PATTERN_SEED), "--out", pattern],
        "generate")
    rng = random.Random(seed)
    with open(pattern) as src, open(tns, "w") as dst:
        for line in src:
            coords, value = line.rsplit(None, 1)
            dst.write("%s %r\n" % (coords, float(value) * (0.9 + 0.2 * rng.random())))
    os.remove(pattern)
    return int(text.split("nnz=")[1].split()[0])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    wl = WORKLOADS[args.workload]
    threads = min(4, os.cpu_count() or 1)
    root = os.getcwd()
    # $CARGO_TARGET_DIR, when set, names the build directory of a checkout.
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cli, probe = build(build_dir, threads)

    work = os.path.join(root, ".bench_work", "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Everything runs in `work` and hands the children relative paths: their
    # allocation pattern, and so their peak RSS (by up to 20 MiB on
    # tags4-zipf), depends on the lengths of the paths they handle, which
    # must not depend on where the checkout lives.
    os.chdir(work)
    try:
        return measure(args, wl, Bench(cli, probe, ".", threads), root, t_start)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, bench, root, t_start):
    tns = os.path.join(bench.work, "x.tns")
    nnz = make_input(bench, wl, args.seed, tns)
    order = len(wl["shape"].split("x"))

    # Once-per-seed, untimed coo reference.
    ref_fits = bench.reference_fits(wl, tns, args.seed)

    # Discarded warm-up op: the first processes of a batch run slower.
    t0 = time.perf_counter()
    warm = run_op(bench, wl, tns, args.seed, None, "warmup")
    print("warm-up op: %.3f s wall (decompose_s %.4f s), not in the medians"
          % (time.perf_counter() - t0, warm["decompose_s"]))

    ops, failures = [], []
    t_loop = time.monotonic()
    attempted = 0
    while attempted < MIN_OPS or time.monotonic() - t_loop < args.seconds:
        if time.monotonic() - t_start > RUN_DEADLINE_S:
            break
        attempted += 1
        try:
            ops.append(run_op(bench, wl, tns, args.seed, ref_fits, "op"))
        except BenchError as e:
            failures.append(str(e))
            log("op %d failed: %s" % (attempted, e))
    if not ops:
        raise BenchError("every op failed; last: " + failures[-1])

    def med(key):
        return statistics.median(o[key] for o in ops)

    e2e = {k: med(k) for k in ("decompose_s", "setup_s", "iter_s",
                                "peak_rss_mib", "fit")}
    failed_frac = len(failures) / attempted
    print("ops: %d attempted, %d failed, closed loop, 1 client, %d threads"
          % (attempted, len(failures), bench.threads))
    for k in ("decompose_s", "setup_s", "iter_s", "peak_rss_mib"):
        vals = sorted(o[k] for o in ops)
        print("  %-14s median %.6g  min %.6g  max %.6g  (n=%d)"
              % (k, e2e[k], vals[0], vals[-1], len(vals)))
    factor_bytes = med("factor_bytes")
    prov = provenance(bench, wl, os.path.getsize(tns), nnz, order, factor_bytes)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    units = {"decompose_s": "s", "setup_s": "s", "iter_s": "s",
             "peak_rss_mib": "MiB", "fit": "ratio"}
    metrics = {k: (v, units[k]) for k, v in e2e.items()}
    extra = {"failed_frac": (failed_frac, "frac")}
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed))
        layers = bench.run_probe(
            "layers", wl, tns, args.seed, "--trace-out", os.path.relpath(trace_path),
            history_dir=os.path.join(bench.work, "layers-hist") if wl["history"] else None)
        per_layer, more, gaps = layer_metrics(layers, e2e, wl, bench.threads, factor_bytes)
        extra.update(more)
        print("trace: %s (%d spans, %d dropped)"
              % (os.path.relpath(trace_path, root), layers["trace_events"],
                 layers["trace_dropped"]))
        agg = span_self_times(trace_path)
        print("  %-34s %6s %10s %10s" % ("span", "count", "total_s", "self_s"))
        for name, (cnt, total, self_s) in sorted(agg.items(), key=lambda kv: -kv[1][2])[:20]:
            print("  %-34s %6d %10.4f %10.4f" % (name, cnt, total, self_s))
        for name, bound in (("bench.layers_gap", LAYERS_GAP_BOUND),
                            ("bench.cpals_gap", CPALS_GAP_BOUND)):
            gap = gaps[name]
            print("reconciliation: %s = %+.3f (bound %.2f): %s"
                  % (name, gap, bound, "ok" if abs(gap) <= bound else "OUT OF BOUND"))
        metrics.update(per_layer)
    for k, (v, unit) in sorted(metrics.items()) + sorted(extra.items()):
        print("metric %-34s %.6g %s" % (k, v, unit))

    if args.trace:
        reported = dict(per_layer, failed_frac=extra["failed_frac"])
    else:
        reported = {k: metrics[k] for k in units}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }))
    return 0


def terminate(signum, _frame):
    # Unwinds through spawn(), which kills and reaps the running child.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, terminate)
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        sys.exit(2)
