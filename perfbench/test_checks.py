#!/usr/bin/env python3
"""Tests of the benchmark's output checks: an intact decomposition passes,
and a perturbed, non-finite, truncated or missing factor file is a failure.

Run from the root of a checkout (builds into .bench_build like run.py):

    python3 perfbench/test_checks.py
"""
import os
import shutil
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOAD = dict(kind="zipf", shape="30x40x50x20", nnz=3000, ranks=[4, 9],
                iters=5, history=True)
SEED = 3


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        root = os.getcwd()
        threads = min(4, os.cpu_count() or 1)
        cli, probe = run.build(
            os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
            threads)
        cls.work = os.path.join(root, ".bench_work", "test-checks-%d" % os.getpid())
        os.makedirs(cls.work)
        cls.bench = run.Bench(cli, probe, cls.work, threads)
        cls.tns = os.path.join(cls.work, "x.tns")
        cls.bench.run_child(
            [cli, "generate", "--kind", WORKLOAD["kind"], "--shape", WORKLOAD["shape"],
             "--nnz", str(WORKLOAD["nnz"]), "--seed", str(SEED), "--out", cls.tns],
            "generate")
        cls.ref_fits = cls.bench.reference_fits(WORKLOAD, cls.tns, SEED)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def decompose(self):
        runs, _, _ = self.bench.decompose(WORKLOAD, self.tns, SEED, "op")
        return runs

    def check(self, runs):
        return run.check_op(self.bench, self.tns, runs, self.ref_fits)

    def rewrite(self, path, edit):
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "w") as f:
            f.write("\n".join(edit(lines)) + "\n")

    def test_intact_outputs_pass(self):
        fit, nbytes = self.check(self.decompose())
        self.assertGreater(fit, 0)
        self.assertGreater(nbytes, 0)

    def test_perturbed_factor_fails(self):
        # The written factors are an ALS stationary point, where the fit is
        # flat to first order (a uniform 0.1% scale of a factor moves it by
        # less than 1e-6), so the perturbation is a corrupted row.
        runs = self.decompose()
        self.rewrite(runs[1]["prefix"] + ".U2", lambda lines: [
            " ".join(repr(float(v) + 0.5) for v in lines[0].split())] + lines[1:])
        with self.assertRaisesRegex(run.BenchError, "fit"):
            self.check(runs)

    def test_non_finite_factor_fails(self):
        runs = self.decompose()
        self.rewrite(runs[0]["prefix"] + ".lambda", lambda lines: ["nan"] + lines[1:])
        with self.assertRaisesRegex(run.BenchError, "non-finite"):
            self.check(runs)

    def test_truncated_factor_fails(self):
        runs = self.decompose()
        self.rewrite(runs[0]["prefix"] + ".U1", lambda lines: lines[:-1])
        with self.assertRaisesRegex(run.BenchError, "too few rows"):
            self.check(runs)

    def test_missing_factor_fails(self):
        runs = self.decompose()
        os.remove(runs[1]["prefix"] + ".U3")
        with self.assertRaisesRegex(run.BenchError, "missing"):
            self.check(runs)

    def test_wrong_reference_fails(self):
        runs = self.decompose()
        bad_ref = dict(self.ref_fits)
        bad_ref[4] += 1e-5
        with self.assertRaisesRegex(run.BenchError, "coo reference"):
            run.check_op(self.bench, self.tns, runs, bad_ref)


if __name__ == "__main__":
    unittest.main()
