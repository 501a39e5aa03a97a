"""Self-test of the benchmark: the output check, failure counting and metric names.

Run from the repository root (about a minute):

    python3 bench/selftest.py

A correct op must pass the check; the same op with one output perturbed
(a density off unit mass, an FVE above 1 or off its reference value, a
negative or wrong cross-validated error, a missing or edited CLI output,
an exception) must count as a failed op.  The metric names and units
that ``run.py`` prints must be the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from types import SimpleNamespace

import run

run.start_program()

import numpy as np  # noqa: E402  (after start_program pins the BLAS threads)

import workloads  # noqa: E402


def fails(wl, out, i: int = 0) -> bool:
    """True when the benchmark's tally counts ``out`` as a failed op ``i``."""
    tally = run.Tally()
    tally.check(wl, out, i)
    return tally.attempted == 1 and tally.failed == 1


class _WithWorkload(unittest.TestCase):
    name = ""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.wl = workloads.make(cls.name)
        cls.wl.setup(workloads.DEFAULT_SEED, cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()


class SimCheck(_WithWorkload):
    name = "sim-l2-full"

    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        cls.result = cls.wl.op(0)

    def perturbed(self, edit):
        result = copy.deepcopy(self.result)
        edit(result)
        return result

    def test_correct_op_passes(self):
        self.assertEqual(self.wl.problems(self.result, 0), [])
        self.assertFalse(fails(self.wl, self.result))

    def test_density_off_unit_mass_fails(self):
        def edit(r):
            f = r.mean_densities["wasserstein"][0]
            r.mean_densities["wasserstein"][0] = SimpleNamespace(grid=f.grid, values=f.values * 1.001)
        self.assertTrue(fails(self.wl, self.perturbed(edit), 5))

    def test_nonpositive_density_fails(self):
        def edit(r):
            v = r.target.values.copy()
            v[0] = 0.0
            r.target = SimpleNamespace(grid=r.target.grid, values=v)
        self.assertTrue(fails(self.wl, self.perturbed(edit), 5))

    def test_fve_above_one_or_nan_fails(self):
        for bad in (1.0 + 1e-6, np.nan):
            def edit(r):
                r.fve_curves["HS"][0] = np.array([0.5, bad])
            self.assertTrue(fails(self.wl, self.perturbed(edit), 5))

    def test_fve_off_reference_fails_on_default_seed(self):
        def edit(r):
            r.fve_curves["LQD"][0] = r.fve_curves["LQD"][0] + 0.002
        self.assertTrue(fails(self.wl, self.perturbed(edit), 0))

    def test_recorded_replication_failure_fails(self):
        def edit(r):
            r.failures.append((0, "NoConvergenceError()"))
        self.assertTrue(fails(self.wl, self.perturbed(edit), 5))

    def test_exception_in_loop_counts_as_failed(self):
        class Raising:
            def op(self, i):
                raise ValueError("boom")

            problems = self.wl.problems

        tally = run.Tally()
        times, _ = run.closed_loop(Raising(), 0.0, tally)
        self.assertEqual((len(times), tally.attempted, tally.failed), (1, 1, 1))


class RegressCheck(_WithWorkload):
    name = "regress-cv-lqd"

    def test_perturbed_mse_fails(self):
        mse = self.wl.op(0)
        self.assertFalse(fails(self.wl, mse))
        self.assertTrue(fails(self.wl, mse + 0.002))
        for bad in (-mse, 0.0, np.nan, np.inf):
            self.assertTrue(fails(self.wl, bad, 3))


class CliCheck(_WithWorkload):
    name = "cli-analyze-large"

    def edited(self, edit):
        rc = self.wl.op(0)
        edit()
        return rc

    def rewrite_report(self, change):
        with open(self.wl.out) as fh:
            report = json.load(fh)
        change(report)
        with open(self.wl.out, "w") as fh:
            json.dump(report, fh)

    def test_correct_op_passes(self):
        self.assertFalse(fails(self.wl, self.wl.op(0)))

    def test_nonzero_exit_fails(self):
        self.assertTrue(fails(self.wl, 1, 3))

    def test_missing_manifest_fails(self):
        rc = self.edited(lambda: os.remove(self.wl.outputs[1]))
        self.assertTrue(fails(self.wl, rc, 3))

    def test_fve_edits_fail(self):
        def above_one(r):
            r["fve"][-1] = 1.01

        def off_reference(r):
            r["fve"][0] += 0.002

        rc = self.edited(lambda: self.rewrite_report(above_one))
        self.assertTrue(fails(self.wl, rc, 3))
        rc = self.edited(lambda: self.rewrite_report(off_reference))
        self.assertTrue(fails(self.wl, rc, 0))

    def test_mode_density_off_unit_mass_fails(self):
        def scale_last_row():
            path = self.wl.outputs[2]
            with open(path) as fh:
                lines = fh.read().splitlines()
            cells = lines[-1].split(",")
            lines[-1] = ",".join([cells[0]] + [repr(2.0 * float(c)) for c in cells[1:]])
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        rc = self.edited(scale_last_row)
        self.assertTrue(fails(self.wl, rc, 3))


class MetricNames(unittest.TestCase):
    """Names and units printed by run.py match BENCHMARK.json."""

    @classmethod
    def setUpClass(cls):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            cls.spec = json.load(fh)

    def printed(self, trace: int) -> dict:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "sim-l2-full",
             "--seed", "3", "--seconds", "1", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        return {k: v["unit"] for k, v in result["metrics"].items()}

    def declared(self, key: str) -> dict:
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))

    def test_end_to_end(self):
        self.assertEqual(self.printed(0), self.declared("end_to_end"))

    def test_per_layer(self):
        self.assertEqual(self.printed(1), self.declared("per_layer"))


if __name__ == "__main__":
    unittest.main()
