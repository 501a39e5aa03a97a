"""The four benchmark workloads: their inputs, one op each, and the output check.

Every op calls the program through module attributes looked up at call
time (``simulation.run_comparison``, ``cli.main``, ...), so the wrappers
that ``tracer.Tracer`` installs see the calls.  Op ``i`` of a run draws
its seed from the run's base seed and ``i``; op 0 is the untimed warm-up.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np

import densfda
from densfda import cli, fileio, fpca, regression, simulation
from densfda.density import dist_wasserstein
from densfda.frechet import Metric

DEFAULT_SEED = 0

# FVE can exceed the Fréchet variance only by round-off
FVE_UPPER = 1.0 + 1e-9
MASS_TOL = 1e-10

# Outputs of op 0 under DEFAULT_SEED, printed to three decimals, recorded
# at the commit that introduced the benchmark.  They pin the numbers
# across refactors the same way the acceptance lines do.
REFERENCE = {
    "sim-l2-full": {"LQD": [0.459, 0.855], "FPCA": [0.454, 0.727], "HS": [0.503, 0.782]},
    "sim-wass-sampled": {"LQD": [0.972], "FPCA": [0.793], "HS": [0.850]},
    "regress-cv-lqd": {"cv_mse": 0.540},
    "cli-analyze-large": {
        "fve": [
            -0.683, 0.537, 0.815, 0.278, 0.925, 0.911, 0.967, 0.963, 0.980, 0.978,
            0.975, 0.976, 0.974, 0.974, 0.975, 0.977, 0.979, 0.979, 0.980, 0.980,
        ],
    },
}


def op_seed(base: int, i: int) -> int:
    """Seed of op ``i`` in a run with base seed ``base``."""
    return int(np.random.SeedSequence([base, i]).generate_state(1)[0])


def same_to_3dp(values, reference) -> bool:
    return [f"{v:.3f}" for v in values] == [f"{r:.3f}" for r in reference]


def density_problems(values, spacing: float, what: str) -> list[str]:
    """Finite, strictly positive and of unit trapezoidal mass."""
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return [f"{what}: non-finite values"]
    if v.min() <= 0.0:
        return [f"{what}: not strictly positive (min {v.min():.3g})"]
    mass = float(np.trapezoid(v, dx=spacing))
    if abs(mass - 1.0) > MASS_TOL:
        return [f"{what}: mass {mass!r} is not 1 within {MASS_TOL}"]
    return []


def fve_problems(curve, k_reported: int, what: str) -> list[str]:
    """Every FVE finite and at most 1; the reported one also at least 0.

    Below the reported truncation the transform method's reconstructions
    can lie further from the sample than the Fréchet mean does, so FVE
    there may be negative (e.g. LQD at K = 1 on setting 3).
    """
    c = np.asarray(curve, dtype=float)
    if c.size == 0 or not np.all(np.isfinite(c)):
        return [f"{what}: FVE curve empty or non-finite"]
    if c.max() > FVE_UPPER:
        return [f"{what}: FVE {c.max()!r} above 1"]
    if c[k_reported - 1] < 0.0:
        return [f"{what}: FVE at K={k_reported} is {c[k_reported - 1]!r} < 0"]
    return []


class Workload:
    """One named workload: ``setup`` once, then ``op(i)`` and ``problems``."""

    name = ""

    def setup(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out, i: int) -> list[str]:
        raise NotImplementedError

    def problems(self, out, i: int) -> list[str]:
        """Empty when op ``i`` returned ``out`` and ``out`` is correct."""
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        found = self.check(out, i)
        ref = REFERENCE[self.name]
        if not found and ref and i == 0 and self.seed == DEFAULT_SEED:
            found = self.reference_problems(out, ref)
        return found

    def reference_problems(self, out, ref) -> list[str]:
        raise NotImplementedError


class SimComparison(Workload):
    """One replication of the paper's LQD / FPCA / HS comparison."""

    def __init__(self, name: str, k: int, metric: Metric, **spec):
        self.name, self.k, self.metric, self.spec = name, k, metric, spec

    def op(self, i: int):
        spec = simulation.SettingSpec(seed=op_seed(self.seed, i), **self.spec)
        return simulation.run_comparison(
            spec, simulation.default_methods(), k=self.k, metric=self.metric, reps=1
        )

    def check(self, result, i: int) -> list[str]:
        if result.failures:
            return [f"replication failed: {result.failures[0][1]}"]
        found = []
        for label, curves in result.fve_curves.items():
            found += fve_problems(curves[0], self.k, label)
        for name, means in result.mean_densities.items():
            f = means[0]
            found += density_problems(f.values, f.grid.spacing, f"{name} mean")
        f = result.target
        found += density_problems(f.values, f.grid.spacing, "target")
        return found

    def reference_problems(self, result, ref) -> list[str]:
        return [
            f"{label} FVE {np.round(result.fve_curves[label][0], 3).tolist()} != {want}"
            for label, want in ref.items()
            if not same_to_3dp(result.fve_curves[label][0], want)
        ]


class RegressCv(Workload):
    """Cross-validated scalar-on-density regression on LQD scores."""

    name = "regress-cv-lqd"

    def setup(self, seed: int, workdir: str):
        super().setup(seed, workdir)
        gen = simulation.gen_setting(simulation.SettingSpec(setting=3, n=100, m=512, seed=seed))
        noise = np.random.default_rng([seed, 1]).normal(0.0, 0.5, gen.spec.n)
        self.densities = gen.densities
        self.y = 1.0 + 0.5 * gen.mus - 0.8 * np.log(gen.sigmas) + noise

    def op(self, i: int):
        return regression.cv_mse(
            self.densities, self.y, "lqd", k=2, folds=10, repeats=1, seed=op_seed(self.seed, i)
        )

    def check(self, mse, i: int) -> list[str]:
        if not (np.isfinite(mse) and mse > 0.0):
            return [f"cv_mse {mse!r} is not finite and positive"]
        return []

    def reference_problems(self, mse, ref) -> list[str]:
        return [] if same_to_3dp([mse], [ref["cv_mse"]]) else [f"cv_mse {mse:.3f} != {ref['cv_mse']}"]


class CliAnalyze(Workload):
    """``densfda analyze`` on a large density CSV, called in process."""

    name = "cli-analyze-large"

    def setup(self, seed: int, workdir: str):
        super().setup(seed, workdir)
        gen = simulation.gen_setting(simulation.SettingSpec(setting=3, n=200, m=1024, seed=seed))
        self.infile = os.path.join(workdir, "big.csv")
        fileio.write_density_csv(self.infile, gen.densities)
        self.out = os.path.join(workdir, "report.json")
        self.outputs = [self.out, f"{self.out}.manifest.json", os.path.join(workdir, "report_modes.csv")]

    def op(self, i: int):
        for path in self.outputs:
            if os.path.exists(path):
                os.remove(path)
        return cli.main(
            ["analyze", "--in", self.infile, "--out", self.out, "--method", "lqd", "--metric", "l2"]
        )

    def check(self, rc, i: int) -> list[str]:
        if rc != 0:
            return [f"cli.main returned {rc}"]
        missing = [p for p in self.outputs if not os.path.isfile(p)]
        if missing:
            return [f"missing output {os.path.basename(missing[0])}"]
        with open(self.out) as fh:
            report = json.load(fh)
        found = fve_problems(report["fve"], report["selected_k"], "analyze")
        with open(self.outputs[2], newline="") as fh:
            rows = list(csv.reader(fh))
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        x = table[:, 0]
        spacing = (x[-1] - x[0]) / (len(x) - 1)
        for name, col in zip(rows[0][1:], table[:, 1:].T):
            found += density_problems(col, spacing, name)
        return found

    def reference_problems(self, rc, ref) -> list[str]:
        with open(self.out) as fh:
            fve = json.load(fh)["fve"]
        return [] if same_to_3dp(fve, ref["fve"]) else [f"analyze FVE {np.round(fve, 3).tolist()} != {ref['fve']}"]


def make(name: str) -> Workload:
    if name == "sim-l2-full":
        return SimComparison(name, 2, Metric.L2, setting=3, n=50, m=512, observed="full")
    if name == "sim-wass-sampled":
        return SimComparison(
            name, 1, Metric.WASSERSTEIN, setting=2, n=50, m=256, observed="sampled", n_obs=200
        )
    if name == "regress-cv-lqd":
        return RegressCv()
    if name == "cli-analyze-large":
        return CliAnalyze()
    raise ValueError(f"unknown workload {name!r}")


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * float(np.median(times))


def size_sweep(seed: int) -> dict:
    """Standalone ``fpca.fit`` and ``dist_wasserstein`` times over input sizes.

    Inputs are setting-3 densities.  The 2048-point fits take over a
    second each, so they run once; smaller sizes take the median of 3.
    """
    out = {}
    for m in (256, 512, 2048):
        dens = simulation.gen_setting(simulation.SettingSpec(setting=3, n=500, m=m, seed=seed)).densities
        for n in (25, 50, 500):
            out[f"fpca.fit.sweep.n{n}_m{m}_ms"] = _median_ms(
                lambda: fpca.fit(dens[:n]), 3 if m <= 512 else 1
            )
        out[f"density.dist_wasserstein.sweep.m{m}_ms"] = _median_ms(
            lambda: dist_wasserstein(dens[0], dens[1]), 21
        )
    return out


def versions() -> dict:
    import scipy

    return {"densfda": densfda.__version__, "numpy": np.__version__, "scipy": scipy.__version__}
