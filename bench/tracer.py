"""Outside-in tracing of densfda: one span per call of each public function.

``Tracer.install`` replaces every public module-level function of the
densfda modules with a timing wrapper, in every module that binds it
(``from .density import dist_wasserstein`` in ``frechet`` is wrapped as
well as ``density.dist_wasserstein``), plus three methods that carry
most of the object churn.  ``Tracer.remove`` puts the originals back.
Spans stay in memory; ``summary`` turns the spans of one op into the
per-layer metrics and ``spans_table`` into a table for writing out.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "density", "transforms", "fpca", "frechet", "sphere", "kde",
    "regression", "simulation", "fileio", "cli",
)
# (module, class, method, span name)
METHODS = (
    ("frechet", "FittedMethod", "__init__", "frechet.FittedMethod"),
    ("frechet", "FittedMethod", "reconstruct", "frechet.reconstruct"),
    ("density", "DensityFn", "__post_init__", "density.DensityFn"),
)

# span names reported as ``<name>.calls`` and ``<name>.self_ms``
CALLS = (
    "fpca.fit", "density.dist_wasserstein", "density.to_quantile", "density.to_cdf",
    "density.normalize", "density.integrate", "transforms.lqd_forward",
    "transforms.lqd_inverse", "frechet.FittedMethod", "frechet.reconstruct",
    "frechet.wasserstein_frechet_mean", "sphere.karcher_mean", "sphere.log_map",
    "sphere.exp_map", "kde.estimate_density", "regression.score_basis",
    "regression.project_scores", "simulation.gen_setting",
    "simulation.truncated_normal_density",
)
SELF_MS = (
    "fpca.fit", "fpca.eigendecompose", "density.dist_wasserstein", "density.to_quantile",
    "density.to_cdf", "density.normalize", "transforms.lqd_forward",
    "transforms.lqd_inverse", "frechet.FittedMethod", "frechet.reconstruct",
    "frechet.wasserstein_frechet_mean", "frechet.fve_curve", "frechet.frechet_variance",
    "sphere.karcher_mean", "kde.estimate_density", "regression.score_basis",
    "regression.project_scores", "regression.fit_flr", "simulation.gen_setting",
    "fileio.read_density_csv", "fileio.write_json", "fileio.sha256_file", "cli.main",
)
# counts computed from span relations or recorded arguments and results, with units
DERIVED = {
    "fpca.fit.components": "count",
    "density.DensityFn.validations": "count",
    "transforms.lqd_forward.useful_ratio": "ratio",
    "frechet.wasserstein_frechet_mean.useful_ratio": "ratio",
    "sphere.karcher_mean.iters": "count",
    "fileio.read_density_csv.bytes": "B",
    "cli.analyze.fits": "count",
}
# counts repeat exactly for one seed, so they are taken from one op
COUNT_METRICS = {**{f"{n}.calls": "count" for n in CALLS}, **DERIVED}
TIME_METRICS = tuple(f"{n}.self_ms" for n in SELF_MS)


def _digest(arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.digest()


# What a span records besides its timing, by span name: a key of the
# input (for distinct-input ratios) or a number taken from the result.
INPUT_KEY = {
    "transforms.lqd_forward": lambda args, kw: (args[0].grid, _digest([args[0].values])),
    "frechet.wasserstein_frechet_mean": lambda args, kw: _digest(f.values for f in args[0]),
}
RESULT_VALUE = {
    "fpca.fit": lambda args, result: result.n_components,
    "fileio.read_density_csv": lambda args, result: os.path.getsize(args[0]),
}

NAME, PARENT, START, END, CHILD, EXTRA = range(6)


class Tracer:
    """Span recorder for the densfda call tree of one process."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, child seconds, extra]
        self._stack = []
        self._restore = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        input_key, result_value = INPUT_KEY.get(name), RESULT_VALUE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0, 0.0, None]
            if input_key:
                span[EXTRA] = input_key(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if parent >= 0:
                    # the input key's cost counts as neither span's self time
                    spans[parent][CHILD] += span[END] - entered
            if result_value:
                span[EXTRA] = result_value(args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every public densfda function and the METHODS, everywhere bound."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("densfda")
        modules = {short: importlib.import_module(f"densfda.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, method, name in METHODS:
            cls = getattr(modules[short], cls_name, None)
            original = vars(cls).get(method) if cls else None
            if original is None:  # removed by a refactor: its metrics read 0
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def remove(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        calls, self_s = Counter(), defaultdict(float)
        for s in spans:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += s[END] - s[START] - s[CHILD]

        def extras(name):
            return [s[EXTRA] for s in spans if s[NAME] == name]

        def ratio(a, b):
            return a / b if b else 0.0

        def under(span, ancestor):
            while span[PARENT] >= 0:
                span = spans[span[PARENT]]
                if span[NAME] == ancestor:
                    return True
            return False

        out = {f"{n}.calls": calls[n] for n in CALLS}
        out.update({f"{n}.self_ms": 1e3 * self_s[n] for n in SELF_MS})
        components = extras("fpca.fit")
        out["fpca.fit.components"] = statistics.fmean(components) if components else 0.0
        out["density.DensityFn.validations"] = calls["density.DensityFn"]
        for name in ("transforms.lqd_forward", "frechet.wasserstein_frechet_mean"):
            out[f"{name}.useful_ratio"] = ratio(len(set(extras(name))), calls[name])
        out["sphere.karcher_mean.iters"] = sum(
            1 for s in spans
            if s[NAME] == "sphere.exp_map" and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "sphere.karcher_mean"
        )
        out["fileio.read_density_csv.bytes"] = sum(extras("fileio.read_density_csv"))
        fits = sum(1 for s in spans if s[NAME] == "frechet.FittedMethod" and under(s, "cli.main"))
        out["cli.analyze.fits"] = ratio(fits, calls["cli.main"])
        return out

    def spans_table(self) -> dict:
        """Recorded spans as columns, times in ms from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return {
            "columns": ["name", "parent", "start_ms", "duration_ms", "self_ms"],
            "rows": [
                [s[NAME], s[PARENT], round(1e3 * (s[START] - t0), 4),
                 round(1e3 * (s[END] - s[START]), 4),
                 round(1e3 * (s[END] - s[START] - s[CHILD]), 4)]
                for s in self.spans
            ],
        }
