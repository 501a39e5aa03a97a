"""Simulation settings and the replication harness for method comparison.

Three generators of truncated-normal density samples are provided:
pure vertical variation (random scale on [-3, 3]), pure horizontal
variation (random location on [-5, 5]) and the combination of both.
:func:`truncated_normal_rows` evaluates the densities, one row per
(mu, sigma) pair; its standard normal row is the target of the means.
The harness runs seeded replications, computes FVE per method at a fixed
truncation K, and collects the Fréchet means of every replication under
the L2, Wasserstein and sphere-geodesic metrics (``frechet.MEANS``, each
a one-row sample whose row the result keeps), aggregated across
replications by another Fréchet mean under the same metric.

Replications draw their randomness from child streams spawned off the
spec seed (one child per replication).  A replication's densities come
out of the generator as one :class:`DensitySample`, which the methods
and the means of that replication then share.  Sampled observation
draws one ``(n, n_obs)`` array of uniforms, maps them through each
truncated normal's closed-form inverse CDF and estimates all the rows in
one call.  The normal CDF and its inverse come from :mod:`densfda.normal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import (
    DensityFn,
    DensitySample,
    Grid,
    Metric,
    normalize_rows,
    sq_dist_rows,
)
from .errors import BadArgumentError, BadBandwidthError, DegenerateSigmaError, DensfdaError, EmptySampleError
from .frechet import (
    MEANS,
    FittedMethod,
    HilbertSphere,
    OrdinaryFpca,
    TransformMethod,
    fve_report,
)
from .kde import KdeConfig, Kernel, estimate_rows
from .normal import ndtr, ndtri

# truncated normals can run below 1e-40 near the support boundary, which
# no fixed grid can represent through the quantile map; simulated
# densities therefore get a heavier floor than the package-wide 1e-6
SIMULATION_FLOOR = 1e-3

# the transform methods additionally regularize internally: without a
# uniform blend, the transformed functions of near-zero-tailed densities
# are ill-conditioned under inversion and the method comparison collapses
SIMULATION_BLEND = 0.5

SETTING_SUPPORT = {1: (-3.0, 3.0), 2: (-5.0, 5.0), 3: (-5.0, 5.0)}


@dataclass(frozen=True)
class SettingSpec:
    """One simulation design: which generator, sample sizes, observation mode.

    Sampled observation raises ``BadBandwidthError`` unless the bandwidth,
    mapped to the unit support, lies strictly between 0 and one half; the
    message names the bandwidth given and that limit on the native support.
    """

    setting: int
    n: int = 50
    observed: str = "full"  # "full" | "sampled"
    n_obs: int = 100
    bandwidth: float = 0.2  # in support units (native scale)
    seed: int = 0
    m: int = 512

    def __post_init__(self):
        if self.setting not in SETTING_SUPPORT:
            raise BadArgumentError(f"setting must be 1, 2 or 3, got {self.setting}")
        if self.n < 2:
            raise BadArgumentError("n must be >= 2")
        if self.observed not in ("full", "sampled"):
            raise BadArgumentError("observed must be 'full' or 'sampled'")
        if self.observed == "sampled":  # full observation ignores the bandwidth
            if self.n_obs < 10:
                raise BadArgumentError("sampled observation needs n_obs >= 10")
            if not 0.0 < self.unit_bandwidth < 0.5:  # the estimator's limit, on the native support
                lo, hi = self.support
                raise BadBandwidthError(
                    f"bandwidth must be in (0, {0.5 * (hi - lo):g}) on support [{lo:g}, {hi:g}], "
                    f"got {self.bandwidth!r}"
                )

    @property
    def unit_bandwidth(self) -> float:
        """Bandwidth on the unit-mapped support, as the estimator expects."""
        lo, hi = SETTING_SUPPORT[self.setting]
        return self.bandwidth / (hi - lo)

    @property
    def support(self) -> tuple[float, float]:
        return SETTING_SUPPORT[self.setting]

    @property
    def grid(self) -> Grid:
        return Grid(*self.support, self.m)


def truncated_normal_rows(mus, sigmas, grid: Grid, floor: float = SIMULATION_FLOOR) -> np.ndarray:
    """Normal(mu, sigma^2) truncated to the grid support, floored and
    renormalized to the grid quadrature: one row for each (mu, sigma) pair."""
    mus, sigmas = np.asarray(mus, dtype=float), np.asarray(sigmas, dtype=float)
    bad = ~(sigmas > 0)
    if bad.any():
        raise DegenerateSigmaError(f"sigma must be positive, got {sigmas[bad][0]}")
    mus, sigmas = mus[:, None], sigmas[:, None]
    z = (grid.points - mus) / sigmas
    mass = ndtr((grid.hi - mus) / sigmas) - ndtr((grid.lo - mus) / sigmas)
    if np.any(mass <= 0):
        raise DegenerateSigmaError("no normal mass falls inside the support")
    pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return normalize_rows(pdf / (sigmas * mass), grid, floor)


@dataclass
class GeneratedSetting:
    """Densities for one replication plus the parameters that made them."""

    spec: SettingSpec
    densities: DensitySample  # what gets analyzed (estimates when observed='sampled')
    raw_samples: np.ndarray | None  # (n, n_obs) draws when observed="sampled"
    mus: np.ndarray
    sigmas: np.ndarray


def _draw_parameters(spec: SettingSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    if spec.setting == 1:
        sigmas = np.exp(rng.uniform(-1.5, 1.5, spec.n))
        mus = np.zeros(spec.n)
    elif spec.setting == 2:
        mus = rng.uniform(-3.0, 3.0, spec.n)
        sigmas = np.ones(spec.n)
    else:
        sigmas = np.exp(rng.uniform(-1.0, 1.0, spec.n))
        mus = rng.uniform(-2.5, 2.5, spec.n)
    return mus, sigmas


def _inverse_cdf_samples(mus, sigmas, grid: Grid, n_obs: int, rng) -> np.ndarray:
    """``(n, n_obs)`` draws, one row per truncated normal, by its exact inverse CDF.

    A uniform u maps to ``mu + sigma * ndtri(Φ(α) + u (Φ(β) − Φ(α)))``,
    α = (lo − mu)/sigma and β = (hi − mu)/sigma, clipped to the support.
    This lower-tail form is accurate while Φ(α) ≤ ½, that is while mu lies
    in the support, as it does in every setting.
    """
    mus, sigmas = mus[:, None], sigmas[:, None]
    below = ndtr((grid.lo - mus) / sigmas)
    p = below + rng.random((len(mus), n_obs)) * (ndtr((grid.hi - mus) / sigmas) - below)
    return np.clip(mus + sigmas * ndtri(p), grid.lo, grid.hi)


def gen_setting(spec: SettingSpec, rng=None) -> GeneratedSetting:
    """Generate one replication of the chosen simulation design."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    mus, sigmas = _draw_parameters(spec, rng)
    grid = spec.grid
    if spec.observed == "full":
        true = DensitySample(truncated_normal_rows(mus, sigmas, grid), grid)
        return GeneratedSetting(spec, true, None, mus, sigmas)
    cfg = KdeConfig(spec.unit_bandwidth, Kernel.GAUSSIAN, grid, SIMULATION_FLOOR)
    samples = _inverse_cdf_samples(mus, sigmas, grid, spec.n_obs, rng)
    estimated = DensitySample(estimate_rows(samples, cfg), grid)
    return GeneratedSetting(spec, estimated, samples, mus, sigmas)


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------

MEAN_METRICS = tuple(MEANS)


def default_methods(blend: float = SIMULATION_BLEND) -> list:
    """The standard comparison trio: transform method, ordinary FPCA, sphere."""
    return [TransformMethod(blend=blend), OrdinaryFpca(), HilbertSphere()]


@dataclass
class SimulationResult:
    """Per-replication FVE values and Fréchet-mean summaries."""

    spec: SettingSpec
    k: int
    metric: Metric
    reps: int
    fve_curves: dict  # label -> list of per-replication FVE arrays (K entries)
    mean_densities: dict  # metric name -> per-replication mean rows, None where failed
    target: DensityFn
    failures: list = field(default_factory=list)

    def fve_at_k(self, label: str) -> np.ndarray:
        return np.array([c[-1] if c is not None else np.nan for c in self.fve_curves[label]])

    def aggregated_mean(self, name: str) -> DensityFn:
        """Fréchet mean of the per-replication Fréchet means, same metric."""
        means = [m for m in self.mean_densities[name] if m is not None]
        if not means:
            raise EmptySampleError("no successful replications to aggregate")
        sample = DensitySample(np.stack([m.values for m in means]), self.spec.grid)
        return MEANS[name](sample, SIMULATION_FLOOR)[0]

    def distances_to_target(self, name: str) -> np.ndarray:
        """Wasserstein distance of each replication's mean to the target,
        NaN where the replication failed."""
        return self._distances([name], aggregate=False)[0][name]

    def _distances(self, names, aggregate: bool) -> tuple[dict, dict]:
        """Wasserstein distances to the target, per metric in ``names``: of
        each replication's mean (NaN where it failed) and, with
        ``aggregate``, of the aggregated mean where one exists.  All these
        rows and the target are inverted in one call."""
        means = {name: self.mean_densities[name] for name in names}
        ok = {name: [r for r, f in enumerate(means[name]) if f is not None] for name in names}
        rows = [means[name][r].values for name in names for r in ok[name]]
        aggregated = [name for name in names if aggregate and ok[name]]
        rows += [self.aggregated_mean(name).values for name in aggregated]
        q, tgrid = Metric.WASSERSTEIN.embed_rows(np.stack(rows + [self.target.values]), self.spec.grid)
        dist = iter(np.sqrt(sq_dist_rows(q[:-1], q[-1:], tgrid)))
        per_rep = {name: np.full(self.reps, np.nan) for name in names}
        for name in names:
            for r in ok[name]:
                per_rep[name][r] = next(dist)
        return per_rep, {name: next(dist) for name in aggregated}

    def summary(self) -> dict:
        out = {
            "setting": self.spec.setting,
            "n": self.spec.n,
            "observed": self.spec.observed,
            "reps": self.reps,
            "k": self.k,
            "metric": self.metric.value,
            "seed": self.spec.seed,
            "failures": list(self.failures),
            "fve": {},
            "mean_distance_to_target": {},
        }
        for label in self.fve_curves:
            values = self.fve_at_k(label)
            ok = values[~np.isnan(values)]
            q1, med, q3 = np.percentile(ok, [25, 50, 75]) if ok.size else (np.nan,) * 3
            out["fve"][label] = {
                "median": float(med),
                "q1": float(q1),
                "q3": float(q3),
                "values": [float(v) for v in values],
            }
        dist, aggregated = self._distances(MEAN_METRICS, aggregate=True)
        for name in MEAN_METRICS:
            ok = dist[name][~np.isnan(dist[name])]
            out["mean_distance_to_target"][name] = {
                "per_replication_median": float(np.median(ok)) if ok.size else np.nan,
                "aggregated": float(aggregated[name]) if ok.size else np.nan,
            }
        wass, cross = dist["wasserstein"], dist["l2"]
        good = ~(np.isnan(wass) | np.isnan(cross))
        out["wasserstein_beats_cross_sectional"] = float(
            np.mean(wass[good] < cross[good])
        ) if good.any() else np.nan
        return out


def _run_one(spec: SettingSpec, child_seed, methods, k, metric):
    rng = np.random.default_rng(child_seed)
    # the methods and the means share one sample and its statistics
    sample = gen_setting(spec, rng).densities
    fve = {}
    for method in methods:
        report = fve_report(FittedMethod(sample, method, SIMULATION_FLOOR), metric, k_max=k)
        fve[method.label] = report.fve
    return fve, {name: mean(sample, SIMULATION_FLOOR)[0] for name, mean in MEANS.items()}


def run_comparison(
    spec: SettingSpec,
    methods,
    k: int,
    metric: Metric = Metric.L2,
    reps: int = 50,
) -> SimulationResult:
    """Run seeded replications of one setting and collect FVE and means.

    A replication that raises a ``DensfdaError`` is recorded in
    ``result.failures`` and left as a gap (None / NaN) rather than
    dropped; any other exception is a bug and propagates.  The target is
    the standard normal truncated to the support.  Raises
    ``BadArgumentError`` unless k >= 1 and reps >= 1.
    """
    if k < 1:
        raise BadArgumentError(f"k must be >= 1, got {k}")
    if reps < 1:
        raise BadArgumentError("reps must be >= 1")
    methods = list(methods)
    children = np.random.SeedSequence(spec.seed).spawn(reps)
    fve_curves = {m.label: [None] * reps for m in methods}
    mean_densities = {name: [None] * reps for name in MEAN_METRICS}
    failures = []
    for r, child in enumerate(children):
        try:
            fve, means = _run_one(spec, child, methods, k, metric)
        except DensfdaError as exc:
            failures.append((r, repr(exc)))
            continue
        for label, curve in fve.items():
            fve_curves[label][r] = curve
        for name, dens in means.items():
            mean_densities[name][r] = dens

    target = DensitySample(truncated_normal_rows([0.0], [1.0], spec.grid), spec.grid)[0]
    return SimulationResult(spec, k, metric, reps, fve_curves, mean_densities, target, failures)

