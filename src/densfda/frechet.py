"""Fréchet means and variance, FVE curves, truncation choice and modes.

Total variation of a density sample is measured by the Fréchet variance
under a chosen metric (L2 or Wasserstein), and the quality of a
K-component representation by the fraction of that variance it explains
(FVE).  The three representation methods are three maps into L2, each
with its way back, behind one :class:`FittedMethod` that runs FPCA in
between: ordinary FPCA takes the densities as they are and projects
back onto density space; a transform method (log quantile density or
log hazard) maps each density through the transform and back through
its inverse; the Hilbert-sphere method log-maps the square-root
densities at their Karcher mean and maps back by the exp map and
squaring.  ``FittedMethod.reconstruct(K)`` returns the K-component
representations of the whole sample as one ``(n, m)`` array.
Representations and modes are valid densities for every truncation
level and mode parameter.

A sample is held as one :class:`DensitySample`: the densities stacked
once on their shared grid, with the Fréchet mean, the Fréchet variance
V_inf and the metric embedding computed once per metric, and the
Karcher mean of the square-root densities computed once, all shared by
every method fitted to it and every mean taken of it.  The Karcher mean
serves both the Hilbert-sphere method and the Fisher–Rao mean.  The
Wasserstein mean inverts all sample CDFs, and then their averaged
quantile function, through one batched monotone cubic kernel
(:func:`density.pchip_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fpca
from .density import (
    DEFAULT_FLOOR,
    DensityFn,
    Grid,
    cdf_rows,
    normalize,
    pchip_rows,
    quantile_rows,
    sq_dist_rows,
    unit_grid,
)
from .errors import EmptySampleError, GridMismatchError, SupportMismatchError
from .sphere import (
    SpherePoint,
    _embed_rows,
    _exp_rows,
    _log_rows,
    _square_rows,
    karcher_mean,
    square_back,
)
from .transforms import LQD, TransformSpec, forward_rows, inverse_rows, log_hazard_spec

K_MAX_CAP = 20
EXPLAINED_TAIL = 1e-8  # eigenvalue mass allowed beyond the default K_max


class Metric(Enum):
    L2 = "l2"
    WASSERSTEIN = "wasserstein"

    def embed_rows(self, values: np.ndarray, grid: Grid, m: int | None = None) -> tuple[np.ndarray, Grid]:
        """Rows whose L2 distances are this metric's distances between the
        density rows of ``values``: the densities themselves for L2, their
        quantile functions for Wasserstein, on a probability grid of ``m``
        points (default ``grid.m``), as in :func:`dist_wasserstein`."""
        if self is Metric.L2:
            return values, grid
        tgrid = unit_grid(m or grid.m)
        return quantile_rows(cdf_rows(values, grid), grid, tgrid), tgrid


@dataclass(frozen=True)
class MethodKind:
    """Representation method: ordinary FPCA, a transform, or the sphere.

    ``blend`` mixes each density with the uniform density on its support
    before the forward transform and removes the mixture exactly after
    inversion.  It bounds the transformed functions when densities run
    very close to zero near the support boundary (where the inverse map
    amplifies errors exponentially) and leaves the method unchanged at 0.
    """

    kind: str  # "fpca" | "transform" | "hs"
    transform: TransformSpec | None = None
    blend: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.blend < 1.0):
            raise ValueError(f"blend must be in [0, 1), got {self.blend}")
        if self.blend > 0 and self.kind != "transform":
            raise ValueError("blend only applies to transform methods")

    @staticmethod
    def ordinary_fpca() -> "MethodKind":
        return MethodKind("fpca")

    @staticmethod
    def lqd(blend: float = 0.0) -> "MethodKind":
        return MethodKind("transform", LQD, blend)

    @staticmethod
    def log_hazard(delta: float = 0.1, blend: float = 0.0) -> "MethodKind":
        return MethodKind("transform", log_hazard_spec(delta), blend)

    @staticmethod
    def hilbert_sphere() -> "MethodKind":
        return MethodKind("hs")

    @property
    def label(self) -> str:
        if self.kind == "fpca":
            return "FPCA"
        if self.kind == "hs":
            return "HS"
        return "LQD" if self.transform == LQD else f"LH({self.transform.delta:g})"


@dataclass
class FrechetReport:
    """Fréchet variance, per-K explained variance and the chosen truncation."""

    metric: Metric
    v_infinity: float
    v_k: np.ndarray
    fve: np.ndarray
    selected_k: int
    threshold_reached: bool
    p: float
    method: MethodKind | None = None


def _check_shared_support(sample) -> tuple[float, float]:
    supports = {f.support for f in sample}
    if len(supports) != 1:
        raise SupportMismatchError(f"sample mixes supports: {sorted(supports)}")
    return supports.pop()


class DensitySample:
    """A sample of densities on one grid, with its Fréchet statistics.

    The densities are checked for a shared support and grid and stacked
    once into the read-only ``(n, m)`` array ``values``.  The Fréchet
    mean and variance under each metric, the sample's metric embedding
    (:meth:`Metric.embed_rows`) and the Karcher mean of its square-root
    densities are computed on first use and kept, so every method fitted
    to the sample and every mean taken of it share them.  Iterating
    yields the densities.
    """

    def __init__(self, densities):
        self.densities = tuple(densities)
        if not self.densities:
            raise EmptySampleError("empty sample")
        self.support = _check_shared_support(self.densities)
        self.values, self.grid = fpca.stack(self.densities)
        self.values.flags.writeable = False
        self._cache = {}

    @classmethod
    def of(cls, sample) -> "DensitySample":
        """The sample itself, or a new one holding the given densities."""
        return sample if isinstance(sample, cls) else cls(sample)

    def __len__(self) -> int:
        return len(self.densities)

    def __iter__(self):
        return iter(self.densities)

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def mean(self, metric: Metric, floor: float = DEFAULT_FLOOR) -> DensityFn:
        """:func:`frechet_mean` of the sample."""
        return self._cached(("mean", metric, floor), lambda: self._mean(metric, floor))

    def _mean(self, metric: Metric, floor: float) -> DensityFn:
        if len(self) == 1:
            return self.densities[0]
        if metric is Metric.WASSERSTEIN:
            return wasserstein_frechet_mean(self, floor)
        return DensityFn(self.grid, self.values.mean(axis=0))

    def variance(self, metric: Metric, floor: float = DEFAULT_FLOOR) -> float:
        """:func:`frechet_variance` of the sample about its own mean."""
        return self._cached(
            ("variance", metric, floor),
            lambda: frechet_variance(self, self.mean(metric, floor), metric),
        )

    def embedding(self, metric: Metric) -> tuple[np.ndarray, Grid]:
        """:meth:`Metric.embed_rows` of the sample on its own grid size."""
        return self._cached(("embedding", metric), lambda: metric.embed_rows(self.values, self.grid))

    def karcher_mean(self) -> SpherePoint:
        """:func:`sphere.karcher_mean` of the square-root densities."""
        return self._cached("karcher", self._karcher_mean)

    def _karcher_mean(self) -> SpherePoint:
        return karcher_mean([SpherePoint(self.grid, row) for row in _embed_rows(self.values, self.grid)])


def _pchip_quantile_rows(cdf: np.ndarray, grid: Grid, tgrid: Grid) -> np.ndarray:
    """Quantile rows by monotone cubic CDF inversion (:func:`pchip_rows`).

    Differentiation downstream amplifies interpolation scallops by one
    power of the spacing, so the piecewise-linear inversion used by the
    metric code is not accurate enough here.  A row with a flat CDF step
    has no cubic inverse and keeps that linear inversion.
    """
    steep = np.all(np.diff(cdf, axis=1) > 0, axis=1)
    q = np.empty((cdf.shape[0], tgrid.m))
    q[steep] = pchip_rows(cdf[steep], grid.points, tgrid.points)
    q[~steep] = quantile_rows(cdf[~steep], grid, tgrid)
    q[:, 0], q[:, -1] = grid.lo, grid.hi
    return q


def wasserstein_frechet_mean(sample, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Fréchet mean under the Wasserstein metric (quantile synchronization).

    The sample quantile functions are averaged pointwise on a probability
    grid of the sample's size; the average is inverted back to a CDF and
    differentiated by central differences with one-sided stencils at the
    endpoints, then floored and renormalized.  Both inversions are
    monotone cubic and run through one batched kernel,
    :func:`pchip_rows`: all sample CDFs at once, then the one average.
    ``sample`` is a :class:`DensitySample` or the densities of one.
    """
    sample = DensitySample.of(sample)
    if len(sample) == 1:
        return sample.densities[0]
    grid = sample.grid
    tgrid = unit_grid(grid.m)
    qbar = _pchip_quantile_rows(cdf_rows(sample.values, grid), grid, tgrid).mean(axis=0)
    cdf = pchip_rows(qbar, tgrid.points, grid.points)[0]
    return normalize(np.gradient(cdf, grid.spacing, edge_order=2), grid, floor)


def frechet_mean(sample, metric: Metric, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Fréchet mean under the chosen metric.

    L2 gives the cross-sectional mean (densities are convex, so no
    projection is needed); Wasserstein gives the quantile-synchronized
    mean.  A :class:`DensitySample` computes it once and keeps it.
    """
    return DensitySample.of(sample).mean(metric, floor)


def fisher_rao_mean(sample, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Fréchet mean under the geodesic metric of the square-root embedding.

    The Karcher mean of the square-root densities, squared back to a
    density.  A :class:`DensitySample` computes it once and keeps it.
    """
    return square_back(DensitySample.of(sample).karcher_mean(), floor)


def frechet_variance(sample, mean: DensityFn, metric: Metric) -> float:
    """Average squared metric distance to the given mean.

    The sample shares one grid.  Under the Wasserstein metric the mean
    may have another resolution on the same support; the finer grid sets
    the probability grid.
    """
    sample = DensitySample.of(sample)
    grid = sample.grid
    if metric is Metric.L2 and mean.grid != grid:
        raise GridMismatchError("L2 distance requires identical grids")
    if mean.support != sample.support:
        raise SupportMismatchError(f"supports differ: {sample.support} vs {mean.support}")
    m = max(grid.m, mean.grid.m)
    if m == grid.m:
        target, egrid = sample.embedding(metric)
    else:
        target, egrid = metric.embed_rows(sample.values, grid, m)
    center, _ = metric.embed_rows(mean.values[None], mean.grid, m)
    return float(np.mean(sq_dist_rows(target, center, egrid)))


# ---------------------------------------------------------------------------
# Fitted representation methods
# ---------------------------------------------------------------------------


def _blend_rows(values: np.ndarray, grid: Grid, weight: float) -> np.ndarray:
    """Mixture (1 - weight) * f + weight * uniform of each row."""
    return (1.0 - weight) * values + weight / grid.width


def _unblend_rows(values: np.ndarray, grid: Grid, weight: float, floor: float) -> np.ndarray:
    if weight == 0.0:
        return values
    raw = (values - weight / grid.width) / (1.0 - weight)
    return fpca.project_rows(raw, grid, floor)


class FittedMethod:
    """One method fitted to a sample, reusable across truncation levels K.

    Every method maps the sample into L2, runs FPCA there and maps the
    FPCA output back to densities (:meth:`_to_density`); only those two
    maps depend on the method.  The sample is held as a
    :class:`DensitySample` (a list of densities is wrapped in one), whose
    ``(n, m)`` array ``values`` every step works on as a whole;
    ``reconstruct`` returns such an array and ``mode`` one
    ``DensityFn``.  ``reconstruct(K)`` silently
    uses all available components when K exceeds them (trailing
    components carry no variance), which also covers the degenerate
    single-subject sample: it has no components, and every method
    returns its mean.
    """

    def __init__(self, sample, method: MethodKind, floor: float = DEFAULT_FLOOR):
        self.sample = DensitySample.of(sample)
        self.method = method
        self.floor = floor
        self.grid, self.support, self.values = self.sample.grid, self.sample.support, self.sample.values
        self.sphere_mean = None
        if method.kind == "hs":
            # tangent space at the Karcher mean of the square-root densities
            self.sphere_mean = self.sample.karcher_mean()
            tangents = _log_rows(self.sphere_mean, _embed_rows(self.values, self.grid))
            self.system = fpca.fit(tangents, self.grid)
        elif method.kind == "transform":
            blended = _blend_rows(self.values, self.grid, method.blend)
            self._tgrid, xs = forward_rows(blended, self.grid, method.transform)
            self.system = fpca.fit(xs, self._tgrid)
        elif method.kind == "fpca":
            self.system = fpca.fit(self.values, self.grid)
        else:
            raise ValueError(f"unknown method kind {method.kind!r}")

    @property
    def n_components(self) -> int:
        return self.system.n_components

    def reconstruct(self, k: int) -> np.ndarray:
        """``(n, m)`` density values of the k-component representations."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._to_density(fpca.truncate(self.system, min(k, self.n_components)))

    def mode(self, k: int, alpha: float) -> DensityFn:
        """Mode of variation along component k (1-based) at parameter alpha."""
        values = fpca.mode_of_variation(self.system, k, alpha)
        return DensityFn(self.grid, self._to_density(values[None])[0])

    def _to_density(self, rows: np.ndarray) -> np.ndarray:
        """Density values for rows of the space the method's FPCA works in."""
        if self.method.kind == "fpca":
            return fpca.project_rows(rows, self.grid, self.floor)
        if self.method.kind == "hs":
            return _square_rows(_exp_rows(self.sphere_mean, rows), self.grid, self.floor)
        dens = inverse_rows(rows, self._tgrid, self.method.transform, self.support)
        return _unblend_rows(dens, self.grid, self.method.blend, self.floor)


def default_k_max(eigenvalues: np.ndarray, n: int) -> int:
    """Smallest K explaining all but a 1e-8 tail of score variance,
    capped at min(n - 1, 20)."""
    cap = max(1, min(n - 1, K_MAX_CAP, len(eigenvalues)))
    total = eigenvalues.sum()
    if total <= 0:
        return 1
    cum = np.cumsum(eigenvalues)
    enough = np.nonzero(cum >= (1.0 - EXPLAINED_TAIL) * total)[0]
    k = int(enough[0]) + 1 if enough.size else len(eigenvalues)
    return max(1, min(k, cap))


def fve_curve(
    sample,
    method: MethodKind,
    metric: Metric,
    k_max: int | None = None,
    p: float = 0.9,
    floor: float = DEFAULT_FLOOR,
) -> FrechetReport:
    """Fréchet variance explained by K = 1..k_max components.

    V_K = V_inf - mean_i d(f_i, reconstruction_i(K))^2, reported as the
    curve of ratios V_K / V_inf together with the smallest K exceeding
    the threshold p.  Fits the method and calls :func:`fve_report`.
    """
    return fve_report(FittedMethod(sample, method, floor), metric, k_max, p)


def fve_report(
    fitted: FittedMethod,
    metric: Metric,
    k_max: int | None = None,
    p: float = 0.9,
) -> FrechetReport:
    """:func:`fve_curve` of a method already fitted to its sample.

    The sample's Fréchet mean, V_inf and embedding come from its
    :class:`DensitySample`, which computes them once per metric for all
    the methods fitted to it.  Every reconstruction is embedded once as
    rows (:meth:`Metric.embed_rows`), so each metric distance is an L2
    distance between two rows.  The selected K is the smallest whose FVE
    exceeds p, or k_max with ``threshold_reached`` False when none does.
    Raises ``ValueError`` unless 0 < p < 1.
    """
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    sample = fitted.sample
    v_inf = sample.variance(metric, fitted.floor)
    target, egrid = sample.embedding(metric)
    if k_max is None:
        k_max = default_k_max(fitted.system.eigenvalues, len(sample))
    k_max = max(1, k_max)
    v_k = np.empty(k_max)
    for k in range(1, k_max + 1):
        recon, _ = metric.embed_rows(fitted.reconstruct(k), fitted.grid)
        v_k[k - 1] = v_inf - float(np.mean(sq_dist_rows(target, recon, egrid)))
    fve = v_k / v_inf if v_inf > 0 else np.ones(k_max)
    hit = np.nonzero(fve > p)[0]
    selected, reached = (int(hit[0]) + 1, True) if hit.size else (k_max, False)
    return FrechetReport(metric, v_inf, v_k, fve, selected, reached, p, fitted.method)
