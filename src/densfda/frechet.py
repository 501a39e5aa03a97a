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
squaring.  Representations and modes are valid densities for every
truncation level and mode parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.interpolate import PchipInterpolator

from . import fpca
from .density import (
    DEFAULT_FLOOR,
    DensityFn,
    Grid,
    cdf_rows,
    dist_l2,
    dist_wasserstein,
    normalize,
    quantile_rows,
    sq_dist_rows,
    to_cdf,
    to_quantile,
    unit_grid,
)
from .errors import EmptySampleError, GridMismatchError, SupportMismatchError
from .sphere import SpherePoint, _embed_rows, _exp_rows, _square_rows, pga
from .transforms import LQD, TransformSpec, forward_rows, inverse_rows, log_hazard_spec

K_MAX_CAP = 20
EXPLAINED_TAIL = 1e-8  # eigenvalue mass allowed beyond the default K_max


class Metric(Enum):
    L2 = "l2"
    WASSERSTEIN = "wasserstein"

    def distance(self, f: DensityFn, g: DensityFn) -> float:
        return dist_l2(f, g) if self is Metric.L2 else dist_wasserstein(f, g)

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


class KSelection(NamedTuple):
    k: int
    reached: bool


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


def _quantile_samples(f: DensityFn, tgrid: Grid) -> np.ndarray:
    """Quantile values by monotone cubic CDF inversion.

    Differentiation downstream amplifies interpolation scallops by one
    power of the spacing, so the piecewise-linear inversion used by the
    metric code is not accurate enough here.
    """
    cdf = to_cdf(f)
    if np.any(np.diff(cdf.values) <= 0):
        return to_quantile(cdf, tgrid).values
    q = PchipInterpolator(cdf.values, f.grid.points)(tgrid.points)
    q[0], q[-1] = f.grid.lo, f.grid.hi
    return q


def wasserstein_frechet_mean(sample, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Fréchet mean under the Wasserstein metric (quantile synchronization).

    The sample quantile functions are averaged pointwise on a shared
    probability grid; the average is inverted back to a CDF (monotone
    cubic interpolation) and differentiated by central differences with
    one-sided stencils at the endpoints, then floored and renormalized.
    """
    sample = list(sample)
    if not sample:
        raise EmptySampleError("mean of an empty sample")
    _check_shared_support(sample)
    if len(sample) == 1:
        return sample[0]
    m = max(f.grid.m for f in sample)
    tgrid = unit_grid(m)
    qbar = np.mean([_quantile_samples(f, tgrid) for f in sample], axis=0)
    grid = Grid(*sample[0].support, m)
    cdf = PchipInterpolator(qbar, tgrid.points)(grid.points)
    return normalize(np.gradient(cdf, grid.spacing, edge_order=2), grid, floor)


def frechet_mean(sample, metric: Metric, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Fréchet mean under the chosen metric.

    L2 gives the cross-sectional mean (densities are convex, so no
    projection is needed); Wasserstein gives the quantile-synchronized
    mean.
    """
    sample = list(sample)
    if not sample:
        raise EmptySampleError("mean of an empty sample")
    if len(sample) == 1:
        return sample[0]
    if metric is Metric.WASSERSTEIN:
        return wasserstein_frechet_mean(sample, floor)
    values = fpca.cross_sectional_mean(sample)
    return DensityFn(sample[0].grid, values)


def frechet_variance(sample, mean: DensityFn, metric: Metric) -> float:
    """Average squared metric distance to the given mean.

    The sample shares one grid.  Under the Wasserstein metric the mean
    may have another resolution on the same support; the finer grid sets
    the probability grid.
    """
    sample = list(sample)
    if not sample:
        raise EmptySampleError("variance of an empty sample")
    values, grid = fpca.stack(sample)
    if metric is Metric.L2 and mean.grid != grid:
        raise GridMismatchError("L2 distance requires identical grids")
    if mean.support != (grid.lo, grid.hi):
        raise SupportMismatchError(f"supports differ: {(grid.lo, grid.hi)} vs {mean.support}")
    m = max(grid.m, mean.grid.m)
    target, egrid = metric.embed_rows(values, grid, m)
    center, _ = metric.embed_rows(mean.values[None], mean.grid, m)
    return float(np.mean(sq_dist_rows(target, center, egrid)))


# ---------------------------------------------------------------------------
# Fitted representation methods
# ---------------------------------------------------------------------------


def blend_uniform(f: DensityFn, weight: float) -> DensityFn:
    """Mixture (1 - weight) * f + weight * uniform on the same support."""
    if weight == 0.0:
        return f
    return DensityFn(f.grid, _blend_rows(f.values, f.grid, weight))


def unblend_uniform(f: DensityFn, weight: float, floor: float) -> DensityFn:
    """Exact inverse of :func:`blend_uniform`, clipped and renormalized."""
    if weight == 0.0:
        return f
    return DensityFn(f.grid, _unblend_rows(f.values[None], f.grid, weight, floor)[0])


def _blend_rows(values: np.ndarray, grid: Grid, weight: float) -> np.ndarray:
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
    maps depend on the method.  The sample is held as one ``(n, m)``
    array (``values``) and every step works on it as a whole;
    ``DensityFn`` objects are built only for the densities that
    ``reconstruct`` and ``mode`` return.  ``reconstruct(K)`` silently
    uses all available components when K exceeds them (trailing
    components carry no variance), which also covers the degenerate
    single-subject sample: it has no components, and every method
    returns its mean.
    """

    def __init__(self, sample, method: MethodKind, floor: float = DEFAULT_FLOOR):
        self.sample = list(sample)
        if not self.sample:
            raise EmptySampleError("cannot fit a method to an empty sample")
        self.method = method
        self.floor = floor
        self.grid = self.sample[0].grid
        self.support = _check_shared_support(self.sample)
        self.values, _ = fpca.stack(self.sample)
        self.sphere_mean = None
        if method.kind == "hs":
            # tangent space at the Karcher mean of the square-root densities
            points = [SpherePoint(self.grid, row) for row in _embed_rows(self.values, self.grid)]
            self.sphere_mean, self.system = pga(points)
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

    def reconstruct_values(self, k: int) -> np.ndarray:
        """``(n, m)`` density values of the k-component representations."""
        if k < 0:
            raise ValueError("k must be >= 0")
        return self._to_density(fpca.truncate(self.system, min(k, self.n_components)))

    def reconstruct(self, k: int) -> list[DensityFn]:
        return [DensityFn(self.grid, row) for row in self.reconstruct_values(k)]

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

    The sample and every reconstruction are embedded once as rows
    (:meth:`Metric.embed_rows`), so each metric distance is an L2
    distance between two rows.  Raises ``ValueError`` unless
    0 < p < 1, as :func:`select_k` does.
    """
    sample = fitted.sample
    mean = frechet_mean(sample, metric, fitted.floor)
    v_inf = frechet_variance(sample, mean, metric)
    target, egrid = metric.embed_rows(fitted.values, fitted.grid)
    if k_max is None:
        k_max = default_k_max(fitted.system.eigenvalues, len(sample))
    k_max = max(1, k_max)
    v_k = np.empty(k_max)
    for k in range(1, k_max + 1):
        recon, _ = metric.embed_rows(fitted.reconstruct_values(k), fitted.grid)
        v_k[k - 1] = v_inf - float(np.mean(sq_dist_rows(target, recon, egrid)))
    fve = v_k / v_inf if v_inf > 0 else np.ones(k_max)
    selected, reached = _select(fve, p)
    return FrechetReport(metric, v_inf, v_k, fve, selected, reached, p, fitted.method)


def _select(fve: np.ndarray, p: float) -> KSelection:
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    hit = np.nonzero(fve > p)[0]
    if hit.size:
        return KSelection(int(hit[0]) + 1, True)
    return KSelection(len(fve), False)


def select_k(report: FrechetReport, p: float) -> KSelection:
    """Smallest K whose FVE exceeds p; falls back to K_max with
    ``reached=False`` when the threshold is never met."""
    return _select(report.fve, p)
