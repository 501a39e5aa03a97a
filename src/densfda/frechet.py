"""Fréchet means and variance, FVE curves, truncation choice and modes.

Total variation of a density sample is measured by the Fréchet variance
under a chosen metric (L2 or Wasserstein), and the quality of a
K-component representation by the fraction of that variance it explains
(FVE).  The metrics are :class:`density.Metric`, imported from there.
A representation method maps the sample into L2 and back, and each of
the three is a small frozen type that owns both maps:
:class:`OrdinaryFpca` takes the densities as they are;
:class:`TransformMethod` maps each density through its transform, a
:class:`transforms.Lqd` or :class:`transforms.LogHazard`, and back
through its inverse, and takes its label from it;
:class:`HilbertSphere` log-maps the square-root densities at their
Karcher mean and maps back by the exp map and squaring.  Whatever is
left outside density space (negative values of ordinary FPCA, the
transform output once its uniform blend is removed, squared sphere
points) goes back through the one map :func:`density.normalize_rows`.
:class:`FittedMethod` runs FPCA in between; ``reconstruct(K)`` returns
the K-component representations of the whole sample as one ``(n, m)``
array, and they and the modes are valid densities for every K and mode
parameter.  :func:`method_named` is the one table of method names, and
``MEANS`` the one table of Fréchet means.

Every function takes a sample as one :class:`density.DensitySample`; the
three Fréchet means are one-row samples.  The sample's cache
(:meth:`DensitySample.cached`) keeps its Fréchet means, the variance
V_inf, the ``(m,)`` Karcher mean of the square-root densities (for the
Hilbert-sphere method and the Fisher–Rao mean) and, per metric or
method, its read-only :func:`embedding`, which every method fitted to
it, every FVE curve and the regression scores share.
:func:`fve_report` is the one FVE entry point.  The Wasserstein mean
inverts all sample CDFs, and then their averaged quantile function,
through one batched monotone cubic kernel (:func:`density.pchip_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fpca
from .density import (
    DEFAULT_FLOOR,
    DensitySample,
    Grid,
    Metric,
    cdf_rows,
    normalize_rows,
    pchip_rows,
    quantile_rows,
    sq_dist_rows,
    unit_grid,
)
from .errors import BadArgumentError
from .sphere import exp_map, karcher_mean, log_map, sqrt_embed
from .transforms import LQD, LogHazard, Transform, forward_rows, inverse_rows

K_MAX_CAP = 20
EXPLAINED_TAIL = 1e-8  # eigenvalue mass allowed beyond the default K_max
# fve_report maps back max(1, BLOCK_ELEMENTS // m) rows at a time, 64 rows of
# 1,024 points: smaller blocks pay more per-call overhead, and blocks of 1 MiB
# had glibc map fresh pages, and fault them in, on every allocation
BLOCK_ELEMENTS = 2**16


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
    method: Method


def embedding(sample: DensitySample, how) -> tuple[np.ndarray, Grid]:
    """``how.embed(sample)`` for a :class:`Metric` or a method: the sample's
    rows in the space it works in and their grid, computed once per sample
    and kept read-only."""
    rows, egrid = sample.cached(("embedding", how), lambda: how.embed(sample))
    rows.flags.writeable = False
    return rows, egrid


def _karcher_mean(sample: DensitySample) -> np.ndarray:
    """:func:`sphere.karcher_mean` of the square-root densities, ``(m,)``, kept."""
    return sample.cached("karcher", lambda: karcher_mean(sqrt_embed(sample.values, sample.grid), sample.grid))


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


def wasserstein_frechet_mean(sample: DensitySample, floor: float = DEFAULT_FLOOR) -> DensitySample:
    """Fréchet mean under the Wasserstein metric (quantile synchronization).

    The sample quantile functions are averaged pointwise on a probability
    grid of the sample's size; the average is inverted back to a CDF and
    differentiated by central differences with one-sided stencils at the
    endpoints, then floored and renormalized.  Both inversions are
    monotone cubic and run through one batched kernel,
    :func:`pchip_rows`: all sample CDFs at once, then the one average.
    A one-density sample is its own mean.  The second inversion works with
    cubes of the support width and of its inverse, so on supports
    narrower than about 1e-102 or wider than about 3e103 it overflows and
    the mean raises ``NonFiniteError``.
    """
    grid = sample.grid
    if len(sample) == 1:
        return sample
    tgrid = unit_grid(grid.m)
    # on extreme supports the cubics overflow; normalize_rows reports the result
    with np.errstate(over="ignore", invalid="ignore"):
        qbar = _pchip_quantile_rows(cdf_rows(sample.values, grid), grid, tgrid).mean(axis=0)
        cdf = pchip_rows(qbar, tgrid.points, grid.points)[0]
        raw = np.gradient(cdf, grid.spacing, edge_order=2)
    density = normalize_rows(raw[None], grid, floor)
    return DensitySample(density, grid)


def frechet_mean(sample: DensitySample, metric: Metric, floor: float = DEFAULT_FLOOR) -> DensitySample:
    """Fréchet mean under the chosen metric, as a one-row sample.

    L2 gives the cross-sectional mean (densities are convex, so no
    projection is needed); Wasserstein gives the quantile-synchronized
    mean.  It is computed once per sample and kept.
    """
    if metric is Metric.WASSERSTEIN:
        return sample.cached(("mean", metric, floor), lambda: wasserstein_frechet_mean(sample, floor))
    return sample.cached(
        ("mean", metric), lambda: DensitySample(sample.values.mean(axis=0, keepdims=True), sample.grid)
    )


def fisher_rao_mean(sample: DensitySample, floor: float = DEFAULT_FLOOR) -> DensitySample:
    """Fréchet mean under the geodesic metric of the square-root embedding.

    The Karcher mean of the square-root densities, squared back to a
    one-row sample.  The Karcher mean is computed once per sample and kept.
    """
    return DensitySample(normalize_rows(_karcher_mean(sample)[None] ** 2, sample.grid, floor), sample.grid)


MEANS = {  # the one table of Fréchet means by name: (sample, floor) -> one-row sample
    "l2": lambda sample, floor: frechet_mean(sample, Metric.L2, floor),
    "wasserstein": lambda sample, floor: frechet_mean(sample, Metric.WASSERSTEIN, floor),
    "fisher_rao": lambda sample, floor: fisher_rao_mean(sample, floor),
}


def frechet_variance(sample: DensitySample, metric: Metric, floor: float = DEFAULT_FLOOR) -> float:
    """V_inf: the average squared metric distance to the sample's Fréchet
    mean (:func:`frechet_mean`), computed once per sample and kept."""

    def variance():
        target, egrid = embedding(sample, metric)
        center, _ = metric.embed_rows(frechet_mean(sample, metric, floor).values, sample.grid)
        return float(np.mean(sq_dist_rows(target, center, egrid)))

    return sample.cached(("variance", metric, floor), variance)


# ---------------------------------------------------------------------------
# Representation methods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrdinaryFpca:
    """Ordinary FPCA: the densities as they are, mapped back by flooring
    and renormalizing (:func:`density.normalize_rows`)."""

    label = "FPCA"

    def embed(self, sample: DensitySample) -> tuple[np.ndarray, Grid]:
        return sample.values, sample.grid

    def to_density(self, rows: np.ndarray, grid: Grid, sample: DensitySample, floor: float) -> np.ndarray:
        return normalize_rows(rows, grid, floor)


@dataclass(frozen=True)
class TransformMethod:
    """The log quantile density (the default) or log hazard map, and back.

    ``blend`` mixes each density with the uniform density on its support
    before the forward transform and removes the mixture exactly after
    inversion.  It bounds the transformed functions when densities run
    very close to zero near the support boundary (where the inverse map
    amplifies errors exponentially) and leaves the method unchanged at 0.
    """

    transform: Transform = LQD
    blend: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.blend < 1.0):
            raise BadArgumentError(f"blend must be in [0, 1), got {self.blend}")

    @property
    def label(self) -> str:
        return self.transform.label

    def embed(self, sample: DensitySample) -> tuple[np.ndarray, Grid]:
        blended = (1.0 - self.blend) * sample.values + self.blend / sample.grid.width
        tgrid, xs = forward_rows(blended, sample.grid, self.transform)
        return xs, tgrid

    def to_density(self, rows: np.ndarray, grid: Grid, sample: DensitySample, floor: float) -> np.ndarray:
        dens = inverse_rows(rows, grid, self.transform, sample.support)
        if self.blend == 0.0:
            return dens
        raw = (dens - self.blend / sample.grid.width) / (1.0 - self.blend)
        return normalize_rows(raw, sample.grid, floor)


@dataclass(frozen=True)
class HilbertSphere:
    """The Hilbert sphere: the log map of the square-root densities at
    their kept Karcher mean, and back by the exp map and squaring."""

    label = "HS"

    def embed(self, sample: DensitySample) -> tuple[np.ndarray, Grid]:
        return log_map(_karcher_mean(sample), sqrt_embed(sample.values, sample.grid), sample.grid), sample.grid

    def to_density(self, rows: np.ndarray, grid: Grid, sample: DensitySample, floor: float) -> np.ndarray:
        return normalize_rows(exp_map(_karcher_mean(sample), rows, grid) ** 2, grid, floor)


Method = OrdinaryFpca | TransformMethod | HilbertSphere


def method_named(name: str, delta: float = 0.1) -> Method:
    """The method the command line calls ``name``; only ``"loghazard"``
    reads ``delta``.  Raises ``BadArgumentError`` for any other name."""
    methods = {"lqd": TransformMethod, "fpca": OrdinaryFpca, "hs": HilbertSphere,
               "loghazard": lambda: TransformMethod(LogHazard(delta))}
    if name not in methods:
        raise BadArgumentError(f"method must be one of {tuple(methods)}, got {name!r}")
    return methods[name]()


class FittedMethod:
    """One method fitted to a sample, reusable across truncation levels K.

    FPCA runs on the method's :func:`embedding` of the sample, and its
    output goes back to densities through the method's ``to_density``.
    ``reconstruct`` returns an ``(n, m)`` array of density values and
    ``modes`` a ``DensitySample``.  ``reconstruct(K)`` silently uses all
    available components when K exceeds them (trailing components carry
    no variance), which also covers the degenerate single-subject sample:
    it has no components, and every method returns its mean.
    """

    def __init__(self, sample: DensitySample, method: Method, floor: float = DEFAULT_FLOOR):
        self.sample, self.method, self.floor, self.grid = sample, method, floor, sample.grid
        self.system = fpca.fit(*embedding(sample, method))

    @property
    def n_components(self) -> int:
        return self.system.n_components

    def reconstruct(self, k: int) -> np.ndarray:
        """``(n, m)`` density values of the k-component representations."""
        if k < 0:
            raise BadArgumentError("k must be >= 0")
        return self._to_density(fpca.truncate(self.system, min(k, self.n_components)))

    def modes(self, ks, alphas) -> DensitySample:
        """Modes of variation along each component k (1-based) at each
        parameter alpha, k-major, mapped back in one call."""
        rows = [fpca.mode_of_variation(self.system, k, alpha) for k in ks for alpha in alphas]
        return DensitySample(self._to_density(np.stack(rows)), self.grid)

    def _to_density(self, rows: np.ndarray) -> np.ndarray:
        """Density values of rows in the method's space, each row on its own."""
        return self.method.to_density(rows, self.system.grid, self.sample, self.floor)


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


def _sq_distances(fitted: FittedMethod, k: int, metric: Metric, target: np.ndarray, egrid: Grid) -> np.ndarray:
    """Squared metric distances from the rows of ``target``, the sample's
    embedding, to their k-component representations, mapped back and
    embedded in row blocks (see :func:`fve_report`)."""
    truncation = fpca.truncate(fitted.system, min(k, fitted.n_components))
    n, m = truncation.shape
    dist, rows = np.empty(n), max(1, BLOCK_ELEMENTS // m)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        recon, _ = metric.embed_rows(fitted._to_density(truncation[block]), fitted.grid)
        dist[block] = sq_dist_rows(target[block], recon, egrid)
    return dist


def fve_report(
    fitted: FittedMethod,
    metric: Metric,
    k_max: int | None = None,
    p: float = 0.9,
) -> FrechetReport:
    """Fréchet variance explained by K = 1..k_max components of a fitted method.

    V_K = V_inf - mean_i d(f_i, reconstruction_i(K))^2, reported as the
    curve of ratios V_K / V_inf together with the smallest K exceeding
    the threshold p.  The sample's Fréchet mean, V_inf and embedding are
    computed once per metric and kept in the sample's cache, for all the
    methods fitted to it.  Every reconstruction is embedded once as
    rows (:meth:`Metric.embed_rows`), so each metric distance is an L2
    distance between two rows.  The selected K is the smallest whose FVE
    exceeds p, or k_max with ``threshold_reached`` False when none does.
    Raises ``BadArgumentError`` unless 0 < p < 1 and k_max >= 1.

    Memory is bounded by blocks of rows.  Each K's truncation is formed
    for all rows as one matmul, since a row block of the product can
    round differently in its last bit.  It is then mapped back to
    densities, embedded and measured against the sample
    ``max(1, BLOCK_ELEMENTS // m)`` rows at a time.  Each of those steps
    treats every row on its own and the distances fill one ``(n,)``
    array, so the curve is the one the whole array gives, and a sample
    fails here exactly when it fails there.  A sample of at most
    ``BLOCK_ELEMENTS`` values is one block.
    """
    if not (0.0 < p < 1.0):
        raise BadArgumentError("p must be in (0, 1)")
    if k_max is not None and k_max < 1:
        raise BadArgumentError(f"k_max must be >= 1, got {k_max}")
    sample = fitted.sample
    v_inf = frechet_variance(sample, metric, fitted.floor)
    target, egrid = embedding(sample, metric)
    if k_max is None:
        k_max = default_k_max(fitted.system.eigenvalues, len(sample))
    v_k = np.empty(k_max)
    for k in range(1, k_max + 1):
        v_k[k - 1] = v_inf - float(np.mean(_sq_distances(fitted, k, metric, target, egrid)))
    fve = v_k / v_inf if v_inf > 0 else np.ones(k_max)
    hit = np.nonzero(fve > p)[0]
    selected, reached = (int(hit[0]) + 1, True) if hit.size else (k_max, False)
    return FrechetReport(metric, v_inf, v_k, fve, selected, reached, p, fitted.method)
