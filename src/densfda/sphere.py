"""Square-root density embedding on the unit sphere of L2.

Densities map to their pointwise square roots, which have unit L2 norm.
Distances are arc lengths (arccos of inner products), means are Karcher
means found by tangent-space averaging, and PCA happens in the tangent
space at the mean (linearized principal geodesic analysis).  Strictly
positive densities share an orthant, so all pairwise angles stay below
pi/2 and the iteration is well behaved.

A sample on the sphere is the ``(n, m)`` array of its unit-norm rows,
and :func:`karcher_mean` iterates on that array as a whole.  The
Hilbert-sphere method (``frechet.FittedMethod``) maps the embedded
sample into L2 by the log map at its Karcher mean and maps FPCA output
back by the exp map followed by squaring; ``frechet`` computes that
Karcher mean once per ``DensitySample`` and shares it with the
Fisher–Rao mean (``frechet.fisher_rao_mean``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import (
    DEFAULT_FLOOR,
    DensityFn,
    Grid,
    inner_product,
    integrate_rows,
    normalize_rows,
)
from .errors import GridMismatchError, NoConvergenceError

KARCHER_TOL = 1e-9
KARCHER_MAX_ITER = 200


@dataclass(frozen=True)
class SpherePoint:
    """Grid function with unit L2 norm.

    Embedded square-root densities are nonnegative; geodesic operations
    (exp maps with large tangents, modes at large parameters) may leave
    the nonnegative orthant, and squaring back to a density folds the
    sign away again.
    """

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if abs(inner_product(v, v, self.grid) - 1.0) > 1e-9:
            raise ValueError("sphere points must have unit L2 norm")


def sqrt_embed(f: DensityFn) -> SpherePoint:
    return SpherePoint(f.grid, _embed_rows(f.values[None], f.grid)[0])


def square_back(p: SpherePoint, floor: float = DEFAULT_FLOOR) -> DensityFn:
    return DensityFn(p.grid, _square_rows(p.values[None], p.grid, floor)[0])


def log_map(base: SpherePoint, p: SpherePoint) -> np.ndarray:
    """Tangent vector at `base` pointing to `p` with norm = geodesic distance."""
    if p.grid != base.grid:
        raise GridMismatchError("sphere points live on different grids")
    return _log_rows(base, p.values[None])[0]


def exp_map(base: SpherePoint, v: np.ndarray) -> SpherePoint:
    """Geodesic from `base` with initial velocity v, evaluated at time 1."""
    return SpherePoint(base.grid, _exp_rows(base, np.asarray(v, dtype=float)[None])[0])


def karcher_mean(data: np.ndarray, grid: Grid) -> SpherePoint:
    """Intrinsic mean of the unit-norm rows of an ``(n, m)`` array on ``grid``,
    by iterated tangent averaging with unit steps.

    Each iteration log-maps all rows at once (:func:`_log_rows`) and stops
    when the mean tangent has L2 norm <= ``KARCHER_TOL``.
    """
    if data.ndim != 2 or data.shape[1] != grid.m:
        raise GridMismatchError("sphere points do not match the grid")
    init = data.mean(axis=0)
    init /= np.sqrt(inner_product(init, init, grid))
    mu = SpherePoint(grid, init)
    for _ in range(KARCHER_MAX_ITER):
        v = _log_rows(mu, data).mean(axis=0)
        if np.sqrt(max(inner_product(v, v, grid), 0.0)) <= KARCHER_TOL:
            return mu
        mu = exp_map(mu, v)
    raise NoConvergenceError(f"karcher_mean did not converge in {KARCHER_MAX_ITER} iterations")


def _embed_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Unit-norm square roots of each row of an ``(n, m)`` array of densities."""
    v = np.sqrt(values)
    return v / np.sqrt(integrate_rows(v * v, grid))[:, None]


def _square_rows(points: np.ndarray, grid: Grid, floor: float) -> np.ndarray:
    """Densities (squared, floored, renormalized) of rows of sphere points."""
    return normalize_rows(points**2, grid, floor)


def _log_rows(base: SpherePoint, data: np.ndarray) -> np.ndarray:
    """Tangent vectors at ``base`` pointing to every row of ``data``."""
    c = np.clip(integrate_rows(data * base.values, base.grid), -1.0, 1.0)
    theta = np.arccos(c)
    far = theta >= 1e-15
    scale = np.zeros_like(theta)
    scale[far] = theta[far] / np.sin(theta[far])
    return scale[:, None] * (data - np.cos(theta)[:, None] * base.values)


def _exp_rows(base: SpherePoint, v: np.ndarray) -> np.ndarray:
    """Geodesics from ``base`` along every row of ``v``, at time 1."""
    grid = base.grid
    norm = np.sqrt(np.maximum(integrate_rows(v * v, grid), 0.0))
    far = norm >= 1e-15
    safe = np.where(far, norm, 1.0)
    out = np.cos(norm)[:, None] * base.values + (np.sin(norm) / safe)[:, None] * v
    out /= np.sqrt(integrate_rows(out * out, grid))[:, None]
    out[~far] = base.values
    return out
