"""Square-root density embedding on the unit sphere of L2.

Densities map to their pointwise square roots, which have unit L2 norm.
Distances are arc lengths (arccos of inner products), means are Karcher
means found by tangent-space averaging, and PCA happens in the tangent
space at the mean (linearized principal geodesic analysis).  Strictly
positive densities share an orthant, so all pairwise angles stay below
pi/2 and the iteration is well behaved.  Geodesic operations (exp maps
with large tangents, modes at large parameters) may leave that orthant;
squaring back to densities folds the sign away again.  The module stays
on the sphere: squaring, flooring and renormalizing a point back to a
density is :func:`density.normalize_rows` of its square, in ``frechet``.

Points on the sphere are plain arrays on one grid: a sample is the
``(n, m)`` array of its unit-norm rows, a base point one ``(m,)`` row.
Every function maps all rows at once, and :func:`karcher_mean` runs one
:func:`log_map` and one :func:`exp_map` per iteration.  The unit-norm
check runs where points enter: :func:`log_map` and :func:`exp_map` check
their base and :func:`karcher_mean` its rows, raising
``BadArgumentError`` for a squared norm off 1 by more than 1e-9 and
``GridMismatchError`` for a column count other than the grid's.

The Hilbert-sphere method (``frechet.HilbertSphere``) embeds a sample
in L2 by the log map at its Karcher mean and maps FPCA output back by
the exp map followed by squaring; ``frechet`` computes that Karcher mean
once per ``DensitySample`` and shares it with the Fisher–Rao mean
(``frechet.fisher_rao_mean``), and keeps the embedded sample in the
sample's cache (``frechet.embedding``).
"""

from __future__ import annotations

import numpy as np

from .density import Grid, integrate_rows
from .errors import BadArgumentError, GridMismatchError, NoConvergenceError

KARCHER_TOL = 1e-9
KARCHER_MAX_ITER = 200


def _check_grid(points: np.ndarray, grid: Grid):
    if points.shape[-1] != grid.m:
        raise GridMismatchError("sphere points do not match the grid")


def _check_unit(points: np.ndarray, grid: Grid):
    """Raise unless every row of ``points`` lies on ``grid`` with unit L2 norm."""
    _check_grid(points, grid)
    if np.any(np.abs(integrate_rows(points * points, grid) - 1.0) > 1e-9):
        raise BadArgumentError("sphere points must have unit L2 norm")


def sqrt_embed(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Unit-norm square roots of each row of an ``(n, m)`` array of densities."""
    v = np.sqrt(values)
    return v / np.sqrt(integrate_rows(v * v, grid))[:, None]


def log_map(base: np.ndarray, data: np.ndarray, grid: Grid) -> np.ndarray:
    """Tangent vectors at ``base`` pointing to every row of ``data``, with
    norms equal to the geodesic distances."""
    _check_unit(base, grid)
    _check_grid(data, grid)
    c = np.clip(integrate_rows(data * base, grid), -1.0, 1.0)
    theta = np.arccos(c)
    far = theta >= 1e-15
    scale = np.zeros_like(theta)
    scale[far] = theta[far] / np.sin(theta[far])
    return scale[:, None] * (data - np.cos(theta)[:, None] * base)


def exp_map(base: np.ndarray, v: np.ndarray, grid: Grid) -> np.ndarray:
    """Geodesics from ``base`` along every row of ``v``, at time 1."""
    _check_unit(base, grid)
    _check_grid(v, grid)
    norm = np.sqrt(np.maximum(integrate_rows(v * v, grid), 0.0))
    far = norm >= 1e-15
    safe = np.where(far, norm, 1.0)
    out = np.cos(norm)[:, None] * base + (np.sin(norm) / safe)[:, None] * v
    out /= np.sqrt(integrate_rows(out * out, grid))[:, None]
    out[~far] = base
    return out


def karcher_mean(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Intrinsic mean (a read-only ``(m,)`` array) of the unit-norm rows of an
    ``(n, m)`` array on ``grid``, by iterated tangent averaging with unit steps.

    Each iteration log-maps all rows at once and stops when the mean
    tangent has L2 norm <= ``KARCHER_TOL``.
    """
    if data.ndim != 2:
        raise GridMismatchError("sphere points do not match the grid")
    _check_unit(data, grid)
    mu = data.mean(axis=0)
    mu /= np.sqrt(integrate_rows(mu * mu, grid))
    for _ in range(KARCHER_MAX_ITER):
        v = log_map(mu, data, grid).mean(axis=0)
        if np.sqrt(max(integrate_rows(v * v, grid), 0.0)) <= KARCHER_TOL:
            mu.flags.writeable = False
            return mu
        mu = exp_map(mu, v[None], grid)[0]
    raise NoConvergenceError(f"karcher_mean did not converge in {KARCHER_MAX_ITER} iterations")
