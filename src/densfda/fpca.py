"""Functional PCA on grid functions: mean, eigensystem, scores.

All inner products are trapezoidal, so eigenfunctions come out
orthonormal in L2 of the grid rather than in Euclidean coordinates.
:func:`fit` never forms the m x m covariance surface.  With quadrature
weights w, it takes the thin SVD of the weighted, centered sample
(X - mean) * sqrt(w) / sqrt(n) = U S V^T.  The squared singular values
are the eigenvalues of the covariance operator, and the rows of
V^T / sqrt(w) are its eigenfunctions.  For n < m that costs O(n^2 m)
instead of O(m^3).  Components at the round-off level come out with
singular values near 1e-16 of the leading one, so their eigenvalues
(near 1e-32 of it, rather than near 1e-12 from a covariance eigensolver)
fall under the drop rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DEFAULT_FLOOR, Grid, normalize_rows
from .errors import EmptySampleError, GridMismatchError, KTooLargeError

EIGENVALUE_DROP = 1e-12  # relative to the leading eigenvalue


@dataclass
class EigenSystem:
    """Mean, eigenvalues, orthonormal eigenfunctions and per-subject scores."""

    grid: Grid
    mean: np.ndarray
    eigenvalues: np.ndarray  # descending, >= 0
    eigenfunctions: np.ndarray  # (K, m), orthonormal in L2(grid)
    scores: np.ndarray = field(default=None)  # (n, K)

    @property
    def n_components(self) -> int:
        return len(self.eigenvalues)


def stack(sample, grid: Grid | None = None) -> tuple[np.ndarray, Grid]:
    """Stack grid functions (or a 2-D array) into an (n, m) matrix and its grid."""
    if isinstance(sample, np.ndarray) and sample.ndim == 2:
        if grid is None:
            raise ValueError("a grid is required with a plain array sample")
        if sample.shape[1] != grid.m:
            raise GridMismatchError("array columns do not match the grid")
        return np.asarray(sample, dtype=float), grid
    rows = list(sample)
    if not rows:
        raise EmptySampleError("sample is empty")
    grids = [f.grid for f in rows]
    if any(g != grids[0] for g in grids):
        raise GridMismatchError("sample members live on different grids")
    if grid is not None and grid != grids[0]:
        raise GridMismatchError("sample grid differs from the requested grid")
    return np.stack([f.values for f in rows]), grids[0]


def scores(sample, mean, eigenfunctions: np.ndarray, grid: Grid | None = None) -> np.ndarray:
    """Projections of centered sample functions onto the eigenfunctions."""
    data, g = stack(sample, grid)
    centered = data - np.asarray(mean, dtype=float)
    return centered @ (eigenfunctions * g.trapezoid_weights()).T


def fit(sample, grid: Grid | None = None, k: int | None = None) -> EigenSystem:
    """Mean, eigensystem (by thin SVD of the weighted sample) and scores.

    Eigenvalues come out descending; components below ``EIGENVALUE_DROP``
    times the leading eigenvalue, or below the round-off bound (m eps)^2
    times the mean squared L2 norm of the uncentered rows, are dropped,
    then at most ``k`` are kept.  Each eigenfunction has unit L2 norm and
    its largest-magnitude value positive.  A single function, or a sample
    of identical ones, gives its own mean and no components.
    """
    data, g = stack(sample, grid)
    if len(data) == 0:
        raise EmptySampleError("cannot fit an empty sample")
    mean = data.mean(axis=0)
    w = g.trapezoid_weights()
    sw = np.sqrt(w)
    centered = data - mean
    _, s, vt = np.linalg.svd(centered * (sw / np.sqrt(len(data))), full_matrices=False)
    # singular values come out descending, so no sort is needed
    vals, funcs = s**2, vt / sw
    # identical rows leave only round-off, which the relative rule keeps
    roundoff = (g.m * np.finfo(float).eps) ** 2 * np.mean(data**2 @ w)
    keep = vals > max(EIGENVALUE_DROP * vals[0], roundoff)
    vals, funcs = vals[keep][:k], funcs[keep][:k]
    funcs /= np.sqrt(np.einsum("km,m,km->k", funcs, w, funcs))[:, None]
    flip = funcs[np.arange(len(funcs)), np.abs(funcs).argmax(axis=1)] < 0
    funcs[flip] *= -1.0
    return EigenSystem(g, mean, vals, funcs, centered @ (funcs * w).T)


def truncate(system: EigenSystem, k: int) -> np.ndarray:
    """Reconstructions using the first k components; k = 0 gives the mean."""
    if k < 0 or k > system.n_components:
        raise KTooLargeError(
            f"k = {k} not in [0, {system.n_components}] available components"
        )
    n = system.scores.shape[0]
    if k == 0:
        return np.tile(system.mean, (n, 1))
    return system.mean + system.scores[:, :k] @ system.eigenfunctions[:k]


def mode_of_variation(system: EigenSystem, k: int, alpha: float) -> np.ndarray:
    """Mean plus alpha standard deviations along component k (1-based)."""
    if not 1 <= k <= system.n_components:
        raise KTooLargeError(f"component {k} of {system.n_components} requested")
    return system.mean + alpha * np.sqrt(system.eigenvalues[k - 1]) * system.eigenfunctions[k - 1]


def project_rows(values: np.ndarray, grid: Grid, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Positive part of each row of an ``(n, m)`` array, floored and
    renormalized to a density.

    Raises ``AllZeroError`` when a row's positive part carries no mass.
    """
    return normalize_rows(np.maximum(values, 0.0), grid, floor)
