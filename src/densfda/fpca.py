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
fall under the drop rule.  :func:`eigendecompose` serves callers that
already hold a covariance surface; both paths share the ordering, drop
rule, normalization and sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DEFAULT_FLOOR, DensityFn, Grid, normalize_rows
from .errors import (
    EmptySampleError,
    GridMismatchError,
    KTooLargeError,
    NotSymmetricError,
)

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

    def validate(self, tol: float = 1e-8):
        """Assert orthonormality, eigenvalue ordering and centered scores."""
        w = self.grid.trapezoid_weights()
        gram = (self.eigenfunctions * w) @ self.eigenfunctions.T
        if np.abs(gram - np.eye(self.n_components)).max() > tol:
            raise ValueError("eigenfunctions are not orthonormal on the grid")
        if np.any(np.diff(self.eigenvalues) > 0) or np.any(self.eigenvalues < 0):
            raise ValueError("eigenvalues must be nonincreasing and nonnegative")
        if self.scores is not None and self.scores.size:
            if np.abs(self.scores.mean(axis=0)).max() > tol:
                raise ValueError("score columns are not centered")
        return self


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
    grids = [getattr(f, "grid", None) or getattr(f, "tgrid") for f in rows]
    if any(g != grids[0] for g in grids):
        raise GridMismatchError("sample members live on different grids")
    if grid is not None and grid != grids[0]:
        raise GridMismatchError("sample grid differs from the requested grid")
    return np.stack([f.values for f in rows]), grids[0]


def cross_sectional_mean(sample, grid: Grid | None = None) -> np.ndarray:
    """Pointwise average of the sample functions (n >= 2)."""
    data, _ = stack(sample, grid)
    if data.shape[0] < 2:
        raise EmptySampleError("mean requires at least two functions")
    return data.mean(axis=0)


def covariance(sample, mean, grid: Grid | None = None) -> np.ndarray:
    """Empirical covariance surface (1/n convention), symmetrized."""
    data, _ = stack(sample, grid)
    if data.shape[0] < 2:
        raise EmptySampleError("covariance requires at least two functions")
    centered = data - np.asarray(mean, dtype=float)
    cov = centered.T @ centered / data.shape[0]
    return 0.5 * (cov + cov.T)


def eigendecompose(cov: np.ndarray, grid: Grid, k: int | None = None):
    """Eigenvalues and L2-orthonormal eigenfunctions of a covariance surface.

    This is the path for callers that pass a covariance surface; a
    sample is decomposed by :func:`fit` without forming one.  The
    surface is symmetrized with the square roots of the quadrature
    weights, which keeps the eigenproblem symmetric and the recovered
    eigenfunctions orthonormal.

    Parameters
    ----------
    cov : ndarray (m, m)
        Symmetric covariance surface on the grid.
    grid : Grid
        Grid carrying the quadrature weights.
    k : int, optional
        Keep at most this many leading components.

    Returns
    -------
    eigenvalues : ndarray, descending, clipped at zero; components below
        ``EIGENVALUE_DROP`` times the leading eigenvalue are dropped.
    eigenfunctions : ndarray (K, m) with unit L2 norm and the sign fixed
        so each function's largest-magnitude value is positive.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (grid.m, grid.m):
        raise GridMismatchError("covariance surface does not match the grid")
    if np.abs(cov - cov.T).max() > 1e-10 * max(np.abs(cov).max(), 1e-300):
        raise NotSymmetricError("covariance surface is not symmetric")
    w = grid.trapezoid_weights()
    sw = np.sqrt(w)
    b = sw[:, None] * cov * sw[None, :]
    b = 0.5 * (b + b.T)
    vals, vecs = np.linalg.eigh(b)
    return _eigensystem(vals, vecs.T / sw[None, :], w, k)


def _eigensystem(vals: np.ndarray, funcs: np.ndarray, w: np.ndarray, k: int | None):
    """Order, drop, truncate, normalize and sign-fix raw eigenpairs."""
    order = np.argsort(vals)[::-1]
    vals = np.clip(vals[order], 0.0, None)
    funcs = funcs[order]
    keep = vals > EIGENVALUE_DROP * (vals[0] if vals.size and vals[0] > 0 else 1.0)
    vals, funcs = vals[keep], funcs[keep]
    if k is not None:
        vals, funcs = vals[:k], funcs[:k]
    norms = np.sqrt(np.einsum("km,m,km->k", funcs, w, funcs))
    funcs = funcs / norms[:, None]
    flip = funcs[np.arange(len(funcs)), np.abs(funcs).argmax(axis=1)] < 0
    funcs[flip] *= -1.0
    return vals, funcs


def scores(sample, mean, eigenfunctions: np.ndarray, grid: Grid | None = None) -> np.ndarray:
    """Projections of centered sample functions onto the eigenfunctions."""
    data, g = stack(sample, grid)
    centered = data - np.asarray(mean, dtype=float)
    return centered @ (eigenfunctions * g.trapezoid_weights()).T


def fit(sample, grid: Grid | None = None, k: int | None = None) -> EigenSystem:
    """Mean, eigensystem (by thin SVD of the weighted sample) and scores.

    A single function gives its own mean, no components and scores of
    shape (1, 0).
    """
    data, g = stack(sample, grid)
    if len(data) == 0:
        raise EmptySampleError("cannot fit an empty sample")
    mean = data.mean(axis=0)
    w = g.trapezoid_weights()
    sw = np.sqrt(w)
    centered = data - mean
    _, s, vt = np.linalg.svd(centered * (sw / np.sqrt(len(data))), full_matrices=False)
    vals, funcs = _eigensystem(s**2, vt / sw, w, k)
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


def project_to_density(values, grid: Grid, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Positive part, floored and renormalized, of an arbitrary grid function.

    Raises ``AllZeroError`` when the positive part carries no mass.
    """
    raw = np.asarray(values, dtype=float)
    if raw.shape != (grid.m,):
        raise GridMismatchError("raw values must match the grid size")
    return DensityFn(grid, project_rows(raw[None], grid, floor)[0])


def project_rows(values: np.ndarray, grid: Grid, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """:func:`project_to_density` of each row of an ``(n, m)`` array."""
    return normalize_rows(np.maximum(values, 0.0), grid, floor)
