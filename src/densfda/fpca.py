"""Functional PCA on grid functions: mean, eigensystem, scores.

All inner products are trapezoidal, so eigenfunctions come out
orthonormal in L2 of the grid rather than in Euclidean coordinates.
With quadrature weights w, the covariance operator of an ``(n, m)``
sample X has the eigenvalues of A^T A, where A is the weighted, centered
sample (X - mean) * sqrt(w) / sqrt(n), and its eigenfunctions are the
eigenvectors of A^T A divided by sqrt(w).  :func:`fit` never forms the
covariance surface of an n < m sample: it takes one symmetric eigensolve
of the smaller Gram matrix, chosen from the array's shape alone (the
method of snapshots; Sirovich, Q. Appl. Math. 45, 1987):

- n < m: ``eigh(A A^T)``, n x n, in O(n^2 m + n^3).  An eigenvector u
  with eigenvalue lam gives the eigenfunction (u^T A) / sqrt(lam) / sqrt(w).
- n >= m: ``eigh(A^T A)``, m x m, in O(n m^2 + m^3).

Both Gram matrices have the same nonzero eigenvalues.

Round-off.  A Gram matrix squares the condition number of A.  Forming G
and a backward-stable eigensolve leave each eigenvalue with an absolute
error of order eps tr(G), (n + m) eps tr(G) at worst, so a direction that
carries no variance comes out near 1e-16 lam_0 rather than at the
1e-32 lam_0 of squared singular values: at most 7e-16 lam_0 on samples
of exact rank, 200 x 1024 and 800 x 512, whose traces reach 18 lam_0.
Negative ones are clamped to 0.  Two rules drop such components:

- relative: lam <= ``EIGENVALUE_DROP`` lam_0 = 1e-12 lam_0, more than
  three orders above that level;
- absolute: lam <= (m eps)^2 times the mean squared L2 norm of the
  uncentered rows.  Identical rows centre to entries of about eps |x|
  (their mean can miss them by an ulp), so G and all its eigenvalues are
  near eps^2 |x|^2, some m^2 below this bound.  The relative rule cannot
  see that, as lam_0 is then round-off itself.

Accuracy.  That absolute error, a few eps lam_0, is shared by all
components, so the relative error of lam_k grows like eps lam_0 / lam_k:
about 1e-8 at lam_k = 1e-8 lam_0 and up to 1e-4 just above the relative
rule, where singular values would give eps sqrt(lam_0 / lam_k).  An
eigenfunction is off by about eps lam_0 / gap_k, with gap_k the distance
from lam_k to the nearest other eigenvalue (Davis-Kahan); for n < m the
map through A scales that by sqrt(lam_0 / lam_k).  The leading
components, which carry the FVE, the modes and the scores, keep
round-off accuracy.

The module works on plain arrays and knows nothing of densities: the map
of its output back to density space belongs to each method in
``frechet``, through :func:`density.normalize_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DensitySample, Grid
from .errors import BadArgumentError, EmptySampleError, GridMismatchError, KTooLargeError, NonFiniteError

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


def scores(data, mean, eigenfunctions: np.ndarray, grid: Grid) -> np.ndarray:
    """Projections of the centered rows of an ``(n, m)`` array on ``grid``
    onto the eigenfunctions."""
    centered = np.asarray(data, dtype=float) - np.asarray(mean, dtype=float)
    return centered @ (eigenfunctions * grid.trapezoid_weights()).T


def fit(sample, grid: Grid | None = None, k: int | None = None) -> EigenSystem:
    """Mean, eigensystem (by one eigensolve of the smaller Gram matrix of
    the weighted, centered sample) and scores.

    ``sample`` is an ``(n, m)`` array of functions on ``grid`` or, without
    a grid, a :class:`DensitySample`.  A NaN or infinite value raises
    ``NonFiniteError``.  The Gram matrix is n x n for n < m and m x m
    otherwise; see the module notes for the cost and accuracy of each.
    The sample is divided by the power of two at or just below its
    largest magnitude, which is exact, and the mean, scores and
    eigenvalues are scaled back, so values near 1e160 fit as well as
    values near 1.  An eigenvalue that overflows on the way back raises
    ``NonFiniteError``.

    Eigenvalues come out descending, with round-off negatives clamped to
    0; components below ``EIGENVALUE_DROP`` times the leading eigenvalue,
    or below the round-off bound (m eps)^2 times the mean squared L2 norm
    of the uncentered rows, are dropped, then at most ``k`` are kept
    (a negative ``k`` raises ``BadArgumentError``).  Each eigenfunction
    has unit L2 norm and its largest-magnitude value positive.  A single
    function, or identical ones, gives its own mean and no components.
    """
    if k is not None and k < 0:
        raise BadArgumentError(f"k must be >= 0, got {k}")
    if grid is None:
        sample, grid = sample.values, sample.grid
    data = np.asarray(sample, dtype=float)
    if data.ndim != 2 or data.shape[1] != grid.m:
        raise GridMismatchError("array columns do not match the grid")
    if len(data) == 0:
        raise EmptySampleError("cannot fit an empty sample")
    peak = max(data.max(), -data.min())
    if not np.isfinite(peak):
        raise NonFiniteError("sample contains NaN or infinite values")
    n = len(data)
    # a power of two scales exactly, and keeps the squares below overflow
    scale = np.ldexp(1.0, max(np.frexp(peak)[1] - 1, -1022))
    scaled = data * (1.0 / scale)
    mean = scaled.mean(axis=0)
    w = grid.trapezoid_weights()
    sw = np.sqrt(w)
    # identical rows leave only round-off, which the relative rule keeps
    roundoff = (grid.m * np.finfo(float).eps) ** 2 * np.mean(scaled**2 @ w)
    centered = np.subtract(scaled, mean, out=scaled)
    a = centered * (sw / np.sqrt(n))
    vals, vecs = np.linalg.eigh(a @ a.T if n < grid.m else a.T @ a)
    vals, vecs = np.maximum(vals[::-1], 0.0), vecs.T[::-1]
    keep = vals > max(EIGENVALUE_DROP * vals[0], roundoff)
    vals, vecs = vals[keep][:k], vecs[keep][:k]
    if n < grid.m:  # eigenvectors of A A^T map to those of A^T A through A
        vecs = (vecs @ a) / np.sqrt(vals)[:, None]
    funcs = vecs / sw
    funcs /= np.sqrt(np.einsum("km,m,km->k", funcs, w, funcs))[:, None]
    flip = funcs[np.arange(len(funcs)), np.abs(funcs).argmax(axis=1)] < 0
    funcs[flip] *= -1.0
    with np.errstate(over="ignore"):
        vals = vals * scale * scale
    if not np.isfinite(vals).all():
        raise NonFiniteError("eigenvalues overflow: the sample's variance is not representable")
    return EigenSystem(grid, mean * scale, vals, funcs, centered @ (funcs * w).T * scale)


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
    if k < 1:
        raise BadArgumentError(f"k must be >= 1, got {k}")
    if k > system.n_components:
        raise KTooLargeError(f"component {k} of {system.n_components} requested")
    return system.mean + alpha * np.sqrt(system.eigenvalues[k - 1]) * system.eigenfunctions[k - 1]
