"""Invertible maps between density space and an unconstrained function space.

Two transforms are provided.  The log quantile density map sends a
density f to X(t) = -log f(Q(t)) on [0, 1]; its inverse rebuilds the
quantile function from exp(X) and rescales so the support is exactly
[0, 1] again.  The log hazard map sends f to log{f/(1-F)} on a truncated
domain [0, 1-delta]; its inverse places the leftover mass uniformly on
(1-delta, 1].  Densities on a native support [a, b] are mapped affinely
to [0, 1] before transforming and restored on inversion.

Each transform is a pair of row kernels on ``(n, m)`` arrays of
densities on [0, 1] and of transformed values: :func:`lqd_forward_rows`
and :func:`lqd_inverse_rows`, :func:`log_hazard_forward_rows` and
:func:`log_hazard_inverse_rows`.  :func:`forward_rows` and
:func:`inverse_rows` apply them to a sample on its native support; a
single density is a sample of one row.

Each LQD kernel evaluates one piecewise-linear interpolant at another,
and does so with one ``np.interp`` per row: between consecutive knots
the inner interpolant is affine onto one grid cell, where the outer one
is affine too, so the composition is the interpolant through the knots
of the inner one with the outer one's values.  This is exact up to
round-off, and has less of it than two steps, which place the
intermediate point only to about m machine epsilons of a grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.interpolate import CubicSpline

from .density import (
    Grid,
    _first_knots,
    cdf_rows,
    cumulative_integral,
    integrate_rows,
    normalize_rows,
    unit_grid,
)
from .errors import GridMismatchError, NonFiniteError, TransformOverflowError

_EXP_GUARD = 700.0  # exp overflows binary64 just above this
# inverse kernels let overflow run into the finiteness and positivity
# checks of normalize_rows, which raise a DensfdaError
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


class TransformKind(Enum):
    LOG_HAZARD = "log_hazard"
    LOG_QUANTILE_DENSITY = "log_quantile_density"


@dataclass(frozen=True)
class TransformSpec:
    """Which transform to apply; ``delta`` is the log-hazard truncation."""

    kind: TransformKind
    delta: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.delta <= 0.5):
            raise ValueError(f"delta must be in (0, 0.5], got {self.delta}")


LQD = TransformSpec(TransformKind.LOG_QUANTILE_DENSITY)


def log_hazard_spec(delta: float = 0.1) -> TransformSpec:
    return TransformSpec(TransformKind.LOG_HAZARD, delta)


# ---------------------------------------------------------------------------
# Row kernels on [0, 1]
# ---------------------------------------------------------------------------


def lqd_forward_rows(values01: np.ndarray) -> np.ndarray:
    """LQD transform of each row of an ``(n, m)`` array of densities on [0, 1].

    Row i holds a density on the unit grid of m points; row i of the
    result is its X on the probability grid of m points.  Q interpolates
    the knots (F_j, x_j), so f(Q(t)) is the interpolant through
    (F_j, f_j) (see the module docstring).  A flat CDF step, whose level
    Q resolves to its left end, takes the level midway between its
    neighbours, where Q crosses the skipped grid point.
    """
    grid = unit_grid(values01.shape[1])
    levels = cdf_rows(values01, grid)
    skipped = ~_first_knots(levels)
    skipped[:, -1] = False  # no right neighbour: np.interp takes the last knot at 1
    rows, j = np.nonzero(skipped)
    levels[rows, j] = 0.5 * (levels[rows, j - 1] + levels[rows, j + 1])
    t = grid.points
    fq = np.empty_like(levels)
    for i, (level, f) in enumerate(zip(levels, values01)):
        fq[i] = np.interp(t, level, f)
    return -np.log(fq)


def lqd_inverse_rows(x: np.ndarray) -> np.ndarray:
    """Densities on [0, 1] for each row of an ``(n, m)`` array of LQD values.

    The quantile function is rebuilt as the running integral q of exp(X)
    scaled by its total theta, which pins Q(1) = 1; the density follows
    as theta * exp(-X(F)) and is renormalized once to absorb quadrature
    drift.  F interpolates the knots (q_j, t_j), so X(F(s)) is the
    interpolant through (q_j, X_j) (see the module docstring).  Values
    that overflow or underflow end in a ``DensfdaError`` from the final
    check, not in a NumPy warning.
    """
    _guard_exp(x)
    grid = unit_grid(x.shape[1])
    t = grid.points
    with np.errstate(**_QUIET):
        ex = np.exp(x)
        theta = integrate_rows(ex, grid)
        q = cumulative_integral(ex, grid) / theta[:, None]
        q[:, -1] = 1.0
        xf = np.empty_like(q)
        for i, (qi, xi) in enumerate(zip(q, x)):
            xf[i] = np.interp(t, qi, xi)
        return normalize_rows(theta[:, None] * np.exp(-xf), grid, floor=0.0)


def log_hazard_forward_rows(values01: np.ndarray, delta: float) -> np.ndarray:
    """Log hazard of each row of an ``(n, m)`` array of densities on [0, 1].

    Row i of the result is X on the grid of m points over [0, 1 - delta].
    Raises ``TransformOverflowError`` when a survival function vanishes
    before 1 - delta.
    """
    m = values01.shape[1]
    grid = unit_grid(m)
    cdf = cdf_rows(values01, grid)
    s, t = grid.points, np.linspace(0.0, 1.0 - delta, m)
    ft = np.empty_like(cdf)
    survival = np.empty_like(cdf)
    for i, (f, F) in enumerate(zip(values01, cdf)):
        ft[i] = np.interp(t, s, f)
        survival[i] = 1.0 - np.interp(t, s, F)
    if survival.min() < 1e-300:
        raise TransformOverflowError("survival function vanished before 1 - delta")
    return np.log(ft) - np.log(survival)


def log_hazard_inverse_rows(x: np.ndarray, delta: float) -> np.ndarray:
    """Densities on [0, 1] for each row of an ``(n, m)`` array of log hazards.

    On the truncated domain the density is exp{X(s) - int_0^s exp(X)};
    the remaining mass exp{-int_0^{1-delta} exp(X)} is spread uniformly
    over (1 - delta, 1], and each row is renormalized once.  The
    cumulative hazard integral uses a cubic spline antiderivative so the
    interior/tail mass split is accurate well beyond trapezoidal
    resolution.  As in :func:`lqd_inverse_rows`, overflow ends in a
    ``DensfdaError``.
    """
    _guard_exp(x)
    m = x.shape[1]
    upper = 1.0 - delta
    t = np.linspace(0.0, upper, m)
    grid = unit_grid(m)
    interior = grid.points <= upper
    s = grid.points[interior]
    values01 = np.empty_like(x)
    with np.errstate(**_QUIET):
        cumhaz = CubicSpline(t, np.exp(x), axis=1).antiderivative()
        hazard_integral = cumhaz(s)
        for i, row in enumerate(x):
            values01[i, interior] = np.exp(np.interp(s, t, row) - hazard_integral[i])
        values01[:, ~interior] = (np.exp(-cumhaz(upper)) / delta)[:, None]
        return normalize_rows(values01, grid, floor=0.0)


# ---------------------------------------------------------------------------
# Samples on their native support
# ---------------------------------------------------------------------------


def forward_rows(values: np.ndarray, grid: Grid, spec: TransformSpec) -> tuple[Grid, np.ndarray]:
    """Transform each row of an ``(n, m)`` array of densities on ``grid``.

    Returns the transform grid and the ``(n, m)`` transformed values.
    """
    values01 = values * grid.width
    if spec.kind is TransformKind.LOG_QUANTILE_DENSITY:
        return unit_grid(grid.m), lqd_forward_rows(values01)
    return Grid(0.0, 1.0 - spec.delta, grid.m), log_hazard_forward_rows(values01, spec.delta)


def inverse_rows(x: np.ndarray, tgrid: Grid, spec: TransformSpec, support) -> np.ndarray:
    """Density values on the native ``support`` for each row of transformed values.

    ``tgrid`` must be the transform's domain, [0, 1] for LQD and
    [0, 1 - delta] for log hazard, with one point per column of ``x``;
    otherwise ``GridMismatchError`` is raised.
    """
    hi_t = 1.0 if spec.kind is TransformKind.LOG_QUANTILE_DENSITY else 1.0 - spec.delta
    if tgrid.lo != 0.0 or abs(tgrid.hi - hi_t) > 1e-12 or x.shape[1] != tgrid.m:
        raise GridMismatchError(
            f"{x.shape[1]} values on a grid of {tgrid.m} points over [{tgrid.lo}, "
            f"{tgrid.hi}] do not fit the {spec.kind.value} domain [0, {hi_t}]"
        )
    lo, hi = support
    if spec.kind is TransformKind.LOG_QUANTILE_DENSITY:
        return lqd_inverse_rows(x) / (hi - lo)
    return log_hazard_inverse_rows(x, spec.delta) / (hi - lo)


def _guard_exp(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("transformed values must be finite")
    if values.max() > _EXP_GUARD:
        raise TransformOverflowError(
            f"max transformed value {values.max():.3g} exceeds the exp guard"
        )
