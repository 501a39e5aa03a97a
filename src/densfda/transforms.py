"""Invertible maps between density space and an unconstrained function space.

Two transforms are provided.  The log quantile density map sends a
density f to X(t) = -log f(Q(t)) on [0, 1]; its inverse rebuilds the
quantile function from exp(X) and rescales so the support is exactly
[0, 1] again.  The log hazard map sends f to log{f/(1-F)} on a truncated
domain [0, 1-delta]; its inverse places the leftover mass uniformly on
(1-delta, 1].  Densities on a native support [a, b] are mapped affinely
to [0, 1] before transforming and restored on inversion.

Each LQD map evaluates one piecewise-linear interpolant at another, and
does so with one ``np.interp`` per row: between consecutive knots the
inner interpolant is affine onto one grid cell, where the outer one is
affine too, so the composition is the interpolant through the knots of
the inner one with the outer one's values.  This is exact up to
round-off, and has less of it than two steps, which place the
intermediate point only to about m machine epsilons of a grid cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.interpolate import CubicSpline

from .density import (
    DensityFn,
    Grid,
    _first_knots,
    cdf_rows,
    cumulative_integral,
    from_unit_support,
    integrate_rows,
    normalize,
    normalize_rows,
    to_cdf,
    to_unit_support,
    unit_grid,
)
from .errors import NonFiniteError, TransformOverflowError

_EXP_GUARD = 700.0  # exp overflows binary64 just above this


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


@dataclass(frozen=True)
class TransformedFn:
    """Unconstrained representative X of a density, plus provenance.

    ``support`` records the native support of the source density so the
    inverse map can restore it; transforms themselves always operate on
    the unit interval.
    """

    tgrid: Grid
    values: np.ndarray = field(repr=False)
    spec: TransformSpec = LQD
    support: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.shape != (self.tgrid.m,):
            raise ValueError("values must match the grid size")
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("transformed values must be finite")
        expected_hi = 1.0 if self.spec.kind is TransformKind.LOG_QUANTILE_DENSITY else 1.0 - self.spec.delta
        if self.tgrid.lo != 0.0 or abs(self.tgrid.hi - expected_hi) > 1e-12:
            raise ValueError(
                f"grid [{self.tgrid.lo}, {self.tgrid.hi}] does not match the "
                f"{self.spec.kind.value} domain [0, {expected_hi}]"
            )


# ---------------------------------------------------------------------------
# Log quantile density
# ---------------------------------------------------------------------------


def lqd_forward(f: DensityFn) -> TransformedFn:
    """X(t) = -log f(Q(t)) on the probability grid."""
    x = lqd_forward_rows(f.values[None] * f.grid.width)[0]
    return TransformedFn(unit_grid(f.grid.m), x, LQD, f.support)


def lqd_inverse(x: TransformedFn) -> DensityFn:
    """Map X back to a density supported exactly on the native interval.

    See :func:`lqd_inverse_rows` for the construction.
    """
    if x.spec.kind is not TransformKind.LOG_QUANTILE_DENSITY:
        raise ValueError("lqd_inverse expects a log-quantile-density function")
    lo, hi = x.support
    values01 = lqd_inverse_rows(x.values[None])[0]
    return DensityFn(Grid(lo, hi, x.tgrid.m), values01 / (hi - lo))


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
    interpolant through (q_j, X_j) (see the module docstring).
    """
    _guard_exp(x)
    grid = unit_grid(x.shape[1])
    t = grid.points
    ex = np.exp(x)
    theta = integrate_rows(ex, grid)
    q = cumulative_integral(ex, grid) / theta[:, None]
    q[:, -1] = 1.0
    xf = np.empty_like(q)
    for i, (qi, xi) in enumerate(zip(q, x)):
        xf[i] = np.interp(t, qi, xi)
    return normalize_rows(theta[:, None] * np.exp(-xf), grid, floor=0.0)


# ---------------------------------------------------------------------------
# Log hazard
# ---------------------------------------------------------------------------


def log_hazard_forward(f: DensityFn, spec: TransformSpec) -> TransformedFn:
    """X(t) = log f(t) - log(1 - F(t)) on [0, 1 - delta]."""
    if spec.kind is not TransformKind.LOG_HAZARD:
        raise ValueError("spec must be a log-hazard spec")
    f01 = to_unit_support(f)
    F = to_cdf(f01)
    tgrid = Grid(0.0, 1.0 - spec.delta, f01.grid.m)
    t = tgrid.points
    ft = np.interp(t, f01.grid.points, f01.values)
    survival = 1.0 - np.interp(t, f01.grid.points, F.values)
    if survival.min() < 1e-300:
        raise TransformOverflowError("survival function vanished before 1 - delta")
    return TransformedFn(tgrid, np.log(ft) - np.log(survival), spec, f.support)


def log_hazard_inverse(x: TransformedFn, spec: TransformSpec | None = None) -> DensityFn:
    """Rebuild a density from a log hazard on [0, 1 - delta].

    On the truncated domain the density is exp{X(s) - int_0^s exp(X)};
    the remaining mass exp{-int_0^{1-delta} exp(X)} is spread uniformly
    over (1 - delta, 1].  The cumulative hazard integral uses a cubic
    spline antiderivative so the interior/tail mass split is accurate
    well beyond trapezoidal resolution.
    """
    spec = spec or x.spec
    if spec != x.spec:
        raise ValueError("spec disagrees with the transformed function's own spec")
    if spec.kind is not TransformKind.LOG_HAZARD:
        raise ValueError("log_hazard_inverse expects a log-hazard function")
    _guard_exp(x.values)
    tgrid = x.tgrid
    t = tgrid.points
    cumhaz = CubicSpline(t, np.exp(x.values)).antiderivative()
    upper = 1.0 - spec.delta
    xs = np.linspace(0.0, 1.0, tgrid.m)
    interior = xs <= upper
    values01 = np.empty(tgrid.m)
    xi = xs[interior]
    values01[interior] = np.exp(np.interp(xi, t, x.values) - cumhaz(xi))
    tail_mass = np.exp(-float(cumhaz(upper)))
    values01[~interior] = tail_mass / spec.delta
    d01 = normalize(values01, unit_grid(tgrid.m), floor=0.0)
    return from_unit_support(d01, *x.support)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def forward(f: DensityFn, spec: TransformSpec) -> TransformedFn:
    if spec.kind is TransformKind.LOG_QUANTILE_DENSITY:
        return lqd_forward(f)
    return log_hazard_forward(f, spec)


def inverse(x: TransformedFn) -> DensityFn:
    if x.spec.kind is TransformKind.LOG_QUANTILE_DENSITY:
        return lqd_inverse(x)
    return log_hazard_inverse(x)


def forward_rows(values: np.ndarray, grid: Grid, spec: TransformSpec) -> tuple[Grid, np.ndarray]:
    """Transform each row of an ``(n, m)`` array of densities on ``grid``.

    Returns the transform grid and the ``(n, m)`` transformed values.
    """
    if spec.kind is TransformKind.LOG_QUANTILE_DENSITY:
        return unit_grid(grid.m), lqd_forward_rows(values * grid.width)
    xs = [log_hazard_forward(DensityFn(grid, row), spec) for row in values]
    return xs[0].tgrid, np.stack([x.values for x in xs])


def inverse_rows(x: np.ndarray, tgrid: Grid, spec: TransformSpec, support) -> np.ndarray:
    """Density values on the native ``support`` for each row of transformed values."""
    lo, hi = support
    if spec.kind is TransformKind.LOG_QUANTILE_DENSITY:
        return lqd_inverse_rows(x) / (hi - lo)
    return np.stack(
        [log_hazard_inverse(TransformedFn(tgrid, row, spec, support)).values for row in x]
    )


def _guard_exp(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("transformed values must be finite")
    if values.max() > _EXP_GUARD:
        raise TransformOverflowError(
            f"max transformed value {values.max():.3g} exceeds the exp guard"
        )
