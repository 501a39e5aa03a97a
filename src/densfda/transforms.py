"""Invertible maps between density space and an unconstrained function space.

Two transforms are provided.  The log quantile density map sends a
density f to X(t) = -log f(Q(t)) on [0, 1]; its inverse rebuilds the
quantile function from exp(X) and rescales so the support is exactly
[0, 1] again.  The log hazard map sends f to log{f/(1-F)} on a truncated
domain [0, 1-delta]; its inverse places the leftover mass uniformly on
(1-delta, 1].  Densities on a native support [a, b] are mapped affinely
to [0, 1] before transforming and restored on inversion.

Each transform is one frozen type, :class:`Lqd` or :class:`LogHazard`,
that owns its domain (``domain(m)``), its label and its two row kernels
on ``(n, m)`` arrays of densities on [0, 1] and of transformed values
(``forward`` and ``inverse``).  :func:`forward_rows` and
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

import numpy as np

from .density import (
    Grid,
    _first_knots,
    cdf_rows,
    cumulative_integral,
    hermite_rows,
    integrate_rows,
    normalize_rows,
    unit_grid,
)
from .errors import BadArgumentError, GridMismatchError, NonFiniteError, TransformOverflowError

_EXP_GUARD = 700.0  # exp overflows binary64 just above this
# inverse kernels let overflow run into the finiteness and positivity
# checks of normalize_rows, which raise a DensfdaError
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


@dataclass(frozen=True)
class Lqd:
    """The log quantile density map, on the domain [0, 1]."""

    label = "LQD"

    def domain(self, m: int) -> Grid:
        return unit_grid(m)

    def forward(self, values01: np.ndarray) -> np.ndarray:
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

    def inverse(self, x: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class LogHazard:
    """The log hazard map, on the domain [0, 1 - delta], 0 < delta <= 0.5."""

    delta: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.delta <= 0.5):
            raise BadArgumentError(f"delta must be in (0, 0.5], got {self.delta}")

    @property
    def label(self) -> str:
        return f"LH({self.delta:g})"

    def domain(self, m: int) -> Grid:
        return Grid(0.0, 1.0 - self.delta, m)

    def forward(self, values01: np.ndarray) -> np.ndarray:
        """Log hazard of each row of an ``(n, m)`` array of densities on [0, 1].

        Row i of the result is X on the grid of m points over [0, 1 - delta].
        Raises ``TransformOverflowError`` when a survival function vanishes
        before 1 - delta.
        """
        m = values01.shape[1]
        grid = unit_grid(m)
        cdf = cdf_rows(values01, grid)
        s, t = grid.points, self.domain(m).points
        ft = np.empty_like(cdf)
        survival = np.empty_like(cdf)
        for i, (f, F) in enumerate(zip(values01, cdf)):
            ft[i] = np.interp(t, s, f)
            survival[i] = 1.0 - np.interp(t, s, F)
        if survival.min() < 1e-300:
            raise TransformOverflowError("survival function vanished before 1 - delta")
        return np.log(ft) - np.log(survival)

    def inverse(self, x: np.ndarray) -> np.ndarray:
        """Densities on [0, 1] for each row of an ``(n, m)`` array of log hazards.

        On the truncated domain the density is exp{X(s) - H(s)}, with H the
        running integral of the hazard exp(X); the remaining mass
        exp{-H(1 - delta)} is spread uniformly over (1 - delta, 1], and each
        row is renormalized once.  H is the trapezoidal integral on the knots
        plus its end correction h²/12·(g(0) - g), g the second-order
        difference quotient of exp(X), which makes it fourth order; between
        knots it is the cubic Hermite interpolant whose slopes are exp(X),
        since H' = exp(X) exactly.  Every step works row by row, so a row
        comes out the same alone or in a batch.  As in :meth:`Lqd.inverse`,
        overflow ends in a ``DensfdaError``.
        """
        _guard_exp(x)
        m = x.shape[1]
        tgrid, grid = self.domain(m), unit_grid(m)
        t = tgrid.points
        interior = grid.points <= tgrid.hi
        s = grid.points[interior]
        values01 = np.empty_like(x)
        with np.errstate(**_QUIET):
            hazard = np.exp(x)
            # differences per cell, not per unit length, so they cannot overflow
            g = np.gradient(hazard, axis=1, edge_order=2)
            cumhaz = cumulative_integral(hazard, tgrid) + tgrid.spacing / 12.0 * (g[:, :1] - g)
            hazard_integral = hermite_rows(t, cumhaz, hazard, s)
            for i, row in enumerate(x):
                values01[i, interior] = np.exp(np.interp(s, t, row) - hazard_integral[i])
            values01[:, ~interior] = (np.exp(-cumhaz[:, -1]) / self.delta)[:, None]
            return normalize_rows(values01, grid, floor=0.0)


LQD = Lqd()
Transform = Lqd | LogHazard


# ---------------------------------------------------------------------------
# Samples on their native support
# ---------------------------------------------------------------------------


def forward_rows(values: np.ndarray, grid: Grid, transform: Transform) -> tuple[Grid, np.ndarray]:
    """Transform each row of an ``(n, m)`` array of densities on ``grid``.

    Returns the transform's domain and the ``(n, m)`` transformed values.
    """
    return transform.domain(grid.m), transform.forward(values * grid.width)


def inverse_rows(x: np.ndarray, tgrid: Grid, transform: Transform, support) -> np.ndarray:
    """Density values on the native ``support`` for each row of transformed values.

    ``tgrid`` must be the transform's domain, [0, 1] for LQD and
    [0, 1 - delta] for log hazard, with one point per column of ``x``;
    otherwise ``GridMismatchError`` is raised.  ``support`` must be a
    finite interval (the checks of :class:`Grid`).
    """
    domain = transform.domain(tgrid.m)
    if tgrid.lo != domain.lo or abs(tgrid.hi - domain.hi) > 1e-12 or x.shape[1] != tgrid.m:
        raise GridMismatchError(
            f"{x.shape[1]} values on a grid of {tgrid.m} points over [{tgrid.lo}, "
            f"{tgrid.hi}] do not fit the {transform.label} domain [0, {domain.hi}]"
        )
    return transform.inverse(x) / Grid(*support, tgrid.m).width


def _guard_exp(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("transformed values must be finite")
    if values.max() > _EXP_GUARD:
        raise TransformOverflowError(
            f"max transformed value {values.max():.3g} exceeds the exp guard"
        )
