"""Grid-based densities, their equivalent forms, and metrics between them.

A density sample lives on a uniform grid over a compact support [lo, hi].
All integrals use the trapezoidal rule on that grid, so every quantity in
the package is reproducible from the grid alone.  Densities convert
losslessly (up to quadrature) to CDFs and quantile functions; the
log quantile density and log hazard transforms live in `transforms`.
Three metrics are provided: L2 (`dist_l2`), uniform (`dist_sup`) and
the quantile-based Wasserstein distance (`dist_wasserstein`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .errors import (
    AllZeroError,
    GridMismatchError,
    InvalidDensityError,
    NonFiniteError,
    NotInvertibleError,
    SupportMismatchError,
)

DEFAULT_FLOOR = 1e-6
DEFAULT_GRID_SIZE = 512
DISPLAY_GRID_SIZE = 101

_UNIT_MASS_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``m`` points on [lo, hi]."""

    lo: float
    hi: float
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise NonFiniteError("grid endpoints must be finite")
        if self.hi <= self.lo:
            raise ValueError(f"grid needs hi > lo, got [{self.lo}, {self.hi}]")
        if self.m < 3:
            raise ValueError(f"grid needs m >= 3 points, got {self.m}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / (self.m - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m)

    def trapezoid_weights(self) -> np.ndarray:
        """Quadrature weights w with sum(w * v) = trapezoidal integral of v."""
        w = np.full(self.m, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def unit_grid(m: int = DEFAULT_GRID_SIZE) -> Grid:
    return Grid(0.0, 1.0, m)


def integrate(values: np.ndarray, grid: Grid) -> float:
    """Trapezoidal integral of grid samples."""
    return float(integrate_rows(values, grid))


def integrate_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoidal integral of each row of an ``(..., m)`` array."""
    v = np.asarray(values, dtype=float)
    return (v[..., 0] + v[..., -1]) * 0.5 * grid.spacing + v[..., 1:-1].sum(axis=-1) * grid.spacing


def cumulative_integral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Running trapezoidal integral along the last axis, starting at 0."""
    return cumulative_trapezoid(np.asarray(values, dtype=float), dx=grid.spacing, initial=0.0, axis=-1)


def inner_product(u: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    """L2 inner product on the grid."""
    return integrate(np.asarray(u) * np.asarray(v), grid)


def _freeze(values) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=float)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityFn:
    """Strictly positive density on a grid with unit trapezoidal integral."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != (self.grid.m,):
            raise InvalidDensityError("values must match the grid size")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteError("density values must be finite")
        if self.values.min() <= 0.0:
            raise InvalidDensityError(
                "density values must be strictly positive; "
                "use normalize() with a positive floor"
            )
        mass = integrate(self.values, self.grid)
        if abs(mass - 1.0) > _UNIT_MASS_TOL:
            raise InvalidDensityError(
                f"density integral is {mass!r}, not 1 within {_UNIT_MASS_TOL}"
            )

    @property
    def support(self) -> tuple[float, float]:
        return (self.grid.lo, self.grid.hi)


@dataclass(frozen=True)
class CdfFn:
    """CDF values on a grid: nondecreasing, 0 at lo and 1 at hi."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != (self.grid.m,):
            raise ValueError("values must match the grid size")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("CDF values must be nondecreasing")
        if abs(self.values[0]) > _UNIT_MASS_TOL or abs(self.values[-1] - 1.0) > _UNIT_MASS_TOL:
            raise ValueError("CDF must run from 0 to 1 over the support")


@dataclass(frozen=True)
class QuantileFn:
    """Quantile function on a probability grid over [0, 1]."""

    tgrid: Grid
    values: np.ndarray = field(repr=False)
    support: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if (self.tgrid.lo, self.tgrid.hi) != (0.0, 1.0):
            raise ValueError("quantile functions live on the probability grid [0, 1]")
        if self.values.shape != (self.tgrid.m,):
            raise ValueError("values must match the grid size")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("quantile values must be nondecreasing")
        lo, hi = self.support
        if self.values[0] < lo - 1e-12 or self.values[-1] > hi + 1e-12:
            raise ValueError("quantile values must stay inside the support")


# ---------------------------------------------------------------------------
# Construction and conversions
# ---------------------------------------------------------------------------


def normalize(values, grid: Grid, floor: float = DEFAULT_FLOOR) -> DensityFn:
    """Turn a nonnegative grid function into a valid density.

    Values are clamped below at ``floor`` and rescaled to unit trapezoidal
    integral.  Idempotent: normalizing a density returns it unchanged.

    Parameters
    ----------
    values : array-like
        Raw nonnegative function sampled on ``grid``.
    grid : Grid
        Support grid.
    floor : float
        Lower clamp applied before rescaling; must be > 0 whenever the raw
        input touches zero, since densities are strictly positive.

    Raises
    ------
    AllZeroError
        If the raw input has no positive value.
    NonFiniteError
        If the raw input contains NaN or infinities.
    """
    raw = np.asarray(values, dtype=float)
    if raw.shape != (grid.m,):
        raise GridMismatchError("raw values must match the grid size")
    return DensityFn(grid, normalize_rows(raw[None], grid, floor)[0])


def normalize_rows(values, grid: Grid, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """:func:`normalize` applied to each row of an ``(n, m)`` array.

    Returns the density values as an array, with the checks of
    :class:`DensityFn` applied to every row.
    """
    raw = np.asarray(values, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != grid.m:
        raise GridMismatchError("raw values must match the grid size")
    if not np.all(np.isfinite(raw)):
        raise NonFiniteError("raw values contain NaN or infinities")
    if floor < 0:
        raise ValueError("floor must be >= 0")
    if raw.size and raw.max(axis=1).min() <= 0.0:
        raise AllZeroError("raw function has no positive mass")
    clamped = np.maximum(raw, floor)
    mass = integrate_rows(clamped, grid)
    # rows already of unit mass are kept as they are, so normalize is idempotent
    out = clamped / np.where(np.abs(mass - 1.0) < 1e-14, 1.0, mass)[:, None]
    if out.size and out.min() <= 0.0:
        raise InvalidDensityError(
            "density values must be strictly positive; "
            "use normalize() with a positive floor"
        )
    return out


def to_cdf(f: DensityFn) -> CdfFn:
    """Cumulative trapezoidal integral of a density, pinned to [0, 1]."""
    return CdfFn(f.grid, cdf_rows(f.values[None], f.grid)[0])


def cdf_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """:func:`to_cdf` of each row of an ``(n, m)`` array of density values."""
    cum = cumulative_integral(values, grid)
    cum /= cum[:, -1:]
    cum[:, 0] = 0.0
    cum[:, -1] = 1.0
    return cum


def to_quantile(F: CdfFn, tgrid: Grid) -> QuantileFn:
    """Invert a CDF by monotone piecewise-linear interpolation.

    Flat spans at most one grid cell wide are resolved to their left
    endpoint; wider flats cannot be inverted and raise
    ``NotInvertibleError``.
    """
    q = quantile_rows(F.values[None], F.grid, tgrid)[0]
    return QuantileFn(tgrid, q, support=(F.grid.lo, F.grid.hi))


def quantile_rows(cdf: np.ndarray, grid: Grid, tgrid: Grid) -> np.ndarray:
    """:func:`to_quantile` of each row of an ``(n, m)`` array of CDF values."""
    if (tgrid.lo, tgrid.hi) != (0.0, 1.0):
        raise ValueError("quantiles are evaluated on a probability grid over [0, 1]")
    first = _first_knots(cdf)
    t, x = tgrid.points, grid.points
    q = np.empty((cdf.shape[0], tgrid.m))
    for i, row in enumerate(cdf):
        q[i] = np.interp(t, row[first[i]], x[first[i]])
    q[:, 0] = grid.lo
    q[:, -1] = grid.hi
    return q


def _first_knots(cdf: np.ndarray) -> np.ndarray:
    """Mask of the first knot of each level in every row of CDF values.

    A repeated level resolves to its left end, which is how a flat step
    inverts.  Raises ``ValueError`` for a decreasing row and
    ``NotInvertibleError`` for a flat span wider than one grid cell.
    """
    step = np.diff(cdf, axis=1)
    if np.any(step < 0):
        raise ValueError("CDF values must be nondecreasing")
    flat = step == 0.0
    if np.any(flat[:, :-1] & flat[:, 1:]):
        raise NotInvertibleError("CDF has a flat span wider than one grid cell")
    first = np.ones(cdf.shape, dtype=bool)
    first[:, 1:] = ~flat
    return first


def pchip_rows(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Monotone cubic interpolant of each row, evaluated at shared points.

    Row ``i`` interpolates the points ``(x[i], y[i])``; ``y`` may also be
    one row shared by all.  Each row of ``x`` must be strictly increasing
    and ``t`` nondecreasing; points beyond a row's knots take the end
    cubics.  The knot derivatives are those of Fritsch & Carlson (SIAM
    J. Numer. Anal. 17(2), 1980) as SciPy's ``PchipInterpolator`` sets
    them: the weighted harmonic mean of the two neighbouring slopes, or 0
    where those slopes differ in sign or one is 0; at each end the
    one-sided three-point estimate, 0 if its sign differs from the end
    slope's, and clamped to 3 times the end slope when the two end slopes
    differ in sign.  Returns an ``(n, len(t))`` array.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    t = np.asarray(t, dtype=float)
    n, m = x.shape
    if m < 3:
        raise ValueError(f"monotone cubic interpolation needs >= 3 knots, got {m}")
    if not np.all(np.diff(x, axis=1) > 0):
        raise ValueError("knots must be strictly increasing in every row")
    if np.any(np.diff(t) < 0):
        raise ValueError("evaluation points must be nondecreasing")
    c0, c1, c2, c3 = _pchip_coefficients(x, y)
    rows = np.arange(n)[:, None]
    j = _count_at_or_below(x, t)
    j -= 1
    np.clip(j, 0, m - 2, out=j)
    # summed in SciPy's order of operations
    s = t - x[rows, j]
    s2 = s * s
    return c0[rows, j] + c1[rows, j] * s + c2[rows, j] * s2 + c3[rows, j] * (s2 * s)


def _pchip_coefficients(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Coefficients of each interval's cubic in powers of (t - x[j]), as
    SciPy's ``CubicHermiteSpline`` builds them from the knot derivatives."""
    h = np.diff(x, axis=1)
    slope = np.diff(y, axis=1) / h
    d = _pchip_derivatives(h, slope)
    c = (d[:, :-1] + d[:, 1:] - 2 * slope) / h
    return y[:, :-1], d[:, :-1], (slope - d[:, :-1]) / h - c, c / h


def _pchip_derivatives(h: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot derivatives of :func:`pchip_rows` from the interval widths and slopes."""
    m0, m1 = slope[:, :-1], slope[:, 1:]
    extremum = (np.sign(m1) != np.sign(m0)) | (m1 == 0) | (m0 == 0)
    w1 = 2 * h[:, 1:] + h[:, :-1]
    w2 = h[:, 1:] + 2 * h[:, :-1]
    d = np.empty((h.shape[0], h.shape[1] + 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        d[:, 1:-1] = np.where(extremum, 0.0, 1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
    d[:, 0] = _pchip_end(h[:, 0], h[:, 1], slope[:, 0], slope[:, 1])
    d[:, -1] = _pchip_end(h[:, -1], h[:, -2], slope[:, -1], slope[:, -2])
    return d


def _pchip_end(h0, h1, m0, m1) -> np.ndarray:
    """One-sided three-point derivative at an end knot, kept shape-preserving."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    wrong_sign = np.sign(d) != np.sign(m0)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    return np.where(wrong_sign, 0.0, np.where(overshoot, 3.0 * m0, d))


def _count_at_or_below(knots: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``out[i, k]``: how many of ``knots[i]`` are <= ``t[k]``, for nondecreasing ``t``.

    One ``searchsorted`` places every knot of every row among the shared
    points, and a running count per row turns the places into counts.
    The comparisons are exact, so a point equal to a knot counts it.
    """
    n, p = knots.shape[0], len(t)
    first_at_or_above = np.searchsorted(t, knots, side="left")
    first_at_or_above += (p + 1) * np.arange(n)[:, None]
    hits = np.bincount(first_at_or_above.ravel(), minlength=n * (p + 1)).reshape(n, p + 1)
    return np.cumsum(hits[:, :p], axis=1)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _grid_and_values(obj) -> tuple[Grid, np.ndarray]:
    grid = getattr(obj, "grid", None) or getattr(obj, "tgrid", None)
    if grid is None:
        raise TypeError(f"{type(obj).__name__} is not a grid function")
    return grid, obj.values


def dist_l2(f, g) -> float:
    """L2 distance between two functions sharing one grid."""
    grid_f, vf = _grid_and_values(f)
    grid_g, vg = _grid_and_values(g)
    if grid_f != grid_g:
        raise GridMismatchError("L2 distance requires identical grids")
    return float(np.sqrt(sq_dist_rows(vf, vg, grid_f)))


def sq_dist_rows(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared L2 distances between the rows of ``a`` and ``b``."""
    return np.maximum(integrate_rows((a - b) ** 2, grid), 0.0)


def dist_sup(f, g) -> float:
    """Uniform (sup) distance between two functions sharing one grid."""
    grid_f, vf = _grid_and_values(f)
    grid_g, vg = _grid_and_values(g)
    if grid_f != grid_g:
        raise GridMismatchError("sup distance requires identical grids")
    return float(np.abs(vf - vg).max())


def dist_wasserstein(f: DensityFn, g: DensityFn) -> float:
    """Wasserstein-2 distance via the L2 distance of quantile functions.

    Requires both densities to share the support interval; grids may
    differ in resolution, in which case the finer one sets the shared
    probability grid.
    """
    if f.support != g.support:
        raise SupportMismatchError(
            f"supports differ: {f.support} vs {g.support}"
        )
    tgrid = unit_grid(max(f.grid.m, g.grid.m))
    qf = quantile_rows(cdf_rows(f.values[None], f.grid), f.grid, tgrid)
    qg = quantile_rows(cdf_rows(g.values[None], g.grid), g.grid, tgrid)
    return float(np.sqrt(sq_dist_rows(qf, qg, tgrid)[0]))


# ---------------------------------------------------------------------------
# Support mapping
# ---------------------------------------------------------------------------


def to_unit_support(f: DensityFn) -> DensityFn:
    """Affinely map a density on [lo, hi] to the unit interval."""
    if f.support == (0.0, 1.0):
        return f
    return DensityFn(unit_grid(f.grid.m), f.values * f.grid.width)


def from_unit_support(f01: DensityFn, lo: float, hi: float) -> DensityFn:
    """Inverse of :func:`to_unit_support` onto the target support [lo, hi]."""
    if f01.support != (0.0, 1.0):
        raise SupportMismatchError("input must live on [0, 1]")
    if (lo, hi) == (0.0, 1.0):
        return f01
    grid = Grid(lo, hi, f01.grid.m)
    return DensityFn(grid, f01.values / grid.width)
