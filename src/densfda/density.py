"""Grid-based densities, their equivalent forms, and metrics between them.

A density sample lives on a uniform grid over a compact support [lo, hi].
All integrals use the trapezoidal rule on that grid (the log-hazard
inverse adds the rule's end correction), so every quantity in the
package is reproducible from the grid alone.  A sample, and a single
density, is one :class:`DensitySample`: a read-only ``(n, m)`` array of
finite, strictly positive, unit-mass rows on one grid.
:func:`normalize_rows` makes such rows from raw ones and is the one map
back to density space: every method's output, signed or not, is floored
and renormalized by it.  CDFs and quantile functions are arrays of the
same shape (`cdf_rows`, `quantile_rows`); the log quantile density and
log hazard transforms live in `transforms`.  Distances are squared L2
distances between rows (`sq_dist_rows`).  A :class:`Metric` embeds
density rows so that its distances are L2 distances: L2 keeps them,
Wasserstein takes their quantile functions; this is the one Wasserstein
embedding, which `dist_wasserstein`, the Fréchet statistics and the
simulation summary share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    AllZeroError,
    BadArgumentError,
    EmptySampleError,
    GridMismatchError,
    InvalidDensityError,
    NonFiniteError,
    NotInvertibleError,
    SupportMismatchError,
)

DEFAULT_FLOOR = 1e-6
DEFAULT_GRID_SIZE = 512

_UNIT_MASS_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform grid of ``m`` points on [lo, hi]: finite ends a finite width
    apart, and ``m >= 3``."""

    lo: float
    hi: float
    m: int

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise NonFiniteError("grid endpoints must be finite")
        if self.hi <= self.lo:
            raise BadArgumentError(f"grid needs hi > lo, got [{self.lo}, {self.hi}]")
        if not np.isfinite(float(self.hi) - float(self.lo)):
            raise NonFiniteError(f"grid width overflows: [{self.lo}, {self.hi}]")
        if self.m < 3:
            raise BadArgumentError(f"grid needs m >= 3 points, got {self.m}")

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


def integrate_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoidal integral of each row of an ``(..., m)`` array."""
    v = np.asarray(values, dtype=float)
    return (v[..., 0] + v[..., -1]) * 0.5 * grid.spacing + v[..., 1:-1].sum(axis=-1) * grid.spacing


def cumulative_integral(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Running trapezoidal integral along the last axis, starting at 0."""
    v = np.asarray(values, dtype=float)
    out = np.zeros(v.shape)
    np.cumsum(grid.spacing * (v[..., 1:] + v[..., :-1]) / 2.0, axis=-1, out=out[..., 1:])
    return out


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityFn:
    """One row of a :class:`DensitySample`: the row view the benchmark reads,
    which goes under ROADMAP item 4 once item 1(d) is done."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        _check_rows(values[None], self.grid)

    @property
    def support(self) -> tuple[float, float]:
        return (self.grid.lo, self.grid.hi)


def _check_rows(values: np.ndarray, grid: Grid):
    """Raise the error of the first row of an ``(n, m)`` array with a value
    that is not finite or <= 0, or with a trapezoidal integral off 1."""
    if values.ndim != 2 or values.shape[1] != grid.m:
        raise InvalidDensityError("values must match the grid size")
    finite = np.isfinite(values).all(axis=1)
    # rows with a non-finite value are summed as zeros, which raises no warning
    mass = integrate_rows(values if finite.all() else np.where(finite[:, None], values, 0.0), grid)
    positive = values.min(axis=1) > 0.0
    ok = finite & positive & (np.abs(mass - 1.0) <= _UNIT_MASS_TOL)
    if ok.all():
        return
    i = ok.argmin()
    if not finite[i]:
        raise NonFiniteError("density values must be finite")
    if not positive[i]:
        raise InvalidDensityError(
            "density values must be strictly positive; "
            "use normalize_rows() with a positive floor"
        )
    raise InvalidDensityError(f"density integral is {float(mass[i])!r}, not 1 within {_UNIT_MASS_TOL}")


class DensitySample:
    """A sample of densities on one grid: a read-only ``(n, m)`` array.

    ``DensitySample(values, grid)`` checks every row; it is the only form
    in which the package takes or returns densities.  An integer index
    gives the :class:`DensityFn` row view, and a slice or an index array
    a new sample of the selected rows; iterating yields row views.
    :meth:`cached` keeps what is computed once per sample: the Fréchet
    means, variances and Karcher mean that ``frechet`` fills in, and the
    embedding of each metric and method, which regression shares.
    """

    def __init__(self, values, grid: Grid):
        values = np.ascontiguousarray(values, dtype=float).view()
        _check_rows(values, grid)
        if not len(values):
            raise EmptySampleError("empty sample")
        values.flags.writeable = False
        self.values, self.grid = values, grid
        self._cache = {}

    @property
    def support(self) -> tuple[float, float]:
        return (self.grid.lo, self.grid.hi)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return DensityFn(self.grid, self.values[index])
        return DensitySample(self.values[index], self.grid)

    def __iter__(self):
        return (DensityFn(self.grid, row) for row in self.values)

    def cached(self, key, compute):
        """``compute()``, evaluated on the first call with ``key`` and kept."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


# ---------------------------------------------------------------------------
# Construction and conversions
# ---------------------------------------------------------------------------


def normalize_rows(values, grid: Grid, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Each row of an ``(n, m)`` array, clamped below at ``floor`` (> 0 if
    a row touches zero or goes negative) and rescaled to unit mass.

    Negative values clamp to the floor as zeros do, so a signed row maps
    as its positive part would.  Idempotent: a density row comes back
    unchanged.  A row that is not finite (NaN or either infinity), or
    whose mass overflows, raises ``NonFiniteError``, one with no positive
    value ``AllZeroError``; the error is that of the first failing row.
    The floor is in absolute density units, so on a wide support, where
    densities are small, it flattens them: a setting-3 sample
    (``simulation``) moved to a support of width 1e5 changes by up to 6%
    of a row's peak at the default floor, and by 90% at width 1e7.
    """
    raw = np.asarray(values, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != grid.m:
        raise GridMismatchError("raw values must match the grid size")
    if floor < 0:
        raise BadArgumentError("floor must be >= 0")
    finite = np.isfinite(raw).all(axis=1)
    positive = raw.max(axis=1) > 0.0
    valid = finite & positive
    # failing rows are replaced by ones so the arithmetic below stays quiet
    clamped = np.maximum(raw if valid.all() else np.where(valid[:, None], raw, 1.0), floor)
    with np.errstate(over="ignore"):  # an overflowed mass is reported below
        mass = integrate_rows(clamped, grid)
    # rows already of unit mass are kept as they are, so the map is idempotent
    out = clamped / np.where(np.abs(mass - 1.0) < 1e-14, 1.0, mass)[:, None]
    failure = np.select([~finite, ~positive, np.isinf(mass), out.min(axis=1) <= 0.0], [1, 2, 3, 4], 0)
    first = np.flatnonzero(failure)
    if first.size:
        code = failure[first[0]]
        if code == 1:
            raise NonFiniteError("raw values contain NaN or infinities")
        if code == 2:
            raise AllZeroError("raw function has no positive mass")
        if code == 3:
            raise NonFiniteError("the mass of a row overflows: its values are too large to integrate")
        raise InvalidDensityError(
            "density values must be strictly positive; "
            "use normalize_rows() with a positive floor"
        )
    return out


def cdf_rows(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Cumulative trapezoidal integral of each row of an ``(n, m)`` array of
    density values, pinned to 0 at ``lo`` and 1 at ``hi``."""
    cum = cumulative_integral(values, grid)
    cum /= cum[:, -1:]
    cum[:, 0] = 0.0
    cum[:, -1] = 1.0
    return cum


def quantile_rows(cdf: np.ndarray, grid: Grid, tgrid: Grid) -> np.ndarray:
    """Invert each row of an ``(n, m)`` array of CDF values by monotone
    piecewise-linear interpolation on the probability grid ``tgrid``.

    Flat spans at most one grid cell wide are resolved to their left
    endpoint; wider flats cannot be inverted and raise
    ``NotInvertibleError``.
    """
    if (tgrid.lo, tgrid.hi) != (0.0, 1.0):
        raise BadArgumentError("quantiles are evaluated on a probability grid over [0, 1]")
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
    inverts.  Raises ``BadArgumentError`` for a decreasing row and
    ``NotInvertibleError`` for a flat span wider than one grid cell.
    """
    step = np.diff(cdf, axis=1)
    if np.any(step < 0):
        raise BadArgumentError("CDF values must be nondecreasing")
    flat = step == 0.0
    if np.any(flat[:, :-1] & flat[:, 1:]):
        raise NotInvertibleError("CDF has a flat span wider than one grid cell")
    first = np.ones(cdf.shape, dtype=bool)
    first[:, 1:] = ~flat
    return first


def pchip_rows(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Monotone cubic interpolant of each row, evaluated at shared points.

    Row ``i`` interpolates the points ``(x[i], y[i])``; ``y`` may also be
    one row shared by all.  The knot derivatives are those of Fritsch &
    Carlson (SIAM J. Numer. Anal. 17(2), 1980) as SciPy's
    ``PchipInterpolator`` sets them: the weighted harmonic mean of the two
    neighbouring slopes, or 0 where those slopes differ in sign or one is
    0; at each end the one-sided three-point estimate, 0 if its sign
    differs from the end slope's, and clamped to 3 times the end slope
    when the two end slopes differ in sign.  :func:`hermite_rows`
    evaluates the cubics.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.broadcast_to(np.asarray(y, dtype=float), x.shape)
    if x.shape[1] < 3:
        raise BadArgumentError(f"monotone cubic interpolation needs >= 3 knots, got {x.shape[1]}")
    h = np.diff(x, axis=1)
    _check_knots(h)
    return hermite_rows(x, y, _pchip_derivatives(h, np.diff(y, axis=1) / h), t)


def hermite_rows(x: np.ndarray, y: np.ndarray, d: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of each row, evaluated at shared points.

    Row ``i`` passes through the points ``(x[i], y[i])`` with slopes
    ``d[i]``; each of the three may also be one row shared by all.  Each
    row of ``x`` must be strictly increasing and ``t`` nondecreasing;
    points beyond a row's knots take the end cubics.  Each interval's
    cubic is built in powers of (t - x[j]) and summed as SciPy's
    ``CubicHermiteSpline`` does.  Returns an ``(n, len(t))`` array.
    """
    x, y, d = np.broadcast_arrays(*(np.atleast_2d(np.asarray(a, dtype=float)) for a in (x, y, d)))
    t = np.asarray(t, dtype=float)
    n, m = x.shape
    h = np.diff(x, axis=1)
    _check_knots(h)
    if np.any(np.diff(t) < 0):
        raise BadArgumentError("evaluation points must be nondecreasing")
    slope = np.diff(y, axis=1) / h
    c = (d[:, :-1] + d[:, 1:] - 2 * slope) / h
    c0, c1, c2, c3 = y[:, :-1], d[:, :-1], (slope - d[:, :-1]) / h - c, c / h
    rows = np.arange(n)[:, None]
    j = _count_at_or_below(x, t)
    j -= 1
    np.clip(j, 0, m - 2, out=j)
    s = t - x[rows, j]
    s2 = s * s
    return c0[rows, j] + c1[rows, j] * s + c2[rows, j] * s2 + c3[rows, j] * (s2 * s)


def _check_knots(h: np.ndarray):
    if not np.all(h > 0):
        raise BadArgumentError("knots must be strictly increasing in every row")


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


class Metric(Enum):
    L2 = "l2"
    WASSERSTEIN = "wasserstein"

    def embed_rows(self, values: np.ndarray, grid: Grid) -> tuple[np.ndarray, Grid]:
        """Rows whose L2 distances are this metric's distances between the
        density rows of ``values``: the densities themselves for L2, their
        quantile functions for Wasserstein, on a probability grid of
        ``grid.m`` points."""
        if self is Metric.L2:
            return values, grid
        tgrid = unit_grid(grid.m)
        return quantile_rows(cdf_rows(values, grid), grid, tgrid), tgrid

    def embed(self, sample: DensitySample) -> tuple[np.ndarray, Grid]:
        return self.embed_rows(sample.values, sample.grid)


def sq_dist_rows(a: np.ndarray, b: np.ndarray, grid: Grid) -> np.ndarray:
    """Squared L2 distances between the rows of ``a`` and ``b``.

    The differences are divided by the power of two at or just below their
    largest magnitude, which is exact, and the integrals scaled back, so
    rows on supports as narrow as 1e-200 or as wide as 1e200 neither
    overflow nor underflow.
    """
    d = np.subtract(a, b, dtype=float)
    peak = max(d.max(initial=0.0), -d.min(initial=0.0))
    # scaled back by s twice: s * s alone overflows beyond 2**+-512
    s = np.ldexp(1.0, max(np.frexp(peak)[1] - 1, -1022))
    d *= 1.0 / s
    np.square(d, out=d)
    return np.maximum(integrate_rows(d, grid) * s * s, 0.0)


def dist_wasserstein(f: DensityFn, g: DensityFn) -> float:
    """Wasserstein-2 distance via the L2 distance of quantile functions.

    Both densities must lie on one grid; their quantile functions are
    computed as the two rows of one array, on a probability grid of the
    same size.
    """
    if f.support != g.support:
        raise SupportMismatchError(f"supports differ: {f.support} vs {g.support}")
    if f.grid != g.grid:
        raise GridMismatchError("both densities must lie on one grid")
    q, tgrid = Metric.WASSERSTEIN.embed_rows(np.stack([f.values, g.values]), f.grid)
    return float(np.sqrt(sq_dist_rows(q[:1], q[1:], tgrid)[0]))
