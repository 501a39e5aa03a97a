"""Boundary-corrected kernel density estimation on a compact support.

The estimator renormalizes a weighted kernel sum so that the result is a
bona fide density: nonnegative with unit integral.  Near the support
boundary each kernel is reweighted by the reciprocal of its truncated
integral, which removes the boundary bias of the plain kernel estimator.
Bandwidths are expressed on the unit-mapped support and must stay below
one half.  :func:`estimate_rows` is the one estimator, for an ``(n, k)``
array of draws; one sample of draws is the row of a ``(1, k)`` array.
It sums each kernel without its constant factor (the Gaussian's
1/√(2π), the Epanechnikov's 3/4, the uniform's 1/2): dividing by the
sum's own integral cancels any constant, so the estimate is the same
up to rounding.

The Gaussian branch of :meth:`Kernel.integral` takes the normal CDF from
:mod:`densfda.normal`, on NumPy alone, so estimating loads no SciPy
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .density import DEFAULT_FLOOR, Grid, integrate_rows, normalize_rows
from .errors import BadBandwidthError, NonFiniteError, OutOfSupportError, SampleShapeError, TooFewSamplesError
from .normal import ndtr

MAX_BANDWIDTH = 0.49


class Kernel(Enum):
    """Symmetric probability-density kernels with closed-form integrals."""

    GAUSSIAN = "gaussian"
    EPANECHNIKOV = "epanechnikov"
    UNIFORM = "uniform"

    def integral(self, a, b):
        """Exact integral of the kernel over [a, b] (elementwise)."""
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self is Kernel.GAUSSIAN:
            return ndtr(b) - ndtr(a)
        lo = np.clip(a, -1.0, 1.0)
        hi = np.clip(b, -1.0, 1.0)
        if self is Kernel.EPANECHNIKOV:
            anti = lambda u: 0.75 * (u - u**3 / 3.0)  # noqa: E731
            return anti(hi) - anti(lo)
        return 0.5 * (hi - lo)


@dataclass(frozen=True)
class KdeConfig:
    """Estimator configuration.

    ``bandwidth`` lives on the support mapped to [0, 1]; the weight
    construction requires it to be strictly between 0 and one half.
    """

    bandwidth: float
    kernel: Kernel = Kernel.GAUSSIAN
    grid: Grid = Grid(0.0, 1.0, 512)
    floor: float = DEFAULT_FLOOR

    def __post_init__(self):
        _check_bandwidth(self.bandwidth)


def _check_bandwidth(h: float):
    if not (0.0 < h < 0.5):
        raise BadBandwidthError(f"bandwidth must be in (0, 0.5), got {h}")


def default_bandwidth(n: int) -> float:
    """Rate-optimal bandwidth n**(-1/3), clamped into (0, 0.49]."""
    if n < 2:
        raise TooFewSamplesError("bandwidth rule needs n >= 2")
    return min(float(n) ** (-1.0 / 3.0), MAX_BANDWIDTH)


def boundary_weight(x: np.ndarray, h: float, kernel: Kernel = Kernel.GAUSSIAN) -> np.ndarray:
    """Boundary-correction weights at an array of unit-mapped positions x.

    Interior points get weight 1; within one bandwidth of an endpoint the
    weight is the reciprocal of the kernel mass that remains inside the
    support, which lies in [1, 1/∫_0^1 κ].
    """
    _check_bandwidth(h)
    x = np.asarray(x, dtype=float)
    w = np.ones_like(x)
    left = x < h
    right = x > 1.0 - h
    w[left] = 1.0 / kernel.integral(-x[left] / h, 1.0)
    w[right] = 1.0 / kernel.integral(-1.0, (1.0 - x[right]) / h)
    return w


def _kernel_sums(kernel: Kernel, z2: np.ndarray) -> np.ndarray:
    """Row sums of the kernel at z, given z², without the kernel's constant
    factor: exp(−z²/2), max(1 − z², 0) or [z² ≤ 1].  Overwrites ``z2``."""
    if kernel is Kernel.GAUSSIAN:
        z2 *= -0.5
        return np.exp(z2, out=z2).sum(axis=1)
    if kernel is Kernel.EPANECHNIKOV:
        np.subtract(1.0, z2, out=z2)
        return np.maximum(z2, 0.0, out=z2).sum(axis=1)
    return np.count_nonzero(z2 <= 1.0, axis=1)


def estimate_rows(samples, cfg: KdeConfig) -> np.ndarray:
    """Estimate one density from each row of an ``(n, k)`` array of draws.

    Each kernel sum, with boundary weights on the unit-mapped support, is
    divided by its own trapezoidal integral, floored at ``cfg.floor`` and
    renormalized into a strictly positive density on ``cfg.grid``.  The
    checks, weights and normalization run once per array, the kernel sum
    once per row, in place on one ``(m, k)`` buffer: z = (x − u)/h,
    squared, then the kernel as a function of z² without its constant
    factor.  That factor would scale a row and its integral alike, so the
    division by the integral makes leaving it out exact up to rounding;
    the Gaussian's exponent −z²/2 has the same bits as with it.  Returns
    ``(n, m)`` values.  Rows fail with ``TooFewSamplesError``,
    ``NonFiniteError``, ``OutOfSupportError`` or ``BadBandwidthError``,
    and the first failing row's error is raised.
    """
    w = np.asarray(samples, dtype=float)
    if w.ndim != 2:
        raise SampleShapeError(f"samples must be an (n, k) array, got shape {w.shape}")
    if w.shape[1] < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {w.shape[1]}")
    grid, h = cfg.grid, cfg.bandwidth
    finite = np.isfinite(w).all(axis=1)
    valid = finite & (w.min(axis=1) >= grid.lo) & (w.max(axis=1) <= grid.hi)
    # rows from the first invalid one on are neither summed nor returned
    stop = len(w) if valid.all() else int(valid.argmin())
    u = (w[:stop] - grid.lo) / grid.width
    x = np.linspace(0.0, 1.0, grid.m)
    weights = boundary_weight(x, h, cfg.kernel)
    raw, z2 = np.empty((stop, grid.m)), np.empty((grid.m, w.shape[1]))
    with np.errstate(over="ignore"):  # a tiny bandwidth sends far draws to infinity, weight 0
        for row, draws in zip(raw, u):
            np.subtract(x[:, None], draws, out=z2)
            z2 /= h
            z2 *= z2
            np.multiply(_kernel_sums(cfg.kernel, z2), weights, out=row)
    # a compact kernel can miss every node, and a sum of subnormal Gaussian
    # values times the support width can underflow to 0
    scale = integrate_rows(raw, Grid(0.0, 1.0, grid.m)) * grid.width
    vanished = np.append(np.flatnonzero(scale <= 0.0), stop)[0]
    out = normalize_rows(raw[:vanished] / scale[:vanished, None], grid, cfg.floor)
    if vanished < stop:
        raise BadBandwidthError("kernel sum vanished on the grid; increase bandwidth")
    if stop < len(w):
        if not finite[stop]:
            raise NonFiniteError("samples contain NaN or infinities")
        raise OutOfSupportError(f"samples outside support [{grid.lo}, {grid.hi}]")
    return out
