import numpy as np
import pytest

from densfda import DensityFn, DensitySample, Grid, forward_rows, inverse_rows, normalize_rows, unit_grid
from densfda.density import integrate_rows, sq_dist_rows


@pytest.fixture
def unit512() -> Grid:
    return Grid(0.0, 1.0, 512)


def smooth_density(rng, grid: Grid, floor: float = 1e-6, amplitude: float = 0.5) -> DensityFn:
    """Random strictly positive smooth density: exp of a low-order trig poly."""
    u = (grid.points - grid.lo) / grid.width
    log_f = np.zeros(grid.m)
    for k in range(1, 4):
        a, b = rng.normal(size=2) * amplitude / k
        log_f += a * np.cos(np.pi * k * u) + b * np.sin(np.pi * k * u)
    return DensitySample(normalize_rows(np.exp(log_f)[None], grid, floor), grid)[0]


def stack(densities) -> DensitySample:
    """The sample of densities that share the first one's grid."""
    return DensitySample(np.stack([f.values for f in densities]), densities[0].grid)


def to_transform(f: DensityFn, spec) -> tuple[Grid, np.ndarray]:
    """Transform grid and values of one density: ``forward_rows`` of one row."""
    tgrid, x = forward_rows(f.values[None], f.grid, spec)
    return tgrid, x[0]


def from_transform(tgrid: Grid, x, spec, support=(0.0, 1.0)) -> DensityFn:
    """Density on ``support`` of one row of transformed values: ``inverse_rows``."""
    values = inverse_rows(np.asarray(x, dtype=float)[None], tgrid, spec, support)[0]
    return DensityFn(Grid(*support, tgrid.m), values)


def roundtrip(f: DensityFn, spec) -> DensityFn:
    """One density through the forward transform and back to its support."""
    return from_transform(*to_transform(f, spec), spec, f.support)


def l2_distance(f, g) -> float:
    """L2 distance of two densities on one grid, by ``sq_dist_rows``."""
    assert f.grid == g.grid
    return float(np.sqrt(sq_dist_rows(f.values, g.values, f.grid)))


def sup_distance(f, g) -> float:
    """Largest absolute difference of two densities on one grid."""
    assert f.grid == g.grid
    return float(np.abs(f.values - g.values).max())


def lqd_rank2_basis(grid_m: int = 512):
    """Two orthonormal directions for synthetic log-quantile-density families.

    Both integrate to zero (the inverse transform is invariant to additive
    constants, so components along 1 would be invisible in density space),
    have a unique dominant peak, and carry the package sign convention
    (largest-magnitude value positive) so estimated eigenfunctions line up
    with them without post-hoc alignment.
    """
    tgrid = unit_grid(grid_m)
    t = tgrid.points
    raw1 = np.cos(np.pi * t) + 0.25 * np.cos(2 * np.pi * t)
    rho1 = raw1 / np.sqrt(integrate_rows(raw1**2, tgrid))
    raw2 = np.cos(2 * np.pi * t) + 0.3 * np.cos(3 * np.pi * t)
    raw2 -= integrate_rows(raw2 * rho1, tgrid) * rho1
    rho2 = raw2 / np.sqrt(integrate_rows(raw2**2, tgrid))
    for rho in (rho1, rho2):
        if rho[np.abs(rho).argmax()] < 0:
            rho *= -1.0
    return tgrid, rho1, rho2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
