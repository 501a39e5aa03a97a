import numpy as np
import pytest
from scipy.stats import norm

from densfda import (
    BadBandwidthError,
    Grid,
    KdeConfig,
    Kernel,
    NonFiniteError,
    OutOfSupportError,
    TooFewSamplesError,
    boundary_weight,
    default_bandwidth,
    estimate_density,
    normalize,
)
from densfda.density import integrate

from conftest import l2_distance, sup_distance


class TestBoundaryWeight:
    def test_interior_is_one(self):
        for kernel in Kernel:
            assert boundary_weight(0.5, 0.1, kernel) == 1.0

    def test_left_edge_gaussian(self):
        # oracle: (Phi(1) - Phi(0))^-1
        expect = 1.0 / (norm.cdf(1.0) - norm.cdf(0.0))
        assert boundary_weight(0.0, 0.1, Kernel.GAUSSIAN) == pytest.approx(expect, abs=1e-3)

    def test_edges_symmetric(self):
        for kernel in Kernel:
            left = boundary_weight(0.0, 0.1, kernel)
            right = boundary_weight(1.0, 0.1, kernel)
            assert left == pytest.approx(right, rel=1e-12)

    def test_weight_bounds(self, rng):
        for kernel in Kernel:
            c_kappa = 1.0 / kernel.integral(0.0, 1.0)
            x = rng.random(1000)
            h = rng.uniform(1e-3, 0.499, 1000)
            for xi, hi in zip(x, h):
                w = boundary_weight(xi, hi, kernel)
                assert 1.0 - 1e-12 <= w <= c_kappa + 1e-12

    @pytest.mark.parametrize("h", [0.0, 0.5, 0.7, -0.1])
    def test_bad_bandwidth(self, h):
        with pytest.raises(BadBandwidthError):
            boundary_weight(0.3, h)


class TestDefaultBandwidth:
    def test_rule(self):
        assert default_bandwidth(1000) == pytest.approx(0.1, abs=1e-12)
        assert default_bandwidth(100) == pytest.approx(0.2154434690031884, abs=1e-10)

    def test_clamped(self):
        assert default_bandwidth(8) == 0.49

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            default_bandwidth(1)


class TestEstimateDensity:
    def test_point_mass_smoothing(self):
        cfg = KdeConfig(0.2, Kernel.GAUSSIAN, Grid(0.0, 1.0, 512))
        f = estimate_density(np.full(50, 0.5), cfg)
        assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)
        mid = f.grid.m // 2
        np.testing.assert_allclose(f.values, f.values[::-1], rtol=1e-9)  # symmetric
        assert f.values.argmax() in (mid, mid + 1, mid - 1)

    def test_uniform_recovery(self, rng):
        # compact kernel: the boundary weight is exact, so only Monte Carlo
        # variance remains (the truncated-integral weight overcorrects
        # unbounded kernels on a boundary strip, see the gaussian test below)
        n = 10_000
        samples = rng.random(n)
        cfg = KdeConfig(default_bandwidth(n), Kernel.EPANECHNIKOV, Grid(0.0, 1.0, 512))
        f = estimate_density(samples, cfg)
        uniform = normalize(np.ones(512), f.grid, 0.0)
        assert l2_distance(f, uniform) <= 0.05

    def test_uniform_recovery_gaussian_interior(self, rng):
        # the gaussian kernel's weight drops tail mass beyond one bandwidth,
        # biasing a strip of width h at each boundary; the interior is clean
        n = 10_000
        samples = rng.random(n)
        h = default_bandwidth(n)
        f = estimate_density(samples, KdeConfig(h, Kernel.GAUSSIAN, Grid(0.0, 1.0, 512)))
        interior = (f.grid.points > 2 * h) & (f.grid.points < 1 - 2 * h)
        assert np.abs(f.values[interior] - 1.0).max() <= 0.06

    def test_too_few_samples(self):
        cfg = KdeConfig(0.2)
        with pytest.raises(TooFewSamplesError):
            estimate_density([0.5], cfg)

    def test_out_of_support(self):
        cfg = KdeConfig(0.2)
        with pytest.raises(OutOfSupportError):
            estimate_density([0.5, 1.2], cfg)

    def test_boundary_samples_accepted(self):
        cfg = KdeConfig(0.2)
        f = estimate_density([0.0, 1.0, 0.5], cfg)
        assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)

    def test_non_finite_samples(self):
        with pytest.raises(NonFiniteError):
            estimate_density([0.5, np.nan], KdeConfig(0.2))

    def test_location_equivariance_with_support(self, rng):
        # shifting samples and support window together is an exact affine remap
        samples = rng.uniform(0.3, 0.7, 200)
        cfg = KdeConfig(0.1, Kernel.GAUSSIAN, Grid(0.0, 1.0, 512))
        base = estimate_density(samples, cfg)
        c = 0.25
        shifted_cfg = KdeConfig(0.1, Kernel.GAUSSIAN, Grid(c, 1.0 + c, 512))
        shifted = estimate_density(samples + c, shifted_cfg)
        assert np.abs(shifted.values - base.values).max() <= 1e-6

    def test_interior_shift_equivariance(self, rng):
        # compact kernel far from the boundary: shifting by a whole number of
        # grid cells shifts the estimate by the same cells
        g = Grid(0.0, 1.0, 512)
        samples = rng.uniform(0.35, 0.45, 300)
        cells = 51
        c = cells * g.spacing
        cfg = KdeConfig(0.05, Kernel.EPANECHNIKOV, g)
        base = estimate_density(samples, cfg)
        shifted = estimate_density(samples + c, cfg)
        assert np.abs(shifted.values[cells:-1] - base.values[: -cells - 1]).max() <= 1e-6

    def test_bandwidth_monotonicity_at_dirac(self):
        cfg_grid = Grid(0.0, 1.0, 512)
        samples = np.full(20, 0.5)
        sups, prev = [], None
        for h in (0.05, 0.1, 0.2, 0.4):
            f = estimate_density(samples, KdeConfig(h, Kernel.GAUSSIAN, cfg_grid))
            sups.append(f.values.max())
            if prev is not None:
                assert sup_distance(prev, f) > 0.0
            prev = f
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_output_valid_for_compact_kernels(self, rng):
        for kernel in (Kernel.EPANECHNIKOV, Kernel.UNIFORM):
            cfg = KdeConfig(0.15, kernel, Grid(-2.0, 2.0, 257), floor=1e-6)
            f = estimate_density(rng.normal(0, 0.5, 100).clip(-2, 2), cfg)
            assert f.values.min() > 0.0
            assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)
