import re

import numpy as np
import pytest
from scipy.stats import norm

from densfda import (
    SIMULATION_FLOOR,
    BadBandwidthError,
    DensfdaError,
    DensityFn,
    DensitySample,
    Grid,
    InvalidDensityError,
    KdeConfig,
    Kernel,
    NonFiniteError,
    OutOfSupportError,
    SampleShapeError,
    SettingSpec,
    TooFewSamplesError,
    boundary_weight,
    default_bandwidth,
    estimate_rows,
    gen_setting,
    normalize_rows,
)
from densfda.density import integrate_rows

from conftest import l2_distance, sup_distance


def _estimate(draws, cfg) -> DensityFn:
    """The density of one sample of draws: the row of ``estimate_rows`` on a ``(1, k)`` array."""
    return DensityFn(cfg.grid, estimate_rows(np.asarray(draws, dtype=float)[None], cfg)[0])


class TestBoundaryWeight:
    def test_interior_is_one(self):
        for kernel in Kernel:
            assert boundary_weight(np.array([0.5]), 0.1, kernel) == 1.0

    def test_left_edge_gaussian(self):
        # oracle: (Phi(1) - Phi(0))^-1
        expect = 1.0 / (norm.cdf(1.0) - norm.cdf(0.0))
        assert boundary_weight(np.array([0.0]), 0.1, Kernel.GAUSSIAN) == pytest.approx(expect, abs=1e-3)

    def test_edges_symmetric(self):
        for kernel in Kernel:
            left = boundary_weight(np.array([0.0]), 0.1, kernel)
            right = boundary_weight(np.array([1.0]), 0.1, kernel)
            assert left == pytest.approx(right, rel=1e-12)

    def test_weight_bounds(self, rng):
        for kernel in Kernel:
            c_kappa = 1.0 / kernel.integral(0.0, 1.0)
            x = rng.random(1000)
            h = rng.uniform(1e-3, 0.499, 1000)
            for xi, hi in zip(x, h):
                w = boundary_weight(np.array([xi]), hi, kernel)
                assert 1.0 - 1e-12 <= w <= c_kappa + 1e-12

    @pytest.mark.parametrize("h", [0.0, 0.5, 0.7, -0.1])
    def test_bad_bandwidth(self, h):
        with pytest.raises(BadBandwidthError):
            boundary_weight(np.array([0.3]), h)


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
        f = _estimate(np.full(50, 0.5), cfg)
        assert integrate_rows(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)
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
        f = _estimate(samples, cfg)
        uniform = DensitySample(normalize_rows(np.ones(512)[None], f.grid, 0.0), f.grid)[0]
        assert l2_distance(f, uniform) <= 0.05

    def test_uniform_recovery_gaussian_interior(self, rng):
        # the gaussian kernel's weight drops tail mass beyond one bandwidth,
        # biasing a strip of width h at each boundary; the interior is clean
        n = 10_000
        samples = rng.random(n)
        h = default_bandwidth(n)
        f = _estimate(samples, KdeConfig(h, Kernel.GAUSSIAN, Grid(0.0, 1.0, 512)))
        interior = (f.grid.points > 2 * h) & (f.grid.points < 1 - 2 * h)
        assert np.abs(f.values[interior] - 1.0).max() <= 0.06

    def test_too_few_samples(self):
        cfg = KdeConfig(0.2)
        with pytest.raises(TooFewSamplesError):
            _estimate([0.5], cfg)

    def test_out_of_support(self):
        cfg = KdeConfig(0.2)
        with pytest.raises(OutOfSupportError):
            _estimate([0.5, 1.2], cfg)

    def test_boundary_samples_accepted(self):
        cfg = KdeConfig(0.2)
        f = _estimate([0.0, 1.0, 0.5], cfg)
        assert integrate_rows(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)

    def test_non_finite_samples(self):
        with pytest.raises(NonFiniteError):
            _estimate([0.5, np.nan], KdeConfig(0.2))

    def test_location_equivariance_with_support(self, rng):
        # shifting samples and support window together is an exact affine remap
        samples = rng.uniform(0.3, 0.7, 200)
        cfg = KdeConfig(0.1, Kernel.GAUSSIAN, Grid(0.0, 1.0, 512))
        base = _estimate(samples, cfg)
        c = 0.25
        shifted_cfg = KdeConfig(0.1, Kernel.GAUSSIAN, Grid(c, 1.0 + c, 512))
        shifted = _estimate(samples + c, shifted_cfg)
        assert np.abs(shifted.values - base.values).max() <= 1e-6

    def test_interior_shift_equivariance(self, rng):
        # compact kernel far from the boundary: shifting by a whole number of
        # grid cells shifts the estimate by the same cells
        g = Grid(0.0, 1.0, 512)
        samples = rng.uniform(0.35, 0.45, 300)
        cells = 51
        c = cells * g.spacing
        cfg = KdeConfig(0.05, Kernel.EPANECHNIKOV, g)
        base = _estimate(samples, cfg)
        shifted = _estimate(samples + c, cfg)
        assert np.abs(shifted.values[cells:-1] - base.values[: -cells - 1]).max() <= 1e-6

    def test_bandwidth_monotonicity_at_dirac(self):
        cfg_grid = Grid(0.0, 1.0, 512)
        samples = np.full(20, 0.5)
        sups, prev = [], None
        for h in (0.05, 0.1, 0.2, 0.4):
            f = _estimate(samples, KdeConfig(h, Kernel.GAUSSIAN, cfg_grid))
            sups.append(f.values.max())
            if prev is not None:
                assert sup_distance(prev, f) > 0.0
            prev = f
        assert all(a > b for a, b in zip(sups, sups[1:]))

    def test_output_valid_for_compact_kernels(self, rng):
        for kernel in (Kernel.EPANECHNIKOV, Kernel.UNIFORM):
            cfg = KdeConfig(0.15, kernel, Grid(-2.0, 2.0, 257), floor=1e-6)
            f = _estimate(rng.normal(0, 0.5, 100).clip(-2, 2), cfg)
            assert f.values.min() > 0.0
            assert integrate_rows(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)


def _reference_raw(draws, cfg):
    """The kernel density at every (grid point, draw) pair of one sample of
    draws, summed and boundary-weighted."""
    grid = cfg.grid
    u = (np.asarray(draws, dtype=float) - grid.lo) / grid.width
    x = np.linspace(0.0, 1.0, grid.m)
    with np.errstate(over="ignore"):
        z = (x[:, None] - u[None, :]) / cfg.bandwidth
        if cfg.kernel is Kernel.GAUSSIAN:
            k = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        elif cfg.kernel is Kernel.EPANECHNIKOV:
            k = np.where(np.abs(z) <= 1.0, 0.75 * (1.0 - z * z), 0.0)
        else:
            k = np.where(np.abs(z) <= 1.0, 0.5, 0.0)
    return k.sum(axis=1) * boundary_weight(x, cfg.bandwidth, cfg.kernel)


def _reference_density(draws, cfg):
    """The direct estimator: ``_reference_raw`` scaled to unit trapezoidal
    mass, then floored and renormalized."""
    grid = cfg.grid
    raw = _reference_raw(draws, cfg)
    mass = integrate_rows(raw, Grid(0.0, 1.0, grid.m))
    return normalize_rows((raw / (mass * grid.width))[None], grid, cfg.floor)[0]


# How far ``estimate_rows``, which sums the kernels without their constant
# factors, may lie from ``_reference_density``, relative to each value.  The
# rounding count, in units of u = 2**-53, to first order, both sides together.
# NumPy's pairwise sum puts at most 26 additions on any term's path for every
# length up to 512 (lanes of 8 up to 128 terms, halving above).
# - raw sums, 56: the reference's constant and its division (2), the row sums
#   (2 × 26) and the boundary weight (2);
# - unit mass, 172: the value (56), its trapezoid mass (56 from the values and
#   2 × 28 of its own) and the scaling by mass times width (4);
# - renormalization, 491: the value (172) plus, when one side divides by its
#   mass and the other keeps the row as it is, that mass's distance from 1:
#   the mass difference (172 + 56), the 1e-14 keep-as-is band (90) and the
#   division (1).
# The count holds while the kernel values that set a row are normal numbers:
# rows whose reference sums all lie below 2**-969 (the smallest normal over u)
# are left out, since there subnormal Gaussian values (z² > 1416) carry more
# than u of error, and the reference's division by √(2π) can zero a row.
# Uniform kernel sums are counts, exactly twice the reference's: bit for bit.
RTOL = 512 * 2.0**-53


def _assert_matches_reference(row, draws, cfg):
    if cfg.kernel is Kernel.UNIFORM:
        assert np.array_equal(row, _reference_density(draws, cfg))
    elif _reference_raw(draws, cfg).max() >= 2.0**-969:
        np.testing.assert_allclose(row, _reference_density(draws, cfg), rtol=RTOL, atol=0.0)


def _first_row_error(rows, cfg):
    """The error that estimating ``rows`` one at a time raises first, or None."""
    for draws in rows:
        try:
            _estimate(draws, cfg)
        except DensfdaError as exc:
            return exc
    return None


class TestEstimateRows:
    @pytest.mark.parametrize("kernel", list(Kernel))
    @pytest.mark.parametrize("n, k", [(1, 2), (1, 200), (6, 2), (6, 37)])
    def test_bitwise_equal_to_row_loop(self, kernel, n, k, rng):
        grid = Grid(-2.0, 3.0, 129)
        draws = rng.uniform(grid.lo, grid.hi, (n, k))
        draws[:, 0] = grid.lo  # draws on both ends of the support
        draws[-1, -1] = grid.hi
        cfg = KdeConfig(0.15, kernel, grid)
        got = estimate_rows(draws, cfg)
        assert got.shape == (n, grid.m)
        for row, draw in zip(got, draws):
            assert np.array_equal(row, estimate_rows(draw[None], cfg)[0])
            _assert_matches_reference(row, draw, cfg)

    def test_matches_row_loop_on_random_shapes(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            st.integers(1, 8), st.integers(2, 300), st.integers(3, 512),
            st.floats(0.0, 0.49, exclude_min=True), st.sampled_from(list(Kernel)),
            st.integers(0, 2**32 - 1),
        )
        def check(n, k, m, h, kernel, seed):
            gen = np.random.default_rng(seed)
            lo = gen.normal(0.0, 10.0)
            grid = Grid(lo, lo + gen.uniform(0.1, 10.0), m)
            draws = gen.uniform(grid.lo, grid.hi, (n, k))
            draws[gen.random((n, k)) < 0.05] = grid.lo
            cfg = KdeConfig(h, kernel, grid)
            error = _first_row_error(draws, cfg)
            if error is not None:
                with pytest.raises(type(error), match=re.escape(str(error))):
                    estimate_rows(draws, cfg)
                return
            got = estimate_rows(draws, cfg)
            for row, draw in zip(got, draws):
                assert np.array_equal(row, estimate_rows(draw[None], cfg)[0])
                _assert_matches_reference(row, draw, cfg)

        check()

    def test_first_failing_row_raises(self):
        # uniform kernel of half-width 0.02 on nodes 0.1 apart, floor 0: a
        # draw on every node is a valid sample, draws at 0.5 only leave zeros
        # (not strictly positive), and draws at 0.55 reach no node (the
        # kernel sum vanishes)
        cfg = KdeConfig(0.02, Kernel.UNIFORM, Grid(0.0, 1.0, 11), floor=0.0)
        ok, zeros, missed = np.linspace(0.0, 1.0, 11), np.full(11, 0.5), np.full(11, 0.55)
        nan, outside = zeros.copy(), zeros.copy()
        nan[3], outside[7] = np.nan, 1.5
        for rows, error in [
            ((ok, nan, outside), NonFiniteError),
            ((ok, outside, nan), OutOfSupportError),
            ((ok, missed, nan), BadBandwidthError),
            ((outside, missed), OutOfSupportError),
            ((ok, zeros, nan), InvalidDensityError),
            ((nan, zeros), NonFiniteError),
            ((zeros, missed), InvalidDensityError),
        ]:
            first = _first_row_error(rows, cfg)
            assert type(first) is error
            with pytest.raises(error, match=re.escape(str(first))) as info:
                estimate_rows(np.stack(rows), cfg)
            assert type(info.value) is error
        assert np.array_equal(estimate_rows(ok[None], cfg)[0], _reference_density(ok, cfg))
        with pytest.raises(TooFewSamplesError):
            estimate_rows(np.full((3, 1), 0.5), cfg)

    def test_shape_checked(self):
        cfg = KdeConfig(0.2)
        with pytest.raises(SampleShapeError, match=r"\(\)"):
            estimate_rows(0.5, cfg)
        for bad in (np.full(4, 0.5), np.full((2, 2, 3), 0.5)):
            with pytest.raises(SampleShapeError, match=re.escape(str(bad.shape))):
                estimate_rows(bad, cfg)
        assert issubclass(SampleShapeError, DensfdaError)

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_gen_setting_estimates_each_row(self, setting):
        spec = SettingSpec(setting=setting, n=6, m=128, observed="sampled", n_obs=40, seed=5)
        gen = gen_setting(spec)
        cfg = KdeConfig(spec.unit_bandwidth, Kernel.GAUSSIAN, spec.grid, SIMULATION_FLOOR)
        assert gen.raw_samples.shape == (6, 40)
        expect = np.stack([estimate_rows(w[None], cfg)[0] for w in gen.raw_samples])
        assert np.array_equal(gen.densities.values, expect)
