import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import PchipInterpolator

from densfda import (
    LQD,
    AllZeroError,
    DensfdaError,
    DensityFn,
    DensitySample,
    EmptySampleError,
    Grid,
    GridMismatchError,
    InvalidDensityError,
    NonFiniteError,
    NotInvertibleError,
    SupportMismatchError,
    dist_wasserstein,
    log_hazard_spec,
    unit_grid,
)
from densfda.density import (
    cdf_rows,
    cumulative_integral,
    integrate_rows,
    normalize_rows,
    pchip_rows,
    quantile_rows,
)
from densfda.frechet import _pchip_quantile_rows
from densfda.transforms import forward_rows, inverse_rows

from conftest import l2_distance, smooth_density, stack


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid(-3.0, 3.0, 7)
        assert g.spacing == 1.0
        np.testing.assert_allclose(g.points, np.arange(-3.0, 4.0))

    @pytest.mark.parametrize("lo,hi,m", [(0, 1, 2), (1, 1, 5), (2, 1, 5)])
    def test_rejects_bad_grids(self, lo, hi, m):
        with pytest.raises(ValueError):
            Grid(lo, hi, m)

    def test_weights_sum_to_width(self):
        g = Grid(0.0, 2.0, 101)
        assert g.trapezoid_weights().sum() == pytest.approx(2.0, abs=1e-14)


class TestNormalize:
    def test_constant_rescale(self, unit512):
        f = normalize_rows(np.full((1, 512), 2.0), unit512, floor=0.0)
        np.testing.assert_array_equal(f, np.ones((1, 512)))

    def test_clipped_triangle(self, unit512):
        # oracle: integral of max(1 - 2x, 0) over [0, 1] is 1/4, so the
        # positive part rescales by ~4 and the floored part sits near 4e-6
        x = unit512.points
        f = normalize_rows(np.maximum(1.0 - 2.0 * x, 0.0)[None], unit512, floor=1e-6)[0]
        np.testing.assert_allclose(f[x < 0.49], 4.0 * (1.0 - 2.0 * x[x < 0.49]), rtol=1e-3)
        assert f[x > 0.51].max() < 1e-5
        assert integrate_rows(f, unit512) == pytest.approx(1.0, abs=1e-10)

    def test_all_zero_raises(self, unit512):
        with pytest.raises(AllZeroError):
            normalize_rows(np.zeros((1, 512)), unit512)

    def test_non_finite_raises(self, unit512):
        raw = np.ones(512)
        raw[5] = np.nan
        with pytest.raises(NonFiniteError):
            normalize_rows(raw[None], unit512)

    def test_rows_raise_first_failing_row(self, unit512):
        # each row fails a different check; the batch fails as the rows
        # one at a time would, on the first failing row
        ones, zeros, nan = np.ones(512), np.zeros(512), np.full(512, np.nan)
        gap = np.where(unit512.points < 0.5, 1.0, 0.0)
        for rows, error in [
            ((ones, gap, nan), InvalidDensityError),
            ((ones, nan, zeros), NonFiniteError),
            ((zeros, nan), AllZeroError),
        ]:
            with pytest.raises(error) as info:
                normalize_rows(np.stack(rows), unit512, floor=0.0)
            assert type(info.value) is error

    def test_idempotent_exactly(self, unit512, rng):
        f = smooth_density(rng, unit512)
        again = normalize_rows(f.values[None], unit512, floor=1e-6)
        np.testing.assert_array_equal(again[0], f.values)

    def test_density_requires_positive(self, unit512):
        vals = np.ones(512)
        vals[0] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            DensityFn(unit512, vals / integrate_rows(vals, unit512))

    @pytest.mark.parametrize("case", ["shape", "positivity", "mass", "floor-zero"])
    def test_invalid_density_is_a_library_error(self, unit512, case):
        with_zero = np.r_[0.0, np.ones(511)]
        with pytest.raises(DensfdaError):
            if case == "shape":
                DensityFn(unit512, np.ones(511))
            elif case == "positivity":
                DensityFn(unit512, with_zero / integrate_rows(with_zero, unit512))
            elif case == "mass":
                DensityFn(unit512, np.full(512, 2.0))
            else:
                normalize_rows(with_zero[None], unit512, floor=0.0)

    def test_values_frozen(self, unit512):
        f = DensitySample(normalize_rows(np.ones(512)[None], unit512), unit512)[0]
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_density_fn_leaves_callers_array_writable(self):
        grid = Grid(0.0, 1.0, 64)
        v = np.ones(64)
        f = DensityFn(grid, v)
        assert v.flags.writeable
        assert not f.values.flags.writeable
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        v[0] = 2.0  # the caller may still write its own array


class TestDensitySample:
    def test_rows_checked_as_densities(self, unit512, rng):
        ok = smooth_density(rng, unit512).values
        with_zero, nan, heavy = ok.copy(), ok.copy(), 2.0 * ok
        with_zero[7] = 0.0
        nan[3] = np.nan
        # each bad row fails a different check, as one DensityFn and in a
        # batch; the batch fails with the error of its first failing row
        for row, error, match in [
            (with_zero, InvalidDensityError, "strictly positive"),
            (nan, NonFiniteError, "finite"),
            (heavy, InvalidDensityError, "integral is 2"),
        ]:
            with pytest.raises(error, match=match):
                DensityFn(unit512, row)
            for rows in ((ok, row, with_zero, nan, heavy), (row, ok)):
                with pytest.raises(error, match=match) as info:
                    DensitySample(np.stack(rows), unit512)
                assert type(info.value) is error
        with pytest.raises(InvalidDensityError):
            DensitySample(np.stack([ok, ok])[:, :-1], unit512)
        with pytest.raises(InvalidDensityError):
            DensitySample(ok, unit512)
        with pytest.raises(EmptySampleError):
            DensitySample(np.empty((0, 512)), unit512)

    def test_values_read_only_and_callers_array_untouched(self, unit512, rng):
        values = np.stack([smooth_density(rng, unit512).values for _ in range(3)])
        sample = DensitySample(values, unit512)
        assert values.flags.writeable
        with pytest.raises(ValueError):
            sample.values[0, 0] = 1.0
        assert sample.support == (0.0, 1.0) and len(sample) == 3

    def test_indexing_and_iteration(self, unit512, rng):
        sample = stack([smooth_density(rng, unit512) for _ in range(5)])
        for i in (0, 4, -1, np.int64(2)):
            f = sample[i]
            assert isinstance(f, DensityFn) and f.grid == unit512
            np.testing.assert_array_equal(f.values, sample.values[i])
        for index in (slice(1, 4), [4, 0, 0], np.array([True, False, True, False, True])):
            sub = sample[index]
            assert isinstance(sub, DensitySample) and sub.grid == unit512
            np.testing.assert_array_equal(sub.values, sample.values[index])
        with pytest.raises(IndexError):
            sample[5]
        rows = list(sample)
        assert len(rows) == 5 and all(isinstance(f, DensityFn) for f in rows)
        np.testing.assert_array_equal(np.stack([f.values for f in rows]), sample.values)


def _cdf(f):
    return cdf_rows(f.values[None], f.grid)[0]


def _quantile(f, tgrid):
    return quantile_rows(_cdf(f)[None], f.grid, tgrid)[0]


class TestConversions:
    def test_uniform_cdf_is_identity(self, unit512):
        f = DensitySample(normalize_rows(np.ones(512)[None], unit512, floor=0.0), unit512)[0]
        F = _cdf(f)
        np.testing.assert_allclose(F, unit512.points, atol=1e-12)
        assert F[0] == 0.0 and F[-1] == 1.0

    def test_linear_density_cdf(self, unit512):
        # analytic F(x) = x^2
        f = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        assert np.interp(0.5, unit512.points, _cdf(f)) == pytest.approx(0.25, abs=1e-4)

    def test_wide_support_cdf(self):
        g = Grid(0.0, 2.0, 512)
        f = DensitySample(normalize_rows(np.full(512, 0.5)[None], g, floor=0.0), g)[0]
        assert np.interp(1.0, g.points, _cdf(f)) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_identity(self, unit512):
        f = DensitySample(normalize_rows(np.ones(512)[None], unit512, floor=0.0), unit512)[0]
        q = _quantile(f, unit_grid(512))
        np.testing.assert_allclose(q, unit_grid(512).points, atol=1e-12)

    def test_quantile_of_square_cdf(self, unit512):
        # F(x) = x^2 inverts to Q(t) = sqrt(t)
        f = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        q = _quantile(f, unit_grid(512))
        assert np.interp(0.25, unit_grid(512).points, q) == pytest.approx(0.5, abs=1e-3)

    def test_quantile_symmetry(self):
        g = Grid(0.0, 2.0, 512)
        f = DensitySample(normalize_rows(np.full(512, 0.5)[None], g, floor=0.0), g)[0]
        q = _quantile(f, unit_grid(512))
        assert np.interp(0.5, unit_grid(512).points, q) == pytest.approx(1.0, abs=1e-9)
        assert q[0] == 0.0 and q[-1] == 2.0

    def test_flat_span_not_invertible(self):
        g = Grid(0.0, 1.0, 11)
        vals = np.linspace(0, 1, 11)
        vals[4] = vals[5] = vals[6] = 0.5  # flat span of two cells
        vals.sort()
        with pytest.raises(NotInvertibleError):
            quantile_rows(vals[None], g, unit_grid(11))

    def test_roundtrip_error_halves_with_resolution(self, rng):
        errors = []
        for m in (256, 512):
            g = Grid(0.0, 1.0, m)
            f = DensitySample(normalize_rows(np.exp(np.sin(2 * np.pi * g.points))[None], g, 1e-6), g)[0]
            q = _quantile(f, unit_grid(m))
            # reconstruct f(Q(t)) = 1/q'(t) by central differences
            qd = np.gradient(q, unit_grid(m).spacing)
            recon = 1.0 / qd
            truth = np.interp(q, g.points, f.values)
            errors.append(np.abs(recon[5:-5] - truth[5:-5]).max())
        assert errors[1] < 0.65 * errors[0]


class TestMetrics:
    def test_identity_of_indiscernibles(self, unit512, rng):
        f = smooth_density(rng, unit512)
        assert l2_distance(f, f) == 0.0
        assert dist_wasserstein(f, f) == 0.0

    def test_l2_analytic(self, unit512):
        f = DensitySample(normalize_rows(np.ones(512)[None], unit512, floor=0.0), unit512)[0]
        g = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        assert l2_distance(f, g) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-3)

    def test_wasserstein_analytic(self, unit512):
        # oracle: int_0^1 (t - sqrt(t))^2 dt = 1/30
        f = DensitySample(normalize_rows(np.ones(512)[None], unit512, floor=0.0), unit512)[0]
        g = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        assert dist_wasserstein(f, g) == pytest.approx(np.sqrt(1.0 / 30.0), abs=1e-3)

    def test_wasserstein_rejects_resolution_mismatch(self, unit512):
        f = DensitySample(normalize_rows(np.ones(512)[None], unit512, floor=0.0), unit512)[0]
        coarse = Grid(0.0, 1.0, 256)
        g = DensitySample(normalize_rows(np.ones(256)[None], coarse, floor=0.0), coarse)[0]
        with pytest.raises(GridMismatchError):
            dist_wasserstein(f, g)

    @pytest.mark.parametrize("m", [3, 64, 512])
    def test_wasserstein_of_the_stacked_pair(self, rng, m):
        # reference: each quantile function inverted on its own, as one-row arrays
        grid, tgrid = Grid(-2.0, 3.0, m), unit_grid(m)
        for _ in range(10):
            f, g = smooth_density(rng, grid, amplitude=1.0), smooth_density(rng, grid, amplitude=1.0)
            qf, qg = (quantile_rows(cdf_rows(h.values[None], grid), grid, tgrid) for h in (f, g))
            want = float(np.sqrt(np.maximum(integrate_rows((qf - qg) ** 2, tgrid), 0.0)[0]))
            assert dist_wasserstein(f, g) == want

    def test_support_mismatch(self):
        f = DensitySample(normalize_rows(np.ones(128)[None], Grid(0.0, 1.0, 128)), Grid(0.0, 1.0, 128))[0]
        g = DensitySample(normalize_rows(np.ones(128)[None], Grid(0.0, 2.0, 128)), Grid(0.0, 2.0, 128))[0]
        with pytest.raises(SupportMismatchError):
            dist_wasserstein(f, g)

    def test_metric_axioms_on_random_triples(self, unit512, rng):
        for _ in range(20):
            f, g, h = (smooth_density(rng, unit512) for _ in range(3))
            for dist in (l2_distance, dist_wasserstein):
                dfg, dgh, dfh = dist(f, g), dist(g, h), dist(f, h)
                assert dfg >= 0.0
                assert dfg == pytest.approx(dist(g, f), abs=1e-12)
                assert dfh <= dfg + dgh + 1e-9

    def test_sup_dominates_l2_on_unit_support(self, unit512, rng):
        for _ in range(20):
            f, g = smooth_density(rng, unit512), smooth_density(rng, unit512)
            assert np.abs(f.values - g.values).max() >= l2_distance(f, g) - 1e-12

    def test_wasserstein_affine_equivariance(self, rng):
        m = 512
        f01 = smooth_density(rng, Grid(0.0, 1.0, m))
        g01 = smooth_density(rng, Grid(0.0, 1.0, m))
        base = dist_wasserstein(f01, g01)
        for lo, hi in [(-3.0, 3.0), (2.0, 2.5)]:
            fa = DensityFn(Grid(lo, hi, m), f01.values / (hi - lo))
            ga = DensityFn(Grid(lo, hi, m), g01.values / (hi - lo))
            assert dist_wasserstein(fa, ga) == pytest.approx((hi - lo) * base, abs=1e-6)


class TestSupportMapping:
    def test_unit_roundtrip(self, rng):
        # the transforms map a native support affinely onto [0, 1] and back
        g = Grid(-5.0, 5.0, 512)
        f = smooth_density(rng, g)
        unit = DensityFn(unit_grid(512), f.values * g.width)
        for spec in (LQD, log_hazard_spec(0.1)):
            tgrid, x = forward_rows(f.values[None], g, spec)
            np.testing.assert_array_equal(x, forward_rows(unit.values[None], unit.grid, spec)[1])
            back = inverse_rows(x, tgrid, spec, (g.lo, g.hi))
            np.testing.assert_allclose(back * g.width, inverse_rows(x, tgrid, spec, (0.0, 1.0)), rtol=1e-12)


class TestCumulativeIntegral:
    @pytest.mark.parametrize("shape", [(1, 3), (7, 64), (200, 1024)])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
    def test_matches_scipy(self, rng, shape, scale):
        # the same arithmetic as SciPy's cumulative_trapezoid, so the same bits
        for lo, hi in [(0.0, 1.0), (-5.0, 5.0), (0.0, 0.3)]:
            values = rng.random(shape) * scale
            grid = Grid(lo, hi, shape[1])
            want = cumulative_trapezoid(values, dx=grid.spacing, initial=0.0, axis=-1)
            np.testing.assert_array_equal(cumulative_integral(values, grid), want)


def _scipy_pchip_loop(x, y, t):
    """Per-row reference for pchip_rows: one SciPy interpolant per row."""
    y = np.broadcast_to(y, x.shape)
    return np.array([PchipInterpolator(xi, yi)(t) for xi, yi in zip(x, y)])


def _interp_quantile_loop(cdf, grid, tgrid):
    """Per-row reference for quantile_rows: np.interp over each row's distinct
    levels, keeping the first grid point of a repeated level."""
    q = np.empty((cdf.shape[0], tgrid.m))
    for i, row in enumerate(cdf):
        levels, first = np.unique(row, return_index=True)
        q[i] = np.interp(tgrid.points, levels, grid.points[first])
    q[:, 0], q[:, -1] = grid.lo, grid.hi
    return q


class TestQuantileRows:
    def test_matches_per_row_interp(self, rng):
        for m, mt in ((512, 512), (256, 1024), (3, 7), (97, 3)):
            grid = Grid(-2.0, 3.0, m)
            cdf = cdf_rows(normalize_rows(np.exp(2 * rng.normal(size=(6, m))), grid), grid)
            got = quantile_rows(cdf, grid, unit_grid(mt))
            np.testing.assert_allclose(got, _interp_quantile_loop(cdf, grid, unit_grid(mt)), rtol=0, atol=1e-15)

    def test_one_cell_ties_take_the_left_endpoint(self):
        grid = Grid(0.0, 1.0, 11)
        cdf = np.tile(np.linspace(0.0, 1.0, 11), (3, 1))
        cdf[0, 5] = cdf[0, 4]  # tie inside
        cdf[1, 1] = cdf[1, 0]  # tie at the bottom
        cdf[2, 9] = cdf[2, 10]  # tie at the top
        tgrid = unit_grid(41)
        got = quantile_rows(cdf, grid, tgrid)
        np.testing.assert_allclose(got, _interp_quantile_loop(cdf, grid, tgrid), rtol=0, atol=1e-15)
        assert got[0, np.searchsorted(tgrid.points, cdf[0, 4])] == grid.points[4]

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            quantile_rows(np.array([[0.0, 0.5, 0.4, 0.8, 1.0]]), Grid(0.0, 1.0, 5), unit_grid(5))


class TestPchipRows:
    X = np.arange(7.0)

    def test_interior_sign_change_and_zero_slope(self):
        y = np.array([
            [0.0, 1.0, 0.0, 2.0, 2.0, 2.0, 3.0],  # extrema and a flat run
            [0.0, 1.0, 3.0, 3.0, 1.0, -1.0, -4.0],
        ])
        t = np.linspace(-0.5, 6.5, 57)
        x = np.tile(self.X, (2, 1))
        np.testing.assert_allclose(pchip_rows(x, y, t), _scipy_pchip_loop(x, y, t), rtol=1e-15, atol=1e-15)
        # knot derivatives are 0 at the extrema and on the flat run, so the
        # interpolant neither overshoots the peak nor leaves the run
        near_peak = pchip_rows(x[:1], y[:1], np.array([0.9, 1.0, 1.1]))[0]
        assert near_peak.max() == 1.0
        np.testing.assert_array_equal(pchip_rows(x[:1], y[:1], np.linspace(3.0, 5.0, 9)), 2.0)

    def test_end_rule_branches(self):
        x = np.tile(np.array([0.0, 1.0, 2.0, 3.0]), (3, 1))
        y = np.array([
            [0.0, 0.1, 1.1, 2.0],  # three-point estimate of the wrong sign -> 0
            [0.0, 1.0, -9.0, -9.5],  # end slopes differ in sign -> clamped to 3 * m0
            [0.0, 1.0, 2.5, 4.5],  # plain three-point estimate
        ])
        left = [PchipInterpolator(xi, yi).derivative()(0.0) for xi, yi in zip(x, y)]
        assert left[0] == 0.0 and left[1] == pytest.approx(3.0) and left[2] == pytest.approx(0.75)
        t = np.linspace(-1.0, 4.0, 51)
        np.testing.assert_allclose(pchip_rows(x, y, t), _scipy_pchip_loop(x, y, t), rtol=1e-15, atol=1e-15)
        # the right end takes the same rule, mirrored
        np.testing.assert_allclose(
            pchip_rows(x, -y[:, ::-1], t), _scipy_pchip_loop(x, -y[:, ::-1], t), rtol=1e-15, atol=1e-15
        )

    def test_points_on_knots_and_ends(self, rng):
        x = np.cumsum(rng.uniform(0.1, 1.0, size=(3, 9)), axis=1)
        y = np.cumsum(rng.uniform(0.0, 1.0, size=(3, 9)), axis=1)
        t = np.sort(np.concatenate([x[0], [x.min(), x.max()]]))
        got = pchip_rows(x, y, t)
        np.testing.assert_array_equal(got[0, 1:-1], y[0])
        np.testing.assert_allclose(got, _scipy_pchip_loop(x, y, t), rtol=1e-15, atol=1e-15)

    def test_shared_values_row_and_validation(self, rng):
        x = np.cumsum(rng.uniform(0.1, 1.0, size=(4, 20)), axis=1)
        y = np.sin(np.arange(20.0))
        t = np.linspace(0.0, 12.0, 33)
        np.testing.assert_allclose(pchip_rows(x, y, t), _scipy_pchip_loop(x, y, t), rtol=1e-15, atol=1e-15)
        with pytest.raises(ValueError):
            pchip_rows(np.array([[0.0, 1.0, 1.0, 2.0]]), np.arange(4.0), t)
        with pytest.raises(ValueError):
            pchip_rows(x, y, t[::-1])

    def test_mixed_batch_takes_linear_fallback(self, rng):
        grid = Grid(-1.0, 2.0, 64)
        cdf = cdf_rows(normalize_rows(np.exp(rng.normal(size=(4, 64))), grid), grid)
        cdf[2, 31] = cdf[2, 30]  # one flat step: no cubic inverse
        tgrid = unit_grid(80)
        expect = np.empty((4, tgrid.m))
        for i, row in enumerate(cdf):
            if np.all(np.diff(row) > 0):
                expect[i] = PchipInterpolator(row, grid.points)(tgrid.points)
            else:
                levels, first = np.unique(row, return_index=True)
                expect[i] = np.interp(tgrid.points, levels, grid.points[first])
        expect[:, 0], expect[:, -1] = grid.lo, grid.hi
        got = _pchip_quantile_rows(cdf, grid, tgrid)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-15)

    def test_matches_scipy_on_random_rows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            st.integers(1, 5), st.integers(3, 512), st.integers(0, 2**32 - 1), st.booleans()
        )
        def check(n, m, seed, monotone):
            gen = np.random.default_rng(seed)
            x = np.cumsum(gen.uniform(1e-3, 1.0, size=(n, m)), axis=1) - gen.normal()
            step = gen.normal(size=(n, m))
            y = np.cumsum(np.abs(step), axis=1) if monotone else np.round(step)
            t = np.sort(gen.uniform(x.min() - 1.0, x.max() + 1.0, size=int(gen.integers(1, 300))))
            ref = _scipy_pchip_loop(x, y, t)
            scale = max(1.0, np.abs(ref).max())
            np.testing.assert_allclose(pchip_rows(x, y, t), ref, rtol=1e-14, atol=1e-14 * scale)

        check()
