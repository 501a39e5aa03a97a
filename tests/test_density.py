import numpy as np
import pytest

from densfda import (
    AllZeroError,
    CdfFn,
    DensfdaError,
    DensityFn,
    Grid,
    GridMismatchError,
    NonFiniteError,
    NotInvertibleError,
    SupportMismatchError,
    dist_l2,
    dist_sup,
    dist_wasserstein,
    from_unit_support,
    normalize,
    to_cdf,
    to_quantile,
    to_unit_support,
    unit_grid,
)
from densfda.density import integrate

from conftest import smooth_density


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
        f = normalize(np.full(512, 2.0), unit512, floor=0.0)
        np.testing.assert_array_equal(f.values, np.ones(512))

    def test_clipped_triangle(self, unit512):
        # oracle: integral of max(1 - 2x, 0) over [0, 1] is 1/4, so the
        # positive part rescales by ~4 and the floored part sits near 4e-6
        x = unit512.points
        f = normalize(np.maximum(1.0 - 2.0 * x, 0.0), unit512, floor=1e-6)
        np.testing.assert_allclose(f.values[x < 0.49], 4.0 * (1.0 - 2.0 * x[x < 0.49]), rtol=1e-3)
        assert f.values[x > 0.51].max() < 1e-5
        assert integrate(f.values, unit512) == pytest.approx(1.0, abs=1e-10)

    def test_all_zero_raises(self, unit512):
        with pytest.raises(AllZeroError):
            normalize(np.zeros(512), unit512)

    def test_non_finite_raises(self, unit512):
        raw = np.ones(512)
        raw[5] = np.nan
        with pytest.raises(NonFiniteError):
            normalize(raw, unit512)

    def test_idempotent_exactly(self, unit512, rng):
        f = smooth_density(rng, unit512)
        again = normalize(f.values, unit512, floor=1e-6)
        np.testing.assert_array_equal(again.values, f.values)

    def test_density_requires_positive(self, unit512):
        vals = np.ones(512)
        vals[0] = 0.0
        with pytest.raises(ValueError, match="strictly positive"):
            DensityFn(unit512, vals / integrate(vals, unit512))

    @pytest.mark.parametrize("case", ["shape", "positivity", "mass", "floor-zero"])
    def test_invalid_density_is_a_library_error(self, unit512, case):
        with_zero = np.r_[0.0, np.ones(511)]
        with pytest.raises(DensfdaError):
            if case == "shape":
                DensityFn(unit512, np.ones(511))
            elif case == "positivity":
                DensityFn(unit512, with_zero / integrate(with_zero, unit512))
            elif case == "mass":
                DensityFn(unit512, np.full(512, 2.0))
            else:
                normalize(with_zero, unit512, floor=0.0)

    def test_values_frozen(self, unit512):
        f = normalize(np.ones(512), unit512)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestConversions:
    def test_uniform_cdf_is_identity(self, unit512):
        f = normalize(np.ones(512), unit512, floor=0.0)
        F = to_cdf(f)
        np.testing.assert_allclose(F.values, unit512.points, atol=1e-12)
        assert F.values[0] == 0.0 and F.values[-1] == 1.0

    def test_linear_density_cdf(self, unit512):
        # analytic F(x) = x^2
        f = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        F = to_cdf(f)
        assert np.interp(0.5, unit512.points, F.values) == pytest.approx(0.25, abs=1e-4)

    def test_wide_support_cdf(self):
        g = Grid(0.0, 2.0, 512)
        f = normalize(np.full(512, 0.5), g, floor=0.0)
        F = to_cdf(f)
        assert np.interp(1.0, g.points, F.values) == pytest.approx(0.5, abs=1e-12)

    def test_quantile_identity(self, unit512):
        f = normalize(np.ones(512), unit512, floor=0.0)
        q = to_quantile(to_cdf(f), unit_grid(512))
        np.testing.assert_allclose(q.values, unit_grid(512).points, atol=1e-12)

    def test_quantile_of_square_cdf(self, unit512):
        # F(x) = x^2 inverts to Q(t) = sqrt(t)
        f = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        q = to_quantile(to_cdf(f), unit_grid(512))
        assert np.interp(0.25, q.tgrid.points, q.values) == pytest.approx(0.5, abs=1e-3)

    def test_quantile_symmetry(self):
        g = Grid(0.0, 2.0, 512)
        f = normalize(np.full(512, 0.5), g, floor=0.0)
        q = to_quantile(to_cdf(f), unit_grid(512))
        assert np.interp(0.5, q.tgrid.points, q.values) == pytest.approx(1.0, abs=1e-9)
        assert q.values[0] == 0.0 and q.values[-1] == 2.0

    def test_flat_span_not_invertible(self):
        g = Grid(0.0, 1.0, 11)
        vals = np.linspace(0, 1, 11)
        vals[4] = vals[5] = vals[6] = 0.5  # flat span of two cells
        vals.sort()
        with pytest.raises(NotInvertibleError):
            to_quantile(CdfFn(g, vals), unit_grid(11))

    def test_roundtrip_error_halves_with_resolution(self, rng):
        errors = []
        for m in (256, 512):
            g = Grid(0.0, 1.0, m)
            f = normalize(np.exp(np.sin(2 * np.pi * g.points)), g, 1e-6)
            q = to_quantile(to_cdf(f), unit_grid(m))
            # reconstruct f(Q(t)) = 1/q'(t) by central differences
            qd = np.gradient(q.values, q.tgrid.spacing)
            recon = 1.0 / qd
            truth = np.interp(q.values, g.points, f.values)
            errors.append(np.abs(recon[5:-5] - truth[5:-5]).max())
        assert errors[1] < 0.65 * errors[0]


class TestMetrics:
    def test_identity_of_indiscernibles(self, unit512, rng):
        f = smooth_density(rng, unit512)
        assert dist_l2(f, f) == 0.0
        assert dist_sup(f, f) == 0.0
        assert dist_wasserstein(f, f) == 0.0

    def test_l2_analytic(self, unit512):
        f = normalize(np.ones(512), unit512, floor=0.0)
        g = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        assert dist_l2(f, g) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-3)

    def test_sup_analytic(self, unit512):
        f = normalize(np.ones(512), unit512, floor=0.0)
        g = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        assert dist_sup(f, g) == pytest.approx(1.0, abs=1e-3)

    def test_wasserstein_analytic(self, unit512):
        # oracle: int_0^1 (t - sqrt(t))^2 dt = 1/30
        f = normalize(np.ones(512), unit512, floor=0.0)
        g = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        assert dist_wasserstein(f, g) == pytest.approx(np.sqrt(1.0 / 30.0), abs=1e-3)

    def test_grid_mismatch(self, unit512):
        f = normalize(np.ones(512), unit512)
        g = normalize(np.ones(256), Grid(0.0, 1.0, 256))
        with pytest.raises(GridMismatchError):
            dist_l2(f, g)
        with pytest.raises(GridMismatchError):
            dist_sup(f, g)

    def test_wasserstein_allows_resolution_mismatch(self, unit512):
        f = normalize(np.ones(512), unit512, floor=0.0)
        g = normalize(np.ones(256), Grid(0.0, 1.0, 256), floor=0.0)
        assert dist_wasserstein(f, g) == pytest.approx(0.0, abs=1e-12)

    def test_support_mismatch(self):
        f = normalize(np.ones(128), Grid(0.0, 1.0, 128))
        g = normalize(np.ones(128), Grid(0.0, 2.0, 128))
        with pytest.raises(SupportMismatchError):
            dist_wasserstein(f, g)

    def test_metric_axioms_on_random_triples(self, unit512, rng):
        for _ in range(20):
            f, g, h = (smooth_density(rng, unit512) for _ in range(3))
            for dist in (dist_l2, dist_sup, dist_wasserstein):
                dfg, dgh, dfh = dist(f, g), dist(g, h), dist(f, h)
                assert dfg >= 0.0
                assert dfg == pytest.approx(dist(g, f), abs=1e-12)
                assert dfh <= dfg + dgh + 1e-9

    def test_sup_dominates_l2_on_unit_support(self, unit512, rng):
        for _ in range(20):
            f, g = smooth_density(rng, unit512), smooth_density(rng, unit512)
            assert dist_sup(f, g) >= dist_l2(f, g) - 1e-12

    def test_wasserstein_affine_equivariance(self, rng):
        m = 512
        f01 = smooth_density(rng, Grid(0.0, 1.0, m))
        g01 = smooth_density(rng, Grid(0.0, 1.0, m))
        base = dist_wasserstein(f01, g01)
        for lo, hi in [(-3.0, 3.0), (2.0, 2.5)]:
            fa = from_unit_support(f01, lo, hi)
            ga = from_unit_support(g01, lo, hi)
            assert dist_wasserstein(fa, ga) == pytest.approx((hi - lo) * base, abs=1e-6)


class TestSupportMapping:
    def test_unit_roundtrip(self, rng):
        g = Grid(-5.0, 5.0, 512)
        f = smooth_density(rng, g)
        back = from_unit_support(to_unit_support(f), -5.0, 5.0)
        np.testing.assert_allclose(back.values, f.values, rtol=1e-12)
