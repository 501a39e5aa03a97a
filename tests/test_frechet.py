import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from densfda import (
    DensityFn,
    DensitySample,
    EmptySampleError,
    FittedMethod,
    Grid,
    GridMismatchError,
    KTooLargeError,
    LQD,
    Metric,
    MethodKind,
    SettingSpec,
    SupportMismatchError,
    dist_wasserstein,
    fisher_rao_mean,
    fit,
    frechet_mean,
    frechet_variance,
    fve_curve,
    fve_report,
    gen_setting,
    karcher_mean,
    normalize,
    sqrt_embed,
    square_back,
    truncated_normal_density,
    unit_grid,
    wasserstein_frechet_mean,
)
from densfda.density import cdf_rows, integrate, quantile_rows

from conftest import (
    from_transform,
    l2_distance,
    lqd_rank2_basis,
    smooth_density,
    sup_distance,
    to_transform,
)

M = 512


def lqd_family(coeffs2, grid_m=M, support=(0.0, 1.0)):
    """Densities whose transforms are c_1 rho_1 + c_2 rho_2 (mod constants)."""
    tgrid, rho1, rho2 = lqd_rank2_basis(grid_m)
    coeffs2 = np.atleast_2d(coeffs2)
    out = []
    for c1, c2 in coeffs2:
        out.append(from_transform(tgrid, c1 * rho1 + c2 * rho2, LQD, support))
    return out, (rho1, rho2)


def blend(f, weight):
    """Mixture (1 - weight) * f + weight * uniform on the same support."""
    return DensityFn(f.grid, (1.0 - weight) * f.values + weight / f.grid.width)


class TestWassersteinMean:
    def test_identical_sample(self, rng, unit512):
        f = smooth_density(rng, unit512)
        mean = wasserstein_frechet_mean([f, f])
        assert sup_distance(mean, f) <= 1e-3

    def test_median_of_mirror_pair(self, unit512):
        # Q_+(t) = (sqrt(t) + 1 - sqrt(1-t)) / 2, so the median is 0.5
        f = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        g = normalize(2.0 * (1.0 - unit512.points), unit512, floor=1e-6)
        mean = wasserstein_frechet_mean([f, g])
        q = quantile_rows(cdf_rows(mean.values[None], mean.grid), mean.grid, unit_grid(M))[0]
        assert np.interp(0.5, unit_grid(M).points, q) == pytest.approx(0.5, abs=2e-3)

    def test_beats_cross_sectional_on_shifted_normals(self):
        # location families: quantile averaging recovers the shape, the
        # cross-sectional mean smears it
        spec = SettingSpec(setting=2, n=50, seed=21)
        wins = 0
        for seed in range(5):
            gen = gen_setting(SettingSpec(setting=2, n=50, seed=31 + seed))
            target = truncated_normal_density(0.0, 1.0, gen.densities[0].grid, spec.floor)
            wmean = wasserstein_frechet_mean(gen.densities, spec.floor)
            cmean = frechet_mean(gen.densities, Metric.L2)
            wins += dist_wasserstein(wmean, target) < dist_wasserstein(cmean, target)
        assert wins == 5

    def test_support_mismatch(self, rng):
        f = smooth_density(rng, Grid(0.0, 1.0, M))
        g = smooth_density(rng, Grid(0.0, 2.0, M))
        with pytest.raises(SupportMismatchError):
            wasserstein_frechet_mean([f, g])

    def test_matches_per_density_pchip_reference(self, rng):
        grid = Grid(-1.0, 2.0, 128)
        sample = [smooth_density(rng, grid) for _ in range(5)]
        raw = np.exp(np.cos(grid.points))
        raw[60:62] = 1e-300  # one flat CDF step: that density inverts linearly
        sample.append(normalize(raw, grid, floor=1e-300))
        tgrid = unit_grid(grid.m)
        quantiles = []
        for f in sample:
            cdf = cdf_rows(f.values[None], grid)
            if np.all(np.diff(cdf) > 0):
                q = PchipInterpolator(cdf[0], grid.points)(tgrid.points)
                q[0], q[-1] = grid.lo, grid.hi
            else:
                q = quantile_rows(cdf, grid, tgrid)[0]
            quantiles.append(q)
        cdf = PchipInterpolator(np.mean(quantiles, axis=0), tgrid.points)(grid.points)
        expect = normalize(np.gradient(cdf, grid.spacing, edge_order=2), grid)
        got = wasserstein_frechet_mean(sample)
        np.testing.assert_allclose(got.values, expect.values, rtol=0, atol=1e-13)


class TestDensitySample:
    def test_statistics_computed_once(self, rng, unit512):
        sample = DensitySample([smooth_density(rng, unit512) for _ in range(6)])
        for metric in Metric:
            mean = frechet_mean(sample, metric)
            assert sample.mean(metric) is mean
            assert sample.embedding(metric)[0] is sample.embedding(metric)[0]
            assert sample.variance(metric) == frechet_variance(sample, mean, metric)
        assert sample.karcher_mean() is sample.karcher_mean()
        # the same bits as the Karcher mean of each density embedded on its own
        per_density = square_back(karcher_mean([sqrt_embed(f) for f in sample]))
        np.testing.assert_array_equal(fisher_rao_mean(sample).values, per_density.values)
        with pytest.raises(ValueError):
            sample.values[0, 0] = 1.0

    def test_list_and_sample_give_the_same_fit(self, rng, unit512):
        densities = [smooth_density(rng, unit512) for _ in range(8)]
        shared = DensitySample(densities)
        for method in (MethodKind.lqd(0.5), MethodKind.ordinary_fpca(), MethodKind.hilbert_sphere()):
            for metric in Metric:
                a = fve_curve(densities, method, metric, k_max=3)
                b = fve_curve(shared, method, metric, k_max=3)
                np.testing.assert_array_equal(a.fve, b.fve)
            np.testing.assert_array_equal(
                FittedMethod(densities, method).reconstruct(2),
                FittedMethod(shared, method).reconstruct(2),
            )

    def test_validation(self, rng):
        with pytest.raises(EmptySampleError):
            DensitySample([])
        with pytest.raises(SupportMismatchError):
            DensitySample([smooth_density(rng, Grid(0.0, 1.0, M)), smooth_density(rng, Grid(0.0, 2.0, M))])
        with pytest.raises(GridMismatchError):
            DensitySample([smooth_density(rng, Grid(0.0, 1.0, M)), smooth_density(rng, Grid(0.0, 1.0, 64))])


class TestFrechetMeanDispatch:
    def test_l2_is_cross_sectional(self, unit512):
        f = normalize(np.ones(M), unit512, floor=0.0)
        g = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        mean = frechet_mean([f, g], Metric.L2)
        np.testing.assert_allclose(mean.values, (f.values + g.values) / 2.0, rtol=1e-12)

    def test_singleton_agreement(self, rng, unit512):
        f = smooth_density(rng, unit512)
        assert frechet_mean([f], Metric.L2) is f
        assert frechet_mean([f], Metric.WASSERSTEIN) is f


class TestFrechetVariance:
    def test_identical_sample_zero(self, rng, unit512):
        f = smooth_density(rng, unit512)
        for metric in Metric:
            assert frechet_variance([f, f, f], f, metric) == 0.0

    def test_definition_reevaluation(self, unit512):
        f = normalize(2.0 * unit512.points, unit512, floor=1e-6)
        g = normalize(2.0 * (1.0 - unit512.points), unit512, floor=1e-6)
        mean = wasserstein_frechet_mean([f, g])
        got = frechet_variance([f, g], mean, Metric.WASSERSTEIN)
        expect = 0.5 * (dist_wasserstein(f, mean) ** 2 + dist_wasserstein(g, mean) ** 2)
        assert got == pytest.approx(expect, abs=1e-9)

    def test_matches_pairwise_distances(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(5)]
        for metric in Metric:
            mean = frechet_mean(sample, metric)
            distance = l2_distance if metric is Metric.L2 else dist_wasserstein
            expect = np.mean([distance(f, mean) ** 2 for f in sample])
            assert frechet_variance(sample, mean, metric) == pytest.approx(expect, rel=1e-12)

    def test_wasserstein_mean_on_finer_grid(self, rng):
        grid = Grid(0.0, 1.0, 128)
        sample = [smooth_density(rng, grid) for _ in range(4)]
        mean = smooth_density(rng, Grid(0.0, 1.0, 256))
        expect = np.mean([dist_wasserstein(f, mean) ** 2 for f in sample])
        got = frechet_variance(sample, mean, Metric.WASSERSTEIN)
        assert got == pytest.approx(expect, rel=1e-12)
        with pytest.raises(GridMismatchError):
            frechet_variance(sample, mean, Metric.L2)

    def test_permutation_invariant(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(6)]
        mean = frechet_mean(sample, Metric.L2)
        a = frechet_variance(sample, mean, Metric.L2)
        b = frechet_variance(sample[::-1], mean, Metric.L2)
        assert a == pytest.approx(b, abs=1e-15)


class TestTransformationModes:
    def test_alpha_zero_is_valid_density(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(10)]
        mode = FittedMethod(sample, MethodKind.lqd()).mode(1, 0.0)
        assert integrate(mode.values, unit512) == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_family_reproduced_at_score_alpha(self, rng):
        cs = rng.uniform(-0.8, 0.8, 20)
        sample, _ = lqd_family(np.column_stack([cs, np.zeros_like(cs)]))
        fitted = FittedMethod(sample, MethodKind.lqd())
        tau1 = fitted.system.eigenvalues[0]
        for i in (0, 7, 13):
            alpha = (cs[i] - cs.mean()) / np.sqrt(tau1)
            mode = fitted.mode(1, alpha)
            assert l2_distance(mode, sample[i]) <= 1e-3

    def test_any_alpha_valid_density(self, rng, unit512):
        fitted = FittedMethod([smooth_density(rng, unit512) for _ in range(8)], MethodKind.lqd())
        for alpha in np.linspace(-3, 3, 7):
            mode = fitted.mode(1, alpha)
            assert integrate(mode.values, unit512) == pytest.approx(1.0, abs=1e-10)
            assert mode.values.min() > 0.0


class TestRepresent:
    def test_full_rank_transform_recovery(self, rng):
        cs = np.column_stack([rng.uniform(-0.5, 0.5, 15), rng.uniform(-0.2, 0.2, 15)])
        sample, _ = lqd_family(cs)
        recon = FittedMethod(sample, MethodKind.lqd()).reconstruct(10)
        for f, r in zip(sample, recon):
            assert l2_distance(f, DensityFn(f.grid, r)) <= 1e-3

    def test_lqd_beats_fpca_at_k1_on_shifts(self):
        gen = gen_setting(SettingSpec(setting=2, n=30, seed=9))
        lqd = fve_curve(gen.densities, MethodKind.lqd(0.5), Metric.L2, k_max=1, floor=1e-3)
        fpca = fve_curve(gen.densities, MethodKind.ordinary_fpca(), Metric.L2, k_max=1, floor=1e-3)
        assert lqd.fve[0] > fpca.fve[0]

    def test_singleton_returns_the_density(self, rng, unit512):
        f = smooth_density(rng, unit512)
        cases = (
            (MethodKind.lqd(), 1.0),
            # the log hazard keeps [0, 1 - delta]; its inverse spreads the rest uniformly
            (MethodKind.log_hazard(0.1), 0.9),
            (MethodKind.ordinary_fpca(), 1.0),
            (MethodKind.hilbert_sphere(), 1.0),
        )
        for method, upper in cases:
            fitted = FittedMethod([f], method)
            assert fitted.n_components == 0
            (r,) = fitted.reconstruct(1)
            keep = unit512.points <= upper
            assert np.abs(r - f.values)[keep].max() <= 1e-3

    def test_identical_sample_has_no_components(self, rng, unit512):
        f = smooth_density(rng, unit512)
        for method in (MethodKind.lqd(), MethodKind.log_hazard(0.1),
                       MethodKind.ordinary_fpca(), MethodKind.hilbert_sphere()):
            fitted = FittedMethod([f] * 5, method)
            assert fitted.n_components == 0
            assert fitted.reconstruct(2).shape == (5, M)
            with pytest.raises(KTooLargeError):
                fitted.mode(1, 1.0)

    def test_k_below_one_rejected(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(4)]
        with pytest.raises(ValueError):
            FittedMethod(sample, MethodKind.lqd()).reconstruct(-1)

    def test_outputs_always_valid(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(8)]
        for method in (MethodKind.lqd(), MethodKind.ordinary_fpca(), MethodKind.hilbert_sphere()):
            for r in FittedMethod(sample, method).reconstruct(2):
                assert r.min() > 0.0
                assert integrate(r, unit512) == pytest.approx(1.0, abs=1e-10)


class TestFveCurve:
    def test_rank_one_family_first_component_explains_all(self, rng):
        cs = rng.uniform(-0.8, 0.8, 25)
        sample, _ = lqd_family(np.column_stack([cs, np.zeros_like(cs)]))
        report = fve_curve(sample, MethodKind.lqd(), Metric.L2, k_max=1)
        assert report.fve[0] >= 0.999
        assert report.selected_k == 1 and report.threshold_reached

    def test_transform_fve_nondecreasing(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(12)]
        report = fve_curve(sample, MethodKind.lqd(), Metric.L2, k_max=8)
        assert np.all(np.diff(report.fve) >= -1e-9)

    def test_full_rank_dominates(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(10)]
        report = fve_curve(sample, MethodKind.lqd(), Metric.L2)
        assert report.fve[-1] >= report.fve.max() - 1e-9

    def test_wasserstein_metric_curve(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(8)]
        report = fve_curve(sample, MethodKind.lqd(), Metric.WASSERSTEIN, k_max=3)
        assert report.metric is Metric.WASSERSTEIN
        assert np.all(report.fve <= 1.0 + 1e-12)

    def test_default_k_max_capped(self, rng, unit512):
        sample = [smooth_density(rng, unit512) for _ in range(5)]
        report = fve_curve(sample, MethodKind.lqd(), Metric.L2)
        assert len(report.fve) <= min(len(sample) - 1, 20)


class TestSelectK:
    @pytest.fixture(scope="class")
    def fitted(self):
        gen = gen_setting(SettingSpec(setting=3, n=12, m=128, seed=5))
        return FittedMethod(gen.densities, MethodKind.ordinary_fpca())

    def test_threshold_scan(self, fitted):
        fve = fve_report(fitted, Metric.L2, k_max=4).fve
        assert np.all(np.diff(fve) > 0)
        for k, (below, above) in enumerate(zip(fve[:-1], fve[1:]), start=2):
            report = fve_report(fitted, Metric.L2, k_max=4, p=0.5 * (below + above))
            assert (report.selected_k, report.threshold_reached) == (k, True)
        report = fve_report(fitted, Metric.L2, k_max=4, p=0.5 * (1.0 + fve[-1]))
        assert (report.selected_k, report.threshold_reached) == (4, False)

    def test_matches_brute_force(self, fitted, rng):
        for metric in Metric:
            for p in rng.random(10):
                report = fve_report(fitted, metric, k_max=5, p=p)
                hits = [k for k, v in enumerate(report.fve, start=1) if v > p]
                expect = (hits[0], True) if hits else (len(report.fve), False)
                assert (report.selected_k, report.threshold_reached) == expect

    def test_p_validated(self, fitted):
        for p in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                fve_report(fitted, Metric.L2, k_max=2, p=p)


class TestBlend:
    def test_blend_roundtrip_exact(self, rng, unit512):
        # the blended method's reconstructions, blended again, are the plain
        # method's reconstructions of the blended sample: unblending is exact
        sample = [smooth_density(rng, unit512) for _ in range(6)]
        blended = FittedMethod(sample, MethodKind.lqd(0.4), floor=0.0)
        plain = FittedMethod([blend(f, 0.4) for f in sample], MethodKind.lqd())
        for k in (0, 2, 5):
            for r, want in zip(blended.reconstruct(k), plain.reconstruct(k)):
                again = blend(DensityFn(unit512, r), 0.4).values
                np.testing.assert_allclose(again, want, rtol=0.0, atol=1e-12)
        for f, r in zip(sample, blended.reconstruct(5)):
            assert sup_distance(f, DensityFn(unit512, r)) <= 1e-3

    def test_blend_bounds_transform(self, rng):
        grid = Grid(-5.0, 5.0, M)
        f = truncated_normal_density(2.0, 0.5, grid, floor=1e-6)
        _, raw = to_transform(f, LQD)
        _, blended = to_transform(blend(f, 0.5), LQD)
        assert blended.max() < raw.max()
        assert blended.max() <= np.log(2.0 * f.grid.width) + 1e-9

    def test_blend_only_for_transforms(self):
        with pytest.raises(ValueError):
            MethodKind("fpca", None, 0.3)
