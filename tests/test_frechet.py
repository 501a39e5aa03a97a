import tracemalloc

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from densfda import (
    SIMULATION_FLOOR,
    DensityFn,
    DensitySample,
    EmptySampleError,
    FittedMethod,
    Grid,
    HilbertSphere,
    KTooLargeError,
    LQD,
    LogHazard,
    Metric,
    NonFiniteError,
    OrdinaryFpca,
    SettingSpec,
    TransformMethod,
    cv_mse,
    dist_wasserstein,
    fisher_rao_mean,
    fit,
    frechet_mean,
    frechet_variance,
    fve_report,
    gen_setting,
    karcher_mean,
    method_named,
    mode_of_variation,
    normalize_rows,
    sqrt_embed,
    truncated_normal_rows,
    unit_grid,
    wasserstein_frechet_mean,
)
from densfda import fileio, frechet
from densfda.density import cdf_rows, integrate_rows, quantile_rows, sq_dist_rows

from conftest import (
    from_transform,
    l2_distance,
    lqd_rank2_basis,
    smooth_density,
    stack,
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
    return stack(out), (rho1, rho2)


def blend(f, weight):
    """Mixture (1 - weight) * f + weight * uniform on the same support."""
    return DensityFn(f.grid, (1.0 - weight) * f.values + weight / f.grid.width)


def moved(sample, k):
    """``sample`` on a support 2**k times as wide, its values 2**-k times
    as high; both scalings are exact."""
    g = sample.grid
    return DensitySample(np.ldexp(sample.values, -k), Grid(np.ldexp(g.lo, k), np.ldexp(g.hi, k), g.m))


class TestExtremeSupports:
    @pytest.fixture(scope="class")
    def sample(self):
        return gen_setting(SettingSpec(setting=3, n=20, m=128)).densities

    @staticmethod
    def l2_curve(sample, method):
        return fve_report(FittedMethod(sample, method), Metric.L2, k_max=5).fve

    @pytest.mark.parametrize("k", [-660, -530, 530, 660])
    def test_transform_curve_is_scale_free(self, sample, k):
        # no floor acts, so the L2 FVE of the moved sample has the same bits
        want = self.l2_curve(sample, TransformMethod())
        np.testing.assert_array_equal(self.l2_curve(moved(sample, k), TransformMethod()), want)

    @pytest.mark.parametrize("k", [-660, -530])
    @pytest.mark.parametrize(
        "method", [OrdinaryFpca(), TransformMethod(blend=0.5), HilbertSphere()], ids=["fpca", "lqd-blend", "hs"]
    )
    def test_floored_methods_on_narrow_supports(self, sample, method, k):
        # the absolute floor is all that differs on a narrow support
        got = self.l2_curve(moved(sample, k), method)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, self.l2_curve(sample, method), rtol=0.0, atol=3e-6)

    @pytest.mark.parametrize("k", [-530, 530])
    def test_wasserstein_mean_fails_without_warnings(self, sample, k):
        # its cubic inversion overflows here; the suite turns warnings into errors
        with pytest.raises(NonFiniteError):
            frechet_mean(moved(sample, k), Metric.WASSERSTEIN)


class TestWassersteinMean:
    def test_identical_sample(self, rng, unit512):
        f = smooth_density(rng, unit512)
        mean = wasserstein_frechet_mean(stack([f, f]))
        assert sup_distance(mean[0], f) <= 1e-3

    def test_median_of_mirror_pair(self, unit512):
        # Q_+(t) = (sqrt(t) + 1 - sqrt(1-t)) / 2, so the median is 0.5
        f = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        g = DensitySample(normalize_rows((2.0 * (1.0 - unit512.points))[None], unit512, floor=1e-6), unit512)[0]
        mean = wasserstein_frechet_mean(stack([f, g]))
        q = quantile_rows(cdf_rows(mean.values, mean.grid), mean.grid, unit_grid(M))[0]
        assert np.interp(0.5, unit_grid(M).points, q) == pytest.approx(0.5, abs=2e-3)

    def test_beats_cross_sectional_on_shifted_normals(self):
        # location families: quantile averaging recovers the shape, the
        # cross-sectional mean smears it
        wins = 0
        for seed in range(5):
            gen = gen_setting(SettingSpec(setting=2, n=50, seed=31 + seed))
            grid = gen.densities.grid
            target = DensityFn(grid, truncated_normal_rows([0.0], [1.0], grid, SIMULATION_FLOOR)[0])
            wmean = wasserstein_frechet_mean(gen.densities, SIMULATION_FLOOR)
            cmean = frechet_mean(gen.densities, Metric.L2)
            wins += dist_wasserstein(wmean[0], target) < dist_wasserstein(cmean[0], target)
        assert wins == 5

    def test_matches_per_density_pchip_reference(self, rng):
        grid = Grid(-1.0, 2.0, 128)
        sample = [smooth_density(rng, grid) for _ in range(5)]
        raw = np.exp(np.cos(grid.points))
        raw[60:62] = 1e-300  # one flat CDF step: that density inverts linearly
        sample.append(DensitySample(normalize_rows(raw[None], grid, floor=1e-300), grid)[0])
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
        expect = normalize_rows(np.gradient(cdf, grid.spacing, edge_order=2)[None], grid)
        got = wasserstein_frechet_mean(stack(sample))
        np.testing.assert_allclose(got.values, expect, rtol=0, atol=1e-13)


class TestDensitySample:
    def test_cached_embedding_is_read_only(self, rng, unit512):
        # an edit in place would change every later FVE of the sample
        sample = stack([smooth_density(rng, unit512) for _ in range(4)])
        for metric in Metric:
            fve_report(FittedMethod(sample, OrdinaryFpca()), metric, k_max=1)
            rows, _ = frechet.embedding(sample, metric)
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.0

    def test_statistics_computed_once(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(6)])
        for metric in Metric:
            mean = frechet_mean(sample, metric)
            assert frechet_mean(sample, metric) is mean
            assert frechet.embedding(sample, metric)[0] is frechet.embedding(sample, metric)[0]
            report = fve_report(FittedMethod(sample, OrdinaryFpca()), metric, k_max=1)
            assert report.v_infinity == frechet_variance(sample, metric)
        assert frechet._karcher_mean(sample) is frechet._karcher_mean(sample)
        # the same bits as the Karcher mean of each density embedded on its own
        roots = np.concatenate([sqrt_embed(f.values[None], unit512) for f in sample])
        per_density = normalize_rows(karcher_mean(roots, unit512)[None] ** 2, unit512)[0]
        np.testing.assert_array_equal(fisher_rao_mean(sample)[0].values, per_density)
        # a sub-sample has statistics of its own
        assert frechet_mean(sample[:3], Metric.L2) is not frechet_mean(sample, Metric.L2)
        with pytest.raises(ValueError):
            sample.values[0, 0] = 1.0
        FittedMethod(sample, HilbertSphere())
        with pytest.raises(ValueError):
            frechet._karcher_mean(sample)[0] = 1.0

    def test_method_embeddings_kept_read_only(self, rng, unit512):
        # one embedding per sample and method, which no caller may edit in place
        sample = stack([smooth_density(rng, unit512) for _ in range(5)])
        for name in ("lqd", "fpca", "hs", "loghazard"):
            method = method_named(name)
            rows, grid = frechet.embedding(sample, method)
            assert frechet.embedding(sample, method_named(name))[0] is rows
            assert FittedMethod(sample, method).system.grid == grid
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.0

    def test_validation(self, rng, unit512, tmp_path):
        with pytest.raises(EmptySampleError):
            DensitySample(np.empty((0, M)), unit512)
        # a list of densities is not a sample, not even a list of one
        for n in (1, 4):
            densities = [smooth_density(rng, unit512) for _ in range(n)]
            for call in (
                lambda: FittedMethod(densities, TransformMethod()),
                lambda: frechet_mean(densities, Metric.L2),
                lambda: wasserstein_frechet_mean(densities),
                lambda: fisher_rao_mean(densities),
                lambda: frechet_variance(densities, Metric.L2),
                lambda: fit(densities),
                lambda: cv_mse(densities, np.arange(float(n)), "fpca", k=1, folds=2, repeats=1),
                lambda: fileio.write_density_csv(tmp_path / "d.csv", densities),
            ):
                with pytest.raises(AttributeError):
                    call()
        assert not (tmp_path / "d.csv").exists()


class TestFrechetMeanDispatch:
    def test_l2_is_cross_sectional(self, unit512):
        f = DensitySample(normalize_rows(np.ones(M)[None], unit512, floor=0.0), unit512)[0]
        g = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        mean = frechet_mean(stack([f, g]), Metric.L2)
        np.testing.assert_allclose(mean[0].values, (f.values + g.values) / 2.0, rtol=1e-12)

    def test_singleton_agreement(self, rng, unit512):
        f = smooth_density(rng, unit512)
        for metric in Metric:
            mean = frechet_mean(stack([f]), metric)
            assert mean.grid == f.grid
            np.testing.assert_array_equal(mean[0].values, f.values)


class TestMeansAreSamples:
    def test_one_row_samples_equal_to_references(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(5)])
        l2 = frechet_mean(sample, Metric.L2)
        fisher_rao = fisher_rao_mean(sample)
        roots = sqrt_embed(sample.values, unit512)
        for mean, want in [
            (l2, sample.values.mean(axis=0)),
            (fisher_rao, normalize_rows(karcher_mean(roots, unit512)[None] ** 2, unit512)[0]),
        ]:
            assert isinstance(mean, DensitySample) and len(mean) == 1 and mean.grid == unit512
            assert np.array_equal(mean.values[0], want)
        one = sample[2:3]
        assert wasserstein_frechet_mean(one) is one
        assert frechet_mean(one, Metric.WASSERSTEIN) is one


class TestFrechetVariance:
    def test_identical_sample_zero(self, rng, unit512):
        # one density is its own mean under both metrics
        f = smooth_density(rng, unit512)
        for metric in Metric:
            assert frechet_variance(stack([f]), metric) == 0.0

    def test_definition_reevaluation(self, unit512):
        f = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        g = DensitySample(normalize_rows((2.0 * (1.0 - unit512.points))[None], unit512, floor=1e-6), unit512)[0]
        mean = wasserstein_frechet_mean(stack([f, g]))[0]
        got = frechet_variance(stack([f, g]), Metric.WASSERSTEIN)
        expect = 0.5 * (dist_wasserstein(f, mean) ** 2 + dist_wasserstein(g, mean) ** 2)
        assert got == pytest.approx(expect, abs=1e-9)

    def test_matches_pairwise_distances(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(5)])
        for metric in Metric:
            mean = frechet_mean(sample, metric)[0]
            distance = l2_distance if metric is Metric.L2 else dist_wasserstein
            expect = np.mean([distance(f, mean) ** 2 for f in sample])
            assert frechet_variance(sample, metric) == pytest.approx(expect, rel=1e-12)

    def test_permutation_invariant(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(6)])
        a = frechet_variance(sample, Metric.L2)
        b = frechet_variance(sample[::-1], Metric.L2)
        assert a == pytest.approx(b, abs=1e-15)


def _modes_loop(fitted, ks, alphas):
    """Reference: each mode of variation mapped back on its own, as a one-row array."""
    return np.stack([
        fitted._to_density(mode_of_variation(fitted.system, k, a)[None])[0] for k in ks for a in alphas
    ])


class TestTransformationModes:
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_modes_equal_the_loop(self, setting):
        sample = gen_setting(SettingSpec(setting=setting, n=30, m=256, seed=setting)).densities
        ks, alphas = (1, 2, 3), (-2.0, -0.5, 0.0, 1.0, 2.0)
        for method in (TransformMethod(), TransformMethod(blend=0.5), OrdinaryFpca(),
                       HilbertSphere(), TransformMethod(LogHazard(0.1))):
            fitted = FittedMethod(sample, method, floor=1e-3)
            modes = fitted.modes(ks, alphas)
            assert modes.grid == sample.grid
            np.testing.assert_array_equal(modes.values, _modes_loop(fitted, ks, alphas))
            # k-major: the rows of one component come together
            np.testing.assert_array_equal(modes.values[5:10], fitted.modes([2], alphas).values)

    def test_alpha_zero_is_valid_density(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(10)])
        (mode,) = FittedMethod(sample, TransformMethod()).modes([1], [0.0])
        assert integrate_rows(mode.values, unit512) == pytest.approx(1.0, abs=1e-10)

    def test_rank_one_family_reproduced_at_score_alpha(self, rng):
        cs = rng.uniform(-0.8, 0.8, 20)
        sample, _ = lqd_family(np.column_stack([cs, np.zeros_like(cs)]))
        fitted = FittedMethod(sample, TransformMethod())
        tau1 = fitted.system.eigenvalues[0]
        rows = (0, 7, 13)
        modes = fitted.modes([1], [(cs[i] - cs.mean()) / np.sqrt(tau1) for i in rows])
        for i, mode in zip(rows, modes):
            assert l2_distance(mode, sample[i]) <= 1e-3

    def test_any_alpha_valid_density(self, rng, unit512):
        fitted = FittedMethod(stack([smooth_density(rng, unit512) for _ in range(8)]), TransformMethod())
        for mode in fitted.modes([1], np.linspace(-3, 3, 7)):
            assert integrate_rows(mode.values, unit512) == pytest.approx(1.0, abs=1e-10)
            assert mode.values.min() > 0.0


class TestRepresent:
    def test_full_rank_transform_recovery(self, rng):
        cs = np.column_stack([rng.uniform(-0.5, 0.5, 15), rng.uniform(-0.2, 0.2, 15)])
        sample, _ = lqd_family(cs)
        recon = FittedMethod(sample, TransformMethod()).reconstruct(10)
        for f, r in zip(sample, recon):
            assert l2_distance(f, DensityFn(f.grid, r)) <= 1e-3

    def test_lqd_beats_fpca_at_k1_on_shifts(self):
        gen = gen_setting(SettingSpec(setting=2, n=30, seed=9))
        lqd, fpca = (
            fve_report(FittedMethod(gen.densities, method, floor=1e-3), Metric.L2, k_max=1)
            for method in (TransformMethod(blend=0.5), OrdinaryFpca())
        )
        assert lqd.fve[0] > fpca.fve[0]

    def test_singleton_returns_the_density(self, rng, unit512):
        f = smooth_density(rng, unit512)
        cases = (
            (TransformMethod(), 1.0),
            # the log hazard keeps [0, 1 - delta]; its inverse spreads the rest uniformly
            (TransformMethod(LogHazard(0.1)), 0.9),
            (OrdinaryFpca(), 1.0),
            (HilbertSphere(), 1.0),
        )
        for method, upper in cases:
            fitted = FittedMethod(stack([f]), method)
            assert fitted.n_components == 0
            (r,) = fitted.reconstruct(1)
            keep = unit512.points <= upper
            assert np.abs(r - f.values)[keep].max() <= 1e-3

    def test_identical_sample_has_no_components(self, rng, unit512):
        f = smooth_density(rng, unit512)
        for method in (TransformMethod(), TransformMethod(LogHazard(0.1)),
                       OrdinaryFpca(), HilbertSphere()):
            fitted = FittedMethod(stack([f] * 5), method)
            assert fitted.n_components == 0
            assert fitted.reconstruct(2).shape == (5, M)
            with pytest.raises(KTooLargeError):
                fitted.modes([1], [1.0])

    def test_k_below_one_rejected(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(4)])
        with pytest.raises(ValueError):
            FittedMethod(sample, TransformMethod()).reconstruct(-1)

    def test_outputs_always_valid(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(8)])
        for method in (TransformMethod(), OrdinaryFpca(), HilbertSphere()):
            for r in FittedMethod(sample, method).reconstruct(2):
                assert r.min() > 0.0
                assert integrate_rows(r, unit512) == pytest.approx(1.0, abs=1e-10)


class TestFveCurve:
    @pytest.mark.parametrize("k_max", [0, -3])
    def test_k_max_below_one_rejected(self, rng, unit512, k_max):
        fitted = FittedMethod(stack([smooth_density(rng, unit512) for _ in range(4)]), TransformMethod())
        with pytest.raises(ValueError, match=f"k_max must be >= 1, got {k_max}"):
            fve_report(fitted, Metric.L2, k_max=k_max)

    def test_rank_one_family_first_component_explains_all(self, rng):
        cs = rng.uniform(-0.8, 0.8, 25)
        sample, _ = lqd_family(np.column_stack([cs, np.zeros_like(cs)]))
        report = fve_report(FittedMethod(sample, TransformMethod()), Metric.L2, k_max=1)
        assert report.fve[0] >= 0.999
        assert report.selected_k == 1 and report.threshold_reached

    def test_transform_fve_nondecreasing(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(12)])
        report = fve_report(FittedMethod(sample, TransformMethod()), Metric.L2, k_max=8)
        assert np.all(np.diff(report.fve) >= -1e-9)

    def test_full_rank_dominates(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(10)])
        report = fve_report(FittedMethod(sample, TransformMethod()), Metric.L2)
        assert report.fve[-1] >= report.fve.max() - 1e-9

    def test_wasserstein_metric_curve(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(8)])
        report = fve_report(FittedMethod(sample, TransformMethod()), Metric.WASSERSTEIN, k_max=3)
        assert report.metric is Metric.WASSERSTEIN
        assert np.all(report.fve <= 1.0 + 1e-12)

    def test_default_k_max_capped(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(5)])
        report = fve_report(FittedMethod(sample, TransformMethod()), Metric.L2)
        assert len(report.fve) <= min(len(sample) - 1, 20)


class TestFveReportBlocks:
    """``fve_report`` maps reconstructions back ``BLOCK_ELEMENTS // m`` rows
    at a time; its curve is the one the whole array gives."""

    M = 1024
    ROWS = frechet.BLOCK_ELEMENTS // M  # rows in one block

    @pytest.fixture(scope="class")
    def densities(self):
        return gen_setting(SettingSpec(setting=3, n=5 * self.ROWS // 2, m=self.M, seed=11)).densities

    @staticmethod
    def whole_array_v_k(fitted, metric, k_max=None):
        """Reference: every reconstruction mapped back, embedded and measured at once."""
        sample = fitted.sample
        v_inf = frechet_variance(sample, metric, fitted.floor)
        target, egrid = frechet.embedding(sample, metric)
        k_max = k_max or frechet.default_k_max(fitted.system.eigenvalues, len(sample))
        v_k = np.empty(k_max)
        for k in range(1, k_max + 1):
            recon, _ = metric.embed_rows(fitted.reconstruct(k), fitted.grid)
            v_k[k - 1] = v_inf - float(np.mean(sq_dist_rows(target, recon, egrid)))
        return v_k

    @pytest.mark.parametrize("n", ["one", "below-one-block", "two-and-a-half-blocks"])
    @pytest.mark.parametrize("metric", [Metric.L2, Metric.WASSERSTEIN], ids=["l2", "wasserstein"])
    @pytest.mark.parametrize("method", ["lqd", "fpca", "hs", "loghazard"])
    def test_bitwise_equal_to_whole_array(self, densities, method, metric, n):
        rows = {"one": 1, "below-one-block": self.ROWS // 2, "two-and-a-half-blocks": 5 * self.ROWS // 2}[n]
        sample = densities[:rows]  # a new sample: nothing cached from another case
        fitted = FittedMethod(sample, method_named(method))
        report = fve_report(fitted, metric)
        assert np.array_equal(report.v_k, self.whole_array_v_k(fitted, metric))  # the FVE is v_k / v_infinity

    def test_truncation_is_one_matmul(self):
        # 218-row blocks of the truncation's matmul, in place of the whole
        # product, changed the last bit of V_K at K = 12 and 15 on this
        # sample with OpenBLAS
        sample = gen_setting(SettingSpec(setting=3, n=300, m=300, seed=11)).densities
        fitted = FittedMethod(sample, TransformMethod())
        report = fve_report(fitted, Metric.L2, k_max=15)
        assert np.array_equal(report.v_k, self.whole_array_v_k(fitted, Metric.L2, k_max=15))

    def test_peak_memory_below_four_sample_arrays(self):
        # Alive at once: one K's truncation and the matmul product it is
        # summed from (2 arrays), or the truncation and the temporaries of one
        # row block, about 6 arrays of 64 rows for LQD, so under 1 + 1 arrays
        # of 400 rows.  Mapping back all rows at once held about 8 arrays.
        sample = gen_setting(SettingSpec(setting=3, n=400, m=self.M, seed=2)).densities
        fitted = FittedMethod(sample, TransformMethod())
        tracemalloc.start()
        try:
            fve_report(fitted, Metric.L2, k_max=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * sample.values.nbytes


class TestSelectK:
    @pytest.fixture(scope="class")
    def fitted(self):
        gen = gen_setting(SettingSpec(setting=3, n=12, m=128, seed=5))
        return FittedMethod(gen.densities, OrdinaryFpca())

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


class TestMethods:
    def test_equal_methods_hash_equal(self):
        # methods key the sample cache, so equal ones must find the same entry
        pairs = (
            (TransformMethod(), method_named("lqd")),
            (method_named("lqd", 0.3), TransformMethod()),
            (TransformMethod(LQD, 0.0), TransformMethod()),
            (TransformMethod(LogHazard(0.1)), method_named("loghazard")),
            (TransformMethod(LogHazard(0.2), 0.5), TransformMethod(LogHazard(0.2), 0.5)),
            (OrdinaryFpca(), method_named("fpca")),
            (HilbertSphere(), method_named("hs")),
        )
        for a, b in pairs:
            assert a == b and hash(a) == hash(b)
        distinct = {TransformMethod(), TransformMethod(blend=0.5), TransformMethod(LogHazard(0.1)),
                    OrdinaryFpca(), HilbertSphere(), *(pair[1] for pair in pairs)}
        assert len(distinct) == 6

    def test_labels(self):
        labels = {name: method_named(name).label for name in ("lqd", "fpca", "hs", "loghazard")}
        assert labels == {"lqd": "LQD", "fpca": "FPCA", "hs": "HS", "loghazard": "LH(0.1)"}
        assert method_named("loghazard", 0.25).label == "LH(0.25)"
        assert method_named("lqd", 0.3).label == "LQD"
        assert TransformMethod(blend=0.5).label == "LQD"
        with pytest.raises(ValueError, match="method must be one of"):
            method_named("pca")

    @pytest.mark.parametrize("first, second", [
        (method_named("lqd", 0.3), TransformMethod()),
        (method_named("loghazard", 0.2), TransformMethod(LogHazard(0.2))),
    ], ids=["lqd", "loghazard"])
    def test_equal_methods_share_the_embedding(self, rng, unit512, first, second):
        sample = stack([smooth_density(rng, unit512) for _ in range(4)])
        rows, _ = frechet.embedding(sample, first)
        assert frechet.embedding(sample, second)[0] is rows


class TestBlend:
    def test_blend_roundtrip_exact(self, rng, unit512):
        # the blended method's reconstructions, blended again, are the plain
        # method's reconstructions of the blended sample: unblending is exact
        sample = stack([smooth_density(rng, unit512) for _ in range(6)])
        blended = FittedMethod(sample, TransformMethod(blend=0.4), floor=0.0)
        plain = FittedMethod(stack([blend(f, 0.4) for f in sample]), TransformMethod())
        for k in (0, 2, 5):
            for r, want in zip(blended.reconstruct(k), plain.reconstruct(k)):
                again = blend(DensityFn(unit512, r), 0.4).values
                np.testing.assert_allclose(again, want, rtol=0.0, atol=1e-12)
        for f, r in zip(sample, blended.reconstruct(5)):
            assert sup_distance(f, DensityFn(unit512, r)) <= 1e-3

    def test_blend_bounds_transform(self, rng):
        grid = Grid(-5.0, 5.0, M)
        f = DensityFn(grid, truncated_normal_rows([2.0], [0.5], grid, floor=1e-6)[0])
        _, raw = to_transform(f, LQD)
        _, blended = to_transform(blend(f, 0.5), LQD)
        assert blended.max() < raw.max()
        assert blended.max() <= np.log(2.0 * f.grid.width) + 1e-9

    def test_blend_only_for_transforms(self):
        # ordinary FPCA has no blend to set; a transform's lies in [0, 1)
        with pytest.raises(TypeError):
            OrdinaryFpca(blend=0.3)
        for weight in (-0.1, 1.0):
            with pytest.raises(ValueError, match="blend must be in"):
                TransformMethod(blend=weight)
