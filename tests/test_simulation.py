import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from densfda import (
    BadBandwidthError,
    DegenerateSigmaError,
    DensfdaError,
    Grid,
    Metric,
    SettingSpec,
    TransformMethod,
    default_methods,
    dist_wasserstein,
    gen_setting,
    run_comparison,
    truncated_normal_rows,
)
from densfda.density import integrate_rows


class TestTruncatedNormal:
    def test_standard_normal_center_value(self):
        grid = Grid(-3.0, 3.0, 512)
        f = truncated_normal_rows([0.0], [1.0], grid, floor=1e-6)[0]
        center = np.interp(0.0, grid.points, f)
        expect = norm.pdf(0.0) / (norm.cdf(3.0) - norm.cdf(-3.0))
        assert center == pytest.approx(expect, abs=1e-4)

    def test_symmetric(self):
        grid = Grid(-3.0, 3.0, 513)
        f = truncated_normal_rows([0.0], [1.0], grid, floor=1e-6)[0]
        np.testing.assert_allclose(f, f[::-1], rtol=1e-10)

    def test_unit_integral(self):
        grid = Grid(-5.0, 5.0, 512)
        f = truncated_normal_rows([1.3], [0.4], grid, floor=1e-3)[0]
        assert integrate_rows(f, grid) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_sigma(self):
        with pytest.raises(DegenerateSigmaError):
            truncated_normal_rows([0.0], [0.0], Grid(-3.0, 3.0, 128))


class TestGenSetting:
    def test_deterministic(self):
        spec = SettingSpec(setting=3, n=10, seed=42)
        a = gen_setting(spec)
        b = gen_setting(spec)
        for fa, fb in zip(a.densities, b.densities):
            np.testing.assert_array_equal(fa.values, fb.values)

    def test_setting1_modes_at_zero(self):
        gen = gen_setting(SettingSpec(setting=1, n=20, seed=7))
        mid = gen.densities[0].grid.m // 2
        for f in gen.densities:
            assert abs(f.values.argmax() - mid) <= 1

    def test_setting2_mode_locations_centered(self):
        # argmax locations average near 0 because the shifts are U(-3, 3)
        gen = gen_setting(SettingSpec(setting=2, n=500, seed=11, m=256))
        grid = gen.densities[0].grid
        locs = [grid.points[f.values.argmax()] for f in gen.densities]
        assert abs(np.mean(locs)) <= 0.15

    def test_sampled_returns_raw_draws(self):
        spec = SettingSpec(setting=2, n=5, seed=3, observed="sampled", n_obs=50)
        gen = gen_setting(spec)
        assert gen.raw_samples is not None and len(gen.raw_samples) == 5
        assert gen.raw_samples.shape == (5, 50)
        for w, f in zip(gen.raw_samples, gen.densities):
            assert w.shape == (50,)
            assert w.min() >= -5.0 and w.max() <= 5.0
            assert integrate_rows(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)

    def test_sampled_draws_match_parameters(self):
        spec = SettingSpec(setting=2, n=80, seed=19, observed="sampled", n_obs=200)
        gen = gen_setting(spec)
        sample_means = np.array([w.mean() for w in gen.raw_samples])
        # truncation barely moves the mean for |mu| <= 3 on [-5, 5]
        assert np.corrcoef(sample_means, gen.mus)[0, 1] > 0.99

    @pytest.mark.parametrize("bandwidth", [10.0, 5.0, 0.0, -0.2, float("nan")])
    def test_sampled_bandwidth_checked(self, bandwidth):
        # setting 2 lives on [-5, 5]: a bandwidth of 5 is one half of the support
        with pytest.raises(BadBandwidthError, match="bandwidth must be in"):
            SettingSpec(setting=2, observed="sampled", bandwidth=bandwidth)
        assert SettingSpec(setting=2, bandwidth=bandwidth).observed == "full"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"setting": 4},
            {"setting": 1, "n": 1},
            {"setting": 1, "observed": "nope"},
            {"setting": 1, "observed": "sampled", "n_obs": 5},
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            SettingSpec(**kwargs)


class _RecordingRng:
    """A seeded Generator that records the size and the result of every
    ``random`` call and passes everything else through."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.random_calls = []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None):
        out = self._rng.random(size)
        self.random_calls.append((size, out))
        return out


def _sampled(setting):
    """A sampled setting, its uniforms and the parameters of its rows."""
    spec = SettingSpec(setting=setting, n=50, observed="sampled", n_obs=200, seed=17, m=128)
    rng = _RecordingRng(spec.seed)
    gen = gen_setting(spec, rng)
    [(size, u)] = rng.random_calls
    assert size == (spec.n, spec.n_obs)
    return spec, gen, u, gen.mus[:, None], gen.sigmas[:, None]


class TestSampler:
    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_one_uniform_per_draw_inside_the_support(self, setting):
        spec, gen, u, _, _ = _sampled(setting)
        lo, hi = spec.support
        assert gen.raw_samples.shape == u.shape
        assert lo <= gen.raw_samples.min() and gen.raw_samples.max() <= hi

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_inverts_the_truncated_cdf(self, setting):
        # where the density is at least 1e-3 of its peak (at mu), the draw's
        # normal CDF is the probability its uniform was mapped to
        spec, gen, u, mu, sigma = _sampled(setting)
        lo, hi = spec.support
        below, above = ndtr((lo - mu) / sigma), ndtr((hi - mu) / sigma)
        z = (gen.raw_samples - mu) / sigma
        high = z * z <= 2.0 * np.log(1e3)
        assert high.mean() > 0.9
        np.testing.assert_allclose(ndtr(z)[high], (below + u * (above - below))[high], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_matches_a_tabulated_inverse_cdf(self, setting):
        # the exact CDF on 4,096 nodes, inverted by linear interpolation: the
        # tabulated and the exact draw share a cell of width d, where the
        # chord misses the CDF by at most d²/8 max|f'|, so they differ by at
        # most d²/8 max|f'| / min f.  On a cell |f'|/f = |x - mu|/sigma² <= L
        # and max f / min f <= exp(d L), with L = max|x - mu| / sigma² over
        # the support: the bound is d²/8 L exp(d L), per row
        spec, gen, u, mu, sigma = _sampled(setting)
        lo, hi = spec.support
        nodes = np.linspace(lo, hi, 4096)
        d = nodes[1] - nodes[0]
        cdf = ndtr((nodes - mu) / sigma)
        cdf = (cdf - cdf[:, :1]) / (cdf[:, -1:] - cdf[:, :1])
        tabulated = np.array([np.interp(row, c, nodes) for row, c in zip(u, cdf)])
        L = np.maximum(hi - mu, mu - lo) / sigma**2
        bound = d * d / 8.0 * L * np.exp(d * L)
        assert np.all(np.abs(gen.raw_samples - tabulated) <= bound)


class TestRunComparison:
    @pytest.fixture(scope="class")
    def small_run(self):
        spec = SettingSpec(setting=2, n=20, seed=123, m=256)
        return run_comparison(spec, default_methods(), 2, Metric.L2, reps=4)

    def test_determinism(self, small_run):
        spec = SettingSpec(setting=2, n=20, seed=123, m=256)
        again = run_comparison(spec, default_methods(), 2, Metric.L2, reps=4)
        for label in ("LQD", "FPCA", "HS"):
            np.testing.assert_array_equal(
                np.stack(small_run.fve_curves[label]), np.stack(again.fve_curves[label])
            )

    def test_lqd_fve_nested_in_k(self, small_run):
        for curve in small_run.fve_curves["LQD"]:
            assert curve[1] >= curve[0] - 1e-9

    def test_summary_shape(self, small_run):
        s = small_run.summary()
        assert set(s["fve"]) == {"LQD", "FPCA", "HS"}
        assert len(s["fve"]["LQD"]["values"]) == 4
        assert "wasserstein" in s["mean_distance_to_target"]
        assert s["failures"] == []

    def test_summary_inverts_each_row_once(self, small_run, monkeypatch):
        import densfda.density as density
        import densfda.simulation as sim

        inverted = []
        original = density.quantile_rows

        def counting(cdf, grid, tgrid):
            inverted.append(len(cdf))
            return original(cdf, grid, tgrid)

        monkeypatch.setattr(density, "quantile_rows", counting)
        summary = small_run.summary()
        # one call: 4 replications x 3 metrics, the 3 aggregated means, the target
        assert inverted == [4 * 3 + 3 + 1]
        monkeypatch.undo()
        # the values of one dist_wasserstein call per (mean, target) pair
        target = small_run.target
        dist = {}
        for name in sim.MEAN_METRICS:
            dist[name] = [dist_wasserstein(f, target) for f in small_run.mean_densities[name]]
            assert summary["mean_distance_to_target"][name] == {
                "per_replication_median": float(np.median(dist[name])),
                "aggregated": dist_wasserstein(small_run.aggregated_mean(name), target),
            }
            np.testing.assert_array_equal(small_run.distances_to_target(name), dist[name])
        wins = np.mean(np.array(dist["wasserstein"]) < np.array(dist["l2"]))
        assert summary["wasserstein_beats_cross_sectional"] == wins

    def test_golden_replication(self):
        # frozen regression fixture: one replication, fixed seed
        spec = SettingSpec(setting=1, n=15, seed=2024, m=256)
        res = run_comparison(spec, [TransformMethod(blend=0.5)], 1, Metric.L2, reps=1)
        got = res.fve_at_k("LQD")[0]
        assert got == pytest.approx(0.993164736620273, abs=1e-12)

    def test_failures_recorded_not_dropped(self, monkeypatch):
        import densfda.simulation as sim

        original = sim.gen_setting
        calls = {"n": 0}

        def flaky(spec, rng=None):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DensfdaError("boom")
            return original(spec, rng)

        monkeypatch.setattr(sim, "gen_setting", flaky)
        spec = SettingSpec(setting=1, n=10, seed=5, m=128)
        res = sim.run_comparison(spec, [TransformMethod(blend=0.5)], 1, Metric.L2, reps=3)
        assert len(res.failures) == 1 and res.failures[0][0] == 1
        assert res.fve_curves["LQD"][1] is None
        values = res.fve_at_k("LQD")
        assert np.isnan(values[1]) and not np.isnan(values[0])

    def test_a_bug_propagates(self, monkeypatch):
        # only a DensfdaError is a failed replication; anything else is a bug
        import densfda.simulation as sim

        def broken(spec, rng=None):
            raise TypeError("bug")

        monkeypatch.setattr(sim, "gen_setting", broken)
        spec = SettingSpec(setting=1, n=10, seed=5, m=128)
        with pytest.raises(TypeError, match="bug"):
            sim.run_comparison(spec, default_methods(), 1, Metric.L2, reps=2)

    def test_summary_when_every_replication_fails(self, monkeypatch):
        import densfda.simulation as sim

        def broken(spec, rng=None):
            raise DensfdaError("boom")

        monkeypatch.setattr(sim, "gen_setting", broken)
        spec = SettingSpec(setting=1, n=10, seed=5, m=128)
        summary = sim.run_comparison(spec, default_methods(), 1, Metric.L2, reps=2).summary()
        assert [r for r, _ in summary["failures"]] == [0, 1]
        assert all("boom" in message for _, message in summary["failures"])
        for name in sim.MEAN_METRICS:
            dist = summary["mean_distance_to_target"][name]
            assert np.isnan(dist["aggregated"]) and np.isnan(dist["per_replication_median"])
        assert np.isnan(summary["fve"]["LQD"]["median"])

    @pytest.mark.parametrize("metric", list(Metric))
    def test_sample_statistics_computed_once(self, monkeypatch, metric):
        import densfda.frechet as frechet
        import densfda.simulation as sim

        means, embedded, samples, karcher = [], [], [], []
        original_mean = frechet.wasserstein_frechet_mean
        original_karcher = frechet.karcher_mean
        original_embed = frechet.Metric.embed_rows
        original_gen = sim.gen_setting

        def counting_mean(sample, floor=frechet.DEFAULT_FLOOR):
            means.append(sample)
            return original_mean(sample, floor)

        def counting_embed(self, values, grid):
            embedded.append((self, values))
            return original_embed(self, values, grid)

        def counting_karcher(data, grid):
            karcher.append(data)
            return original_karcher(data, grid)

        def keeping_gen(spec, rng=None):
            gen = original_gen(spec, rng)
            samples.append(gen.densities.values)
            return gen

        monkeypatch.setattr(frechet, "wasserstein_frechet_mean", counting_mean)
        monkeypatch.setattr(frechet.Metric, "embed_rows", counting_embed)
        monkeypatch.setattr(frechet, "karcher_mean", counting_karcher)
        monkeypatch.setattr(sim, "gen_setting", keeping_gen)
        spec = SettingSpec(setting=2, n=12, seed=9, m=128)
        res = sim.run_comparison(spec, default_methods(), 1, metric, reps=1)
        assert res.failures == []
        # one Wasserstein mean per replication, shared by the FVE and the means
        assert len(means) == 1
        # the sample itself is embedded once, under the FVE metric only
        of_sample = [m for m, values in embedded if np.array_equal(values, samples[0])]
        assert of_sample == [metric]
        # one Karcher mean, shared by the sphere method and the Fisher-Rao mean
        assert len(karcher) == 1

    def test_reps_validated(self):
        with pytest.raises(ValueError):
            run_comparison(SettingSpec(setting=1), [TransformMethod()], 1, Metric.L2, reps=0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected_before_any_replication(self, monkeypatch, k):
        import densfda.simulation as sim

        calls = []
        monkeypatch.setattr(sim, "gen_setting", lambda spec, rng=None: calls.append(spec))
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            sim.run_comparison(SettingSpec(setting=1), [TransformMethod()], k, Metric.L2, reps=2)
        assert calls == []
