import numpy as np
import pytest

from densfda import (
    LQD,
    DensityFn,
    DensitySample,
    Grid,
    RankDeficientWarning,
    SettingSpec,
    cv_mse,
    fit_flr,
    gen_setting,
    predict,
    score_rows,
    truncated_normal_rows,
)
from densfda import fpca
from densfda.transforms import forward_rows

from conftest import stack


@pytest.fixture(scope="module")
def shift_family():
    """Horizontally varying truncated normals with known locations."""
    rng = np.random.default_rng(99)
    grid = Grid(-5.0, 5.0, 256)
    mus = rng.uniform(-2.0, 2.0, 60)
    densities = DensitySample(truncated_normal_rows(mus, np.ones(60), grid, 1e-3), grid)
    return densities, mus


def _project(rows, system):
    """Scores of the rows in a fitted eigensystem, by ``fpca.scores``."""
    return fpca.scores(rows, system.mean, system.eigenfunctions, system.grid)


class TestFitFlr:
    def test_exact_linear_recovery(self, rng):
        scores = rng.normal(size=(40, 2))
        y = 2.0 + 3.0 * scores[:, 0]
        model = fit_flr(scores, y)
        assert model.intercept == pytest.approx(2.0, abs=1e-8)
        assert model.coefficients[0] == pytest.approx(3.0, abs=1e-8)
        assert model.coefficients[1] == pytest.approx(0.0, abs=1e-8)
        assert model.r_squared == pytest.approx(1.0, abs=1e-8)

    def test_null_noise_r2_small(self):
        # under independence, R^2 stays below 0.2 for essentially all seeds
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            scores = rng.normal(size=(65, 1))
            y = rng.normal(size=65)
            hits += fit_flr(scores, y).r_squared < 0.2
        assert hits >= 38  # 0.95 of 40

    def test_permutation_leaves_coefficients(self, rng):
        scores = rng.normal(size=(30, 2))
        y = 1.0 + scores @ np.array([0.5, -1.0]) + 0.1 * rng.normal(size=30)
        model = fit_flr(scores, y)
        perm = rng.permutation(30)
        permuted = fit_flr(scores[perm], y[perm])
        np.testing.assert_allclose(permuted.coefficients, model.coefficients, atol=1e-10)
        assert permuted.r_squared == pytest.approx(model.r_squared, abs=1e-12)

    def test_rank_deficient_drops_trailing(self, rng):
        s1 = rng.normal(size=30)
        scores = np.column_stack([s1, 2.0 * s1])
        y = 1.0 + s1
        with pytest.warns(RankDeficientWarning):
            model = fit_flr(scores, y)
        assert model.k == 1

    def test_needs_enough_subjects(self, rng):
        with pytest.raises(ValueError):
            fit_flr(rng.normal(size=(4, 3)), rng.normal(size=4))

    def test_r2_nondecreasing_in_k(self, shift_family):
        densities, mus = shift_family
        y = mus + 0.05 * np.random.default_rng(1).normal(size=len(mus))
        r2 = []
        rows, grid = score_rows(densities, "lqd")
        for k in (1, 2, 3):
            basis = fpca.fit(rows, grid, k=k)
            r2.append(fit_flr(_project(rows, basis), y).r_squared)
        assert r2[0] <= r2[1] + 1e-12 <= r2[2] + 2e-12


class TestScoreBases:
    def test_sign_flip_invariance(self, shift_family, rng):
        densities, mus = shift_family
        y = mus + 0.05 * rng.normal(size=len(mus))
        rows, grid = score_rows(densities, "fpca")
        basis = fpca.fit(rows, grid, k=2)
        model = fit_flr(_project(rows, basis), y)
        flipped = fpca.fit(rows, grid, k=2)
        flipped.eigenfunctions[1] *= -1.0
        model2 = fit_flr(_project(rows, flipped), y)
        assert model2.coefficients[1] == pytest.approx(-model.coefficients[1], abs=1e-10)
        pred1 = predict(model, _project(rows, basis))
        pred2 = predict(model2, _project(rows, flipped))
        np.testing.assert_allclose(pred1, pred2, atol=1e-10)

    def test_unknown_method_rejected(self, shift_family):
        with pytest.raises(ValueError):
            score_rows(shift_family[0], "pca")

    def test_lqd_rows_kept_read_only(self, shift_family):
        # one transform per sample, which no caller may edit in place
        densities = shift_family[0][:]
        rows, tgrid = score_rows(densities, "lqd")
        assert score_rows(densities, "lqd")[0] is rows
        np.testing.assert_array_equal(rows, forward_rows(densities.values, densities.grid, LQD)[1])
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 0.0


def _first_fold_fit(monkeypatch, densities, y, method, k):
    """The MSE of a 5-fold ``cv_mse`` run and the eigensystem its first fold fits."""
    fit, fits = fpca.fit, []

    def capturing(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fpca, "fit", capturing)
        mse = cv_mse(densities, y, method, k, folds=5, repeats=1, seed=11)
    return mse, fits[0]


def _assert_no_leakage(monkeypatch, densities, y, method, k):
    """Replacing the subjects ``cv_mse`` holds out first (its seeded shuffle
    of repeat 0, split in 5 folds) changes the MSE but leaves the first
    fold's fit bitwise unchanged."""
    mse, system = _first_fold_fit(monkeypatch, densities, y, method, k)
    perm = np.random.default_rng(np.random.SeedSequence(11).spawn(1)[0]).permutation(len(densities))
    corrupted, grid = list(densities), densities[0].grid
    for i in np.array_split(perm, 5)[0]:
        corrupted[i] = DensityFn(grid, truncated_normal_rows([0.0], [3.0], grid, 1e-3)[0])
    mse2, system2 = _first_fold_fit(monkeypatch, stack(corrupted), y, method, k)
    np.testing.assert_array_equal(system2.mean, system.mean)
    np.testing.assert_array_equal(system2.eigenfunctions, system.eigenfunctions)
    assert mse2 != mse


class TestCvMse:
    def test_deterministic(self, shift_family):
        densities, mus = shift_family
        y = mus
        a = cv_mse(densities, y, "lqd", 1, folds=5, repeats=2, seed=7)
        b = cv_mse(densities, y, "lqd", 1, folds=5, repeats=2, seed=7)
        assert a == b

    def test_linear_signal_recovered(self):
        # y exactly linear in the first transform score, low noise: CV error
        # stays within 1.2x the noise floor
        rng0 = np.random.default_rng(99)
        grid = Grid(-5.0, 5.0, 256)
        mus = rng0.uniform(-2.0, 2.0, 100)
        densities = DensitySample(truncated_normal_rows(mus, np.ones(100), grid, 1e-3), grid)
        rng = np.random.default_rng(3)
        rows, tgrid = score_rows(densities, "lqd")
        s1 = _project(rows, fpca.fit(rows, tgrid, k=1))[:, 0]
        noise_sd = 0.1 * s1.std()
        y = 2.0 + 1.5 * s1 + noise_sd * rng.normal(size=len(s1))
        mse = cv_mse(densities, y, "lqd", 1, folds=10, repeats=3, seed=1)
        assert mse <= 1.2 * noise_sd**2

    def test_no_leakage_training_basis_bit_identical(self, shift_family, monkeypatch):
        _assert_no_leakage(monkeypatch, *shift_family, "fpca", 1)

    def test_validation(self, shift_family):
        densities, mus = shift_family
        with pytest.raises(ValueError):
            cv_mse(densities, mus, "lqd", 1, folds=1)
        with pytest.raises(ValueError):
            cv_mse(densities, mus[:-1], "lqd", 1)

    def test_lqd_no_leakage_training_basis_bit_identical(self, shift_family, monkeypatch):
        _assert_no_leakage(monkeypatch, *shift_family, "lqd", 2)

    def test_transforms_each_density_once(self, shift_family, monkeypatch):
        from densfda import regression

        rows = []

        def counting(values, grid, spec):
            rows.append(len(values))
            return forward_rows(values, grid, spec)

        monkeypatch.setattr(regression, "forward_rows", counting)
        densities, mus = shift_family
        densities = densities[:]  # a new sample, whose cache holds no transform yet
        cv_mse(densities, mus, "lqd", 2, folds=5, repeats=3, seed=2)
        assert rows == [len(densities)]

    @pytest.mark.parametrize("method", ["lqd", "fpca"])
    def test_fit_scores_are_projected_scores(self, method):
        # cv_mse regresses on the fit's own scores instead of projecting the
        # training rows again; the two are the same bits
        densities = gen_setting(SettingSpec(setting=3, n=60, m=256, seed=3)).densities
        perm = np.random.default_rng(8).permutation(len(densities))
        for test_idx in np.array_split(perm, 20):
            rows, grid = score_rows(densities[np.setdiff1d(perm, test_idx)], method)
            system = fpca.fit(rows, grid, k=3)
            np.testing.assert_array_equal(system.scores, _project(rows, system))

    @pytest.mark.parametrize("method", ["lqd", "fpca"])
    def test_matches_refit_per_fold(self, shift_family, method):
        """Reference: every fold transforms and refits its subjects from scratch."""
        densities, mus = shift_family
        y = mus + 0.3 * np.random.default_rng(5).normal(size=len(mus))
        sse = 0.0
        for child in np.random.SeedSequence(4).spawn(2):
            perm = np.random.default_rng(child).permutation(len(densities))
            for test_idx in np.array_split(perm, 5):
                train_idx = np.setdiff1d(perm, test_idx)
                train, grid = score_rows(densities[train_idx], method)
                basis = fpca.fit(train, grid, k=2)
                model = fit_flr(_project(train, basis), y[train_idx])
                pred = predict(model, _project(score_rows(densities[test_idx], method)[0], basis))
                sse += float(((y[test_idx] - pred) ** 2).sum())
        ref = sse / (len(densities) * 2)
        assert cv_mse(densities, y, method, 2, folds=5, repeats=2, seed=4) == pytest.approx(
            ref, rel=1e-12
        )
