import numpy as np
import pytest

from densfda import (
    AllZeroError,
    DensitySample,
    EmptySampleError,
    Grid,
    GridMismatchError,
    KTooLargeError,
    SettingSpec,
    fit,
    gen_setting,
    mode_of_variation,
    normalize_rows,
    truncate,
)
from densfda.density import integrate_rows
from densfda.fpca import EIGENVALUE_DROP, project_rows

from conftest import smooth_density, stack

M = 512


def rank1_sample(grid, coeffs, base=None):
    """X_i = base + c_i * rho with rho unit-norm on the grid."""
    u = (grid.points - grid.lo) / grid.width
    rho = np.sqrt(2.0) * np.sin(np.pi * u) / np.sqrt(grid.width)
    assert integrate_rows(rho * rho, grid) == pytest.approx(1.0, abs=1e-9)
    if base is None:
        base = np.zeros(grid.m)
    return np.stack([base + c * rho for c in coeffs]), rho


def _covariance(data):
    """Reference: the empirical covariance surface (1/n convention)."""
    centered = data - data.mean(axis=0)
    return centered.T @ centered / len(data)


def _eigendecompose(cov, grid):
    """Reference: eigenpairs of a covariance surface by a weighted ``eigh``.

    The surface is weighted with the square roots of the quadrature
    weights, which keeps the eigenproblem symmetric and makes the
    eigenfunctions orthonormal in L2 of the grid; eigenvalues below
    fit's drop rule are dropped.
    """
    sw = np.sqrt(grid.trapezoid_weights())
    vals, vecs = np.linalg.eigh(sw[:, None] * cov * sw[None, :])
    vals, funcs = vals[::-1], vecs.T[::-1] / sw
    keep = vals > EIGENVALUE_DROP * vals[0]
    return vals[keep], funcs[keep]


def _surface(system):
    """The covariance surface spanned by a fitted eigensystem."""
    return (system.eigenfunctions.T * system.eigenvalues) @ system.eigenfunctions


class TestMean:
    def test_mean_of_identical(self, unit512, rng):
        f = smooth_density(rng, unit512)
        mean = fit(stack([f, f])).mean
        np.testing.assert_allclose(mean, f.values, rtol=1e-14)

    def test_mean_is_density(self, unit512):
        f = DensitySample(normalize_rows(np.ones(M)[None], unit512, floor=0.0), unit512)[0]
        g = DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-6), unit512)[0]
        mean = fit(stack([f, g])).mean
        np.testing.assert_allclose(mean, (f.values + g.values) / 2.0)
        assert integrate_rows(mean, unit512) == pytest.approx(1.0, abs=1e-12)

    def test_root_n_convergence(self, unit512, rng):
        base = np.sin(2 * np.pi * unit512.points)
        errors = []
        for n in (64, 256):
            trials = []
            for _ in range(40):
                sample = base + rng.uniform(-1, 1, size=(n, M))
                trials.append(
                    np.sqrt(integrate_rows((fit(sample, unit512).mean - base) ** 2, unit512))
                )
            errors.append(np.mean(trials))
        assert errors[1] == pytest.approx(errors[0] / 2.0, rel=0.25)

    def test_grid_mismatch(self, rng):
        f = smooth_density(rng, Grid(0.0, 1.0, 128))
        with pytest.raises(GridMismatchError):
            fit(np.stack([f.values, f.values]), Grid(0.0, 1.0, 256))


class TestCovariance:
    """The covariance surface that fit's eigensystem spans."""

    def test_identical_sample_zero_surface(self, unit512, rng):
        f = smooth_density(rng, unit512)
        assert np.abs(_surface(fit(stack([f, f, f])))).max() == 0.0

    def test_rank_one_surface(self, unit512, rng):
        coeffs = rng.normal(0.0, 2.0, 40)
        data, rho = rank1_sample(unit512, coeffs)
        s2 = coeffs.var()  # 1/n convention
        np.testing.assert_allclose(_surface(fit(data, unit512)), s2 * np.outer(rho, rho), atol=1e-8)


class TestEigendecompose:
    def test_rank_one_oracle(self, unit512, rng):
        coeffs = rng.normal(0.0, 1.5, 30)
        data, rho = rank1_sample(unit512, coeffs)
        system = fit(data, unit512)
        assert system.eigenvalues[0] == pytest.approx(coeffs.var(), rel=1e-10)
        assert system.n_components == 1  # numerical rank one: the rest is dropped
        np.testing.assert_allclose(np.abs(system.eigenfunctions[0]), rho, atol=1e-6)

    def test_zero_surface(self, unit512):
        system = fit(np.zeros((4, M)), unit512)
        assert system.n_components == 0 and system.eigenfunctions.shape == (0, M)

    def test_density_eigenfunctions_integrate_to_zero(self, rng):
        grid = Grid(-5.0, 5.0, M)
        spec = SettingSpec(setting=3, n=30, seed=11, m=M)
        sample = gen_setting(spec).densities
        system = fit(sample)
        for lam, phi in zip(system.eigenvalues, system.eigenfunctions):
            if lam > 1e-10:
                assert abs(integrate_rows(phi, grid)) <= 1e-8

    def test_orthonormal_and_sorted(self, rng, unit512):
        sample = np.stack([smooth_density(rng, unit512).values for _ in range(12)])
        system = fit(sample, unit512)
        phi = system.eigenfunctions
        gram = (phi * unit512.trapezoid_weights()) @ phi.T
        np.testing.assert_allclose(gram, np.eye(system.n_components), rtol=0.0, atol=1e-8)
        assert np.all(np.diff(system.eigenvalues) <= 0) and np.all(system.eigenvalues >= 0)
        np.testing.assert_allclose(system.scores.mean(axis=0), 0.0, rtol=0.0, atol=1e-8)

    def test_sign_convention(self, rng, unit512):
        sample = np.stack([smooth_density(rng, unit512).values for _ in range(12)])
        for phi in fit(sample, unit512).eigenfunctions:
            assert phi[np.abs(phi).argmax()] > 0


class TestScores:
    def test_mean_member_scores_zero(self, unit512, rng):
        coeffs = np.array([-1.0, 0.0, 1.0])
        data, _ = rank1_sample(unit512, coeffs, base=np.ones(M))
        system = fit(data, unit512)
        np.testing.assert_allclose(system.scores[1], 0.0, atol=1e-10)

    def test_rank_one_score_recovery(self, unit512, rng):
        coeffs = rng.normal(0.0, 1.0, 25)
        data, rho = rank1_sample(unit512, coeffs, base=2.0 + np.cos(np.pi * unit512.points))
        system = fit(data, unit512)
        np.testing.assert_allclose(system.scores[:, 0], coeffs - coeffs.mean(), atol=1e-8)

    def test_scores_centered(self, rng, unit512):
        sample = np.stack([smooth_density(rng, unit512).values for _ in range(9)])
        system = fit(sample, unit512)
        np.testing.assert_allclose(system.scores.sum(0), 0.0, atol=1e-8)


class TestTruncateAndModes:
    @pytest.fixture
    def system(self, rng, unit512):
        sample = np.stack([smooth_density(rng, unit512).values for _ in range(10)])
        return fit(sample, unit512), sample

    def test_full_rank_recovery(self, system, unit512):
        fitted, sample = system
        recon = truncate(fitted, fitted.n_components)
        for row, orig in zip(recon, sample):
            assert np.sqrt(integrate_rows((row - orig) ** 2, unit512)) <= 1e-6

    def test_k_zero_returns_mean(self, system):
        fitted, _ = system
        recon = truncate(fitted, 0)
        np.testing.assert_allclose(recon, np.tile(fitted.mean, (10, 1)))

    def test_error_nonincreasing_in_k(self, system, unit512):
        fitted, sample = system
        prev = None
        for k in range(fitted.n_components + 1):
            recon = truncate(fitted, k)
            errs = np.array([np.sqrt(integrate_rows((r - o) ** 2, unit512)) for r, o in zip(recon, sample)])
            if prev is not None:
                assert np.all(errs <= prev + 1e-12)
            prev = errs

    def test_k_caps_components(self, system, unit512):
        fitted, sample = system
        assert fit(sample, unit512, k=0).n_components == 0
        assert fit(sample, unit512, k=2).n_components == 2
        # a negative k is rejected, not read as a slice from the end
        with pytest.raises(ValueError, match="k must be >= 0"):
            fit(sample, unit512, k=-1)

    def test_k_too_large(self, system):
        fitted, _ = system
        with pytest.raises(KTooLargeError):
            truncate(fitted, fitted.n_components + 1)
        with pytest.raises(KTooLargeError):
            mode_of_variation(fitted, fitted.n_components + 1, 1.0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_mode_below_one_rejected(self, system, k):
        # too small, not too large: the error of a negative k in fit
        fitted, _ = system
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}") as info:
            mode_of_variation(fitted, k, 1.0)
        assert type(info.value) is ValueError

    def test_mode_alpha_zero_is_mean(self, system):
        fitted, _ = system
        np.testing.assert_array_equal(mode_of_variation(fitted, 1, 0.0), fitted.mean)

    def test_modes_symmetric_about_mean(self, system):
        fitted, _ = system
        g_plus = mode_of_variation(fitted, 1, 1.0)
        g_minus = mode_of_variation(fitted, 1, -1.0)
        np.testing.assert_allclose(g_plus + g_minus, 2.0 * fitted.mean, atol=1e-12)

    def test_density_modes_keep_unit_mass(self, rng):
        spec = SettingSpec(setting=2, n=25, seed=3, m=M)
        system = fit(gen_setting(spec).densities)
        grid = Grid(-5.0, 5.0, M)
        for alpha in (-2.0, -0.5, 1.0, 3.0):
            mode = mode_of_variation(system, 1, alpha)
            assert integrate_rows(mode, grid) == pytest.approx(1.0, abs=1e-8)

    def test_ordinary_modes_leave_density_space(self):
        # horizontal-shift data: large |alpha| pushes the mode negative
        spec = SettingSpec(setting=2, n=40, seed=5, m=M)
        system = fit(gen_setting(spec).densities)
        mins = [mode_of_variation(system, 1, a).min() for a in np.linspace(-3, 3, 13)]
        assert min(mins) < 0.0


class TestProjectToDensity:
    def test_idempotent_on_densities(self, rng, unit512):
        f = smooth_density(rng, unit512)
        np.testing.assert_array_equal(project_rows(f.values[None], unit512)[0], f.values)

    def test_signed_function_projected(self, unit512):
        x = unit512.points
        out = project_rows((1.0 - 2.0 * x)[None], unit512, floor=1e-6)[0]
        keep = x < 0.49
        np.testing.assert_allclose(out[keep], 4.0 * (1.0 - 2.0 * x[keep]), rtol=1e-3)

    def test_nonpositive_raises(self, unit512):
        with pytest.raises(AllZeroError):
            project_rows(-np.ones((1, M)), unit512)


class TestIdentities:
    def test_parseval_at_full_rank(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(12)])
        system = fit(sample)
        for f, row in zip(sample, system.scores):
            d2 = integrate_rows((f.values - system.mean) ** 2, unit512)
            assert (row**2).sum() == pytest.approx(d2, rel=1e-6)

    def test_trace_identity(self, rng, unit512):
        sample = stack([smooth_density(rng, unit512) for _ in range(15)])
        system = fit(sample)
        avg_sq = np.mean([integrate_rows((f.values - system.mean) ** 2, unit512) for f in sample])
        assert system.eigenvalues.sum() == pytest.approx(avg_sq, rel=1e-6)


def _separated_sample(rng, grid, n, variances):
    """Mean plus components of the given variances along orthonormal directions."""
    w = grid.trapezoid_weights()
    u = (grid.points - grid.lo) / grid.width
    basis = []
    for j in range(len(variances)):
        phi = np.cos(np.pi * (j + 1) * u) + 0.1 * rng.normal(size=grid.m)
        for prev in basis:
            phi = phi - (phi * prev * w).sum() * prev
        basis.append(phi / np.sqrt((phi * phi * w).sum()))
    coeffs = rng.normal(size=(n, len(variances))) * np.sqrt(variances)
    return 1.0 + u + coeffs @ np.stack(basis)


class TestThinSvdAgainstSurface:
    """fit (thin SVD of the weighted sample) against a weighted eigensolver
    of the covariance surface, the reference path."""

    @pytest.mark.parametrize(
        "n, m, variances",
        [(40, 512, [4.0, 1.0, 0.25]), (2, 512, [1.0]), (6, 3, [4.0, 1.0, 0.25])],
        ids=["n40-m512", "n2", "m3"],
    )
    def test_matches_eigendecompose(self, rng, n, m, variances):
        grid = Grid(-1.0, 2.0, m)
        sample = _separated_sample(rng, grid, n, variances)
        system = fit(sample, grid)
        vals, funcs = _eigendecompose(_covariance(sample), grid)
        assert system.n_components == len(vals)
        np.testing.assert_allclose(system.eigenvalues, vals, rtol=1e-10, atol=0.0)
        for phi, ref in zip(system.eigenfunctions, funcs):
            sign = 1.0 if (phi * ref).sum() >= 0 else -1.0
            np.testing.assert_allclose(sign * phi, ref, rtol=0.0, atol=1e-8)

    def test_round_off_components_dropped(self, rng):
        # rank n - 1 after centering: nothing at the round-off level survives
        grid = Grid(0.0, 1.0, M)
        sample = _separated_sample(rng, grid, 5, [4.0, 2.0, 1.0, 0.5, 0.25, 0.1])
        system = fit(sample, grid)
        assert system.n_components == 4
        np.testing.assert_allclose(system.eigenvalues.sum(), np.mean(
            [integrate_rows((row - system.mean) ** 2, grid) for row in sample]), rtol=1e-12)


class TestFitSingleton:
    def test_one_row_has_no_components(self, rng, unit512):
        row = smooth_density(rng, unit512).values
        system = fit(row[None], unit512)
        assert system.n_components == 0
        np.testing.assert_array_equal(system.mean, row)
        assert system.scores.shape == (1, 0)

    @pytest.mark.parametrize("n, m", [(2, 512), (3, 512), (5, 3), (7, 1024)])
    def test_identical_rows_have_no_components(self, rng, n, m):
        # the mean of identical rows can miss them by an ulp; that round-off
        # falls under the absolute drop rule, whatever the relative one says
        grid = Grid(-1.0, 2.0, m)
        for scale in (1e-150, 1.0, 1e150):
            row = smooth_density(rng, grid).values * scale
            system = fit(np.tile(row, (n, 1)), grid)
            assert system.n_components == 0
            assert system.scores.shape == (n, 0)
            with pytest.raises(KTooLargeError):
                mode_of_variation(system, 1, 1.0)

    def test_empty_array_rejected(self, unit512):
        with pytest.raises(EmptySampleError):
            fit(np.empty((0, M)), unit512)
