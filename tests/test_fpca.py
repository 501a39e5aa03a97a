import numpy as np
import pytest

from densfda import (
    AllZeroError,
    BadArgumentError,
    DensitySample,
    EmptySampleError,
    Grid,
    GridMismatchError,
    KTooLargeError,
    NonFiniteError,
    SettingSpec,
    fit,
    gen_setting,
    mode_of_variation,
    normalize_rows,
    truncate,
)
from densfda.density import integrate_rows
from densfda.fpca import EIGENVALUE_DROP

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


def _thin_svd(data, grid):
    """Reference: eigenvalues, eigenfunctions and scores from the thin SVD
    of the weighted, centred sample (X - mean) sqrt(w) / sqrt(n) = U S V^T.

    The eigenvalues are S^2 and the eigenfunctions the rows of
    V^T / sqrt(w), all min(n, m) of them, nothing dropped; each
    eigenfunction keeps the sign the SVD gives it.
    """
    w = grid.trapezoid_weights()
    sw = np.sqrt(w)
    centered = data - data.mean(axis=0)
    _, s, vt = np.linalg.svd(centered * (sw / np.sqrt(len(data))), full_matrices=False)
    funcs = vt / sw
    return s**2, funcs, centered @ (funcs * w).T


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, bad):
        data = rng.normal(size=(10, 64))
        data[3, 17] = bad
        with pytest.raises(NonFiniteError):
            fit(data, Grid(0.0, 1.0, 64))

    def test_support_width_leaves_component_count(self):
        # densities on a support of width 1e-160 reach 1e160, whose squares overflow
        sample = gen_setting(SettingSpec(setting=3, n=20, m=128, seed=0)).densities
        counts = [
            fit(DensitySample(sample.values * (sample.grid.width / width), Grid(0.0, width, 128))).n_components
            for width in (1.0, 1e-100, 1e-160, 1e-200)
        ]
        assert counts[0] > 0 and counts == [counts[0]] * 4

    def test_overflowing_eigenvalues_rejected(self, rng):
        # a variance near 1e310 has no binary64 value
        with pytest.raises(NonFiniteError):
            fit(1e155 * rng.normal(size=(10, 64)), Grid(0.0, 1.0, 64))


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
        assert type(info.value) is BadArgumentError

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
        np.testing.assert_array_equal(normalize_rows(f.values[None], unit512)[0], f.values)

    def test_signed_function_projected(self, unit512):
        x = unit512.points
        out = normalize_rows((1.0 - 2.0 * x)[None], unit512, floor=1e-6)[0]
        keep = x < 0.49
        np.testing.assert_allclose(out[keep], 4.0 * (1.0 - 2.0 * x[keep]), rtol=1e-3)

    def test_nonpositive_raises(self, unit512):
        with pytest.raises(AllZeroError):
            normalize_rows(-np.ones((1, M)), unit512)


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
    """fit (an eigensolve of the smaller Gram matrix) against its two
    references: a weighted eigensolver of the covariance surface, and the
    thin SVD of the weighted sample, which never squares its condition
    number."""

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

    @pytest.mark.parametrize("m", [64, 3])
    def test_square_sample(self, rng, m):
        # n = m takes the m x m Gram matrix; centering leaves rank n - 1
        grid = Grid(-1.0, 2.0, m)
        data = rng.normal(size=(m, m))
        system = fit(data, grid)
        vals, _, _ = _thin_svd(data, grid)
        assert system.n_components == m - 1
        np.testing.assert_allclose(system.eigenvalues, vals[: m - 1], rtol=1e-10)

    @pytest.mark.parametrize("r, copies, m", [(4, 5, 512), (6, 3, 16), (5, 4, 5)])
    def test_repeated_rows_have_rank_minus_one_components(self, rng, r, copies, m):
        # copies of a row centre to bitwise equal rows, so the Gram matrix
        # has exact rank r; the r-th direction, lost to centering, and the
        # rest come out at the round-off level under the relative rule
        grid = Grid(0.0, 1.0, m)
        data = np.tile(rng.normal(size=(r, m)), (copies, 1))
        system = fit(data, grid)
        assert system.n_components == r - 1
        vals, _, _ = _thin_svd(data, grid)
        np.testing.assert_allclose(system.eigenvalues, vals[: r - 1], rtol=1e-10)

    def test_matches_thin_svd_on_random_shapes(self):
        """Eigenvalues, eigenfunctions, mean and scores against the thin SVD.

        Bounds, with eps the unit round-off, A the weighted centred sample
        and G the Gram matrix fit solves (A A^T for n < m, else A^T A):
        - Forming G perturbs it by at most about m eps |a_i| |a_j| per
          entry, so by m eps tr(G) in norm; a backward-stable eigh adds
          c n eps ||G|| <= c n eps tr(G), c a small constant.  By Weyl,
          each eigenvalue is then off by at most
          E = 4 (n + m) eps tr(G), taking c <= 4 (the largest error
          seen, at n = m = 3, is about E / 4); the SVD reference is off by
          eps sqrt(lam_0 lam_k), below that.  Hence the relative bound
          |lam - ref| / ref <= E / ref, checked for every eigenvalue above
          1e-8 lam_0.
        - By Davis-Kahan, an eigenvector of G turns by at most E over the
          eigengap, gap_k = min |lam_k - lam_j|.  For n < m the
          eigenfunction is A^T u / sqrt(lam_k), which scales the turn by
          at most sqrt(lam_0 / lam_k); so its L2 distance to the
          reference, up to sign, is at most
          E / gap_k * sqrt(lam_0 / lam_k),
          checked where gap_k > 1e-6 lam_0 and lam_k > 1e-8 lam_0.
        - A score is an L2 inner product of a centred row with the
          eigenfunction: off by at most the row's norm times that bound.
        - The mean is the column mean of the data, bit for bit.
        """
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        eps = np.finfo(float).eps

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            st.integers(1, 60), st.integers(3, 128), st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1)
        )
        def check(n, m, decay, seed):
            # a spectrum falling like decay^(2j), with a non-zero mean
            gen = np.random.default_rng(seed)
            grid = Grid(-1.0, 2.0, m)
            r = min(n, m)
            data = 1.0 + (gen.normal(size=(n, r)) * decay ** np.arange(r)) @ gen.normal(size=(r, m))
            system = fit(data, grid)
            vals, funcs, scores = _thin_svd(data, grid)
            np.testing.assert_array_equal(system.mean, data.mean(axis=0))
            shown = int(np.sum(vals > 1e-8 * vals[0]))
            assert system.n_components >= shown
            perturbation = 4.0 * (n + m) * eps * vals.sum()
            got = system.eigenvalues[:shown]
            assert np.all(np.abs(got - vals[:shown]) <= perturbation)
            w = grid.trapezoid_weights()
            norms = np.sqrt((data - data.mean(axis=0)) ** 2 @ w)
            for k in range(shown):
                gap = np.min(np.abs(np.delete(vals, k) - vals[k]))
                if gap <= 1e-6 * vals[0]:
                    continue
                bound = perturbation / gap * np.sqrt(vals[0] / vals[k])
                phi = system.eigenfunctions[k]
                sign = 1.0 if (phi * funcs[k] * w).sum() >= 0 else -1.0
                assert np.sqrt((phi - sign * funcs[k]) ** 2 @ w) <= bound
                assert np.all(np.abs(system.scores[:, k] - sign * scores[:, k]) <= norms * bound)

        check()


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
