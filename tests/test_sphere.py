import numpy as np
import pytest

from densfda import (
    DensityFn,
    DensitySample,
    FittedMethod,
    Grid,
    GridMismatchError,
    MethodKind,
    exp_map,
    fisher_rao_mean,
    karcher_mean,
    log_map,
    normalize_rows,
    sqrt_embed,
    square_back,
    truncate,
)
from densfda.density import integrate_rows

from conftest import l2_distance, smooth_density, stack

M = 512
HS = MethodKind.hilbert_sphere()


def embed(f):
    """The sphere point of one density: its unit-norm square root, an ``(m,)`` row."""
    return sqrt_embed(f.values[None], f.grid)[0]


def embed_all(densities):
    """The sphere points of densities on one grid, an ``(n, m)`` array."""
    grid = densities[0].grid
    return sqrt_embed(np.stack([f.values for f in densities]), grid)


def norm(v, grid):
    return float(np.sqrt(integrate_rows(v * v, grid)))


def geodesic_distance(p, q, grid):
    """Arc length between two sphere points: the norm of the log map."""
    return norm(log_map(p, q[None], grid)[0], grid)


def exp1(base, v, grid):
    """The geodesic from ``base`` along one tangent ``v``, at time 1."""
    return exp_map(base, v[None], grid)[0]


def squared(points, grid):
    """The densities of the rows of ``points`` as a sample."""
    return DensitySample(square_back(points, grid), grid)


class TestEmbedding:
    def test_uniform_embeds_to_one(self, unit512):
        p = embed(DensitySample(normalize_rows(np.ones(M)[None], unit512, floor=0.0), unit512)[0])
        np.testing.assert_allclose(p, 1.0, atol=1e-12)

    def test_roundtrip_exact(self, rng, unit512):
        f = smooth_density(rng, unit512)
        back = squared(embed(f)[None], unit512)[0]
        assert l2_distance(f, back) <= 1e-10

    def test_unit_norm_for_random_densities(self, rng):
        grid = Grid(-2.0, 5.0, 257)
        points = embed_all([smooth_density(rng, grid) for _ in range(100)])
        np.testing.assert_allclose(integrate_rows(points * points, grid), 1.0, rtol=0.0, atol=1e-9)

    def test_norm_validated(self, rng, unit512):
        p = embed(smooth_density(rng, unit512))
        # squared norms off 1 by 2e-9 and by 3
        for off in (p * np.sqrt(1.0 + 2e-9), np.full(M, 2.0)):
            with pytest.raises(ValueError, match="unit L2 norm"):
                log_map(off, p[None], unit512)
            with pytest.raises(ValueError, match="unit L2 norm"):
                exp_map(off, np.zeros((1, M)), unit512)
            with pytest.raises(ValueError, match="unit L2 norm"):
                karcher_mean(np.stack([p, off]), unit512)
        # within 1e-9 of unit norm passes
        near = p * np.sqrt(1.0 + 5e-10)
        assert norm(log_map(near, p[None], unit512)[0], unit512) <= 1e-4


class TestGeodesicDistance:
    def test_zero_at_identity(self, rng, unit512):
        p = embed(smooth_density(rng, unit512))
        assert geodesic_distance(p, p, unit512) == pytest.approx(0.0, abs=1e-7)

    def test_analytic_value(self, unit512):
        # <sqrt(1), sqrt(2x)> = int sqrt(2x) dx = 2 sqrt(2) / 3
        p = embed(DensitySample(normalize_rows(np.ones(M)[None], unit512, floor=0.0), unit512)[0])
        q = embed(DensitySample(normalize_rows((2.0 * unit512.points)[None], unit512, floor=1e-9), unit512)[0])
        assert geodesic_distance(p, q, unit512) == pytest.approx(np.arccos(2.0 * np.sqrt(2.0) / 3.0), abs=1e-3)

    def test_symmetric(self, rng, unit512):
        p = embed(smooth_density(rng, unit512))
        q = embed(smooth_density(rng, unit512))
        assert geodesic_distance(p, q, unit512) == pytest.approx(geodesic_distance(q, p, unit512), abs=1e-14)

    def test_grid_mismatch(self, rng):
        coarse, fine = Grid(0.0, 1.0, 128), Grid(0.0, 1.0, 256)
        p = embed(smooth_density(rng, coarse))
        q = embed(smooth_density(rng, fine))
        with pytest.raises(GridMismatchError):
            geodesic_distance(p, q, coarse)
        with pytest.raises(GridMismatchError):
            geodesic_distance(p, q, fine)
        with pytest.raises(GridMismatchError):
            exp_map(p, np.zeros((1, fine.m)), coarse)


class TestExpLog:
    def test_inversion(self, rng, unit512):
        mu = embed(smooth_density(rng, unit512))
        for _ in range(10):
            p = embed(smooth_density(rng, unit512))
            assert geodesic_distance(mu, p, unit512) < np.pi / 2
            back = exp_map(mu, log_map(mu, p[None], unit512), unit512)[0]
            assert np.abs(back - p).max() <= 1e-9

    def test_exp_moves_at_unit_speed(self, rng, unit512):
        mu = embed(smooth_density(rng, unit512))
        v = log_map(mu, embed(smooth_density(rng, unit512))[None], unit512)[0]
        vhat = v / norm(v, unit512)
        for t in (0.1, 0.5, 1.2):
            q = exp1(mu, t * vhat, unit512)
            assert geodesic_distance(mu, q, unit512) == pytest.approx(t, abs=1e-8)

    def test_log_is_tangent(self, rng, unit512):
        mu = embed(smooth_density(rng, unit512))
        for _ in range(5):
            v = log_map(mu, embed(smooth_density(rng, unit512))[None], unit512)[0]
            assert abs(integrate_rows(v * mu, unit512)) <= 1e-8


class TestKarcherMean:
    def test_fixed_point_of_identical_sample(self, rng, unit512):
        p = embed(smooth_density(rng, unit512))
        mu = karcher_mean(np.stack([p, p]), unit512)
        assert np.abs(mu - p).max() <= 1e-9

    def test_two_point_midpoint(self, rng, unit512):
        p = embed(smooth_density(rng, unit512))
        q = embed(smooth_density(rng, unit512))
        mu = karcher_mean(np.stack([p, q]), unit512)
        assert geodesic_distance(mu, p, unit512) == pytest.approx(geodesic_distance(mu, q, unit512), abs=1e-6)
        # midpoint lies on the connecting geodesic
        assert geodesic_distance(p, q, unit512) == pytest.approx(
            geodesic_distance(mu, p, unit512) + geodesic_distance(mu, q, unit512), abs=1e-9
        )

    def test_gradient_norm_below_tol(self, rng, unit512):
        points = embed_all([smooth_density(rng, unit512) for _ in range(8)])
        mu = karcher_mean(points, unit512)
        grad = log_map(mu, points, unit512).mean(axis=0)
        assert norm(grad, unit512) <= 1e-9

    def test_permutation_invariant(self, rng, unit512):
        points = embed_all([smooth_density(rng, unit512) for _ in range(6)])
        mu1 = karcher_mean(points, unit512)
        mu2 = karcher_mean(points[::-1], unit512)
        assert np.abs(mu1 - mu2).max() <= 1e-8

    def test_matches_brute_force_on_pair(self, rng, unit512):
        p = embed(smooth_density(rng, unit512))
        q = embed(smooth_density(rng, unit512))
        mu = karcher_mean(np.stack([p, q]), unit512)
        # brute force along the connecting geodesic
        v = log_map(p, q[None], unit512)[0]
        ts = np.linspace(0.0, 1.0, 2001)
        best_t, best = None, np.inf
        for t in ts:
            cand = exp1(p, t * v, unit512)
            obj = geodesic_distance(cand, p, unit512) ** 2 + geodesic_distance(cand, q, unit512) ** 2
            if obj < best:
                best, best_t = obj, t
        brute = exp1(p, best_t * v, unit512)
        assert np.abs(mu - brute).max() <= 1e-3

    def test_grid_mismatch_rejected(self, rng, unit512):
        data = embed_all([smooth_density(rng, unit512) for _ in range(2)])
        with pytest.raises(GridMismatchError):
            karcher_mean(data, Grid(0.0, 1.0, 64))


class TestPga:
    def test_identical_sample_no_components(self, rng, unit512):
        f = smooth_density(rng, unit512)
        assert FittedMethod(stack([f, f, f]), HS).n_components == 0

    def test_geodesic_family_is_rank_one(self, rng, unit512):
        mu = embed(smooth_density(rng, unit512))
        v = log_map(mu, embed(smooth_density(rng, unit512))[None], unit512)[0]
        v /= norm(v, unit512)
        # |c| <= 0.3 keeps this geodesic in the positive orthant, where
        # squaring back to densities loses nothing
        cs = rng.uniform(-0.3, 0.3, 30)
        system = FittedMethod(squared(exp_map(mu, cs[:, None] * v, unit512), unit512), HS).system
        share = system.eigenvalues[0] / system.eigenvalues.sum()
        assert share >= 0.999

    def test_tangents_orthogonal_to_mean(self, rng, unit512):
        densities = stack([smooth_density(rng, unit512) for _ in range(10)])
        fitted = FittedMethod(densities, HS)
        mu = fitted.sphere_mean
        tangents = log_map(mu, embed_all(densities), unit512)
        assert np.abs(integrate_rows(tangents * mu, unit512)).max() <= 1e-8
        assert np.abs(integrate_rows(fitted.system.eigenfunctions * mu, unit512)).max() <= 1e-8


class TestRepresentations:
    def test_full_rank_recovery(self, rng, unit512):
        mu = embed(smooth_density(rng, unit512))
        v = log_map(mu, embed(smooth_density(rng, unit512))[None], unit512)[0]
        v /= norm(v, unit512)
        cs = rng.uniform(-0.5, 0.5, 15)
        densities = squared(exp_map(mu, cs[:, None] * v, unit512), unit512)
        recon = FittedMethod(densities, HS).reconstruct(5)
        for f, r in zip(densities, recon):
            assert l2_distance(f, DensityFn(unit512, r)) <= 1e-3

    def test_mode_alpha_zero_is_karcher_mean(self, rng, unit512):
        densities = stack([smooth_density(rng, unit512) for _ in range(8)])
        (mode0,) = FittedMethod(densities, HS).modes([1], [0.0])
        mean = squared(karcher_mean(embed_all(densities), unit512)[None], unit512)[0]
        assert l2_distance(mode0, mean) <= 1e-9

    def test_outputs_unit_mass(self, rng, unit512):
        fitted = FittedMethod(stack([smooth_density(rng, unit512) for _ in range(8)]), HS)
        for mode in fitted.modes([1], (-2.0, 1.0, 3.0)):
            assert integrate_rows(mode.values, unit512) == pytest.approx(1.0, abs=1e-10)
        for r in fitted.reconstruct(2):
            assert integrate_rows(r, unit512) == pytest.approx(1.0, abs=1e-10)
            assert r.min() > 0

    def test_fisher_rao_mean_is_density(self, rng, unit512):
        densities = stack([smooth_density(rng, unit512) for _ in range(6)])
        mean = fisher_rao_mean(densities)
        assert integrate_rows(mean.values, unit512) == pytest.approx(1.0, abs=1e-10)


def _log_loop(base, p, grid):
    """Reference: the tangent at ``base`` pointing to ``p``, one pair at a time."""
    theta = np.arccos(np.clip(integrate_rows(base * p, grid), -1.0, 1.0))
    if theta < 1e-15:
        return np.zeros(grid.m)
    return (theta / np.sin(theta)) * (p - np.cos(theta) * base)


def _exp_loop(base, v, grid):
    """Reference: the geodesic from ``base`` along ``v`` at time 1."""
    norm = np.sqrt(max(integrate_rows(v * v, grid), 0.0))
    if norm < 1e-15:
        return base
    out = np.cos(norm) * base + np.sin(norm) * v / norm
    return out / np.sqrt(integrate_rows(out * out, grid))


def _karcher_loop(points, grid, tol=1e-9, max_iter=200):
    """Reference: one log map per point and iteration, on plain arrays."""
    mu = np.mean(points, axis=0)
    mu /= np.sqrt(integrate_rows(mu * mu, grid))
    for _ in range(max_iter):
        v = np.mean([_log_loop(mu, p, grid) for p in points], axis=0)
        if np.sqrt(max(integrate_rows(v * v, grid), 0.0)) <= tol:
            return mu
        mu = _exp_loop(mu, v, grid)
    raise AssertionError("reference iteration did not converge")


def _square_back_loop(p, grid, floor=1e-6):
    """Reference: a sphere point squared, floored and renormalized."""
    d = np.maximum(p**2, floor)
    return d / integrate_rows(d, grid)


class TestBatchedAgainstLoop:
    @pytest.mark.parametrize("n, m", [(50, 512), (2, 512), (6, 3)], ids=["n50", "n2", "m3"])
    def test_karcher_mean(self, rng, n, m):
        grid = Grid(-2.0, 3.0, m)
        points = embed_all([smooth_density(rng, grid, amplitude=1.0) for _ in range(n)])
        ref = _karcher_loop(points, grid)
        np.testing.assert_allclose(karcher_mean(points, grid), ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, m", [(20, 512), (2, 512), (6, 3)], ids=["n20", "n2", "m3"])
    def test_maps_and_embedding(self, rng, n, m):
        grid = Grid(-2.0, 3.0, m)
        densities = [smooth_density(rng, grid, amplitude=1.0) for _ in range(n)]
        points = embed_all(densities)
        base = points[0]
        tangents = log_map(base, points, grid)
        ends = exp_map(base, 0.7 * tangents, grid)
        backs = square_back(ends, grid)
        for f, p, v, q, back in zip(densities, points, tangents, ends, backs):
            root = np.sqrt(f.values)
            np.testing.assert_allclose(
                p, root / np.sqrt(integrate_rows(root * root, grid)), rtol=1e-12, atol=0.0
            )
            np.testing.assert_allclose(v, _log_loop(base, p, grid), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(q, _exp_loop(base, 0.7 * v, grid), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(back, _square_back_loop(q, grid), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n, m", [(20, 512), (2, 512), (6, 3)], ids=["n20", "n2", "m3"])
    def test_reconstructions_and_modes(self, rng, n, m):
        grid = Grid(-2.0, 3.0, m)
        densities = stack([smooth_density(rng, grid, amplitude=1.0) for _ in range(n)])
        fitted = FittedMethod(densities, HS)
        system = fitted.system
        mu = fitted.sphere_mean
        for k in (0, 1, fitted.n_components):
            tangents = truncate(system, k)
            ref = [_square_back_loop(_exp_loop(mu, v, grid), grid) for v in tangents]
            for r, f in zip(fitted.reconstruct(k), ref):
                np.testing.assert_allclose(r, f, rtol=1e-12, atol=1e-12)
        v = system.mean + 2.0 * np.sqrt(system.eigenvalues[0]) * system.eigenfunctions[0]
        ref = _square_back_loop(_exp_loop(mu, v, grid), grid)
        np.testing.assert_allclose(fitted.modes([1], [2.0]).values[0], ref, rtol=1e-12, atol=1e-12)
