import numpy as np
import pytest

from densfda import (
    DensityFn,
    FittedMethod,
    Grid,
    GridMismatchError,
    MethodKind,
    SpherePoint,
    exp_map,
    fisher_rao_mean,
    karcher_mean,
    log_map,
    normalize,
    sqrt_embed,
    square_back,
    truncate,
)
from densfda.density import inner_product, integrate

from conftest import l2_distance, smooth_density

M = 512
HS = MethodKind.hilbert_sphere()


def _rows(points):
    """The values of sphere points on one grid as an ``(n, m)`` array, and the grid."""
    return np.stack([p.values for p in points]), points[0].grid


def geodesic_distance(p, q):
    """Arc length between two sphere points: the norm of the log map."""
    v = log_map(p, q)
    return float(np.sqrt(inner_product(v, v, p.grid)))


class TestEmbedding:
    def test_uniform_embeds_to_one(self, unit512):
        p = sqrt_embed(normalize(np.ones(M), unit512, floor=0.0))
        np.testing.assert_allclose(p.values, 1.0, atol=1e-12)

    def test_roundtrip_exact(self, rng, unit512):
        f = smooth_density(rng, unit512)
        back = square_back(sqrt_embed(f))
        assert l2_distance(f, back) <= 1e-10

    def test_unit_norm_for_random_densities(self, rng):
        grid = Grid(-2.0, 5.0, 257)
        for _ in range(100):
            p = sqrt_embed(smooth_density(rng, grid))
            assert inner_product(p.values, p.values, grid) == pytest.approx(1.0, abs=1e-9)

    def test_norm_validated(self, unit512):
        with pytest.raises(ValueError):
            SpherePoint(unit512, np.full(M, 2.0))


class TestGeodesicDistance:
    def test_zero_at_identity(self, rng, unit512):
        p = sqrt_embed(smooth_density(rng, unit512))
        assert geodesic_distance(p, p) == pytest.approx(0.0, abs=1e-7)

    def test_analytic_value(self, unit512):
        # <sqrt(1), sqrt(2x)> = int sqrt(2x) dx = 2 sqrt(2) / 3
        p = sqrt_embed(normalize(np.ones(M), unit512, floor=0.0))
        q = sqrt_embed(normalize(2.0 * unit512.points, unit512, floor=1e-9))
        assert geodesic_distance(p, q) == pytest.approx(np.arccos(2.0 * np.sqrt(2.0) / 3.0), abs=1e-3)

    def test_symmetric(self, rng, unit512):
        p = sqrt_embed(smooth_density(rng, unit512))
        q = sqrt_embed(smooth_density(rng, unit512))
        assert geodesic_distance(p, q) == pytest.approx(geodesic_distance(q, p), abs=1e-14)

    def test_grid_mismatch(self, rng):
        p = sqrt_embed(smooth_density(rng, Grid(0.0, 1.0, 128)))
        q = sqrt_embed(smooth_density(rng, Grid(0.0, 1.0, 256)))
        with pytest.raises(GridMismatchError):
            geodesic_distance(p, q)


class TestExpLog:
    def test_inversion(self, rng, unit512):
        mu = sqrt_embed(smooth_density(rng, unit512))
        for _ in range(10):
            p = sqrt_embed(smooth_density(rng, unit512))
            assert geodesic_distance(mu, p) < np.pi / 2
            back = exp_map(mu, log_map(mu, p))
            assert np.abs(back.values - p.values).max() <= 1e-9

    def test_exp_moves_at_unit_speed(self, rng, unit512):
        mu = sqrt_embed(smooth_density(rng, unit512))
        v = log_map(mu, sqrt_embed(smooth_density(rng, unit512)))
        vhat = v / np.sqrt(inner_product(v, v, unit512))
        for t in (0.1, 0.5, 1.2):
            q = exp_map(mu, t * vhat)
            assert geodesic_distance(mu, q) == pytest.approx(t, abs=1e-8)

    def test_log_is_tangent(self, rng, unit512):
        mu = sqrt_embed(smooth_density(rng, unit512))
        for _ in range(5):
            v = log_map(mu, sqrt_embed(smooth_density(rng, unit512)))
            assert abs(inner_product(v, mu.values, unit512)) <= 1e-8


class TestKarcherMean:
    def test_fixed_point_of_identical_sample(self, rng, unit512):
        p = sqrt_embed(smooth_density(rng, unit512))
        mu = karcher_mean(*_rows([p, p]))
        assert np.abs(mu.values - p.values).max() <= 1e-9

    def test_two_point_midpoint(self, rng, unit512):
        p = sqrt_embed(smooth_density(rng, unit512))
        q = sqrt_embed(smooth_density(rng, unit512))
        mu = karcher_mean(*_rows([p, q]))
        assert geodesic_distance(mu, p) == pytest.approx(geodesic_distance(mu, q), abs=1e-6)
        # midpoint lies on the connecting geodesic
        assert geodesic_distance(p, q) == pytest.approx(
            geodesic_distance(mu, p) + geodesic_distance(mu, q), abs=1e-9
        )

    def test_gradient_norm_below_tol(self, rng, unit512):
        points = [sqrt_embed(smooth_density(rng, unit512)) for _ in range(8)]
        mu = karcher_mean(*_rows(points))
        grad = np.mean([log_map(mu, p) for p in points], axis=0)
        assert np.sqrt(inner_product(grad, grad, unit512)) <= 1e-9

    def test_permutation_invariant(self, rng, unit512):
        points = [sqrt_embed(smooth_density(rng, unit512)) for _ in range(6)]
        mu1 = karcher_mean(*_rows(points))
        mu2 = karcher_mean(*_rows(points[::-1]))
        assert np.abs(mu1.values - mu2.values).max() <= 1e-8

    def test_matches_brute_force_on_pair(self, rng, unit512):
        p = sqrt_embed(smooth_density(rng, unit512))
        q = sqrt_embed(smooth_density(rng, unit512))
        mu = karcher_mean(*_rows([p, q]))
        # brute force along the connecting geodesic
        v = log_map(p, q)
        ts = np.linspace(0.0, 1.0, 2001)
        best_t, best = None, np.inf
        for t in ts:
            cand = exp_map(p, t * v)
            obj = geodesic_distance(cand, p) ** 2 + geodesic_distance(cand, q) ** 2
            if obj < best:
                best, best_t = obj, t
        brute = exp_map(p, best_t * v)
        assert np.abs(mu.values - brute.values).max() <= 1e-3

    def test_grid_mismatch_rejected(self, rng, unit512):
        data, _ = _rows([sqrt_embed(smooth_density(rng, unit512)) for _ in range(2)])
        with pytest.raises(GridMismatchError):
            karcher_mean(data, Grid(0.0, 1.0, 64))


class TestPga:
    def test_identical_sample_no_components(self, rng, unit512):
        f = smooth_density(rng, unit512)
        assert FittedMethod([f, f, f], HS).n_components == 0

    def test_geodesic_family_is_rank_one(self, rng, unit512):
        mu = sqrt_embed(smooth_density(rng, unit512))
        v = log_map(mu, sqrt_embed(smooth_density(rng, unit512)))
        v /= np.sqrt(inner_product(v, v, unit512))
        # |c| <= 0.3 keeps this geodesic in the positive orthant, where
        # squaring back to densities loses nothing
        cs = rng.uniform(-0.3, 0.3, 30)
        system = FittedMethod([square_back(exp_map(mu, c * v)) for c in cs], HS).system
        share = system.eigenvalues[0] / system.eigenvalues.sum()
        assert share >= 0.999

    def test_tangents_orthogonal_to_mean(self, rng, unit512):
        densities = [smooth_density(rng, unit512) for _ in range(10)]
        fitted = FittedMethod(densities, HS)
        mu = fitted.sphere_mean
        for f in densities:
            v = log_map(mu, sqrt_embed(f))
            assert abs(inner_product(v, mu.values, unit512)) <= 1e-8
        for phi in fitted.system.eigenfunctions:
            assert abs(inner_product(phi, mu.values, unit512)) <= 1e-8


class TestRepresentations:
    def test_full_rank_recovery(self, rng, unit512):
        mu = sqrt_embed(smooth_density(rng, unit512))
        v = log_map(mu, sqrt_embed(smooth_density(rng, unit512)))
        v /= np.sqrt(inner_product(v, v, unit512))
        densities = [square_back(exp_map(mu, c * v)) for c in rng.uniform(-0.5, 0.5, 15)]
        recon = FittedMethod(densities, HS).reconstruct(5)
        for f, r in zip(densities, recon):
            assert l2_distance(f, DensityFn(unit512, r)) <= 1e-3

    def test_mode_alpha_zero_is_karcher_mean(self, rng, unit512):
        densities = [smooth_density(rng, unit512) for _ in range(8)]
        mode0 = FittedMethod(densities, HS).mode(1, 0.0)
        mean = square_back(karcher_mean(*_rows([sqrt_embed(f) for f in densities])))
        assert l2_distance(mode0, mean) <= 1e-9

    def test_outputs_unit_mass(self, rng, unit512):
        fitted = FittedMethod([smooth_density(rng, unit512) for _ in range(8)], HS)
        for alpha in (-2.0, 1.0, 3.0):
            mode = fitted.mode(1, alpha)
            assert integrate(mode.values, unit512) == pytest.approx(1.0, abs=1e-10)
        for r in fitted.reconstruct(2):
            assert integrate(r, unit512) == pytest.approx(1.0, abs=1e-10)
            assert r.min() > 0

    def test_fisher_rao_mean_is_density(self, rng, unit512):
        densities = [smooth_density(rng, unit512) for _ in range(6)]
        mean = fisher_rao_mean(densities)
        assert integrate(mean.values, unit512) == pytest.approx(1.0, abs=1e-10)


def _log_loop(base, p, grid):
    """Reference: the tangent at ``base`` pointing to ``p``, one pair at a time."""
    theta = np.arccos(np.clip(inner_product(base, p, grid), -1.0, 1.0))
    if theta < 1e-15:
        return np.zeros(grid.m)
    return (theta / np.sin(theta)) * (p - np.cos(theta) * base)


def _exp_loop(base, v, grid):
    """Reference: the geodesic from ``base`` along ``v`` at time 1."""
    norm = np.sqrt(max(inner_product(v, v, grid), 0.0))
    if norm < 1e-15:
        return base
    out = np.cos(norm) * base + np.sin(norm) * v / norm
    return out / np.sqrt(inner_product(out, out, grid))


def _karcher_loop(points, tol=1e-9, max_iter=200):
    """Reference: one log map per point and iteration, on plain arrays."""
    grid = points[0].grid
    values = [p.values for p in points]
    mu = np.mean(values, axis=0)
    mu /= np.sqrt(inner_product(mu, mu, grid))
    for _ in range(max_iter):
        v = np.mean([_log_loop(mu, p, grid) for p in values], axis=0)
        if np.sqrt(max(inner_product(v, v, grid), 0.0)) <= tol:
            return mu
        mu = _exp_loop(mu, v, grid)
    raise AssertionError("reference iteration did not converge")


def _square_back_loop(p, grid, floor=1e-6):
    """Reference: a sphere point squared, floored and renormalized."""
    d = np.maximum(p**2, floor)
    return d / integrate(d, grid)


class TestBatchedAgainstLoop:
    @pytest.mark.parametrize("n, m", [(50, 512), (2, 512), (6, 3)], ids=["n50", "n2", "m3"])
    def test_karcher_mean(self, rng, n, m):
        grid = Grid(-2.0, 3.0, m)
        points = [sqrt_embed(smooth_density(rng, grid, amplitude=1.0)) for _ in range(n)]
        ref = _karcher_loop(points)
        np.testing.assert_allclose(karcher_mean(*_rows(points)).values, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, m", [(20, 512), (2, 512), (6, 3)], ids=["n20", "n2", "m3"])
    def test_maps_and_embedding(self, rng, n, m):
        grid = Grid(-2.0, 3.0, m)
        densities = [smooth_density(rng, grid, amplitude=1.0) for _ in range(n)]
        base = sqrt_embed(densities[0])
        for f in densities:
            p = sqrt_embed(f)
            root = np.sqrt(f.values)
            np.testing.assert_allclose(
                p.values, root / np.sqrt(inner_product(root, root, grid)), rtol=1e-12, atol=0.0
            )
            v = log_map(base, p)
            np.testing.assert_allclose(v, _log_loop(base.values, p.values, grid), rtol=0.0, atol=1e-12)
            w = 0.7 * v
            q = exp_map(base, w)
            np.testing.assert_allclose(q.values, _exp_loop(base.values, w, grid), rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(
                square_back(q).values, _square_back_loop(q.values, grid), rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("n, m", [(20, 512), (2, 512), (6, 3)], ids=["n20", "n2", "m3"])
    def test_reconstructions_and_modes(self, rng, n, m):
        grid = Grid(-2.0, 3.0, m)
        densities = [smooth_density(rng, grid, amplitude=1.0) for _ in range(n)]
        fitted = FittedMethod(densities, HS)
        system = fitted.system
        mu = fitted.sphere_mean.values
        for k in (0, 1, fitted.n_components):
            tangents = truncate(system, k)
            ref = [_square_back_loop(_exp_loop(mu, v, grid), grid) for v in tangents]
            for r, f in zip(fitted.reconstruct(k), ref):
                np.testing.assert_allclose(r, f, rtol=1e-12, atol=1e-12)
        v = system.mean + 2.0 * np.sqrt(system.eigenvalues[0]) * system.eigenfunctions[0]
        ref = _square_back_loop(_exp_loop(mu, v, grid), grid)
        np.testing.assert_allclose(fitted.mode(1, 2.0).values, ref, rtol=1e-12, atol=1e-12)
