import numpy as np
import pytest

from densfda import (
    DensityFn,
    Grid,
    LQD,
    TransformedFn,
    TransformOverflowError,
    TransformSpec,
    dist_l2,
    dist_sup,
    forward,
    inverse,
    log_hazard_forward,
    log_hazard_inverse,
    log_hazard_spec,
    lqd_forward,
    lqd_inverse,
    normalize,
    truncated_normal_density,
    unit_grid,
)
from densfda.density import integrate
from densfda.errors import DensfdaError
from densfda.transforms import lqd_forward_rows, lqd_inverse_rows
from scipy.integrate import cumulative_trapezoid

from conftest import smooth_density

M = 512
EPS = np.finfo(float).eps


@pytest.fixture
def uniform(unit512):
    return normalize(np.ones(M), unit512, floor=0.0)


class TestLqdForward:
    def test_uniform_maps_to_zero(self, uniform):
        x = lqd_forward(uniform)
        assert np.abs(x.values).max() <= 1e-12

    def test_linear_density_analytic(self, unit512):
        # f = 2(1+x)/3: Q(t) = -1 + sqrt(1+3t), f(Q(t)) = 2 sqrt(1+3t)/3
        f = normalize(2.0 * (1.0 + unit512.points) / 3.0, unit512, floor=0.0)
        x = lqd_forward(f)
        assert x.values[0] == pytest.approx(np.log(1.5), abs=1e-3)
        assert x.values[-1] == pytest.approx(np.log(1.5) - 0.5 * np.log(4.0), abs=1e-3)

    def test_affine_mapped_uniform(self):
        g = Grid(0.0, 2.0, M)
        f = normalize(np.full(M, 0.5), g, floor=0.0)
        x = lqd_forward(f)
        assert np.abs(x.values).max() <= 1e-12
        assert x.support == (0.0, 2.0)


class TestLqdInverse:
    def test_zero_maps_to_uniform(self):
        x = TransformedFn(unit_grid(M), np.zeros(M), LQD)
        f = lqd_inverse(x)
        np.testing.assert_allclose(f.values, 1.0, atol=1e-12)

    def test_constant_scale_cancels(self):
        x = TransformedFn(unit_grid(M), np.full(M, 3.7), LQD)
        f = lqd_inverse(x)
        np.testing.assert_allclose(f.values, 1.0, atol=1e-10)

    def test_roundtrip_linear_density(self, unit512):
        f = normalize(2.0 * (1.0 + unit512.points) / 3.0, unit512, floor=0.0)
        assert dist_sup(f, lqd_inverse(lqd_forward(f))) <= 1e-3

    def test_roundtrip_restores_native_support(self, rng):
        g = Grid(-3.0, 3.0, M)
        f = smooth_density(rng, g)
        back = lqd_inverse(lqd_forward(f))
        assert back.grid == g
        assert dist_sup(f, back) <= 1e-3

    def test_roundtrip_floored_truncated_normal(self):
        # the 1e-6 floor leaves a sub-cell boundary layer in the quantile
        # density, so the roundtrip is only first-order accurate there
        g = Grid(-3.0, 3.0, M)
        f = truncated_normal_density(0.0, 1.0, g, floor=1e-6)
        back = lqd_inverse(lqd_forward(f))
        assert dist_sup(f, back) <= 1e-2

    def test_overflow_guard(self):
        vals = np.zeros(M)
        vals[M // 2] = 701.0
        x = TransformedFn(unit_grid(M), vals, LQD)
        with pytest.raises(TransformOverflowError):
            lqd_inverse(x)

    def test_wrong_kind_rejected(self):
        spec = log_hazard_spec(0.1)
        x = TransformedFn(Grid(0.0, 0.9, M), np.zeros(M), spec)
        with pytest.raises(ValueError):
            lqd_inverse(x)


class TestLogHazardForward:
    def test_uniform_hazard(self, uniform):
        # X(t) = -log(1 - t)
        x = log_hazard_forward(uniform, log_hazard_spec(0.1))
        assert x.tgrid.hi == pytest.approx(0.9)
        assert x.values[0] == pytest.approx(0.0, abs=1e-4)
        at_half = np.interp(0.5, x.tgrid.points, x.values)
        assert at_half == pytest.approx(np.log(2.0), abs=1e-4)

    def test_truncated_normal_hazard_increasing_at_right(self):
        f = truncated_normal_density(0.0, 1.0, Grid(-3.0, 3.0, M), floor=1e-6)
        x = log_hazard_forward(f, log_hazard_spec(0.1))
        assert np.all(np.isfinite(x.values))
        tail = x.values[int(0.8 * M):]
        assert np.all(np.diff(tail) > 0)  # monotone hazard near the right end

    def test_deterministic(self, uniform):
        spec = log_hazard_spec(0.2)
        a = log_hazard_forward(uniform, spec)
        b = log_hazard_forward(uniform, spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_requires_hazard_spec(self, uniform):
        with pytest.raises(ValueError):
            log_hazard_forward(uniform, LQD)


class TestLogHazardInverse:
    def test_constant_hazard_is_exponential(self):
        # X = 0: f(x) = exp(-x) on [0, 0.9], tail value exp(-0.9)/0.1.
        # The density jumps at 0.9, so the final renormalization carries an
        # O(spacing * jump) straddle-cell error; 4096 points keep it under
        # the example tolerance.
        m = 4096
        spec = log_hazard_spec(0.1)
        x = TransformedFn(Grid(0.0, 0.9, m), np.zeros(m), spec)
        f = log_hazard_inverse(x, spec)
        pts = f.grid.points
        interior = pts <= 0.9
        np.testing.assert_allclose(f.values[interior], np.exp(-pts[interior]), atol=1e-3)
        tail = f.values[~interior]
        assert tail.min() == tail.max()
        assert tail[0] == pytest.approx(10.0 * np.exp(-0.9), abs=1e-3)

    def test_uniform_roundtrip_and_tail_mass(self, uniform):
        spec = log_hazard_spec(0.1)
        back = log_hazard_inverse(log_hazard_forward(uniform, spec), spec)
        pts = back.grid.points
        assert np.abs(back.values[pts <= 0.9] - 1.0).max() <= 1e-3
        tail_value = back.values[pts > 0.9][0]
        assert tail_value * 0.1 == pytest.approx(0.1, abs=1e-6)

    def test_spike_still_integrates_to_one(self):
        spec = log_hazard_spec(0.1)
        vals = np.zeros(M)
        vals[0] = 5.0
        f = log_hazard_inverse(TransformedFn(Grid(0.0, 0.9, M), vals, spec), spec)
        assert integrate(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)

    def test_spec_mismatch_rejected(self):
        x = TransformedFn(Grid(0.0, 0.9, M), np.zeros(M), log_hazard_spec(0.1))
        with pytest.raises(ValueError):
            log_hazard_inverse(x, log_hazard_spec(0.2))


class TestRoundTrips:
    @pytest.mark.parametrize("spec", [LQD, log_hazard_spec(0.1)])
    def test_smooth_roundtrips(self, spec, rng, unit512):
        for _ in range(5):
            f = smooth_density(rng, unit512)
            back = inverse(forward(f, spec))
            if spec is LQD:
                assert dist_sup(f, back) <= 1e-3
            else:
                pts = f.grid.points
                keep = pts <= 1.0 - spec.delta
                assert np.abs(back.values[keep] - f.values[keep]).max() <= 1e-3

    def test_roundtrip_error_shrinks_with_resolution(self, rng):
        errs = []
        for m in (128, 512):
            g = Grid(0.0, 1.0, m)
            f = normalize(np.exp(np.sin(2 * np.pi * g.points)), g, 1e-6)
            errs.append(dist_sup(f, lqd_inverse(lqd_forward(f))))
        assert errs[1] < errs[0]

    def test_hazard_tail_mass_matches_delta(self, rng, unit512):
        spec = log_hazard_spec(0.2)
        f = smooth_density(rng, unit512)
        back = log_hazard_inverse(log_hazard_forward(f, spec), spec)
        pts = back.grid.points
        truth_tail = integrate(np.where(pts >= 0.8, f.values, 0.0), back.grid)
        got_tail = back.values[pts > 0.8][0] * 0.2
        assert got_tail == pytest.approx(truth_tail, abs=1e-3)


class TestStructuralProperties:
    def test_forward_continuity_ratio_bounded(self, rng, unit512):
        # nearby density pairs (floored at 0.1, capped near 10) keep a stable
        # ratio d2(psi f, psi g) / d2(f, g) for both transforms
        ratios = {"lqd": [], "hazard": []}
        hspec = log_hazard_spec(0.1)
        for _ in range(100):
            f = smooth_density(rng, unit512)
            bump = np.zeros(M)
            for k in range(1, 4):
                a, b = rng.normal(size=2)
                u = unit512.points
                bump += a * np.cos(np.pi * k * u) + b * np.sin(np.pi * k * u)
            bump /= max(np.abs(bump).max(), 1.0)
            perturbed = f.values * (1.0 + 1e-4 * bump)
            g = DensityFn(unit512, perturbed / integrate(perturbed, unit512))
            assert dist_sup(f, g) <= 1e-3
            d_fg = dist_l2(f, g)
            if d_fg == 0.0:
                continue
            ratios["lqd"].append(dist_l2(lqd_forward(f), lqd_forward(g)) / d_fg)
            ratios["hazard"].append(
                dist_l2(log_hazard_forward(f, hspec), log_hazard_forward(g, hspec)) / d_fg
            )
        for vals in ratios.values():
            assert np.max(vals) < 50.0

    def test_transformed_fn_bounded_by_density_box(self, rng, unit512):
        # |X| <= log(sup f * sup 1/f) for the LQD map, plus |log delta| for
        # the hazard map
        for _ in range(20):
            f = smooth_density(rng, unit512)
            box = np.log(f.values.max() * (1.0 / f.values.min()))
            x = lqd_forward(f)
            assert np.abs(x.values).max() <= box + 1e-9
            spec = log_hazard_spec(0.1)
            xh = log_hazard_forward(f, spec)
            assert np.abs(xh.values).max() <= box + abs(np.log(spec.delta)) + 1e-9


class TestTransformedFnValidation:
    def test_grid_domain_checked(self):
        with pytest.raises(ValueError):
            TransformedFn(Grid(0.0, 0.9, M), np.zeros(M), LQD)
        with pytest.raises(ValueError):
            TransformedFn(unit_grid(M), np.zeros(M), log_hazard_spec(0.1))

    def test_delta_range(self):
        with pytest.raises(ValueError):
            TransformSpec(LQD.kind, 0.0)
        with pytest.raises(ValueError):
            log_hazard_spec(0.6)

    def test_non_finite_rejected(self):
        vals = np.zeros(M)
        vals[3] = np.inf
        with pytest.raises(Exception):
            TransformedFn(unit_grid(M), vals, LQD)


def _cdf_loop(values, grid):
    cum = cumulative_trapezoid(values, dx=grid.spacing, initial=0.0)
    cum /= cum[-1]
    cum[0], cum[-1] = 0.0, 1.0
    return cum


def _quantile_loop(v01):
    """Q(t) of a density on [0, 1], the first step of the forward map."""
    grid01 = unit_grid(len(v01))
    levels, first = np.unique(_cdf_loop(v01, grid01), return_index=True)
    q = np.interp(grid01.points, levels, grid01.points[first])
    q[0], q[-1] = 0.0, 1.0
    return q


def _lqd_forward_loop(f):
    """Reference: the per-density LQD forward map."""
    v01 = f.values * f.grid.width
    return -np.log(np.interp(_quantile_loop(v01), unit_grid(f.grid.m).points, v01))


def _inverse_loop_steps(x):
    """theta and F(t) of LQD values x, the first step of the inverse map."""
    tgrid = unit_grid(len(x))
    t = tgrid.points
    ex = np.exp(x)
    theta = integrate(ex, tgrid)
    q = cumulative_trapezoid(ex, dx=tgrid.spacing, initial=0.0) / theta
    q[-1] = 1.0
    return theta, np.interp(t, q, t)


def _lqd_inverse_loop(x, support):
    """Reference: the per-function LQD inverse map onto ``support``."""
    tgrid = unit_grid(len(x))
    theta, F = _inverse_loop_steps(x)
    values01 = theta * np.exp(-np.interp(F, tgrid.points, x))
    values01 /= integrate(values01, tgrid)
    return values01 / (support[1] - support[0])


class TestBatchedLqdAgainstLoop:
    @pytest.mark.parametrize(
        "n, grid",
        [(30, Grid(0.0, 1.0, M)), (30, Grid(-5.0, 5.0, M)), (2, Grid(2.0, 7.0, M)),
         (5, Grid(0.0, 1.0, 3)), (5, Grid(-5.0, 5.0, 3))],
        ids=["unit", "offset", "n2", "m3-unit", "m3-offset"],
    )
    def test_forward_and_inverse(self, rng, n, grid):
        densities = [smooth_density(rng, grid, amplitude=1.0) for _ in range(n - 1)]
        mid = 0.5 * (grid.lo + grid.hi)
        densities.append(truncated_normal_density(mid, 0.1 * grid.width, grid, 1e-3))
        ref_x = np.stack([_lqd_forward_loop(f) for f in densities])
        x = lqd_forward_rows(np.stack([f.values for f in densities]) * grid.width)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-12)
        for f, row in zip(densities, ref_x):
            np.testing.assert_allclose(lqd_forward(f).values, row, rtol=0.0, atol=1e-12)

        support = (grid.lo, grid.hi)
        ref_f = np.stack([_lqd_inverse_loop(row, support) for row in ref_x])
        back = lqd_inverse_rows(ref_x) / grid.width
        np.testing.assert_allclose(back, ref_f, rtol=1e-12, atol=1e-12)
        for row, want in zip(ref_x, ref_f):
            f = lqd_inverse(TransformedFn(unit_grid(grid.m), row, LQD, support))
            assert f.grid == grid
            np.testing.assert_allclose(f.values, want, rtol=1e-12, atol=1e-12)


def _cell_of(points, m):
    """Index of the grid cell of the unit grid of m points holding each point."""
    return np.clip((points * (m - 1)).astype(int), 0, m - 2)


def _segments(gen, m, ends):
    """A row of m values in 1-5 linear pieces; ``ends()`` draws each piece's two ends."""
    cuts = np.sort(gen.choice(np.arange(1, m), size=min(int(gen.integers(0, 5)), m - 1), replace=False))
    row = np.empty(m)
    for a, b in zip([0, *cuts], [*cuts, m]):
        row[a:b] = np.linspace(ends(), ends(), b - a)
    return row


class TestLqdKernelsProperty:
    """The one-interpolation kernels against the two-step loops above.

    Every case agrees with the loop or raises a ``DensfdaError``.  The
    agreement is 1e-12 plus the loop's own round-off: the loop places its
    intermediate point, Q(t) or F(s), to within about (m - 1) eps of a
    grid cell and then interpolates again, so it is off by that many
    cells times the slope of the outer function in the cell it lands in.
    Next to spikes that slope is large; the loop is then the less
    accurate of the two, since the kernels interpolate once.
    """

    def test_forward_matches_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            st.integers(1, 3),
            st.integers(3, 4096),
            st.integers(0, 2**32 - 1),
            st.sampled_from([1e-3, 1e-6, 1e-12, 1e-300]),
            st.integers(0, 3),
        )
        def check(n, m, seed, floor, spikes):
            gen = np.random.default_rng(seed)
            lo = np.log(floor) - 5.0  # pieces below the floor become floor-level tails
            rows = np.maximum(np.exp([_segments(gen, m, lambda: gen.uniform(lo, 3.0)) for _ in range(n)]), floor)
            for row in rows:
                row[gen.integers(0, m, spikes)] *= 10.0 ** gen.uniform(0.0, 6.0, spikes)
                row /= integrate(row, unit_grid(m))
            try:
                got = lqd_forward_rows(rows)
            except DensfdaError:
                return
            grid = unit_grid(m)
            for row, x in zip(rows, got):
                ref = _lqd_forward_loop(DensityFn(grid, row))
                j = _cell_of(_quantile_loop(row), m)
                slope = np.abs(row[j + 1] - row[j]) / np.exp(-ref)
                tol = 1e-12 + 4.0 * (m - 1) * EPS * slope
                assert np.all(np.abs(x - ref) <= tol)

        check()

    @pytest.mark.parametrize("m, tiny", [(100, [50, 51]), (100, [0, 1]), (100, [98, 99]), (3, [0, 1])],
                             ids=["inside", "first", "last", "m3"])
    def test_flat_cdf_step(self, m, tiny):
        # two floor-level neighbours leave one flat CDF step, whose skipped
        # knot the forward kernel places midway between its neighbours
        row = np.ones(m)
        row[tiny] = 1e-300
        row /= integrate(row, unit_grid(m))
        ref = _lqd_forward_loop(DensityFn(unit_grid(m), row))
        np.testing.assert_allclose(lqd_forward_rows(row[None])[0], ref, rtol=0.0, atol=1e-12)

    def test_inverse_matches_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.integers(1, 3), st.integers(3, 4096), st.integers(0, 2**32 - 1))
        def check(n, m, seed):
            gen = np.random.default_rng(seed)
            # piece ends moderate, just below the +700 exp guard, or deep
            # enough that exp underflows and q has flat steps
            bands = [(-5.0, 5.0), (660.0, 699.9), (-800.0, -745.0)]
            x = np.stack([
                _segments(gen, m, lambda: gen.uniform(*bands[gen.choice(3, p=[0.6, 0.2, 0.2])]))
                for _ in range(n)
            ])
            with np.errstate(over="ignore", invalid="ignore"):
                refs = [_lqd_inverse_loop(row, (0.0, 1.0)) for row in x]
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    got = lqd_inverse_rows(x)
            except DensfdaError:
                assert any(not np.all(np.isfinite(r) & (r > 0)) for r in refs)
                return
            for row, f, ref in zip(x, got, refs):
                dx = np.abs(np.diff(row))[_cell_of(_inverse_loop_steps(row)[1], m)]
                tol = 1e-12 + 4.0 * (m - 1) * EPS * (dx + dx.max())
                assert np.all(np.abs(f - ref) <= tol * ref)

        check()
