import re

import numpy as np
import pytest

from densfda import (
    DensityFn,
    DensitySample,
    FittedMethod,
    Grid,
    GridMismatchError,
    LQD,
    LogHazard,
    NonFiniteError,
    SettingSpec,
    TransformMethod,
    TransformOverflowError,
    gen_setting,
    inverse_rows,
    normalize_rows,
    truncated_normal_rows,
    unit_grid,
)
from densfda.density import integrate_rows, sq_dist_rows
from densfda.errors import DensfdaError
from densfda.transforms import Lqd, _guard_exp
from scipy.integrate import cumulative_trapezoid
from scipy.interpolate import CubicSpline

from conftest import (
    from_transform,
    l2_distance,
    roundtrip,
    smooth_density,
    sup_distance,
    to_transform,
)

M = 512
EPS = np.finfo(float).eps


@pytest.fixture
def uniform(unit512):
    return DensitySample(normalize_rows(np.ones(M)[None], unit512, floor=0.0), unit512)[0]


class TestLqdForward:
    def test_uniform_maps_to_zero(self, uniform):
        _, x = to_transform(uniform, LQD)
        assert np.abs(x).max() <= 1e-12

    def test_linear_density_analytic(self, unit512):
        # f = 2(1+x)/3: Q(t) = -1 + sqrt(1+3t), f(Q(t)) = 2 sqrt(1+3t)/3
        raw = 2.0 * (1.0 + unit512.points) / 3.0
        f = DensitySample(normalize_rows(raw[None], unit512, floor=0.0), unit512)[0]
        _, x = to_transform(f, LQD)
        assert x[0] == pytest.approx(np.log(1.5), abs=1e-3)
        assert x[-1] == pytest.approx(np.log(1.5) - 0.5 * np.log(4.0), abs=1e-3)

    def test_affine_mapped_uniform(self):
        grid = Grid(0.0, 2.0, M)
        f = DensitySample(normalize_rows(np.full(M, 0.5)[None], grid, floor=0.0), grid)[0]
        tgrid, x = to_transform(f, LQD)
        assert np.abs(x).max() <= 1e-12
        assert tgrid == unit_grid(M)


class TestLqdInverse:
    def test_zero_maps_to_uniform(self):
        f = from_transform(unit_grid(M), np.zeros(M), LQD)
        np.testing.assert_allclose(f.values, 1.0, atol=1e-12)

    def test_constant_scale_cancels(self):
        f = from_transform(unit_grid(M), np.full(M, 3.7), LQD)
        np.testing.assert_allclose(f.values, 1.0, atol=1e-10)

    def test_roundtrip_linear_density(self, unit512):
        raw = 2.0 * (1.0 + unit512.points) / 3.0
        f = DensitySample(normalize_rows(raw[None], unit512, floor=0.0), unit512)[0]
        assert sup_distance(f, roundtrip(f, LQD)) <= 1e-3

    def test_roundtrip_restores_native_support(self, rng):
        g = Grid(-3.0, 3.0, M)
        f = smooth_density(rng, g)
        back = roundtrip(f, LQD)
        assert back.grid == g
        assert sup_distance(f, back) <= 1e-3

    def test_roundtrip_floored_truncated_normal(self):
        # the 1e-6 floor leaves a sub-cell boundary layer in the quantile
        # density, so the roundtrip is only first-order accurate there
        grid = Grid(-3.0, 3.0, M)
        f = DensityFn(grid, truncated_normal_rows([0.0], [1.0], grid, floor=1e-6)[0])
        assert sup_distance(f, roundtrip(f, LQD)) <= 1e-2

    def test_overflow_guard(self):
        vals = np.zeros(M)
        vals[M // 2] = 701.0
        with pytest.raises(TransformOverflowError):
            from_transform(unit_grid(M), vals, LQD)

    def test_overflow_guard_reports_the_first_failing_row(self):
        # row 1 trips the guard and row 2 is not finite: the whole array and
        # every block of rows from the first on fail on row 1, as they would
        # if the rows were mapped back one block at a time
        x = np.zeros((3, 8))
        x[1, 2], x[2, 0] = 800.0, np.nan
        for stop in (2, 3):
            with pytest.raises(TransformOverflowError, match="max transformed value 800 exceeds"):
                _guard_exp(x[:stop])
        with pytest.raises(NonFiniteError):
            _guard_exp(x[2:])

    def test_wrong_kind_rejected(self):
        # log hazard values live on [0, 1 - delta], not on the LQD domain
        with pytest.raises(GridMismatchError):
            from_transform(Grid(0.0, 0.9, M), np.zeros(M), LQD)


class TestLogHazardForward:
    def test_uniform_hazard(self, uniform):
        # X(t) = -log(1 - t)
        tgrid, x = to_transform(uniform, LogHazard(0.1))
        assert tgrid.hi == pytest.approx(0.9)
        assert x[0] == pytest.approx(0.0, abs=1e-4)
        assert np.interp(0.5, tgrid.points, x) == pytest.approx(np.log(2.0), abs=1e-4)

    def test_truncated_normal_hazard_increasing_at_right(self):
        grid = Grid(-3.0, 3.0, M)
        f = DensityFn(grid, truncated_normal_rows([0.0], [1.0], grid, floor=1e-6)[0])
        _, x = to_transform(f, LogHazard(0.1))
        assert np.all(np.isfinite(x))
        assert np.all(np.diff(x[int(0.8 * M):]) > 0)  # monotone hazard near the right end

    def test_deterministic(self, uniform):
        spec = LogHazard(0.2)
        np.testing.assert_array_equal(to_transform(uniform, spec)[1], to_transform(uniform, spec)[1])

    def test_requires_hazard_spec(self, uniform):
        # the hazard grid [0, 1 - delta] is only inverted under its own spec
        tgrid, x = to_transform(uniform, LogHazard(0.1))
        with pytest.raises(GridMismatchError):
            from_transform(tgrid, x, LQD)


class TestLogHazardInverse:
    def test_constant_hazard_is_exponential(self):
        # X = 0: f(x) = exp(-x) on [0, 0.9], tail value exp(-0.9)/0.1.
        # The density jumps at 0.9, so the final renormalization carries an
        # O(spacing * jump) straddle-cell error; 4096 points keep it under
        # the example tolerance.
        m = 4096
        f = from_transform(Grid(0.0, 0.9, m), np.zeros(m), LogHazard(0.1))
        pts = f.grid.points
        interior = pts <= 0.9
        np.testing.assert_allclose(f.values[interior], np.exp(-pts[interior]), atol=1e-3)
        tail = f.values[~interior]
        assert tail.min() == tail.max()
        assert tail[0] == pytest.approx(10.0 * np.exp(-0.9), abs=1e-3)

    def test_uniform_roundtrip_and_tail_mass(self, uniform):
        back = roundtrip(uniform, LogHazard(0.1))
        pts = back.grid.points
        assert np.abs(back.values[pts <= 0.9] - 1.0).max() <= 1e-3
        tail_value = back.values[pts > 0.9][0]
        assert tail_value * 0.1 == pytest.approx(0.1, abs=1e-6)

    def test_spike_still_integrates_to_one(self):
        vals = np.zeros(M)
        vals[0] = 5.0
        f = from_transform(Grid(0.0, 0.9, M), vals, LogHazard(0.1))
        assert integrate_rows(f.values, f.grid) == pytest.approx(1.0, abs=1e-10)

    def test_spec_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            from_transform(Grid(0.0, 0.9, M), np.zeros(M), LogHazard(0.2))


class TestRoundTrips:
    @pytest.mark.parametrize("spec", [LQD, LogHazard(0.1)])
    def test_smooth_roundtrips(self, spec, rng, unit512):
        for _ in range(5):
            f = smooth_density(rng, unit512)
            back = roundtrip(f, spec)
            if spec is LQD:
                assert sup_distance(f, back) <= 1e-3
            else:
                keep = f.grid.points <= 1.0 - spec.delta
                assert np.abs(back.values[keep] - f.values[keep]).max() <= 1e-3

    def test_roundtrip_error_shrinks_with_resolution(self, rng):
        errs = []
        for m in (128, 512):
            g = Grid(0.0, 1.0, m)
            f = DensitySample(normalize_rows(np.exp(np.sin(2 * np.pi * g.points))[None], g, 1e-6), g)[0]
            errs.append(sup_distance(f, roundtrip(f, LQD)))
        assert errs[1] < errs[0]

    def test_hazard_tail_mass_matches_delta(self, rng, unit512):
        f = smooth_density(rng, unit512)
        back = roundtrip(f, LogHazard(0.2))
        pts = back.grid.points
        truth_tail = integrate_rows(np.where(pts >= 0.8, f.values, 0.0), back.grid)
        got_tail = back.values[pts > 0.8][0] * 0.2
        assert got_tail == pytest.approx(truth_tail, abs=1e-3)


class TestStructuralProperties:
    def test_forward_continuity_ratio_bounded(self, rng, unit512):
        # nearby density pairs (floored at 0.1, capped near 10) keep a stable
        # ratio d2(psi f, psi g) / d2(f, g) for both transforms
        ratios = {"lqd": [], "hazard": []}
        specs = {"lqd": LQD, "hazard": LogHazard(0.1)}
        for _ in range(100):
            f = smooth_density(rng, unit512)
            bump = np.zeros(M)
            for k in range(1, 4):
                a, b = rng.normal(size=2)
                u = unit512.points
                bump += a * np.cos(np.pi * k * u) + b * np.sin(np.pi * k * u)
            bump /= max(np.abs(bump).max(), 1.0)
            perturbed = f.values * (1.0 + 1e-4 * bump)
            g = DensityFn(unit512, perturbed / integrate_rows(perturbed, unit512))
            assert sup_distance(f, g) <= 1e-3
            d_fg = l2_distance(f, g)
            if d_fg == 0.0:
                continue
            for name, spec in specs.items():
                tgrid, xf = to_transform(f, spec)
                d_x = np.sqrt(sq_dist_rows(xf, to_transform(g, spec)[1], tgrid))
                ratios[name].append(d_x / d_fg)
        for vals in ratios.values():
            assert np.max(vals) < 50.0

    def test_transformed_fn_bounded_by_density_box(self, rng, unit512):
        # |X| <= log(sup f * sup 1/f) for the LQD map, plus |log delta| for
        # the hazard map
        spec = LogHazard(0.1)
        for _ in range(20):
            f = smooth_density(rng, unit512)
            box = np.log(f.values.max() * (1.0 / f.values.min()))
            assert np.abs(to_transform(f, LQD)[1]).max() <= box + 1e-9
            xh = to_transform(f, spec)[1]
            assert np.abs(xh).max() <= box + abs(np.log(spec.delta)) + 1e-9


class TestTransformedFnValidation:
    """Transformed values are checked where they are inverted, by ``inverse_rows``."""

    def test_grid_domain_checked(self):
        x = np.zeros((2, M))
        for spec, hi, other in ((LQD, 1.0, 0.9), (LogHazard(0.1), 0.9, 1.0)):
            # a t column read back from CSV may be off by round-off
            assert inverse_rows(x, Grid(0.0, hi + 1e-13, M), spec, (0.0, 1.0)).shape == x.shape
            for tgrid in (Grid(0.0, other, M), Grid(0.1, hi, M), Grid(-1e-9, hi, M),
                          Grid(0.0, hi, M + 1), Grid(0.0, hi, M - 1)):
                with pytest.raises(GridMismatchError):
                    inverse_rows(x, tgrid, spec, (0.0, 1.0))

    @pytest.mark.parametrize(
        "support, error",
        [((1.0, 0.0), ValueError), ((1.0, 1.0), ValueError), ((0.0, np.inf), NonFiniteError)],
        ids=["reversed", "empty", "infinite"],
    )
    def test_support_checked(self, support, error):
        for spec, tgrid in ((LQD, unit_grid(M)), (LogHazard(0.1), Grid(0.0, 0.9, M))):
            with pytest.raises(error):
                inverse_rows(np.zeros((1, M)), tgrid, spec, support)

    def test_mismatch_names_the_label(self):
        x = np.zeros((1, M))
        for transform, other in ((LQD, LogHazard(0.1)), (LogHazard(0.1), LQD), (LogHazard(0.2), LogHazard(0.1))):
            with pytest.raises(GridMismatchError, match=re.escape(f"the {transform.label} domain")):
                inverse_rows(x, other.domain(M), transform, (0.0, 1.0))

    def test_delta_range(self):
        with pytest.raises(ValueError):
            LogHazard(0.0)
        with pytest.raises(ValueError):
            LogHazard(0.6)
        with pytest.raises(TypeError):  # LQD is not truncated, so it takes no delta
            Lqd(0.3)

    def test_non_finite_rejected(self):
        for bad in (np.inf, -np.inf, np.nan):
            vals = np.zeros((1, M))
            vals[0, 3] = bad
            for spec, tgrid in ((LQD, unit_grid(M)), (LogHazard(0.1), Grid(0.0, 0.9, M))):
                with pytest.raises(NonFiniteError):
                    inverse_rows(vals, tgrid, spec, (0.0, 1.0))


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
    theta = integrate_rows(ex, tgrid)
    q = cumulative_trapezoid(ex, dx=tgrid.spacing, initial=0.0) / theta
    q[-1] = 1.0
    return theta, np.interp(t, q, t)


def _lqd_inverse_loop(x, support):
    """Reference: the per-function LQD inverse map onto ``support``."""
    tgrid = unit_grid(len(x))
    theta, F = _inverse_loop_steps(x)
    values01 = theta * np.exp(-np.interp(F, tgrid.points, x))
    values01 /= integrate_rows(values01, tgrid)
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
        densities.append(DensityFn(grid, truncated_normal_rows([mid], [0.1 * grid.width], grid, 1e-3)[0]))
        ref_x = np.stack([_lqd_forward_loop(f) for f in densities])
        x = LQD.forward(np.stack([f.values for f in densities]) * grid.width)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-12)
        for f, row in zip(densities, ref_x):
            np.testing.assert_allclose(to_transform(f, LQD)[1], row, rtol=0.0, atol=1e-12)

        support = (grid.lo, grid.hi)
        ref_f = np.stack([_lqd_inverse_loop(row, support) for row in ref_x])
        back = LQD.inverse(ref_x) / grid.width
        np.testing.assert_allclose(back, ref_f, rtol=1e-12, atol=1e-12)
        for row, want in zip(ref_x, ref_f):
            f = from_transform(unit_grid(grid.m), row, LQD, support)
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


def _density_rows(seed, n, m, floor, spikes):
    """n densities on the unit grid of m points: exp of 1-5 linear pieces,
    floor-level tails, and up to ``spikes`` points raised by up to 1e6."""
    gen = np.random.default_rng(seed)
    lo = np.log(floor) - 5.0  # pieces below the floor become floor-level tails
    rows = np.maximum(np.exp([_segments(gen, m, lambda: gen.uniform(lo, 3.0)) for _ in range(n)]), floor)
    for row in rows:
        row[gen.integers(0, m, spikes)] *= 10.0 ** gen.uniform(0.0, 6.0, spikes)
        row /= integrate_rows(row, unit_grid(m))
    return rows


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
            rows = _density_rows(seed, n, m, floor, spikes)
            try:
                got = LQD.forward(rows)
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
        row /= integrate_rows(row, unit_grid(m))
        ref = _lqd_forward_loop(DensityFn(unit_grid(m), row))
        np.testing.assert_allclose(LQD.forward(row[None])[0], ref, rtol=0.0, atol=1e-12)

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
                    got = LQD.inverse(x)
            except DensfdaError:
                assert any(not np.all(np.isfinite(r) & (r > 0)) for r in refs)
                return
            for row, f, ref in zip(x, got, refs):
                dx = np.abs(np.diff(row))[_cell_of(_inverse_loop_steps(row)[1], m)]
                tol = 1e-12 + 4.0 * (m - 1) * EPS * (dx + dx.max())
                assert np.all(np.abs(f - ref) <= tol * ref)

        check()


def _log_hazard_forward_loop(v01, delta):
    """Reference: the per-density log hazard forward map of a density on [0, 1]."""
    m = len(v01)
    x = unit_grid(m).points
    t = Grid(0.0, 1.0 - delta, m).points
    survival = 1.0 - np.interp(t, x, _cdf_loop(v01, unit_grid(m)))
    if survival.min() < 1e-300:
        raise TransformOverflowError("survival function vanished before 1 - delta")
    return np.log(np.interp(t, x, v01)) - np.log(survival)


def _log_hazard_inverse_loop(x, delta):
    """Reference: the per-function log hazard inverse map onto [0, 1], with
    its cumulative hazard and cubic Hermite evaluation written out here."""
    _guard_exp(x)
    m = len(x)
    tgrid = Grid(0.0, 1.0 - delta, m)
    t, h = tgrid.points, tgrid.spacing
    hazard = np.exp(x)
    g = np.gradient(hazard, edge_order=2)
    cumhaz = np.zeros(m)
    np.cumsum(h * (hazard[1:] + hazard[:-1]) / 2.0, out=cumhaz[1:])
    cumhaz += h / 12.0 * (g[0] - g)
    s = unit_grid(m).points
    interior = s <= tgrid.hi
    si = s[interior]
    j = np.clip(np.searchsorted(t, si, side="right") - 1, 0, m - 2)
    w = np.diff(t)
    slope = np.diff(cumhaz) / w
    c = (hazard[:-1] + hazard[1:] - 2 * slope) / w
    c2, c3 = (slope - hazard[:-1]) / w - c, c / w
    u = si - t[j]
    u2 = u * u
    hermite = cumhaz[j] + hazard[j] * u + c2[j] * u2 + c3[j] * (u2 * u)
    values01 = np.empty(m)
    values01[interior] = np.exp(np.interp(si, t, x) - hermite)
    values01[~interior] = np.exp(-cumhaz[-1]) / delta
    return normalize_rows(values01[None], unit_grid(m), floor=0.0)[0]


def _scipy_log_hazard_inverse(x, delta):
    """The log hazard inverse of one row with SciPy's cubic spline
    antiderivative as the cumulative hazard."""
    m = len(x)
    t = Grid(0.0, 1.0 - delta, m).points
    cumhaz = CubicSpline(t, np.exp(x)).antiderivative()
    s = unit_grid(m).points
    interior = s <= 1.0 - delta
    values01 = np.empty(m)
    values01[interior] = np.exp(np.interp(s[interior], t, x) - cumhaz(s[interior]))
    values01[~interior] = np.exp(-float(cumhaz(1.0 - delta))) / delta
    return normalize_rows(values01[None], unit_grid(m), floor=0.0)[0]


class TestLogHazardKernelsProperty:
    """The batched log hazard kernels against the per-density loops above:
    the same values, to the bit, or the same error."""

    def test_kernels_match_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            st.integers(1, 3),
            st.integers(3, 4096),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 0.5, exclude_min=True),
            st.sampled_from([1e-3, 1e-6, 1e-12, 1e-300]),
            st.integers(0, 3),
        )
        def check(n, m, seed, delta, floor, spikes):
            rows = _density_rows(seed, n, m, floor, spikes)
            try:
                ref_x = np.stack([_log_hazard_forward_loop(row, delta) for row in rows])
            except TransformOverflowError:
                with pytest.raises(TransformOverflowError):
                    LogHazard(delta).forward(rows)
                return
            np.testing.assert_array_equal(LogHazard(delta).forward(rows), ref_x)
            try:
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    ref_f = np.stack([_log_hazard_inverse_loop(x, delta) for x in ref_x])
            except DensfdaError as exc:
                with pytest.raises(type(exc)):
                    LogHazard(delta).inverse(ref_x)
                return
            got = LogHazard(delta).inverse(ref_x)
            np.testing.assert_array_equal(got, ref_f)
            for x, want in zip(ref_x, got):  # a row alone gets the bits it gets in the batch
                np.testing.assert_array_equal(LogHazard(delta).inverse(x[None])[0], want)

        check()

    @pytest.mark.parametrize("delta", [0.1, 0.25])
    @pytest.mark.parametrize("m", [64, 512, 2048])
    def test_fourth_order_agreement_with_scipy_spline(self, rng, m, delta):
        """Against SciPy's not-a-knot spline antiderivative, on hazards that
        are positive cubics p.  The spline reproduces a cubic, so its H is
        exact, and the two differ by the package's error alone, which is
        fourth order in the knot spacing h.  The trapezoid rule with its
        end correction is exact for a cubic given exact slopes, but the
        difference quotients miss p' by h²·p‴/6 inside and by -h²·p‴/3 at
        the ends, which moves H at a knot by at most h⁴·|p‴|/24.  The
        cubic Hermite between knots adds at most h⁴·|p‴|/384, the
        interpolation error of a quartic.  A density is exp(X - H)
        renormalized, so a shift of H by at most b changes it by a factor
        within exp(±2b).  Rounding adds (m + 4) eps·H(1 - delta) per side to
        b: m - 1 summed trapezoid or spline pieces, and a few roundings in
        the end correction or the evaluation; the exponentials and the
        normalization add 4 eps to the factor."""
        t = Grid(0.0, 1.0 - delta, m).points
        h = t[1] - t[0]
        for _ in range(5):
            a, roots = rng.uniform(0.5, 5.0), rng.uniform(-3.0, -0.1, 3)
            p = a * np.prod(t[:, None] - roots, axis=1)  # > 0 on t >= 0
            got = LogHazard(delta).inverse(np.log(p)[None])[0]
            want = _scipy_log_hazard_inverse(np.log(p), delta)
            cumhaz_end = float(CubicSpline(t, p).antiderivative()(t[-1]))
            b = h**4 * 6.0 * a * (1.0 / 24.0 + 1.0 / 384.0) + 2.0 * (m + 4) * EPS * cumhaz_end
            assert np.abs(got / want - 1.0).max() <= np.expm1(2.0 * b) + 4.0 * EPS

    @pytest.mark.parametrize("setting", [1, 2, 3])
    def test_fitted_method_outputs_are_densities(self, setting):
        # DensityFn checks finiteness, strict positivity and unit mass
        sample = gen_setting(SettingSpec(setting=setting, n=20, m=256, seed=setting)).densities
        fitted = FittedMethod(sample, TransformMethod(LogHazard(0.1)))
        for k in range(min(fitted.n_components, 3) + 1):
            recon = fitted.reconstruct(k)
            assert recon.shape == (len(sample), fitted.grid.m)
            for row in recon:
                DensityFn(fitted.grid, row)
        ks = range(1, min(fitted.n_components, 2) + 1)
        modes = fitted.modes(ks, (-2.0, -1.0, 0.0, 1.0, 2.0))  # a DensitySample checks every row
        assert modes.grid == sample.grid and len(modes) == 5 * len(ks)
