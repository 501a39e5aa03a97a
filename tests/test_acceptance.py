"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Seeds are fixed so the whole suite is deterministic.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from densfda import (
    DensityFn,
    FittedMethod,
    Grid,
    KdeConfig,
    Kernel,
    LQD,
    Metric,
    MethodKind,
    SettingSpec,
    default_methods,
    dist_wasserstein,
    estimate_density,
    fit,
    fit_flr,
    frechet_mean,
    fve_curve,
    gen_setting,
    log_hazard_spec,
    project_scores,
    run_comparison,
    score_basis,
    sqrt_embed,
    truncated_normal_density,
    cv_mse,
)
from densfda.density import cdf_rows, integrate, unit_grid
from densfda.sphere import exp_map, log_map
from densfda.regression import predict

from conftest import (
    from_transform,
    l2_distance,
    lqd_rank2_basis,
    roundtrip,
    smooth_density,
    sup_distance,
)

REPS = 50
SIM_SEED = 7
TRUE_K = {1: 1, 2: 1, 3: 2}


def report(number, name, ok, detail):
    line = f"ACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print("\n" + line, flush=True)
    return ok


@pytest.fixture(scope="module")
def full_runs():
    out, t0 = {}, time.time()
    for setting, k in TRUE_K.items():
        spec = SettingSpec(setting=setting, n=50, seed=SIM_SEED, observed="full")
        out[setting] = run_comparison(spec, default_methods(), k, Metric.L2, reps=REPS)
    return out, time.time() - t0


@pytest.fixture(scope="module")
def sampled_runs():
    out = {}
    for setting, k in TRUE_K.items():
        spec = SettingSpec(
            setting=setting, n=50, seed=SIM_SEED, observed="sampled",
            n_obs=100, bandwidth=0.2,
        )
        out[setting] = run_comparison(spec, default_methods(), k, Metric.L2, reps=REPS)
    return out


def _orderings(runs):
    details, ok = [], True
    for setting, res in runs.items():
        med = {lab: float(np.median(res.fve_at_k(lab))) for lab in ("LQD", "FPCA", "HS")}
        good = med["LQD"] > med["FPCA"] and (setting == 1 or med["LQD"] > med["HS"])
        ok &= good and not res.failures
        details.append(
            f"s{setting}: LQD={med['LQD']:.3f} FPCA={med['FPCA']:.3f} HS={med['HS']:.3f}"
        )
    return ok, "; ".join(details)


def test_criterion_1_fve_orderings_fully_observed(full_runs):
    runs, elapsed = full_runs
    ok, detail = _orderings(runs)
    ok &= elapsed <= 300.0
    assert report(1, "FVE orderings, fully observed", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_2_fve_orderings_estimated(sampled_runs):
    ok, detail = _orderings(sampled_runs)
    assert report(2, "FVE orderings, estimated densities", ok, detail)


def test_criterion_3_wasserstein_mean_recovery(full_runs):
    res = full_runs[0][2]
    agg = res.aggregated_mean("wasserstein")
    d_agg = dist_wasserstein(agg, res.target)
    wass = res.distances_to_target("wasserstein")
    cross = res.distances_to_target("l2")
    frac = float(np.mean(wass < cross))
    ok = d_agg < 0.05 and frac >= 0.9
    assert report(
        3, "Wasserstein mean recovery",
        ok, f"aggregated d_W={d_agg:.4f} (<0.05), wins={frac:.0%} (>=90%)",
    )


def test_criterion_4_kde_rate():
    m = 256
    grid = Grid(-3.0, 3.0, m)
    truth = truncated_normal_density(0.0, 1.0, grid, floor=1e-6)
    fine = Grid(-3.0, 3.0, 4096)
    fine_cdf = cdf_rows(truncated_normal_density(0.0, 1.0, fine, floor=1e-12).values[None], fine)[0]
    ns = np.array([100, 400, 1600, 6400])
    rng = np.random.default_rng(1234)
    mise = []
    for n in ns:
        h = float(n) ** (-1.0 / 3.0) / grid.width  # rate rule on the data scale
        cfg = KdeConfig(h, Kernel.GAUSSIAN, grid, 1e-6)
        sq = [
            l2_distance(estimate_density(np.interp(rng.random(n), fine_cdf, fine.points), cfg), truth) ** 2
            for _ in range(200)
        ]
        mise.append(np.mean(sq))
    slope = float(np.polyfit(np.log(ns), np.log(mise), 1)[0])
    ok = abs(slope - (-2.0 / 3.0)) <= 0.15
    assert report(4, "KDE MISE rate", ok, f"slope={slope:.3f} vs -2/3 +- 0.15")


def test_criterion_5_mode_convergence_rate():
    tgrid, rho1, rho2 = lqd_rank2_basis(512)
    tau = (0.1, 0.02)
    spread = tuple(np.sqrt(3.0 * t) for t in tau)
    alphas = (-2.0, -1.0, 0.0, 1.0, 2.0)
    true_modes = {
        (k, a): from_transform(tgrid, a * np.sqrt(t) * rho, LQD)
        for k, (rho, t) in enumerate([(rho1, tau[0]), (rho2, tau[1])], start=1)
        for a in alphas
    }

    def max_mode_error(n, rng):
        c1 = rng.uniform(-spread[0], spread[0], n)
        c2 = rng.uniform(-spread[1], spread[1], n)
        sample = [from_transform(tgrid, a * rho1 + b * rho2, LQD) for a, b in zip(c1, c2)]
        from densfda import FittedMethod

        fitted = FittedMethod(sample, MethodKind.lqd())
        return max(
            dist_wasserstein(true_modes[(k, a)], fitted.mode(k, a))
            for k in (1, 2)
            for a in alphas
        )

    ns = np.array([50, 100, 200, 400, 800])
    seeds = np.random.SeedSequence(77)
    errors = []
    for n in ns:
        vals = [max_mode_error(n, np.random.default_rng(s)) for s in seeds.spawn(24)]
        errors.append(float(np.median(vals)))
    slope = float(np.polyfit(np.log(ns), np.log(errors), 1)[0])
    ok = abs(slope - (-0.5)) <= 0.15
    assert report(5, "mode convergence rate", ok, f"slope={slope:.3f} vs -1/2 +- 0.15")


def test_criterion_6_wasserstein_oracle():
    rng = np.random.default_rng(42)
    grid = Grid(-3.0, 3.0, 512)
    u = (np.arange(1000) + 0.5) / 1000.0
    worst = 0.0
    for _ in range(20):
        f = smooth_density(rng, grid, amplitude=0.8)
        g = smooth_density(rng, grid, amplitude=0.8)
        d_formula = dist_wasserstein(f, g)
        x = np.interp(u, cdf_rows(f.values[None], grid)[0], grid.points)
        y = np.interp(u, cdf_rows(g.values[None], grid)[0], grid.points)
        d_matched = float(np.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2)))
        worst = max(worst, abs(d_formula - d_matched) / d_matched)
    # the monotone coupling is genuinely optimal: brute-force assignment
    assignment_ok = True
    for _ in range(3):
        f = smooth_density(rng, grid, amplitude=0.8)
        g = smooth_density(rng, grid, amplitude=0.8)
        x = np.interp(rng.random(60), cdf_rows(f.values[None], grid)[0], grid.points)
        y = np.interp(rng.random(60), cdf_rows(g.values[None], grid)[0], grid.points)
        cost = (x[:, None] - y[None, :]) ** 2
        rows, cols = linear_sum_assignment(cost)
        assignment_ok &= np.isclose(
            cost[rows, cols].sum(), ((np.sort(x) - np.sort(y)) ** 2).sum(), rtol=1e-12
        )
    ok = worst <= 0.02 and assignment_ok
    assert report(
        6, "Wasserstein vs discrete OT oracle",
        ok, f"worst rel dev={worst:.2e} (<=2%), assignment optimal={assignment_ok}",
    )


def test_criterion_7_property_suites(rng):
    grid = unit_grid(512)
    checks = {}

    # transform round trips at m = 512
    worst_round = 0.0
    hspec = log_hazard_spec(0.1)
    for _ in range(10):
        f = smooth_density(rng, grid)
        worst_round = max(worst_round, sup_distance(f, roundtrip(f, LQD)))
        back = roundtrip(f, hspec)
        keep = grid.points <= 0.9
        worst_round = max(worst_round, float(np.abs(back.values[keep] - f.values[keep]).max()))
    checks["roundtrip<=1e-3"] = worst_round <= 1e-3

    # representations and modes are valid densities
    gen = gen_setting(SettingSpec(setting=3, n=25, seed=13))
    mass_dev, min_val = 0.0, np.inf
    for method in default_methods():
        rep = fve_curve(gen.densities, method, Metric.L2, k_max=2, floor=1e-3)
        fitted = FittedMethod(gen.densities, method, floor=1e-3)
        for r in fitted.reconstruct(2):
            mass_dev = max(mass_dev, abs(integrate(r, fitted.grid) - 1.0))
            min_val = min(min_val, r.min())
    lqd = FittedMethod(gen.densities, MethodKind.lqd(0.5), floor=1e-3)
    for alpha in (-2.0, 0.0, 2.0):
        mode = lqd.mode(1, alpha)
        mass_dev = max(mass_dev, abs(integrate(mode.values, mode.grid) - 1.0))
        min_val = min(min_val, mode.values.min())
    checks["unit-mass<=1e-10"] = mass_dev <= 1e-10
    checks["positive"] = min_val > 0.0

    # zero-integral eigenfunctions for density FPCA
    system = fit(gen.densities)
    zero_dev = max(
        abs(integrate(phi, gen.densities[0].grid))
        for lam, phi in zip(system.eigenvalues, system.eigenfunctions)
        if lam > 1e-10
    )
    checks["eigenfn-integral<=1e-8"] = zero_dev <= 1e-8

    # Parseval / trace identities
    sample = [smooth_density(rng, grid) for _ in range(12)]
    sys2 = fit(sample)
    parseval = max(
        abs((row**2).sum() - integrate((f.values - sys2.mean) ** 2, grid))
        / integrate((f.values - sys2.mean) ** 2, grid)
        for f, row in zip(sample, sys2.scores)
    )
    avg_sq = np.mean([integrate((f.values - sys2.mean) ** 2, grid) for f in sample])
    trace = abs(sys2.eigenvalues.sum() - avg_sq) / avg_sq
    checks["parseval<=1e-6"] = parseval <= 1e-6
    checks["trace<=1e-6"] = trace <= 1e-6

    # sphere exp/log inversion
    mu = sqrt_embed(smooth_density(rng, grid))
    sphere_dev = 0.0
    for _ in range(10):
        p = sqrt_embed(smooth_density(rng, grid))
        back = exp_map(mu, log_map(mu, p))
        sphere_dev = max(sphere_dev, float(np.abs(back.values - p.values).max()))
    checks["exp-log<=1e-9"] = sphere_dev <= 1e-9

    ok = all(checks.values())
    detail = ", ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in checks.items())
    assert report(7, "property suites", ok, detail)


def test_criterion_8_regression_substitute():
    rng = np.random.default_rng(0)
    grid = Grid(-5.0, 5.0, 256)
    n = 100
    mus = rng.uniform(-2.5, 2.5, n)
    densities = [truncated_normal_density(mu, 1.0, grid, 1e-3) for mu in mus]
    noise_sd = float(np.sqrt(0.1 * mus.var()))  # 10% noise variance
    y = mus + noise_sd * rng.normal(size=n)
    # each density mixed half-and-half with the uniform density
    blended = [DensityFn(grid, (1.0 - 0.5) * f.values + 0.5 / grid.width) for f in densities]
    mse_lqd = cv_mse(blended, y, "lqd", 2, folds=10, repeats=REPS, seed=5)
    mse_fpca = cv_mse(densities, y, "fpca", 2, folds=10, repeats=REPS, seed=5)
    basis = score_basis(blended, "lqd", 2)
    r2 = fit_flr(project_scores(blended, basis), y, basis).r_squared
    ok = mse_lqd < mse_fpca and r2 >= 0.9
    assert report(
        8, "scalar-on-density regression",
        ok, f"CV MSE: LQD={mse_lqd:.4f} < FPCA={mse_fpca:.4f}; R2(LQD)={r2:.4f} >= 0.9",
    )
