"""Command-line front end: estimate, transform, analyze, mean, simulate,
regress.

``analyze`` writes the FVE report of one method (JSON) and its modes of
variation (``<output stem>_modes.csv``) from one fit: those along the
components ``--modes-k`` names, or by default along components 1 to
min(selected K, 2, components).

Every command writes its outputs plus a ``<output>.manifest.json``
recording the argv, seed (null but for ``simulate`` and ``regress``),
input digests and artifact version.  Exit codes: 0 on success, 2 on
usage errors (argparse), 1 on computation errors, which are also
reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio, fpca
from .density import DEFAULT_FLOOR, DensitySample, Grid
from .errors import DensfdaError
from .frechet import (
    FittedMethod,
    Metric,
    MethodKind,
    fisher_rao_mean,
    frechet_mean,
    fve_report,
)
from .kde import KdeConfig, Kernel, default_bandwidth, estimate_rows
from .regression import cv_mse, fit_flr, score_rows
from .simulation import SettingSpec, default_methods, run_comparison
from .transforms import LQD, forward_rows, inverse_rows, log_hazard_spec


def _support(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _alphas(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _ks(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _method(name: str, delta: float) -> MethodKind:
    """The named method; only the log hazard method reads ``delta``."""
    return {
        "lqd": MethodKind.lqd,
        "fpca": MethodKind.ordinary_fpca,
        "hs": MethodKind.hilbert_sphere,
        "loghazard": lambda: MethodKind.log_hazard(delta),
    }[name]()


def _metric(name: str) -> Metric:
    return Metric.L2 if name == "l2" else Metric.WASSERSTEIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densfda",
        description="Functional data analysis for samples of density functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="kernel density estimation")
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--in", dest="infile", required=True, help="subject_id,value CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--bandwidth", type=float, default=None, help="default n**(-1/3)")
    p.add_argument("--kernel", choices=[k.value for k in Kernel], default="gaussian")
    p.add_argument("--support", type=_support, required=True, metavar="a,b")
    p.add_argument("--floor", type=float, default=DEFAULT_FLOOR)

    p = sub.add_parser("transform", help="apply or invert a transform")
    p.add_argument("--kind", choices=["lqd", "loghazard"], default="lqd")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--support", type=_support, default=(0.0, 1.0), metavar="a,b",
                   help="native support restored by --inverse")

    p = sub.add_parser("analyze", help="FVE report plus modes")
    p.add_argument("--method", choices=["lqd", "fpca", "hs", "loghazard"], default="lqd")
    p.add_argument("--metric", choices=["l2", "wasserstein"], default="l2")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--modes-k", type=_ks, default=None, metavar="K[,K...]",
                   help="components of the modes; default 1..min(selected K, 2, components)")
    p.add_argument("--modes-alpha", type=_alphas, default=[-2.0, -1.0, 0.0, 1.0, 2.0])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mean", help="Fréchet mean density")
    p.add_argument("--metric", choices=["l2", "wasserstein", "fisherrao"], default="wasserstein")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="replicated method comparison")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid-points", type=int, default=512)
    p.add_argument("--setting", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--observed", choices=["full", "sampled"], default="full")
    p.add_argument("--n-obs", type=int, default=100)
    p.add_argument("--bandwidth", type=float, default=0.2)
    p.add_argument("--K", type=int, default=None, help="default: true dimension")
    p.add_argument("--metric", choices=["l2", "wasserstein"], default="l2")
    p.add_argument("--blend", type=float, default=0.5,
                   help="uniform blend inside the transform method")
    p.add_argument("--out", required=True)

    p = sub.add_parser("regress", help="scalar-on-density regression")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=["lqd", "fpca"], default="lqd")
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--repeats", type=int, default=50)
    p.add_argument("--densities", required=True)
    p.add_argument("--y", dest="yfile", required=True)
    p.add_argument("--out", required=True)
    return parser


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _manifest(args, out_path, inputs):
    fileio.RunManifest(
        command=args.command,
        argv=sys.argv[1:],
        seed=getattr(args, "seed", None),
        inputs={path: fileio.sha256_file(path) for path in inputs},
    ).write(out_path)


def _cmd_estimate(args):
    groups = fileio.read_samples_csv(args.infile)
    grid = Grid(*args.support, args.grid_points)
    rows = np.empty((len(groups), grid.m))
    for row, samples in zip(rows, groups.values()):  # subjects differ in draw count and bandwidth
        h = args.bandwidth if args.bandwidth is not None else default_bandwidth(len(samples))
        row[:] = estimate_rows(samples[None], KdeConfig(h, Kernel(args.kernel), grid, args.floor))[0]
    fileio.write_density_csv(args.out, DensitySample(rows, grid), list(groups))
    _manifest(args, args.out, [args.infile])


def _cmd_transform(args):
    spec = LQD if args.kind == "lqd" else log_hazard_spec(args.delta)  # only the log hazard reads delta
    if args.inverse:
        tgrid, x, ids = fileio.read_transformed_csv(args.infile)
        values = inverse_rows(x, tgrid, spec, args.support)
        fileio.write_density_csv(args.out, DensitySample(values, Grid(*args.support, tgrid.m)), ids)
    else:
        sample, ids = fileio.read_density_csv(args.infile)
        fileio.write_transformed_csv(args.out, *forward_rows(sample.values, sample.grid, spec), ids)
    _manifest(args, args.out, [args.infile])


def _report_payload(report, fitted):
    return {
        "method": report.method.label,
        "metric": report.metric.value,
        "p": report.p,
        "v_infinity": report.v_infinity,
        "v_k": [float(v) for v in report.v_k],
        "fve": [float(v) for v in report.fve],
        "selected_k": report.selected_k,
        "threshold_reached": report.threshold_reached,
        "eigenvalues": [float(v) for v in fitted.system.eigenvalues],
    }


def _cmd_analyze(args):
    sample, _ = fileio.read_density_csv(args.infile)
    fitted = FittedMethod(sample, _method(args.method, args.delta))
    report = fve_report(fitted, _metric(args.metric), args.kmax, args.p)
    ks = args.modes_k or range(1, min(report.selected_k, 2, fitted.n_components) + 1)
    # modes first: a component beyond the fit fails before any output is written
    _write_modes(f"{os.path.splitext(args.out)[0]}_modes.csv", fitted, ks, args.modes_alpha)
    fileio.write_json(args.out, _report_payload(report, fitted))
    _manifest(args, args.out, [args.infile])


def _write_modes(path, fitted, ks, alphas):
    ids = [f"mode{k}_alpha{alpha:g}" for k in ks for alpha in alphas]
    if ids:
        fileio.write_density_csv(path, fitted.modes(ks, alphas), ids)
    else:  # a fit without components has no modes: the table holds only the grid
        fileio._write_table(path, "x", fitted.grid.points, [], [])


def _cmd_mean(args):
    sample, _ = fileio.read_density_csv(args.infile)
    if args.metric == "fisherrao":
        mean = fisher_rao_mean(sample)
    else:
        mean = frechet_mean(sample, _metric(args.metric))
    fileio.write_density_csv(args.out, mean, [f"{args.metric}_mean"])
    _manifest(args, args.out, [args.infile])


def _cmd_simulate(args):
    spec = SettingSpec(
        setting=args.setting,
        n=args.n,
        observed=args.observed,
        n_obs=args.n_obs,
        bandwidth=args.bandwidth,
        seed=args.seed,
        m=args.grid_points,
    )
    k = args.K if args.K is not None else (2 if args.setting == 3 else 1)
    result = run_comparison(spec, default_methods(args.blend), k, _metric(args.metric), args.reps)
    fileio.write_json(args.out, result.summary())
    _manifest(args, args.out, [])


def _cmd_regress(args):
    sample, ids = fileio.read_density_csv(args.densities)
    responses = fileio.read_response_csv(args.yfile)
    keep = [i for i, sid in enumerate(ids) if sid in responses]
    if len(keep) < len(sample):
        print(f"dropping {len(sample) - len(keep)} subjects without responses", file=sys.stderr)
    sample = sample[keep]
    y = np.array([responses[ids[i]] for i in keep])
    model = fit_flr(fpca.fit(*score_rows(sample, args.method), k=args.K).scores, y)
    mse = cv_mse(sample, y, args.method, args.K, args.folds, args.repeats, args.seed)
    fileio.write_json(
        args.out,
        {
            "method": args.method,
            "K": args.K,
            "folds": args.folds,
            "repeats": args.repeats,
            "seed": args.seed,
            "cv_mse": mse,
            "r_squared": model.r_squared,
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
        },
    )
    _manifest(args, args.out, [args.densities, args.yfile])


_HANDLERS = {
    "estimate": _cmd_estimate,
    "transform": _cmd_transform,
    "analyze": _cmd_analyze,
    "mean": _cmd_mean,
    "simulate": _cmd_simulate,
    "regress": _cmd_regress,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _HANDLERS[args.command](args)
    except (DensfdaError, OSError, ValueError, KeyError) as exc:
        json.dump(
            {"error": type(exc).__name__, "message": str(exc)},
            sys.stderr,
        )
        sys.stderr.write("\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
