"""Command-line front end: estimate, transform, analyze, modes, mean,
simulate, regress.

``analyze`` writes the FVE report of one method (JSON) and its modes of
variation (``<output stem>_modes.csv``) from one fit.

Every command writes its outputs plus a ``<output>.manifest.json``
recording the argv, seed, input digests and artifact version.  Exit
codes: 0 on success, 2 on usage errors (argparse), 1 on computation
errors, which are also reported as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import fileio, fpca
from .density import DEFAULT_FLOOR, Grid
from .errors import DensfdaError
from .frechet import (
    FittedMethod,
    Metric,
    MethodKind,
    fisher_rao_mean,
    frechet_mean,
    fve_report,
)
from .kde import KdeConfig, Kernel, default_bandwidth, estimate_density
from .regression import cv_mse, fit_flr, project_scores, score_basis
from .simulation import SettingSpec, default_methods, run_comparison
from .transforms import TransformKind, TransformSpec, forward_rows, inverse_rows


def _support(text: str) -> tuple[float, float]:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _alphas(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _method(name: str, delta: float) -> MethodKind:
    return {
        "lqd": MethodKind.lqd(),
        "fpca": MethodKind.ordinary_fpca(),
        "hs": MethodKind.hilbert_sphere(),
        "loghazard": MethodKind.log_hazard(delta),
    }[name]


def _metric(name: str) -> Metric:
    return Metric.L2 if name == "l2" else Metric.WASSERSTEIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densfda",
        description="Functional data analysis for samples of density functions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--grid-points", type=int, default=512)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[common], help="kernel density estimation")
    p.add_argument("--in", dest="infile", required=True, help="subject_id,value CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--bandwidth", type=float, default=None, help="default n**(-1/3)")
    p.add_argument("--kernel", choices=[k.value for k in Kernel], default="gaussian")
    p.add_argument("--support", type=_support, required=True, metavar="a,b")
    p.add_argument("--floor", type=float, default=DEFAULT_FLOOR)

    p = sub.add_parser("transform", parents=[common], help="apply or invert a transform")
    p.add_argument("--kind", choices=["lqd", "loghazard"], default="lqd")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--support", type=_support, default=(0.0, 1.0), metavar="a,b",
                   help="native support restored by --inverse")

    p = sub.add_parser("analyze", parents=[common], help="FVE report plus modes")
    p.add_argument("--method", choices=["lqd", "fpca", "hs", "loghazard"], default="lqd")
    p.add_argument("--metric", choices=["l2", "wasserstein"], default="l2")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--p", type=float, default=0.9)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--modes-alpha", type=_alphas, default=[-2.0, -1.0, 0.0, 1.0, 2.0])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("modes", parents=[common], help="modes of variation CSV")
    p.add_argument("--method", choices=["lqd", "fpca", "hs", "loghazard"], default="lqd")
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=_alphas, default=[-2.0, -1.0, 0.0, 1.0, 2.0])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mean", parents=[common], help="Fréchet mean density")
    p.add_argument("--metric", choices=["l2", "wasserstein", "fisherrao"], default="wasserstein")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", parents=[common], help="replicated method comparison")
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
    p.add_argument("--boxplot-csv", default=None, help="FVE values per method")

    p = sub.add_parser("regress", parents=[common], help="scalar-on-density regression")
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
    densities, ids = [], []
    for sid, samples in groups.items():
        h = args.bandwidth if args.bandwidth is not None else default_bandwidth(len(samples))
        cfg = KdeConfig(h, Kernel(args.kernel), grid, args.floor)
        densities.append(estimate_density(samples, cfg))
        ids.append(sid)
    fileio.write_density_csv(args.out, densities, ids)
    _manifest(args, args.out, [args.infile])


def _spec(args) -> TransformSpec:
    kind = TransformKind.LOG_QUANTILE_DENSITY if args.kind == "lqd" else TransformKind.LOG_HAZARD
    return TransformSpec(kind, args.delta)


def _cmd_transform(args):
    spec = _spec(args)
    if args.inverse:
        tgrid, x, ids = fileio.read_transformed_csv(args.infile)
        grid = Grid(*args.support, tgrid.m)  # rejects an empty support before dividing by it
        values = inverse_rows(x, tgrid, spec, args.support)
        fileio._write_table(args.out, "x", grid.points, values, ids)
    else:
        densities, ids = fileio.read_density_csv(args.infile)
        values, grid = fpca.stack(densities)
        fileio.write_transformed_csv(args.out, *forward_rows(values, grid, spec), ids)
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
    densities, _ = fileio.read_density_csv(args.infile)
    fitted = FittedMethod(densities, _method(args.method, args.delta))
    report = fve_report(fitted, _metric(args.metric), args.kmax, args.p)
    fileio.write_json(args.out, _report_payload(report, fitted))
    modes_path = f"{os.path.splitext(args.out)[0]}_modes.csv"
    ks = range(1, min(report.selected_k, 2, fitted.n_components) + 1)
    _write_modes(modes_path, fitted, ks, args.modes_alpha)
    _manifest(args, args.out, [args.infile])


def _write_modes(path, fitted, ks, alphas):
    columns, ids = [], []
    for k in ks:
        for alpha in alphas:
            columns.append(fitted.mode(k, alpha).values)
            ids.append(f"mode{k}_alpha{alpha:g}")
    grid = fitted.grid
    fileio._write_table(path, "x", grid.points, columns, ids)


def _cmd_modes(args):
    densities, _ = fileio.read_density_csv(args.infile)
    fitted = FittedMethod(densities, _method(args.method, args.delta))
    _write_modes(args.out, fitted, [args.k], args.alpha)
    _manifest(args, args.out, [args.infile])


def _cmd_mean(args):
    densities, _ = fileio.read_density_csv(args.infile)
    if args.metric == "fisherrao":
        mean = fisher_rao_mean(densities)
    else:
        mean = frechet_mean(densities, _metric(args.metric))
    fileio.write_density_csv(args.out, [mean], [f"{args.metric}_mean"])
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
    methods = default_methods(args.blend)
    result = run_comparison(spec, methods, k, _metric(args.metric), args.reps)
    fileio.write_json(args.out, result.summary())
    if args.boxplot_csv:
        with open(args.boxplot_csv, "w") as fh:
            fh.write("replication," + ",".join(m.label for m in methods) + "\n")
            table = np.column_stack([result.fve_at_k(m.label) for m in methods])
            for r, row in enumerate(table):
                fh.write(",".join([str(r)] + [fileio.FLOAT_FMT % v for v in row]) + "\n")
    _manifest(args, args.out, [])


def _cmd_regress(args):
    densities, ids = fileio.read_density_csv(args.densities)
    responses = fileio.read_response_csv(args.yfile)
    keep = [(f, responses[sid]) for f, sid in zip(densities, ids) if sid in responses]
    if len(keep) < len(densities):
        print(f"dropping {len(densities) - len(keep)} subjects without responses", file=sys.stderr)
    sample = [f for f, _ in keep]
    y = np.array([v for _, v in keep])
    basis = score_basis(sample, args.method, args.K)
    model = fit_flr(project_scores(sample, basis), y, basis)
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
    "modes": _cmd_modes,
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
