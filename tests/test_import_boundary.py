"""Every command runs on NumPy alone.

Each check runs ``cli.main`` in a fresh interpreter, because this test
process has loaded SciPy long before, and blocks SciPy there first:
with ``sys.modules["scipy"]`` set to None, any SciPy import raises.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from densfda import DensitySample, Grid, truncated_normal_rows
from densfda.fileio import write_density_csv

SRC = Path(__file__).resolve().parents[1] / "src"

# blocks SciPy, then runs the argv lists given as JSON and prints the
# exit code of each
_PROBE = """
import json, sys
sys.modules["scipy"] = None
import densfda.cli

print(json.dumps([[" ".join(argv), densfda.cli.main(argv)] for argv in json.loads(sys.argv[1])]))
"""


def _probe(commands) -> list:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """A small density table, its responses and a draw table, all in one directory."""
    d = tmp_path_factory.mktemp("tables")
    rng = np.random.default_rng(5)
    grid = Grid(-5.0, 5.0, 64)
    mus, sigmas = rng.uniform(-2.0, 2.0, 12), np.exp(rng.uniform(-0.5, 0.5, 12))
    ids = [f"s{i}" for i in range(12)]
    write_density_csv(d / "d.csv", DensitySample(truncated_normal_rows(mus, sigmas, grid), grid), ids)
    (d / "y.csv").write_text("subject_id,value\n" + "".join(f"{s},{m}\n" for s, m in zip(ids, mus)))
    draws = rng.uniform(0.1, 0.9, 50).tolist()
    (d / "s.csv").write_text("subject_id,value\n" + "".join(f"a,{v!r}\n" for v in draws))
    return d


def test_numpy_only_commands(tables):
    d = str(tables)
    commands = [
        ["analyze", "--method", method, "--metric", metric, "--in", f"{d}/d.csv", "--out", f"{d}/a.json"]
        for method in ("lqd", "fpca", "hs", "loghazard") for metric in ("l2", "wasserstein")
    ]
    commands += [
        ["mean", "--metric", metric, "--in", f"{d}/d.csv", "--out", f"{d}/mean.csv"]
        for metric in ("l2", "wasserstein", "fisher_rao")
    ]
    commands += [
        ["transform", "--kind", "lqd", "--in", f"{d}/d.csv", "--out", f"{d}/t.csv"],
        ["transform", "--kind", "lqd", "--inverse", "--in", f"{d}/t.csv", "--out", f"{d}/back.csv"],
        ["transform", "--kind", "loghazard", "--in", f"{d}/d.csv", "--out", f"{d}/lh.csv"],
        ["transform", "--kind", "loghazard", "--inverse", "--in", f"{d}/lh.csv", "--out", f"{d}/lh_back.csv"],
        ["regress", "--K", "1", "--folds", "3", "--repeats", "1",
         "--densities", f"{d}/d.csv", "--y", f"{d}/y.csv", "--out", f"{d}/reg.json"],
        ["estimate", "--support", "0,1", "--in", f"{d}/s.csv", "--out", f"{d}/e.csv"],
        ["simulate", "--setting", "3", "--n", "6", "--reps", "1", "--grid-points", "64",
         "--out", f"{d}/sim.json"],
        ["simulate", "--setting", "2", "--observed", "sampled", "--n", "6", "--reps", "1",
         "--grid-points", "64", "--metric", "wasserstein", "--out", f"{d}/sim_sampled.json"],
    ]
    assert _probe(commands) == [[" ".join(argv), 0] for argv in commands]
