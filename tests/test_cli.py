import csv
import json
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import densfda
from densfda import (
    DEFAULT_FLOOR,
    CsvFormatError,
    LQD,
    SIMULATION_BLEND,
    DensitySample,
    FittedMethod,
    Grid,
    KdeConfig,
    Kernel,
    LogHazard,
    TransformMethod,
    default_bandwidth,
    estimate_rows,
    forward_rows,
    inverse_rows,
    normalize_rows,
    truncated_normal_rows,
    unit_grid,
)
from densfda.cli import main
from densfda.density import DEFAULT_GRID_SIZE
from densfda.fileio import (
    FLOAT_FMT,
    _read_table,
    _write_table,
    read_density_csv,
    read_samples_csv,
    read_transformed_csv,
    write_density_csv,
)

from conftest import from_transform, lqd_rank2_basis, smooth_density, stack, sup_distance


@pytest.fixture
def density_csv(tmp_path, rng):
    grid = Grid(0.0, 1.0, 101)
    densities = stack([smooth_density(rng, grid) for _ in range(6)])
    path = tmp_path / "densities.csv"
    write_density_csv(path, densities)
    return path, densities


def _read_table_reference(path):
    """Reference: the table parsed field by field with ``csv.reader`` and ``float``."""
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return rows[0], data[:, 0], data[:, 1:].T


def _write_table_reference(path, first_name, points, columns, ids):
    """Reference: the table written row by row with ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([first_name, *ids])
        for j, x in enumerate(points):
            writer.writerow([FLOAT_FMT % x, *(FLOAT_FMT % col[j] for col in columns)])


class TestFileIO:
    @pytest.mark.parametrize("layout", ["written", "raw", "crlf", "blank-lines", "no-final-newline"])
    def test_reader_matches_csv_reference(self, tmp_path, rng, layout):
        grid = Grid(-2.0, 3.0, 129)
        path = tmp_path / "d.csv"
        values = [rng.uniform(0.5, 2.0, grid.m) for _ in range(4)]
        if layout == "raw":  # columns of other than unit mass, renormalized on reading
            _write_table(path, "x", grid.points, values, ["a", "b", "c", "d"])
        else:
            write_density_csv(path, DensitySample(normalize_rows(np.stack(values), grid), grid))
        text = path.read_bytes().decode()
        lines = text.replace("\r\n", "\n").split("\n")
        text = {
            "written": text,
            "raw": text,
            "crlf": "\r\n".join(lines),
            "blank-lines": "\n\n".join(lines[:5]) + "\n\n" + "\n".join(lines[5:]) + "\n\n",
            "no-final-newline": "\n".join(lines).rstrip("\n"),
        }[layout]
        path.write_bytes(text.encode())
        header, points, columns = _read_table(path)
        ref_header, ref_points, ref_columns = _read_table_reference(path)
        assert header == ref_header
        np.testing.assert_array_equal(points, ref_points)
        np.testing.assert_array_equal(columns, ref_columns)
        densities, ids = read_density_csv(path)
        assert ids == ref_header[1:]
        for f, col in zip(densities, ref_columns):
            assert f.grid == grid
            np.testing.assert_array_equal(f.values, normalize_rows(col[None], grid, DEFAULT_FLOOR)[0])

    def test_writer_matches_csv_writer(self, tmp_path, rng):
        points = Grid(-1.0, 1.0, 33).points
        columns = [rng.normal(size=33) * 10.0 ** rng.integers(-300, 300) for _ in range(3)]
        columns.append(np.array([np.inf, -np.inf, np.nan, 0.0, -0.0] + [1e-320] * 28))
        ids = ["plain", "with,comma", 'with"quote', " padded "]
        _write_table(tmp_path / "got.csv", "x", points, columns, ids)
        _write_table_reference(tmp_path / "want.csv", "x", points, columns, ids)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_writer_holds_less_than_the_file(self, tmp_path, rng):
        # the analyze benchmark's table size: 200 densities on 1024 points
        grid = Grid(-5.0, 5.0, 1024)
        columns = rng.uniform(0.0, 1.0, (200, grid.m))
        ids = [f"subject_{i + 1}" for i in range(200)]
        path = tmp_path / "big.csv"
        tracemalloc.start()
        try:
            _write_table(path, "x", grid.points, columns, ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size

    @pytest.mark.parametrize("fault", ["short-row", "non-numeric", "not-utf8"])
    def test_fault_deep_in_a_large_table_is_placed(self, tmp_path, rng, fault):
        # the read streams the file, so a fault past its first 64 KiB must
        # still be named by its line, or by its byte offset in the file
        grid, n, line = Grid(0.0, 1.0, 400), 40, 300
        path = tmp_path / "big.csv"
        _write_table(path, "x", grid.points, rng.uniform(0.5, 1.5, (n, grid.m)), [f"s{i}" for i in range(n)])
        lines = path.read_bytes().splitlines(keepends=True)
        start = sum(map(len, lines[: line - 1]))
        assert start > 64 * 1024
        fields = lines[line - 1].rstrip(b"\r\n").split(b",")
        if fault == "short-row":
            fields.pop()
            want = f"line {line} has {n} fields, the header has {n + 1}"
        elif fault == "non-numeric":
            fields[6] = b"abc"
            want = f"line {line}, field 7 is not a number: 'abc'"
        else:
            fields[6] = b"\xe9" + fields[6]
            want = f"byte {start + len(b','.join(fields[:6])) + 1} is not utf-8 text"
        lines[line - 1] = b",".join(fields) + b"\r\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(CsvFormatError) as err:
            read_density_csv(path)
        assert str(err.value) == f"{path}: {want}"

    def test_density_csv_roundtrip(self, tmp_path, rng):
        grid = Grid(-3.0, 3.0, 257)
        densities = stack([smooth_density(rng, grid) for _ in range(3)])
        path = tmp_path / "d.csv"
        write_density_csv(path, densities, ids=["a", "b", "c"])
        back, ids = read_density_csv(path)
        assert ids == ["a", "b", "c"]
        for f, g in zip(densities, back):
            assert np.abs(f.values - g.values).max() <= 1e-12

    def test_sample_csv_roundtrip(self, tmp_path, rng):
        sample = stack([smooth_density(rng, Grid(-3.0, 3.0, 257)) for _ in range(3)])
        path = tmp_path / "d.csv"
        write_density_csv(path, sample, ["a", "b", "c"])
        back, ids = read_density_csv(path)
        assert isinstance(back, DensitySample) and ids == ["a", "b", "c"]
        assert back.grid == sample.grid
        np.testing.assert_array_equal(back.values, sample.values)

    def test_samples_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("subject_id,value\nA,0.5\nA,0.25\nB,0.75\n")
        groups = read_samples_csv(path)
        np.testing.assert_array_equal(groups["A"], [0.5, 0.25])
        np.testing.assert_array_equal(groups["B"], [0.75])


class TestEstimate:
    def test_end_to_end(self, tmp_path, rng):
        samples = tmp_path / "samples.csv"
        lines = ["subject_id,value"]
        for sid in ("s1", "s2"):
            for v in rng.uniform(0.1, 0.9, 300):
                lines.append(f"{sid},{v}")
        samples.write_text("\n".join(lines) + "\n")
        out = tmp_path / "dens.csv"
        code = main([
            "estimate", "--in", str(samples), "--out", str(out),
            "--support", "0,1", "--grid-points", "201",
        ])
        assert code == 0
        densities, ids = read_density_csv(out)
        assert ids == ["s1", "s2"]
        assert densities[0].grid.m == 201
        manifest = json.loads((tmp_path / "dens.csv.manifest.json").read_text())
        assert manifest["python_version"] == platform.python_version()
        assert manifest["numpy_version"] == np.__version__
        assert "scipy_version" not in manifest  # no command runs SciPy
        assert manifest["artifact_version"] == densfda.__version__

    def test_writes_the_row_kernel_per_subject(self, tmp_path, rng):
        # subjects with unequal draw counts get their own default bandwidth
        draws = {"a": rng.beta(2, 3, 40), "b": rng.beta(2, 3, 13), "c": rng.beta(2, 3, 200)}
        samples = tmp_path / "samples.csv"
        samples.write_text("subject_id,value\n" + "".join(
            f"{sid},{float(v)!r}\n" for sid, values in draws.items() for v in values
        ))
        out, want = tmp_path / "dens.csv", tmp_path / "want.csv"
        args = ["estimate", "--in", str(samples), "--out", str(out), "--support", "0,1", "--grid-points", "300"]
        assert main(args) == 0
        grid = Grid(0.0, 1.0, 300)
        rows = [
            estimate_rows(values[None], KdeConfig(default_bandwidth(len(values)), Kernel.GAUSSIAN, grid))[0]
            for values in draws.values()
        ]
        write_density_csv(want, DensitySample(np.stack(rows), grid), list(draws))
        assert out.read_bytes() == want.read_bytes()

    def test_bandwidth_is_read_on_the_unit_support(self, tmp_path, capsys):
        # 3 is below half the width of [-5, 5], but --bandwidth is read on [0, 1]
        samples = tmp_path / "samples.csv"
        samples.write_text("subject_id,value\na,-1.0\na,0.5\na,2.0\n")
        out = tmp_path / "dens.csv"
        args = ["estimate", "--support=-5,5", "--bandwidth", "3", "--in", str(samples), "--out", str(out)]
        assert main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "BadBandwidthError",
            "message": "bandwidth must be in (0, 0.5) on the support mapped to [0, 1], got 3.0",
        }
        assert not out.exists()


class TestTransformCli:
    def test_forward_inverse_roundtrip(self, tmp_path, density_csv):
        path, densities = density_csv
        fwd = tmp_path / "x.csv"
        assert main(["transform", "--kind", "lqd", "--in", str(path), "--out", str(fwd)]) == 0
        back = tmp_path / "back.csv"
        assert main([
            "transform", "--kind", "lqd", "--inverse",
            "--in", str(fwd), "--out", str(back), "--support", "0,1",
        ]) == 0
        recovered, _ = read_density_csv(back)
        for f, g in zip(densities, recovered):
            assert sup_distance(f, g) <= 5e-3  # display-resolution grid

    @pytest.mark.parametrize("m", [64, 1024])
    @pytest.mark.parametrize("kind", ["lqd", "loghazard"])
    def test_tables_match_the_row_kernels(self, tmp_path, rng, kind, m):
        # one call per table: each output column is that row of the kernels, to the bit
        grid = Grid(-2.0, 3.0, m)
        densities = stack([smooth_density(rng, grid) for _ in range(5)])
        path, fwd, back = tmp_path / "d.csv", tmp_path / "x.csv", tmp_path / "back.csv"
        write_density_csv(path, densities)
        spec = LQD if kind == "lqd" else LogHazard(0.2)
        tgrid, x = forward_rows(np.stack([f.values for f in densities]), grid, spec)
        args = ["transform", "--kind", kind, "--delta", "0.2"]
        assert main([*args, "--in", str(path), "--out", str(fwd)]) == 0
        got_tgrid, got_x, ids = read_transformed_csv(fwd)
        assert (got_tgrid, ids) == (tgrid, [f"subject_{i}" for i in range(1, 6)])
        np.testing.assert_array_equal(got_x, x)
        assert main([*args, "--inverse", "--support=-2,3", "--in", str(fwd), "--out", str(back)]) == 0
        header, points, values = _read_table(back)
        np.testing.assert_array_equal(points, grid.points)
        np.testing.assert_array_equal(values, inverse_rows(x, tgrid, spec, (-2.0, 3.0)))

    @pytest.mark.parametrize("support", ["1,1", "1,0"])
    def test_empty_support_reports_one_json_line(self, tmp_path, capsys, support):
        path, out = tmp_path / "x.csv", tmp_path / "back.csv"
        _write_table(path, "t", unit_grid(16).points, [np.zeros(16)], ["s1"])
        args = ["transform", "--inverse", f"--support={support}", "--in", str(path), "--out", str(out)]
        assert main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BadArgumentError"
        assert not out.exists()

    @pytest.mark.parametrize("support", ["0,1e-320", "-1e308,1e308"], ids=["too-narrow", "too-wide"])
    def test_support_that_overflows_reports_one_json_line(self, tmp_path, capsys, density_csv, support):
        # densities over a width of 1e-320 overflow, and so does the width 2e308;
        # neither may print a RuntimeWarning (pyproject fails on one)
        path, _ = density_csv
        fwd, out = tmp_path / "x.csv", tmp_path / "back.csv"
        assert main(["transform", "--in", str(path), "--out", str(fwd)]) == 0
        args = ["transform", "--inverse", f"--support={support}", "--in", str(fwd), "--out", str(out)]
        assert main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteError"
        assert not out.exists()

    def test_lqd_ignores_delta(self, tmp_path, density_csv):
        # delta belongs to the log hazard transform; LQD neither reads nor checks it
        path, _ = density_csv
        default, other = tmp_path / "x.csv", tmp_path / "x_delta.csv"
        assert main(["transform", "--kind", "lqd", "--in", str(path), "--out", str(default)]) == 0
        assert main(["transform", "--kind", "lqd", "--delta", "0.7", "--in", str(path), "--out", str(other)]) == 0
        assert other.read_bytes() == default.read_bytes()

    def test_inverse_of_another_transform_exits_1(self, tmp_path, density_csv, capsys):
        # an LQD table spans t in [0, 1]; the log hazard domain is [0, 1 - delta]
        path, _ = density_csv
        fwd, out = tmp_path / "x.csv", tmp_path / "back.csv"
        assert main(["transform", "--kind", "lqd", "--in", str(path), "--out", str(fwd)]) == 0
        capsys.readouterr()
        args = ["transform", "--kind", "loghazard", "--inverse", "--in", str(fwd), "--out", str(out)]
        assert main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "GridMismatchError"
        assert not out.exists()

    def test_overflow_reports_one_json_line(self, tmp_path, capsys):
        # X far above and far below zero: exp(-X) overflows in the inverse
        m = 64
        x = np.where(np.arange(m) < m // 2, 699.0, -800.0)
        path = tmp_path / "x.csv"
        _write_table(path, "t", unit_grid(m).points, [x], ["s1"])
        out = tmp_path / "back.csv"
        assert main(["transform", "--kind", "lqd", "--inverse", "--in", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteError"
        assert not out.exists()


class TestAnalyze:
    def test_rank_one_fixture_selects_one(self, tmp_path, rng):
        tgrid, rho1, _ = lqd_rank2_basis(101)
        densities = stack([from_transform(tgrid, c * rho1, LQD) for c in rng.uniform(-0.7, 0.7, 12)])
        path = tmp_path / "rank1.csv"
        write_density_csv(path, densities)
        out = tmp_path / "report.json"
        code = main([
            "analyze", "--method", "lqd", "--p", "0.9",
            "--in", str(path), "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["selected_k"] == 1
        assert report["threshold_reached"] is True
        assert (tmp_path / "report_modes.csv").exists()

    @pytest.mark.parametrize("command", ["analyze"])
    def test_fits_the_method_once(self, tmp_path, density_csv, monkeypatch, command):
        from densfda import cli

        fits = []

        class CountingFit(cli.FittedMethod):
            def __init__(self, *args, **kwargs):
                fits.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "FittedMethod", CountingFit)
        path, _ = density_csv
        out = tmp_path / "r.json"
        assert main([command, "--kmax", "3", "--in", str(path), "--out", str(out)]) == 0
        assert len(fits) == 1
        assert len(json.loads(out.read_text())["fve"]) == 3

    @pytest.mark.parametrize("command, p", [("analyze", "1.5"), ("analyze", "0")])
    def test_p_outside_unit_interval_exits_1(self, tmp_path, capsys, density_csv, command, p):
        path, _ = density_csv
        out = tmp_path / "r.json"
        assert main([command, "--p", p, "--in", str(path), "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "BadArgumentError"
        assert not out.exists()

    def test_modes_beyond_components_exit_1(self, tmp_path, rng, capsys):
        grid = Grid(0.0, 1.0, 101)
        path = tmp_path / "d.csv"
        write_density_csv(path, stack([smooth_density(rng, grid) for _ in range(8)]))
        out = tmp_path / "r.json"
        assert main(["analyze", "--modes-k", "50", "--in", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "KTooLargeError"
        assert not out.exists()
        assert not (tmp_path / "r_modes.csv").exists()

    def test_modes_k_below_one_exits_1(self, tmp_path, density_csv, capsys):
        path, _ = density_csv
        out = tmp_path / "r.json"
        assert main(["analyze", "--modes-k", "0", "--in", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert json.loads(lines[0]) == {"error": "BadArgumentError", "message": "k must be >= 1, got 0"}
        assert len(lines) == 1 and not out.exists()

    def test_modes_k_selects_the_components(self, tmp_path, density_csv):
        path, _ = density_csv
        out, want = tmp_path / "r.json", tmp_path / "want.csv"
        assert main(["analyze", "--modes-k", "1,3", "--in", str(path), "--out", str(out)]) == 0
        alphas = (-2.0, -1.0, 0.0, 1.0, 2.0)
        ids = [f"mode{k}_alpha{a:g}" for k in (1, 3) for a in alphas]
        assert ids[0] == "mode1_alpha-2" and ids[-1] == "mode3_alpha2"
        sample, _ = read_density_csv(path)
        write_density_csv(want, FittedMethod(sample, TransformMethod()).modes([1, 3], alphas), ids)
        assert (tmp_path / "r_modes.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("kmax", ["0", "-3"])
    def test_kmax_below_one_exits_1(self, tmp_path, density_csv, capsys, kmax):
        path, _ = density_csv
        out = tmp_path / "r.json"
        assert main(["analyze", f"--kmax={kmax}", "--in", str(path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "BadArgumentError", "message": f"k_max must be >= 1, got {kmax}"}
        assert not out.exists()

    def test_delta_read_only_by_log_hazard(self, tmp_path, density_csv, capsys):
        path, _ = density_csv
        outputs = []
        for delta in ([], ["--delta", "0.7"]):
            out = tmp_path / f"r{len(delta)}.json"
            assert main(["analyze", "--method", "lqd", *delta, "--in", str(path), "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), (tmp_path / f"r{len(delta)}_modes.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        args = ["analyze", "--method", "loghazard", "--delta", "0.7", "--in", str(path)]
        assert main([*args, "--out", str(tmp_path / "lh.json")]) == 1
        assert json.loads(capsys.readouterr().err)["message"] == "delta must be in (0, 0.5], got 0.7"

    def test_zero_in_a_column_is_floored(self, tmp_path, rng):
        # read_density_csv floors like estimate does, so one zero fails nothing
        grid = Grid(0.0, 1.0, 101)
        columns = [smooth_density(rng, grid).values for _ in range(6)]
        columns[2] = columns[2].copy()
        columns[2][40] = 0.0
        path = tmp_path / "d.csv"
        _write_table(path, "x", grid.points, columns, [f"s{i}" for i in range(6)])
        assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 0
        _, _, modes = _read_table(tmp_path / "r_modes.csv")
        assert modes.shape[0] > 0 and modes.min() > 0.0

    def test_one_density_gets_grid_only_modes(self, tmp_path, rng):
        grid = Grid(0.0, 1.0, 101)
        path = tmp_path / "d.csv"
        write_density_csv(path, stack([smooth_density(rng, grid)]))
        assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 0
        assert (tmp_path / "r_modes.csv").read_text().splitlines()[0] == "x"

    def test_mean_metrics_are_the_means_table(self, tmp_path, density_csv):
        # one spelling per mean: the choice, the column id and frechet.MEANS
        from densfda.cli import build_parser
        from densfda.frechet import MEANS

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        mean = next(a for a in sub.choices["mean"]._actions if a.dest == "metric")
        assert tuple(mean.choices) == tuple(MEANS) == ("l2", "wasserstein", "fisher_rao")
        path, _ = density_csv
        out, want = tmp_path / "m.csv", tmp_path / "want.csv"
        assert main(["mean", "--metric", "fisher_rao", "--in", str(path), "--out", str(out)]) == 0
        sample, _ = read_density_csv(path)
        write_density_csv(want, MEANS["fisher_rao"](sample, DEFAULT_FLOOR), ["fisher_rao_mean"])
        assert out.read_bytes() == want.read_bytes()

    def test_modes_and_mean_and_fve(self, tmp_path, density_csv):
        path, _ = density_csv
        hs_out = tmp_path / "hs.json"
        assert main(["analyze", "--method", "hs", "--modes-k", "1",
                     "--in", str(path), "--out", str(hs_out)]) == 0
        assert len(_read_table(tmp_path / "hs_modes.csv")[0]) == 6
        mean_out = tmp_path / "mean.csv"
        assert main(["mean", "--metric", "wasserstein",
                     "--in", str(path), "--out", str(mean_out)]) == 0
        mean, _ = read_density_csv(mean_out)
        assert mean[0].grid.m == 101
        fve_out = tmp_path / "fve.json"
        assert main(["analyze", "--method", "fpca", "--kmax", "3",
                     "--in", str(path), "--out", str(fve_out)]) == 0
        payload = json.loads(fve_out.read_text())
        assert len(payload["fve"]) == 3


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "simulate", "--setting", "2", "--n", "12", "--reps", "2",
            "--seed", "7", "--grid-points", "128", "--K", "1",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_boxplot_csv(self, tmp_path, capsys):
        # the per-replication FVE values are in the summary, under fve.<label>.values
        out = tmp_path / "sim.json"
        with pytest.raises(SystemExit) as err:
            main([
                "simulate", "--setting", "1", "--n", "10", "--reps", "2",
                "--seed", "3", "--grid-points", "128",
                "--out", str(out), "--boxplot-csv", str(tmp_path / "fve.csv"),
            ])
        assert err.value.code == 2
        assert "unrecognized arguments: --boxplot-csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_k_below_one_exits_1(self, tmp_path, capsys, k):
        out = tmp_path / "sim.json"
        args = ["simulate", "--setting", "1", "--n", "5", "--reps", "1", "--grid-points", "64"]
        assert main([*args, f"--K={k}", "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "BadArgumentError", "message": f"k must be >= 1, got {k}"}
        assert not out.exists()


    def test_sampled_bad_bandwidth_exits_1(self, tmp_path, capsys):
        # 10 is the whole width of setting 2's support
        out = tmp_path / "sim.json"
        args = ["simulate", "--setting", "2", "--observed", "sampled", "--bandwidth", "10",
                "--reps", "2", "--n", "10", "--grid-points", "64", "--out", str(out)]
        assert main(args) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "BadBandwidthError", "message": "bandwidth must be in (0, 5) on support [-5, 5], got 10.0",
        }
        assert not out.exists()


class TestGridPoints:
    @pytest.mark.parametrize("command", ["transform", "analyze", "mean", "regress"])
    def test_rejected_where_unused(self, capsys, command):
        inputs = ["--densities", "d.csv", "--y", "y.csv"] if command == "regress" else ["--in", "d.csv"]
        with pytest.raises(SystemExit) as err:
            main([command, *inputs, "--out", "o.json", "--grid-points", "7"])
        assert err.value.code == 2
        assert "unrecognized arguments: --grid-points 7" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "transform", "analyze", "mean"])
    def test_seed_rejected_where_unused(self, capsys, command):
        # only simulate and regress draw random numbers
        inputs = ["--in", "d.csv", *(["--support", "0,1"] if command == "estimate" else [])]
        with pytest.raises(SystemExit) as err:
            main([command, *inputs, "--out", "o.json", "--seed", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err

    def test_defaults_are_the_package_constants(self):
        from densfda.cli import build_parser

        parse = build_parser().parse_args
        estimate = parse(["estimate", "--support", "0,1", "--in", "s.csv", "--out", "d.csv"])
        simulate = parse(["simulate", "--setting", "1", "--out", "s.json"])
        assert estimate.grid_points == simulate.grid_points == DEFAULT_GRID_SIZE
        assert simulate.blend == SIMULATION_BLEND

    def test_simulate_uses_it(self, tmp_path, monkeypatch):
        from densfda import cli

        specs, original = [], cli.run_comparison

        def capturing(spec, *args):
            specs.append(spec)
            return original(spec, *args)

        monkeypatch.setattr(cli, "run_comparison", capturing)
        out = tmp_path / "s.json"
        args = ["simulate", "--setting", "1", "--n", "5", "--reps", "1", "--grid-points", "64"]
        assert main(args + ["--out", str(out)]) == 0
        assert specs[0].m == 64


class TestRegress:
    def test_end_to_end(self, tmp_path, rng):
        grid = Grid(-5.0, 5.0, 128)
        mus = rng.uniform(-2.0, 2.0, 30)
        densities = DensitySample(truncated_normal_rows(mus, np.ones(30), grid, 1e-3), grid)
        dpath = tmp_path / "d.csv"
        ids = [f"s{i}" for i in range(30)]
        write_density_csv(dpath, densities, ids)
        ypath = tmp_path / "y.csv"
        lines = ["subject_id,value"] + [f"s{i},{mu}" for i, mu in enumerate(mus)]
        ypath.write_text("\n".join(lines[:-1]) + "\n")  # drop one: listwise deletion
        out = tmp_path / "reg.json"
        code = main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "5",
            "--repeats", "1", "--densities", str(dpath), "--y", str(ypath),
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["r_squared"] > 0.5
        assert payload["cv_mse"] > 0

    def test_method_choices_are_the_score_methods(self):
        from densfda.cli import build_parser
        from densfda.regression import SCORE_METHODS

        sub = next(a for a in build_parser()._actions if a.dest == "command")
        regress = next(a for a in sub.choices["regress"]._actions if a.dest == "method")
        assert tuple(regress.choices) == SCORE_METHODS

    def test_headerless_responses_exit_1(self, tmp_path, rng, capsys):
        # without its header the first subject's response would be read as one
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        ypath.write_text("".join(f"{sid},{i}\n" for i, sid in enumerate(ids)))
        code = main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "3", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "CsvFormatError"
        assert not out.exists()

    def test_transforms_the_sample_once(self, tmp_path, rng, monkeypatch):
        # the in-sample fit and the cross validation share one LQD transform
        from densfda import frechet

        rows = []

        def counting(values, grid, spec):
            rows.append(len(values))
            return forward_rows(values, grid, spec)

        monkeypatch.setattr(frechet, "forward_rows", counting)
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},{i}\n" for i, sid in enumerate(ids)))
        assert main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "3", "--repeats", "2",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ]) == 0
        assert rows == [12]

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_response_exits_1(self, tmp_path, rng, capsys, bad):
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        values = [bad] + [str(i) for i in range(1, 12)]
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},{v}\n" for sid, v in zip(ids, values)))
        code = main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "3", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteError"
        assert not out.exists()

    def test_responses_whose_squares_overflow_exit_1(self, tmp_path, rng, capsys):
        # finite responses of 1e308: their sum of squares overflows, which
        # ends in one JSON line and no RuntimeWarning (pyproject fails on one)
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(6)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},1e308\n" for sid in ids))
        code = main([
            "regress", "--K", "1", "--folds", "2", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteError"
        assert not out.exists()

    def test_negative_k_exits_1(self, tmp_path, rng, capsys):
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},{i}\n" for i, sid in enumerate(ids)))
        code = main([
            "regress", "--method", "lqd", "--K", "-1", "--folds", "3", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "BadArgumentError", "message": "k must be >= 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("repeated", ["densities", "responses"])
    def test_repeated_subject_id_exits_1(self, tmp_path, rng, capsys, repeated):
        # one of two columns or responses named s1 would silently stand for both
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        columns = ["s1", *ids[1:]] if repeated == "densities" else ids
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in columns]), columns)
        responses = [*ids, "s1"] if repeated == "responses" else ids
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},{i}\n" for i, sid in enumerate(responses)))
        code = main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "3", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        faulty = dpath if repeated == "densities" else ypath
        assert json.loads(lines[0]) == {
            "error": "CsvFormatError", "message": f"{faulty}: subject id 's1' appears more than once",
        }
        assert not out.exists()

    def test_response_that_is_no_number_exits_1(self, tmp_path, rng, capsys):
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        values = ["1", "abc"] + [str(i) for i in range(2, 12)]
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},{v}\n" for sid, v in zip(ids, values)))
        code = main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "3", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "CsvFormatError", "message": f"{ypath}: line 3: 'abc' is not a number"}
        assert not out.exists()

    def test_more_folds_than_subjects_exits_1(self, tmp_path, rng, capsys):
        grid = Grid(0.0, 1.0, 64)
        dpath, ypath, out = tmp_path / "d.csv", tmp_path / "y.csv", tmp_path / "reg.json"
        ids = [f"s{i}" for i in range(12)]
        write_density_csv(dpath, stack([smooth_density(rng, grid) for _ in ids]), ids)
        ypath.write_text("subject_id,value\n" + "".join(f"{sid},{i}\n" for i, sid in enumerate(ids)))
        code = main([
            "regress", "--method", "lqd", "--K", "1", "--folds", "13", "--repeats", "1",
            "--densities", str(dpath), "--y", str(ypath), "--out", str(out),
        ])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "BadArgumentError", "message": "folds must be <= n = 12 subjects, got 13",
        }
        assert not out.exists()


class TestErrorPaths:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--setting", "2", "--out", "x.json", "--bogus"])
        assert err.value.code == 2

    def test_modes_command_is_gone(self, capsys):
        # analyze --modes-k writes what the modes command wrote
        with pytest.raises(SystemExit) as err:
            main(["modes", "--k", "1", "--in", "d.csv", "--out", "m.csv"])
        assert err.value.code == 2
        assert "invalid choice: 'modes'" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["analyze", "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def _assert_csv_error(self, code, capsys):
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CsvFormatError"

    def test_estimate_one_field_row_exits_1(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        path.write_text("subject_id,value\nA,0.5\nA\nA,0.25\n")
        code = main(["estimate", "--in", str(path), "--out", str(tmp_path / "d.csv"),
                     "--support", "0,1"])
        self._assert_csv_error(code, capsys)

    @pytest.mark.parametrize(
        "row, error",
        [("0.5,1.0", "CsvFormatError"), ("0.5,1.0,1.0,1.0", "CsvFormatError"),
         ("0.5,1.0,abc", "CsvFormatError")],
        ids=["short-row", "long-row", "non-numeric"],
    )
    def test_bad_density_table_exits_1(self, tmp_path, capsys, row, error):
        lines = ["x,subject_1,subject_2"] + [f"{x},1.0,1.0" for x in (0.0, 0.25, 0.75, 1.0)]
        lines.insert(3, row)
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        captured = capsys.readouterr().err
        assert "Traceback" not in captured
        assert json.loads(captured)["error"] == error

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"x,s\xe91\n0,1\n0.5,1\n1,1\n", "byte 3 is not "),
            (b"x,s1,s2\n0,1,1\n\n0.5,1,abc\n1,1,1\n", "line 4, field 3 is not a number: 'abc'"),
            (b"x,s1\n0,1\n1,1\n", "the first column needs at least 3 rows, got 2"),
            (b"x,s1\n1,1\n0.5,1\n0,1\n", "the first column must rise between finite ends, got 1.0 to 0.0"),
            (b"x,s1\n1,1\n1,1\n1,1\n", "the first column must rise between finite ends, got 1.0 to 1.0"),
            (b"x,s1\n0,1\n0.75,1\n1,1\n", "the first column is not a uniform grid"),
            (b"x,s1\n-1e308,1\n0,1\n1e308,1\n", "the first column spans -1e+308 to 1e+308, a width that overflows"),
        ],
        ids=["not-utf8", "non-numeric", "two-rows", "descending", "zero-width", "non-uniform", "too-wide"],
    )
    def test_table_fault_names_the_file(self, tmp_path, capsys, text, message):
        # the line counts blank lines, as an editor does
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "CsvFormatError"
        assert error["message"].startswith(f"{path}: {message}")

    def test_overflowing_mass_exits_1(self, tmp_path, capsys):
        # positive values whose trapezoid sum overflows: one line, and no
        # RuntimeWarning (pyproject fails on one)
        path = tmp_path / "d.csv"
        path.write_text("x,s1\n" + "".join(f"{x},1e308\n" for x in (0.0, 0.25, 0.5, 0.75, 1.0)))
        assert main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NonFiniteError"

    @pytest.mark.parametrize("bug", [ValueError("bug"), KeyError("bug")], ids=["ValueError", "KeyError"])
    def test_a_bug_is_a_traceback(self, tmp_path, density_csv, monkeypatch, bug):
        # only a DensfdaError or an OSError exits 1; anything else is a bug
        from densfda import cli

        def broken(*args, **kwargs):
            raise bug

        monkeypatch.setattr(cli, "fve_report", broken)
        path, _ = density_csv
        with pytest.raises(type(bug)):
            main(["analyze", "--in", str(path), "--out", str(tmp_path / "r.json")])

    @pytest.mark.parametrize("command", ["analyze"])
    def test_header_without_rows_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "d.csv"
        path.write_text("x,subject_1,subject_2\n")
        code = main([command, "--in", str(path), "--out", str(tmp_path / "r.json")])
        self._assert_csv_error(code, capsys)

    def test_header_only_table_warns_nothing(self, tmp_path):
        # under -W error a warning on the way, such as np.loadtxt's
        # "input contained no data", would end in a traceback
        path = tmp_path / "d.csv"
        path.write_text("x,subject_1,subject_2\n")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "densfda.cli", "analyze",
             "--in", str(path), "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "CsvFormatError", "message": f"{path}: header but no data rows"}

    @pytest.mark.parametrize("command", ["analyze"])
    def test_empty_file_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "d.csv"
        path.write_text("")
        code = main([command, "--in", str(path), "--out", str(tmp_path / "r.json")])
        self._assert_csv_error(code, capsys)

    def test_console_script_runs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "densfda.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "simulate" in out.stdout
