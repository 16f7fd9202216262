"""Command line interface: formats, exit codes, determinism.

Most tests call `cli.main` in process; `spawn` runs the real
`python -m reuleaux.cli` for what only a separate process shows.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import pytest

from reuleaux import cli, regular

CLI = [sys.executable, "-m", "reuleaux.cli"]


def run(*args) -> subprocess.CompletedProcess:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse: usage errors, --help
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(),
                                       err.getvalue())


def spawn(*args) -> subprocess.CompletedProcess:
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


class TestCheeger:
    def test_regular_triangle_json(self):
        res = spawn("cheeger", "--regular", "1")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert 0.22802 <= data["R"] <= 0.22803
        assert abs(data["h"] - 1.0 / data["R"]) < 1e-9
        assert len(data["contacts"]) == 3

    def test_random_below_triangle(self):
        res = run("cheeger", "--random", "2,30,5")
        assert res.returncode == 0
        assert json.loads(res.stdout)["h"] < 4.386

    def test_csv_format(self):
        res = run("cheeger", "--regular", "2", "--format", "csv")
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0].startswith("R,")
        assert lines[1].startswith("h,")
        assert sum(1 for ln in lines if ln.startswith("contact,")) == 5

    def test_svg_file(self, tmp_path):
        out = tmp_path / "tri.svg"
        res = run("cheeger", "--regular", "1", "--svg", str(out))
        assert res.returncode == 0
        svg = out.read_text()
        assert svg.count("<path") == 3
        assert 'viewBox="0 0 1000 1000"' in svg

    @pytest.mark.parametrize("target", ["dir", "missing/x.svg"])
    def test_unwritable_svg_exits_2(self, tmp_path, target):
        path = tmp_path if target == "dir" else tmp_path / target
        res = run("cheeger", "--regular", "1", "--svg", str(path))
        assert res.returncode == 2
        assert res.stderr.startswith("error: cannot write SVG")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_input_file(self, tmp_path):
        first = run("cheeger", "--regular", "2")
        from reuleaux import polygon_to_json, regular
        f = tmp_path / "poly.json"
        f.write_text(json.dumps(polygon_to_json(regular(2))))
        res = run("cheeger", "--input", str(f))
        assert res.returncode == 0
        assert json.loads(res.stdout)["R"] == json.loads(first.stdout)["R"]

    def test_deterministic_bytes(self):
        a = spawn("cheeger", "--random", "3,25,7")
        b = spawn("cheeger", "--random", "3,25,7")
        assert a.stdout == b.stdout

    def test_even_vertex_count_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"vertices": [[0, 0], [1, 0],
                                              [0.5, 0.8], [0.2, 0.3]]}))
        res = run("cheeger", "--input", str(f))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_malformed_json_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        res = run("cheeger", "--input", str(f))
        assert res.returncode == 2

    def test_no_source_exits_2(self):
        res = spawn("cheeger")
        assert res.returncode == 2

    @pytest.mark.parametrize("data,needle", [
        ({"vertices": [["a", 0]]}, "number pairs"),
        ({"vertices": 5}, "number pairs"),
        ({"vertices": None}, "number pairs"),
        ({"vertices": [[0, 0], [1, 0], [0.5]]}, "number pairs"),
        ({"vertices": [[1], [2], [3]]}, "number pairs"),
        ([[0, 0], [1, 0], [0.5, 0.8]], "'vertices'"),
        (5, "'vertices'"),
        ({"vertices": regular(2).vertices[::-1].tolist()}, "clockwise"),
        ({"vertices": (0.9 * regular(1).vertices).tolist()}, "at distance"),
    ])
    def test_malformed_vertices_exit_2(self, tmp_path, data, needle):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        res = run("cheeger", "--input", str(f))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert needle in res.stderr
        assert "np.float64" not in res.stderr

    @pytest.mark.parametrize("spec,needle", [
        ("2,10,-1", "seed >= 0"),
        ("2,-5,1", "steps >= 0"),
        ("2,10", "N,steps,seed"),
        ("2,x,1", "integers"),
    ])
    def test_malformed_random_exits_2(self, spec, needle):
        res = run("cheeger", "--random", spec)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error:") and needle in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
    def test_bad_tolerance_exits_2(self, tol):
        res = run("cheeger", "--regular", "1", "--tol", tol)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stdout == ""


class TestTable1:
    def test_closed_pipe_exits_quietly(self):
        # the reader closes its end while the child still imports numpy
        proc = subprocess.Popen(CLI + ["table1"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        proc.wait()
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_check_passes(self):
        res = run("table1", "--check")
        assert res.returncode == 0

    def test_single_row(self):
        res = run("table1", "--n", "2")
        lines = res.stdout.strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("2,5,0.9687")

    def test_json_rows(self):
        res = run("table1", "--format", "json")
        data = json.loads(res.stdout)
        assert [row["N"] for row in data] == list(range(2, 10))

    def test_unknown_row_exits_2(self):
        res = run("table1", "--n", "17")
        assert res.returncode == 2


class TestVerify:
    def test_fast_subset_passes(self):
        res = run("verify", "--only", "triangle", "--only", "disk",
                  "--only", "minr")
        assert res.returncode == 0
        assert res.stdout.count("[PASS]") == 3

    def test_json_format(self):
        res = run("verify", "--only", "table1", "--format", "json")
        data = json.loads(res.stdout)
        assert data[0]["name"] == "table1"
        assert data[0]["passed"] is True

    def test_unknown_name_exits_2(self):
        res = run("verify", "--only", "nonsense")
        assert res.returncode == 2


class TestOptimize:
    def test_triangle_stationary(self):
        res = run("optimize", "--regular", "1", "--iters", "5")
        assert res.returncode == 0
        assert "outcome: stationary" in res.stderr

    def test_pentagon_boundary(self):
        res = run("optimize", "--regular", "2", "--iters", "200",
                  "--format", "json")
        assert res.returncode == 0
        data = json.loads(res.stdout)
        assert data["outcome"] == "boundary"
        hs = [s["h"] for s in data["steps"]]
        assert all(b >= a - 1e-14 for a, b in zip(hs, hs[1:]))

    def test_zero_iters(self):
        res = run("optimize", "--regular", "2", "--iters", "0")
        assert res.returncode == 0
        assert "0 accepted moves" in res.stderr

    @pytest.mark.parametrize("iters", ["-3", "x"])
    def test_bad_iters_exits_2(self, iters):
        res = run("optimize", "--regular", "2", "--iters", iters)
        assert res.returncode == 2
        assert "--iters" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_csv_trajectory(self):
        res = run("optimize", "--regular", "1", "--iters", "2")
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "iteration,k,eps,h,residual_max"
