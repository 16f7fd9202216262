"""Command line interface: formats, exit codes, determinism.

Most tests call `cli.main` in process; `spawn` runs the real
`python -m reuleaux.cli` for what only a separate process shows.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys

import pytest

import reuleaux.polygon as polygon_module
from reuleaux import cheeger_set, cli, random_polygon, regular

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


def spawn(*args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run(CLI + list(args), stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


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


class TestArcCap:
    N_CAP = (cli.MAX_ARCS - 1) // 2

    @staticmethod
    def load(*args):
        return cli._load_polygon(cli.build_parser().parse_args(
            ["cheeger", *args]))

    @staticmethod
    def vertex_file(tmp_path, N):
        f = tmp_path / "poly.json"
        f.write_text(json.dumps({"vertices": regular(N).vertices.tolist()}))
        return str(f)

    def test_at_cap_loads(self, tmp_path):
        N = self.N_CAP
        assert self.load("--regular", str(N)).n == cli.MAX_ARCS
        assert self.load("--random", f"{N},3,1").n == cli.MAX_ARCS
        assert self.load("--input", self.vertex_file(tmp_path, N)).n \
            == cli.MAX_ARCS

    @pytest.mark.parametrize("source", ["--regular", "--random"])
    def test_over_cap_refused_before_building(self, monkeypatch, source):
        def refuse(*args):
            raise AssertionError("built a polygon over the cap")

        monkeypatch.setattr(cli, "regular", refuse)
        monkeypatch.setattr(cli, "random_polygon", refuse)
        N = self.N_CAP + 1
        res = run("cheeger", source,
                  str(N) if source == "--regular" else f"{N},3,1")
        assert res.returncode == 2
        assert res.stderr == (f"error: {cli.MAX_ARCS + 2} arcs; at most "
                              f"{cli.MAX_ARCS} are accepted\n")
        assert res.stdout == ""

    def test_over_cap_input_exits_2(self, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("built a polygon over the cap")

        # the raw vertex list is counted before the quadratic build
        path = self.vertex_file(tmp_path, self.N_CAP + 1)
        monkeypatch.setattr(polygon_module, "from_vertices", refuse)
        res = run("optimize", "--input", path)
        assert res.returncode == 2
        assert res.stderr == (f"error: {cli.MAX_ARCS + 2} arcs; at most "
                              f"{cli.MAX_ARCS} are accepted\n")
        assert res.stdout == ""


class TestOutputErrors:
    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("args", [("verify", "--only", "triangle"),
                                      ("table1",)])
    def test_full_stdout_exits_1_with_one_line(self, args):
        with open("/dev/full", "w") as full:
            res = spawn(*args, stdout=full)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("error:")
        assert "No space left on device" in res.stderr
        assert len(res.stderr.splitlines()) == 1


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
        assert "'nonsense'" in res.stderr
        assert "Traceback" not in res.stderr


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


class TestSweep:
    def test_header_and_rows(self):
        res = run("sweep", "--count", "12")
        assert res.returncode == 0
        assert "12 polygons in" in res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "seed,n_arcs,h,inradius,min_arc"
        assert len(lines) == 13

    def test_population_pinned(self):
        # the walk formula, written out here rather than taken from verify
        rows = list(csv.reader(io.StringIO(run("sweep", "--count",
                                               "12").stdout)))[1:]
        for s in (0, 7, 11):
            sol = cheeger_set(random_polygon(s % 6 + 1, 30 + (s * 7) % 21, s))
            assert rows[s][0] == str(s)
            assert rows[s][2] == repr(sol.h)

    def test_zero_count(self):
        res = run("sweep", "--count", "0")
        assert res.returncode == 0
        assert res.stdout == "seed,n_arcs,h,inradius,min_arc\n"
        assert "no polygon made" in res.stderr

    @pytest.mark.parametrize("count", ["-2", "1.5", "x"])
    def test_bad_count_exits_2(self, count):
        res = run("sweep", "--count", count)
        assert res.returncode == 2
        assert "--count" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_beaten_triangle_exits_3(self, monkeypatch):
        monkeypatch.setattr(cli, "h_triangle", lambda: 4.0)
        res = run("sweep", "--count", "2")
        assert res.returncode == 3
        assert "WARNING" in res.stderr


class TestFigures:
    def test_four_overlays(self, tmp_path):
        res = run("figures", "--output-dir", str(tmp_path))
        assert res.returncode == 0
        names = ("triangle.svg", "pentagon.svg", "perturbed.svg",
                 "minarea_0.45.svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        for name in names:
            svg = (tmp_path / name).read_text(encoding="utf-8")
            assert svg.startswith("<svg")
            # the overlays draw body, inner parallel body and Cheeger set
            assert svg.count("<path") == (1 if name.startswith("minarea") else 3)

    def test_missing_directory_created(self, tmp_path):
        res = run("figures", "--output-dir", str(tmp_path / "a" / "b"))
        assert res.returncode == 0
        assert len(list((tmp_path / "a" / "b").iterdir())) == 4

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_unwritable_directory_exits_2(self, tmp_path, target):
        (tmp_path / "file").write_text("")
        res = run("figures", "--output-dir", str(tmp_path / target))
        assert res.returncode == 2
        assert res.stderr.startswith("error: cannot write")
        assert "Traceback" not in res.stderr
        assert res.stdout == ""
