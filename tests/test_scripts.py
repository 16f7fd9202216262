"""Smoke tests for the runnable scripts in scripts/."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_render_figures(tmp_path, capsys):
    assert load("render_figures").main(["--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    names = ("triangle.svg", "pentagon.svg", "perturbed.svg",
             "minarea_0.45.svg")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        svg = (tmp_path / name).read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        # the overlays draw body, inner parallel body and Cheeger set
        assert svg.count("<path") == (1 if name.startswith("minarea") else 3)


def test_random_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert load("random_sweep").main(["--count", "12",
                                      "--output", str(out)]) == 0
    assert "polygons in" in capsys.readouterr().err
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "seed,n_arcs,h,inradius,min_arc"
    assert len(lines) == 13
