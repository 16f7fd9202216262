"""Acceptance suite: one test per headline claim, one pass/fail line each.

Each test drives a named check from reuleaux.verify, which recomputes the
quantity from scratch and compares against frozen expectations at the stated
tolerance; its message and details must also match tests/golden/verify.json.
Run with -v to get the per-criterion record.
"""
from __future__ import annotations

import pytest

import golden
from reuleaux import verify
from reuleaux.verify import run_checks


def _run(name: str) -> None:
    result = run_checks([name])[0]
    detail = "; ".join(result.details)
    line = f"{result.name}: {result.message} [{detail}]"
    print(("PASS " if result.passed else "FAIL ") + line)
    assert result.passed, line
    # the check's entry of `verify --format json`, against the golden file
    problem = golden.mismatch(golden.verify_entry(result),
                              golden.golden_verify_entry(name))
    assert problem is None, f"{name} vs golden ({golden.mode()}): {problem}"


def test_criterion_01_triangle_radius_and_constant():
    # solver and closed form agree inside [0.22802, 0.22803]; h >= 4.3853
    _run("triangle")


def test_criterion_02_disk_reference():
    # unit-width disk: R = 1/4 and h = 4 to 1e-10, linear width scaling
    _run("disk")


def test_criterion_03_decay_table():
    # eight-row rate table reproduced to 1e-3 in under 0.1 s
    _run("table1")


def test_criterion_04_inradius_window():
    # minimal-area inversion pins the optimal inradius to [0.4226, 0.4302)
    _run("radius_window")


def test_criterion_05_sector_arc_bound():
    # guaranteed sector arc length at the cap radius, and its complement
    _run("sector")


def test_criterion_06_worstcase_inradius_floor():
    # analytic floor at the widest tabulated row clears the cap 0.4302
    _run("minr")


def test_criterion_07_few_arc_floors():
    # pentagon floor 0.47 and seven-or-more-arc floor 0.44
    _run("small_polygon")


def test_criterion_08_shape_derivative():
    # analytic derivative matches central differences on 50 random polygons
    _run("derivative")


def test_criterion_09_criticality_residual():
    # residual vanishes on regular polygons, detects a perturbed pentagon
    _run("criticality")


def test_criterion_10_random_sweep():
    # 1000 seeded polygons: triangle uniquely maximizes h, with side checks
    _run("sweep")


def test_criterion_11_minimal_area_profile():
    # closed-form minimal area equals radial quadrature across all bands
    _run("minarea")


def test_criterion_12_interval_bands():
    # cubic envelopes, coefficient band, quartic argmax window
    _run("bands")


def test_criterion_13_global_invariants():
    # Barbier, Steiner, and Cheeger composition identities on a mixed pool
    _run("invariants")


ACCEPTANCE_ORDER = ["triangle", "disk", "table1", "radius_window", "sector",
                    "minr", "small_polygon", "derivative", "criticality",
                    "sweep", "minarea", "bands", "invariants"]


def test_checks_registered_in_acceptance_order():
    assert list(verify.CHECKS) == ACCEPTANCE_ORDER


@pytest.mark.parametrize("name", ["triangle", "disk", "table1",
                                  "radius_window", "sector", "minr",
                                  "small_polygon", "criticality", "bands"])
def test_check_result_carries_its_name(name):
    assert run_checks([name])[0].name == name
