"""The program's outputs against the golden files in tests/golden/.

verify.json is compared check by check in test_acceptance.py, where each
check already runs; see tests/golden.py for the files and the two modes.
"""
from __future__ import annotations

import json

import pytest

import golden
from reuleaux.verify import CHECKS


@pytest.mark.parametrize("name", sorted(set(golden.PRODUCERS) - {"verify.json"}))
def test_output_matches_golden(name):
    print(f"golden {name}: {golden.mode()}")
    want = (golden.GOLDEN / name).read_text()
    problem = golden.mismatch(golden.PRODUCERS[name](), want)
    assert problem is None, f"{name} ({golden.mode()}): {problem}"


def test_golden_verify_lists_every_check():
    entries = json.loads((golden.GOLDEN / "verify.json").read_text())
    assert [e["name"] for e in entries] == list(CHECKS)


class TestMismatch:
    def test_exact_mode_sees_one_ulp(self):
        assert golden.mismatch("R,0.1\n", "R,0.10000000000000002\n",
                               exact=True) == \
            "line 1: 'R,0.1', expected 'R,0.10000000000000002'"

    def test_masked_mode_forgives_rounding_level_numbers(self):
        assert golden.mismatch("R = 0.1, error 2.760e-07\n",
                               "R = 0.10000000000000002, error 2.428e-07\n",
                               exact=False) is None

    def test_masked_mode_sees_a_moved_number(self):
        assert golden.mismatch("R = 0.2280281\n", "R = 0.2280280\n",
                               exact=False) is not None

    def test_masked_mode_sees_changed_words(self):
        assert golden.mismatch("8 rows, 0 mismatches\n", "8 rows, 0 misses\n",
                               exact=False) is not None

    def test_masked_mode_skips_digests(self):
        a, b = "sha256:" + "0" * 64, "sha256:" + "f" * 64
        assert golden.mismatch(f"sweep R {a}\n", f"sweep R {b}\n",
                               exact=False) is None
        assert golden.mismatch(f"sweep R {a}\n", f"sweep R {b}\n",
                               exact=True) is not None

    def test_runtimes_are_masked(self):
        assert golden.mask_runtimes('"runtime": 0.013,\n"ok   runtime 0.013s'
                                    ' < 1s"') == \
            '"runtime": null,\n"ok   runtime *s < 1s"'
