"""Golden outputs: what the program printed when they were last written.

    python tests/golden.py --write     (with reuleaux importable)

rewrites tests/golden/ from the current code:

- verify.json: `reuleaux verify --format json`, with its runtimes masked
- optimize_regular_2.csv: `reuleaux optimize --regular 2`
- cheeger_random_3_25_7.csv: `reuleaux cheeger --random 3,25,7 --format csv`
- hashes.txt: SHA-256 digests of the walk vertices, Cheeger radii, contacts
  and region columns (inner body and Cheeger set) of a fixed set of
  polygons, group by group, and a few numbers per group
- platform.json: the Python, numpy and machine that wrote them

The tests compare the outputs with these files byte for byte when the
running Python, numpy and machine are the recorded ones. Elsewhere
rounding-level digits may differ (numpy's SIMD paths, libm), so they
compare text with every number masked, the numbers within `close`'s
tolerance, and skip the digests. Any change to a golden file is a change
to the program's output: list it line by line in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import platform
import re
import sys
from pathlib import Path

import numpy as np

from reuleaux import cheeger_set, cli, random_polygon, regular

GOLDEN = Path(__file__).resolve().parent / "golden"

# the polygons hashed, as (group, its polygons' constructors): verify's
# sweep walks, perfbench's 41-arc walks, long walks, the regular polygons
GROUPS = {
    "sweep": [(s % 6 + 1, 30 + (s * 7) % 21, s) for s in range(400)],
    "large_n": [(20, 20 + (s * 7) % 21, s) for s in range(100)],
    "long": [(s % 5 + 2, 400, s) for s in range(40)],
    "regular": list(range(1, 10)),
}

# masked comparison: numbers agree to REL, or are both at most FLOOR in
# size; the rounding-level statistics verify prints (Barbier's error, the
# finite-difference errors of the derivative check) are below FLOOR
REL = 1e-9
FLOOR = 1e-6
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")
_DIGEST = re.compile(r"sha256:[0-9a-f]{64}")
_RUNTIME = re.compile(r'("runtime": )[^,]+|(runtime )[0-9.]+(s)')


def platform_record() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def exact_mode() -> bool:
    """True where the running platform wrote the golden files."""
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    return recorded == platform_record()


def mode() -> str:
    return "byte-for-byte" if exact_mode() else (
        f"numbers masked (rel {REL:g}, floor {FLOOR:g}), digests skipped: "
        f"recorded platform differs from {platform_record()}")


def mask_runtimes(text: str) -> str:
    return _RUNTIME.sub(lambda m: (m[1] + "null") if m[1] else
                        f"{m[2]}*{m[3]}", text)


def cli_stdout(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(list(argv))
    return out.getvalue()


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part, dtype="<f8").tobytes())
    return "sha256:" + h.hexdigest()


def hashes() -> str:
    lines = []
    for group, specs in GROUPS.items():
        polys = [regular(s) if group == "regular" else random_polygon(*s)
                 for s in specs]
        sols = [cheeger_set(p) for p in polys]
        regions = [r for s in sols for r in (s.inner, s.cheeger_set)]
        Rs = [s.R for s in sols]
        lines += [
            f"{group} vertices {_digest(p.vertices for p in polys)}",
            f"{group} R {_digest([Rs])}",
            f"{group} contacts {_digest(s.contacts for s in sols)}",
            f"{group} regions "
            + _digest(c for r in regions
                      for c in (r.centre, r.radius, r.start, r.sweep)),
            f"{group} count {len(polys)} arcs {sum(p.n for p in polys)} "
            f"contacts {sum(len(s.contacts) for s in sols)} "
            f"region_arcs {sum(len(r.radius) for r in regions)}",
            f"{group} R sum {math.fsum(Rs)!r} min {min(Rs)!r} "
            f"max {max(Rs)!r}",
        ]
    return "\n".join(lines) + "\n"


# each golden file and what writes its text from the current code
PRODUCERS = {
    "verify.json":
        lambda: mask_runtimes(cli_stdout("verify", "--format", "json")),
    "optimize_regular_2.csv": lambda: cli_stdout("optimize", "--regular", "2"),
    "cheeger_random_3_25_7.csv": lambda: cli_stdout(
        "cheeger", "--random", "3,25,7", "--format", "csv"),
    "hashes.txt": hashes,
}


def verify_entry(result) -> str:
    """One check's entry of verify.json, as the CLI prints it, masked."""
    return mask_runtimes(json.dumps(
        {"name": result.name, "passed": result.passed,
         "runtime": round(result.runtime, 3), "message": result.message,
         "details": result.details}, indent=2))


def golden_verify_entry(name: str) -> str:
    entries = json.loads((GOLDEN / "verify.json").read_text())
    return json.dumps(next(e for e in entries if e["name"] == name), indent=2)


def close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    big = max(abs(a), abs(b))
    return big <= FLOOR or abs(a - b) <= REL * big


def _same_masked(got: str, want: str) -> bool:
    got, want = _DIGEST.sub("sha256:*", got), _DIGEST.sub("sha256:*", want)
    return _NUMBER.sub("#", got) == _NUMBER.sub("#", want) and all(
        close(float(a), float(b))
        for a, b in zip(_NUMBER.findall(got), _NUMBER.findall(want)))


def mismatch(got: str, want: str, exact: bool | None = None) -> str | None:
    """Where got differs from want, or None: byte for byte in exact mode,
    else line by line with numbers masked and digests skipped."""
    if exact is None:
        exact = exact_mode()
    if got == want:
        return None
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, expected {len(want_lines)}"
    for i, (g, w) in enumerate(zip(got_lines, want_lines), 1):
        if g != w if exact else not _same_masked(g, w):
            return f"line {i}: {g!r}, expected {w!r}"
    return "same lines, different line endings" if exact else None


def write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, produce in PRODUCERS.items():
        (GOLDEN / name).write_text(produce())
    (GOLDEN / "platform.json").write_text(
        json.dumps(platform_record(), indent=2) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    write()
