"""Source hygiene: no package module imports a name it never uses, and the
oracles stay independent of the fast kernel."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reuleaux"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

# the clip kernel and the Cheeger solver built on it: the routes the
# oracles check, so no oracle may go through them
FAST_KERNEL = {"_star_pairs", "_star_intervals", "_clip_region",
               "as_region", "inner_parallel", "cheeger_radius",
               "cheeger_set"}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source and never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_no_unused_module_imports():
    # __init__.py is skipped: its imports are the package's re-exports
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nimport os.path\n"
              "from typing import Iterable, Sequence\n"
              "def f(x: Iterable) -> float:\n    return np.pi\n")
    assert unused_imports(source) == ["math", "os", "Sequence"]


def names_read(source: str) -> set[str]:
    """Every name source imports, reads, or reads as an attribute."""
    tree = ast.parse(source)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            read |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def test_oracles_do_not_read_the_fast_kernel():
    assert names_read(ORACLES.read_text()) & FAST_KERNEL == set()


def test_finds_a_kernel_read():
    source = ("import reuleaux.cheeger\nfrom reuleaux.polygon import as_region\n"
              "def f(p):\n    return reuleaux.cheeger.cheeger_set(p)\n")
    assert names_read(source) & FAST_KERNEL == {"as_region", "cheeger_set"}
