"""Every exported name is reached by a route: the library itself, a demo or
the benchmark.  A name that only the tests call is a second path kept for
the tests; its cross-check belongs in ``tests/oracles.py``."""

import ast
from pathlib import Path

import diracwedge
import diracwedge.fem

_ROOT = Path(__file__).resolve().parent.parent


def _names(path: Path) -> set[str]:
    """Identifiers a file refers to: names, attributes and imported names
    (definitions and strings do not count)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def _spans_targets() -> set[str]:
    """String constants of the benchmark's tracer table: the attributes it
    wraps by name."""
    tree = ast.parse((_ROOT / "perfbench" / "spans.py").read_text())
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


def _reached() -> set[str]:
    files = [f for f in (_ROOT / "src" / "diracwedge").rglob("*.py")
             if f.name != "__init__.py"]
    files += sorted((_ROOT / "demos").glob("*.py"))
    files += sorted((_ROOT / "perfbench").glob("*.py"))
    reached = set().union(*map(_names, files))
    return reached | _spans_targets()


def test_every_export_has_a_route():
    exported = (set(diracwedge.__all__) | set(diracwedge.fem.__all__)) \
        - {"__version__", "fem"}
    assert sorted(exported - _reached()) == []
