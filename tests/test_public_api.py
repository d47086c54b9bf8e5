"""Every name in an ``__all__`` of the package or of one of its modules is
reached by a route: the library itself, a demo or
the benchmark.  A name that only the tests call is a second path kept for
the tests; its cross-check belongs in ``tests/oracles.py``."""

import ast
import importlib
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src"


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
    files = [f for f in (_SRC / "diracwedge").rglob("*.py")
             if f.name != "__init__.py"]
    files += sorted((_ROOT / "demos").glob("*.py"))
    files += sorted((_ROOT / "perfbench").glob("*.py"))
    reached = set().union(*map(_names, files))
    return reached | _spans_targets()


def _exports() -> set[str]:
    """``module.name`` for every name in the ``__all__`` of the package and
    of each of its modules."""
    found = set()
    for f in (_SRC / "diracwedge").rglob("*.py"):
        parts = f.relative_to(_SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = importlib.import_module(".".join(parts))
        found |= {f"{module.__name__}.{name}"
                  for name in getattr(module, "__all__", ())}
    return found


def test_every_export_has_a_route():
    reached = _reached() | {"__version__", "fem"}
    assert sorted(name for name in _exports()
                  if name.rpartition(".")[2] not in reached) == []
