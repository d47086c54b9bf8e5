"""Every name in an ``__all__`` of the package or of one of its modules is
reached by a route: the library itself, a demo or
the benchmark.  A name that only the tests call is a second path kept for
the tests; its cross-check belongs in ``tests/oracles.py``.  The package
namespace serves those names, and its layers, on first use."""

import ast
import importlib
import subprocess
import sys
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


_NAMESPACE_CHECK = """
import sys
import diracwedge

loaded = lambda: sorted(m for m in sys.modules if m.startswith("diracwedge.")
                        or m.split(".")[0] in ("numpy", "scipy"))
print(loaded())
assert diracwedge.variational is sys.modules["diracwedge.variational"]
print(loaded())

for name in diracwedge.__all__:
    value = getattr(diracwedge, name)
    if name == "fem":
        assert value is sys.modules["diracwedge.fem"]
    elif name != "__version__":
        home = value.__module__
        assert home.startswith("diracwedge."), (name, home)
        assert getattr(sys.modules[home], name) is value, name
    # bound on first access: the next lookup is a plain attribute hit
    assert vars(diracwedge)[name] is value, name
assert set(diracwedge.__all__) <= set(dir(diracwedge))

star = {}
exec("from diracwedge import *", star)
assert sorted(set(star) - {"__builtins__"}) == sorted(diracwedge.__all__)
assert all(star[name] is getattr(diracwedge, name) for name in star
           if name != "__builtins__")
try:
    diracwedge.frobnicate
except AttributeError as exc:
    print(exc)
"""


def test_package_namespace_loads_layers_on_first_use(child_env):
    """``import diracwedge`` loads no package module, numpy or scipy; a
    layer loads on first access, and with it only what it imports.  Every
    exported name resolves to the object its defining module holds, is
    bound into the package on first access, is listed by ``dir`` and bound
    by a star import; an unknown name raises AttributeError."""
    out = subprocess.run([sys.executable, "-c", _NAMESPACE_CHECK],
                         env=child_env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "[]",
        "['diracwedge.model', 'diracwedge.variational']",
        "module 'diracwedge' has no attribute 'frobnicate'",
    ]
