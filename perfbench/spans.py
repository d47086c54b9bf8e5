"""Spans and counters around the package's layers, recorded from outside it.

A traced process calls ``install(tracer)``.  It replaces the public names
each layer is called through (module attributes) with wrappers that record
a span per call, plus counters for sizes and repeated work.  Untraced
processes never install the wrappers, so their timings are the program's
own.  Spans stay in memory and are written as JSON lines at exit.

Run as a script, this module is the traced CLI entry point:

    python3 perfbench/spans.py SPANS_PATH SUBCOMMAND [ARGS...]

It times ``import diracwedge.cli``, installs the wrappers, runs the CLI and
writes the spans of that one process to SPANS_PATH.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

MARKER = "__perfbench_wrapped__"


class Tracer:
    """In-memory span log.  A span is a dict with id, parent, name, t0, t1
    and the counters incremented while it was open (inclusive of children)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.meta: dict = {}
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "t0": time.perf_counter(), "t1": None, "counts": {}}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["t1"] = time.perf_counter()
        self._stack.remove(span)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n
        for span in self._stack:
            span["counts"][name] = span["counts"].get(name, 0) + n

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": self.meta, "counts": self.counts})
                     + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> tuple[dict, dict, list[dict]]:
    """(meta, counts, spans) from a file written by Tracer.dump."""
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh if line.strip()]
    return head["meta"], head["counts"], spans


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _roots_one(result, bound):
    return {"roots": 1}


def _roots_many(result, bound):
    return {"roots": len(result)}


def _mesh_stats(result, bound):
    return {"vertices": result.n_vertices}


def _pencil_stats(result, bound):
    return {"n_reduced": result.A.shape[0], "nnz_A": result.A.nnz}


def _count_stats(result, bound):
    k = bound.arguments["k"]
    below_edge = sum(1 for x in result.eigenvalues if x < result.gap_edge)
    n_eigs = len(result.eigenvalues)
    return {"count_below": result.count_below, "k": k, "n_eigs": n_eigs,
            "below_edge": below_edge,
            "saturated": int(result.count_below >= n_eigs)}


# (span name, module, attribute, stats of the result or None)
SPANS = (
    ("spin_orbit.principal", "diracwedge.spin_orbit", "principal_eigenvalue",
     _roots_one),
    ("spin_orbit.window", "diracwedge.spin_orbit", "spectrum_in_window",
     _roots_many),
    ("special.bessel_k", "diracwedge.special", "bessel_k", None),
    ("special.deficiency", "diracwedge.special", "deficiency_element", None),
    ("variational.critical_angle_maximize", "diracwedge.variational",
     "critical_angle_maximize", None),
    ("variational.weyl_residual", "diracwedge.variational", "weyl_residual",
     None),
    ("aux1d.ground_state", "diracwedge.aux1d", "ground_state", None),
    ("fem.mesh.build", "diracwedge.fem.mesh", "build_mesh", _mesh_stats),
    ("fem.mesh.build", "diracwedge.fem.mesh", "build_strip_mesh", _mesh_stats),
    ("fem.assembly.assemble", "diracwedge.fem.assembly", "assemble",
     _pencil_stats),
    ("fem.solve.solve", "diracwedge.fem.solve", "solve_lowest", None),
    ("fem.solve.count", "diracwedge.fem.solve", "count_bound_states",
     _count_stats),
)

# secular_det is called thousands of times per root search: count the
# lambda values it is given, record no span.
DET_COUNTER = ("spin_orbit.det_evals", "diracwedge.spin_orbit", "secular_det")

# eigsh's shift-invert operator factors A - sigma B through this name.
FACTOR = ("fem.solve.factor", "scipy.sparse.linalg._eigen.arpack.arpack",
          "splu")


class WrapTargetMissing(RuntimeError):
    """A wrapped name no longer exists: the layer's metrics would vanish."""


def targets() -> list[tuple[str, str]]:
    """Every (module, attribute) the tracer wraps."""
    return ([(mod, attr) for _, mod, attr, _ in SPANS]
            + [DET_COUNTER[1:], FACTOR[1:]])


def resolve(mod: str, attr: str):
    module = importlib.import_module(mod)
    if not callable(getattr(module, attr, None)):
        raise WrapTargetMissing(f"{mod}.{attr} is not a callable attribute")
    return module, getattr(module, attr)


def _rebind(module, orig, wrapped) -> None:
    """Replace ``orig`` in its module and wherever a package module holds it."""
    holders = [module] + [m for name, m in list(sys.modules.items())
                          if name.startswith("diracwedge") and m is not None]
    for holder in holders:
        for key, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, key, wrapped)


def _span_wrapper(tracer: Tracer, name: str, orig, stats):
    sig = inspect.signature(orig)

    @functools.wraps(orig)
    def wrapped(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.close(span)
        if stats is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span["stats"] = stats(result, bound)
        return result

    setattr(wrapped, MARKER, True)
    return wrapped


class _CountingLU:
    """Proxy around a SuperLU factor that counts the solves eigsh makes."""

    def __init__(self, lu, tracer: Tracer) -> None:
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("fem.solve.op_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap every target; raises WrapTargetMissing before changing anything
    if one is gone."""
    import diracwedge  # noqa: F401  (loads every layer module)

    resolved = [(entry, *resolve(entry[1], entry[2])) for entry in SPANS]
    det_mod, det = resolve(*DET_COUNTER[1:])
    lu_mod, splu = resolve(*FACTOR[1:])

    for (name, _, _, stats), module, orig in resolved:
        _rebind(module, orig, _span_wrapper(tracer, name, orig, stats))

    @functools.wraps(det)
    def counted_det(p, lams):
        try:
            n = len(lams)
        except TypeError:
            n = 1
        tracer.count(DET_COUNTER[0], n)
        return det(p, lams)

    setattr(counted_det, MARKER, True)
    _rebind(det_mod, det, counted_det)

    @functools.wraps(splu)
    def traced_splu(a, *args, **kwargs):
        span = tracer.open(FACTOR[0])
        try:
            lu = splu(a, *args, **kwargs)
        finally:
            tracer.close(span)
        span["stats"] = {"lu_nnz": lu.L.nnz + lu.U.nnz}
        return _CountingLU(lu, tracer)

    setattr(traced_splu, MARKER, True)
    setattr(lu_mod, FACTOR[2], traced_splu)


def installed() -> bool:
    """True if any package or arpack module attribute is a wrapper."""
    names = [n for n in sys.modules if n.startswith("diracwedge")]
    names.append(FACTOR[1])
    for name in names:
        module = sys.modules.get(name)
        if module is not None and any(
                getattr(v, MARKER, False) for v in vars(module).values()):
            return True
    return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = ("gap", "spin-orbit", "critical-angle", "testfn", "aux1d",
                   "weyl", "deficiency", "sweep", "fem-count")


def summarize(processes: list[tuple[dict, dict, list[dict]]],
              units: int) -> dict:
    """Per-layer metrics of one traced run, each {"value", "unit"}.

    ``*_s`` is the mean inclusive seconds per call of that name; a layer the
    workload never calls reads 0.  Sizes are the largest seen (the fine
    pencil).  ``det_evals`` and ``bessel_k_calls`` are per workload unit;
    ``op_solves`` is per ``solve_lowest`` call; ``calls`` is assemblies per
    ``count_bound_states`` call.
    """
    spans = [s for _, _, ss in processes for s in ss]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def mean_s(name):
        got = [s["t1"] - s["t0"] for s in by_name.get(name, ())]
        return sum(got) / len(got) if got else 0.0

    def stats(name, key):
        return [s["stats"][key] for s in by_name.get(name, ()) if "stats" in s]

    def counted(name, key):
        return sum(s["counts"].get(key, 0) for s in by_name.get(name, ()))

    def per(total, n):
        return total / n if n else 0.0

    metas = [m for m, _, _ in processes if "import_s" in m]
    det = sum(c.get(DET_COUNTER[0], 0) for _, c, _ in processes)
    roots = (sum(stats("spin_orbit.principal", "roots"))
             + sum(stats("spin_orbit.window", "roots")))
    n_principal = len(by_name.get("spin_orbit.principal", ()))
    n_window = len(by_name.get("spin_orbit.window", ()))
    n_solve = len(by_name.get("fem.solve.solve", ()))
    n_count = len(by_name.get("fem.solve.count", ()))
    n_eigs = stats("fem.solve.count", "n_eigs")
    below = stats("fem.solve.count", "below_edge")

    s, c, r = "s", "count", "ratio"
    out = {
        "cli.import_s": (statistics.median(m["import_s"] for m in metas)
                         if metas else 0.0, s),
        "cli.modules_loaded": (statistics.median(m["modules_loaded"]
                                                 for m in metas)
                               if metas else 0, c),
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.call_s"] = (mean_s(f"cli.{sub}"), s)
    out.update({
        "spin_orbit.principal_s": (mean_s("spin_orbit.principal"), s),
        "spin_orbit.window_s": (mean_s("spin_orbit.window"), s),
        "spin_orbit.det_evals": (per(det, units), c),
        "spin_orbit.det_evals_per_root": (per(det, roots), r),
        "spin_orbit.principal_det_evals": (
            per(counted("spin_orbit.principal", DET_COUNTER[0]),
                n_principal), c),
        "spin_orbit.window_det_evals": (
            per(counted("spin_orbit.window", DET_COUNTER[0]), n_window), c),
        "special.bessel_k_s": (mean_s("special.bessel_k"), s),
        "special.bessel_k_calls": (
            per(len(by_name.get("special.bessel_k", ())), units), c),
        "special.deficiency_s": (mean_s("special.deficiency"), s),
        "variational.critical_angle_maximize_s": (
            mean_s("variational.critical_angle_maximize"), s),
        "variational.weyl_residual_s": (mean_s("variational.weyl_residual"),
                                        s),
        "aux1d.ground_state_s": (mean_s("aux1d.ground_state"), s),
        "fem.mesh.build_s": (mean_s("fem.mesh.build"), s),
        "fem.mesh.vertices": (max(stats("fem.mesh.build", "vertices"),
                                  default=0), c),
        "fem.assembly.assemble_s": (mean_s("fem.assembly.assemble"), s),
        "fem.assembly.calls": (
            per(len(by_name.get("fem.assembly.assemble", ())), n_count), c),
        "fem.assembly.n_reduced": (
            max(stats("fem.assembly.assemble", "n_reduced"), default=0), c),
        "fem.assembly.nnz_A": (
            max(stats("fem.assembly.assemble", "nnz_A"), default=0), c),
        "fem.solve.count_s": (mean_s("fem.solve.count"), s),
        "fem.solve.solve_s": (mean_s("fem.solve.solve"), s),
        "fem.solve.factor_s": (mean_s(FACTOR[0]), s),
        "fem.solve.lu_nnz": (max(stats(FACTOR[0], "lu_nnz"), default=0), c),
        "fem.solve.op_solves": (
            per(counted("fem.solve.solve", "fem.solve.op_solves"), n_solve),
            c),
        "fem.solve.count_below": (
            per(sum(stats("fem.solve.count", "count_below")), n_count), c),
        "fem.solve.count_saturated": (
            per(sum(stats("fem.solve.count", "saturated")), n_count), r),
        "fem.solve.below_edge_per_k": (
            per(sum(b / n for b, n in zip(below, n_eigs)), n_count), r),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in out.items()}


def _cli_main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import diracwedge.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.meta = {"import_s": import_s,
                   "modules_loaded": len(sys.modules) - before}
    install(tracer)
    span = tracer.open(f"cli.{cli_args[0]}")
    try:
        code = diracwedge.cli.main(cli_args)
    finally:
        tracer.close(span)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
