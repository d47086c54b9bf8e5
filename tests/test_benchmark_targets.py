"""The benchmark's tracer targets and frozen answers hold for the package.

Breaking either would otherwise surface only in the benchmark's own
self-check or run, which take about a minute.
"""

import functools
import importlib.util
import math
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import diracwedge
from diracwedge import PhysParams
from diracwedge.fem import count_bound_states

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """perfbench/<name>.py as a module, with bytecode writing off so the
    benchmark directory gets no cache.  Call under a monkeypatch of
    ``sys.dont_write_bytecode``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = _load("spans")
    targets = spans.targets()
    assert targets
    for mod, attr in targets:
        spans.resolve(mod, attr)


@pytest.mark.parametrize("p, mesh_opts, builder", [
    (PhysParams(tau=-1.0, m=1.0, omega=3.2e-3),
     {"kind": "strip", "nx": 24, "wedge_rows": 2, "outer_rows": 3},
     "build_strip_mesh"),
    (PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0),
     {"kind": "disk", "R": 6.0, "h": 0.8}, "build_mesh"),
], ids=["strip", "disk"])
def test_traced_mesh_builders_see_each_count(monkeypatch, p, mesh_opts,
                                             builder):
    """The tracer rebinds module attributes only: ``count_bound_states``
    must reach the builder through them, exactly once per count, or the
    traced fem.mesh metrics read 0."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spans = _load("spans")
    calls = Counter()
    for name, mod, attr, _ in spans.SPANS:
        if name != "fem.mesh.build":
            continue
        _, orig = spans.resolve(mod, attr)

        @functools.wraps(orig)
        def counted(*args, _orig=orig, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _orig(*args, **kwargs)

        for holder in [m for n, m in list(sys.modules.items())
                       if n.startswith("diracwedge") and m is not None]:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    monkeypatch.setattr(holder, key, counted)
    count_bound_states(p, mesh_opts=mesh_opts)
    assert calls == {builder: 1}


def test_scan_points_match_reference(monkeypatch):
    """A seeded sample of 60 spectral-scan points passes the benchmark's own
    check against reference.json."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    scan = workloads.load_reference()["scan"]
    for pt in random.Random(2023).sample(scan, 60):
        got = workloads.scan_point(diracwedge, pt["tau"], pt["omega"])
        assert workloads.close(got, pt["expect"]), (pt["tau"], pt["omega"])


def test_every_scan_window_matches_reference(monkeypatch):
    """spectrum_in_window(p, -3, 3) gives the frozen roots and multiplicities
    at all 480 spectral-scan points, within the benchmark's tolerances."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = _load("workloads")
    scan = workloads.load_reference()["scan"]
    assert len(scan) == 480
    for pt in scan:
        p = diracwedge.PhysParams(tau=pt["tau"], m=1.0, omega=pt["omega"])
        roots = diracwedge.spectrum_in_window(p, *workloads.SCAN_WINDOW)
        got = {"window": [float(r.lam) for r in roots],
               "multiplicity": [int(r.multiplicity) for r in roots]}
        want = {k: pt["expect"][k] for k in got}
        assert workloads.close(got, want), (pt["tau"], pt["omega"])
