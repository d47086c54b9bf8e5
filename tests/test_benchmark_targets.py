"""The benchmark's tracer targets and frozen answers hold for the package.

Breaking either would otherwise surface only in the benchmark's own
self-check or run, which take about a minute.
"""

import importlib.util
import random
import sys
from pathlib import Path

import diracwedge

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
