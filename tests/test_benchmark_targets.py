"""Every name the benchmark tracer wraps still exists in the package.

Deleting or renaming one would otherwise surface only in the benchmark's
own self-check, which takes about a minute.
"""

import importlib.util
import sys
from pathlib import Path

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_trace_targets_resolve(monkeypatch):
    # importing must leave no bytecode cache in the benchmark directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets()
    assert targets
    for mod, attr in targets:
        spans.resolve(mod, attr)
