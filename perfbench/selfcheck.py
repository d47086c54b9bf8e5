"""Self-check of the benchmark harness (about a minute on 2 cores).

    python3 perfbench/selfcheck.py

Run from the repository root.  Exits non-zero, naming the failed check, if

* a wrapped name no longer exists, so a layer's metrics would vanish;
* wrappers are present in an untraced process, or missing after install;
* the secular-evaluation counters do not repeat the known counts at
  tau = -1, omega = pi/4 (1309 for the principal root, 12672 for the
  window [-3, 3]);
* traced and untraced runs of a unit of each workload give different
  checked results;
* BENCHMARK.json names other metrics than the harness prints.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import run
import spans as tr
import workloads as wl

PRINCIPAL_DET_EVALS = 1309
WINDOW_DET_EVALS = 12672


def _fail(msg: str) -> None:
    raise SystemExit(f"selfcheck FAILED: {msg}")


def _cli_pair(root: Path, argv: list[str], want, workload: str) -> None:
    """Run one CLI unit untraced and traced; both must pass the check and
    agree with each other."""
    results = []
    for traced in (False, True):
        ctx = run.Context(root, traced, f"selfcheck-{workload}")
        unit = run.CliUnit(argv, want)
        if not unit(ctx):
            _fail(f"{workload} unit {argv[0]} (traced={traced}) failed")
        results.append(ctx)
    if results[0].fem_counts != results[1].fem_counts:
        _fail(f"{workload}: traced and untraced counts differ")
    meta, _, spans = tr.load(results[1].span_files[0])
    if not spans or meta["modules_loaded"] <= 0:
        _fail(f"{workload}: traced CLI unit recorded no spans")


def main() -> None:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.update(run.child_env(root))
    import diracwedge as dw

    for mod, attr in tr.targets():
        tr.resolve(mod, attr)   # raises WrapTargetMissing
    if tr.installed():
        _fail("wrappers present before install")

    ref = wl.load_reference()
    point = ref["scan"][0]
    untraced = wl.scan_point(dw, point["tau"], point["omega"])

    tracer = tr.Tracer()
    tr.install(tracer)
    if not tr.installed():
        _fail("install left no wrappers")
    p = dw.PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4)
    dw.principal_eigenvalue(p)
    dw.spectrum_in_window(p, -3.0, 3.0)
    got = tr.summarize([({}, tracer.counts, tracer.spans)], 1)
    counts = (got["spin_orbit.principal_det_evals"]["value"],
              got["spin_orbit.window_det_evals"]["value"])
    if counts != (PRINCIPAL_DET_EVALS, WINDOW_DET_EVALS):
        _fail(f"secular evaluation counts {counts} != "
              f"{(PRINCIPAL_DET_EVALS, WINDOW_DET_EVALS)}")

    traced = wl.scan_point(dw, point["tau"], point["omega"])
    if not (wl.close(untraced, point["expect"])
            and wl.close(traced, untraced, rtol=0.0, atol=0.0)):
        _fail("spectral-scan: traced and untraced results differ")

    session = ref["session"][0]
    for argv, want in zip(wl.session_argvs(session), session["expect"]):
        _cli_pair(root, argv, want, "cli-session")
    thin = ref["thin_wedge"][0]
    _cli_pair(root, wl.thin_wedge_argv(thin), thin["expect"],
              "thin-wedge-count")

    bench = json.loads((root / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    if per_layer != set(got):
        _fail(f"per_layer names differ: {sorted(per_layer ^ set(got))}")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    if end_to_end != set(run.END_TO_END):
        _fail(f"end_to_end names differ: "
              f"{sorted(end_to_end ^ set(run.END_TO_END))}")
    print("selfcheck ok")


if __name__ == "__main__":
    main()
