"""diracwedge benchmark: closed-loop workloads with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.

Workloads (a unit is the thing timed and checked):
    thin-wedge-count  one ``fem-count`` CLI invocation on the thin wedge
    cli-session       one CLI invocation of a scripted session that calls
                      every subcommand once
    spectral-scan     one parameter point evaluated in-process after import

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same units run with the layer wrappers of ``spans.py``
installed and the line carries the per-layer metrics.  The line before it
holds the full record: environment, failed fraction, tail latency, certified
counts and both metric sets where measured.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans as tr
import workloads as wl

HERE = Path(__file__).resolve().parent

# OpenBLAS threads made no measurable difference to fem-count on 2 cores
# (13.4-14.6 s either way), so one thread keeps runs steady.
BLAS_THREADS = 1
SETUP_REPS = 5
UNIT_TIMEOUT_S = 120.0

_SETUP_CODE = "import time, diracwedge; print(time.monotonic())"

# Host speed on the shared VM the baseline was taken on swings by 20-30% in
# phases lasting from seconds to minutes, and whole runs move with it.  So
# timings are scaled to a reference host speed by a probe: fixed work that
# does not use the package, timed between units (PROBE_SHARE of the unit
# time) and scaled as ref_s / mean probe time.  Each workload has the probe
# whose resources match its units; set-up pairs every sample with a launch
# probe.  Raw values are kept in the run record.
PROBE_SHARE = 0.1


def sweep_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    env["DIRACWEDGE_WORKERS"] = str(sweep_workers())
    return env


class Probe:
    """Host speed from fixed work that does not use the package."""

    ref_s = 1.0   # typical time of one probe on the baseline host

    def __init__(self, root: Path, env: dict) -> None:
        self.root, self.env = root, env
        self.once()   # warm-up, not recorded
        self.samples: list[float] = []
        self.busy_s = 0.0

    def once(self) -> float:
        raise NotImplementedError

    def sample(self) -> float:
        dt = self.once()
        self.samples.append(dt)
        self.busy_s += dt
        return dt

    def top_up(self, unit_s: float) -> None:
        """Probe until probe time reaches PROBE_SHARE of ``unit_s``."""
        while self.busy_s < PROBE_SHARE * unit_s or not self.samples:
            self.sample()

    def slowdown(self) -> float:
        """Mean probe time over its reference: above 1 on a slow host."""
        return sum(self.samples) / len(self.samples) / self.ref_s


class ComputeProbe(Probe):
    """A Python loop, batched 4x4 determinants and a sparse LU of a
    60x60-grid Laplacian: the mix of a scan point."""

    ref_s = 0.021

    def __init__(self, root: Path, env: dict) -> None:
        import numpy as np
        import scipy.sparse.linalg as spla

        self._np, self._splu = np, spla.splu
        self._small = _laplacian(60)
        self._m = np.random.default_rng(0).standard_normal((500, 4, 4))
        super().__init__(root, env)

    def once(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(60000):
            acc += (i % 7) * 0.5
        for _ in range(20):
            self._np.linalg.det(self._m)
        self._splu(self._small).solve(self._np.ones(self._small.shape[0]))
        return time.perf_counter() - t0


class MemoryProbe(ComputeProbe):
    """The compute probe plus two solves with the LU of a 150x150-grid
    Laplacian, which stream a factor larger than the cache the way eigsh's
    shift-invert solves do."""

    ref_s = 0.035

    def __init__(self, root: Path, env: dict) -> None:
        import scipy.sparse.linalg as spla

        self._big = spla.splu(_laplacian(150))
        super().__init__(root, env)

    def once(self) -> float:
        t0 = time.perf_counter()
        super().once()
        rhs = self._np.ones(self._big.shape[0])
        for _ in range(2):
            rhs = self._big.solve(rhs)
        return time.perf_counter() - t0


class LaunchProbe(Probe):
    """A fresh interpreter importing numpy and scipy.sparse.linalg: the
    start-up every CLI call and every set-up pays, without the package."""

    ref_s = 0.45
    _CODE = "import numpy, scipy.sparse.linalg"

    def once(self) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", self._CODE], cwd=self.root,
                       env=self.env, check=True, timeout=60)
        return time.perf_counter() - t0


def _laplacian(n: int):
    """Shifted 5-point Laplacian on an n x n grid, CSC."""
    import scipy.sparse as sp

    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.eye(n)
    return (sp.kron(lap, eye) + sp.kron(eye, lap)
            + 0.1 * sp.eye(n * n)).tocsc()


class Setup:
    """Seconds from launching a fresh interpreter to ``import diracwedge``
    returning.  Samples are spread over the run, between batches, each right
    after a launch probe that scales it; a first unmeasured launch may write
    bytecode caches."""

    def __init__(self, root: Path, env: dict) -> None:
        self.root, self.env = root, env
        self.probe = LaunchProbe(root, env)
        self.samples: list[float] = []
        self.scaled: list[float] = []
        self.busy_s = 0.0
        self._launch()

    def _launch(self) -> float:
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE],
                             cwd=self.root, env=self.env, capture_output=True,
                             text=True, check=True, timeout=60)
        self.busy_s += time.monotonic() - t0
        return float(out.stdout) - t0

    def sample_until(self, n: int) -> None:
        while len(self.samples) < min(n, SETUP_REPS):
            probe_s = self.probe.sample()
            self.busy_s += probe_s
            self.samples.append(self._launch())
            self.scaled.append(self.samples[-1] * self.probe.ref_s / probe_s)


class CliUnit:
    """One CLI invocation, run as a fresh subprocess and checked."""

    def __init__(self, argv: list[str], want) -> None:
        self.argv = argv
        self.want = want

    def __call__(self, ctx: "Context") -> bool:
        if ctx.spans_dir is None:
            cmd = [sys.executable, "-m", "diracwedge.cli", *self.argv]
        else:
            path = ctx.spans_dir / f"unit-{len(ctx.span_files)}.jsonl"
            ctx.span_files.append(path)
            cmd = [sys.executable, str(HERE / "spans.py"), str(path),
                   *self.argv]
        proc = subprocess.run(cmd, cwd=ctx.root, env=ctx.env,
                              capture_output=True, text=True,
                              timeout=UNIT_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"unit {self.argv} exited {proc.returncode}: "
                  f"{proc.stderr.strip()}", file=sys.stderr)
            return False
        got = wl.parse_cli(self.argv[0], proc.stdout)
        if self.argv[0] == "fem-count":
            ctx.fem_counts.append((got["count_below"], len(got["eigenvalues"])))
        ok = wl.check_parsed(self.argv[0], got, self.want)
        if not ok:
            print(f"unit {self.argv}: output check failed", file=sys.stderr)
        return ok


class ScanUnit:
    """One spectral-scan point, evaluated in-process and checked."""

    def __init__(self, point: dict) -> None:
        self.point = point

    def __call__(self, ctx: "Context") -> bool:
        got = wl.scan_point(ctx.dw, self.point["tau"], self.point["omega"])
        ok = wl.close(got, self.point["expect"])
        if not ok:
            print(f"scan point {self.point['tau']}, {self.point['omega']}: "
                  "output check failed", file=sys.stderr)
        return ok


class Context:
    def __init__(self, root: Path, traced: bool, workload: str) -> None:
        self.root = root
        self.env = child_env(root)
        self.dw = None
        self.tracer = None
        self.span_files: list[Path] = []
        self.fem_counts: list[tuple[int, int]] = []  # (count_below, n_eigs)
        self.spans_dir = None
        if traced:
            self.spans_dir = root / "perfbench_out" / workload
            shutil.rmtree(self.spans_dir, ignore_errors=True)
            self.spans_dir.mkdir(parents=True)


def batches(workload: str, ref: dict, seed: int):
    """Endless stream of batches; a run ends only between batches, so a
    cli-session run always holds whole sessions."""
    if workload == "thin-wedge-count":
        table = ref["thin_wedge"]
        for i in itertools.cycle(wl.order(len(table), seed)):
            pt = table[i]
            yield [CliUnit(wl.thin_wedge_argv(pt), pt["expect"])]
    elif workload == "cli-session":
        table = ref["session"]
        for i in itertools.cycle(wl.order(len(table), seed)):
            cfg = table[i]
            yield [CliUnit(argv, want) for argv, want
                   in zip(wl.session_argvs(cfg), cfg["expect"])]
    else:
        table = ref["scan"]
        for i in itertools.cycle(wl.order(len(table), seed)):
            yield [ScanUnit(table[i])]


WORKLOADS = ("thin-wedge-count", "cli-session", "spectral-scan")
PROBES = {"thin-wedge-count": MemoryProbe, "cli-session": LaunchProbe,
          "spectral-scan": ComputeProbe}
END_TO_END = {"setup_s": "s", "throughput_per_s": "1/s", "peak_rss_mb": "MB"}


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def closed_loop(ctx: Context, stream, seconds: float, setup: Setup,
                probe: Probe):
    """Run batches until ``seconds`` of unit time have passed.  Setup
    samples are taken between batches and probes between units, both in
    proportion to the time gone; their time is left out of the returned
    elapsed time."""
    latencies, cpu, units, failed = [], [], [], 0
    setup.sample_until(1)
    probe.top_up(0.0)
    busy0 = setup.busy_s + probe.busy_s
    t_start = time.perf_counter()

    def unit_time() -> float:
        return (time.perf_counter() - t_start
                - (setup.busy_s + probe.busy_s - busy0))

    last = 0.0
    for batch in stream:
        for unit in batch:
            # half of a unit's probe share before it (by the last unit's
            # length), half after, so long units are bracketed
            probe.top_up(unit_time() + 0.5 * last)
            c0, t0 = cpu_s(), time.perf_counter()
            try:
                ok = unit(ctx)
            except Exception:  # a failed unit is counted, the run goes on
                traceback.print_exc()
                ok = False
            last = time.perf_counter() - t0
            latencies.append(last)
            cpu.append(cpu_s() - c0)
            units.append(unit)
            failed += not ok
            probe.top_up(unit_time())
        elapsed = unit_time()
        if elapsed >= seconds:
            break
        setup.sample_until(1 + int(SETUP_REPS * elapsed / seconds))
    elapsed = unit_time()
    setup.sample_until(SETUP_REPS)
    return latencies, cpu, units, failed, elapsed


def tail(latencies: list[float]) -> dict | None:
    """Highest percentile with at least 10 samples beyond it."""
    n = len(latencies)
    if n < 11:
        return None
    return {"value": sorted(latencies)[n - 11],
            "percentile": 100.0 * (n - 10) / n, "samples": n}


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def environment() -> dict:
    from importlib import metadata

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "sweep_workers": sweep_workers(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diracwedge" / "__init__.py").is_file():
        print(f"no diracwedge sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    os.environ.update(child_env(root))
    ref = wl.load_reference()
    ctx = Context(root, bool(args.trace), args.workload)

    setup = Setup(root, ctx.env)
    import_s = None
    if args.workload == "spectral-scan":
        sys.path.insert(0, str(root / "src"))
        before = len(sys.modules)
        t0 = time.perf_counter()
        import diracwedge
        import_s = time.perf_counter() - t0
        ctx.dw = diracwedge
        if args.trace:
            ctx.tracer = tr.Tracer()
            ctx.tracer.meta = {"import_s": import_s,
                               "modules_loaded": len(sys.modules) - before}
            tr.install(ctx.tracer)
        elif tr.installed():
            raise RuntimeError("layer wrappers present in an untraced run")

    probe = PROBES[args.workload](root, ctx.env)
    latencies, cpu, units, failed, elapsed = closed_loop(
        ctx, batches(args.workload, ref, args.seed), args.seconds, setup,
        probe)

    slowdown = probe.slowdown()
    raw = {
        "setup_s": statistics.median(setup.samples),
        "throughput_per_s": len(units) / elapsed,
    }
    values = {
        "setup_s": statistics.median(setup.scaled),
        "throughput_per_s": raw["throughput_per_s"] * slowdown,
        "peak_rss_mb": peak_rss_mb(),
    }
    end_to_end = {name: {"value": values[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": elapsed, "units": len(units),
        "raw": raw, "host_slowdown": slowdown,
        "probe_samples": len(probe.samples),
        "failed_frac": failed / len(units),
        "call_p50_s": statistics.median(latencies),
        "call_tail_s": tail(latencies),
        "cpu_per_unit_s": sum(cpu) / len(cpu),
        "setup_samples_s": setup.samples, "in_process_import_s": import_s,
        "environment": environment(), "end_to_end": end_to_end,
    }
    if args.trace:
        processes = [tr.load(p) for p in ctx.span_files]
        if ctx.tracer is not None:
            ctx.tracer.dump(str(ctx.spans_dir / "process.jsonl"))
            processes.append((ctx.tracer.meta, ctx.tracer.counts,
                              ctx.tracer.spans))
        metrics = tr.summarize(processes, len(units))
        record["per_layer"] = metrics
    else:
        metrics = end_to_end
    if ctx.fem_counts:
        n = len(ctx.fem_counts)
        record["certified_states"] = sum(c for c, _ in ctx.fem_counts) / n
        record["count_saturated"] = sum(c >= k for c, k in ctx.fem_counts) / n
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(units),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
