"""Regenerate ``reference.json``: the input tables and the answers to check.

    python3 perfbench/make_reference.py

Run from the repository root at the commit whose outputs are to be frozen.
Points are drawn from fixed ranges with a fixed master seed; any point on
which the program fails aborts the script, because the workloads must be
drawn from ranges where every operation succeeds.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import workloads as wl
from run import child_env

MASTER_SEED = 20230608
N_THIN = 6
N_SESSION = 4
N_SCAN = 480


def _r(x: float, digits: int = 6) -> float:
    return float(f"{x:.{digits}g}")


def thin_wedge_points(rng: random.Random) -> list[dict]:
    # The README quick start point, then perturbations that stay in the
    # strip regime (omega < 0.05) and below the closed-form critical angle
    # (3.29e-3 at tau = -1, larger for tau in (-1, -0.96]), so at least one
    # gap state is certified on every point.
    pts = [{"tau": -1.0, "omega": 3.2e-3}]
    while len(pts) < N_THIN:
        pts.append({"tau": _r(rng.uniform(-1.0, -0.96), 4),
                    "omega": _r(rng.uniform(3.0e-3, 3.2e-3), 4)})
    return pts


def session_configs(rng: random.Random) -> list[dict]:
    # The disk count's cost depends on omega, so each session takes its
    # disk angle from its own band of [30, 80] degrees; a run visits about
    # one cycle of the table and so about the same mix of sizes.
    band = 50.0 / N_SESSION
    cfgs = []
    for i in range(N_SESSION):
        cfgs.append({
            "tau": _r(rng.uniform(-3.5, -0.3)),
            "omega": _r(rng.uniform(0.05, 1.5)),
            "gamma": [_r(rng.uniform(0.5, 2.0)), _r(rng.uniform(2.0, 10.0))],
            "r": _r(rng.uniform(0.5, 3.0)),
            "theta": _r(rng.uniform(0.0, 6.28)),
            "sweep_tau": [_r(rng.uniform(-3.5, -0.3)) for _ in range(2)],
            "sweep_omega": [_r(rng.uniform(0.05, 1.5)) for _ in range(2)],
            "disk_omega_deg": _r(rng.uniform(30.0 + i * band,
                                             30.0 + (i + 1) * band), 4),
        })
    return cfgs


def run_cli(root: Path, argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, "-m", "diracwedge.cli", *argv],
                          cwd=root, env=child_env(root), capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{argv} failed ({proc.returncode}): {proc.stderr}")
    return proc.stdout


def dump(ref: dict) -> str:
    """JSON text with one table entry per line."""
    parts = [f'"master_seed": {ref["master_seed"]}']
    for key in ("thin_wedge", "session", "scan"):
        rows = ",\n  ".join(json.dumps(e, separators=(",", ":"))
                            for e in ref[key])
        parts.append(f'"{key}": [\n  {rows}\n ]')
    return "{\n " + ",\n ".join(parts) + "\n}\n"


def main() -> None:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import diracwedge as dw

    rng = random.Random(MASTER_SEED)
    thin = []
    for pt in thin_wedge_points(rng):
        res = wl.parse_cli("fem-count",
                           run_cli(root, wl.thin_wedge_argv(pt)))
        thin.append({**pt, "expect": wl.fem_reference(res, min_count=1)})
        print("thin-wedge", pt, res["count_below"], flush=True)

    sessions = []
    for cfg in session_configs(rng):
        expect = []
        for argv in wl.session_argvs(cfg):
            got = wl.parse_cli(argv[0], run_cli(root, argv))
            if argv[0] == "fem-count":
                got = wl.fem_reference(got, min_count=0)
            expect.append(got)
        sessions.append({**cfg, "expect": expect})
        print("session", cfg["tau"], flush=True)

    scan = []
    for _ in range(N_SCAN):
        tau = _r(rng.uniform(-3.5, -0.3))
        omega = _r(rng.uniform(0.05, 1.5))
        scan.append({"tau": tau, "omega": omega,
                     "expect": wl.scan_point(dw, tau, omega)})

    wl.REFERENCE.write_text(dump({"master_seed": MASTER_SEED,
                                  "thin_wedge": thin, "session": sessions,
                                  "scan": scan}))
    print("wrote", wl.REFERENCE)


if __name__ == "__main__":
    main()
