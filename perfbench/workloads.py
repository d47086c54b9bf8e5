"""Inputs, units of work and output checks of the three workloads.

Every input comes from ``reference.json``: a table of parameter points drawn
once from fixed ranges by ``make_reference.py``, with the outputs the seed
commit gave for each.  A run's ``--seed`` picks the order in which the
points are visited, so the same seed gives the same inputs, and every point
has a frozen answer to check against.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Tolerances, fixed before measuring.  Scalar results may move by optimizer
# or quadrature resolution when a routine is replaced by its closed form or
# by scipy.special.kv (about 1e-7 at worst on the ranges used here); FEM
# eigenvalues differ between identical runs by about 2e-13 because eigsh
# draws its start vector from OS entropy.
RTOL = 1e-6
ATOL = 1e-9
FEM_EIG_RTOL = 1e-8
FEM_RESIDUAL_CAP = 1e-8

# spectral-scan: fixed evaluation grid per point
SCAN_WINDOW = (-3.0, 3.0)
SCAN_R_THETA = ((0.5, 0.3), (0.5, 2.0), (2.0, 0.3), (2.0, 2.0))
SCAN_GAMMA = 1.0
SCAN_WEYL = (1.5, 4)   # (lambda, n)

def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def order(n: int, seed: int) -> list[int]:
    """Seeded visiting order over a table of n points."""
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    return idx


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def close(got, want, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Recursive comparison: bools and ints exact, floats by tolerance."""
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(close(got[k], want[k], rtol, atol) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(close(g, w, rtol, atol) for g, w in zip(got, want)))
    if isinstance(want, int) or want is None:   # bool is an int
        return got == want and type(got) is type(want)
    if isinstance(want, float):
        return (isinstance(got, (int, float)) and math.isfinite(got)
                and abs(got - want) <= atol + rtol * abs(want))
    return got == want


# ---------------------------------------------------------------------------
# CLI units
# ---------------------------------------------------------------------------

def thin_wedge_argv(point: dict) -> list[str]:
    return ["fem-count", "--tau", repr(point["tau"]),
            "--omega", repr(point["omega"])]


def session_argvs(cfg: dict) -> list[list[str]]:
    """One scripted session: every subcommand once, in a fixed order."""
    tau, om = repr(cfg["tau"]), repr(cfg["omega"])
    common = ["--tau", tau, "--omega", om]
    return [
        ["gap", *common],
        ["spin-orbit", *common],
        ["critical-angle", "--tau", tau],
        ["testfn", *common],
        ["aux1d", *common, "--gamma", *map(repr, cfg["gamma"])],
        ["weyl", *common],
        ["deficiency", *common, "--r", repr(cfg["r"]),
         "--theta", repr(cfg["theta"])],
        ["sweep", "--quantity", "principal",
         "--tau", *map(repr, cfg["sweep_tau"]),
         "--omega", *map(repr, cfg["sweep_omega"])],
        ["fem-count", "--tau", tau, "--omega", f"{cfg['disk_omega_deg']!r}deg"],
    ]


def parse_cli(subcommand: str, text: str):
    """Checked content of one CLI artifact (the embedded config is skipped).

    CSV artifacts become their numeric rows.  Deficiency spinors become
    their norms, because the phase of the null vector is arbitrary.
    """
    if text.startswith("# config "):
        rows = text.splitlines()[2:]
        return [[float(x) for x in row.split(",")] for row in rows]
    result = json.loads(text)["result"]
    if subcommand == "deficiency":
        for key in ("plus", "minus"):
            result[key] = math.sqrt(sum(re * re + im * im
                                        for re, im in result[key]))
    return result


def check_fem(result: dict, lowest: float, min_count: int) -> bool:
    """A count is checked by its certificate, not by bytes: at least
    ``min_count`` states, converged residuals, and the lowest Ritz value of
    the fine pencil against the seed commit's."""
    eigs = result["eigenvalues"]
    return (isinstance(result["count_below"], int)
            and result["count_below"] >= min_count
            and max(result["residuals"]) <= FEM_RESIDUAL_CAP
            and abs(eigs[0] - lowest) <= FEM_EIG_RTOL * abs(lowest))


def check_parsed(subcommand: str, got, want) -> bool:
    if subcommand == "fem-count":
        return check_fem(got, want["lowest"], want["min_count"])
    return close(got, want)


def fem_reference(result: dict, min_count: int) -> dict:
    return {"lowest": result["eigenvalues"][0], "min_count": min_count,
            "count_below": result["count_below"]}


# ---------------------------------------------------------------------------
# in-process scan unit
# ---------------------------------------------------------------------------

def scan_point(dw, tau: float, omega: float) -> dict:
    """Every scalar quantity of one parameter point, called through the
    package's public names.  The principal root is solved once and reused
    for the deficiency grid."""
    import numpy as np

    p = dw.PhysParams(tau=tau, m=1.0, omega=omega)
    root = dw.principal_eigenvalue(p)
    window = dw.spectrum_in_window(p, *SCAN_WINDOW)
    norms = [float(np.linalg.norm(dw.deficiency_element(p, s, r, th,
                                                        root=root)))
             for s in (1, -1) for r, th in SCAN_R_THETA]
    w_star, l_star = dw.critical_angle_maximize(p, 1)
    return {
        "principal": float(root.lam),
        "window": [float(r.lam) for r in window],
        "multiplicity": [int(r.multiplicity) for r in window],
        "deficiency_norms": norms,
        "omega_star": float(w_star),
        "L_star": float(l_star),
        "omega_star_closed": float(dw.critical_angle_closed(tau, 1)),
        "E_gamma": float(dw.ground_state(p, SCAN_GAMMA).E_gamma),
        "weyl_residual": float(dw.weyl_residual(p, *SCAN_WEYL)),
    }
