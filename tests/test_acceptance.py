"""Acceptance gate: every headline requirement, one reported line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import json
import math
import time

import numpy as np

from diracwedge.aux1d import ground_state
from diracwedge.cli import main as cli_main
from diracwedge.fem import assemble, build_mesh, count_bound_states, solve_lowest
from diracwedge.fem import solve
from diracwedge.model import (
    PhysParams,
    derived_constants,
    interface_matrices,
    pauli,
    special_matrices,
    transmission_matrix,
)
from diracwedge.spin_orbit import spectrum_in_window
from diracwedge.variational import (
    bound_state_certificate,
    critical_angle_closed,
    critical_angle_maximize,
    energy_breakdown,
    weyl_norm_sq,
    weyl_residual,
)

from oracles import (
    aux1d_ground_energy,
    critical_angle_numeric,
    energy_pieces_quadrature,
    spin_orbit_eigenvalue_near,
)

S0 = pauli(0)
S3 = pauli(3)


def _report(idx: int, label: str, ok: bool, elapsed: float, budget: float,
            detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {idx} {status} ({elapsed:.2f}s / {budget:.0f}s budget): "
          f"{label}{'; ' + detail if detail else ''}")
    assert ok, f"criterion {idx} {label}: {detail}"
    assert elapsed < budget, f"criterion {idx} over budget: {elapsed:.2f}s"


def _random_valid_params(rng, n):
    out = []
    while len(out) < n:
        tau = float(rng.uniform(-5.0, 5.0))
        if abs(tau) < 0.05 or abs(4.0 - tau * tau) < 1.0:
            continue
        out.append(PhysParams(
            tau=tau,
            m=float(rng.uniform(0.5, 2.0)),
            omega=float(rng.uniform(1e-3, math.pi / 2.0)),
        ))
    return out


# Fixed (tau, m) at omega = 0.6, among them strengths on both sides of the
# excluded -2 and close to the excluded 0, where the two profile identities
# of the shell-aligned singular sequence have large or cancelling terms.
_IDENTITY_CASES = (
    (-1.9, 1.0), (-1.99, 1.0), (-2.0 + 1e-6, 1.0), (-2.0 - 1e-6, 1.0),
    (-1e-3, 1.0), (-0.5, 1.3), (-3.0, 1.3), (-0.9763000989628088, 37.0),
)


def test_criterion_1_matrix_algebra():
    # Residuals are measured relative to each identity's own term magnitude;
    # the strength identities scale like coef * |M_l| and would otherwise
    # drown in their own ulps for strengths near the excluded values.
    # coef = 8 m tau / (4 - tau^2) is formed with 4 - tau^2 = (2 - tau)(2 + tau)
    # as the library forms it: 4 - tau * tau loses 5 digits at tau = -2 +- 1e-6.
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    params = _random_valid_params(rng, 100) + [
        PhysParams(tau=t, m=m, omega=0.6) for t, m in _IDENTITY_CASES]
    for p in params:
        phi = rng.uniform(0.0, 2.0 * math.pi)
        nu = (math.cos(phi), math.sin(phi))
        m = transmission_matrix(p, nu)
        m_tilde, theta = special_matrices(p, nu)
        m_l = interface_matrices(p)[0]
        t, mass = p.tau, p.m
        z = -4.0 * mass * t / (t * t + 4.0)
        coef = 8.0 * mass * t / ((2.0 - t) * (2.0 + t))
        scale_m = float(np.max(np.abs(m)))
        scale_c = max(1.0, abs(coef) * scale_m)
        residuals = [
            abs(np.linalg.det(m) - 1.0) / max(1.0, scale_m ** 2),
            np.max(np.abs(m - m.conj().T)) / scale_m,
            np.max(np.abs(S3 @ m @ S3 @ m - S0)) / max(1.0, scale_m ** 2),
            np.max(np.abs(theta @ theta.conj().T - S0)),
            np.max(np.abs(theta.conj().T @ m @ theta - m_tilde))
            / scale_m,
            np.max(np.abs(z * (m_l @ m_l + S0) + coef * m_l)) / scale_c,
            np.max(np.abs((2.0 * mass / t) * (S0 - m_l) @ (S0 - m_l)
                          - coef * m_l)) / scale_c,
        ]
        worst = max(worst, max(residuals))
    elapsed = time.perf_counter() - t0
    _report(1, f"matrix algebra over 100 random (tau, omega) and "
               f"{len(_IDENTITY_CASES)} fixed (tau, m)",
            worst <= 1e-14, elapsed, 1.0, f"worst scaled residual {worst:.2e}")


def test_criterion_2_spin_orbit():
    t0 = time.perf_counter()
    taus = (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0)
    omegas = (math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0)
    ok = True
    detail = []
    worst_oracle = 0.0
    worst_sym = 0.0
    for tau in taus:
        for omega in omegas:
            p = PhysParams(tau=tau, m=1.0, omega=omega)
            roots = spectrum_in_window(p, -3.0, 3.0)
            in_gap = sum(r.multiplicity for r in roots
                         if 0.0 < r.lam < 0.5)
            if in_gap != 1:
                ok = False
                detail.append(f"({tau},{omega:.3f}): {in_gap} roots in (0,1/2)")
            lams = np.array([r.lam for r in roots])
            worst_sym = max(worst_sym, float(np.max(np.abs(
                np.sort(lams) + np.sort(-lams)[::-1]))))
            for lam in lams:
                ora = spin_orbit_eigenvalue_near(tau, omega, float(lam),
                                                 n_nodes=900)
                worst_oracle = max(worst_oracle, abs(lam - ora))
    ok = ok and worst_oracle <= 1e-6 and worst_sym <= 1e-8
    elapsed = time.perf_counter() - t0
    _report(2, "spin-orbit roots on the 6x3 grid", ok, elapsed, 30.0,
            f"oracle dev {worst_oracle:.2e}, symmetry dev {worst_sym:.2e}"
            + ("; " + "; ".join(detail) if detail else ""))


def test_criterion_3_strip_energy():
    t0 = time.perf_counter()
    worst_oracle = 0.0
    for tau in (-1.0, -3.0):
        p = PhysParams(tau=tau, m=1.0, omega=0.5)
        for gamma in (1.0, 5.0, 10.0):
            impl = ground_state(p, gamma).E_gamma
            worst_oracle = max(
                worst_oracle, abs(impl - aux1d_ground_energy(tau, 1.0, gamma)))
    p = PhysParams(tau=-1.0, m=1.0, omega=0.5)
    decay_ok = all(
        abs(ground_state(p, g).E_gamma - 0.36) <= math.exp(-0.8 * g)
        for g in (5.0, 10.0, 20.0))
    es = [ground_state(p, float(g)).E_gamma for g in np.linspace(1.0, 50.0, 99)]
    monotone_ok = all(b >= a for a, b in zip(es, es[1:])) and all(
        b > a for a, b in zip(es, es[1:]) if a < 0.36 - 1e-12)
    ok = worst_oracle <= 1e-6 and decay_ok and monotone_ok
    elapsed = time.perf_counter() - t0
    _report(3, "strip ground-state energy vs FD oracle", ok, elapsed, 10.0,
            f"oracle dev {worst_oracle:.2e}, decay {decay_ok}, "
            f"monotone {monotone_ok}")


def test_criterion_4_critical_angle():
    t0 = time.perf_counter()
    worst_pair = 0.0
    for tau in (-0.5, -1.0, -3.0, -5.0):
        for n_modes in (1, 2, 3):
            w_num, _ = critical_angle_numeric(tau, 1.0, n_modes)
            worst_pair = max(
                worst_pair, abs(critical_angle_closed(tau, n_modes) - w_num))
    stars = [critical_angle_numeric(-1.0, m, 1)[0] for m in (0.5, 1.0, 2.0)]
    mass_dev = max(stars) - min(stars)
    limits_ok = all(critical_angle_closed(tau, 1) < 1e-3
                    for tau in (-1e-3, -1.999, -2.001, -1e3))
    ok = worst_pair <= 1e-10 and mass_dev <= 1e-12 and limits_ok
    elapsed = time.perf_counter() - t0
    _report(4, "critical angle closed form vs maximizer", ok, elapsed, 5.0,
            f"pair dev {worst_pair:.2e}, mass dev {mass_dev:.2e}, "
            f"limits {limits_ok}")


def test_criterion_5_certificate():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n_modes in (1, 2):
        w_star = critical_angle_closed(-1.0, n_modes)
        p = PhysParams(tau=-1.0, m=1.0, omega=w_star)
        certified, bd = bound_state_certificate(p, n_modes)
        _, l_star = critical_angle_maximize(p, n_modes)
        if not (certified and np.all(np.asarray(bd.form_gap_modes) < 0.0)
                and abs(bd.bound_gap) <= 1e-10):
            ok = False
        bd2 = energy_breakdown(p, n_modes, l_star)
        orc = energy_pieces_quadrature(-1.0, 1.0, w_star, n_modes, l_star,
                                       np.ones(n_modes))
        for name in ("jump_sq", "l2_sq", "gradx_sq", "grady_sq", "form_gap"):
            rel = abs(getattr(bd2, name) - orc[name]) / abs(orc[name])
            if rel > 1e-6:
                ok = False
            details.append(f"{name}[N={n_modes}] {rel:.1e}")
    elapsed = time.perf_counter() - t0
    _report(5, "variational certificate at the critical angle", ok,
            elapsed, 60.0, "max rel dev " + max(details, key=lambda s: float(
                s.rsplit(" ", 1)[1])))


def test_criterion_6_weyl_sequence():
    t0 = time.perf_counter()
    p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
    lam = 1.5
    norms = {n: weyl_norm_sq(p, lam, n) for n in (4, 8, 16, 32)}
    residuals = {n: weyl_residual(p, lam, n) for n in (4, 8, 16, 32)}
    norm_spread = (max(norms.values()) - min(norms.values())) \
        / min(norms.values())
    ratios = {n: residuals[2 * n] / residuals[n] for n in (4, 8, 16)}
    ok = norm_spread <= 1e-8 and all(r <= 0.7 for r in ratios.values())
    elapsed = time.perf_counter() - t0
    _report(6, "Weyl sequence residual decay", ok, elapsed, 60.0,
            f"norm spread {norm_spread:.2e}, ratios "
            + ", ".join(f"{v:.3f}" for v in ratios.values()))


def test_criterion_7_fem_certification():
    t0 = time.perf_counter()
    details = []

    p_rep = PhysParams(tau=1.0, m=1.0, omega=math.pi / 4.0)
    pencil = assemble(p_rep, build_mesh(p_rep, R=8.0, h=0.4))
    rep_a = solve_lowest(pencil, k=8)
    a_ok = bool(np.all(rep_a.eigenvalues >= 1.0 - 1e-10))
    details.append(f"(a) min Ritz {rep_a.eigenvalues[0]:.6f}")

    p_line = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 2.0)
    rep_b = count_bound_states(p_line, mesh_opts={"kind": "disk", "R": 10.0,
                                                  "h": 0.35})
    b_ok = rep_b.count_below == 0
    details.append(f"(b) count {rep_b.count_below}")

    p_thin = PhysParams(tau=-1.0, m=1.0, omega=3.2e-3)
    rep_c = count_bound_states(p_thin)
    c_ok = (rep_c.count_below >= 1
            and bool(np.all(rep_c.residuals <= 1e-3 * solve._RESIDUAL_CAP)))
    details.append(
        f"(c) count {rep_c.count_below}, lowest {rep_c.eigenvalues[0]:.4f}, "
        f"margin {rep_c.margin:.1e}, dofs {rep_c.mesh_info['n_reduced']}, "
        f"max residual {rep_c.residuals.max():.1e}")

    ok = a_ok and b_ok and c_ok
    elapsed = time.perf_counter() - t0
    _report(7, "FEM inequality direction and bound-state counts", ok,
            elapsed, 600.0, "; ".join(details))


def test_criterion_8_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    runs = {
        "gap": ["gap", "--tau", "-1", "--m", "1"],
        "ca": ["critical-angle", "--tau", "-1", "-3", "--N", "1", "2"],
        "aux": ["aux1d", "--tau", "-1", "--gamma", "1", "5", "10"],
        "sweep": ["sweep", "--quantity", "gap", "--tau", "-1", "-2.5"],
        "fem": ["fem-count", "--tau", "-1", "--omega", "90deg", "--kind",
                "disk", "--R", "8", "--h", "0.5", "--k", "4"],
    }
    ok = True
    for name, argv in runs.items():
        pair = []
        for attempt in range(2):
            out = tmp_path / f"{name}_{attempt}"
            code = cli_main(argv + ["--output", str(out)])
            ok = ok and code == 0
            pair.append(out.read_bytes())
        ok = ok and pair[0] == pair[1]
    elapsed = time.perf_counter() - t0
    _report(8, "CLI artifacts byte-identical across repeated runs", ok,
            elapsed, 60.0, f"{len(runs)} subcommands, two runs each")
