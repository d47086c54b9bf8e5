"""Variational certificates for gap eigenvalues and essential-spectrum sequences.

The certificates use N explicit spinor test functions supported in a strip
x in [L, 2L] across the wedge boundary,

    u_n(x, y) = f_n(x) g(y) h(x, y),   n = 1..N,
    f_n(x) = sin(2 n pi x / L) on [L, 2L], else 0,
    g(y)   = 1 for |y| <= 2d,  e^{-kappa0 (|y| - 2d)} beyond,   d = L tan(omega),
    h      = (1, 0)^T inside the wedge and M_l (1,0)^T / M_r (1,0)^T above /
             below it (so the transmission condition holds by construction).

The modes are form-orthogonal, so the energies of their sum depend on
(tau, m, omega, N, L) alone.  All four energy pieces of the quadratic form
have closed forms; their combination gives the exact "form gap" (form value
minus the squared gap edge times the squared norm) and the working upper
estimate "bound gap", N times the bracket (l = m L)

    tan(w) c (b2 + l^2) - q l + g / (q l),
    q = kappa0 / m,  c = 3 + kappa,  b2 = 2 N^2 pi^2,  g = b2 kappa.

q, c, b2 and g are the model's constants taken at m = 1, so the bracket
depends on m only through l.  Its zero in tan(w) is the certificate angle
omega(L); the maximum of omega(L) over L is the critical angle omega_star
below which the modes certify at least N eigenvalues in the spectral gap.
omega_star is mass-independent, and L_star = l_star / m with u = l_star^2
the positive root of q^2 u^2 - (q^2 b2 + 3 g) u - g b2 = 0, whose terms are
all positive, so no digits cancel for any admissible tau.

The module also evaluates the two explicit sequences that pin down the
essential spectrum: a Weyl sequence of cut-off plane waves deep inside the
exterior region, and the matrix identities behind the singular sequence that
travels along the shell.  The Weyl norms and residuals are closed forms in
the exact moments of the quintic cutoff chi, and so are the shell-aligned
sequence's norm bounds; its per-n norms are closed forms apart from one
Gauss rule over the ramp of chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    _TAU_GUARD,
    ParameterError,
    PhysParams,
    _derive,
    derived_constants,
    interface_matrices,
)

__all__ = [
    "EnergyBreakdown",
    "energy_breakdown",
    "angle_for_length",
    "critical_angle_closed",
    "critical_angle_maximize",
    "bound_state_certificate",
    "smoothstep_cutoff",
    "weyl_norm_sq",
    "weyl_residual",
    "SingularSeqReport",
    "singular_seq_identities",
]


def _require_attractive(tau: float) -> None:
    if not -math.inf < tau < 0.0 or abs(tau + 2.0) <= _TAU_GUARD:
        raise ParameterError(
            f"certificate machinery requires finite tau < 0, tau != -2; "
            f"got {tau}"
        )


# ---------------------------------------------------------------------------
# Closed-form energies of the test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    """Closed-form quadratic-form pieces of the sum of the N modes.

    form_gap is the exact form value minus eps_tau^2 ||u||^2; bound_gap is
    the n-independent upper estimate whose sign drives the certificate;
    form_gap_modes are the exact per-mode contributions (all negative iff
    the modes certify N gap eigenvalues).
    """

    jump_sq: float
    l2_sq: float
    gradx_sq: float
    grady_sq: float
    form_gap: float
    bound_gap: float
    form_gap_modes: np.ndarray


def energy_breakdown(p: PhysParams, N: int, L: float) -> EnergyBreakdown:
    """Energies of the sum of the N modes on the strip [L, 2L]."""
    q, c, b2, g = _bracket(p.tau, N)
    if not L > 0.0:
        raise ParameterError(f"L must be positive, got {L}")
    if p.omega >= math.pi / 2.0:
        raise ParameterError("energy closed forms require omega < pi/2")
    dc = derived_constants(p)
    kap, k0, c_t = dc.kappa_tau, dc.kappa0, dc.c_tau
    m = p.m
    tw = math.tan(p.omega)
    cw = math.cos(p.omega)
    ns = np.arange(1, N + 1, dtype=float)

    # Cross-section braces shared by the closed forms; the x-weighted and
    # unweighted sine integrals contribute the 3/2 and 1/2 factors.
    brace_l2 = L * L * tw * c / 2.0 + L * kap / (2.0 * k0)
    brace_gx = L * tw * c / 2.0 + kap / (2.0 * k0)

    # the modes are form-orthogonal, so each piece is a sum over modes
    jump_sq = c_t * L / cw * N
    l2_sq = brace_l2 * N
    gradx_sq = float(np.sum((2.0 * ns * np.pi) ** 2 / L) * brace_gx)
    grady_sq = 0.5 * L * k0 * kap * N

    # Exact pre-estimate gap, mode by mode; kappa0^2 = m^2 - eps_tau^2 and
    # the last term is (2m/tau) times the jump integral.
    gap_modes = (
        (2.0 * ns * np.pi) ** 2 / L * brace_gx
        + 0.5 * L * k0 * kap
        + k0 * k0 * brace_l2
        + 2.0 * m * L * c_t / (p.tau * cw)
    )
    form_gap = float(np.sum(gap_modes))

    ell = m * L
    bound_gap = N * (tw * c * (b2 + ell * ell) - q * ell + g / (q * ell))

    return EnergyBreakdown(
        jump_sq=jump_sq, l2_sq=l2_sq, gradx_sq=gradx_sq, grady_sq=grady_sq,
        form_gap=form_gap, bound_gap=bound_gap,
        form_gap_modes=gap_modes,
    )


# ---------------------------------------------------------------------------
# Critical angle
# ---------------------------------------------------------------------------

def _bracket(tau: float, N: int) -> tuple[float, float, float, float]:
    """(q, c, b2, g) of the bound-gap bracket, from the constants at m = 1."""
    _require_attractive(tau)
    if N < 1 or int(N) != N:
        raise ParameterError(f"N must be a positive integer, got {N}")
    dc = _derive(tau, 1.0)
    b2 = 2.0 * N * N * math.pi ** 2
    return dc.kappa0, 3.0 + dc.kappa_tau, b2, b2 * dc.kappa_tau


def _tan_angle(q: float, c: float, b2: float, g: float, ell: float) -> float:
    """The tan(w) that zeroes the bracket at l = m L."""
    return (q * ell - g / (q * ell)) / (c * (b2 + ell * ell))


def angle_for_length(tau: float, m: float, L: float, N: int) -> float:
    """The certificate angle omega(L) whose tangent zeroes the bound-gap
    bracket at strip length L; negative means no certificate at this L."""
    return math.atan(_tan_angle(*_bracket(tau, N), m * L))


def _star(tau: float, N: int) -> tuple[float, float]:
    """(omega_star, l_star = m L_star), l_star^2 the quadratic's root."""
    q, c, b2, g = _bracket(tau, N)
    q2 = q * q
    s = q2 * b2 + 3.0 * g
    ell = math.sqrt((s + math.sqrt(s * s + 4.0 * q2 * g * b2)) / (2.0 * q2))
    return math.atan(_tan_angle(q, c, b2, g, ell)), ell


def critical_angle_closed(tau: float, N: int) -> float:
    """Closed-form critical angle omega_star(tau, N), mass-independent."""
    return _star(tau, N)[0]


def critical_angle_maximize(p: PhysParams, N: int) -> tuple[float, float]:
    """(omega_star, L_star): the maximum of omega(L) over L > 0 and the
    strip length that attains it, both in closed form."""
    w_star, ell = _star(p.tau, N)
    return w_star, ell / p.m


def bound_state_certificate(p: PhysParams, N: int) -> tuple[bool, EnergyBreakdown]:
    """Evaluate the N modes at the optimal strip length L_star.

    True certifies at least N eigenvalues (with multiplicity) in the spectral
    gap; False is inconclusive (the estimate, not the statement, failed).
    """
    bd = energy_breakdown(p, N, critical_angle_maximize(p, N)[1])
    return bool(np.all(bd.form_gap_modes < 0.0)), bd


# ---------------------------------------------------------------------------
# Weyl sequence (cut-off plane waves in the exterior)
# ---------------------------------------------------------------------------

# psi_n is centred at (-1 - n^2, 0): its support, the disk of radius n, lies
# in x < 0, off the shell (both rays lie in x >= 0 for every omega <= pi/2).

def smoothstep_cutoff(s):
    """C^2 radial cutoff: 1 on [0, 1/2], quintic smoothstep down to 0 at 1.

    A polynomial profile instead of a C-infinity bump: only the first two
    derivatives enter the residual bounds, and the moments below are exact
    rationals.
    """
    s = np.asarray(s, dtype=float)
    q = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return 1.0 - q ** 3 * (10.0 - 15.0 * q + 6.0 * q * q)


# Exact moments of the cutoff over [0, 1]: chi^2, chi^2 s and chi'^2 s.
_CHI_SQ = 643.0 / 924.0
_CHI_SQ_S = 151.0 / 616.0
_CHI_PRIME_SQ_S = 15.0 / 7.0


def _weyl_spinor_sq(p: PhysParams, lam: float, n: int) -> float:
    """|w|^2 = 2 lam (lam + m) for w = (k sigma_1 + m sigma_3 + lam) e_1."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not abs(lam) > p.m:
        raise ValueError(f"need |lambda| > m for a free wave, got {lam}")
    return 2.0 * lam * (lam + p.m)


def weyl_norm_sq(p: PhysParams, lam: float, n: int) -> float:
    """||psi_n||^2 = 2 pi |w|^2 int_0^1 chi^2 s ds, the same for every n."""
    return 2.0 * math.pi * _weyl_spinor_sq(p, lam, n) * _CHI_SQ_S


def weyl_residual(p: PhysParams, lam: float, n: int) -> float:
    """||(S - lambda) psi_n|| / ||psi_n|| = sqrt(1320/151) / n.

    (k sigma_1 + m sigma_3 - lambda) w = 0 cancels the plane-wave part, so
    (S - lambda) psi_n = -(i/n^2) chi'(r/n) (sigma . r_hat) w e^{i k x_1}
    and the ratio is sqrt(int chi'^2 s ds / int chi^2 s ds) / n.
    """
    _weyl_spinor_sq(p, lam, n)
    return math.sqrt(_CHI_PRIME_SQ_S / _CHI_SQ_S) / n


# ---------------------------------------------------------------------------
# Singular sequence along the shell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SingularSeqReport:
    identity_quadratic: float     # residual of z (M_l^2 + I) = -(8 m tau/(4-tau^2)) M_l
    identity_jump: float          # residual of (2m/tau)(I - M_l)^2 = (8 m tau/(4-tau^2)) M_l
    norm_sq: dict[int, float]     # ||psi_n||^2
    c_lower: float
    c_upper: float
    ok: bool


def _max_entry(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def singular_seq_identities(p: PhysParams, ns=(2, 4, 8)) -> SingularSeqReport:
    """Matrix identities and norm bounds for the shell-aligned sequence.

    The sequence lives in rotated coordinates (xi, zeta) aligned with the
    upper ray: psi_n = n^{-1/2} chi((xi - x_n)/n) chi(c zeta / n) e^{i lam xi}
    v(zeta), with the transverse profile v decaying at rate z on both sides
    and jumping by M_l across the shell.
    """
    _require_attractive(p.tau)
    dc = derived_constants(p)
    m_l = interface_matrices(p)[0]
    eye = np.eye(2)
    z, coef = dc.kappa0, 2.0 * p.m * dc.b

    quad = (z * (m_l @ m_l + eye), coef * m_l)
    half_jump = (2.0 * p.m / p.tau) * (eye - m_l)
    res_quad = _max_entry(quad[0] + quad[1])
    res_jump = _max_entry(half_jump @ (eye - m_l) - coef * m_l)
    # 1e-13 relative to the size of each identity's terms, which grow like
    # ((4 + tau^2) / (4 - tau^2))^2 as tau -> -2.  I - M cancels as tau -> 0,
    # so the jump term counts I - M at the size of its operands, 1 + |M|.
    tol_quad = 1e-13 * max(_max_entry(quad[0]), _max_entry(quad[1]))
    tol_jump = 1e-13 * max(_max_entry(half_jump) * (1.0 + _max_entry(m_l)),
                           _max_entry(coef * m_l))

    s2w = math.sin(2.0 * p.omega)
    c = 2.0 / s2w if s2w > 1e-12 else 1.0

    # chi^2 over one unit of the longitudinal cutoff, and the transverse
    # |v|^2 = |a|^2 e^{-2 z zeta} above the shell, |b|^2 e^{2 z zeta} below
    # it (a = e_1, b = M_l e_1), integrated over [-l, l] for l = 1/c and 60/z
    chi_sq = 2.0 * _CHI_SQ
    ab_sq = 1.0 + float(np.sum(np.abs(m_l[:, 0]) ** 2))
    c_lower, c_upper = (
        chi_sq * ab_sq * (1.0 - math.exp(-2.0 * z * ell)) / (2.0 * z)
        for ell in (1.0 / c, 60.0 / z))

    # |v|^2 is symmetric in zeta up to |a|^2 and |b|^2, so with zeta = n t / c
    # the n-th norm is chi_sq (|a|^2 + |b|^2) (n / c) times the integral of
    # chi(t)^2 e^{-alpha t} over [0, 1], alpha = 2 z n / c: exact on [0, 1/2]
    # where chi = 1, one Gauss rule on the ramp [1/2, 1]
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    t = 0.75 + 0.25 * gl_x
    ramp_w = 0.25 * gl_w * smoothstep_cutoff(t) ** 2
    norms: dict[int, float] = {}
    for n in ns:
        # the support, centred at xi = n^2 + 1, clears the lower ray for
        # every n: that needs n^2 - 1.5 n + 1 > 0, true for all real n
        alpha = 2.0 * z * n / c
        flat = -math.expm1(-0.5 * alpha) / alpha
        ramp = float(np.sum(ramp_w * np.exp(-alpha * t)))
        norms[int(n)] = chi_sq * ab_sq * (n / c) * (flat + ramp)

    # each norm tends to c_upper as alpha grows, so the bounds get the same
    # 1e-13 relative slack as the identities
    ok = (res_quad < tol_quad and res_jump < tol_jump
          and all(c_lower * (1.0 - 1e-13) <= v <= c_upper * (1.0 + 1e-13)
                  for v in norms.values()))
    return SingularSeqReport(
        identity_quadratic=res_quad, identity_jump=res_jump, norm_sq=norms,
        c_lower=c_lower, c_upper=c_upper, ok=ok,
    )
