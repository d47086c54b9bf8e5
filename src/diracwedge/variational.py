"""Variational certificates for gap eigenvalues and essential-spectrum sequences.

The central object is a family of explicit spinor test functions supported in
a strip x in [L, 2L] across the wedge boundary,

    u_n(x, y) = f_n(x) g(y) h(x, y),   n = 1..N,
    f_n(x) = sin(2 n pi x / L) on [L, 2L], else 0,
    g(y)   = 1 for |y| <= 2d,  e^{-kappa0 (|y| - 2d)} beyond,   d = L tan(omega),
    h      = (1, 0)^T inside the wedge and M_l (1,0)^T / M_r (1,0)^T above /
             below it (so the transmission condition holds by construction).

All four energy pieces of the quadratic form have closed forms; their
combination gives the exact "form gap" (form value minus the squared gap
edge times the squared norm) and the working upper estimate "bound gap":

    bound_gap / sum |c_n|^2 = tan(w) (3 + kappa)(2 N^2 pi^2 + m^2 L^2)
                              + 4 m L tau / (4 + tau^2)
                              + 2 N^2 pi^2 kappa / (L kappa0).

The angle that zeroes this bracket, maximized over the strip length L, is the
critical angle omega_star below which the family certifies at least N
eigenvalues in the spectral gap.  Both omega_star and the maximizing length
L_star have closed forms through the polynomials F, G, H and the unique
positive solution x_star of a quadratic (m^2 L_star^2 H = F + x_star); the
tests check them against a numeric maximization of omega(L).

The module also evaluates the two explicit sequences that pin down the
essential spectrum: a Weyl sequence of cut-off plane waves deep inside the
exterior region, and the matrix identities behind the singular sequence that
travels along the shell.  The Weyl norms and residuals are closed forms in
the exact moments of the quintic cutoff chi, and so are the shell-aligned
sequence's norm bounds; only its per-n norms are integrated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ParameterError,
    PhysParams,
    derived_constants,
    interface_matrices,
)

__all__ = [
    "TestFunctionFamily",
    "EnergyBreakdown",
    "test_function_family",
    "test_function_value",
    "test_function_gradient",
    "energy_breakdown",
    "angle_for_length",
    "critical_angle_closed",
    "critical_angle_maximize",
    "bound_state_certificate",
    "smoothstep_cutoff",
    "smoothstep_cutoff_prime",
    "weyl_center",
    "weyl_norm_sq",
    "weyl_residual",
    "SingularSeqReport",
    "singular_seq_identities",
]

_TAU_GUARD = 1e-9


def _require_attractive(tau: float) -> None:
    if tau >= 0.0 or abs(tau + 2.0) <= _TAU_GUARD:
        raise ParameterError(
            f"certificate machinery requires tau < 0, tau != -2; got {tau}"
        )


# ---------------------------------------------------------------------------
# Test-function family and closed-form energies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunctionFamily:
    params: PhysParams
    N: int
    L: float
    coefficients: np.ndarray  # complex (N,)

    @property
    def d(self) -> float:
        """Half-height L tan(omega) of the wedge at the near end x = L; the
        plateau 2d is the half-height at x = 2L."""
        return self.L * math.tan(self.params.omega)

    @property
    def kappa0(self) -> float:
        return derived_constants(self.params).kappa0


def test_function_family(p: PhysParams, N: int, L: float,
                         coefficients=None) -> TestFunctionFamily:
    if N < 1 or int(N) != N:
        raise ParameterError(f"N must be a positive integer, got {N}")
    if L <= 0.0:
        raise ParameterError(f"L must be positive, got {L}")
    if coefficients is None:
        c = np.ones(int(N), dtype=complex)
    else:
        c = np.asarray(coefficients, dtype=complex)
        if c.shape != (int(N),):
            raise ParameterError(
                f"need exactly N={N} coefficients, got shape {c.shape}"
            )
    return TestFunctionFamily(params=p, N=int(N), L=float(L), coefficients=c)


def _profile_vectors(p: PhysParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_in, h_above, h_below): the wedge profile and its transmitted images."""
    m_l, m_r = interface_matrices(p)
    e0 = np.array([1.0, 0.0], dtype=complex)
    return e0, m_l.entries @ e0, m_r.entries @ e0


def _f_and_fprime(fam: TestFunctionFamily, x: np.ndarray):
    L = fam.L
    x = np.asarray(x, dtype=float)
    inside = (x >= L) & (x <= 2.0 * L)
    f = np.zeros(x.shape, dtype=complex)
    fp = np.zeros(x.shape, dtype=complex)
    for n, cn in enumerate(fam.coefficients, start=1):
        arg = 2.0 * n * np.pi * x / L
        f += cn * np.sin(arg) * inside
        fp += cn * (2.0 * n * np.pi / L) * np.cos(arg) * inside
    return f, fp


def _g_and_gprime(fam: TestFunctionFamily, y: np.ndarray):
    k0 = fam.kappa0
    two_d = 2.0 * fam.d
    y = np.asarray(y, dtype=float)
    ay = np.abs(y)
    outer = ay > two_d
    g = np.where(outer, np.exp(-k0 * (ay - two_d)), 1.0)
    gp = np.where(outer, -k0 * np.sign(y) * np.exp(-k0 * (ay - two_d)), 0.0)
    return g, gp


def _region_profiles(fam: TestFunctionFamily, x, y) -> np.ndarray:
    h_in, h_up, h_dn = _profile_vectors(fam.params)
    slope = math.tan(fam.params.omega)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = np.empty(np.broadcast(x, y).shape + (2,), dtype=complex)
    up = y > x * slope
    dn = y < -x * slope
    h[...] = h_in
    h[up] = h_up
    h[dn] = h_dn
    return h


def test_function_value(fam: TestFunctionFamily, x, y) -> np.ndarray:
    """u(x, y) as a complex 2-vector; broadcasts over array arguments."""
    f, _ = _f_and_fprime(fam, x)
    g, _ = _g_and_gprime(fam, y)
    h = _region_profiles(fam, x, y)
    return (f * g)[..., None] * h


def test_function_gradient(fam: TestFunctionFamily, x, y):
    """(du/dx, du/dy) away from the region boundaries."""
    f, fp = _f_and_fprime(fam, x)
    g, gp = _g_and_gprime(fam, y)
    h = _region_profiles(fam, x, y)
    return (fp * g)[..., None] * h, (f * gp)[..., None] * h


@dataclass(frozen=True)
class EnergyBreakdown:
    """Closed-form quadratic-form pieces of a test-function family.

    form_gap is the exact form value minus eps_tau^2 ||u||^2; bound_gap is
    the n-independent upper estimate whose sign drives the certificate;
    form_gap_modes are the exact per-mode contributions (all negative iff
    the family certifies N gap eigenvalues).
    """

    jump_sq: float
    l2_sq: float
    gradx_sq: float
    grady_sq: float
    form_gap: float
    bound_gap: float
    form_gap_modes: np.ndarray


def energy_breakdown(fam: TestFunctionFamily) -> EnergyBreakdown:
    p = fam.params
    _require_attractive(p.tau)
    if p.omega >= math.pi / 2.0:
        raise ParameterError("energy closed forms require omega < pi/2")
    dc = derived_constants(p)
    kap, k0, c_t = dc.kappa_tau, dc.kappa0, dc.c_tau
    tau, m, L, N = p.tau, p.m, fam.L, fam.N
    tw = math.tan(p.omega)
    cw = math.cos(p.omega)
    wts = np.abs(fam.coefficients) ** 2
    s = float(np.sum(wts))
    ns = np.arange(1, N + 1, dtype=float)

    # Cross-section braces shared by the closed forms; the x-weighted and
    # unweighted sine integrals contribute the 3/2 and 1/2 factors.
    brace_l2 = L * L * tw * (3.0 + kap) / 2.0 + L * kap / (2.0 * k0)
    brace_gx = L * tw * (3.0 + kap) / 2.0 + kap / (2.0 * k0)

    jump_sq = c_t * L / cw * s
    l2_sq = brace_l2 * s
    gradx_sq = float(np.sum(wts * (2.0 * ns * np.pi) ** 2 / L) * brace_gx)
    grady_sq = 0.5 * L * k0 * kap * s

    # Exact pre-estimate gap, mode by mode; the third coefficient equals
    # m^2 - eps_tau^2 and the last term is (2m/tau) times the jump integral.
    gap_modes = wts * (
        (2.0 * ns * np.pi) ** 2 / L * brace_gx
        + 0.5 * L * k0 * kap
        + (16.0 * m * m * tau * tau / (tau * tau + 4.0) ** 2) * brace_l2
        + 2.0 * m * L * c_t / (tau * cw)
    )
    form_gap = float(np.sum(gap_modes))

    bound_brace = (
        tw * (3.0 + kap) * (2.0 * N * N * np.pi ** 2 + m * m * L * L)
        + 4.0 * m * L * tau / (4.0 + tau * tau)
        + 2.0 * N * N * np.pi ** 2 * kap / (L * k0)
    )
    bound_gap = bound_brace * s

    return EnergyBreakdown(
        jump_sq=jump_sq, l2_sq=l2_sq, gradx_sq=gradx_sq, grady_sq=grady_sq,
        form_gap=form_gap, bound_gap=float(bound_gap),
        form_gap_modes=gap_modes,
    )


# ---------------------------------------------------------------------------
# Critical angle
# ---------------------------------------------------------------------------

def _fgh(tau: float, N: int) -> tuple[float, float, float]:
    t2 = tau * tau
    plus = 4.0 + t2
    minus = 4.0 - t2
    f = N * N * math.pi ** 2 * plus ** 2 * (16.0 * t2 + plus ** 2)
    g = (minus ** 2 + plus ** 2) * 4.0 * abs(tau) * plus
    h = 8.0 * t2 * minus ** 2
    return f, g, h


def angle_for_length(tau: float, m: float, L: float, N: int) -> float:
    """The certificate angle omega(L) whose tangent zeroes the bound-gap
    bracket at strip length L; negative means no certificate at this L."""
    _require_attractive(tau)
    t2 = tau * tau
    plus, minus = 4.0 + t2, 4.0 - t2
    num = (N * N * math.pi ** 2 * plus ** 2 * (16.0 * t2 + plus ** 2)
           - 8.0 * m * m * L * L * t2 * minus ** 2)
    den = ((2.0 * N * N * math.pi ** 2 + m * m * L * L)
           * (minus ** 2 + plus ** 2) * 4.0 * m * tau * L * plus)
    return math.atan(num / den)


def _x_star(tau: float, N: int) -> tuple[float, float, float, float]:
    """(F, G, H, x_star): the polynomials of the critical-angle closed form
    and the positive root x_star of its quadratic, with m^2 L_star^2 H =
    F + x_star at the maximizing strip length."""
    _require_attractive(tau)
    if N < 1 or int(N) != N:
        raise ParameterError(f"N must be a positive integer, got {N}")
    f, g, h = _fgh(tau, int(N))
    a0 = N * N * math.pi ** 2 * h + 0.5 * f
    return f, g, h, a0 + math.sqrt(a0 * (a0 + 4.0 * f))


def critical_angle_closed(tau: float, N: int) -> float:
    """Closed-form critical angle omega_star(tau, N), mass-independent."""
    f, g, h, x_star = _x_star(tau, N)
    tan_w = (x_star * h ** 1.5
             / (g * (2.0 * N * N * math.pi ** 2 * h + f + x_star)
                * math.sqrt(f + x_star)))
    return math.atan(tan_w)


def critical_angle_maximize(p: PhysParams, N: int) -> tuple[float, float]:
    """(omega_star, L_star): the maximum of omega(L) over L > 0 and the
    strip length that attains it, both in closed form."""
    f, _, h, x_star = _x_star(p.tau, N)
    return critical_angle_closed(p.tau, N), math.sqrt((f + x_star) / h) / p.m


def bound_state_certificate(p: PhysParams, N: int) -> tuple[bool, EnergyBreakdown]:
    """Evaluate the family at the optimal strip length with unit coefficients.

    True certifies at least N eigenvalues (with multiplicity) in the spectral
    gap; False is inconclusive (the estimate, not the statement, failed).
    """
    _require_attractive(p.tau)
    _, l_star = critical_angle_maximize(p, int(N))
    fam = test_function_family(p, int(N), l_star)
    bd = energy_breakdown(fam)
    ok = bool(np.all(bd.form_gap_modes < 0.0))
    return ok, bd


# ---------------------------------------------------------------------------
# Weyl sequence (cut-off plane waves in the exterior)
# ---------------------------------------------------------------------------

def smoothstep_cutoff(s):
    """C^2 radial cutoff: 1 on [0, 1/2], quintic smoothstep down to 0 at 1.

    A polynomial profile instead of a C-infinity bump: only the first two
    derivatives enter the residual bounds, and the moments below are exact
    rationals.
    """
    s = np.asarray(s, dtype=float)
    q = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return 1.0 - q ** 3 * (10.0 - 15.0 * q + 6.0 * q * q)


def smoothstep_cutoff_prime(s):
    s = np.asarray(s, dtype=float)
    q = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return -2.0 * 30.0 * q * q * (1.0 - q) ** 2


# Exact moments of the cutoff over [0, 1]: chi^2, chi^2 s and chi'^2 s.
_CHI_SQ = 643.0 / 924.0
_CHI_SQ_S = 151.0 / 616.0
_CHI_PRIME_SQ_S = 15.0 / 7.0


def weyl_center(n: int) -> np.ndarray:
    """Center (-1 - n^2, 0) of the n-th cut-off plane wave.

    Its support, the disk of radius n around this center, lies in x < 0,
    and both rays lie in x >= 0 for every omega <= pi/2, so the support
    never meets the shell.
    """
    return np.array([-1.0 - float(n * n), 0.0])


def _weyl_spinor_sq(p: PhysParams, lam: float, n: int) -> float:
    """|w|^2 = 2 lam (lam + m) for w = (k sigma_1 + m sigma_3 + lam) e_1."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if abs(lam) <= p.m:
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
    norm_sq: dict[int, float]     # ||psi_n||^2 by quadrature
    c_lower: float
    c_upper: float
    ok: bool


def singular_seq_identities(p: PhysParams, ns=(2, 4, 8)) -> SingularSeqReport:
    """Matrix identities and norm bounds for the shell-aligned sequence.

    The sequence lives in rotated coordinates (xi, zeta) aligned with the
    upper ray: psi_n = n^{-1/2} chi((xi - x_n)/n) chi(c zeta / n) e^{i lam xi}
    v(zeta), with the transverse profile v decaying at rate z on both sides
    and jumping by M_l across the shell.
    """
    _require_attractive(p.tau)
    tau, m = p.tau, p.m
    m_l = interface_matrices(p)[0].entries
    eye = np.eye(2)
    z = -4.0 * m * tau / (tau * tau + 4.0)
    coef = 8.0 * m * tau / (4.0 - tau * tau)

    res_quad = float(np.max(np.abs(z * (m_l @ m_l + eye) + coef * m_l)))
    res_jump = float(np.max(np.abs(
        (2.0 * m / tau) * (eye - m_l) @ (eye - m_l) - coef * m_l)))

    avec = np.array([1.0, 0.0], dtype=complex)
    bvec = m_l @ avec

    s2w = math.sin(2.0 * p.omega)
    c = 2.0 / s2w if s2w > 1e-12 else 1.0

    # chi^2 over one unit of the longitudinal cutoff, and the transverse
    # |v|^2 = |a|^2 e^{-2 z zeta} above the shell, |b|^2 e^{2 z zeta} below
    # it, integrated over [-l, l] for l = 1/c and 60/z
    chi_sq = 2.0 * _CHI_SQ
    na, nb = float(np.sum(np.abs(avec) ** 2)), float(np.sum(np.abs(bvec) ** 2))
    c_lower, c_upper = (
        chi_sq * (na + nb) * (1.0 - math.exp(-2.0 * z * ell)) / (2.0 * z)
        for ell in (1.0 / c, 60.0 / z))

    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    norms: dict[int, float] = {}
    for n in ns:
        x_c = float(n * n + 1)
        half_z = n / c
        # support must stay clear of the lower ray (at angle 2 omega here)
        if s2w > 1e-12:
            xi_hit = half_z / s2w * abs(math.cos(2.0 * p.omega))
            if x_c - n <= xi_hit and math.cos(2.0 * p.omega) > 0.0:
                raise RuntimeError(
                    f"n={n} support touches the second ray; widen c"
                )
        # a multiple of 4 cells puts the kinks of chi at +-half_z/2 and of
        # v at 0 on cell edges, so each Gauss cell sees a smooth integrand
        n_cells = 4 * max(4, (int(8 * half_z) + 1) // 2)
        zeta_cells = np.linspace(-half_z, half_z, n_cells + 1)
        acc = 0.0
        for lo, hi in zip(zeta_cells[:-1], zeta_cells[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            zt = mid + half * gl_x
            w_ = half * gl_w
            vsq = np.where(zt >= 0.0, na * np.exp(-2.0 * z * zt),
                           nb * np.exp(2.0 * z * zt))
            acc += float(np.sum(
                w_ * smoothstep_cutoff(np.abs(c * zt / n)) ** 2 * vsq))
        norms[int(n)] = chi_sq * acc

    ok = (res_quad < 1e-13 and res_jump < 1e-13
          and all(c_lower <= v <= c_upper for v in norms.values()))
    return SingularSeqReport(
        identity_quadratic=res_quad, identity_jump=res_jump, norm_sq=norms,
        c_lower=c_lower, c_upper=c_upper, ok=ok,
    )
