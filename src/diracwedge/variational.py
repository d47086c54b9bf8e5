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
exterior region, and the singular sequence that travels along the shell.
The Weyl norms and residuals are closed forms in the exact moments of the
quintic cutoff chi, and so are the shell-aligned sequence's norm bounds; its
per-n norms are closed forms apart from one Gauss rule over the ramp of chi.
"""

from __future__ import annotations

import math
import sys

from .model import (DerivedConstants, ParameterError, PhysParams, _Record,
                    derived_constants)

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
    "singular_sequence",
]


def _require_attractive(tau: float) -> DerivedConstants:
    """The constants at m = 1 of a tau < 0 that ``PhysParams`` accepts (so
    finite, away from -2 and 0, with finite derived constants)."""
    if not tau < 0.0:
        raise ParameterError(
            f"certificate machinery requires tau < 0; got {tau}")
    return derived_constants(PhysParams(tau=tau, m=1.0, omega=math.pi / 2.0))


# Most modes energy_breakdown sums: it builds three N-long lists, and at
# N = 1e6 takes 0.5 s and peaks at 138 MB (3e6: 1.8 s and 382 MB, 2-core VM).
_MAX_MODES = 10 ** 6


def _require_count(name: str, n) -> None:
    """Refuse an n that is not a positive integer (inf and NaN included:
    their remainder mod 1 is NaN)."""
    if not (n >= 1 and n % 1 == 0):
        raise ParameterError(f"{name} must be a positive integer, got {n}")


# ---------------------------------------------------------------------------
# Closed-form energies of the test functions
# ---------------------------------------------------------------------------

class EnergyBreakdown(_Record):
    """Closed-form quadratic-form pieces of the sum of the N modes, all
    Python floats.

    form_gap is the exact form value minus eps_tau^2 ||u||^2; bound_gap is
    the n-independent upper estimate whose sign drives the certificate;
    form_gap_modes holds the N exact per-mode contributions, mode n = 1
    first (all negative iff ``certifies``), and form_gap is their correctly
    rounded sum (``math.fsum``).
    """

    _fields = ("jump_sq", "l2_sq", "gradx_sq", "grady_sq", "form_gap",
               "bound_gap", "form_gap_modes")

    def __init__(self, jump_sq: float, l2_sq: float, gradx_sq: float,
                 grady_sq: float, form_gap: float, bound_gap: float,
                 form_gap_modes: tuple[float, ...]) -> None:
        self.__dict__.update(jump_sq=jump_sq, l2_sq=l2_sq, gradx_sq=gradx_sq,
                             grady_sq=grady_sq, form_gap=form_gap,
                             bound_gap=bound_gap,
                             form_gap_modes=form_gap_modes)

    @property
    def certifies(self) -> bool:
        """True when every mode's form gap is negative: then the modes
        certify at least N eigenvalues (with multiplicity) in the gap."""
        return all(g < 0.0 for g in self.form_gap_modes)


def energy_breakdown(p: PhysParams, N: int, L: float) -> EnergyBreakdown:
    """Energies of the sum of the N modes on the strip [L, 2L], for a finite
    L > 0 and N <= 1e6; an L whose energies overflow, or that
    `_bracket_length` refuses, is refused."""
    q, c, b2, g = _bracket(p.tau, N)
    if N > _MAX_MODES:
        raise ParameterError(f"N must be at most {_MAX_MODES}, got {N}")
    m = p.m
    ell = _bracket_length(q, m, L)
    if p.omega >= math.pi / 2.0:
        raise ParameterError("energy closed forms require omega < pi/2")
    dc = derived_constants(p)
    kap, k0, c_t = dc.kappa_tau, dc.kappa0, dc.c_tau
    if not k0 > 0.0:    # the braces divide by kappa0 = m q
        raise ParameterError(
            f"m = {m} is outside the computable range: kappa0 = m q "
            f"underflows to 0 at tau = {p.tau}")
    tw = math.tan(p.omega)
    cw = math.cos(p.omega)

    # Cross-section braces shared by the closed forms; the x-weighted and
    # unweighted sine integrals contribute the 3/2 and 1/2 factors.
    brace_l2 = L * L * tw * c / 2.0 + L * kap / (2.0 * k0)
    brace_gx = L * tw * c / 2.0 + kap / (2.0 * k0)

    # the modes are form-orthogonal, so each piece is a sum over modes;
    # freqs[n - 1] = (2 n pi)^2 / L
    ks = [2.0 * n * math.pi for n in range(1, int(N) + 1)]
    freqs = [k * k / L for k in ks]
    jump_sq = c_t * L / cw * N
    l2_sq = brace_l2 * N
    grady_sq = 0.5 * L * k0 * kap * N

    # Exact pre-estimate gap, mode by mode; kappa0^2 = m^2 - eps_tau^2 and
    # the last term is (2m/tau) times the jump integral.
    gap_modes = [
        f * brace_gx
        + 0.5 * L * k0 * kap
        + k0 * k0 * brace_l2
        + 2.0 * m * L * c_t / (p.tau * cw)
        for f in freqs
    ]
    try:
        gradx_sq = math.fsum(freqs) * brace_gx
        form_gap = math.fsum(gap_modes)
    except OverflowError:     # finite terms whose sum is past the floats
        gradx_sq = form_gap = math.inf

    bound_gap = N * (tw * c * (b2 + ell * ell) - q * ell + g / (q * ell))
    if not all(map(math.isfinite, (jump_sq, l2_sq, gradx_sq, grady_sq,
                                   form_gap, bound_gap))):
        raise ParameterError(
            f"L = {L} is outside the computable range: the energies "
            f"overflow at tau = {p.tau}, m = {m}, omega = {p.omega}, N = {N}")

    return EnergyBreakdown(
        jump_sq=jump_sq, l2_sq=l2_sq, gradx_sq=gradx_sq, grady_sq=grady_sq,
        form_gap=form_gap, bound_gap=bound_gap,
        form_gap_modes=tuple(gap_modes),
    )


# ---------------------------------------------------------------------------
# Critical angle
# ---------------------------------------------------------------------------

def _bracket(tau: float, N: int) -> tuple[float, float, float, float]:
    """(q, c, b2, g) of the bound-gap bracket, from the constants at m = 1;
    an N whose b2 or g overflows is refused."""
    dc = _require_attractive(tau)
    _require_count("N", N)
    # an int N past the floats would raise OverflowError in 2.0 * N
    b2 = 2.0 * N * N * math.pi ** 2 if N <= sys.float_info.max else math.inf
    g = b2 * dc.kappa_tau
    if g == math.inf:
        raise ParameterError(
            f"N is too large: the bracket constants overflow at tau = {tau}")
    return dc.kappa0, 3.0 + dc.kappa_tau, b2, g


def _bracket_length(q: float, m: float, L: float) -> float:
    """l = m L of the bracket at strip length L, for finite positive m and
    L.  The bracket divides by q l, so an l that overflows, or whose q l
    underflows to 0, is refused."""
    if not (0.0 < m < math.inf and 0.0 < L < math.inf):
        raise ParameterError(
            f"m and L must be finite and positive; got m = {m}, L = {L}")
    ell = m * L
    if not (ell < math.inf and q * ell > 0.0):
        raise ParameterError(
            f"m L = {m} * {L} is outside the computable range: the bracket "
            f"needs 0 < q m L < inf, q = {q}")
    return ell


def _tan_angle(q: float, c: float, b2: float, g: float, ell: float) -> float:
    """The tan(w) that zeroes the bracket at l = m L."""
    return (q * ell - g / (q * ell)) / (c * (b2 + ell * ell))


def angle_for_length(tau: float, m: float, L: float, N: int) -> float:
    """The certificate angle omega(L) whose tangent zeroes the bound-gap
    bracket at strip length L; negative means no certificate at this L.
    m and L must be finite and positive, and `_bracket_length` refuses an
    m L outside the bracket's range."""
    bracket = _bracket(tau, N)
    return math.atan(_tan_angle(*bracket, _bracket_length(bracket[0], m, L)))


def _star(tau: float, N: int) -> tuple[float, float]:
    """(omega_star, l_star = m L_star), l_star^2 the quadratic's root."""
    q, c, b2, g = _bracket(tau, N)
    q2 = q * q
    s = q2 * b2 + 3.0 * g
    ell = math.sqrt((s + math.sqrt(s * s + 4.0 * q2 * g * b2)) / (2.0 * q2))
    if ell == math.inf:
        raise ParameterError(
            f"N is too large: l_star overflows at tau = {tau}")
    return math.atan(_tan_angle(q, c, b2, g, ell)), ell


def critical_angle_closed(tau: float, N: int) -> float:
    """Closed-form critical angle omega_star(tau, N), mass-independent."""
    return _star(tau, N)[0]


def critical_angle_maximize(p: PhysParams, N: int) -> tuple[float, float]:
    """(omega_star, L_star): the maximum of omega(L) over L > 0 and the
    strip length that attains it, both in closed form."""
    w_star, ell = _star(p.tau, N)
    if ell / p.m == math.inf:
        raise ParameterError(f"m = {p.m} is too small: L_star overflows")
    return w_star, ell / p.m


def bound_state_certificate(p: PhysParams, N: int) -> tuple[bool, EnergyBreakdown]:
    """Evaluate the N modes at the optimal strip length L_star.

    True certifies at least N eigenvalues (with multiplicity) in the spectral
    gap; False is inconclusive (the estimate, not the statement, failed).
    """
    bd = energy_breakdown(p, N, critical_angle_maximize(p, N)[1])
    return bd.certifies, bd


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
    import numpy as np

    s = np.asarray(s, dtype=float)
    q = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    return 1.0 - q ** 3 * (10.0 - 15.0 * q + 6.0 * q * q)


# Exact moments of the cutoff over [0, 1]: chi^2, chi^2 s and chi'^2 s.
_CHI_SQ = 643.0 / 924.0
_CHI_SQ_S = 151.0 / 616.0
_CHI_PRIME_SQ_S = 15.0 / 7.0


def weyl_norm_sq(p: PhysParams, lam: float, n: int) -> float:
    """||psi_n||^2 = 2 pi |w|^2 int_0^1 chi^2 s ds, the same for every n,
    with |w|^2 = 2 lam (lam + m) for w = (k sigma_1 + m sigma_3 + lam) e_1.

    Refuses a lambda with |lambda| <= m or one whose norm overflows (|lambda|
    from about 1e154).
    """
    _require_count("n", n)
    if not (math.isfinite(lam) and abs(lam) > p.m):
        raise ValueError(f"need finite |lambda| > m for a free wave, got {lam}")
    norm_sq = 2.0 * math.pi * (2.0 * lam * (lam + p.m)) * _CHI_SQ_S
    if norm_sq == math.inf:
        raise ParameterError(f"lambda = {lam} is too large: ||psi_n||^2 "
                             "overflows")
    return norm_sq


def weyl_residual(p: PhysParams, lam: float, n: int) -> float:
    """||(S - lambda) psi_n|| / ||psi_n|| = sqrt(1320/151) / n, for the
    (n, lambda) that ``weyl_norm_sq`` accepts.

    (k sigma_1 + m sigma_3 - lambda) w = 0 cancels the plane-wave part, so
    (S - lambda) psi_n = -(i/n^2) chi'(r/n) (sigma . r_hat) w e^{i k x_1}
    and the ratio is sqrt(int chi'^2 s ds / int chi^2 s ds) / n.
    """
    weyl_norm_sq(p, lam, n)
    return math.sqrt(_CHI_PRIME_SQ_S / _CHI_SQ_S) / n


# ---------------------------------------------------------------------------
# Singular sequence along the shell
# ---------------------------------------------------------------------------

class SingularSeqReport(_Record):
    """norm_sq maps n to ||psi_n||^2."""

    _fields = ("norm_sq", "c_lower", "c_upper")

    def __init__(self, norm_sq: dict[int, float], c_lower: float,
                 c_upper: float) -> None:
        self.__dict__.update(norm_sq=norm_sq, c_lower=c_lower, c_upper=c_upper)


def singular_sequence(p: PhysParams, ns=(2, 4, 8)) -> SingularSeqReport:
    """Norms ||psi_n||^2 of the shell-aligned sequence and the constants
    c_lower <= ||psi_n||^2 <= c_upper that bound them for every n (the
    norms tend to c_upper as m |tau| n grows and meet it to rounding).

    The sequence lives in rotated coordinates (xi, zeta) aligned with the
    upper ray: psi_n = n^{-1/2} chi((xi - x_n)/n) chi(c zeta / n) e^{i lam xi}
    v(zeta), with the transverse profile v decaying at rate z = kappa0 on
    both sides and jumping by M_l across the shell.
    """
    import numpy as np

    _require_attractive(p.tau)
    for n in ns:
        _require_count("n", n)
    dc = derived_constants(p)
    z = dc.kappa0
    s2w = math.sin(2.0 * p.omega)
    c = 2.0 / s2w if s2w > 1e-12 else 1.0

    # chi^2 over one unit of the longitudinal cutoff, and the transverse
    # |v|^2 = |a|^2 e^{-2 z zeta} above the shell, |b|^2 e^{2 z zeta} below
    # it (a = e_1, b = M_l e_1, so |a|^2 + |b|^2 = 1 + kappa_tau), integrated
    # over [-l, l] for l = 1/c and 60/z
    weight = 2.0 * _CHI_SQ * (1.0 + dc.kappa_tau)
    c_lower, c_upper = (weight * (1.0 - math.exp(-2.0 * z * ell)) / (2.0 * z)
                        for ell in (1.0 / c, 60.0 / z))

    # |v|^2 is symmetric in zeta up to |a|^2 and |b|^2, so with zeta = n t / c
    # the n-th norm is weight (n / c) times the integral of chi(t)^2
    # e^{-alpha t} over [0, 1], alpha = 2 z n / c: exact on [0, 1/2] where
    # chi = 1, one Gauss rule on the ramp [1/2, 1].  The support, centred at
    # xi = n^2 + 1, clears the lower ray for every n: that needs
    # n^2 - 1.5 n + 1 > 0, true for all real n.
    gl_x, gl_w = np.polynomial.legendre.leggauss(32)
    t = 0.75 + 0.25 * gl_x
    ramp_w = 0.25 * gl_w * smoothstep_cutoff(t) ** 2
    norms: dict[int, float] = {}
    for n in ns:
        alpha = 2.0 * z * n / c
        flat = -math.expm1(-0.5 * alpha) / alpha
        ramp = float(np.sum(ramp_w * np.exp(-alpha * t)))
        norms[int(n)] = weight * (n / c) * (flat + ramp)
    return SingularSeqReport(norm_sq=norms, c_lower=c_lower, c_upper=c_upper)
