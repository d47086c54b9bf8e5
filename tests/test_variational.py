"""Test-function energies, critical angle, Weyl and singular sequences."""

import math

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid

from diracwedge.model import ParameterError, PhysParams, interface_matrices
from diracwedge.variational import (
    angle_for_length,
    bound_state_certificate,
    critical_angle_closed,
    critical_angle_maximize,
    energy_breakdown,
    singular_seq_identities,
    smoothstep_cutoff,
    weyl_norm_sq,
    weyl_residual,
)

from oracles import (certificate_angles_mp, chi_sq_moments,
                     critical_angle_numeric, energy_pieces_quadrature)

RNG = np.random.default_rng(5)

# Frozen reference: omega_star/L_star for tau=-1 and the energy pieces of the
# N=1 mode evaluated there.
OMEGA_STAR_1 = 0.003288651296915874
L_STAR_1 = 21.15305866460599
PIECES_STAR_1 = {
    "jump_sq": 47.00705122820176,
    "l2_sq": 65.78652876107388,
    "gradx_sq": 5.8043068052100155,
    "grady_sq": 38.54557356661536,
    "form_gap": -7.560843677490851,
}


def test_family_validation():
    p = PhysParams(tau=-1.0, m=1.0, omega=0.01)
    with pytest.raises(ParameterError):
        energy_breakdown(p, 0, 10.0)
    with pytest.raises(ParameterError):
        energy_breakdown(p, 1, -1.0)


# ---------------------------------------------------------------------------
# closed-form energies
# ---------------------------------------------------------------------------

def test_energy_pieces_match_quadrature_reference_case():
    bd = energy_breakdown(PhysParams(tau=-1.0, m=1.0, omega=0.01), 1, 20.0)
    orc = energy_pieces_quadrature(-1.0, 1.0, 0.01, 1, 20.0, [1.0])
    for name in ("jump_sq", "l2_sq", "gradx_sq", "grady_sq", "form_gap"):
        got = getattr(bd, name)
        assert got == pytest.approx(orc[name], rel=1e-6), name


def test_energy_pieces_match_quadrature_random():
    """The oracle weights the modes with random coefficients c_n; form-
    orthogonality predicts each piece as sum |c_n|^2 times the piece of mode
    n alone, read off the library's unit-coefficient sums over 1..n."""
    for _ in range(3):
        tau = -float(RNG.uniform(0.3, 1.8))
        m = float(RNG.uniform(0.5, 2.0))
        N = int(RNG.integers(1, 4))
        L = float(RNG.uniform(5.0, 30.0))
        omega = float(RNG.uniform(0.002, 0.05))
        coeffs = RNG.standard_normal(N)
        p = PhysParams(tau=tau, m=m, omega=omega)
        sums = [energy_breakdown(p, n, L) for n in range(1, N + 1)]
        wts = np.abs(coeffs) ** 2
        orc = energy_pieces_quadrature(tau, m, omega, N, L, coeffs)
        for name in ("jump_sq", "l2_sq", "gradx_sq", "grady_sq"):
            per_mode = np.diff([0.0] + [getattr(bd, name) for bd in sums])
            assert float(np.sum(wts * per_mode)) == pytest.approx(
                orc[name], rel=1e-8), name
        assert float(np.sum(wts * sums[-1].form_gap_modes)) == pytest.approx(
            orc["form_gap"], rel=1e-8)


def test_frozen_pieces_at_the_optimum():
    p = PhysParams(tau=-1.0, m=1.0, omega=OMEGA_STAR_1)
    bd = energy_breakdown(p, 1, L_STAR_1)
    for name, val in PIECES_STAR_1.items():
        assert getattr(bd, name) == pytest.approx(val, rel=1e-12), name


def test_bound_gap_dominates_form_gap():
    # the n-independent estimate can only be worse than the exact value
    for _ in range(5):
        p = PhysParams(tau=-float(RNG.uniform(0.3, 1.8)), m=1.0,
                       omega=float(RNG.uniform(0.002, 0.05)))
        bd = energy_breakdown(p, int(RNG.integers(1, 4)),
                              float(RNG.uniform(5.0, 30.0)))
        assert bd.bound_gap >= np.max(bd.form_gap_modes) - 1e-12


# ---------------------------------------------------------------------------
# critical angle
# ---------------------------------------------------------------------------

def test_angle_for_length_zeroes_bound_gap():
    tau, m, N = -1.0, 1.0, 1
    for L in (15.0, 25.0, 40.0):
        omega = angle_for_length(tau, m, L, N)
        assert omega > 0.0
        p = PhysParams(tau=tau, m=m, omega=omega)
        bd = energy_breakdown(p, N, L)
        assert abs(bd.bound_gap) <= 1e-10
        assert bd.form_gap < 0.0


def test_angle_for_length_negative_below_numerator_root():
    # short strips cannot certify: omega(L) < 0 signals that
    assert angle_for_length(-1.0, 1.0, 1.0, 1) < 0.0


def test_closed_form_against_maximizer():
    for tau in (-0.5, -3.0):
        for n_modes in (1, 2):
            p = PhysParams(tau=tau, m=1.0, omega=0.01)
            w_num, l_num = critical_angle_numeric(tau, 1.0, n_modes)
            w_star, l_star = critical_angle_maximize(p, n_modes)
            assert critical_angle_closed(tau, n_modes) == pytest.approx(
                w_num, abs=1e-10
            )
            assert w_star == critical_angle_closed(tau, n_modes)
            # a flat maximum pins L only to about sqrt(machine eps)
            assert l_star == pytest.approx(l_num, rel=1e-7)


def test_state_of_the_frozen_star():
    assert critical_angle_closed(-1.0, 1) == pytest.approx(OMEGA_STAR_1, abs=1e-15)
    p = PhysParams(tau=-1.0, m=1.0, omega=0.01)
    w, l_ = critical_angle_maximize(p, 1)
    assert w == pytest.approx(OMEGA_STAR_1, abs=1e-12)
    assert l_ == pytest.approx(L_STAR_1, rel=1e-9)


def test_mass_independence():
    # the numeric maximum does not depend on m, so the closed form need not
    vals = [critical_angle_numeric(-1.0, m, 1)[0] for m in (0.5, 1.0, 2.0)]
    assert max(vals) - min(vals) < 1e-12


def test_l_star_satisfies_substitution_identity():
    # x_star = m^2 L_star^2 H - F must hold at the maximizer
    tau, n_modes, m = -1.0, 1, 1.0
    t2 = tau * tau
    plus, minus = 4.0 + t2, 4.0 - t2
    f = n_modes ** 2 * math.pi ** 2 * plus ** 2 * (16.0 * t2 + plus ** 2)
    h = 8.0 * t2 * minus ** 2
    a0 = n_modes ** 2 * math.pi ** 2 * h + 0.5 * f
    x_star = a0 + math.sqrt(a0 * (a0 + 4.0 * f))
    p = PhysParams(tau=tau, m=m, omega=0.01)
    _, l_star = critical_angle_maximize(p, n_modes)
    assert m * m * l_star * l_star * h - f == pytest.approx(x_star, rel=1e-8)


def test_small_angle_limits():
    for tau in (-1e-3, -1.999, -2.001, -1e3):
        assert critical_angle_closed(tau, 1) < 1e-3


def test_critical_angle_rejects_repulsive():
    """A repulsive or non-finite tau is refused, not turned into NaN."""
    for tau in (0.5, 1.0, math.nan, -math.inf):
        with pytest.raises(ParameterError):
            critical_angle_closed(tau, 1)
        with pytest.raises(ParameterError):
            angle_for_length(tau, 1.0, 10.0, 1)


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("tau", [
    -1e-4, -0.3, -1.0, -1.9, -1.999, -2.0 + 1e-6, -2.0 - 1e-6, -2.0 + 1e-8,
    -2.0 - 1e-8, -2.0 + 1.5e-9, -2.0 - 1.5e-9, -2.5, -50.0,
])
def test_certificate_angles_match_mp(tau, N):
    """omega_star, L_star and omega(1.7 L_star) hold to rounding for every
    admissible tau, against 50 digits of the F, G, H closed form and of the
    raw bracket; a constant formed as 4 - tau^2 loses 8 digits at
    tau = -2 +- 1e-8."""
    w_mp, ell_mp, w_ell_mp = certificate_angles_mp(tau, N, 1.7)
    m = 0.6
    w_star, l_star = critical_angle_maximize(
        PhysParams(tau=tau, m=m, omega=0.01), N)
    assert critical_angle_closed(tau, N) == pytest.approx(w_mp, rel=2e-15)
    assert w_star == pytest.approx(w_mp, rel=2e-15)
    assert m * l_star == pytest.approx(ell_mp, rel=2e-15)
    assert angle_for_length(tau, 1.0, float(1.7 * ell_mp), N) == pytest.approx(
        w_ell_mp, rel=2e-15)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

def test_certificate_true_at_critical_angle():
    p = PhysParams(tau=-1.0, m=1.0, omega=OMEGA_STAR_1)
    ok, bd = bound_state_certificate(p, 1)
    assert ok
    assert np.all(bd.form_gap_modes < 0.0)
    assert abs(bd.bound_gap) <= 1e-10


def test_certificate_inconclusive_at_wide_angle():
    p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
    ok, bd = bound_state_certificate(p, 1)
    assert not ok
    assert bd.bound_gap > 0.0


# ---------------------------------------------------------------------------
# cutoff and Weyl sequence
# ---------------------------------------------------------------------------

def _cutoff_prime(s):
    """chi'(s) = -60 q^2 (1 - q)^2 with q = 2 s - 1 clipped to [0, 1]."""
    q = np.clip(2.0 * np.asarray(s, dtype=float) - 1.0, 0.0, 1.0)
    return -60.0 * q * q * (1.0 - q) ** 2


def test_cutoff_shape_and_derivative():
    s = np.linspace(0.0, 1.5, 301)
    chi = smoothstep_cutoff(s)
    assert np.all(chi[s <= 0.5] == 1.0)
    assert np.all(chi[s >= 1.0] == 0.0)
    assert np.all(np.diff(chi) <= 1e-15)
    h = 1e-6
    mids = np.linspace(0.05, 1.2, 40)
    num = (smoothstep_cutoff(mids + h) - smoothstep_cutoff(mids - h)) / (2 * h)
    np.testing.assert_allclose(_cutoff_prime(mids), num, atol=1e-5)
    # C^1 at the two breakpoints
    assert _cutoff_prime(0.5) == 0.0
    assert _cutoff_prime(1.0) == 0.0


def test_cutoff_moments_match_exact_rationals():
    m0, m1, m2 = chi_sq_moments()
    s = np.linspace(0.0, 1.0, 200001)
    chi2 = smoothstep_cutoff(s) ** 2
    assert trapezoid(chi2, s) == pytest.approx(m0, abs=1e-11)
    assert trapezoid(chi2 * s, s) == pytest.approx(m1, abs=1e-11)
    dchi2 = _cutoff_prime(s) ** 2
    assert trapezoid(dchi2 * s, s) == pytest.approx(m2, abs=1e-11)


def test_weyl_supports_disjoint():
    # the n-th centre is c_n = (-1 - n^2, 0), and |c_n - c_m| = n^2 - m^2
    # >= n + m, so the support balls cannot meet
    for n, m in ((4, 8), (8, 16), (4, 16)):
        c_n, c_m = np.array([-1.0 - n * n, 0.0]), np.array([-1.0 - m * m, 0.0])
        dist = float(np.linalg.norm(c_n - c_m))
        assert dist >= n + m


def test_weyl_norm_constancy_and_value():
    _, m1, _ = chi_sq_moments()
    for m, lam in ((1.0, 1.5), (1.0, -1.5), (0.7, 1.5), (0.7, -1.5)):
        p = PhysParams(tau=-1.0, m=m, omega=math.pi / 4.0)
        k_sq = lam * lam - m * m
        # |w|^2 for w = (k sigma_1 + m sigma_3 + lam) e_1 = (m + lam, k)
        predicted = 2.0 * math.pi * m1 * ((m + lam) ** 2 + k_sq)
        norms = [weyl_norm_sq(p, lam, n) for n in (4, 8, 16)]
        for v in norms:
            assert v == pytest.approx(predicted, rel=1e-12)
        assert max(norms) - min(norms) <= 1e-8 * norms[0]


def test_weyl_residual_decays_like_one_over_n():
    p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
    lam = 1.5
    res = {n: weyl_residual(p, lam, n) for n in (4, 8, 16, 32)}
    for n in (4, 8, 16):
        assert res[2 * n] / res[n] <= 0.7
    _, m1, m2 = chi_sq_moments()
    for n, r in res.items():
        assert r == pytest.approx(math.sqrt(m2 / m1) / n, rel=1e-12)


def test_weyl_rejects_subcritical_lambda():
    p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
    with pytest.raises(ValueError):
        weyl_norm_sq(p, 0.5, 4)
    for n in (0, 2.5):
        with pytest.raises(ValueError):
            weyl_norm_sq(p, 1.5, n)
        with pytest.raises(ValueError):
            weyl_residual(p, 1.5, n)


# ---------------------------------------------------------------------------
# singular sequence along the shell
# ---------------------------------------------------------------------------

def test_singular_sequence_report():
    p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
    rep = singular_seq_identities(p)
    assert rep.identity_quadratic <= 1e-14
    assert rep.identity_jump <= 1e-14
    assert rep.ok
    assert set(rep.norm_sq) == {2, 4, 8}
    for v in rep.norm_sq.values():
        assert rep.c_lower <= v <= rep.c_upper
    assert 0.0 < rep.c_lower < rep.c_upper


@pytest.mark.parametrize("omega", [1.2, 0.5])
def test_singular_sequence_norms_match_split_quad(omega):
    """Each per-n norm is 2 int chi^2 times the zeta integral of
    chi(|c zeta / n|)^2 |v|^2, here by quad split at the kinks -h/2, 0, h/2."""
    p = PhysParams(tau=-1.0, m=1.0, omega=omega)
    ns = tuple(range(2, 9))
    rep = singular_seq_identities(p, ns=ns)
    m_l = interface_matrices(p)[0]
    nb = float(np.sum(np.abs(m_l[:, 0]) ** 2))
    z = -4.0 * p.m * p.tau / (p.tau ** 2 + 4.0)
    c = 2.0 / math.sin(2.0 * omega)
    chi_sq = 2.0 * chi_sq_moments()[0]
    for n in ns:
        h = n / c

        def f(zt):
            vsq = (math.exp(-2.0 * z * zt) if zt >= 0.0
                   else nb * math.exp(2.0 * z * zt))
            return float(smoothstep_cutoff(abs(c * zt / n))) ** 2 * vsq

        cuts = (-h, -h / 2.0, 0.0, h / 2.0, h)
        ref = chi_sq * sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13)[0]
                           for a, b in zip(cuts, cuts[1:]))
        assert rep.norm_sq[n] == pytest.approx(ref, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("tau", [-1.9, -1.99, -2.0 + 1e-6, -1e-3])
def test_singular_sequence_identities_relative_near_minus_two(tau,
                                                              monkeypatch):
    """The identities hold to rounding relative to their terms, which grow
    like ((4 + tau^2) / (4 - tau^2))^2 as tau -> -2; an M_l off by 1e-9
    relative still fails them."""
    import diracwedge.variational as var

    p = PhysParams(tau=tau, m=1.0, omega=0.6)
    assert singular_seq_identities(p).ok
    real = var.interface_matrices
    monkeypatch.setattr(var, "interface_matrices",
                        lambda q: (real(q)[0] * (1.0 + 1e-9), real(q)[1]))
    assert not singular_seq_identities(p).ok


def test_singular_sequence_other_strengths():
    for tau in (-0.5, -3.0):
        rep = singular_seq_identities(
            PhysParams(tau=tau, m=1.3, omega=0.6), ns=(2, 4)
        )
        assert rep.identity_quadratic <= 1e-13
        assert rep.identity_jump <= 1e-13
        assert rep.ok


def test_singular_sequence_norms_reach_the_upper_bound():
    """At large m |tau| every norm but the first tends to the infinite-window
    bound c_upper, which it meets to rounding (here 1 ulp above it); the
    bounds allow the identities' 1e-13 relative slack."""
    rep = singular_seq_identities(
        PhysParams(tau=-0.9763000989628088, m=37.0, omega=0.6))
    assert rep.ok
    for n in (4, 8):
        assert rep.norm_sq[n] == pytest.approx(rep.c_upper, rel=1e-13)
