"""Test-function energies, critical angle, Weyl and singular sequences."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from diracwedge.model import (ParameterError, PhysParams, derived_constants,
                              interface_matrices)
from diracwedge.variational import (
    angle_for_length,
    bound_state_certificate,
    critical_angle_closed,
    critical_angle_maximize,
    energy_breakdown,
    singular_seq_identities,
    smoothstep_cutoff,
    smoothstep_cutoff_prime,
    weyl_center,
    weyl_norm_sq,
    weyl_residual,
)
# aliased so pytest does not collect them as test items
from diracwedge.variational import test_function_family as make_family
from diracwedge.variational import test_function_gradient as family_gradient
from diracwedge.variational import test_function_value as family_value

from oracles import (chi_sq_moments, critical_angle_numeric,
                     energy_pieces_quadrature)
from oracles import testfn_value_reference as raw_value_reference

RNG = np.random.default_rng(5)

# Frozen reference: omega_star/L_star for tau=-1 and the energy pieces of the
# N=1 unit-coefficient family evaluated there.
OMEGA_STAR_1 = 0.003288651296915874
L_STAR_1 = 21.15305866460599
PIECES_STAR_1 = {
    "jump_sq": 47.00705122820176,
    "l2_sq": 65.78652876107388,
    "gradx_sq": 5.8043068052100155,
    "grady_sq": 38.54557356661536,
    "form_gap": -7.560843677490851,
}


def family(tau=-1.0, m=1.0, omega=0.01, N=1, L=20.0, coefficients=None):
    p = PhysParams(tau=tau, m=m, omega=omega)
    return make_family(p, N=N, L=L, coefficients=coefficients)


# ---------------------------------------------------------------------------
# pointwise values
# ---------------------------------------------------------------------------

def test_pointwise_values_match_raw_definition():
    fam = family(N=2, coefficients=[1.0, -0.3])
    pts = [(25.0, 0.05), (25.0, 0.6), (25.0, -0.6), (10.0, 0.1), (45.0, 0.0)]
    for x, y in pts:
        got = family_value(fam, x, y)
        ref = raw_value_reference(-1.0, 1.0, 0.01, 20.0, [1.0, -0.3], x, y)
        np.testing.assert_allclose(got, ref, atol=1e-14)


def test_support_is_the_doubled_strip():
    fam = family()
    assert np.all(family_value(fam, 19.9, 0.0) == 0.0)
    assert np.all(family_value(fam, 40.1, 0.0) == 0.0)
    assert np.any(family_value(fam, 30.0, 0.0) != 0.0)


def test_gradient_matches_finite_differences():
    fam = family(N=2, coefficients=[0.7, 0.4], omega=0.02)
    h = 1e-6
    for x, y in ((26.0, 0.3), (33.0, -1.5), (37.0, 2.5)):
        gx, gy = family_gradient(fam, x, y)
        fx = (family_value(fam, x + h, y)
              - family_value(fam, x - h, y)) / (2.0 * h)
        fy = (family_value(fam, x, y + h)
              - family_value(fam, x, y - h)) / (2.0 * h)
        np.testing.assert_allclose(gx, fx, atol=1e-6)
        np.testing.assert_allclose(gy, fy, atol=1e-6)


def test_family_validation():
    p = PhysParams(tau=-1.0, m=1.0, omega=0.01)
    with pytest.raises(ParameterError):
        make_family(p, N=0, L=10.0)
    with pytest.raises(ParameterError):
        make_family(p, N=1, L=-1.0)
    with pytest.raises(ParameterError):
        make_family(p, N=2, L=10.0, coefficients=[1.0])


# ---------------------------------------------------------------------------
# closed-form energies
# ---------------------------------------------------------------------------

def test_energy_pieces_match_quadrature_reference_case():
    fam = family()
    bd = energy_breakdown(fam)
    orc = energy_pieces_quadrature(-1.0, 1.0, 0.01, 1, 20.0, [1.0])
    for name in ("jump_sq", "l2_sq", "gradx_sq", "grady_sq", "form_gap"):
        got = getattr(bd, name)
        assert got == pytest.approx(orc[name], rel=1e-6), name


def test_energy_pieces_match_quadrature_random():
    for _ in range(3):
        tau = -float(RNG.uniform(0.3, 1.8))
        m = float(RNG.uniform(0.5, 2.0))
        N = int(RNG.integers(1, 4))
        L = float(RNG.uniform(5.0, 30.0))
        omega = float(RNG.uniform(0.002, 0.05))
        coeffs = RNG.standard_normal(N)
        fam = family(tau=tau, m=m, omega=omega, N=N, L=L, coefficients=coeffs)
        bd = energy_breakdown(fam)
        orc = energy_pieces_quadrature(tau, m, omega, N, L, coeffs)
        for name in ("jump_sq", "l2_sq", "gradx_sq", "grady_sq", "form_gap"):
            assert getattr(bd, name) == pytest.approx(orc[name], rel=1e-8), name


def test_quadratic_homogeneity():
    fam1 = family(N=2, coefficients=[1.0, 0.5])
    fam_s = family(N=2, coefficients=[3.0, 1.5])
    b1, bs = energy_breakdown(fam1), energy_breakdown(fam_s)
    for name in ("jump_sq", "l2_sq", "gradx_sq", "grady_sq", "form_gap",
                 "bound_gap"):
        assert getattr(bs, name) == pytest.approx(9.0 * getattr(b1, name),
                                                  rel=1e-14), name


def test_frozen_pieces_at_the_optimum():
    p = PhysParams(tau=-1.0, m=1.0, omega=OMEGA_STAR_1)
    bd = energy_breakdown(make_family(p, N=1, L=L_STAR_1))
    for name, val in PIECES_STAR_1.items():
        assert getattr(bd, name) == pytest.approx(val, rel=1e-12), name


def test_bound_gap_dominates_form_gap():
    # the n-independent estimate can only be worse than the exact value
    for _ in range(5):
        fam = family(
            tau=-float(RNG.uniform(0.3, 1.8)),
            omega=float(RNG.uniform(0.002, 0.05)),
            N=int(RNG.integers(1, 4)),
            L=float(RNG.uniform(5.0, 30.0)),
        )
        bd = energy_breakdown(fam)
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
        bd = energy_breakdown(make_family(p, N=N, L=L))
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
    with pytest.raises(ParameterError):
        critical_angle_closed(0.5, 1)
    with pytest.raises(ParameterError):
        angle_for_length(1.0, 1.0, 10.0, 1)


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

def test_cutoff_shape_and_derivative():
    s = np.linspace(0.0, 1.5, 301)
    chi = smoothstep_cutoff(s)
    assert np.all(chi[s <= 0.5] == 1.0)
    assert np.all(chi[s >= 1.0] == 0.0)
    assert np.all(np.diff(chi) <= 1e-15)
    h = 1e-6
    mids = np.linspace(0.05, 1.2, 40)
    num = (smoothstep_cutoff(mids + h) - smoothstep_cutoff(mids - h)) / (2 * h)
    np.testing.assert_allclose(smoothstep_cutoff_prime(mids), num, atol=1e-5)
    # C^1 at the two breakpoints
    assert smoothstep_cutoff_prime(0.5) == 0.0
    assert smoothstep_cutoff_prime(1.0) == 0.0


def test_cutoff_moments_match_exact_rationals():
    m0, m1, m2 = chi_sq_moments()
    s = np.linspace(0.0, 1.0, 200001)
    chi2 = smoothstep_cutoff(s) ** 2
    assert np.trapezoid(chi2, s) == pytest.approx(m0, abs=1e-11)
    assert np.trapezoid(chi2 * s, s) == pytest.approx(m1, abs=1e-11)
    dchi2 = smoothstep_cutoff_prime(s) ** 2
    assert np.trapezoid(dchi2 * s, s) == pytest.approx(m2, abs=1e-11)


def test_weyl_supports_disjoint():
    # |c_n - c_m| = n^2 - m^2 >= n + m, so the support balls cannot meet
    for n, m in ((4, 8), (8, 16), (4, 16)):
        dist = float(np.linalg.norm(weyl_center(n) - weyl_center(m)))
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
    m_l = interface_matrices(p)[0].entries
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


def test_singular_sequence_other_strengths():
    for tau in (-0.5, -3.0):
        rep = singular_seq_identities(
            PhysParams(tau=tau, m=1.3, omega=0.6), ns=(2, 4)
        )
        assert rep.identity_quadratic <= 1e-13
        assert rep.identity_jump <= 1e-13
        assert rep.ok
