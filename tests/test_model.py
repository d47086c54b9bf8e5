"""Transmission-matrix algebra and derived constants."""

import dataclasses
import math
import pickle

import mpmath
import numpy as np
import pytest

from diracwedge.model import (
    ParameterError,
    PhysParams,
    _refine,
    derived_constants,
    interface_matrices,
    pauli,
    sigma_dot,
    special_matrices,
    transmission_matrix,
)
from diracwedge.spin_orbit import _det_factor

from oracles import _ab

RNG = np.random.default_rng(20240817)

S0, S1, S2, S3 = (pauli(j) for j in range(4))


def random_params(rng, n):
    """n valid (tau, omega) draws away from the excluded strengths."""
    out = []
    while len(out) < n:
        tau = float(rng.uniform(-6.0, 6.0))
        if min(abs(tau - 2.0), abs(tau + 2.0), abs(tau)) < 1e-2:
            continue
        omega = float(rng.uniform(1e-3, math.pi / 2.0))
        out.append(PhysParams(tau=tau, m=float(rng.uniform(0.2, 3.0)), omega=omega))
    return out


def random_unit(rng):
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return (math.cos(phi), math.sin(phi))


def test_pauli_values():
    assert np.array_equal(S3, np.diag([1.0, -1.0]))
    assert np.array_equal(S1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(S2, np.array([[0.0, -1.0j], [1.0j, 0.0]]))
    assert np.max(np.abs(S1 @ S2 + S2 @ S1)) == 0.0
    assert np.max(np.abs(S1 @ S2 - 1j * S3)) == 0.0


def test_sigma_dot_unpacks_components():
    v = (0.3, -1.2)
    np.testing.assert_allclose(sigma_dot(v), v[0] * S1 + v[1] * S2, atol=0.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        PhysParams(tau=2.0, m=1.0, omega=0.5)
    with pytest.raises(ParameterError):
        PhysParams(tau=0.0, m=1.0, omega=0.5)
    with pytest.raises(ParameterError):
        PhysParams(tau=-2.0 + 1e-12, m=1.0, omega=0.5)
    with pytest.raises(ParameterError):
        PhysParams(tau=-1.0, m=0.0, omega=0.5)
    with pytest.raises(ParameterError):
        PhysParams(tau=-1.0, m=1.0, omega=math.pi / 2.0 + 1e-6)
    with pytest.raises(ParameterError):
        PhysParams(tau=-1.0, m=1.0, omega=0.0)
    with pytest.raises(ParameterError):
        PhysParams(tau=float("nan"), m=1.0, omega=0.5)
    # derived constants that overflow: a float OverflowError, then inf/inf
    for tau in (-1e100, -1e200, 1e200):
        with pytest.raises(ParameterError, match="tau"):
            PhysParams(tau=tau, m=1.0, omega=0.5)
    PhysParams(tau=-8e76, m=1.0, omega=0.5)
    # a mass whose eps_tau^2 overflows, on either side of tau = 0
    for tau, m in ((-1.0, 1e200), (1.0, 1e160)):
        with pytest.raises(ParameterError, match="m = 1e"):
            PhysParams(tau=tau, m=m, omega=0.5)
    PhysParams(tau=1.0, m=1e150, omega=0.5)
    # pi/2 itself is the straight-line reference case and must be accepted
    PhysParams(tau=-1.0, m=1.0, omega=math.pi / 2.0)


def test_derived_constants_reference_point():
    dc = derived_constants(PhysParams(tau=-1.0, m=1.0, omega=0.3))
    assert dc.a == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert dc.b == pytest.approx(-4.0 / 3.0, abs=1e-15)
    assert dc.eps_tau == pytest.approx(3.0 / 5.0, abs=1e-15)
    assert dc.kappa0 == pytest.approx(4.0 / 5.0, abs=1e-15)
    assert dc.kappa_tau == pytest.approx(41.0 / 9.0, abs=1e-14)
    assert dc.c_tau == pytest.approx(20.0 / 9.0, abs=1e-14)


@pytest.mark.parametrize("tau", [s * (2.0 + off) for s in (1.0, -1.0)
                                 for off in (2e-9, -2e-9, 1e-8, -1e-8)])
def test_derived_constants_near_two_match_mpmath(tau):
    """No digits cancel in 4 - tau^2 as |tau| -> 2: against 50-digit
    values from the float tau itself, a and b keep 2e-16 and the squared
    constants 1e-15 relative accuracy (4 - tau^2 in float lost 2.5e-9)."""
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        d = 4 - t * t
        want = {"a": (4 + t * t) / d, "b": 4 * t / d,
                "eps_tau": abs(d) / (t * t + 4) if tau < 0.0 else 1,
                "kappa_tau": ((4 + t * t) ** 2 + 16 * t * t) / d ** 2,
                "c_tau": 4 * t * t * (t * t + 4) / d ** 2}
        dc = derived_constants(PhysParams(tau=tau, m=1.0, omega=0.5))
        for name, value in want.items():
            rel = float(abs(getattr(dc, name) / value - 1))
            assert rel <= (2e-16 if name in "ab" else 1e-15), (name, rel)


def test_derived_constants_built_once_per_params():
    """derived_constants returns the constants built with the parameters;
    a replaced or unpickled copy carries its own, equal where it should be."""
    p = PhysParams(tau=-1.0, m=1.0, omega=0.7)
    assert derived_constants(p) is derived_constants(p)
    q = dataclasses.replace(p, tau=-0.5)
    assert derived_constants(q).a == pytest.approx(4.25 / 3.75, abs=1e-15)
    assert derived_constants(p).a == pytest.approx(5.0 / 3.0, abs=1e-15)
    r = pickle.loads(pickle.dumps(p))
    assert r == p and hash(r) == hash(p) and repr(r) == repr(p)
    assert derived_constants(r) == derived_constants(p)


def test_gap_edge_identity_attractive():
    # m^2 = kappa0^2 + eps_tau^2 whenever tau < 0
    for p in random_params(RNG, 40):
        if p.tau >= 0.0:
            continue
        dc = derived_constants(p)
        assert p.m ** 2 - dc.kappa0 ** 2 - dc.eps_tau ** 2 == pytest.approx(
            0.0, abs=1e-13 * p.m ** 2
        )


def test_gap_edge_weak_coupling_limit():
    eps = [
        derived_constants(PhysParams(tau=t, m=1.0, omega=0.5)).eps_tau
        for t in (-1e-2, -1e-4, -1e-6)
    ]
    assert abs(eps[-1] - 1.0) < 1e-5
    assert eps[0] < eps[1] < eps[2] < 1.0


def test_transmission_matrix_reference_entries():
    # tau=-1 on the upper-ray normal: [[5/3, -(4/3)e^{-iw}], [-(4/3)e^{iw}, 5/3]]
    for omega in (0.2, math.pi / 4, 1.1):
        p = PhysParams(tau=-1.0, m=1.0, omega=omega)
        m_l = interface_matrices(p)[0]
        ref = np.array(
            [
                [5.0 / 3.0, -(4.0 / 3.0) * np.exp(-1j * omega)],
                [-(4.0 / 3.0) * np.exp(1j * omega), 5.0 / 3.0],
            ]
        )
        np.testing.assert_allclose(m_l, ref, atol=1e-15)


def test_matrix_identities_random_sweep():
    for p in random_params(RNG, 60):
        nu = random_unit(RNG)
        m = transmission_matrix(p, nu)
        dc = derived_constants(p)
        assert abs(np.linalg.det(m) - 1.0) < 1e-12
        np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        np.testing.assert_allclose(S3 @ m @ S3, np.linalg.inv(m), atol=1e-11)
        np.testing.assert_allclose(m.conj().T @ S3 @ m, S3, atol=1e-12)
        # quadratic relations behind the singular-sequence profile
        np.testing.assert_allclose(m @ m + S0, 2.0 * dc.a * m, atol=1e-11)
        np.testing.assert_allclose(
            (S0 - m) @ (S0 - m), 2.0 * (dc.a - 1.0) * m, atol=1e-11
        )


def test_negated_normal_gives_inverse():
    p = PhysParams(tau=1.3, m=0.7, omega=0.9)
    nu = random_unit(RNG)
    m = transmission_matrix(p, nu)
    mi = transmission_matrix(p, (-nu[0], -nu[1]))
    np.testing.assert_allclose(m @ mi, S0, atol=1e-14)


def test_transmission_matrix_rejects_non_unit_normal():
    p = PhysParams(tau=-1.0, m=1.0, omega=0.5)
    for nu in ((1.0, 1.0), (math.nan, 0.0)):
        with pytest.raises(ParameterError):
            transmission_matrix(p, nu)
        with pytest.raises(ParameterError):
            special_matrices(p, nu)


def test_interface_matrices_are_conjugate_pair():
    # mirroring the normal in y conjugates and inverts: M_r = conj(M_l^{-1})
    for p in random_params(RNG, 10):
        m_l, m_r = interface_matrices(p)
        np.testing.assert_allclose(m_r, np.conj(S3 @ m_l @ S3), atol=1e-15)


def test_diagonalization():
    p = PhysParams(tau=-1.0, m=1.0, omega=0.4)
    for _ in range(20):
        nu = random_unit(RNG)
        m_tilde, theta = special_matrices(p, nu)
        np.testing.assert_allclose(theta @ theta.conj().T, S0, atol=1e-14)
        np.testing.assert_allclose(
            m_tilde, np.diag([3.0, 1.0 / 3.0]), atol=1e-14
        )
        m = transmission_matrix(p, nu)
        np.testing.assert_allclose(
            theta.conj().T @ m @ theta, m_tilde, atol=1e-14
        )


def test_shell_strength_identities():
    # z (M_l^2 + I) = -(8 m tau / (4 - tau^2)) M_l and the jump twin
    for p in random_params(RNG, 30):
        m_l = interface_matrices(p)[0]
        t, m = p.tau, p.m
        z = -4.0 * m * t / (t * t + 4.0)
        coef = 8.0 * m * t / (4.0 - t * t)
        np.testing.assert_allclose(
            z * (m_l @ m_l + S0), -coef * m_l, atol=1e-11 * max(1.0, abs(coef))
        )
        np.testing.assert_allclose(
            (2.0 * m / t) * (S0 - m_l) @ (S0 - m_l),
            coef * m_l,
            atol=1e-11 * max(1.0, abs(coef)),
        )


def test_charge_conjugation_intertwines_transmission():
    # sigma_1 conj(M) = M sigma_1, so the charge conjugation
    # C u = sigma_1 conj(u) preserves the transmission constraint
    p = PhysParams(tau=-1.7, m=1.0, omega=0.6)
    nu = random_unit(RNG)
    m = transmission_matrix(p, nu)
    np.testing.assert_allclose(S1 @ np.conj(m), m @ S1, atol=1e-15)


def _log_tau(rng, lo_exp, sign=None):
    s = float(rng.choice((-1.0, 1.0))) if sign is None else sign
    return s * 10.0 ** rng.uniform(lo_exp, 2.0)


def _principal_brackets(rng):
    """[0, 1/2] for -(|a| sin(pi mu) + |b| cos phi), |tau| up to 100."""
    for _ in range(300):
        a, b = _ab(_log_tau(rng, -8.0))
        w = rng.uniform(1e-4, math.pi / 2.0 - 1e-4)
        yield _det_factor(abs(a), abs(b), w, -1.0), 0.0, 0.5


def _band_brackets(rng):
    """Whole bands [k + 1/2 - d, k + 1/2 + d], d = arcsin(|b|/|a|)/pi plus
    1e-9: outside them |a sin(pi mu)| > |b|, so each factor has the sign of
    a sin(pi mu) at the ends, and at large |b| it is not monotone inside."""
    n = 0
    while n < 200:
        tau = _log_tau(rng, -6.0)
        if abs(abs(tau) - 2.0) < 1e-2:
            continue
        a, b = _ab(tau)
        w = rng.uniform(1e-4, math.pi / 2.0 - 1e-4)
        d = math.asin(abs(b) / abs(a)) / math.pi + 1e-9
        k = int(rng.integers(-3, 3))
        for s in (b, -b):
            r = 1.0 if _det_factor(a, s, w, 1.0)(k + 0.5 - d)[0] >= 0.0 else -1.0
            yield _det_factor(a, s, w, r), k + 0.5 - d, k + 0.5 + d
        n += 1


def _aux1d_brackets(rng):
    """[kappa0, kappa0 + 1/gamma] for kappa0 - k tanh(k gamma)."""
    for _ in range(100):
        kap = derived_constants(PhysParams(tau=_log_tau(rng, -8.0, -1.0),
                                           m=1.0, omega=0.5)).kappa0
        for gamma in (0.05, 1.0, 20.0):
            def fd(k, gamma=gamma, kap=kap):
                th = math.tanh(k * gamma)
                return kap - k * th, -(th + k * gamma * (1.0 - th * th))
            yield fd, kap, kap + 1.0 / gamma


def _wiggly_brackets(rng):
    """[0, 1] for c - x + A sin(B x)/B, whose slope changes sign up to 2B/pi
    times: Newton often points out of the bracket, and without the
    bisection fallback the iterates would creep along it one float at a
    time."""
    n = 0
    while n < 300:
        c, amp = rng.uniform(0.1, 0.9), rng.uniform(0.1, 3.0)
        freq = rng.uniform(1.0, 60.0)

        def fd(x, c=c, amp=amp, freq=freq):
            return (c - x + amp * math.sin(freq * x) / freq,
                    amp * math.cos(freq * x) - 1.0)
        if fd(0.0)[0] >= 0.0 > fd(1.0)[0]:
            n += 1
            yield fd, 0.0, 1.0


def _bisection_evals(f, lo, hi):
    """Evaluations plain bisection takes from [lo, hi], f(lo) >= 0 > f(hi),
    down to adjacent floats: the reference count for ``_refine``."""
    n, mid = 0, 0.5 * (lo + hi)
    while lo < mid < hi:
        n += 1
        if f(mid) < 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return n


@pytest.mark.parametrize("family", [_principal_brackets, _band_brackets,
                                    _aux1d_brackets, _wiggly_brackets])
def test_refine_ends_at_a_sign_change_within_bisection_count(family):
    """On seeded brackets of the package's three root searches and of a
    wiggly function, ``_refine`` evaluates only strictly inside the bracket,
    ends at a sign change between the result and an adjacent float, and
    never needs more evaluations than bisection."""
    rng = np.random.default_rng(20261018)
    for fd, lo, hi in family(rng):
        def f(x):
            return fd(x)[0]

        assert f(lo) >= 0.0 > f(hi)
        budget = _bisection_evals(f, lo, hi)
        seen = []

        def counted(x):
            assert lo < x < hi
            seen.append(x)
            assert len(seen) <= budget, (lo, hi)
            return fd(x)

        x = _refine(counted, lo, hi)
        up, down = math.nextafter(x, math.inf), math.nextafter(x, -math.inf)
        assert f(x) >= 0.0 > f(up) or f(down) >= 0.0 > f(x), (lo, hi, x)
