"""Transverse strip problem: secular root and ground-state energy."""

import math

import numpy as np
import pytest

from diracwedge.aux1d import Aux1DResult, ground_state
from diracwedge.model import ParameterError, PhysParams, derived_constants

from oracles import aux1d_ground_energy

RNG = np.random.default_rng(3)

P_REF = PhysParams(tau=-1.0, m=1.0, omega=0.5)


def test_root_bracket_and_secular_residual_sweep():
    """The bracket that ``ground_state`` promises, kappa0 < k_gamma <= kappa0
    + 1/gamma, and k tanh(k gamma) = kappa0 to 1e-12 relative, from gamma
    kappa0 = 1e-3 to 15.  (From gamma kappa0 = 20 on, the gap k_gamma -
    kappa0, about 2 kappa0 e^{-2 gamma kappa0}, is below one ulp of kappa0.)"""
    for _ in range(200):
        tau = -float(10.0 ** RNG.uniform(-2.0, 1.0))
        p = PhysParams(tau=tau, m=float(RNG.uniform(0.3, 3.0)), omega=0.5)
        kap = derived_constants(p).kappa0
        gamma = float(10.0 ** RNG.uniform(-3.0, math.log10(15.0))) / kap
        k = ground_state(p, gamma).k_gamma
        assert kap < k <= kap + 1.0 / gamma
        assert k * math.tanh(k * gamma) == pytest.approx(kap, rel=1e-12,
                                                          abs=0.0)


def test_ground_state_reference_values():
    r1 = ground_state(P_REF, 1.0)
    assert isinstance(r1, Aux1DResult)
    assert r1.k_gamma == pytest.approx(1.0325, abs=1e-3)
    assert r1.E_gamma == pytest.approx(-0.0659, abs=1e-3)
    assert r1.E_gamma == pytest.approx(-0.06589345839333749, abs=1e-12)

    r10 = ground_state(P_REF, 10.0)
    assert r10.k_gamma == pytest.approx(0.8, abs=1e-6)
    assert abs(r10.E_gamma - 0.36) < 1e-5


def test_root_exceeds_kappa0():
    # tanh < 1 forces k_gamma > kappa0 and hence E < eps_tau^2
    for gamma in (0.5, 2.0, 20.0):
        r = ground_state(P_REF, gamma)
        assert r.k_gamma > 0.8
        assert r.E_gamma < 0.36
        # the returned root actually solves the secular equation
        assert r.k_gamma * math.tanh(r.k_gamma * gamma) == pytest.approx(
            0.8, abs=1e-12)


def test_energy_approaches_gap_edge():
    for gamma in (5.0, 10.0, 20.0):
        r = ground_state(P_REF, gamma)
        assert abs(r.E_gamma - 0.36) <= math.exp(-0.8 * gamma)


def test_energy_monotone_in_gamma():
    # E saturates at the gap edge to the last ulp near gamma ~ 23, so demand
    # strict growth only while the distance to 0.36 is still representable.
    gammas = np.linspace(1.0, 50.0, 120)
    es = [ground_state(P_REF, float(g)).E_gamma for g in gammas]
    assert all(b >= a for a, b in zip(es, es[1:]))
    assert all(b > a for a, b in zip(es, es[1:]) if a < 0.36 - 1e-12)


def test_matches_galerkin_oracle():
    for tau, gamma in ((-1.0, 1.0), (-3.0, 5.0)):
        p = PhysParams(tau=tau, m=1.0, omega=0.5)
        impl = ground_state(p, gamma).E_gamma
        assert impl == pytest.approx(aux1d_ground_energy(tau, 1.0, gamma), abs=1e-6)


def test_rejects_repulsive_and_bad_gamma():
    with pytest.raises(ParameterError):
        ground_state(PhysParams(tau=1.0, m=1.0, omega=0.5), 1.0)
    with pytest.raises(ValueError):
        ground_state(P_REF, 0.0)
