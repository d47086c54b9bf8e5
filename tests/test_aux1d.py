"""Transverse strip problem: secular function and ground-state energy."""

import math

import numpy as np
import pytest

from diracwedge.aux1d import Aux1DResult, ground_state
from diracwedge.model import ParameterError, PhysParams

from oracles import aux1d_ground_energy

RNG = np.random.default_rng(3)

P_REF = PhysParams(tau=-1.0, m=1.0, omega=0.5)


def secular_f(k: float, gamma: float) -> float:
    """F_gamma(k) = k tanh(k gamma), the left side of the secular equation."""
    return k * math.tanh(k * gamma)


def test_secular_zero_and_saturation():
    assert secular_f(0.0, 3.0) == 0.0
    # tanh saturates: F -> k as gamma grows at fixed k
    assert secular_f(2.0, 50.0) == pytest.approx(2.0, abs=1e-15)


def test_secular_monotone_in_k():
    for gamma in (0.3, 1.0, 7.0):
        ks = np.sort(RNG.uniform(0.0, 5.0, size=20))
        vals = [secular_f(float(k), gamma) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))


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
        assert secular_f(r.k_gamma, gamma) == pytest.approx(0.8, abs=1e-12)


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
