"""Modified Bessel evaluation and the deficiency elements built from it."""

import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest

from diracwedge.model import PhysParams
from diracwedge.special import bessel_k, deficiency_element
from diracwedge.spin_orbit import angular_profile, principal_eigenvalue

P_REF = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)


def test_half_order_closed_form():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^{-x}
    for x in (1e-4, 0.5, 2.0, 7.0, 15.0, 26.4, 30.0):
        assert bessel_k(0.5, x) == pytest.approx(
            math.sqrt(math.pi / (2.0 * x)) * math.exp(-x), rel=1e-10, abs=0.0
        )
    assert bessel_k(0.5, 2.0) == pytest.approx(0.119938, abs=1e-6)


def test_reference_value_order_zero():
    assert bessel_k(0.0, 1.0) == pytest.approx(0.421024, abs=1e-6)


def test_against_mpmath_grid():
    # the whole accepted order range |nu| <= 5 on 1e-4 <= x <= 30: a fine
    # grid on |nu| <= 1.5, where the radial factors live, a coarser one out
    # to the order cap, and two negative orders beyond 1.5
    nus = np.concatenate([np.linspace(-1.5, 1.5, 13), np.linspace(0.0, 5.0, 13),
                          [-5.0, -3.3]])
    xs = np.concatenate([np.geomspace(1e-4, 30.0, 25), [26.4]])
    with mpmath.workdps(30):
        for nu in nus:
            for x in xs:
                ref = float(mpmath.besselk(float(nu), float(x)))
                assert bessel_k(float(nu), float(x)) == pytest.approx(
                    ref, rel=1e-10, abs=0.0)


def test_recurrence_grid():
    # K_{nu+1} - K_{nu-1} = (2 nu / x) K_nu
    nus = np.linspace(0.2, 2.9, 10)
    xs = np.geomspace(1e-4, 30.0, 12)
    for nu in nus:
        for x in xs:
            lhs = bessel_k(nu + 1.0, x) - bessel_k(nu - 1.0, x)
            rhs = 2.0 * nu / x * bessel_k(nu, x)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=0.0)


def test_negative_order_symmetry():
    # K_{-nu} = K_{nu}; the radial factors use lam - 1/2 < 0
    for nu, x in ((0.14, 0.3), (0.86, 2.0)):
        assert bessel_k(-nu, x) == pytest.approx(bessel_k(nu, x), rel=1e-12)


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_k(7.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="nu="):
            bessel_k(bad, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="x="):
            bessel_k(0.5, bad)


def test_import_leaves_scipy_special_unloaded(child_env):
    # kv is imported on first use and the FEM layer on first access, so
    # importing the package or the CLI pays for none of these scipy modules
    for module in ("diracwedge", "diracwedge.cli"):
        code = (f"import sys, {module}; print(sorted(m for m in "
                "('scipy.special', 'scipy.sparse', 'scipy.io') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=child_env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]", module


@pytest.fixture(scope="module")
def principal_root():
    return principal_eigenvalue(P_REF)


def test_deficiency_sum_cancels_odd_part(principal_root):
    # v+ + v- = 2 K_{lam-1/2}(r) phi(theta) pointwise
    lam = principal_root.lam
    for r, theta in ((0.3, 0.2), (1.7, -2.0), (4.0, 3.0)):
        vp = deficiency_element(P_REF, +1, r, theta, root=principal_root)
        vm = deficiency_element(P_REF, -1, r, theta, root=principal_root)
        phi = angular_profile(P_REF, principal_root, theta)
        np.testing.assert_allclose(
            vp + vm, 2.0 * bessel_k(lam - 0.5, r) * phi, atol=1e-12
        )


def test_deficiency_square_integrable(principal_root):
    """The weighted square integral converges under grid refinement."""

    def integral(n_r, n_th):
        rs = np.geomspace(1e-3, 30.0, n_r)
        ths = np.linspace(0.0, 2.0 * np.pi, n_th, endpoint=False)
        dens = np.empty((n_r, n_th))
        for i, r in enumerate(rs):
            for j, th in enumerate(ths):
                v = deficiency_element(P_REF, +1, r, th, root=principal_root)
                dens[i, j] = np.sum(np.abs(v) ** 2)
        ang = dens.mean(axis=1) * 2.0 * np.pi
        return np.trapezoid(ang * rs, rs)

    coarse = integral(64, 16)
    fine = integral(128, 32)
    assert math.isfinite(fine)
    assert fine == pytest.approx(coarse, rel=0.05)


def test_deficiency_small_radius_exponents(principal_root):
    """|v+-| ~ r^{-(lam+1/2)}; the softer r^{lam-1/2} branch survives in v+ + v-."""
    lam = principal_root.lam
    theta = 0.1
    phi = angular_profile(P_REF, principal_root, theta)
    r_lo, r_hi = 1e-4, 1e-2
    for sign in (+1, -1):
        v_lo = deficiency_element(P_REF, sign, r_lo, theta, root=principal_root)
        v_hi = deficiency_element(P_REF, sign, r_hi, theta, root=principal_root)
        measured = np.linalg.norm(v_lo) / np.linalg.norm(v_hi)
        predicted = (r_lo / r_hi) ** (-(lam + 0.5))
        assert measured / predicted == pytest.approx(1.0, abs=0.5)
    sum_lo = np.linalg.norm(
        deficiency_element(P_REF, +1, r_lo, theta, root=principal_root)
        + deficiency_element(P_REF, -1, r_lo, theta, root=principal_root)
    )
    sum_hi = np.linalg.norm(
        deficiency_element(P_REF, +1, r_hi, theta, root=principal_root)
        + deficiency_element(P_REF, -1, r_hi, theta, root=principal_root)
    )
    predicted = (r_lo / r_hi) ** (lam - 0.5)
    assert (sum_lo / sum_hi) / predicted == pytest.approx(1.0, abs=0.5)


def test_deficiency_argument_validation(principal_root):
    with pytest.raises(ValueError):
        deficiency_element(P_REF, 0, 1.0, 0.0, root=principal_root)
    with pytest.raises(ValueError):
        deficiency_element(P_REF, +1, -1.0, 0.0, root=principal_root)
    for sign in (1, -1):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="theta="):
                deficiency_element(P_REF, sign, 1.0, bad, root=principal_root)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="r="):
                deficiency_element(P_REF, sign, bad, 0.3, root=principal_root)
