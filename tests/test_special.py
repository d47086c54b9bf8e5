"""Modified Bessel evaluation and the deficiency elements built from it."""

import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import trapezoid

import diracwedge.model as model
import diracwedge.special as special
import diracwedge.spin_orbit as spin_orbit
import diracwedge.variational as variational
from diracwedge.model import PhysParams, sigma_dot
from diracwedge.special import bessel_k, deficiency_element
from diracwedge.spin_orbit import (
    angular_profile,
    principal_eigenvalue,
    spectrum_in_window,
)

from oracles import angular_profile_at

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
    # the whole accepted order range |nu| <= 5: a fine grid on |nu| <= 1.5,
    # where the radial factors live, a coarser one out to the order cap, the
    # half orders and caps, and mu = nu - round(nu) next to 0 (where the
    # series' gam1 would cancel) and next to +-1/2 (where round(nu) steps);
    # x from 1e-8 to 700 with points next to and at the series/CF2
    # crossover.  mpmath's order is the exact nu + 1 of the pair's second
    # component, which bessel_k(nu + 1) only rounds to.
    cross = special._X_SERIES
    nus = np.concatenate([
        np.linspace(-1.5, 1.5, 13), np.linspace(0.0, 5.0, 13),
        [-5.0, -4.5, 4.5, -3.3, 1e-12, -1e-12, 1e-9, -1e-9, 1.0 + 1e-12,
         -1.0 - 1e-9, 0.5 - 1e-12, -0.5 + 1e-12, 2.5 + 1e-9]])
    xs = np.concatenate([np.geomspace(1e-8, 30.0, 19),
                         [26.4, 100.0, 700.0, math.nextafter(cross, 0.0),
                          cross, math.nextafter(cross, math.inf)]])
    with mpmath.workdps(20):
        for nu in map(float, nus):
            for x in map(float, xs):
                ref = float(mpmath.besselk(nu, x))
                assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-13,
                                                        abs=0.0), (nu, x)
                k0, k1 = special._k_pair(nu, x)
                assert k0 == bessel_k(nu, x)
                ref1 = float(mpmath.besselk(mpmath.mpf(nu) + 1, x))
                assert k1 == pytest.approx(ref1, rel=1e-13, abs=0.0), (nu, x)
                if abs(nu + 1.0) <= 5.0:
                    assert k1 == pytest.approx(bessel_k(nu + 1.0, x),
                                               rel=1e-14, abs=0.0), (nu, x)


def test_accuracy_down_to_the_smallest_argument():
    # (2/x)^mu is formed by pow, so the error stays at rounding (3e-16
    # measured) where ln(2/x) is 745; exp(mu ln(2/x)) would carry 6e-14.
    # Orders whose K overflows there are refused.
    with mpmath.workdps(20):
        for x in (1e-300, 1e-310, 5e-324):
            for nu in (0.0, 0.3, -0.3, 0.5, -0.5, 0.9, -0.9):
                ref = float(mpmath.besselk(nu, x))
                assert bessel_k(nu, x) == pytest.approx(ref, rel=1e-14,
                                                        abs=0.0), (nu, x)


def test_accuracy_down_to_the_underflow():
    # mpmath values; K is a normal double up to x of about 705, then a
    # subnormal, then 0.0
    assert bessel_k(0.3, 700.0) == pytest.approx(4.670076427132578e-306,
                                                 rel=1e-13, abs=0.0)
    assert bessel_k(0.3, 705.0) == pytest.approx(3.1354970137146185e-308,
                                                 rel=1e-13, abs=0.0)
    assert bessel_k(0.3, 740.0) == pytest.approx(2e-323, rel=0.0,
                                                 abs=5e-324)
    for x in (746.0, 1e300, sys.float_info.max):
        assert bessel_k(5.0, x) == 0.0


def test_overflow_is_refused():
    # K_5(1e-300) is about 1e1500, K_1.5(5e-324) about 1e485
    for nu, x in ((5.0, 1e-300), (-5.0, 1e-300), (1.5, 5e-324)):
        with pytest.raises(model.ParameterError,
                           match=f"nu = {nu}, x = {x}"):
            bessel_k(nu, x)
    # the largest finite values are returned, not refused
    assert math.isfinite(bessel_k(5.0, 1e-60))
    assert math.isfinite(bessel_k(0.9, 5e-324))


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


def _loaded_after_import(module, env, pattern, then="pass"):
    code = (f"import sys, {module}; {then}; print(sorted(m for m in "
            f"sys.modules if {pattern}))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_special_unloaded(child_env):
    # numpy is imported on first use and the FEM layer on first access, so
    # importing the package, the CLI or a scalar layer module pays for none
    # of these modules, and importing ``special`` and evaluating K load no
    # numpy or scipy module at all
    for module in ("diracwedge", "diracwedge.cli"):
        assert _loaded_after_import(
            module, child_env,
            "m in ('numpy', 'scipy.special', 'scipy.sparse', 'scipy.io')"
        ) == "[]", module
    assert _loaded_after_import(
        "diracwedge.model, diracwedge.spin_orbit, diracwedge.variational",
        child_env, "m == 'numpy'") == "[]"
    assert _loaded_after_import(
        "diracwedge.special", child_env,
        "m in ('numpy', 'scipy') or m.startswith('scipy.')",
        then="diracwedge.special.bessel_k(0.3, 1.0)") == "[]"


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
        return trapezoid(ang * rs, rs)

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


def _deficiency_by_matrix(p, root, sign, r, theta):
    """v_pm from the array profile and the sigma . n matrix."""
    phi = angular_profile(p, root, theta)
    spin = sigma_dot((math.cos(theta), math.sin(theta)))
    return (bessel_k(root.lam - 0.5, r) * phi
            + sign * bessel_k(root.lam + 0.5, r) * (spin @ phi))


def _agreement_roots():
    """(p, root): the principal root where omega < pi/2, the positive roots
    below 2 at omega = pi/2, and the omega = pi/6 double root 3/2."""
    cases = []
    for tau, omega in ((-1.0, math.pi / 4.0), (1.0, 0.3), (-3.0, 1.2),
                       (-0.3, math.pi / 2.0)):
        p = PhysParams(tau=tau, m=1.0, omega=omega)
        if omega < math.pi / 2.0:
            cases.append((p, principal_eigenvalue(p)))
        else:
            cases += [(p, root) for root in spectrum_in_window(p, 0.0, 2.0)]
    p = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 6.0)
    (double,) = [root for root in spectrum_in_window(p, 1.4, 1.6)]
    assert double.multiplicity == 2
    return cases + [(p, double)]


def test_deficiency_point_path_matches_matrix_path():
    """The point evaluation equals K_a phi +- K_b (sigma . n) phi built from
    the array profile, on both arcs, on and next to the boundary rays, and
    for angles wrapped from outside [-omega, 2pi - omega); the array
    profile there equals the oracle's, built from the SVD null space of T
    with its own reduction of the angle and choice of arc."""
    n_cases = 0
    for p, root in _agreement_roots():
        w = p.omega
        thetas = (0.0, w, -w, w + 1e-13, w - 1e-13, math.pi,
                  2.0 * math.pi - w, -7.0, 20.0)
        for theta in thetas:
            want = angular_profile_at(p, root.lam, root.sectors[0], theta)
            assert (np.linalg.norm(angular_profile(p, root, theta) - want)
                    <= 1e-14 * np.linalg.norm(want)), (p, theta)
        for sign in (1, -1):
            for r in (1e-4, 0.5, 30.0):
                for theta in thetas:
                    got = deficiency_element(p, sign, r, theta, root=root)
                    want = _deficiency_by_matrix(p, root, sign, r, theta)
                    assert got.shape == (2,) and got.dtype == complex
                    assert (np.linalg.norm(got - want)
                            <= 1e-14 * np.linalg.norm(want)), (p, sign, r, theta)
                    n_cases += 1
    assert n_cases == 6 * 2 * 3 * 9


def test_deficiency_point_path_needs_no_array_profile(monkeypatch):
    """With the root given, a call evaluates the pair (K_{lambda-1/2},
    K_{lambda+1/2}) once and uses neither ``bessel_k``, the array profile,
    the sigma . n matrix nor the secular solver."""
    calls = []

    def counted(name, orig):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        return wrapper

    # every module that holds one of the names, so a name imported into
    # ``special`` is counted too
    for name in ("angular_profile", "sigma_dot", "principal_eigenvalue",
                 "bessel_k", "_k_pair"):
        for module in (model, spin_orbit, special):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    root = principal_eigenvalue(P_REF)
    special.deficiency_element(P_REF, -1, 0.5, 2.0, root=root)
    assert calls == ["_k_pair"]
    # without a root the principal one is solved first
    calls.clear()
    special.deficiency_element(P_REF, 1, 0.5, 2.0)
    assert calls == ["principal_eigenvalue", "_k_pair"]


def test_deficiency_at_the_smallest_radius():
    """v+ - v- = 2 K_{lam+1/2}(r) (sigma . n) phi keeps its accuracy at the
    smallest double r, and an r whose K_{lam+1/2} overflows is refused."""
    p = PhysParams(tau=-1.0, m=1.0, omega=0.5)
    root = principal_eigenvalue(p)
    r, theta = 5e-324, 0.3
    half_diff = (deficiency_element(p, 1, r, theta, root=root)
                 - deficiency_element(p, -1, r, theta, root=root)) / 2.0
    phi = angular_profile(p, root, theta)
    with mpmath.workdps(20):
        kb = float(mpmath.besselk(mpmath.mpf(root.lam) + 0.5, r))
    # math.hypot: squaring components of 1e266 would overflow
    assert math.hypot(*map(abs, half_diff)) == pytest.approx(
        kb * math.hypot(*map(abs, phi)), rel=1e-13)
    # lambda near 1/2: K_{lambda+1/2}(5e-324) is about 5e317
    p = PhysParams(tau=-1.0, m=1.0, omega=1.5)
    with pytest.raises(model.ParameterError, match="x = 5e-324"):
        deficiency_element(p, 1, r, theta)


def _clear_scalar_caches():
    """Empty every cache of the scalar path."""
    special._k_pair.cache_clear()
    spin_orbit._sector_row.cache_clear()
    variational._star_at.cache_clear()


def test_deficiency_cached_matches_uncached_at_scan_points():
    """At every benchmark scan point, each of the scan's 8 (sign, r, theta)
    evaluations gives the same bits with warm caches as with every cache
    cleared before the call."""
    scan = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                       / "reference.json").read_text())["scan"]
    assert len(scan) == 480
    calls = [(s, r, th) for s in (1, -1)
             for r, th in ((0.5, 0.3), (0.5, 2.0), (2.0, 0.3), (2.0, 2.0))]
    for pt in scan:
        p = PhysParams(tau=pt["tau"], m=1.0, omega=pt["omega"])
        root = principal_eigenvalue(p)
        warm = [deficiency_element(p, *c, root=root) for c in calls]
        for c, v in zip(calls, warm):
            _clear_scalar_caches()
            cold = deficiency_element(p, *c, root=root)
            assert cold.tobytes() == v.tobytes(), (pt["tau"], pt["omega"], c)


def test_k_pair_cache_is_bounded_and_holds_tuples():
    """The pair cache keeps at most its fixed number of entries, each a
    tuple, however many distinct pairs are asked for."""
    _clear_scalar_caches()
    info = special._k_pair.cache_info()
    assert info.maxsize is not None and info.maxsize <= 64
    for i in range(4 * info.maxsize):
        pair = special._k_pair(0.1 + 1e-3 * i, 0.5)
        assert type(pair) is tuple and len(pair) == 2
    assert special._k_pair.cache_info().currsize == info.maxsize
    # the recursion for nu < -1/2 goes through the cache as well
    assert special._k_pair(-1.25, 0.5) == special._k_pair(0.25, 0.5)[::-1]


def test_deficiency_takes_numpy_scalars_and_0d_arrays():
    """A numpy scalar or 0-d array radius, and a numpy root, are accepted as
    before the caches and give the bits of the Python-float call."""
    root = principal_eigenvalue(P_REF)
    want = deficiency_element(P_REF, 1, 0.5, 0.3, root=root).tobytes()
    for r in (np.float64(0.5), np.array(0.5)):
        got = deficiency_element(P_REF, 1, r, 0.3, root=root)
        assert got.tobytes() == want
    np_root = spin_orbit.SpinOrbitRoot(lam=np.float64(root.lam),
                                       sectors=root.sectors)
    assert (deficiency_element(P_REF, 1, 0.5, 0.3, root=np_root).tobytes()
            == want)


def test_refusals_raise_on_every_call():
    """A refused radius or order raises again on a repeated call: no
    refusal is served from a cache."""
    p = PhysParams(tau=-1.0, m=1.0, omega=1.5)
    for _ in range(2):
        with pytest.raises(model.ParameterError, match="x = 5e-324"):
            deficiency_element(p, 1, 5e-324, 0.3)
        with pytest.raises(model.ParameterError, match="nu = 5.0"):
            bessel_k(5.0, 1e-300)
        with pytest.raises(ValueError, match="radius"):
            deficiency_element(p, 1, 0.0, 0.3)
