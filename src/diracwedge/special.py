r"""Modified Bessel functions of the second kind and deficiency elements.

K_nu is evaluated on Python floats, as the pair (K_nu(x), K_{nu+1}(x)):
with mu = nu - n in [-1/2, 1/2), K_mu and K_{mu+1} come from Temme's series
(Temme, J. Comput. Phys. 19, 324, 1975) for x <= ``_X_SERIES`` = 2 and
from Steed's continued fraction CF2 (Thompson & Barnett, J. Comput. Phys.
64, 490, 1986) above it, then the upward recurrence
K_{mu+k+1} = K_{mu+k-1} + (2 (mu + k) / x) K_{mu+k} climbs to nu, and
K_{-nu} = K_nu covers negative orders.  The series loses about e^{2x} eps
to cancellation, 5e-15 measured at x = 2 (2e-14 at 2.5); CF2 needs about
80 terms at x = 2 to the series' 13, but 6 at x = 700.  The crossover
x = 2 keeps both within a few eps, so K_nu and the pair's second component
agree to 1e-14.  The series' 1/Gamma(1 +/- mu) come from the Taylor series
of 1/Gamma(1 + z) (Abramowitz & Stegun 6.1.34), which is exact to rounding
on |mu| <= 1/2 and has no cancellation at mu = 0.  For |nu| <= 5 the
relative error is below 1e-13 (measured: 6e-15) from the smallest
subnormal x up to x of about 705, where K_nu(x) leaves the normal range;
past it the result is a subnormal or 0.0.  No numpy or scipy module is
imported here.

The deficiency elements combine K_{lambda -/+ 1/2} radially with the angular
eigenfunction phi_lambda of the spin-orbit operator:

    v_pm(r, theta) = K_{lambda-1/2}(r) phi(theta)
                     +/- K_{lambda+1/2}(r) (sigma_1 cos theta + sigma_2 sin theta) phi(theta).

The two orders differ by one, so one pair evaluation gives both.  They are
evaluated at one point on Python floats, with ``spin_orbit``'s point
evaluator of phi.  sigma . n_theta is [[0, e^{-i theta}], [e^{i theta}, 0]],
so (sigma . n_theta) phi = (e^{-i theta} phi_2, e^{i theta} phi_1).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .model import ParameterError, PhysParams
from .spin_orbit import SpinOrbitRoot, _profile, principal_eigenvalue

if TYPE_CHECKING:
    import numpy as np

__all__ = ["bessel_k", "deficiency_element"]

_NU_MAX = 5.0
_EPS = 2.0 ** -53
_LN2 = math.log(2.0)
# Temme's series up to here, CF2 above (see the module docstring)
_X_SERIES = 2.0
# K_nu(x) < 2^-1075 for x >= 746 and nu <= 6, so it rounds to 0.0
_X_ZERO = 746.0
# Taylor coefficients of 1/Gamma(1 + z) = sum_k c_k z^k (A&S 6.1.34, to
# double precision), split into odd c_1, c_3, ... (gam1) and even c_0, c_2,
# ... (gam2) and listed from the highest power down for Horner's rule; the
# truncation error is below 1e-17 on |z| <= 1/2
_GAM_ODD = (7.782263439905071e-12, -1.18127457048702e-09,
            6.116095104481416e-09, 1.133027231981696e-06,
            -2.013485478078824e-05, -0.00021524167411495098,
            0.0072189432466631, -0.04219773455554433, -0.04200263503409524,
            0.5772156649015329)
_GAM_EVEN = (1.0434267116911005e-10, 5.002007644469223e-09,
             -2.056338416977607e-07, -1.2504934821426706e-06,
             0.0001280502823881162, -0.0011651675918590652,
             -0.009621971527876973, 0.16653861138229148,
             -0.6558780715202539, 1.0)


def _temme(mu: float, x: float) -> tuple[float, float]:
    """(K_mu(x), K_{mu+1}(x)) by Temme's series, |mu| <= 1/2, x <= 2."""
    m2 = mu * mu
    # gam1 = (1/Gamma(1-mu) - 1/Gamma(1+mu)) / (2 mu),
    # gam2 = (1/Gamma(1-mu) + 1/Gamma(1+mu)) / 2
    gam1 = 0.0
    for c in _GAM_ODD:
        gam1 = gam1 * m2 + c
    gam1 = -gam1
    gam2 = 0.0
    for c in _GAM_EVEN:
        gam2 = gam2 * m2 + c
    pimu = math.pi * mu
    fact = 1.0 if pimu == 0.0 else pimu / math.sin(pimu)
    d = _LN2 - math.log(x)               # ln(2/x), also for subnormal x
    y = mu * d
    # e^y = (2/x)^mu by pow: exp(y) would carry the rounding of y, about
    # |y| eps, which is 6e-14 at the smallest x
    e = math.pow(2.0, mu) * math.pow(x, -mu)
    if abs(y) < 1.0:
        fact2 = 1.0 if y == 0.0 else math.sinh(y) / y
    else:
        fact2 = 0.5 * (e - 1.0 / e) / y
    f = fact * (gam1 * 0.5 * (e + 1.0 / e) + gam2 * fact2 * d)
    p = 0.5 * e / (gam2 - mu * gam1)     # (x/2)^{-mu} Gamma(1+mu) / 2
    q = 0.5 / (e * (gam2 + mu * gam1))   # (x/2)^{mu} Gamma(1-mu) / 2
    s0, s1 = f, p
    c = 1.0
    x2sq = 0.25 * x * x
    i = 1.0
    while True:
        f = (i * f + p + q) / (i * i - m2)
        c *= x2sq / i
        p /= i - mu
        q /= i + mu
        t = c * f
        s0 += t
        s1 += c * (p - i * f)
        # for x <= 2, f_0 + p_0 + q_0 >= (p_0 + q_0) / 3 > 0, so t > 0 from
        # here on and cannot vanish before the series converges (at x = 3,
        # mu = -1/2, f_1 is 0 and this test would stop at once); s0 ends
        # at K_mu > 0
        if t < _EPS * s0:
            return s0, 2.0 * (s1 / x)
        i += 1.0


def _steed(mu: float, x: float) -> tuple[float, float]:
    """(K_mu(x), K_{mu+1}(x)) by Steed's CF2, |mu| <= 1/2, x > 2."""
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = dh = d
    q1, q2 = 0.0, 1.0
    q = c = a1
    a = -a1
    s = 1.0 + q * dh
    i = 2
    while True:
        a -= 2 * (i - 1)
        c = -a * c / i
        q1, q2 = q2, (q1 - b * q2) / a
        q += c * q2
        b += 2.0
        d = 1.0 / (b + a * d)
        dh = (b * d - 1.0) * dh
        h += dh
        ds = q * dh
        s += ds
        if abs(ds) < _EPS * abs(s):
            break
        i += 1
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    return k0, k0 * (mu + x + 0.5 - a1 * h) / x


def _k_pair(nu: float, x: float) -> tuple[float, float]:
    """(K_nu(x), K_{nu+1}(x)) for finite nu and finite x > 0; the callers
    keep |nu| <= 5.

    A value that overflows is inf; one past the underflow is a subnormal or
    0.0.  The callers check what they use.
    """
    if nu < -0.5:
        k1, k0 = _k_pair(-nu - 1.0, x)      # K_{-nu} = K_nu
        return k0, k1
    if x >= _X_ZERO:
        return 0.0, 0.0
    n = math.floor(nu + 0.5)
    mu = nu - n
    k0, k1 = _temme(mu, x) if x <= _X_SERIES else _steed(mu, x)
    for k in range(1, n + 1):
        # k1 / x first: it overflows only if K_{mu+k+1} does
        k0, k1 = k1, k0 + k1 / x * (2.0 * (mu + k))
    return k0, k1


def _check_order(nu: float) -> None:
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got nu={nu}")
    if abs(nu) > _NU_MAX:
        raise ValueError(
            f"order out of supported range, |nu|={abs(nu)} > {_NU_MAX}")


def _overflow(nu: float, x: float) -> ParameterError:
    return ParameterError(f"K_nu(x) overflows at nu = {nu}, x = {x}")


def bessel_k(nu: float, x: float) -> float:
    """K_nu(x) for finite real order |nu| <= 5 and finite x > 0.

    Relative accuracy 1e-13 on the whole accepted order range wherever
    K_nu(x) is a normal double (x up to about 705); beyond that the result
    is a subnormal or 0.0.  The tests check this against mpmath for x from
    the smallest subnormal to 740.  An x so small that K_nu(x) overflows is
    refused with a ``ParameterError`` (a ``ValueError``).
    """
    x = float(x)
    nu = float(nu)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"argument must be finite and positive, got x={x}")
    _check_order(nu)
    k = _k_pair(nu, x)[0]
    if k == math.inf:
        raise _overflow(nu, x)
    return k


def _deficiency_point(p: PhysParams, sign: int, r: float, theta: float,
                      root: SpinOrbitRoot | None) -> tuple[complex, complex]:
    """The two components of ``deficiency_element`` as Python complex
    numbers, with the same checks and one pair evaluation."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be finite and positive, got r={r}")
    if root is None:
        root = principal_eigenvalue(p)
    phi1, phi2 = _profile(p, root)(theta)
    lam = root.lam
    _check_order(abs(lam) + 0.5)
    ka, kb = _k_pair(lam - 0.5, r)
    if ka == math.inf or kb == math.inf:
        raise _overflow(lam - 0.5 if ka == math.inf else lam + 0.5, r)
    kb *= sign
    n = complex(math.cos(theta), math.sin(theta))
    return (ka * phi1 + kb * (n.conjugate() * phi2),
            ka * phi2 + kb * (n * phi1))


def deficiency_element(p: PhysParams, sign: int, r: float, theta: float,
                       root: SpinOrbitRoot | None = None) -> np.ndarray:
    """Deficiency element v_plus (sign=+1) or v_minus (sign=-1) at polar
    coordinates (r, theta), a complex array of shape (2,).

    phi(theta) is ``spin_orbit.angular_profile`` at one angle, from the
    same point evaluator (which states the wrap rule and the choice of
    arc; a non-finite theta is refused), and

        v_pm = K_{lambda-1/2}(r) phi
               +/- K_{lambda+1/2}(r) (e^{-i theta} phi_2, e^{i theta} phi_1),

    both radial factors from one evaluation of the pair
    (K_{lambda-1/2}, K_{lambda+1/2}).  An r so small that one of them
    overflows is refused with a ``ParameterError``.

    ``root`` caches the principal spin-orbit eigenvalue; pass it when
    evaluating on a grid to avoid re-solving the secular problem.
    """
    v = _deficiency_point(p, sign, r, theta, root)

    import numpy as np

    return np.array(v)
