r"""Modified Bessel functions of the second kind and deficiency elements.

K_nu comes from ``scipy.special.kv`` (the AMOS routines; Amos 1986, ACM TOMS
644).  It is imported on first use, as numpy is, so that ``import
diracwedge`` loads neither ``scipy.special`` nor numpy.

The deficiency elements combine K_{lambda -/+ 1/2} radially with the angular
eigenfunction phi_lambda of the spin-orbit operator:

    v_pm(r, theta) = K_{lambda-1/2}(r) phi(theta)
                     +/- K_{lambda+1/2}(r) (sigma_1 cos theta + sigma_2 sin theta) phi(theta).

They are evaluated at one point on Python floats.  sigma . n_theta is
[[0, e^{-i theta}], [e^{i theta}, 0]], so (sigma . n_theta) phi =
(e^{-i theta} phi_2, e^{i theta} phi_1) needs no matrix.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING

from .model import PhysParams, derived_constants
from .spin_orbit import SpinOrbitRoot, _sector_row, principal_eigenvalue

if TYPE_CHECKING:
    import numpy as np

__all__ = ["bessel_k", "deficiency_element"]

_NU_MAX = 5.0


def bessel_k(nu: float, x: float) -> float:
    """K_nu(x) for finite real order |nu| <= 5 and finite x > 0.

    Relative accuracy 1e-10 on the whole accepted order range |nu| <= 5 for
    1e-4 <= x <= 30 (the package itself uses |nu| <= 1.5); the tests check
    this against mpmath, and ``kv`` stays within about 2e-14 there.
    """
    from scipy.special import kv

    x = float(x)
    nu = float(nu)
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"argument must be finite and positive, got x={x}")
    if not math.isfinite(nu):
        raise ValueError(f"order must be finite, got nu={nu}")
    nu = abs(nu)
    if nu > _NU_MAX:
        raise ValueError(f"order out of supported range, |nu|={nu} > {_NU_MAX}")
    return float(kv(nu, x))


def deficiency_element(p: PhysParams, sign: int, r: float, theta: float,
                       root: SpinOrbitRoot | None = None) -> np.ndarray:
    """Deficiency element v_plus (sign=+1) or v_minus (sign=-1) at polar
    coordinates (r, theta), a complex array of shape (2,).

    phi(theta) is the exponential pair of ``spin_orbit.angular_profile``
    (whose docstring states the wrap rule and the choice of arc), built from
    the null vector of the root's first sector with ``cmath``, and

        v_pm = K_{lambda-1/2}(r) phi
               +/- K_{lambda+1/2}(r) (e^{-i theta} phi_2, e^{i theta} phi_1).

    ``root`` caches the principal spin-orbit eigenvalue; pass it when
    evaluating on a grid to avoid re-solving the secular problem.
    """
    import numpy as np

    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not (r > 0.0 and math.isfinite(r)):
        raise ValueError(f"radius must be finite and positive, got r={r}")
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got theta={theta}")
    if root is None:
        root = principal_eigenvalue(p)
    lam, w = root.lam, p.omega
    dc = derived_constants(p)
    a, b, c, d = _sector_row(dc.a, dc.b, w, lam, root.sectors[0])
    t = (theta + w) % (2.0 * math.pi) - w
    if t > w:
        a, b = c, d
    e = cmath.exp(1j * (lam - 0.5) * t)
    phi1, phi2 = a * e, b * e.conjugate()
    ka = bessel_k(lam - 0.5, r)
    kb = sign * bessel_k(lam + 0.5, r)
    n = complex(math.cos(theta), math.sin(theta))
    return np.array([ka * phi1 + kb * (n.conjugate() * phi2),
                     ka * phi2 + kb * (n * phi1)])
