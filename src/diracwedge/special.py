r"""Modified Bessel functions of the second kind and deficiency elements.

K_nu comes from ``scipy.special.kv`` (the AMOS routines; Amos 1986, ACM TOMS
644).  It is imported on first use so that ``import diracwedge`` does not
load ``scipy.special``.

The deficiency elements combine K_{lambda -/+ 1/2} radially with the angular
eigenfunction phi_lambda of the spin-orbit operator:

    v_pm(r, theta) = K_{lambda-1/2}(r) phi(theta)
                     +/- K_{lambda+1/2}(r) (sigma_1 cos theta + sigma_2 sin theta) phi(theta).
"""

from __future__ import annotations

import math

import numpy as np

from .model import PhysParams, sigma_dot
from .spin_orbit import SpinOrbitRoot, angular_profile, principal_eigenvalue

__all__ = ["bessel_k", "deficiency_element"]

_NU_MAX = 5.0


def bessel_k(nu: float, x: float) -> float:
    """K_nu(x) for real order |nu| <= 5 and x > 0.

    Relative accuracy 1e-10 on the ranges the package uses (|nu| <= 1.5,
    1e-4 <= x <= 30); the tests check this against mpmath.
    """
    from scipy.special import kv

    x = float(x)
    nu = abs(float(nu))
    if not x > 0.0:
        raise ValueError(f"argument must be positive, got x={x}")
    if nu > _NU_MAX:
        raise ValueError(f"order out of supported range, |nu|={nu} > {_NU_MAX}")
    return float(kv(nu, x))


def deficiency_element(p: PhysParams, sign: int, r: float, theta: float,
                       root: SpinOrbitRoot | None = None) -> np.ndarray:
    """Deficiency element v_plus (sign=+1) or v_minus (sign=-1) at polar
    coordinates (r, theta).

    ``root`` caches the principal spin-orbit eigenvalue; pass it when
    evaluating on a grid to avoid re-solving the secular problem.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    if root is None:
        root = principal_eigenvalue(p)
    lam = root.lam
    phi = angular_profile(p, root, theta)
    radial_a = bessel_k(lam - 0.5, r)
    radial_b = bessel_k(lam + 0.5, r)
    spin = sigma_dot((math.cos(theta), math.sin(theta)))
    return radial_a * phi + sign * radial_b * (spin @ phi)
