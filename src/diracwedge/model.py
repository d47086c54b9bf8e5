"""Physical parameters, Pauli algebra, transmission matrices, derived constants.

The operator under study is the two-dimensional massive Dirac operator with a
Lorentz-scalar shell interaction of strength ``tau`` supported on a broken
line: the boundary of the infinite wedge of half opening angle ``omega``
around the positive x-axis.  The interaction is encoded entirely in a 2x2
matrix-valued transmission condition ``u_minus = M u_plus`` across the two
rays; M is returned as a plain (2, 2) complex array.  Every other module
consumes the constants and matrices built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ParameterError",
    "PhysParams",
    "DerivedConstants",
    "pauli",
    "sigma_dot",
    "transmission_matrix",
    "interface_matrices",
    "derived_constants",
    "special_matrices",
    "charge_conjugate",
]

# Strengths where 1/(4 - tau^2) or the interaction itself degenerates.
_EXCLUDED_TAU = (-2.0, 0.0, 2.0)
_TAU_GUARD = 1e-9
_OMEGA_MIN = 1e-6


class ParameterError(ValueError):
    """Raised for parameter values outside the admissible ranges."""


@dataclass(frozen=True)
class PhysParams:
    """Interaction strength, mass, and wedge half-angle.

    tau : dimensionless shell strength, tau not in {-2, 0, 2}, small enough
        that the derived constants stay finite (|tau| below about 8.2e76)
    m : mass, m > 0, sets the spectral scale
    omega : half opening angle in radians, 0 < omega <= pi/2
        (pi/2 is the straight-line reference case)
    """

    tau: float
    m: float
    omega: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.tau, self.m, self.omega)):
            raise ParameterError("parameters must be finite")
        for bad in _EXCLUDED_TAU:
            if abs(self.tau - bad) <= _TAU_GUARD:
                raise ParameterError(
                    f"tau = {self.tau} is within {_TAU_GUARD} of the excluded "
                    f"value {bad}"
                )
        if self.m <= 0.0:
            raise ParameterError(f"mass must be positive, got {self.m}")
        if not (_OMEGA_MIN < self.omega <= math.pi / 2.0):
            raise ParameterError(
                f"omega must lie in ({_OMEGA_MIN}, pi/2], got {self.omega}"
            )
        # Computed once here: every secular evaluation reads them.  Stored
        # outside the fields, so equality, hashing and repr are unchanged.
        try:
            dc = _derive(self.tau, self.m)
        except OverflowError:
            dc = None
        if dc is None or not all(map(math.isfinite, vars(dc).values())):
            raise ParameterError(
                f"tau = {self.tau}, m = {self.m} overflows the derived "
                "constants"
            )
        object.__setattr__(self, "_constants", dc)


_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def pauli(j: int) -> np.ndarray:
    """Return the Pauli matrix sigma_j (sigma_0 is the identity)."""
    if j not in (0, 1, 2, 3):
        raise IndexError(f"Pauli index must be in 0..3, got {j}")
    return _SIGMA[j].copy()


def sigma_dot(v) -> np.ndarray:
    """sigma . v = v1 sigma_1 + v2 sigma_2 for a real 2-vector v."""
    v1, v2 = float(v[0]), float(v[1])
    return np.array([[0.0, v1 - 1.0j * v2], [v1 + 1.0j * v2, 0.0]])


@dataclass(frozen=True)
class DerivedConstants:
    """Scalar constants derived from (tau, m).

    a, b : entries of the transmission matrix M = a sigma_0 + b i sigma_3 (sigma.nu)
    eps_tau : essential-spectrum gap edge (m for tau > 0)
    kappa0 : -4 m tau / (4 + tau^2); the transverse decay rate for tau < 0
    kappa_tau : a^2 + b^2
    c_tau : (a - 1)^2 + b^2, squared norm of the jump of the profile spinor
    """

    a: float
    b: float
    eps_tau: float
    kappa0: float
    kappa_tau: float
    c_tau: float


def _derive(t: float, m: float) -> DerivedConstants:
    a = (4.0 + t * t) / (4.0 - t * t)
    b = 4.0 * t / (4.0 - t * t)
    if t > 0.0:
        eps = m
    else:
        eps = m * abs(t * t - 4.0) / (t * t + 4.0)
    kappa0 = -4.0 * m * t / (4.0 + t * t)
    kappa = ((4.0 + t * t) ** 2 + 16.0 * t * t) / (4.0 - t * t) ** 2
    c = 4.0 * t * t * (t * t + 4.0) / (t * t - 4.0) ** 2
    return DerivedConstants(a=a, b=b, eps_tau=eps, kappa0=kappa0,
                            kappa_tau=kappa, c_tau=c)


def derived_constants(p: PhysParams) -> DerivedConstants:
    """All derived scalar constants for parameters ``p`` (built once, when
    ``p`` is constructed)."""
    return p._constants


def _refine(fd, lo: float, hi: float) -> float:
    """Root of f in [lo, hi], f(lo) >= 0 > f(hi), by bracketed Newton on
    Python floats down to adjacent floats; returns lo or hi.

    ``fd(x)`` returns (f(x), f'(x)).  Every iterate lies strictly inside the
    current sign-change bracket.  A Newton target on or beyond an end of the
    bracket (a step too small to move x lands on x, which is an end) probes
    the float next to that end, inside: the root lies within the bracket,
    usually within one float of that end.  A step more than half the size of
    the step before last bisects instead, as does a zero slope, so a
    non-monotone f or a stalled Newton sequence falls back on bisection.
    """
    x = 0.5 * (lo + hi)
    older = old = math.inf   # sizes of the last two steps
    while lo < x < hi:
        f, d = fd(x)
        if f < 0.0:
            hi = x
        else:
            lo = x
        y = x - f / d if d else math.nan
        if y <= lo:
            y = math.nextafter(lo, hi)
        elif y >= hi:
            y = math.nextafter(hi, lo)
        if not (lo < y < hi and abs(y - x) <= 0.5 * older):
            y = 0.5 * (lo + hi)
        older, old = old, abs(y - x)
        x = y
    return x


def _unit_normal(nu) -> tuple[float, float]:
    nu1, nu2 = float(nu[0]), float(nu[1])
    norm = math.hypot(nu1, nu2)
    if not abs(norm - 1.0) <= 1e-12:
        raise ParameterError(f"normal must be a unit vector, |nu| = {norm}")
    return nu1, nu2


def transmission_matrix(p: PhysParams, nu) -> np.ndarray:
    """Transmission matrix M(nu) = a sigma_0 + b i sigma_3 (sigma . nu), (2, 2).

    M(-nu) = sigma_3 M(nu) sigma_3 = M(nu)^{-1}: the condition read in the
    other direction is the matrix of the opposite normal.
    """
    nu = _unit_normal(nu)
    dc = derived_constants(p)
    return dc.a * _SIGMA[0] + dc.b * 1.0j * (_SIGMA[3] @ sigma_dot(nu))


def interface_matrices(p: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """Restrictions (M_l, M_r) of M to the upper and lower rays.

    The upper ray runs at angle +omega with outward normal (-sin w, cos w),
    the lower ray at angle -omega with outward normal (-sin w, -cos w);
    "outward" means out of the wedge interior.
    """
    w = p.omega
    m_l = transmission_matrix(p, (-math.sin(w), math.cos(w)))
    m_r = transmission_matrix(p, (-math.sin(w), -math.cos(w)))
    return m_l, m_r


def special_matrices(p: PhysParams, nu) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalized transmission matrix M_tilde and the rotation Theta.

    Theta = (sigma_0 + i sigma.nu)/sqrt(2) is unitary and satisfies
    Theta* M(nu) Theta = M_tilde = a sigma_0 - b sigma_3, which is diagonal,
    real, and independent of nu.
    """
    dc = derived_constants(p)
    theta = (_SIGMA[0] + 1.0j * sigma_dot(_unit_normal(nu))) / math.sqrt(2.0)
    return dc.a * _SIGMA[0] - dc.b * _SIGMA[3], theta


def charge_conjugate(u: np.ndarray) -> np.ndarray:
    """Charge conjugation C u = sigma_1 conj(u), applied along the last axis
    of an array of spinor values."""
    return np.conj(u[..., ::-1])
