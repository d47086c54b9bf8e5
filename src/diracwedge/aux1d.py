"""Transverse 1-D interface operator on a strip of half-width gamma.

After diagonalizing the transmission matrix, the lowest transverse mode of
the attractive shell (tau < 0) solves the scalar transcendental equation

    F_gamma(k) = k tanh(k gamma) = kappa0,      kappa0 = -4 m tau / (4 + tau^2),

whose unique root k_gamma > kappa0 gives the strip ground-state energy
E(gamma) = m^2 - k_gamma^2.  E increases with gamma and approaches the
squared gap edge eps_tau^2 = m^2 - kappa0^2 from below as gamma -> infinity.

Note: E(gamma) can be negative for small gamma (E(1) ~ -0.066 at tau=-1,
m=1); the only hard bound asserted here is E < m^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ParameterError, PhysParams, _refine, derived_constants

__all__ = ["Aux1DResult", "ground_state"]


@dataclass(frozen=True)
class Aux1DResult:
    gamma: float
    k_gamma: float
    E_gamma: float


def ground_state(p: PhysParams, gamma: float) -> Aux1DResult:
    """Solve F_gamma(k) = kappa0 and return (gamma, k_gamma, E_gamma).

    Bracketed Newton on [kappa0, kappa0 + 1/gamma] down to adjacent floats,
    with the closed-form slope F' = tanh(k gamma) + k gamma sech^2(k gamma).
    tanh(k gamma) < 1 forces k_gamma > kappa0, and tanh x >= x/(1 + x) gives
    F_gamma(kappa0 + 1/gamma) > kappa0, so the bracket always holds the root.
    In floats k_gamma rounds to kappa0 once gamma kappa0 reaches about 20.
    A gamma so small that E_gamma, about m^2 - kappa0/gamma, overflows (or
    1/gamma does) is refused.
    """
    if p.tau >= 0.0:
        raise ParameterError("strip ground state is defined for tau < 0")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    kap = derived_constants(p).kappa0

    def fd(k: float) -> tuple[float, float]:
        # kap - F < 0 exactly when F > kap: the float subtraction keeps the sign
        th = math.tanh(k * gamma)
        return kap - k * th, -(th + k * gamma * (1.0 - th * th))
    k = _refine(fd, kap, kap + 1.0 / gamma)
    energy = p.m * p.m - k * k
    if not math.isfinite(energy):
        raise ParameterError(
            f"gamma = {gamma} is outside the computable range: E_gamma = "
            f"m^2 - k_gamma^2 overflows at m = {p.m}")
    return Aux1DResult(gamma=gamma, k_gamma=k, E_gamma=energy)
