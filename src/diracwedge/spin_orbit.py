"""Spin-orbit operator on the two arcs cut out by the wedge boundary.

Separation in polar coordinates reduces the shell-interaction Dirac operator
to the first-order angular operator J = -i sigma_3 d/dtheta + 1/2 acting on
spinors on the arcs (-omega, omega) and (omega, 2pi - omega), glued by the
transmission matrices M_l, M_r.  On each arc an eigenfunction with J phi =
lambda phi is a pure exponential pair

    phi_plus(theta)  = (A e^{i mu theta}, B e^{-i mu theta}),
    phi_minus(theta) = (C e^{i mu theta}, D e^{-i mu theta}),   mu = lambda - 1/2,

so the matching conditions collapse to a 4x4 homogeneous linear system
T(lambda) (A, B, C, D)^T = 0; lambda is an eigenvalue iff det T(lambda) = 0.
The determinant is real and has the closed form

    det T = 4a^2 sin^2(pi mu) - 4b^2 cos^2((pi - 2 omega) mu - omega),

a = (4 + tau^2)/(4 - tau^2), b = 4 tau/(4 - tau^2), which ``secular_det``
evaluates.  By a^2 - 1 = b^2 and the half-angle formulas it equals
2 - 2a^2 cos(2 pi mu) - 2b^2 cos((2pi - 4 omega) mu - 2 omega), but no
difference in it cancels at weak coupling.

The null vectors at the roots (multiplicity and the coefficients behind
``angular_profile``) are closed form too.  The reflection theta -> -theta
acts on the coefficients as the parity
P (A, B, C, D) = (-iB, iA, -iD e^{-2 pi i mu}, iC e^{2 pi i mu}), P^2 = 1,
and on the rows of T as P'(r0, r1, r2, r3) = (-i r3, i r2, -i r1, i r0),
with T P = P' T.  So T splits into its two sectors s = +-1, where
B = s i A and D = s i e^{2 pi i mu} C; in orthonormal row and column bases
of sector s it is the 2x2 block

    T_s = [[a e + s i b e^{-i omega} / e, -e],
           [a / e - s i b e^{i omega} e,  -E]],
    e = e^{i mu omega},  E = e^{i mu (2pi - omega)}.

With C_s = a + s i b e^{-i (2 mu + 1) omega}, the first column of T_s is
(e C_s, conj(e C_s)), so det T_s = conj(C_s) - e^{2 pi i mu} C_s =
-2i e^{i pi mu} f_s, f_s = a sin(pi mu) + s b cos phi,
phi = (pi - 2 omega) mu - omega, and det T = 4 f_+ f_-.  A root of f_s
has the null vector (1, s i, C_s, s i e^{2 pi i mu} C_s) in sector s; this
holds for any real a and b, so for their rounded values too.  A root is
the record (lambda, sectors): the sector s whose factor its search refined,
and sector -s too when |f_{-s}| <= 1e-7 (|a| + |b|), the size of f_s.  So a
double root is a common root of f_+ and f_-, no root is more than double,
and a double root lists its sectors as (-1, +1).  (A cut on
singular values relative to the largest one, of T or of T_s, reads simple
roots near |tau| = 2 as double or triple: the largest grow like
1/|4 - tau^2|, while the other sector's smallest can stay of order 1.)  The
cut reads the weak-coupling pair near 1/2 +- |tau| cos(omega) / pi as one
double root when |tau| cos omega <~ 5e-8: at one member, f_{-s} is about
2 |tau| cos omega.

The principal eigenvalue needs no search: det T(0) = 4a^2 > 0,
det T(1/2) = -4b^2 cos^2 omega < 0, and on (0, 1/2), where mu lies in
(-1/2, 0) and (2pi - 4 omega) mu - 2 omega in (-pi, -2 omega), both sines of

    d det T / d mu = 4 pi a^2 sin(2 pi mu)
                     + 4b^2 (pi - 2 omega) sin((2pi - 4 omega) mu - 2 omega)

are negative.  So det T has exactly one root in (0, 1/2), a simple one.
For s = sgn tau, f_s(0) = -a and f_s(1/2) = s b cos omega, where
sgn(s b) = sgn a: f_s changes sign on [0, 1/2], so the one root of
det T = 4 f_+ f_- there is f_s's and lies in sector sgn tau.  Bracketed
Newton on -sgn(a) f_s, which falls through 0, refines it down to adjacent
floats; the root is simple, so no cut runs.

Other windows are searched by a |det|^2 minimum scan on a fixed grid, whose
sin(pi mu) is cached with it.  At each interior minimum the factor nearer 0
is refined by bracketed Newton down to adjacent floats if it changes sign
across the minimum's two grid cells; a minimum where it does not holds no
root.  The scan misses roots that share a minimum's cells with another root
(two close pairs, and one member of each weak-coupling pair); sign-change
bracketing of the whole window would find them, and waits until the
benchmark reference, which froze the scan's windows, is corrected.

The secular solver here is the product of record; a dense discretization of J
lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import PhysParams, _refine, derived_constants

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpinOrbitRoot",
    "secular_det",
    "principal_eigenvalue",
    "spectrum_in_window",
    "angular_profile",
]

# Scan density fixed at 2000 points per unit spectral interval; each minimum
# of |det|^2 on the grid brackets at most one refined root.
_SCAN_DENSITY = 2000
_MULT_CUT = 1e-7
_ROOT_DEDUP = 1e-7
# Widest window the scan accepts: 2e6 grid points.
_MAX_WINDOW = 1000.0


@dataclass(frozen=True)
class SpinOrbitRoot:
    """An eigenvalue of the spin-orbit operator and the reflection sector
    s = +-1 of each of its null vectors, -1 first for a double root; the
    null vector of sector s is ``_sector_row(a, b, omega, lam, s)``."""

    lam: float
    sectors: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.sectors)


def _det(a: float, b: float, w: float, mu: np.ndarray,
         sine: np.ndarray) -> np.ndarray:
    """det T at the array mu = lambda - 1/2, given sine = sin(pi mu)."""
    import numpy as np

    return 4.0 * ((a * sine) ** 2
                  - (b * np.cos((math.pi - 2.0 * w) * mu - w)) ** 2)


def _det_factor(a: float, b: float, w: float, sign: float):
    """lambda -> (f, f') on Python floats for
    f = sign (a sin(pi mu) + b cos((pi - 2 omega) mu - omega)),
    mu = lambda - 1/2: det T is 4 times the product of the factors with b
    and -b."""
    c = math.pi - 2.0 * w
    sa, sb = sign * a, sign * b

    def factor(lam: float) -> tuple[float, float]:
        mu = lam - 0.5
        phi = c * mu - w
        return (sa * math.sin(math.pi * mu) + sb * math.cos(phi),
                sa * math.pi * math.cos(math.pi * mu) - sb * c * math.sin(phi))
    return factor


def secular_det(p: PhysParams, lams) -> np.ndarray:
    """det T(lambda), real float64, vectorized over ``lams`` (closed form)."""
    import numpy as np

    mu = np.atleast_1d(np.asarray(lams, dtype=float)) - 0.5
    dc = derived_constants(p)
    return _det(dc.a, dc.b, p.omega, mu, np.sin(math.pi * mu))


def _sector_row(a: float, b: float, w: float, lam: float,
                s: float) -> list[complex]:
    """The null vector (1, s i, C_s, s i e^{2 pi i mu} C_s) of sector s at
    lambda, C_s = a + s i b e^{-i (2 mu + 1) omega}, on Python floats and
    scaled to unit L^2 norm over both arcs."""
    mu = lam - 0.5
    cs = a + s * 1j * b * cmath.exp(-1j * (2.0 * mu + 1.0) * w)
    turn = cmath.exp(2j * math.pi * mu)
    # |phi|^2 integrates to (|A|^2+|B|^2) 2 omega + (|C|^2+|D|^2)(2pi-2 omega):
    # the angular exponentials are unimodular.
    scale = 1.0 / math.sqrt(4.0 * w + abs(cs) ** 2 * (4.0 * math.pi - 4.0 * w))
    return [scale, s * 1j * scale, cs * scale, s * 1j * turn * cs * scale]


@functools.lru_cache(maxsize=2)
def _candidate_grid(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid of [lo, hi] and sin(pi (grid - 1/2)) on it, both
    read-only: built once per window."""
    import numpy as np

    n = int(np.ceil((hi - lo) * _SCAN_DENSITY)) + 1
    grid = np.linspace(lo, hi, max(n, 16))
    # Geometric tails resolve roots closer to a window edge than the grid
    # step; at weak coupling the roots pair up around the half-integers at
    # distances linear in tau (1/2 - lambda* ~ |tau| cos(omega) / pi).
    tails = []
    span = hi - lo
    for k in range(4, 13):
        off = 10.0 ** (-k) * span
        tails.append(lo + off)
        tails.append(hi - off)
    grid = np.unique(np.concatenate([grid, np.array(tails)]))
    sine = np.sin(math.pi * (grid - 0.5))
    grid.setflags(write=False)
    sine.setflags(write=False)
    return grid, sine


def principal_eigenvalue(p: PhysParams) -> SpinOrbitRoot:
    """The unique simple eigenvalue in (0, 1/2): the root of f_s,
    s = sgn tau, which runs from -a at 0 to s b cos omega at 1/2 (see the
    module docstring), refined by bracketed Newton on [0, 1/2] down to
    adjacent floats."""
    if p.omega >= math.pi / 2.0:
        raise ValueError("principal eigenvalue requires omega < pi/2")
    dc = derived_constants(p)
    s = 1 if p.tau > 0.0 else -1
    fd = _det_factor(dc.a, s * dc.b, p.omega, -1.0 if dc.a > 0.0 else 1.0)
    return SpinOrbitRoot(lam=_refine(fd, 0.0, 0.5), sectors=(s,))


def spectrum_in_window(p: PhysParams, lo: float, hi: float) -> list[SpinOrbitRoot]:
    """The secular roots in [lo, hi] that the grid scan brackets, each
    refined by bracketed Newton on one factor f_s of det T down to adjacent
    floats and built in its sector s (see the module docstring), sorted
    ascending, with multiplicities; the window may be at most 1000 wide."""
    import numpy as np

    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be bounded with lo < hi, got [{lo}, {hi}]")
    if not hi - lo <= _MAX_WINDOW:
        raise ValueError(f"window [{lo}, {hi}] is wider than {_MAX_WINDOW:g}")
    dc, w = derived_constants(p), p.omega
    a, b = dc.a, dc.b
    grid, sine = _candidate_grid(lo, hi)
    vals = _det(a, b, w, grid - 0.5, sine) ** 2
    mid = vals[1:-1]
    minima = np.flatnonzero((mid <= vals[:-2]) & (mid <= vals[2:])) + 1
    factors = {s: _det_factor(a, s * b, w, 1.0) for s in (1, -1)}
    found = []
    for i in minima.tolist():
        l, x, u = grid[i - 1:i + 2].tolist()
        s = min(factors, key=lambda t: abs(factors[t](x)[0]))
        r = 1.0 if factors[s](l)[0] >= 0.0 else -1.0
        if r * factors[s](u)[0] < 0.0:
            found.append((_refine(_det_factor(a, s * b, w, r), l, u), s))
    cut = _MULT_CUT * (abs(a) + abs(b))
    roots: list[SpinOrbitRoot] = []
    for lam, s in sorted(found):
        if roots and lam - roots[-1].lam <= _ROOT_DEDUP:
            continue
        sectors = (-1, 1) if abs(factors[-s](lam)[0]) <= cut else (s,)
        roots.append(SpinOrbitRoot(lam=lam, sectors=sectors))
    return roots


def angular_profile(p: PhysParams, root: SpinOrbitRoot, theta) -> np.ndarray:
    """Eigenfunction phi_lambda evaluated at angle(s) theta, extended
    2pi-periodically; on the boundary rays the wedge-side branch is used.

    theta is wrapped to t = (theta + omega) mod 2pi - omega in
    [-omega, 2pi - omega); phi = (A e^{i mu t}, B e^{-i mu t}) where
    t <= omega (the wedge arc, boundary rays included) and
    (C e^{i mu t}, D e^{-i mu t}) elsewhere, mu = lambda - 1/2.  For a
    double root the null vector of its first sector, -1, is taken.  This
    is the array evaluator; ``special.deficiency_element`` applies the same
    rule at one point on Python floats.
    """
    import numpy as np

    dc = derived_constants(p)
    a, b, c, d = _sector_row(dc.a, dc.b, p.omega, root.lam, root.sectors[0])
    mu = root.lam - 0.5
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    wrapped = np.mod(th + p.omega, 2.0 * math.pi) - p.omega
    plus = wrapped <= p.omega
    out = np.empty(th.shape + (2,), dtype=complex)
    ew = np.exp(1j * mu * wrapped)
    out[plus, 0] = a * ew[plus]
    out[plus, 1] = b * np.conj(ew[plus])
    out[~plus, 0] = c * ew[~plus]
    out[~plus, 1] = d * np.conj(ew[~plus])
    return out[0] if scalar else out
