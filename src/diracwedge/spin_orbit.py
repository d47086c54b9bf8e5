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

a = (4 + tau^2)/(4 - tau^2), b = 4 tau/(4 - tau^2).  It factors as
4 f_+ f_- (below), the form ``secular_det`` evaluates: no difference in
it cancels at weak coupling.  With c = pi - 2 omega, sin(pi mu) =
-cos(pi lambda) and cos phi = sin(c lambda) (phi below), so

    f_s(lambda) = s b sin(c lambda) - a cos(pi lambda),
    f_s'(lambda) = a pi sin(pi lambda) + s b c cos(c lambda),

the lambda-form in which every factor here is evaluated; f_s(0) = -a is
exact.  Negating lambda negates pi lambda and c lambda exactly, sin is odd
and cos even, so the computed f_s(-lambda) is the computed f_{-s}(lambda),
bit for bit, and f_s' changes sign: the spectrum is symmetric under
lambda -> -lambda with the sectors swapped, in floats as in exact
arithmetic.

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
and a double root lists its sectors as (-1, +1).  (A cut on singular
values relative to the largest one, of T or of T_s, reads simple roots near
|tau| = 2 as double or triple: the largest grow like 1/|4 - tau^2|, while
the other sector's smallest can stay of order 1.)  The cut reads the
weak-coupling pair near 1/2 +- |tau| cos(omega) / pi as one double root
when |tau| cos omega <~ 5e-8: at one member, f_{-s} is 2 |tau| cos omega.

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
floats; the root is simple, so no cut runs.  The computed f_s(1/2) also
holds -a cos(pi/2) of the rounded pi/2, about -6.1e-17 a; it can take the
wrong sign only where |b| cos omega < 6.2e-17 |a|, and then the root lies
within 2e-17 of 1/2.  The refinement ends on a bracket end, and may end on
1/2 itself (at tau = +-1.0000001e-9, omega = pi/2 - 1e-7, where the root is
nearer 1/2 - 2^-54 than 1/2); the root lies strictly below 1/2, so 1/2 is
returned as the float below it, 1/2 - 2^-54, and the result always lies in
the open (0, 1/2).

Other windows are folded onto lambda >= 0: the scan runs on
S = [max(lo, -hi, 0), max(-lo, hi)], and each root x of f_s found there is
reported as (x, s) if it lies in the window and as (-x, -s) if -x does (a
double root stays double), with no second scan and no second refinement.
S is searched by a |f_+ f_-|^2 minimum scan of f_+ and f_- on a fixed grid
of step 1/2000, whose cos(pi lambda) is cached with it.  At each interior
minimum the factor nearer 0 (f_+ on a tie) is refined by bracketed Newton
down to adjacent floats if its grid values change sign across the
minimum's two cells.  A window edge where adjacent floats lie more than a
quarter of the grid step apart (|lambda| >= 2^40) is refused: beyond it
the rounded phases pi lambda and c lambda can be off by more than a
quarter of their step between grid points, and windows just below 2^42
lost roots.  The scan misses roots that share a minimum's cells with
another root (two close pairs, and one member of each weak-coupling pair);
sign-change bracketing of the whole window would find them once the
benchmark reference, which froze the scan's windows, is corrected.

The scan evaluates the factors only where a root can be.  Both factors
have |f_+-'| <= D = |a| pi + |b| (pi - 2 omega), and
min(|f_+|, |f_-|) = m = ||a cos(pi lambda)| - |b sin(c lambda)||.  Every
16th grid point (and the last) is a coarse point; a coarse cell of width h
with m(left) + m(right) > D h holds no root of either factor, since a root
at x would give |f_s| <= D |x - end| at both ends.  With a rounding margin
(see ``spectrum_in_window``) the test also proves that no computed grid
value of f_s changes sign inside the cell, so every minimum the full scan
refines lies in or next to a kept cell, and is found there from the same
floats: the roots are those of the full scan, bit for bit.

The secular solver here is the product of record; a dense discretization of J
lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import TYPE_CHECKING

from .model import PhysParams, _Record, _refine, derived_constants

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
# of |f_+ f_-|^2 on the grid brackets at most one refined root.
_SCAN_DENSITY = 2000
_MULT_CUT = 1e-7
_ROOT_DEDUP = 1e-7
# Widest window the scan accepts: 2e6 grid points.
_MAX_WINDOW = 1000.0
# Every 16th grid point bounds a cell of the root-free exclusion pass.  Of
# 8, 12, 16, 24, 32 and 48, 16 was best or within 2% of best at widths 0.3
# to 100; 8 and 48 were 10-11% slower on [-50, 50] (in process, best of 6,
# 30 reference points, 2-core VM).
_COARSE_STEP = 16
# Widest gap between adjacent floats at a window edge: a quarter of the scan
# step, so edges lie below 2^40 (see ``spectrum_in_window``).
_FLOAT_GAP = 0.25 / _SCAN_DENSITY


class SpinOrbitRoot(_Record):
    """An eigenvalue of the spin-orbit operator and the reflection sector
    s = +-1 of each of its null vectors, -1 first for a double root; the
    null vector of sector s is ``_sector_row(a, b, omega, lam, s)``."""

    _fields = ("lam", "sectors")

    def __init__(self, lam: float, sectors: tuple[int, ...]) -> None:
        self.__dict__.update(lam=lam, sectors=sectors)

    @property
    def multiplicity(self) -> int:
        return len(self.sectors)


def _factors(a: float, b: float, w: float, lam: np.ndarray,
             cosine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f_+, f_-) at the array lambda, given cosine = cos(pi lambda)."""
    import numpy as np

    acos = a * cosine
    bsin = b * np.sin((math.pi - 2.0 * w) * lam)
    return bsin - acos, -bsin - acos


def _det_factor(a: float, b: float, w: float, sign: float):
    """lambda -> (f, f') on Python floats for
    f = sign (b sin((pi - 2 omega) lambda) - a cos(pi lambda)): det T is 4
    times the product of the factors with b and -b, and the factor with -b
    at -lambda is (f, -f') of the factor with b at lambda, bit for bit."""
    c = math.pi - 2.0 * w
    sa, sb = sign * a, sign * b

    def factor(lam: float) -> tuple[float, float]:
        x, y = math.pi * lam, c * lam
        return (sb * math.sin(y) - sa * math.cos(x),
                sa * math.pi * math.sin(x) + sb * c * math.cos(y))
    return factor


def secular_det(p: PhysParams, lams) -> np.ndarray:
    """det T(lambda) = 4 f_+ f_-, real float64, vectorized over ``lams``."""
    import numpy as np

    lam = np.atleast_1d(np.asarray(lams, dtype=float))
    dc = derived_constants(p)
    f_plus, f_minus = _factors(dc.a, dc.b, p.omega, lam, np.cos(math.pi * lam))
    return 4.0 * f_plus * f_minus


@functools.lru_cache(maxsize=16)
def _sector_row(a: float, b: float, w: float, lam: float,
                s: float) -> tuple[complex, ...]:
    """The null vector (1, s i, C_s, s i e^{2 pi i mu} C_s) of sector s at
    lambda, C_s = a + s i b e^{-i (2 mu + 1) omega}, on Python floats and
    scaled to unit L^2 norm over both arcs.  Cached on all five inputs, as
    an immutable tuple: a root's profile is evaluated at many angles."""
    mu = lam - 0.5
    cs = a + s * 1j * b * cmath.exp(-1j * (2.0 * mu + 1.0) * w)
    turn = cmath.exp(2j * math.pi * mu)
    # |phi|^2 integrates to (|A|^2+|B|^2) 2 omega + (|C|^2+|D|^2)(2pi-2 omega):
    # the angular exponentials are unimodular.
    scale = 1.0 / math.sqrt(4.0 * w + abs(cs) ** 2 * (4.0 * math.pi - 4.0 * w))
    return (scale, s * 1j * scale, cs * scale, s * 1j * turn * cs * scale)


@functools.lru_cache(maxsize=2)
def _candidate_grid(lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """(rows, cosine, lam, abs_cos, width), all read-only and built once per
    scanned interval.  The coarse points are every ``_COARSE_STEP``-th point
    of the scan grid of [lo, hi] and its last one; ``lam`` and ``abs_cos``
    are lambda and |cos(pi lambda)| at them, and ``width`` is the width of
    the widest coarse cell between them.  Row j of ``rows`` holds the scan
    points left - 1 .. right + 1 of cell j (NaN past either end of the
    grid), and ``cosine`` holds cos(pi rows); consecutive rows share three
    points, and both are views of one padded array each."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

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
    coarse = np.append(grid[::_COARSE_STEP], grid[-1])
    padded = np.full((coarse.size - 1) * _COARSE_STEP + 3, np.nan)
    padded[1:grid.size + 1] = grid
    layout = tuple(sliding_window_view(x, _COARSE_STEP + 3)[::_COARSE_STEP]
                   for x in (padded, np.cos(math.pi * padded)))
    abs_cos = np.abs(np.cos(math.pi * coarse))
    for arr in (coarse, abs_cos):
        arr.setflags(write=False)
    return layout + (coarse, abs_cos, float(np.max(np.diff(coarse))))


def _root_cells(a: float, b: float, w: float, lo: float,
                hi: float) -> np.ndarray:
    """Per coarse cell of ``_candidate_grid(lo, hi)``: False where no
    computed grid value of either factor can change sign inside the cell
    (see ``spectrum_in_window``)."""
    import numpy as np

    lam, abs_cos, width = _candidate_grid(lo, hi)[2:]
    c = math.pi - 2.0 * w
    slope = abs(a) * math.pi + abs(b) * c
    near = np.abs(abs(a) * abs_cos - np.abs(b * np.sin(c * lam)))
    top = max(abs(lo), abs(hi))
    margin = 2.0 ** -46 * (abs(a) + abs(b)) * (1.0 + 2.0 * math.pi * top)
    return near[:-1] + near[1:] <= width * (slope * (1.0 + 1e-12)) + margin


def principal_eigenvalue(p: PhysParams) -> SpinOrbitRoot:
    """The unique simple eigenvalue in (0, 1/2): the root of f_s,
    s = sgn tau, which runs from -a at 0 to s b cos omega at 1/2 (see the
    module docstring), refined by bracketed Newton on [0, 1/2] down to
    adjacent floats.  A refinement that ends on 1/2 returns the float below
    it, so the result lies in the open (0, 1/2)."""
    if p.omega >= math.pi / 2.0:
        raise ValueError("principal eigenvalue requires omega < pi/2")
    dc = derived_constants(p)
    s = 1 if p.tau > 0.0 else -1
    fd = _det_factor(dc.a, s * dc.b, p.omega, -1.0 if dc.a > 0.0 else 1.0)
    lam = _refine(fd, 0.0, 0.5)
    if lam == 0.5:
        lam = math.nextafter(0.5, 0.0)
    return SpinOrbitRoot(lam=lam, sectors=(s,))


def spectrum_in_window(p: PhysParams, lo: float, hi: float) -> list[SpinOrbitRoot]:
    """The secular roots in [lo, hi] that the grid scan brackets, each
    refined by bracketed Newton on one factor f_s of det T down to adjacent
    floats and built in its sector s (see the module docstring), sorted
    ascending, with multiplicities; the window may be at most 1000 wide,
    and its edges must lie below 2^40 in magnitude.

    The scan runs on the folded interval S = [max(lo, -hi, 0), max(-lo, hi)]
    and reports each root x of f_s it finds there as (x, s) if x lies in
    the window and as (-x, -s) if -x does (a double root stays double):
    the computed f_{-s}(-x) is f_s(x), bit for bit, so -x is an
    adjacent-float sign change of f_{-s} as x is of f_s.

    The scan runs only on the coarse cells of S that ``_root_cells`` keeps,
    and its roots are those of the scan over the whole grid of S.  With
    u = 2^-53, every computed f_s at a grid point, and every computed
    m = min(|f_+|, |f_-|) at a coarse point, lies within
    E = 8u (|a| + |b|) (1 + 2 pi |lambda|) of its exact value for the float
    constants: pi lambda and (pi - 2 omega) lambda are rounded to within
    4u |lambda|, and sin and cos to within 2 ulp.  A minimum is refined
    only if the computed f_s changes sign between two adjacent grid points
    of one coarse cell.  So some x between them has |f_s(x)| <= E,
    |f_s| <= E + D |x - end| at both ends of the cell, and the computed
    m(left) + m(right) is at most D h + 4E for a cell of width h.  A cell
    is dropped only above
    D h_max (1 + 1e-12) + 2^-46 (|a| + |b|) (1 + 2 pi max |lambda|), h_max
    the widest cell's width: the margin is 4 times 4E, and the factor
    1 + 1e-12 covers the rounding of D h_max.
    Row j of the gathered grid holds the points left - 1 .. right + 1 of
    cell j and tests left .. right for a minimum, with both neighbours in
    the row; a point tested in two kept rows is refined once.  The factors
    are evaluated by ``_factors``, elementwise as on the whole grid, so
    every minimum, factor choice, sign test and bracket is the whole
    grid's.  At the benchmark's [-3, 3] window, S = [0, 3], about 3% of the
    cells are kept.

    A window edge is refused where adjacent floats lie more than a quarter
    of the grid step h = 1/2000 apart (|lambda| >= 2^40).  A phase
    x = pi lambda or (pi - 2 omega) lambda is rounded by at most u |x|,
    less than ulp(lambda) / h times its own step between grid points; so
    below 2^40 the computed phases are off by less than a quarter step.
    Just below 2^42, where they can be off by a whole step, windows 10
    wide lost 2 to 4 of the 20 roots that a 40-digit count finds."""
    import numpy as np

    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be bounded with lo < hi, got [{lo}, {hi}]")
    if not hi - lo <= _MAX_WINDOW:
        raise ValueError(f"window [{lo}, {hi}] is wider than {_MAX_WINDOW:g}")
    edge = max(abs(lo), abs(hi))
    if math.ulp(edge) > _FLOAT_GAP:
        raise ValueError(
            f"window [{lo}, {hi}] is too far out to scan: adjacent floats at "
            f"{edge:g} are {math.ulp(edge):g} apart, more than the scan step "
            f"{1.0 / _SCAN_DENSITY:g} allows ({_FLOAT_GAP:g})")
    dc, w = derived_constants(p), p.omega
    a, b = dc.a, dc.b
    s_lo, s_hi = max(lo, -hi, 0.0), max(-lo, hi)
    rows, cosine = _candidate_grid(s_lo, s_hi)[:2]
    keep = _root_cells(a, b, w, s_lo, s_hi)
    grid = rows[keep]
    f_plus, f_minus = _factors(a, b, w, grid, cosine[keep])
    vals = (f_plus * f_minus) ** 2
    lower = vals[:, 1:-1] <= np.minimum(vals[:, :-2], vals[:, 2:])
    row, col = lower.nonzero()
    # flat positions of each minimum's left neighbour, itself, right neighbour
    trio = (row * vals.shape[1] + col)[:, None] + np.arange(3)
    found = []
    last = None
    for (l, _, u), (pl, pm, pr), (ml, mm, mr) in zip(
            grid.ravel()[trio].tolist(), f_plus.ravel()[trio].tolist(),
            f_minus.ravel()[trio].tolist()):
        if l == last:   # a cell's right end, tested in the next row as well
            continue
        last = l
        # the factor nearer 0 at the minimum, f_+ on a tie, at both cell ends
        s, fl, fu = (-1, ml, mr) if abs(mm) < abs(pm) else (1, pl, pr)
        r = 1.0 if fl >= 0.0 else -1.0
        if r * fu < 0.0:
            found.append((_refine(_det_factor(a, s * b, w, r), l, u), s))
    cut = _MULT_CUT * (abs(a) + abs(b))
    folded: list[tuple[float, tuple[int, ...]]] = []
    for lam, s in sorted(found):
        if folded and lam - folded[-1][0] <= _ROOT_DEDUP:
            continue
        other = _det_factor(a, -s * b, w, 1.0)(lam)[0]
        folded.append((lam, (-1, 1) if abs(other) <= cut else (s,)))
    # negated and reversed, (s,) becomes (-s,) and (-1, 1) stays
    roots = [SpinOrbitRoot(lam=-lam, sectors=tuple(-t for t in sectors[::-1]))
             for lam, sectors in reversed(folded) if lo <= -lam <= hi]
    roots += [SpinOrbitRoot(lam=lam, sectors=sectors)
              for lam, sectors in folded if lo <= lam <= hi]
    return roots


def _profile(p: PhysParams, root: SpinOrbitRoot):
    """theta -> phi_lambda(theta) on Python floats, 2pi-periodic: theta is
    wrapped to t = (theta + omega) mod 2pi - omega in [-omega, 2pi - omega),
    and phi = (A e^{i mu t}, B e^{-i mu t}) where t <= omega (the wedge
    arc, boundary rays included), (C e^{i mu t}, D e^{-i mu t}) elsewhere,
    mu = lambda - 1/2, (A, B, C, D) the null vector of the root's first
    sector (-1 for a double root).  The float 2pi is not 2pi, and theta
    itself is rounded, so t lies within 2^-50 (|theta| + 2pi) of the exact
    reduction; an angle that close to a ray, however many turns out, takes
    the wedge arc as the ray does (from 2pi - omega, t - 2pi is used).  So
    only angles within 8.9e-13 of a ray (for |theta| <= 1000) differ from
    the plain rule.  A non-finite theta raises ValueError."""
    dc, w = derived_constants(p), p.omega
    a, b, c, d = _sector_row(float(dc.a), float(dc.b), float(w),
                             float(root.lam), root.sectors[0])
    mu = root.lam - 0.5

    def phi(theta: float) -> tuple[complex, complex]:
        if not math.isfinite(theta):
            raise ValueError(f"angle must be finite, got theta={theta}")
        t = (theta + w) % (2.0 * math.pi) - w
        slack = 2.0 ** -50 * (abs(theta) + 2.0 * math.pi)
        if t >= 2.0 * math.pi - w - slack:
            t -= 2.0 * math.pi
        e = cmath.exp(1j * mu * t)
        if t <= w + slack:
            return a * e, b * e.conjugate()
        return c * e, d * e.conjugate()
    return phi


def angular_profile(p: PhysParams, root: SpinOrbitRoot, theta) -> np.ndarray:
    """Eigenfunction phi_lambda at angle(s) theta, a complex array of shape
    theta.shape + (2,): ``_profile`` (which states the wrap rule and the
    choice of arc) at each angle.  A non-finite theta raises ValueError."""
    import numpy as np

    phi = _profile(p, root)
    th = np.asarray(theta, dtype=float)
    out = np.array([phi(t) for t in th.ravel().tolist()], dtype=complex)
    return out.reshape(th.shape + (2,))
