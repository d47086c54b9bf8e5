"""Independent numerical routes used to freeze and check expected values.

Everything here deliberately avoids the package's own closed forms and root
finders: transmission entries are rebuilt from raw tau, eigenvalues come
from dense Galerkin pencils, and energies from honest tensor quadrature.
Agreement between these routes and the library is what the tests assert.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import minimize_scalar

_I2 = np.eye(2, dtype=complex)
_S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _ab(tau: float) -> tuple[float, float]:
    return (4.0 + tau * tau) / (4.0 - tau * tau), 4.0 * tau / (4.0 - tau * tau)


def _shell_matrix(tau: float, nu: tuple[float, float]) -> np.ndarray:
    a, b = _ab(tau)
    sdotn = np.array([[0.0, nu[0] - 1j * nu[1]],
                      [nu[0] + 1j * nu[1], 0.0]], dtype=complex)
    return a * _I2 + b * 1j * (_S3 @ sdotn)


# ---------------------------------------------------------------------------
# dense angular (spin-orbit) oracle
# ---------------------------------------------------------------------------

def _arc_matrices(n: int, h: float):
    """P1 matrices on a uniform arc: D[i,j] = int phi_i phi_j', Mass."""
    d = sp.lil_matrix((n + 1, n + 1))
    mass = sp.lil_matrix((n + 1, n + 1))
    for j in range(n):
        # cell [j, j+1]: int phi_j phi_{j+1}' = 1/2, int phi_j phi_j' = -1/2
        d[j, j] += -0.5
        d[j, j + 1] += 0.5
        d[j + 1, j] += -0.5
        d[j + 1, j + 1] += 0.5
        mass[j, j] += h / 3.0
        mass[j + 1, j + 1] += h / 3.0
        mass[j, j + 1] += h / 6.0
        mass[j + 1, j] += h / 6.0
    return d.tocsr(), mass.tocsr()


@functools.lru_cache(maxsize=4)
def _two_arc_pencil(tau: float, omega: float, n_nodes: int):
    """Reduced (A, B) of the two-arc Galerkin pencil.  Cached: a window's
    roots all query one pencil, and the loops below dominate a query."""
    n_plus = max(8, int(round(n_nodes * omega / math.pi)))
    n_minus = max(8, n_nodes - n_plus)
    h_p = 2.0 * omega / n_plus
    h_m = (2.0 * math.pi - 2.0 * omega) / n_minus

    d_p, mass_p = _arc_matrices(n_plus, h_p)
    d_m, mass_m = _arc_matrices(n_minus, h_m)

    def spinorize(d, mass):
        op = sp.kron(-1j * d, _S3) + 0.5 * sp.kron(mass, _I2)
        return op.tocsr(), sp.kron(mass, _I2).tocsr()

    a_p, b_p = spinorize(d_p, mass_p)
    a_m, b_m = spinorize(d_m, mass_m)
    a_full = sp.block_diag([a_p, a_m]).tolil()
    b_full = sp.block_diag([b_p, b_m]).tolil()

    # constraints: minus-arc node 0 (theta=omega) = M_l u_plus(omega),
    # minus-arc node n_minus (theta=2pi-omega) = M_r u_plus(-omega)
    m_l = _shell_matrix(tau, (-math.sin(omega), math.cos(omega)))
    m_r = _shell_matrix(tau, (-math.sin(omega), -math.cos(omega)))
    nfull = 2 * (n_plus + 1 + n_minus + 1)
    off_m = 2 * (n_plus + 1)

    kept = []           # full dof -> reduced column (identity rows)
    for node in range(n_plus + 1):
        kept.extend([2 * node, 2 * node + 1])
    for node in range(1, n_minus):
        kept.extend([off_m + 2 * node, off_m + 2 * node + 1])
    col_of = {dof: i for i, dof in enumerate(kept)}

    z = sp.lil_matrix((nfull, len(kept)), dtype=complex)
    for dof, col in col_of.items():
        z[dof, col] = 1.0
    for comp in range(2):
        for k in range(2):
            z[off_m + comp, col_of[2 * n_plus + k]] = m_l[comp, k]
            z[off_m + 2 * n_minus + comp, col_of[k]] = m_r[comp, k]
    z = z.tocsr()

    a_red = (z.getH() @ a_full.tocsr() @ z).tocsr()
    a_red = (a_red + a_red.getH()) * 0.5
    b_red = (z.getH() @ b_full.tocsr() @ z).tocsr()
    b_red = (b_red + b_red.getH()) * 0.5
    return a_red, b_red


def spin_orbit_eigenvalue_near(tau: float, omega: float, lam: float,
                               n_nodes: int = 4000) -> float:
    """Nearest eigenvalue to lam of the dense two-arc Galerkin pencil.

    The first-order pencil carries a folded spurious branch, so only a
    targeted nearest-eigenvalue query is meaningful; the physical branch is
    superconvergent at the nodes and lands within ~1e-10 of the true value
    at the default resolution.
    """
    a_red, b_red = _two_arc_pencil(tau, omega, n_nodes)
    # tiny offset so the factorization never hits the queried value exactly
    vals = spla.eigsh(a_red, k=1, M=b_red, sigma=lam + 2e-7, which="LM",
                      return_eigenvectors=False)
    return float(vals[0])


def secular_matrix(p, lam: float) -> np.ndarray:
    """Matching matrix T(lambda), (4, 4) complex, in the coefficient order
    (A, B, C, D), rebuilt from raw tau with the row layout of
    ``_secular_matrix_mp``."""
    tau, omega = p.tau, p.omega
    m_l = _shell_matrix(tau, (-math.sin(omega), math.cos(omega)))
    m_r = _shell_matrix(tau, (-math.sin(omega), -math.cos(omega)))
    mu = lam - 0.5
    e_w = np.exp(1j * mu * omega)
    e_far = np.exp(1j * mu * (2.0 * math.pi - omega))
    return np.array([
        [m_l[0, 0] * e_w, m_l[0, 1] / e_w, -e_w, 0.0],
        [m_l[1, 0] * e_w, m_l[1, 1] / e_w, 0.0, -1.0 / e_w],
        [m_r[0, 0] / e_w, m_r[0, 1] * e_w, -e_far, 0.0],
        [m_r[1, 0] / e_w, m_r[1, 1] * e_w, 0.0, -1.0 / e_far],
    ])


def secular_det_matrix(p, lams) -> np.ndarray:
    """det T(lambda) as np.linalg.det of the stacked 4x4 matching matrices
    (complex): a route independent of the closed form in ``secular_det``."""
    return np.linalg.det(np.stack([secular_matrix(p, lam)
                                   for lam in np.atleast_1d(lams)]))


def secular_null_space(p, lam: float, cut: float = 1e-7) -> np.ndarray:
    """Orthonormal rows spanning the null space of T(lambda), from one SVD of
    T at this one root: singular values at most ``cut`` times the largest
    count as zero, and at least one row is returned."""
    _, s, vh = np.linalg.svd(secular_matrix(p, lam))
    k = max(int(np.sum(s <= cut * s[0])), 1)
    return vh[4 - k:].conj()


def _shell_constants_mp(t):
    """a = (4 + tau^2)/(4 - tau^2), b = 4 tau/(4 - tau^2) from raw mpf tau."""
    return (4 + t * t) / (4 - t * t), 4 * t / (4 - t * t)


def _secular_matrix_mp(a, b, w, lam):
    """T(lambda) as an mpmath matrix at the working precision, rebuilt from
    mpf shell constants a, b and omega: rows 0-1 match M_l phi_plus(omega) =
    phi_minus(omega), rows 2-3 M_r phi_plus(-omega) = phi_minus(2pi - omega),
    with M(nu) = a + b i sigma_3 (sigma . nu)."""
    import mpmath

    def shell(n1, n2):
        # a I + b i sigma_3 (sigma . nu)
        return [[a, 1j * b * (n1 - 1j * n2)], [-1j * b * (n1 + 1j * n2), a]]

    m_l = shell(-mpmath.sin(w), mpmath.cos(w))
    m_r = shell(-mpmath.sin(w), -mpmath.cos(w))
    mu = lam - mpmath.mpf(1) / 2
    e_w, e_far = mpmath.expj(mu * w), mpmath.expj(mu * (2 * mpmath.pi - w))
    return mpmath.matrix([
        [m_l[0][0] * e_w, m_l[0][1] / e_w, -e_w, 0],
        [m_l[1][0] * e_w, m_l[1][1] / e_w, 0, -1 / e_w],
        [m_r[0][0] / e_w, m_r[0][1] * e_w, -e_far, 0],
        [m_r[1][0] / e_w, m_r[1][1] * e_w, 0, -1 / e_far],
    ])


def secular_root_mp(tau: float, omega: float, lo: float, hi: float,
                    dps: int = 50) -> float:
    """The root of det T(lambda) in [lo, hi], computed with ``dps`` digits.

    T is the 4x4 matching matrix rebuilt in mpmath from raw tau
    (``_secular_matrix_mp``).  Its determinant, taken by mpmath (no closed
    form), must change sign on [lo, hi], which mpmath bisects (the
    secant-type solvers stall on the flat weak-coupling determinant).
    """
    import mpmath

    with mpmath.workdps(dps):
        t, w = mpmath.mpf(tau), mpmath.mpf(omega)

        a, b = _shell_constants_mp(t)

        def det(lam):
            return mpmath.re(mpmath.det(_secular_matrix_mp(a, b, w, lam)))

        root = mpmath.findroot(det, (mpmath.mpf(lo), mpmath.mpf(hi)),
                               solver="bisect")
        return float(root)


def secular_null_space_mp(tau: float, omega: float, lam: float, k: int,
                          dps: int = 50) -> np.ndarray:
    """Orthonormal rows spanning the right singular vectors of the ``k``
    smallest singular values of T(lambda) at the float ``lam``, computed
    with ``dps`` digits from T rebuilt in mpmath from raw tau, and rounded
    to complex128.  They come from the eigenvectors of T^H T: squaring the
    conditioning costs digits the 50-digit default has to spare."""
    import mpmath

    with mpmath.workdps(dps):
        a, b = _shell_constants_mp(mpmath.mpf(tau))
        t_mat = _secular_matrix_mp(a, b, mpmath.mpf(omega), mpmath.mpf(lam))
        vals, vecs = mpmath.eighe(t_mat.H * t_mat)
        order = sorted(range(4), key=lambda j: vals[j])[:k]
        return np.array([[complex(vecs[i, j]) for i in range(4)]
                         for j in order])


def decoupled_arc_roots(omega: float, lo: float, hi: float) -> list[float]:
    """The spin-orbit roots in [lo, hi] of the limit |tau| -> 2, sorted, a
    root of both arcs listed twice.

    There b/a -> sgn(tau) and f_+- / a -> sin(pi mu) +- sgn(tau) cos phi,
    whose product vanishes where cos(pi mu + phi) cos(pi mu - phi) does:
    each arc on its own, the wedge arc at 2 omega mu = -omega +- pi/2 +
    2 pi k and the exterior arc at (2pi - 2 omega) mu = omega +- pi/2 +
    2 pi k, lambda = mu + 1/2.  Both read length * mu - phase = pi/2 + pi j.
    """
    roots = []
    for length, phase in ((2.0 * omega, -omega),
                          (2.0 * math.pi - 2.0 * omega, omega)):
        def lam(j):
            return (phase + math.pi / 2.0 + math.pi * j) / length + 0.5

        j = math.floor(((lo - 0.5) * length - phase) / math.pi) - 1
        while lam(j) <= hi:
            if lam(j) >= lo:
                roots.append(lam(j))
            j += 1
    return sorted(roots)


def weak_coupling_roots(tau: float, omega: float, lo: float,
                        hi: float) -> list[tuple[float, int]]:
    """The first-order spin-orbit roots (lambda, sector) in [lo, hi] as
    tau -> 0, sorted.

    At tau = 0 every lambda = k + 1/2 is a double root.  Near it
    f_s = a sin(pi mu) + s b cos phi, mu = lambda - 1/2, phi = (pi - 2 omega)
    mu - omega, reads a (-1)^k pi (mu - k) + s b cos phi_k to first order,
    so lambda_{k,s} = k + 1/2 - s (-1)^k (b/a) cos((pi - 2 omega) k - omega)
    / pi, with b/a from raw tau; the error is O(tau^2).
    """
    a, b = _ab(tau)
    roots = []
    for k in range(math.floor(lo) - 1, math.ceil(hi) + 1):
        split = (b / a) * math.cos((math.pi - 2.0 * omega) * k - omega)
        split /= math.pi
        for s in (-1, 1):
            lam = k + 0.5 - s * (-1) ** k * split
            if lo <= lam <= hi:
                roots.append((lam, s))
    return sorted(roots)


def full_grid_grid(lo: float, hi: float) -> np.ndarray:
    """The window scan's grid of [lo, hi]: 2000 points per unit and
    geometric tails 10^-4 .. 10^-12 of the width inside both edges."""
    n = int(np.ceil((hi - lo) * 2000)) + 1
    span = hi - lo
    tails = [edge for k in range(4, 13)
             for edge in (lo + 10.0 ** (-k) * span, hi - 10.0 ** (-k) * span)]
    return np.unique(np.concatenate([np.linspace(lo, hi, max(n, 16)),
                                     np.array(tails)]))


def _grid_scan(a: float, b: float, grid: np.ndarray, f_plus: np.ndarray,
               f_minus: np.ndarray, factor) -> list[tuple[float, tuple]]:
    """(lambda, sectors) of the |f_+ f_-|^2 minimum scan of f_+- given on
    ``grid``, sorted.  Each interior minimum refines its factor nearer 0
    (f_+ on a tie) with the package's ``_refine`` on ``factor(s b, r)``
    where that factor's grid values change sign across the minimum's two
    cells; roots within 1e-7 of the previous one are dropped, and a root
    whose other factor is within 1e-7 (|a| + |b|) of 0 is double, (-1, 1)."""
    from diracwedge.model import _refine

    vals = (f_plus * f_minus) ** 2
    mid = vals[1:-1]
    found = []
    for i in (np.flatnonzero((mid <= vals[:-2]) & (mid <= vals[2:])) + 1):
        s, f = ((-1, f_minus) if abs(f_minus[i]) < abs(f_plus[i])
                else (1, f_plus))
        r = 1.0 if f[i - 1] >= 0.0 else -1.0
        if r * f[i + 1] < 0.0:
            found.append((_refine(factor(s * b, r), float(grid[i - 1]),
                                  float(grid[i + 1])), s))
    roots = []
    for lam, s in sorted(found):
        if roots and lam - roots[-1][0] <= 1e-7:
            continue
        other = factor(-s * b, 1.0)(lam)[0]
        double = abs(other) <= 1e-7 * (abs(a) + abs(b))
        roots.append((lam, (-1, 1) if double else (s,)))
    return roots


def full_grid_window(p, lo: float, hi: float) -> list[tuple[float, tuple]]:
    """(lambda, sectors) of the window scan over the whole grid of [lo, hi],
    sorted, unfolded: compose it with ``fold_window``.

    This is the exactness reference of ``spectrum_in_window``, which skips
    the coarse cells that hold no root, not an independent route: it
    evaluates f_s = s b sin((pi - 2 omega) lambda) - a cos(pi lambda) at
    every grid point with the same float operations and refines with the
    package's ``_det_factor``, so a correct skip gives the same bits.
    """
    from diracwedge.model import derived_constants
    from diracwedge.spin_orbit import _det_factor

    dc, w = derived_constants(p), p.omega
    a, b = dc.a, dc.b
    grid = full_grid_grid(lo, hi)
    acos = a * np.cos(math.pi * grid)
    bsin = b * np.sin((math.pi - 2.0 * w) * grid)
    return _grid_scan(a, b, grid, bsin - acos, -bsin - acos,
                      lambda sb, r: _det_factor(a, sb, w, r))


def mu_form_grid_window(p, lo: float, hi: float) -> list[tuple[float, tuple]]:
    """(lambda, sectors) of the whole-grid scan of [lo, hi] itself, unfolded,
    with the factors in the mu-form f_s = a sin(pi mu) + s b cos phi,
    mu = lambda - 1/2, phi = (pi - 2 omega) mu - omega, on the grid and in
    the refinement: a float route that shares neither the fold nor the
    lambda-form with ``spectrum_in_window``, so its roots agree with the
    window's only to rounding."""
    from diracwedge.model import derived_constants

    dc, w = derived_constants(p), p.omega
    a, b = dc.a, dc.b
    c = math.pi - 2.0 * w

    def factor(sb, r):
        def fd(lam):
            mu = lam - 0.5
            phi = c * mu - w
            return (r * (a * math.sin(math.pi * mu) + sb * math.cos(phi)),
                    r * (a * math.pi * math.cos(math.pi * mu)
                         - sb * c * math.sin(phi)))
        return fd

    grid = full_grid_grid(lo, hi)
    mu = grid - 0.5
    asin = a * np.sin(math.pi * mu)
    bcos = b * np.cos(c * mu - w)
    return _grid_scan(a, b, grid, asin + bcos, asin - bcos, factor)


def fold_window(scan, p, lo: float, hi: float) -> list[tuple[float, tuple]]:
    """``scan(p, S_lo, S_hi)`` on the folded interval S = [lo, hi] if
    lo >= 0, [-hi, -lo] if hi <= 0 and [0, max(-lo, hi)] otherwise, with
    each root x reported as (x, sectors) if lo <= x <= hi and as
    (-x, negated sectors) if lo <= -x <= hi, sorted."""
    if lo >= 0.0:
        s_lo, s_hi = lo, hi
    elif hi <= 0.0:
        s_lo, s_hi = -hi, -lo
    else:
        s_lo, s_hi = 0.0, max(-lo, hi)
    out = []
    for lam, sectors in scan(p, s_lo, s_hi):
        if lo <= lam <= hi:
            out.append((lam, sectors))
        if lo <= -lam <= hi:
            out.append((-lam, tuple(sorted(-s for s in sectors))))
    return sorted(out)


def window_count_mp(tau: float, omega: float, lo: float, hi: float,
                    step: float = 1.0 / 4000.0, dps: int = 40) -> int:
    """Sign changes of f_+ and of f_- on the points lo, lo + step, ..., hi,
    counted together, with ``dps`` digits from raw tau: the number of
    roots in [lo, hi] with multiplicity, where no two roots of one factor
    lie within ``step`` of each other.  f_s = a sin(pi mu) + s b cos phi,
    mu = lambda - 1/2, phi = (pi - 2 omega) mu - omega, is the closed
    form of det T = 4 f_+ f_-, evaluated exactly at the float lo plus
    multiples of ``step``."""
    import mpmath

    with mpmath.workdps(dps):
        a, b = _shell_constants_mp(mpmath.mpf(tau))
        w = mpmath.mpf(omega)
        c = mpmath.pi - 2 * w
        start, h = mpmath.mpf(lo), mpmath.mpf(step)
        n = int(math.ceil((hi - lo) / step))
        count = 0
        prev = None
        for j in range(n + 1):
            mu = (start + j * h if j < n else mpmath.mpf(hi)) - mpmath.mpf(0.5)
            asin = a * mpmath.sin(mpmath.pi * mu)
            bcos = b * mpmath.cos(c * mu - w)
            signs = (asin + bcos > 0, asin - bcos > 0)
            if prev is not None:
                count += (signs[0] != prev[0]) + (signs[1] != prev[1])
            prev = signs
        return count


def angular_profile_at(p, lam: float, sector: int, theta: float) -> np.ndarray:
    """phi_lambda(theta), (2,) complex, from the SVD null space of the
    matching matrix T(lambda), for any finite theta.

    The null vector (A, B, C, D) is the one with B = sector i A (the
    reflection sector; a double root has a two-dimensional null space),
    scaled to unit L^2 norm over both arcs with A real and positive.  The
    wedge arc is cos theta >= cos omega, its boundary rays included to
    rounding: one float step of theta moves cos theta by up to
    ulp(theta) |sin theta|, so the cut allows four such steps besides
    4 eps, and the floats next to a ray many turns out stay on it.  theta
    is reduced through (cos theta, sin theta) by atan2 to (-pi, pi] on that
    arc and to (omega, 2 pi - omega) off it.
    """
    null = secular_null_space(p, lam)
    if len(null) == 1:
        v = null[0]
    else:
        n1, n2 = null[:2]
        v = ((n2[1] - sector * 1j * n2[0]) * n1
             - (n1[1] - sector * 1j * n1[0]) * n2)
    assert abs(v[1] - sector * 1j * v[0]) <= 1e-8 * np.linalg.norm(v)
    w = p.omega
    v = v * (abs(v[0]) / v[0])
    v = v / math.sqrt((abs(v[0]) ** 2 + abs(v[1]) ** 2) * 2.0 * w
                      + (abs(v[2]) ** 2 + abs(v[3]) ** 2)
                      * (2.0 * math.pi - 2.0 * w))
    mu = lam - 0.5
    t = math.atan2(math.sin(theta), math.cos(theta))
    slack = 4.0 * (np.finfo(float).eps
                   + math.ulp(theta) * abs(math.sin(theta)))
    if math.cos(theta) >= math.cos(w) - slack:
        first, second = v[0], v[1]
    else:
        first, second = v[2], v[3]
        t %= 2.0 * math.pi
    e = np.exp(1j * mu * t)
    return np.array([first * e, second / e])


# ---------------------------------------------------------------------------
# 1-D transverse comparison oracle
# ---------------------------------------------------------------------------

def _aux1d_lowest(tau: float, m: float, gamma: float, n_half: int) -> float:
    """Lowest eigenvalue of the P1 pencil of the width-2gamma form.

    Spinor P1 elements on [-gamma, gamma], node 0 duplicated, point jump
    (2m/tau)|f(0+)-f(0-)|^2, elimination f(0-) = (a I + b sigma_1) f(0+),
    free (natural) ends.  Mirrors the 2-D FEM constraint treatment.
    """
    h = gamma / n_half
    # node layout: 0..n_half-1 on (-gamma, 0) open, n_half = 0^- copy,
    # n_half+1 = 0^+ copy, n_half+2 .. 2n_half+1 on (0, gamma]
    nsc = 2 * n_half + 2
    left = np.concatenate([np.arange(n_half), n_half + 1 + np.arange(n_half)])
    ends = np.column_stack([left, left + 1])          # the 2 n_half cells
    rows = np.repeat(ends, 2, axis=1).ravel()
    cols = np.tile(ends, 2).ravel()

    def scalar(loc: np.ndarray) -> sp.csr_matrix:
        return sp.coo_matrix((np.tile(loc.ravel(), left.size), (rows, cols)),
                             shape=(nsc, nsc)).tocsr()

    stiff = scalar(np.array([[1.0, -1.0], [-1.0, 1.0]]) / h)
    mass = scalar(np.array([[h / 3.0, h / 6.0], [h / 6.0, h / 3.0]]))
    # point jump (2m/tau)|f(0+)-f(0-)|^2 between the duplicated zero nodes
    i_m, i_p = n_half, n_half + 1
    coef = 2.0 * m / tau
    jump = sp.coo_matrix((coef * np.array([1.0, -1.0, -1.0, 1.0]),
                          ([i_m, i_m, i_p, i_p], [i_m, i_p, i_m, i_p])),
                         shape=(nsc, nsc))
    eye2 = np.eye(2)
    a_full = sp.kron(stiff + m * m * mass + jump, eye2)
    b_full = sp.kron(mass, eye2)

    # keep every node but the 0^- copy (ends stay free, natural) and set
    # f(0-) = m1 f(0+)
    a_mat, b_mat = _ab(tau)
    m1 = a_mat * eye2 + b_mat * np.array([[0.0, 1.0], [1.0, 0.0]])
    kept = np.delete(np.arange(nsc), i_m)
    keep = sp.coo_matrix((np.ones(kept.size), (kept, np.arange(kept.size))),
                         shape=(nsc, kept.size))
    glue = sp.coo_matrix(([1.0], ([i_m], [i_p - 1])), shape=(nsc, kept.size))
    z = (sp.kron(keep, eye2) + sp.kron(glue, m1)).tocsr()

    a_red = (z.T @ a_full @ z).tocsr()
    a_red = (a_red + a_red.T) * 0.5
    b_red = (z.T @ b_full @ z).tocsr()

    vals = spla.eigsh(a_red, k=1, M=b_red, sigma=-10.0 * m * m - 1.0,
                      which="LM", return_eigenvectors=False)
    return float(vals[0])


def aux1d_ground_energy(tau: float, m: float, gamma: float,
                        n_half: int = 2000) -> float:
    """Richardson-extrapolated lowest eigenvalue (P1 converges at h^2)."""
    e1 = _aux1d_lowest(tau, m, gamma, n_half)
    e2 = _aux1d_lowest(tau, m, gamma, 2 * n_half)
    return (4.0 * e2 - e1) / 3.0


# ---------------------------------------------------------------------------
# complex FEM pencil in the physical spinor basis
# ---------------------------------------------------------------------------

def _p1_full_matrices(tau: float, m: float, mesh):
    """Dense scalar (stiffness + m^2 mass + shell jump, mass) on the mesh
    vertices, assembled triangle by triangle and ray edge by ray edge.

    On a triangle with doubled area D the barycentric gradients are
    (y_j - y_k, x_k - x_j) / D over the cyclic triples (i, j, k), and the
    P1 mass is (D/24) (1 + delta_ij).  The jump (2m/tau) int |u+ - u-|^2
    over a ray edge of length l is the edge mass (l/6) (1 + delta_ij) on
    the plus-minus differences at its two ends.
    """
    nv = mesh.n_vertices
    stiff = np.zeros((nv, nv))
    mass = np.zeros((nv, nv))
    for tri in mesh.triangles:
        (x0, y0), (x1, y1), (x2, y2) = mesh.vertices[tri]
        dbl = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        grads = [((y1 - y2) / dbl, (x2 - x1) / dbl),
                 ((y2 - y0) / dbl, (x0 - x2) / dbl),
                 ((y0 - y1) / dbl, (x1 - x0) / dbl)]
        for i, vi in enumerate(tri):
            for j, vj in enumerate(tri):
                gi, gj = grads[i], grads[j]
                stiff[vi, vj] += 0.5 * dbl * (gi[0] * gj[0] + gi[1] * gj[1])
                mass[vi, vj] += dbl / 24.0 * (2.0 if i == j else 1.0)
    jump = np.zeros((nv, nv))
    coef = 2.0 * m / tau
    for p0, p1, m0, m1 in mesh.interface_edges:
        length = math.dist(mesh.vertices[p0], mesh.vertices[p1])
        ends = ((p0, m0), (p1, m1))
        for i, (pi, mi) in enumerate(ends):
            for j, (pj, mj) in enumerate(ends):
                w = coef * length / 6.0 * (2.0 if i == j else 1.0)
                jump[pi, pj] += w
                jump[pi, mj] -= w
                jump[mi, pj] -= w
                jump[mi, mj] += w
    return stiff + m * m * mass + jump, mass


def fem_complex_pencil(tau: float, m: float, omega: float, mesh):
    """Reduced Hermitian pencil (Z* A Z, Z* B Z) with a complex Z.

    The full-space matrices come from ``_p1_full_matrices``, the same on
    both spinor components; the prolongation is rebuilt here in the
    physical spinor basis from raw-tau transmission matrices: u_minus =
    M u_plus on each ray, zero at the corner and on the outer boundary.
    """
    from diracwedge.fem.mesh import CORNER, SIDE_LEFT

    n = mesh.n_dofs
    a_scalar, b_scalar = _p1_full_matrices(tau, m, mesh)
    a_full, mass = np.kron(a_scalar, _I2), np.kron(b_scalar, _I2)

    m_l = _shell_matrix(tau, (-math.sin(omega), math.cos(omega)))
    m_r = _shell_matrix(tau, (-math.sin(omega), -math.cos(omega)))
    plus_of = {}       # minus copy -> (plus vertex, shell matrix)
    for (p0, p1, m0, m1), side in zip(mesh.interface_edges,
                                      mesh.interface_sides):
        mat = m_l if side == SIDE_LEFT else m_r
        for pv, mv in ((p0, m0), (p1, m1)):
            if mv != pv:
                plus_of[int(mv)] = (int(pv), mat)

    dead = set(np.flatnonzero(mesh.outer_boundary)) | {CORNER}
    kept = [v for v in range(mesh.n_vertices)
            if v not in dead and v not in plus_of]
    col = {v: i for i, v in enumerate(kept)}
    z = np.zeros((n, 2 * len(kept)), dtype=complex)
    for v in kept:
        z[2 * v: 2 * v + 2, 2 * col[v]: 2 * col[v] + 2] = _I2
    for mv, (pv, mat) in plus_of.items():
        if mv in dead or pv not in col:
            continue
        z[2 * mv: 2 * mv + 2, 2 * col[pv]: 2 * col[pv] + 2] = mat
    a_red = z.conj().T @ a_full @ z
    b_red = z.conj().T @ mass @ z
    return 0.5 * (a_red + a_red.conj().T), 0.5 * (b_red + b_red.conj().T)


# ---------------------------------------------------------------------------
# tensor quadrature of the explicit test-function energies
# ---------------------------------------------------------------------------

def _gl_cells(lo: float, hi: float, n_cells: int, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_cells + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def energy_pieces_quadrature(tau, m, omega, N, L, coeffs) -> dict:
    """jump/l2/gradx/grady by honest tensor quadrature of the raw fields."""
    coeffs = np.asarray(coeffs, dtype=complex)
    a, b = _ab(tau)
    kap = a * a + b * b
    c_t = (a - 1.0) ** 2 + b * b
    k0 = -4.0 * m * tau / (4.0 + tau * tau)
    t = math.tan(omega)
    d = L * t
    y_cut = 2.0 * d + 45.0 / k0

    xs, xw = _gl_cells(L, 2.0 * L, 24 * int(N), 12)
    ns = np.arange(1, int(N) + 1)
    args = 2.0 * np.pi * np.outer(ns, xs) / L
    f = (coeffs[:, None] * np.sin(args)).sum(axis=0)
    fp = (coeffs[:, None] * (2.0 * ns[:, None] * np.pi / L)
          * np.cos(args)).sum(axis=0)
    f2 = np.abs(f) ** 2
    fp2 = np.abs(fp) ** 2

    l2 = gx = gy = 0.0
    for xi, wi, f2i, fp2i in zip(xs, xw, f2, fp2):
        yt = xi * t
        pieces = [(0.0, yt, 1.0, 4), (yt, 2.0 * d, kap, 6),
                  (2.0 * d, y_cut, kap, 40)]
        for lo, hi, spin_w, n_cells in pieces:
            if hi <= lo:
                continue
            ys, yw = _gl_cells(lo, hi, n_cells, 16)
            g = np.where(ys <= 2.0 * d, 1.0, np.exp(-k0 * (ys - 2.0 * d)))
            gp2 = np.where(ys <= 2.0 * d, 0.0,
                           k0 * k0 * np.exp(-2.0 * k0 * (ys - 2.0 * d)))
            l2 += 2.0 * wi * f2i * spin_w * np.sum(yw * g * g)
            gx += 2.0 * wi * fp2i * spin_w * np.sum(yw * g * g)
            gy += 2.0 * wi * f2i * spin_w * np.sum(yw * gp2)

    g_on_ray = np.where(xs * t <= 2.0 * d, 1.0,
                        np.exp(-k0 * (xs * t - 2.0 * d)))
    jump = 2.0 * c_t / math.cos(omega) * float(
        np.sum(xw * f2 * g_on_ray ** 2))

    eps_sq = m * m - k0 * k0
    form_gap = gx + gy + (m * m - eps_sq) * float(l2) \
        + (2.0 * m / tau) * jump
    return {"jump_sq": jump, "l2_sq": float(l2), "gradx_sq": float(gx),
            "grady_sq": float(gy), "form_gap": form_gap}


# ---------------------------------------------------------------------------
# numeric maximization of the certificate angle over the strip length
# ---------------------------------------------------------------------------

def _bracket_angle(tau: float, m: float, N: int, L: float) -> float:
    """omega(L) that zeroes the bound-gap bracket

        tan(w) (3 + kappa)(2 N^2 pi^2 + m^2 L^2) + 4 m L tau / (4 + tau^2)
        + 2 N^2 pi^2 kappa / (L kappa0),

    with kappa and kappa0 rebuilt from raw tau."""
    a, b = _ab(tau)
    kap = a * a + b * b
    k0 = -4.0 * m * tau / (4.0 + tau * tau)
    n2pi2 = N * N * math.pi ** 2
    rest = 4.0 * m * L * tau / (4.0 + tau * tau) + 2.0 * n2pi2 * kap / (L * k0)
    return math.atan(-rest / ((3.0 + kap) * (2.0 * n2pi2 + m * m * L * L)))


def critical_angle_numeric(tau: float, m: float, N: int) -> tuple[float, float]:
    """(omega_star, L_star) by bounded Brent maximization of omega(L).

    A log-spaced scan brackets the maximum; Brent then pins L_star to the
    resolution a flat maximum allows in double precision (about 1e-8
    relative), which puts omega_star within roundoff of the true maximum.
    """
    ls = np.geomspace(1e-2, 1e6, 801) / m
    i = int(np.argmax([_bracket_angle(tau, m, N, L) for L in ls]))
    if not 0 < i < len(ls) - 1:
        raise ValueError(f"maximum of omega(L) not bracketed for tau={tau}")
    res = minimize_scalar(lambda L: -_bracket_angle(tau, m, N, L),
                          bounds=(ls[i - 1], ls[i + 1]), method="bounded",
                          options={"xatol": 1e-12 * ls[i]})
    return -float(res.fun), float(res.x)


def certificate_angles_mp(tau: float, N: int, ell_factor: float,
                          dps: int = 50) -> tuple[float, float, float]:
    """(omega_star, m L_star, omega(L) at m L = ell_factor * m L_star) with
    ``dps`` digits from raw tau, rounded to floats.

    omega_star and L_star come from the critical angle's closed form in the
    polynomials F, G, H of raw tau and the positive root x_star of its
    quadratic (m^2 L_star^2 H = F + x_star); omega(L) zeroes the bound-gap
    bracket with kappa and kappa0 rebuilt from raw tau.  ell_factor * m L_star
    is rounded to a float first, as a caller passing that L would round it.
    """
    import mpmath

    with mpmath.workdps(dps):
        t = mpmath.mpf(tau)
        plus, minus = 4 + t * t, 4 - t * t
        n2pi2 = N * N * mpmath.pi ** 2
        f = n2pi2 * plus ** 2 * (16 * t * t + plus ** 2)
        g = (minus ** 2 + plus ** 2) * 4 * abs(t) * plus
        h = 8 * t * t * minus ** 2
        a0 = n2pi2 * h + f / 2
        x = a0 + mpmath.sqrt(a0 * (a0 + 4 * f))
        tan_star = (x * h ** mpmath.mpf(1.5)
                    / (g * (2 * n2pi2 * h + f + x) * mpmath.sqrt(f + x)))
        ell_star = mpmath.sqrt((f + x) / h)

        ell = mpmath.mpf(float(ell_factor * float(ell_star)))
        kap = (plus ** 2 + 16 * t * t) / minus ** 2
        k0 = -4 * t / plus
        tan_ell = ((k0 * ell - 2 * n2pi2 * kap / (k0 * ell))
                   / ((3 + kap) * (2 * n2pi2 + ell * ell)))
        return (float(mpmath.atan(tan_star)), float(ell_star),
                float(mpmath.atan(tan_ell)))


# ---------------------------------------------------------------------------
# exact cutoff moments (rational arithmetic)
# ---------------------------------------------------------------------------

def chi_sq_moments() -> tuple[float, float, float]:
    """(int_0^1 chi^2 ds, int_0^1 chi^2 s ds, int_0^1 chi'^2 s ds) for the
    quintic cutoff, exact.

    chi = 1 on [0, 1/2]; chi(s) = 1 - S(2s - 1) beyond, with the smoothstep
    S(q) = 10 q^3 - 15 q^4 + 6 q^5.
    """
    def square(coeffs):
        sq = [Fraction(0)] * (2 * len(coeffs) - 1)
        for i, ci in enumerate(coeffs):
            for j, cj in enumerate(coeffs):
                sq[i + j] += ci * cj
        return sq

    def moments(sq):
        # (int_0^1 P dq, int_0^1 q P dq) of a polynomial in q
        return (sum(c / (k + 1) for k, c in enumerate(sq)),
                sum(c / (k + 2) for k, c in enumerate(sq)))

    # (1 - S)^2 and S'^2 as exact polynomial coefficients in q
    int_q, int_qq = moments(square([Fraction(1), Fraction(0), Fraction(0),
                                    Fraction(-10), Fraction(15),
                                    Fraction(-6)]))
    m0 = Fraction(1, 2) + Fraction(1, 2) * int_q
    # s = (q+1)/2, ds = dq/2 on the ramp
    m1 = Fraction(1, 8) + Fraction(1, 4) * (int_qq + int_q)
    # chi'(s) = -2 S'(q) vanishes on [0, 1/2]; chi'^2 s ds = S'^2 (q+1) dq
    dp_q, dp_qq = moments(square([Fraction(0), Fraction(0), Fraction(30),
                                  Fraction(-60), Fraction(30)]))
    m2 = dp_qq + dp_q                                             # 15/7
    return float(m0), float(m1), float(m2)
