"""Generalized eigensolves of the reduced pencil and gap-state counting.

Every mesh is conforming with a Dirichlet outer boundary, so each Ritz value
is an upper bound on its min-max value and the number of pencil eigenvalues
below the gap edge is a lower bound on the number of gap states.  That number
is the inertia (Sylvester) of one diagonal-pivot LDL^T factorization of
A - sB at s = edge (1 - 1e-6), checked against the Ritz values below s.

The mass is the unit: the broken line is a cone, so `count_bound_states`
solves at m = 1, where the pencil's scale is 1, and scales its report.

The two shifts take different factors.  Lanczos inverts A - sigma B at
sigma = -1e-2, below the spectrum, where it is positive definite.  If its
half-bandwidth bw has bw^2 <= 4n it is factored by band Cholesky
(LAPACK ``dpbtrf``) in the pencil's own numbering, and a factor that
succeeds proves sigma lies below the spectrum.  The strip is numbered
column by column (bw 106 on the thin wedge's 48 858 DOFs) and takes the
band, which factors and solves faster than SuperLU there.  The disk is
numbered ring by ring, its band would hold about 7 times SuperLU's fill,
and it keeps SuperLU.  The count's A - sB is indefinite, so it is always
SuperLU's LDL^T with diagonal pivots.  Each shift's matrix is formed once.

Neither factorization needs the other's result, so where ``os.fork`` exists
the count is factored in a forked child while this process runs Lanczos;
without ``os.fork`` the same function runs inline.  The overlap saves the
count's time, and the fork rather than a thread (SuperLU releases the GIL,
so a thread would overlap them as well) keeps the peak RSS of each process
below that of the inline run, while the two processes together hold more.
A k that Lanczos would refuse is refused before the fork.  Lanczos stops at
ARPACK ``tol`` 3e-11, and every eigenpair must still meet the residual cap
1e-8.  The measured times behind these choices are in the project's change
log.
"""

from __future__ import annotations

import inspect
import json
import os
import signal
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import lapack   # loaded by scipy.sparse.linalg already

from ..model import (FemSolveError, ParameterError, PhysParams,
                     derived_constants)
from .assembly import SymmetricPencil, assemble
from .mesh import Mesh, build_mesh, build_strip_mesh

__all__ = ["FemSolveError", "SpectralReport", "solve_lowest",
           "count_bound_states", "export_matrix_market"]

_RESIDUAL_CAP = 1e-8
_SHIFT = -1e-2   # Lanczos shift, below the spectrum
# ARPACK's stopping tolerance; residuals stay 1e-3 under _RESIDUAL_CAP on the
# test meshes (1e-10 left one at 6.8e-11)
_ARPACK_TOL = 3e-11
_FACTOR_RESIDUAL_CAP = 1e-10
_START_SEED = 0   # fixed Lanczos start and probe vectors: runs agree bit for bit
_MARGIN_REL = 1e-6
_THIN_WEDGE = 0.05
# Most bytes ARPACK's Lanczos basis may take.  scipy sizes it n x
# max(2k + 1, 20) float64 before it clips ncv to n, so k = 100000 on the
# thin-wedge strip (48 858 DOFs) asks for 35.6 GiB; the default k = 8 takes
# 7.8 MB there.
_MAX_BASIS_BYTES = 2 ** 30


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues of one pencil; ``pencil`` is that pencil, kept for export
    and left out of ``as_dict``."""

    eigenvalues: np.ndarray
    gap_edge: float | None
    margin: float
    count_below: int | None
    residuals: np.ndarray
    mesh_info: dict = field(default_factory=dict)
    pencil: SymmetricPencil | None = field(default=None, repr=False,
                                           compare=False)

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "gap_edge": self.gap_edge,
            "margin": self.margin,
            "count_below": self.count_below,
            "residuals": [float(x) for x in self.residuals],
            "mesh_info": _plain(self.mesh_info),
        }


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _factor(shifted, s: float):
    """SuperLU factor P C P^T = L U of the CSC matrix C = A - sB with
    diagonal pivots, so that U = D L^T and U's diagonal is the D of an
    LDL^T factorization.  SuperLU's own failure, such as an exactly
    singular factor, raises FemSolveError."""
    try:
        lu = spla.splu(shifted, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0, options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise FemSolveError(
            f"factor of A - sB at s = {s:.6g} failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FemSolveError(
            f"factor of A - sB at s = {s:.6g} left the diagonal: "
            f"{np.count_nonzero(lu.perm_r != lu.perm_c)} rows pivoted off it")
    return lu


def _shift_solver(pencil: SymmetricPencil, sigma: float):
    """Solve with c = A - sigma B for shift-invert Lanczos, sigma below the
    spectrum.  If c's half-bandwidth bw, the largest j - i over its entries,
    has bw^2 <= 4n (the strip, numbered column by column), the solve uses
    c's band Cholesky factor U^T U (LAPACK ``dpbtrf``/``dpbtrs``) in the
    pencil's own numbering, and a pivot that is not positive, so a sigma not
    below the spectrum, raises FemSolveError.  Otherwise (the disk, numbered
    ring by ring, whose band would hold several times SuperLU's fill) it
    uses `_factor`."""
    c = pencil.A - sigma * pencil.B   # CSR without duplicate entries
    n = c.shape[0]
    rows = np.repeat(np.arange(n), np.diff(c.indptr))
    bw = int((c.indices - rows).max())
    if bw * bw > 4 * n:
        return _factor(c.tocsc(), sigma).solve
    # upper band storage, band[bw + i - j, j] = c[i, j] for i <= j, in
    # Fortran order so that dpbtrf factors it in place, not in a copy
    band = np.zeros((bw + 1, n), order="F")
    upper = c.indices >= rows
    cols = c.indices[upper].astype(np.int64)
    band.reshape(-1, order="F")[rows[upper] + bw * (cols + 1)] = c.data[upper]
    del c, rows, upper, cols
    factor, info = lapack.dpbtrf(band, overwrite_ab=1)
    if info > 0:
        raise FemSolveError(
            f"A - sB at s = {sigma:.6g} is not positive definite: band "
            f"Cholesky pivot {info} of {n} is not positive")
    return lambda rhs: lapack.dpbtrs(factor, rhs)[0]


def _start_vector(n: int) -> np.ndarray:
    return np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, n)


def _check_k(k: int, n: int) -> None:
    """Refuse a k that Lanczos cannot serve on n DOFs: a k below 1 raises
    ValueError; one whose Lanczos basis, sized for at most n - 1 pairs,
    would exceed 1 GiB, or one of at least n, raises ParameterError."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    basis = 8 * n * max(2 * min(k, n - 1) + 1, 20)
    if basis > _MAX_BASIS_BYTES:
        raise ParameterError(
            f"k = {k} on {n} DOFs needs a Lanczos basis of "
            f"{basis / 2 ** 30:.3g} GiB ({basis} bytes), more than "
            f"{_MAX_BASIS_BYTES / 2 ** 30:g} GiB")
    if k >= n:
        raise ParameterError(f"k = {k} must be below the pencil's {n} DOFs")


def solve_lowest(pencil: SymmetricPencil, k: int) -> SpectralReport:
    """k lowest eigenpairs of A x = mu B x by shift-invert Lanczos.

    The shift -1e-2 lies below the spectrum, since the reduced A is positive
    semidefinite, and, on a pencil assembled at m = 1, close to its bottom,
    so Lanczos converges in few shift-invert solves.  A - sigma B is then
    positive definite, and `_shift_solver` picks its factor.  The start
    vector is drawn from ARPACK's own distribution, uniform on [-1, 1], but
    from a fixed seed, so the result does not depend on OS entropy.  ARPACK
    stops at ``tol`` 3e-11 rather than machine precision; the measured
    residuals ||A x - mu B x|| / ||B x|| must still be at most 1e-8, or the
    solve fails.  ARPACK's own failure raises FemSolveError.  `_check_k`
    refuses k.
    """
    n = pencil.n_reduced
    _check_k(k, n)
    op_inv = spla.LinearOperator(
        (n, n), matvec=_shift_solver(pencil, _SHIFT), dtype=np.float64)
    try:
        vals, vecs = spla.eigsh(pencil.A, k=k, M=pencil.B, sigma=_SHIFT,
                                which="LM", v0=_start_vector(n),
                                OPinv=op_inv, tol=_ARPACK_TOL)
    except spla.ArpackNoConvergence as exc:
        raise FemSolveError(
            f"eigensolver did not converge: {len(exc.eigenvalues)} of "
            f"{k} pairs found"
        ) from exc
    except spla.ArpackError as exc:
        raise FemSolveError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    bx = pencil.B @ vecs
    residuals = (np.linalg.norm(pencil.A @ vecs - bx * vals, axis=0)
                 / np.linalg.norm(bx, axis=0))
    if np.any(residuals > _RESIDUAL_CAP):
        raise FemSolveError(
            f"eigenpair residuals exceed {_RESIDUAL_CAP:g}: "
            f"{residuals.max():.3e}"
        )
    return SpectralReport(
        eigenvalues=vals, gap_edge=None, margin=0.0, count_below=None,
        residuals=residuals, mesh_info=dict(pencil.info), pencil=pencil,
    )


def _mesh_from_opts(p: PhysParams, mesh_opts: dict | None) -> Mesh:
    """The mesh ``mesh_opts`` asks ``count_bound_states`` for."""
    opts = dict(mesh_opts or {})
    kind = opts.pop("kind", "auto")
    if kind == "auto":
        kind = "strip" if p.omega < _THIN_WEDGE else "disk"
    if kind not in ("disk", "strip"):
        raise ValueError(f"unknown mesh kind {kind!r}: need 'auto', 'disk' "
                         "or 'strip'")
    # looked up by module-level name on every call, so a rebound name counts
    build = build_mesh if kind == "disk" else build_strip_mesh
    keys = list(inspect.signature(build).parameters)[1:]
    unknown = sorted(set(opts) - set(keys))
    if unknown:
        raise ValueError(f"unknown {kind} mesh options {unknown}: need "
                         f"'kind' or one of {keys}")
    return build(p, **opts)


def _inertia(pencil: SymmetricPencil, s: float) -> tuple[int, float]:
    """(number of pencil eigenvalues below s, relative residual of one solve
    with the factor): the negative pivots of the LDL^T factor of A - sB.

    Reading ``lu.U`` makes SuperLU build CSC copies of both L and U: on
    the thin wedge (tau = -1, omega = 3.2e-3, 4.32 M nonzeros in L and U)
    tracemalloc sees 52 MB.  This runs in the forked child, which peaks at
    154 MB against 136 MB for the parent, so it sets the peak RSS of a
    thin-wedge count; a count that reads the pivots without ``lu.U``
    would lower it."""
    lu = _factor((pencil.A - s * pencil.B).tocsc(), s)
    count = int(np.count_nonzero(lu.U.diagonal() < 0.0))
    rhs = _start_vector(pencil.n_reduced)
    x = lu.solve(rhs)
    resid = (np.linalg.norm(pencil.A @ x - s * (pencil.B @ x) - rhs)
             / np.linalg.norm(rhs))
    return count, float(resid)


def _inertia_child(pencil: SymmetricPencil, s: float, fd: int):
    """Body of the forked child: write ``_inertia`` or its error as JSON to
    ``fd`` and leave by ``os._exit`` (status 0 only once the message is
    written), so no inherited stdio buffer is flushed twice and no atexit
    handler or caller frame of the parent's runs here."""
    status = 1
    try:
        try:
            msg = {"inertia": _inertia(pencil, s)}
        except FemSolveError as exc:
            msg = {"error": str(exc)}
        except BaseException as exc:
            msg = {"error": f"inertia count at s = {s:.6g} failed: {exc!r}"}
        data = json.dumps(msg).encode()
        while data:
            data = data[os.write(fd, data):]
        status = 0
    finally:
        os._exit(status)


def _solve_and_count(pencil: SymmetricPencil, k: int,
                     s: float) -> tuple[SpectralReport, tuple[int, float]]:
    """``solve_lowest(pencil, k)`` and ``_inertia(pencil, s)``, the latter in
    a forked child while this process runs Lanczos.  An error of
    ``solve_lowest`` wins over the child's, which is then killed; the child
    is reaped on every path."""
    if not hasattr(os, "fork"):
        return solve_lowest(pencil, k), _inertia(pencil, s)
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _inertia_child(pencil, s, wfd)
    os.close(wfd)
    data = None
    with os.fdopen(rfd, "rb") as reader:
        try:
            rep = solve_lowest(pencil, k)
            data = reader.read()
        finally:
            if data is None:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
    if status != 0:
        code = os.waitstatus_to_exitcode(status)
        how = f"exit code {code}" if code >= 0 else f"signal {-code}"
        raise FemSolveError(
            f"inertia count at s = {s:.6g}: child process ended without a "
            f"result (wait status {status}, {how})")
    msg = json.loads(data)
    if "error" in msg:
        raise FemSolveError(msg["error"])
    return rep, tuple(msg["inertia"])


def count_bound_states(p: PhysParams, mesh_opts: dict | None = None,
                       k: int = 8) -> SpectralReport:
    """Count the pencil's eigenvalues below eps_tau^2 (1 - 1e-6) by inertia.

    ``mesh_opts`` picks the mesh: ``kind`` is "disk", "strip" or "auto"
    (the default: a strip for omega < 0.05, else a disk), and the other keys
    are keyword arguments of `build_mesh` or `build_strip_mesh`, whose
    defaults fill in the rest.  An unknown kind or key raises ValueError.

    The dilation x -> x/m maps the operator of mass m unitarily onto m times
    the operator of mass 1.  So the length options R, h, x_max and width are
    multiplied by m, and the mesh is built, solved and counted at m = 1;
    only the report depends on m.  Its eigenvalues are the Ritz values times
    m^2, which underflow to 0 below m of about 1e-154, and its ``gap_edge``
    and ``margin`` are those of ``p``.  Its ``mesh_info`` and pencil
    describe the m = 1 problem, with lengths in units of 1/m.

    The count is a lower bound (up to roundoff) on the number of gap states
    and does not depend on ``k``, which sets only how many of the lowest
    eigenvalues are reported.  A k that `_check_k` refuses raises before
    the count's factorization starts.
    """
    edge = derived_constants(p).eps_tau_sq
    unit = PhysParams(p.tau, 1.0, p.omega)
    unit_edge = derived_constants(unit).eps_tau_sq
    s = unit_edge - _MARGIN_REL * unit_edge
    opts = {key: value * p.m
            if key in ("R", "h", "x_max", "width") and value is not None
            else value for key, value in (mesh_opts or {}).items()}

    pencil = assemble(unit, _mesh_from_opts(unit, opts))
    _check_k(k, pencil.n_reduced)   # a refused k starts no child
    rep, (count, resid) = _solve_and_count(pencil, k, s)
    if resid > _FACTOR_RESIDUAL_CAP:
        raise FemSolveError(f"factor of A - sB at s = {s:.6g}: relative "
                            f"residual {resid:.3e} > {_FACTOR_RESIDUAL_CAP:g}")
    ritz = int(np.count_nonzero(rep.eigenvalues < s))
    if ritz != min(count, rep.eigenvalues.size):
        raise FemSolveError(
            f"inertia count {count} disagrees with {ritz} of "
            f"{rep.eigenvalues.size} Ritz values below s = {s:.6g}")

    with np.errstate(over="ignore"):   # inf from m of about 1e154 on
        return replace(rep, eigenvalues=rep.eigenvalues * (p.m * p.m),
                       gap_edge=edge, margin=_MARGIN_REL * edge,
                       count_below=count)


def export_matrix_market(pencil: SymmetricPencil, prefix: str) -> list[str]:
    """Write A and B in coordinate real symmetric Matrix Market format.

    Both matrices are real symmetric (float64) in the rotated spinor basis
    the solver uses; files are ``{prefix}_A.mtx`` and ``{prefix}_B.mtx``.
    """
    from scipy.io import mmwrite   # only an export pays for scipy.io

    paths = []
    for name, mat in (("A", pencil.A), ("B", pencil.B)):
        path = f"{prefix}_{name}.mtx"
        # opened here: mmwrite given a path in a missing directory writes
        # nothing and raises nothing, while open raises OSError
        with open(path, "wb") as fh:
            mmwrite(fh, mat.tocoo(), field="real", symmetry="symmetric",
                    precision=17)
        paths.append(path)
    return paths
