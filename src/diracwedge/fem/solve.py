"""Generalized eigensolves of the reduced pencil and gap-state counting.

Every mesh is conforming with a Dirichlet outer boundary, so each Ritz value
is an upper bound on its min-max value and the number of pencil eigenvalues
below the gap edge is a lower bound on the number of gap states.  That number
is the inertia (Sylvester) of one diagonal-pivot LDL^T factorization of
A - sB at s = edge (1 - 1e-6), checked against the Ritz values below s.

Neither that factorization nor Lanczos needs the other's result, so where
``os.fork`` exists the count is factored in a forked child while this process
runs Lanczos (SuperLU holds the GIL, so threads would take turns); without
``os.fork`` the same function runs inline.  Lanczos stops at ARPACK
``tol`` 3e-11, and every eigenpair must still meet the residual cap 1e-8.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from ..model import PhysParams, derived_constants
from ..variational import critical_angle_maximize
from .assembly import SymmetricPencil, assemble
from .mesh import Mesh, build_mesh, build_strip_mesh

__all__ = ["FemSolveError", "SpectralReport", "solve_lowest",
           "count_bound_states", "export_matrix_market"]

_RESIDUAL_CAP = 1e-8
# ARPACK's stopping tolerance; residuals stay 1e-3 under _RESIDUAL_CAP on the
# test meshes (1e-10 left one at 6.8e-11)
_ARPACK_TOL = 3e-11
_FACTOR_RESIDUAL_CAP = 1e-10
_START_SEED = 0   # fixed Lanczos start and probe vectors: runs agree bit for bit
_MARGIN_REL = 1e-6
_THIN_WEDGE = 0.05


class FemSolveError(RuntimeError):
    """Eigensolver or inertia-count failure (measured values in the message)."""


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


def _factor(pencil: SymmetricPencil, s: float):
    """SuperLU factor P (A - sB) P^T = L U with diagonal pivots, so that
    U = D L^T and U's diagonal is the D of an LDL^T factorization."""
    lu = spla.splu((pencil.A - s * pencil.B).tocsc(),
                   permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FemSolveError(
            f"factor of A - sB at s = {s:.6g} left the diagonal: "
            f"{np.count_nonzero(lu.perm_r != lu.perm_c)} rows pivoted off it")
    return lu


def _start_vector(n: int) -> np.ndarray:
    return np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, n)


def solve_lowest(pencil: SymmetricPencil, k: int) -> SpectralReport:
    """k lowest eigenpairs of A x = mu B x by shift-invert Lanczos.

    The shift -1e-2 m^2 (m from ``pencil.info``, which `assemble` fills in)
    lies below the spectrum, since the reduced A is positive semidefinite,
    and close to its bottom, so Lanczos converges in few shift-invert solves.
    The start vector is drawn from ARPACK's own distribution, uniform on
    [-1, 1], but from a fixed seed, so the result does not depend on OS
    entropy.  ARPACK stops at ``tol`` 3e-11 rather than machine precision;
    the measured residuals ||A x - mu B x|| / ||B x|| must still be at most
    1e-8, or the solve fails.
    """
    a, b = pencil.A.tocsc(), pencil.B.tocsc()
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k_eff = min(int(k), n - 1)
    sigma = -1e-2 * pencil.info["m"] ** 2
    lu = _factor(pencil, sigma)
    op_inv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    try:
        vals, vecs = spla.eigsh(a, k=k_eff, M=b, sigma=sigma, which="LM",
                                v0=_start_vector(n), OPinv=op_inv,
                                tol=_ARPACK_TOL)
    except spla.ArpackNoConvergence as exc:
        raise FemSolveError(
            f"eigensolver did not converge: {len(exc.eigenvalues)} of "
            f"{k_eff} pairs found"
        ) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    bx = b @ vecs
    residuals = (np.linalg.norm(a @ vecs - bx * vals, axis=0)
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


_DISK_KEYS = {"kind", "R", "h", "grading"}
_STRIP_KEYS = {"kind", "x_max", "nx", "wedge_rows", "outer_rows",
               "width", "outer_grading"}


def _resolve_mesh_opts(p: PhysParams, mesh_opts: dict | None) -> dict:
    opts = dict(mesh_opts or {})
    kind = opts.get("kind", "auto")
    if kind == "auto":
        kind = "strip" if p.omega < _THIN_WEDGE else "disk"
        opts["kind"] = kind
    allowed = _DISK_KEYS if kind == "disk" else _STRIP_KEYS
    unknown = set(opts) - allowed
    if unknown:
        raise ValueError(f"unknown mesh options: {sorted(unknown)}")
    if kind == "disk":
        opts.setdefault("R", 10.0)
        opts.setdefault("h", 0.35)
        opts.setdefault("grading", 2.0)
    else:
        if "x_max" not in opts:
            _, l_star = critical_angle_maximize(p, 1)
            opts["x_max"] = 3.0 * l_star
        opts.setdefault("nx", 480)
        opts.setdefault("wedge_rows", 8)
        opts.setdefault("outer_rows", 18)
        opts.setdefault("width", 5.0 / abs(derived_constants(p).kappa0))
        opts.setdefault("outer_grading", 1.7)
    return opts


def _build_from_opts(p: PhysParams, opts: dict) -> Mesh:
    if opts["kind"] == "disk":
        return build_mesh(p, R=opts["R"], h=opts["h"], grading=opts["grading"])
    return build_strip_mesh(
        p, x_max=opts["x_max"], nx=opts["nx"], wedge_rows=opts["wedge_rows"],
        outer_rows=opts["outer_rows"], width=opts["width"],
        outer_grading=opts["outer_grading"],
    )


def _inertia(pencil: SymmetricPencil, s: float) -> tuple[int, float]:
    """(number of pencil eigenvalues below s, relative residual of one solve
    with the factor): the negative pivots of the LDL^T factor of A - sB."""
    lu = _factor(pencil, s)
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

    The count is a lower bound (up to roundoff) on the number of gap states
    and does not depend on ``k``, which sets only how many of the lowest
    eigenvalues are reported.  The report carries the counted pencil.  The
    count's factorization runs in a forked child while Lanczos runs here,
    or inline after it where ``os.fork`` does not exist.
    """
    opts = _resolve_mesh_opts(p, mesh_opts)
    edge = derived_constants(p).eps_tau ** 2
    margin = _MARGIN_REL * edge
    s = edge - margin

    pencil = assemble(p, _build_from_opts(p, opts))
    rep, (count, resid) = _solve_and_count(pencil, k, s)
    if resid > _FACTOR_RESIDUAL_CAP:
        raise FemSolveError(f"factor of A - sB at s = {s:.6g}: relative "
                            f"residual {resid:.3e} > {_FACTOR_RESIDUAL_CAP:g}")
    ritz = int(np.count_nonzero(rep.eigenvalues < s))
    if ritz != min(count, rep.eigenvalues.size):
        raise FemSolveError(
            f"inertia count {count} disagrees with {ritz} of "
            f"{rep.eigenvalues.size} Ritz values below s = {s:.6g}")

    info = dict(rep.mesh_info)
    info["mesh_opts"] = dict(opts)
    return SpectralReport(
        eigenvalues=rep.eigenvalues, gap_edge=edge, margin=float(margin),
        count_below=count, residuals=rep.residuals, mesh_info=info,
        pencil=pencil,
    )


def export_matrix_market(pencil: SymmetricPencil, prefix: str) -> list[str]:
    """Write A and B in coordinate real symmetric Matrix Market format.

    Both matrices are real symmetric (float64) in the rotated spinor basis
    the solver uses; files are ``{prefix}_A.mtx`` and ``{prefix}_B.mtx``.
    """
    from scipy.io import mmwrite   # only an export pays for scipy.io

    paths = []
    for name, mat in (("A", pencil.A), ("B", pencil.B)):
        path = f"{prefix}_{name}.mtx"
        mmwrite(path, mat.tocoo(), field="real", symmetry="symmetric",
                precision=17)
        paths.append(path)
    return paths
