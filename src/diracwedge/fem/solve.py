"""Generalized eigensolves of the reduced pencil and gap-state counting.

Dirichlet Ritz values are upper bounds for the min-max values of the
underlying form, so counting Ritz values below the gap edge minus a margin
never overcounts the true number of gap states.  The margin comes from a
two-mesh Richardson comparison (P1 eigenvalues converge at second order;
5x the extrapolated error is a generous safety factor), floored at
1e-6 times the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from ..model import PhysParams, derived_constants
from ..variational import critical_angle_maximize
from .assembly import HermitianPencil, assemble
from .mesh import Mesh, build_mesh, build_strip_mesh

__all__ = ["FemSolveError", "SpectralReport", "solve_lowest",
           "count_bound_states", "export_matrix_market"]

_RESIDUAL_CAP = 1e-8
_START_SEED = 0   # fixed Lanczos start vector: repeated runs agree bit for bit
_MARGIN_FLOOR_REL = 1e-6
_THIN_WEDGE = 0.05


class FemSolveError(RuntimeError):
    """Eigensolver breakdown or non-convergence (residuals in the message)."""


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
    pencil: HermitianPencil | None = field(default=None, repr=False,
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
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def solve_lowest(pencil: HermitianPencil, k: int,
                 sigma: float | None = None) -> SpectralReport:
    """k lowest eigenpairs of A x = mu B x by shift-invert Lanczos.

    The shift defaults to -1e-2 m^2, just below zero on the gap scale m^2:
    the reduced A is positive semidefinite (it is the squared-operator
    form), so any negative shift sits below the spectrum and keeps
    A - sigma B factorizable, and a shift close to the lowest eigenvalues
    lets Lanczos converge in few shift-invert solves.  The default reads m
    from ``pencil.info``, which `assemble` fills in; pass ``sigma`` for a
    pencil built by other means.  The start vector is drawn from ARPACK's
    own distribution, uniform on [-1, 1], but from a fixed seed, so the
    result does not depend on OS entropy.
    """
    a, b = pencil.A.tocsc(), pencil.B.tocsc()
    n = a.shape[0]
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k_eff = min(int(k), n - 1)
    if sigma is None:
        sigma = -1e-2 * pencil.info["m"] ** 2
    v0 = np.random.default_rng(_START_SEED).uniform(-1.0, 1.0, n)
    try:
        vals, vecs = spla.eigsh(a, k=k_eff, M=b, sigma=sigma, which="LM",
                                v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise FemSolveError(
            f"eigensolver did not converge: {len(exc.eigenvalues)} of "
            f"{k_eff} pairs found"
        ) from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    residuals = np.empty(k_eff)
    for i in range(k_eff):
        x = vecs[:, i]
        bx = b @ x
        residuals[i] = (np.linalg.norm(a @ x - vals[i] * bx)
                        / np.linalg.norm(bx))
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
               "width", "outer_grading", "N"}


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
        n_modes = int(opts.pop("N", 1))
        if "x_max" not in opts:
            _, l_star = critical_angle_maximize(p, n_modes)
            opts["x_max"] = 3.0 * l_star
        opts.setdefault("nx", 480)
        opts.setdefault("wedge_rows", 8)
        opts.setdefault("outer_rows", 18)
        opts.setdefault("width", 5.0 / abs(derived_constants(p).kappa0))
        opts.setdefault("outer_grading", 1.7)
    return opts


def _build_from_opts(p: PhysParams, opts: dict, coarse: bool) -> Mesh:
    if opts["kind"] == "disk":
        h = opts["h"]
        if coarse:
            h = min(2.0 * h, 0.9 * p.omega * opts["R"])
        return build_mesh(p, R=opts["R"], h=h, grading=opts["grading"])
    nx = opts["nx"] // 2 if coarse else opts["nx"]
    kw = max(1, opts["wedge_rows"] // 2) if coarse else opts["wedge_rows"]
    nout = max(2, opts["outer_rows"] // 2) if coarse else opts["outer_rows"]
    return build_strip_mesh(
        p, x_max=opts["x_max"], nx=max(2, nx), wedge_rows=kw,
        outer_rows=nout, width=opts["width"],
        outer_grading=opts["outer_grading"],
    )


def count_bound_states(p: PhysParams, mesh_opts: dict | None = None,
                       k: int = 8) -> SpectralReport:
    """Count Ritz values below eps_tau^2 minus a two-mesh safety margin.

    With Dirichlet truncation every counted Ritz vector extends by zero to
    a form-domain function, so the count is a lower bound (up to roundoff)
    on the number of gap states of the squared operator.  The report
    carries the fine pencil the count comes from.
    """
    opts = _resolve_mesh_opts(p, mesh_opts)
    edge = derived_constants(p).eps_tau ** 2

    fine = solve_lowest(assemble(p, _build_from_opts(p, opts, coarse=False)), k)
    coarse = solve_lowest(assemble(p, _build_from_opts(p, opts, coarse=True)), k)

    floor = _MARGIN_FLOOR_REL * edge
    margin = floor
    n_cmp = min(fine.eigenvalues.size, coarse.eigenvalues.size)
    for i in range(n_cmp):
        if fine.eigenvalues[i] < edge:
            margin = max(margin, 5.0 / 3.0 * abs(fine.eigenvalues[i]
                                                 - coarse.eigenvalues[i]))
    count = int(np.sum(fine.eigenvalues < edge - margin))

    info = dict(fine.mesh_info)
    info["coarse_eigenvalues"] = [float(x) for x in coarse.eigenvalues]
    info["mesh_opts"] = dict(opts)
    return SpectralReport(
        eigenvalues=fine.eigenvalues, gap_edge=edge, margin=float(margin),
        count_below=count, residuals=fine.residuals, mesh_info=info,
        pencil=fine.pencil,
    )


def export_matrix_market(pencil: HermitianPencil, prefix: str) -> list[str]:
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
