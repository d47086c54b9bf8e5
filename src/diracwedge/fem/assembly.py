"""P1 spinor finite elements for the shell-coupled quadratic form.

The full form on the duplicated-DOF space is

    ||grad u||^2 + m^2 ||u||^2 + (2m/tau) ||u_plus - u_minus||^2 on the rays,

all pieces real symmetric.  The transmission constraint u_minus = M u_plus
is imposed by elimination through a sparse prolongation Z, so the reduced
pencil (Z* A Z, Z* B Z) inherits the form identities exactly: positivity,
and for tau > 0 the lower bound by m^2 times the mass.
Constrained discrete functions satisfy the trace relation pointwise along
every ray edge (linear traces, constant M per ray), hence lie in the form
domain, and Dirichlet Ritz values are upper bounds for the min-max values.

M is complex, but the pencil need not be.  M commutes with the charge
conjugation C u = sigma_1 conj(u), and the constant spinor rotation
U = [[1, i], [1, -i]]/sqrt(2) satisfies sigma_1 conj(U) = U, so in the
coordinates w = U* u the conjugation is plain complex conjugation and the
rotated transmission matrices U* M U are real.  Every other piece of the
form acts on both spinor components alike and is unchanged by U.  Z is
therefore built from U* M U in rotated coordinates, and the reduced pencil
is real symmetric and unitarily equivalent to the one in the physical basis:
(I x U) Z maps its coordinates to physical spinor values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..model import ParameterError, PhysParams, interface_matrices
from .mesh import CORNER, SIDE_LEFT, SIDE_RIGHT, Mesh

__all__ = ["SymmetricPencil", "assemble"]

# sigma_1 conj(_U) = _U: rotates charge conjugation to complex conjugation
_U = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class SymmetricPencil:
    A: sp.csr_matrix              # reduced stiffness + mass + shell term,
                                  # real symmetric float64
    B: sp.csr_matrix              # reduced mass, real symmetric positive
                                  # definite float64
    info: dict = field(default_factory=dict)

    @property
    def n_reduced(self) -> int:
        return self.A.shape[0]


def _scalar_element_matrices(mesh: Mesh):
    v = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    # P1 gradient coefficients: grad phi_i = (b_i, c_i)
    b = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1],
                  p0[:, 1] - p1[:, 1]], axis=1) / (2.0 * area)[:, None]
    c = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0],
                  p1[:, 0] - p0[:, 0]], axis=1) / (2.0 * area)[:, None]
    k_loc = area[:, None, None] * (b[:, :, None] * b[:, None, :]
                                   + c[:, :, None] * c[:, None, :])
    m_loc = (area / 12.0)[:, None, None] * (np.ones((3, 3)) + np.eye(3))
    return k_loc, m_loc


def _scatter(tris: np.ndarray, loc: np.ndarray, n: int) -> sp.csr_matrix:
    rows = np.broadcast_to(tris[:, :, None], loc.shape)
    cols = np.broadcast_to(tris[:, None, :], loc.shape)
    return sp.coo_matrix((loc.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n, n)).tocsr()


# node order (p0, p1, m0, m1) of an interface edge: the edge mass
# (len/6) [[2, 1], [1, 2]] with the plus/minus difference pattern
_JUMP_PATTERN = np.array([
    [2.0, 1.0, -2.0, -1.0],
    [1.0, 2.0, -1.0, -2.0],
    [-2.0, -1.0, 2.0, 1.0],
    [-1.0, -2.0, 1.0, 2.0],
])


def _full_matrices(p: PhysParams, mesh: Mesh):
    """(A, B) on the duplicated-DOF space: stiffness + m^2 mass + shell jump,
    and mass.  Both spinor components see the same scalar matrices, so these
    are scattered on vertex indices and lifted by kron(., I_2)."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        k_loc, m_loc = _scalar_element_matrices(mesh)
    if not (np.isfinite(k_loc).all() and np.isfinite(m_loc).all()):
        raise ParameterError(
            "the element matrices of this mesh are not finite: its "
            "triangles are too small or too large for float64")
    edges = mesh.interface_edges
    v = mesh.vertices
    length = np.hypot(*(v[edges[:, 1]] - v[edges[:, 0]]).T)
    coef = 2.0 * p.m / p.tau
    jump = (coef * length / 6.0)[:, None, None] * _JUMP_PATTERN
    nv = mesh.n_vertices
    eye = sp.identity(2, format="csr")
    a = (_scatter(mesh.triangles, k_loc + p.m ** 2 * m_loc, nv)
         + _scatter(edges, jump, nv))
    return (sp.kron(a, eye, format="csr"),
            sp.kron(_scatter(mesh.triangles, m_loc, nv), eye, format="csr"))


def _prolongation(p: PhysParams, mesh: Mesh) -> sp.csr_matrix:
    """Real prolongation from reduced to full DOFs in rotated coordinates.

    Free vertices (neither Dirichlet, nor the corner, nor a minus copy) are
    numbered in vertex order; a minus copy takes U* M U of its ray times the
    reduced DOFs of its plus copy, and vanishes when that plus copy does.
    """
    m_l, m_r = interface_matrices(p)
    side_mat = np.empty((2, 2, 2))
    for side, m in ((SIDE_LEFT, m_l), (SIDE_RIGHT, m_r)):
        side_mat[side] = (_U.conj().T @ m @ _U).real

    # plus copy and ray of every vertex; the identity off the rays
    nv = mesh.n_vertices
    edges = mesh.interface_edges
    ends = np.concatenate([edges[:, [0, 2]], edges[:, [1, 3]]])
    plus_of = np.arange(nv)
    plus_of[ends[:, 1]] = ends[:, 0]
    side_of = np.zeros(nv, dtype=np.int64)
    side_of[ends[:, 1]] = np.tile(mesh.interface_sides, 2)
    is_minus = plus_of != np.arange(nv)
    dead = mesh.outer_boundary.copy()
    dead[CORNER] = True
    free = ~dead & ~is_minus
    col_of = np.cumsum(free) - 1

    # one 2x2 block per row vertex: the identity at a free vertex, U* M U
    # at a minus copy of a free plus vertex; every other row is zero
    vtx = np.flatnonzero(~dead & free[plus_of])
    blocks = np.where(is_minus[vtx, None, None], side_mat[side_of[vtx]],
                      np.eye(2))
    comp = np.arange(2)
    rows = np.broadcast_to((2 * vtx[:, None] + comp)[:, :, None], blocks.shape)
    cols = np.broadcast_to((2 * col_of[plus_of[vtx]][:, None] + comp)[:, None],
                           blocks.shape)
    nz = blocks != 0.0
    z = sp.coo_matrix((blocks[nz], (rows[nz], cols[nz])),
                      shape=(mesh.n_dofs, 2 * np.count_nonzero(free)))
    return z.tocsr()


def assemble(p: PhysParams, mesh: Mesh) -> SymmetricPencil:
    """Reduced pencil (A, B) of the form on the given mesh, real symmetric
    in the rotated spinor basis.

    A = Z^T (stiffness + m^2 mass + shell jump) Z and B = Z^T mass Z, with Z
    from `_prolongation`.  ``info`` holds the mesh info, tau, m, omega and
    the full and reduced sizes.
    """
    a_full, b_full = _full_matrices(p, mesh)
    z = _prolongation(p, mesh)
    a_red = (z.T @ a_full @ z).tocsr()
    b_red = (z.T @ b_full @ z).tocsr()
    a_red = ((a_red + a_red.T) * 0.5).tocsr()
    b_red = ((b_red + b_red.T) * 0.5).tocsr()

    info = dict(mesh.info)
    info.update({
        "tau": p.tau, "m": p.m, "omega": p.omega,
        "n_full": mesh.n_dofs, "n_reduced": a_red.shape[0],
        "n_triangles": int(mesh.triangles.shape[0]),
    })
    return SymmetricPencil(A=a_red, B=b_red, info=info)
