"""Discrete form assembly: hermiticity, constraints, conjugation symmetry."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from diracwedge.fem import assemble, build_mesh, build_strip_mesh
from diracwedge.fem.assembly import _U, _prolongation
from diracwedge.fem.mesh import CORNER
from diracwedge.model import PhysParams, interface_matrices, pauli
from oracles import fem_complex_pencil

RNG = np.random.default_rng(41)

P_ATTR = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
P_REP = PhysParams(tau=1.0, m=1.0, omega=math.pi / 4.0)


@pytest.fixture(scope="module")
def mesh():
    return build_mesh(P_ATTR, R=8.0, h=0.6)


def dof_map(p, mesh):
    """(I x U) Z: reduced coordinates to physical spinor values."""
    z = _prolongation(p, mesh)
    return (sp.kron(sp.identity(mesh.n_vertices), _U) @ z).tocsr()


def test_pencil_shapes_and_hermiticity(mesh):
    pencil = assemble(P_ATTR, mesh)
    n = pencil.n_reduced
    assert pencil.A.shape == (n, n)
    assert pencil.B.shape == (n, n)
    assert dof_map(P_ATTR, mesh).shape == (mesh.n_dofs, n)
    assert n < mesh.n_dofs
    for mat in (pencil.A, pencil.B):
        assert sp.issparse(mat)
        diff = (mat - mat.conj().T).tocoo()
        top = np.max(np.abs(diff.data)) if diff.nnz else 0.0
        assert top <= 1e-14


def test_mass_matrix_positive(mesh):
    pencil = assemble(P_ATTR, mesh)
    low = spla.eigsh(pencil.B, k=1, which="SA", return_eigenvectors=False)
    assert low[0] > 0.0


def test_constraint_columns_encode_transmission(mesh):
    """dof_map reproduces u_minus = M u_plus along the interface."""
    z = dof_map(P_ATTR, mesh)
    x = RNG.standard_normal(z.shape[1]) + 1j * RNG.standard_normal(z.shape[1])
    u = z @ x
    m_by_side = interface_matrices(P_ATTR)
    for (p0, p1, m0, m1), side in zip(mesh.interface_edges,
                                      mesh.interface_sides):
        m_mat = m_by_side[side]
        for pv, mv in ((p0, m0), (p1, m1)):
            if pv == CORNER or mv == CORNER:
                continue
            up = u[2 * pv: 2 * pv + 2]
            um = u[2 * mv: 2 * mv + 2]
            np.testing.assert_allclose(um, m_mat @ up, atol=1e-12)
    # corner and Dirichlet boundary dofs vanish
    np.testing.assert_allclose(u[2 * CORNER: 2 * CORNER + 2], 0.0, atol=0.0)
    for i in np.flatnonzero(mesh.outer_boundary):
        np.testing.assert_allclose(u[2 * i: 2 * i + 2], 0.0, atol=0.0)


def test_repulsive_form_dominates_mass(mesh):
    # x* A x >= m^2 x* B x is exact for tau > 0 on the constrained space
    pencil = assemble(P_REP, mesh)
    vals = spla.eigsh(pencil.A, k=3, M=pencil.B, sigma=0.9,
                      which="LM", return_eigenvectors=False)
    assert np.min(vals) >= P_REP.m ** 2 - 1e-10


def test_charge_conjugation_preserves_form_value(mesh):
    """sigma_1 conj(.) maps the constrained space to itself isometrically."""
    pencil = assemble(P_ATTR, mesh)
    assert pencil.A.dtype == pencil.B.dtype == np.float64
    z = dof_map(P_ATTR, mesh)
    n = z.shape[1]
    # Work in reduced coordinates: the rotated spinor basis turns the
    # conjugation into x -> conj(x), which dof_map intertwines with the
    # full-space C.
    for _ in range(20):
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        y = np.conj(x)
        u = z @ x
        cu = np.empty_like(u)
        cu[0::2] = np.conj(u[1::2])
        cu[1::2] = np.conj(u[0::2])
        np.testing.assert_allclose(z @ y, cu, atol=1e-13)
        fx = float(np.real(np.vdot(x, pencil.A @ x)))
        fy = float(np.real(np.vdot(y, pencil.A @ y)))
        assert fy == pytest.approx(fx, rel=1e-12)
        bx = float(np.real(np.vdot(x, pencil.B @ x)))
        by = float(np.real(np.vdot(y, pencil.B @ y)))
        assert by == pytest.approx(bx, rel=1e-12)


def test_rotated_transmission_matrices_are_real():
    """U* M U is real on both rays, for U = [[1, i], [1, -i]]/sqrt(2)."""
    u = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)
    s1 = pauli(1)
    np.testing.assert_array_equal(s1 @ np.conj(u), u)
    rng = np.random.default_rng(7)
    taus = np.concatenate([
        rng.uniform(0.01, 1.99, 400),
        2.0 - 10.0 ** rng.uniform(-8, -2, 100),      # |tau| near 2
    ]) * rng.choice([-1.0, 1.0], 500)
    for tau in taus:
        p = PhysParams(tau=float(tau), m=float(rng.uniform(0.1, 5.0)),
                       omega=float(rng.uniform(1e-5, math.pi / 2.0)))
        for mat in interface_matrices(p):
            rotated = u.conj().T @ mat @ u
            bound = 1e-14 * max(1.0, np.max(np.abs(mat)))
            assert np.max(np.abs(rotated.imag)) <= bound, (p, rotated)


@pytest.mark.parametrize("tau, kind", [(-1.0, "disk"), (1.0, "disk"),
                                       (-1.0, "strip")])
def test_real_pencil_matches_complex_oracle(tau, kind):
    """The real pencil has the spectrum of the physical complex pencil."""
    if kind == "disk":
        p = PhysParams(tau=tau, m=1.0, omega=math.pi / 4.0)
        small = build_mesh(p, R=6.0, h=0.8)
    else:
        p = PhysParams(tau=tau, m=1.0, omega=3.2e-3)
        small = build_strip_mesh(p, x_max=60.0, nx=24, wedge_rows=2,
                                 outer_rows=3, width=5.0)
    a_ref, b_ref = fem_complex_pencil(p.tau, p.m, p.omega, small)
    pencil = assemble(p, small)
    want = scipy.linalg.eigh(a_ref, b_ref, eigvals_only=True)
    got = scipy.linalg.eigh(pencil.A.toarray(), pencil.B.toarray(),
                            eigvals_only=True)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


def test_form_value_is_real_psd(mesh):
    pencil = assemble(P_ATTR, mesh)
    for _ in range(10):
        x = RNG.standard_normal(pencil.n_reduced) \
            + 1j * RNG.standard_normal(pencil.n_reduced)
        q = np.vdot(x, pencil.A @ x)
        assert abs(q.imag) <= 1e-10 * abs(q.real)
        assert q.real >= -1e-10
