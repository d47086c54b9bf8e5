"""Generalized eigenvalue solves, bound-state counting, matrix export."""

import json
import math

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.special

from diracwedge.fem import (
    FemSolveError,
    SymmetricPencil,
    assemble,
    build_mesh,
    count_bound_states,
    export_matrix_market,
    solve_lowest,
    uniform_refine,
)
from diracwedge.fem import solve
from diracwedge.fem.assembly import _scalar_element_matrices
from diracwedge.model import PhysParams

P_ATTR = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
P_LINE = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 2.0)


def test_laplacian_sanity_disk():
    """-Delta + m^2 on the Dirichlet disk, from the library's element
    matrices with each minus copy glued to its plus vertex (no shell term)
    and the Dirichlet vertices dropped."""
    p = P_ATTR
    R = 6.0
    mesh = build_mesh(p, R=R, h=0.25)
    nv = mesh.n_vertices
    glue = np.arange(nv)
    glue[mesh.interface_edges[:, 2:]] = mesh.interface_edges[:, :2]
    tris = glue[mesh.triangles]
    free = np.flatnonzero(~mesh.outer_boundary & (glue == np.arange(nv)))

    def scalar_matrix(loc):
        full = sp.coo_matrix(
            (loc.ravel(), (np.repeat(tris, 3, axis=1).ravel(),
                           np.tile(tris, 3).ravel())), shape=(nv, nv))
        return full.tocsr()[free][:, free]

    k_loc, m_loc = _scalar_element_matrices(mesh)
    mass = scalar_matrix(m_loc)
    pencil = SymmetricPencil(A=scalar_matrix(k_loc) + p.m ** 2 * mass,
                             B=mass, dof_map=sp.identity(free.size),
                             info={"m": p.m})
    rep = solve_lowest(pencil, k=1)
    j01 = scipy.special.jn_zeros(0, 1)[0]
    exact = p.m ** 2 + (j01 / R) ** 2
    assert rep.eigenvalues[0] == pytest.approx(exact, rel=0.02)
    assert np.all(rep.residuals <= 1e-8)


def test_ritz_monotone_under_refinement():
    mesh = build_mesh(P_ATTR, R=8.0, h=0.9)
    vals = []
    for _ in range(3):
        rep = solve_lowest(assemble(P_ATTR, mesh), k=4)
        vals.append(rep.eigenvalues)
        mesh = uniform_refine(mesh)
    for coarse, fine in zip(vals, vals[1:]):
        assert np.all(fine <= coarse + 1e-10)


def test_solve_reports_sorted_and_residual_bounded():
    mesh = build_mesh(P_ATTR, R=8.0, h=0.5)
    rep = solve_lowest(assemble(P_ATTR, mesh), k=6)
    assert np.all(np.diff(rep.eigenvalues) >= 0.0)
    assert np.all(rep.residuals <= 1e-8)
    assert rep.count_below is None
    assert rep.mesh_info["kind"] == "disk"


def test_straight_line_counts_zero():
    rep = count_bound_states(P_LINE, mesh_opts={"kind": "disk", "R": 10.0,
                                                "h": 0.35})
    assert rep.count_below == 0
    assert rep.gap_edge == pytest.approx(0.36, abs=1e-15)
    assert rep.margin > 0.0
    # nothing may dip under the essential-spectrum edge here
    assert np.all(rep.eigenvalues > rep.gap_edge - rep.margin)


def test_count_never_decreases_under_refinement():
    opts_coarse = {"kind": "disk", "R": 9.0, "h": 0.7}
    opts_fine = {"kind": "disk", "R": 9.0, "h": 0.35}
    p = PhysParams(tau=-1.0, m=1.0, omega=0.3)
    c1 = count_bound_states(p, mesh_opts=opts_coarse).count_below
    c2 = count_bound_states(p, mesh_opts=opts_fine).count_below
    assert c2 >= c1


def test_repulsive_count_is_zero_threshold_m_sq():
    p = PhysParams(tau=1.0, m=1.0, omega=math.pi / 4.0)
    rep = count_bound_states(p, mesh_opts={"kind": "disk", "R": 8.0, "h": 0.5})
    assert rep.gap_edge == pytest.approx(1.0, abs=1e-15)
    assert rep.count_below == 0


def test_unknown_mesh_option_rejected():
    for opts in ({"kind": "disk", "hmax": 0.5}, {"kind": "strip", "N": 2}):
        with pytest.raises(ValueError):
            count_bound_states(P_ATTR, mesh_opts=opts)


def test_report_serializes_to_json():
    rep = count_bound_states(P_LINE, mesh_opts={"kind": "disk", "R": 8.0,
                                                "h": 0.5})
    blob = json.dumps(rep.as_dict())
    back = json.loads(blob)
    assert back["count_below"] == rep.count_below
    assert back["eigenvalues"] == list(rep.eigenvalues)


def test_matrix_market_export_roundtrip(tmp_path):
    mesh = build_mesh(P_ATTR, R=6.0, h=0.8)
    pencil = assemble(P_ATTR, mesh)
    paths = export_matrix_market(pencil, str(tmp_path / "wedge"))
    assert [p.split("/")[-1] for p in paths] == ["wedge_A.mtx", "wedge_B.mtx"]
    with open(paths[0]) as fh:
        header = fh.readline().strip()
    assert header == "%%MatrixMarket matrix coordinate real symmetric"
    a_back = scipy.io.mmread(paths[0]).tocsr()
    diff = (a_back - pencil.A).tocoo()
    top = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    assert top <= 1e-15


SMALL_STRIP = {"kind": "strip", "nx": 24, "wedge_rows": 2, "outer_rows": 3}


@pytest.mark.parametrize("tau, mesh_opts", [
    (-1.0, {"kind": "disk", "R": 6.0, "h": 0.8}),
    (1.0, {"kind": "disk", "R": 6.0, "h": 0.8}),
    (-1.0, SMALL_STRIP),
])
def test_inertia_count_matches_dense(tau, mesh_opts):
    """The inertia count is the dense count of pencil eigenvalues below
    edge - margin, also where it exceeds the k reported eigenvalues."""
    omega = 3.2e-3 if mesh_opts["kind"] == "strip" else math.pi / 4.0
    p = PhysParams(tau=tau, m=1.0, omega=omega)
    rep = count_bound_states(p, mesh_opts=mesh_opts)
    dense = scipy.linalg.eigh(rep.pencil.A.toarray(), rep.pencil.B.toarray(),
                              eigvals_only=True)
    assert rep.margin == 1e-6 * rep.gap_edge
    assert rep.count_below == int(np.sum(dense < rep.gap_edge - rep.margin))
    if mesh_opts is SMALL_STRIP:
        assert rep.count_below > rep.eigenvalues.size == 8


def _partial_pivoting_splu(real_splu):
    def splu(a, **kwargs):
        return real_splu(a, permc_spec="COLAMD", diag_pivot_thresh=1.0)
    return splu


@pytest.mark.parametrize("fault, message", [
    ("pivot", r"left the diagonal: \d+ rows pivoted off it"),
    ("residual", r"relative residual \d\.\d{3}e-\d+ > 0"),
])
def test_count_checks_raise_with_measured_values(monkeypatch, fault,
                                                 message):
    """Row pivoting and a factor residual above the cap fail the count (an
    inertia/Ritz disagreement is checked through the CLI)."""
    if fault == "pivot":
        monkeypatch.setattr(solve.spla, "splu",
                            _partial_pivoting_splu(solve.spla.splu))
    else:
        monkeypatch.setattr(solve, "_FACTOR_RESIDUAL_CAP", 0.0)
    p = PhysParams(tau=-1.0, m=1.0, omega=3.2e-3)
    with pytest.raises(FemSolveError, match=message):
        count_bound_states(p, mesh_opts=SMALL_STRIP)
