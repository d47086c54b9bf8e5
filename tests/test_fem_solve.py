"""Generalized eigenvalue solves, bound-state counting, matrix export."""

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse as sp
import scipy.special

from diracwedge.fem import (
    FemSolveError,
    SpectralReport,
    SymmetricPencil,
    assemble,
    build_mesh,
    build_strip_mesh,
    count_bound_states,
    export_matrix_market,
    solve_lowest,
    uniform_refine,
)
from diracwedge.fem import solve
from diracwedge.fem.assembly import _scalar_element_matrices
from diracwedge.model import PhysParams
from diracwedge.variational import critical_angle_maximize

P_ATTR = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
P_LINE = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 2.0)
P_THIN = PhysParams(tau=-1.0, m=1.0, omega=3.2e-3)
SMALL_STRIP = {"kind": "strip", "nx": 24, "wedge_rows": 2, "outer_rows": 3}


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
                             B=mass, info={"m": p.m})
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
    for opts in ({"kind": "disk", "hmax": 0.5}, {"kind": "strip", "N": 2},
                 {"kind": "hex"}):
        with pytest.raises(ValueError):
            count_bound_states(P_ATTR, mesh_opts=opts)


def test_report_serializes_to_json():
    """The report is plain JSON; numpy-scalar mesh options serialize as
    the Python values they equal."""
    for p, mesh_opts in (
        (P_LINE, {"kind": "disk", "R": 8.0, "h": 0.5}),
        (P_THIN, dict(SMALL_STRIP, nx=np.int64(24), x_max=np.float64(3.0))),
    ):
        rep = count_bound_states(p, mesh_opts=mesh_opts)
        blob = json.dumps(rep.as_dict())
        back = json.loads(blob)
        assert back["count_below"] == rep.count_below
        assert back["eigenvalues"] == list(rep.eigenvalues)
        plain = {k: v.item() if isinstance(v, np.generic) else v
                 for k, v in mesh_opts.items()}
        assert blob == json.dumps(count_bound_states(p, plain).as_dict())


def test_matrix_market_export_roundtrip(tmp_path):
    mesh = build_mesh(P_ATTR, R=6.0, h=0.8)
    pencil = assemble(P_ATTR, mesh)
    paths = export_matrix_market(pencil, str(tmp_path / "wedge"))
    assert [p.split("/")[-1] for p in paths] == ["wedge_A.mtx", "wedge_B.mtx"]
    with open(paths[0]) as fh:
        header = fh.readline().strip()
    assert header == "%%MatrixMarket matrix coordinate real symmetric"
    # the bytes are those of a write that scipy opens from the path itself
    for path, mat in zip(paths, (pencil.A, pencil.B)):
        ref = str(tmp_path / "ref.mtx")
        scipy.io.mmwrite(ref, mat.tocoo(), field="real", symmetry="symmetric",
                         precision=17)
        with open(ref, "rb") as want, open(path, "rb") as got:
            assert got.read() == want.read()
    a_back = scipy.io.mmread(paths[0]).tocsr()
    diff = (a_back - pencil.A).tocoo()
    top = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    assert top <= 1e-15


@pytest.mark.parametrize("tau, mesh_opts", [
    (-1.0, {"kind": "disk", "R": 6.0, "h": 0.8}),
    (1.0, {"kind": "disk", "R": 6.0, "h": 0.8}),
    (-1.0, SMALL_STRIP),
])
def test_inertia_count_matches_dense(tau, mesh_opts):
    """The inertia count is the dense count of pencil eigenvalues below
    edge - margin, also where it exceeds the k reported eigenvalues.  The
    Ritz values are the dense lowest k, and ARPACK's tol leaves the
    residuals three decades under their cap."""
    omega = 3.2e-3 if mesh_opts["kind"] == "strip" else math.pi / 4.0
    p = PhysParams(tau=tau, m=1.0, omega=omega)
    rep = count_bound_states(p, mesh_opts=mesh_opts)
    a, b = rep.pencil.A.toarray(), rep.pencil.B.toarray()
    dense, vecs = scipy.linalg.eigh(a, b)
    assert rep.margin == 1e-6 * rep.gap_edge
    assert rep.count_below == int(np.sum(dense < rep.gap_edge - rep.margin))
    # eigh's values carry B's conditioning (3.7e-12 off on the strip); the
    # Rayleigh quotients of its vectors are off by the square of their error
    v = vecs[:, :rep.eigenvalues.size]
    lowest = np.sum(v * (a @ v), axis=0) / np.sum(v * (b @ v), axis=0)
    np.testing.assert_allclose(rep.eigenvalues, lowest, rtol=1e-12, atol=0.0)
    assert np.all(rep.residuals <= 1e-3 * solve._RESIDUAL_CAP)
    if mesh_opts is SMALL_STRIP:
        assert rep.count_below > rep.eigenvalues.size == 8


def _partial_pivoting_splu(real_splu):
    def splu(a, **kwargs):
        return real_splu(a, permc_spec="COLAMD", diag_pivot_thresh=1.0)
    return splu


@pytest.mark.parametrize("fault, message", [
    ("pivot", r"left the diagonal: \d+ rows pivoted off it"),
    ("residual", r"relative residual \d\.\d{3}e-\d+ > 0"),
    ("eigenpair", r"eigenpair residuals exceed 0: \d\.\d{3}e-\d+"),
])
def test_count_checks_raise_with_measured_values(monkeypatch, fault,
                                                 message):
    """Row pivoting, a factor residual and an eigenpair residual above
    their caps fail the count (an inertia/Ritz disagreement is checked
    through the CLI)."""
    if fault == "pivot":
        monkeypatch.setattr(solve.spla, "splu",
                            _partial_pivoting_splu(solve.spla.splu))
    elif fault == "residual":
        monkeypatch.setattr(solve, "_FACTOR_RESIDUAL_CAP", 0.0)
    else:
        monkeypatch.setattr(solve, "_RESIDUAL_CAP", 0.0)
    p = PhysParams(tau=-1.0, m=1.0, omega=3.2e-3)
    with pytest.raises(FemSolveError, match=message):
        count_bound_states(p, mesh_opts=SMALL_STRIP)


def test_superlu_failure_is_a_solve_error():
    """SuperLU's RuntimeError, here for an exactly singular matrix, leaves
    `_factor` as FemSolveError, so the run exits 3 rather than 1."""
    with pytest.raises(FemSolveError, match="at s = 0.5 failed: Factor is "
                                            "exactly singular"):
        solve._factor(sp.csc_matrix((3, 3)), 0.5)


def test_parent_pivot_check_on_disk(monkeypatch):
    """A disk's Lanczos factors A - sigma B with SuperLU in this process, so
    a row pivot fails the solve here even when the count's child reports
    a result without factoring."""
    monkeypatch.setattr(solve.spla, "splu",
                        _partial_pivoting_splu(solve.spla.splu))
    monkeypatch.setattr(solve, "_inertia", lambda pencil, s: (0, 0.0))
    with pytest.raises(FemSolveError,
                       match=r"at s = -0.01 left the diagonal: \d+ rows "
                             r"pivoted off it"):
        count_bound_states(P_ATTR, mesh_opts={"kind": "disk", "R": 8.0,
                                              "h": 0.5})


def _counted(monkeypatch):
    """Count the calls of the band Cholesky and of SuperLU, and record
    whether each band reached dpbtrf Fortran-ordered (factored in place)."""
    calls = {"dpbtrf": 0, "splu": 0, "fortran": []}
    real_dpbtrf, real_splu = solve.lapack.dpbtrf, solve.spla.splu

    def dpbtrf(ab, **kwargs):
        calls["dpbtrf"] += 1
        calls["fortran"].append(ab.flags.f_contiguous)
        return real_dpbtrf(ab, **kwargs)

    def splu(*args, **kwargs):
        calls["splu"] += 1
        return real_splu(*args, **kwargs)

    monkeypatch.setattr(solve.lapack, "dpbtrf", dpbtrf)
    monkeypatch.setattr(solve.spla, "splu", splu)
    return calls


def test_shift_solver_routes_by_bandwidth(monkeypatch):
    """The column-numbered strips, whose half-bandwidth bw has
    bw^2 <= 4n, take the band Cholesky; the disks and a refined strip take
    SuperLU.  Either solve inverts A - sigma B."""
    small = solve._mesh_from_opts(P_THIN, SMALL_STRIP)
    p_session = PhysParams(tau=-1.0, m=1.0, omega=math.radians(55.0))
    cases = [
        (P_THIN, small, "dpbtrf"),
        (P_THIN, build_strip_mesh(P_THIN), "dpbtrf"),
        (P_ATTR, build_mesh(P_ATTR, R=8.0, h=0.5), "splu"),
        (p_session, build_mesh(p_session), "splu"),
        (P_THIN, uniform_refine(small), "splu"),
    ]
    for p, mesh, route in cases:
        calls = _counted(monkeypatch)
        pencil = assemble(p, mesh)
        sigma = -1e-2 * p.m ** 2
        shift_solve = solve._shift_solver(pencil, sigma)
        assert (calls["dpbtrf"], calls["splu"]) == (
            (1, 0) if route == "dpbtrf" else (0, 1)), mesh.info
        assert all(calls["fortran"])
        rhs = solve._start_vector(pencil.n_reduced)
        x = shift_solve(rhs)
        resid = pencil.A @ x - sigma * (pencil.B @ x) - rhs
        assert np.linalg.norm(resid) <= 1e-12 * np.linalg.norm(rhs)
        monkeypatch.undo()


def test_band_route_agrees_with_superlu(monkeypatch):
    """On the small strip the band Cholesky's Ritz values are SuperLU's to
    1e-12, and both leave the residuals three decades under their cap."""
    pencil = assemble(P_THIN, solve._mesh_from_opts(P_THIN, SMALL_STRIP))
    calls = _counted(monkeypatch)
    band = solve_lowest(pencil, 8)
    assert (calls["dpbtrf"], calls["splu"]) == (1, 0)
    monkeypatch.setattr(
        solve, "_shift_solver",
        lambda pencil, sigma: solve._factor(
            (pencil.A - sigma * pencil.B).tocsc(), sigma).solve)
    lu = solve_lowest(pencil, 8)
    assert (calls["dpbtrf"], calls["splu"]) == (1, 1)
    np.testing.assert_allclose(band.eigenvalues, lu.eigenvalues, rtol=1e-12,
                               atol=0.0)
    for rep in (band, lu):
        assert np.all(rep.residuals <= 1e-3 * solve._RESIDUAL_CAP)


def test_band_factor_not_positive_definite_exits_3(monkeypatch, capsys):
    """A shift above the lowest eigenvalue leaves A - sigma B indefinite:
    the band Cholesky fails at a named pivot, and the CLI exits 3."""
    from diracwedge.cli import main

    monkeypatch.setattr(solve, "_SHIFT", 1.0)
    message = (r"A - sB at s = 1 is not positive definite: band Cholesky "
               r"pivot \d+ of 414 is not positive")
    pencil = assemble(P_THIN, solve._mesh_from_opts(P_THIN, SMALL_STRIP))
    with pytest.raises(FemSolveError, match=message):
        solve_lowest(pencil, 8)
    argv = ["fem-count", "--tau", "-1", "--omega", "3.2e-3", "--kind",
            "strip", "--nx", "24", "--wedge-rows", "2", "--outer-rows", "3"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"diracwedge fem-count: {message}\n", err)
    _assert_no_child_left()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_count_leaves_no_child(monkeypatch):
    """The forked inertia child is reaped after a count, after a failure of
    the parent's Lanczos, after a failed check of the child's factor, and
    when the child dies without a result, whose wait status is reported."""
    assert count_bound_states(P_THIN, mesh_opts=SMALL_STRIP).count_below == 12
    _assert_no_child_left()

    def no_convergence(*args, **kwargs):
        raise solve.spla.ArpackNoConvergence("synthetic", np.zeros(1),
                                             np.zeros((1, 1)))

    with monkeypatch.context() as m:
        m.setattr(solve.spla, "eigsh", no_convergence)
        with pytest.raises(FemSolveError, match="did not converge"):
            count_bound_states(P_THIN, mesh_opts=SMALL_STRIP)
    _assert_no_child_left()

    with monkeypatch.context() as m:
        m.setattr(solve, "_FACTOR_RESIDUAL_CAP", 0.0)
        with pytest.raises(FemSolveError, match="relative residual"):
            count_bound_states(P_THIN, mesh_opts=SMALL_STRIP)
    _assert_no_child_left()

    def die(pencil, s):
        os._exit(5)

    monkeypatch.setattr(solve, "_inertia", die)
    with pytest.raises(FemSolveError, match=r"without a result "
                       r"\(wait status 1280, exit code 5\)"):
        count_bound_states(P_THIN, mesh_opts=SMALL_STRIP)
    _assert_no_child_left()


def test_child_error_reaches_parent(monkeypatch):
    """A failure inside the child's factor is raised in the parent."""
    monkeypatch.setattr(solve.spla, "splu",
                        _partial_pivoting_splu(solve.spla.splu))
    monkeypatch.setattr(solve, "solve_lowest",
                        lambda pencil, k: SpectralReport(
                            np.zeros(0), None, 0.0, None, np.zeros(0)))
    with pytest.raises(FemSolveError, match="rows pivoted off it"):
        count_bound_states(P_THIN, mesh_opts=SMALL_STRIP)
    _assert_no_child_left()


def test_child_flushes_no_inherited_buffer(child_env):
    """Output the parent has buffered when it forks is written once."""
    code = ("import sys\n"
            "from diracwedge.fem import count_bound_states\n"
            "from diracwedge.model import PhysParams\n"
            "sys.stdout.write('pending')\n"
            "count_bound_states(PhysParams(tau=-1.0, m=1.0, omega=3.2e-3), "
            f"{SMALL_STRIP!r})\n")
    env = {k: v for k, v in child_env.items() if k != "PYTHONUNBUFFERED"}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert (out.stdout, out.stderr) == ("pending", "")


@pytest.mark.parametrize("p, mesh_opts", [
    (P_THIN, SMALL_STRIP),
    (P_ATTR, {"kind": "disk", "R": 6.0, "h": 0.8}),
])
def test_inline_count_equals_forked(monkeypatch, p, mesh_opts):
    """Without os.fork the count runs inline: same count, bitwise-equal
    eigenvalues and residuals, and the same failure message."""
    forked = count_bound_states(p, mesh_opts=mesh_opts)
    with monkeypatch.context() as m:
        m.setattr(solve, "_FACTOR_RESIDUAL_CAP", 0.0)
        with pytest.raises(FemSolveError) as forked_err:
            count_bound_states(p, mesh_opts=mesh_opts)
    monkeypatch.delattr(solve.os, "fork")
    inline = count_bound_states(p, mesh_opts=mesh_opts)
    assert inline.count_below == forked.count_below
    assert np.array_equal(inline.eigenvalues, forked.eigenvalues)
    assert inline.as_dict() == forked.as_dict()
    monkeypatch.setattr(solve, "_FACTOR_RESIDUAL_CAP", 0.0)
    with pytest.raises(FemSolveError) as inline_err:
        count_bound_states(p, mesh_opts=mesh_opts)
    assert str(inline_err.value) == str(forked_err.value)


def test_builder_defaults_are_the_count_meshes():
    """Without options the builders build the default meshes of
    ``count_bound_states``: the thin-wedge strip of 26 437 vertices and
    48 858 reduced DOFs, and the R = 10, h = 0.35, grading 2 disk."""
    def same(m1, m2):
        return (np.array_equal(m1.vertices, m2.vertices)
                and np.array_equal(m1.triangles, m2.triangles)
                and m1.info == m2.info)

    strip = build_strip_mesh(P_THIN)
    explicit = build_strip_mesh(
        P_THIN, x_max=3.0 * critical_angle_maximize(P_THIN, 1)[1], nx=480,
        wedge_rows=8, outer_rows=18, width=6.25, outer_grading=1.7)
    assert same(strip, explicit)
    assert same(strip, solve._mesh_from_opts(P_THIN, None))
    assert strip.n_vertices == 26437
    assert assemble(P_THIN, strip).n_reduced == 48858

    disk = build_mesh(P_ATTR)
    assert same(disk, build_mesh(P_ATTR, R=10.0, h=0.35, grading=2.0))
    assert same(disk, solve._mesh_from_opts(P_ATTR, None))


_MASSES = (1e-300, 1e-155, 1e-154, 1e-20, 0.25, 1e8, 1e60, 1e152, 1e154)


@pytest.mark.parametrize("omega, mesh_opts, lengths, count, masses", [
    (0.2, None, {}, 2, _MASSES),
    (3.2e-3, SMALL_STRIP, {}, 12, _MASSES),
    # at mass m the count shift (1e-154, 1e-155) or the stiffness (1e152)
    # of these meshes is not a normal float
    (0.5, None, {}, 1, (1e152, 1e-154, 1e-155)),
    (3.2e-3, None, {}, 20, (1e-154, 1e-155)),
    # at m = 2^k the lengths given in units of 1/m convert back exactly
    (0.2, {"kind": "disk"}, {"R": 8.0, "h": 0.5}, 1,
     tuple(2.0 ** k for k in (-500, -3, 10, 400))),
], ids=["0.2-None-2", "0.0032-mesh_opts1-12", "0.5-None-1", "0.0032-None-20",
        "0.2-disk-R-h-1"])
def test_count_is_scale_covariant(omega, mesh_opts, lengths, count, masses):
    """Lengths scale like 1/m and the pencil's eigenvalues like m^2, and
    count_bound_states solves at m = 1: with the default lengths, or lengths
    that convert back exactly, the count, the residuals and the eigenvalues
    over m^2 are m = 1's bit for bit at every mass, even where m^2 times an
    eigenvalue is subnormal or 0."""
    def count_at(m):
        opts = dict(mesh_opts or {}, **{key: length / m
                                        for key, length in lengths.items()})
        return count_bound_states(PhysParams(tau=-1.0, m=m, omega=omega),
                                  mesh_opts=opts)

    ref = count_at(1.0)
    assert ref.count_below == count
    for m in masses:
        rep = count_at(m)
        assert rep.count_below == count
        assert np.array_equal(rep.eigenvalues, ref.eigenvalues * (m * m))
        assert np.array_equal(rep.residuals, ref.residuals)
