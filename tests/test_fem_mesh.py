"""Wedge meshes: disk with graded rings, anisotropic strip, refinement."""

import math
import re
from collections import Counter

import numpy as np
import pytest

from diracwedge.fem import (
    Mesh,
    MeshError,
    build_mesh,
    build_strip_mesh,
    uniform_refine,
)
from diracwedge.fem.mesh import CORNER, _mesh
from diracwedge.model import PhysParams

P_DISK = PhysParams(tau=-1.0, m=1.0, omega=math.pi / 4.0)
P_STRIP = PhysParams(tau=-1.0, m=1.0, omega=3.2e-3)


def interface_copy_counts(mesh: Mesh) -> dict[int, int]:
    """vertex index -> number of interface-edge endpoints mapped onto it."""
    counts: dict[int, int] = {}
    for p0, p1, m0, m1 in mesh.interface_edges:
        for v in (p0, p1, m0, m1):
            counts[v] = counts.get(v, 0) + 1
    return counts


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed triangle areas, positive for counter-clockwise vertices."""
    a, b, c = (mesh.vertices[mesh.triangles[:, j]] for j in range(3))
    d1, d2 = b - a, c - a
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def check_common_invariants(mesh: Mesh):
    areas = triangle_areas(mesh)
    assert np.all(areas > 0.0)
    assert mesh.n_dofs == 2 * mesh.n_vertices
    assert mesh.outer_boundary.shape == (mesh.n_vertices,)
    # interface edges pair distinct plus/minus vertices at equal coordinates,
    # the corner being the single shared exception
    for p0, p1, m0, m1 in mesh.interface_edges:
        for pv, mv in ((p0, m0), (p1, m1)):
            if pv == mv:
                assert pv == CORNER
            else:
                np.testing.assert_allclose(
                    mesh.vertices[pv], mesh.vertices[mv], atol=1e-12
                )
    # every edge is manifold, each side of a ray segment lies in one
    # triangle, and the outer boundary is exactly the endpoints of the other
    # edges that lie in one triangle
    in_tris = Counter(tuple(sorted((int(t[i]), int(t[(i + 1) % 3]))))
                      for t in mesh.triangles for i in range(3))
    assert max(in_tris.values()) <= 2
    ray_sides = {tuple(sorted((int(a), int(b))))
                 for p0, p1, m0, m1 in mesh.interface_edges
                 for a, b in ((p0, p1), (m0, m1))}
    assert all(in_tris[e] == 1 for e in ray_sides)
    ends = {v for e, n in in_tris.items() if n == 1 and e not in ray_sides
            for v in e}
    assert set(np.nonzero(mesh.outer_boundary)[0].tolist()) == ends


def test_disk_mesh_basic():
    mesh = build_mesh(P_DISK, R=10.0, h=0.5)
    check_common_invariants(mesh)
    assert mesh.info["kind"] == "disk"


def test_disk_interface_vertices_have_two_copies():
    mesh = build_mesh(P_DISK, R=10.0, h=0.5)
    coords = mesh.vertices
    on_rays = []
    tol = 1e-9
    tw = math.tan(P_DISK.omega)
    for i, (x, y) in enumerate(coords):
        r = math.hypot(x, y)
        if r < tol:
            continue
        if x > 0.0 and abs(abs(y) - x * tw) <= tol * max(1.0, r):
            on_rays.append(i)
    keyed: dict[tuple[float, float], int] = {}
    for i in on_rays:
        key = (round(coords[i][0], 9), round(coords[i][1], 9))
        keyed[key] = keyed.get(key, 0) + 1
    assert keyed and all(v == 2 for v in keyed.values())
    # corner is a single vertex at the origin
    np.testing.assert_allclose(coords[CORNER], [0.0, 0.0], atol=1e-15)
    assert np.sum(np.hypot(coords[:, 0], coords[:, 1]) < tol) == 1


def test_disk_area_converges():
    R = 6.0
    mesh = build_mesh(P_DISK, R=R, h=R / 20.0)
    total = float(np.sum(triangle_areas(mesh)))
    assert total == pytest.approx(math.pi * R * R, rel=0.01)


def test_disk_triangle_count_scaling():
    n_coarse = build_mesh(P_DISK, R=8.0, h=0.8).triangles.shape[0]
    n_fine = build_mesh(P_DISK, R=8.0, h=0.4).triangles.shape[0]
    assert n_fine == pytest.approx(4 * n_coarse, rel=0.15)


def test_disk_rejects_unresolvable_angle():
    with pytest.raises(MeshError):
        build_mesh(P_STRIP, R=10.0, h=0.5)


@pytest.mark.parametrize("build, p, kwargs", [
    (build_mesh, P_DISK, {}),
    (build_strip_mesh, P_STRIP, {"nx": 24, "wedge_rows": 2, "outer_rows": 3}),
])
def test_vertex_cap_uses_the_exact_count(monkeypatch, build, p, kwargs):
    """The count a builder checks before its first array is the vertex count
    of the mesh it builds: a cap of that count builds, one less refuses."""
    from diracwedge.fem import mesh as mesh_module

    n = build(p, **kwargs).n_vertices
    monkeypatch.setattr(mesh_module, "_MAX_VERTICES", n - 1)
    with pytest.raises(MeshError, match=f"at least {n} vertices, more than "
                                        f"{n - 1}"):
        build(p, **kwargs)
    monkeypatch.setattr(mesh_module, "_MAX_VERTICES", n)
    assert build(p, **kwargs).n_vertices == n


def test_mesh_refuses_a_clockwise_triangle():
    """The constructor checks orientation and never flips a triangle."""
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    args = (np.empty((0, 4), dtype=np.int64), np.empty(0, dtype=np.int64),
            [1, 2], {})
    ccw = _mesh(vertices, np.array([[0, 1, 2]]), *args)
    np.testing.assert_array_equal(ccw.triangles, [[0, 1, 2]])
    for tri in ([0, 2, 1], [0, 1, 1]):
        with pytest.raises(MeshError, match=re.escape(str(tuple(tri)))):
            _mesh(vertices, np.array([tri]), *args)


def test_strip_mesh_invariants():
    mesh = build_strip_mesh(P_STRIP, x_max=60.0, nx=120, wedge_rows=4,
                            outer_rows=8, width=6.0)
    check_common_invariants(mesh)
    assert mesh.info["kind"] == "strip"
    # exactly one corner vertex, on the x=0 Dirichlet edge at the origin
    np.testing.assert_allclose(mesh.vertices[CORNER], [0.0, 0.0],
                               atol=1e-15)
    assert mesh.outer_boundary[CORNER]
    # interface edges follow y = +- x tan(omega)
    tw = math.tan(P_STRIP.omega)
    for p0, p1, _, _ in mesh.interface_edges:
        for v in (p0, p1):
            x, y = mesh.vertices[v]
            assert abs(abs(y) - x * tw) <= 1e-9 * max(1.0, x)


def test_strip_mesh_area_is_exact():
    """The strip covers x_max^2 tan(omega) + 2 width x_max exactly."""
    for p, x_max, nx, rows, width in (
        (P_STRIP, 60.0, 24, (2, 3), 5.0),
        (P_STRIP, 60.0, 120, (4, 8), 6.0),
        (PhysParams(tau=-1.0, m=1.0, omega=0.3), 7.5, 9, (1, 2), 0.8),
    ):
        mesh = build_strip_mesh(p, x_max=x_max, nx=nx, wedge_rows=rows[0],
                                outer_rows=rows[1], width=width)
        exact = x_max ** 2 * math.tan(p.omega) + 2.0 * width * x_max
        total = float(np.sum(triangle_areas(mesh)))
        assert total == pytest.approx(exact, rel=1e-12)


def test_uniform_refine_quadruples():
    for mesh in (
        build_mesh(P_DISK, R=6.0, h=1.0),
        build_strip_mesh(PhysParams(tau=-1.0, m=1.0, omega=0.01), x_max=2.0,
                         nx=4, wedge_rows=2, outer_rows=3, width=1.0),
    ):
        fine = uniform_refine(mesh)
        assert fine.triangles.shape[0] == 4 * mesh.triangles.shape[0]
        assert (fine.interface_edges.shape[0]
                == 2 * mesh.interface_edges.shape[0])
        check_common_invariants(fine)
        # coarse vertices are carried over in place
        np.testing.assert_allclose(
            fine.vertices[: mesh.n_vertices], mesh.vertices, atol=0.0
        )
        np.testing.assert_array_equal(fine.vertices[CORNER], [0.0, 0.0])
        assert fine.info["refined"] == 1
        assert float(np.sum(triangle_areas(fine))) == pytest.approx(
            float(np.sum(triangle_areas(mesh))), rel=1e-12
        )
