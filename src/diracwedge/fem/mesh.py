"""Triangulations of a truncated neighborhood of the wedge boundary.

Two generators: a radially graded disk centered at the corner, and an
anisotropic strip-aligned grid for thin wedges where the disk mesh would
need a hopeless number of angular cells.  In both, the two boundary rays are
internal interfaces: every mesh vertex on a ray carries one copy per side
(the triangles of the wedge interior reference the plus copy, the exterior
ones the minus copy), except for the corner vertex at the origin, which is
shared by all four incident interface edges.  The truncation is always
Dirichlet: the vertices of the outer boundary carry no DOFs, so every
discrete function extends by zero to the plane and Ritz values stay upper
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..model import PhysParams

__all__ = ["Mesh", "MeshError", "build_mesh", "build_strip_mesh",
           "uniform_refine", "triangle_areas"]

SIDE_LEFT = 0   # upper ray, polar angle +omega
SIDE_RIGHT = 1  # lower ray, polar angle -omega


class MeshError(RuntimeError):
    """Degenerate or unresolvable geometry for the requested mesh sizes."""


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation with duplicated interface DOFs.

    interface_edges rows are (plus_lo, plus_hi, minus_lo, minus_hi) vertex
    indices of one ray segment; at the corner the plus and minus entries
    coincide (the shared origin vertex).  outer_boundary marks the vertices
    of the truncation boundary, where the discrete functions vanish.
    """

    vertices: np.ndarray          # (nv, 2) float
    triangles: np.ndarray         # (nt, 3) int, positively oriented
    interface_edges: np.ndarray   # (ne, 4) int
    interface_sides: np.ndarray   # (ne,) int, SIDE_LEFT or SIDE_RIGHT
    corner_vertex: int
    outer_boundary: np.ndarray    # (nv,) bool, Dirichlet vertices
    info: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_dofs(self) -> int:
        """Complex spinor DOFs before constraint elimination."""
        return 2 * self.n_vertices


def triangle_areas(mesh: Mesh) -> np.ndarray:
    v = mesh.vertices
    t = mesh.triangles
    d1 = v[t[:, 1]] - v[t[:, 0]]
    d2 = v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


class _MeshBuilder:
    def __init__(self):
        self.verts: list[tuple[float, float]] = []
        self.tris: list[tuple[int, int, int]] = []
        self.iface: list[tuple[int, int, int, int]] = []
        self.iface_side: list[int] = []
        self.boundary: set[int] = set()

    def vertex(self, x: float, y: float) -> int:
        self.verts.append((x, y))
        return len(self.verts) - 1

    def tri(self, a: int, b: int, c: int) -> None:
        va, vb, vc = (self.verts[i] for i in (a, b, c))
        det = ((vb[0] - va[0]) * (vc[1] - va[1])
               - (vb[1] - va[1]) * (vc[0] - va[0]))
        if det < 0.0:
            b, c = c, b
        elif det == 0.0:
            raise MeshError(f"degenerate triangle {a, b, c}")
        self.tris.append((a, b, c))

    def finish(self, corner: int, info: dict) -> Mesh:
        nv = len(self.verts)
        outer = np.zeros(nv, dtype=bool)
        outer[list(self.boundary)] = True
        return Mesh(
            vertices=np.asarray(self.verts, dtype=float),
            triangles=np.asarray(self.tris, dtype=np.int64),
            interface_edges=np.asarray(self.iface, dtype=np.int64).reshape(-1, 4),
            interface_sides=np.asarray(self.iface_side, dtype=np.int64),
            corner_vertex=corner,
            outer_boundary=outer,
            info=info,
        )


def build_mesh(p: PhysParams, R: float, h: float,
               grading: float = 2.0) -> Mesh:
    """Radially graded disk of radius R around the corner.

    Rings at r_i = R (i/Nr)^grading share one angular subdivision that
    contains both ray angles exactly, so the rays are unions of radial mesh
    edges.  Raises MeshError when h cannot resolve the wedge opening
    (thin wedges should use build_strip_mesh instead).
    """
    if R <= 0.0 or h <= 0.0:
        raise MeshError(f"need R > 0 and h > 0, got R={R}, h={h}")
    if grading < 1.0:
        raise MeshError(f"grading exponent must be >= 1, got {grading}")
    w = p.omega
    if h > w * R:
        raise MeshError(
            f"h={h} cannot resolve the wedge opening; need h <= omega*R = "
            f"{w * R:.6g} (or the strip mesh for thin wedges)"
        )

    n1 = max(2, int(math.ceil(2.0 * w * R / h)))          # arc [-w, w]
    n2 = max(4, int(math.ceil((2.0 * math.pi - 2.0 * w) * R / h)))
    ang = np.concatenate([
        np.linspace(-w, w, n1 + 1),
        np.linspace(w, 2.0 * math.pi - w, n2 + 1)[1:-1],
    ])
    ntheta = ang.size                                      # distinct angles
    nr = max(2, int(math.ceil(R / h)))
    radii = R * (np.arange(1, nr + 1) / nr) ** grading

    b = _MeshBuilder()
    corner = b.vertex(0.0, 0.0)

    # ids[i][j] -> vertex id at ring i (1-based), angle j; ray angles j=0
    # (theta=-w) and j=n1 (theta=+w) get (plus, minus) pairs.
    plus_ids = np.empty((nr, ntheta), dtype=np.int64)
    minus_ids = np.empty((nr, 2), dtype=np.int64)          # cols: j=0, j=n1
    for i, r in enumerate(radii):
        for j, th in enumerate(ang):
            x, y = r * math.cos(th), r * math.sin(th)
            plus_ids[i, j] = b.vertex(x, y)
            if j == 0:
                minus_ids[i, 0] = b.vertex(x, y)
            elif j == n1:
                minus_ids[i, 1] = b.vertex(x, y)

    def vid(i: int, j: int, wedge_side: bool) -> int:
        j = j % ntheta
        if not wedge_side:
            if j == 0:
                return minus_ids[i, 0]
            if j == n1:
                return minus_ids[i, 1]
        return plus_ids[i, j]

    # fan around the corner, then structured quads between rings
    for j in range(ntheta):
        wedge = j < n1
        b.tri(corner, vid(0, j, wedge), vid(0, j + 1, wedge))
    for i in range(nr - 1):
        for j in range(ntheta):
            wedge = j < n1
            a_ = vid(i, j, wedge)
            b_ = vid(i + 1, j, wedge)
            c_ = vid(i + 1, j + 1, wedge)
            d_ = vid(i, j + 1, wedge)
            b.tri(a_, b_, c_)
            b.tri(a_, c_, d_)

    # ray segments: (corner, ring 1), then ring-to-ring
    for side, j, col in ((SIDE_LEFT, n1, 1), (SIDE_RIGHT, 0, 0)):
        b.iface.append((corner, plus_ids[0, j], corner, minus_ids[0, col]))
        b.iface_side.append(side)
        for i in range(nr - 1):
            b.iface.append((plus_ids[i, j], plus_ids[i + 1, j],
                            minus_ids[i, col], minus_ids[i + 1, col]))
            b.iface_side.append(side)

    b.boundary.update(plus_ids[nr - 1, :].tolist())
    b.boundary.update(minus_ids[nr - 1, :].tolist())

    return b.finish(corner, {
        "kind": "disk", "R": R, "h": h, "grading": grading,
        "rings": nr, "angles": ntheta,
    })


def build_strip_mesh(p: PhysParams, x_max: float, nx: int, wedge_rows: int,
                     outer_rows: int, width: float,
                     outer_grading: float = 1.7) -> Mesh:
    """Anisotropic mesh of [0, x_max] x [-(x tan w + width), x tan w + width].

    Inside the wedge the rows fan out from the corner at fractions of the
    local half-height x tan(omega); outside they follow the rays at graded
    offsets s_j = width (j/outer_rows)^outer_grading.  Row anisotropy is
    aligned with the certificate test function (flat across the wedge,
    exponential across the shell), so thin triangles are harmless here.
    """
    if x_max <= 0.0 or width <= 0.0:
        raise MeshError(f"need x_max > 0 and width > 0, got {x_max}, {width}")
    if nx < 2 or wedge_rows < 1 or outer_rows < 2:
        raise MeshError(
            f"need nx >= 2, wedge_rows >= 1, outer_rows >= 2; "
            f"got {nx}, {wedge_rows}, {outer_rows}"
        )
    slope = math.tan(p.omega)
    xs = np.linspace(0.0, x_max, nx + 1)
    s_off = width * (np.arange(1, outer_rows + 1) / outer_rows) ** outer_grading

    b = _MeshBuilder()
    corner = b.vertex(0.0, 0.0)

    kw = wedge_rows
    frac = np.arange(-kw, kw + 1) / kw                     # row fractions
    wedge_ids = np.empty((nx + 1, 2 * kw + 1), dtype=np.int64)
    ray_minus = np.empty((nx + 1, 2), dtype=np.int64)      # cols: up, down
    out_up = np.empty((nx + 1, outer_rows), dtype=np.int64)
    out_dn = np.empty((nx + 1, outer_rows), dtype=np.int64)

    for i, x in enumerate(xs):
        ytop = x * slope
        if i == 0:
            wedge_ids[0, :] = corner
            ray_minus[0, :] = corner
        else:
            for k in range(2 * kw + 1):
                wedge_ids[i, k] = b.vertex(x, ytop * frac[k])
            ray_minus[i, 0] = b.vertex(x, ytop)
            ray_minus[i, 1] = b.vertex(x, -ytop)
        for j, s in enumerate(s_off):
            out_up[i, j] = b.vertex(x, ytop + s)
            out_dn[i, j] = b.vertex(x, -(ytop + s))

    # wedge interior: fan out of the corner, then quad columns
    for k in range(2 * kw):
        b.tri(corner, wedge_ids[1, k], wedge_ids[1, k + 1])
    for i in range(1, nx):
        for k in range(2 * kw):
            b.tri(wedge_ids[i, k], wedge_ids[i + 1, k], wedge_ids[i + 1, k + 1])
            b.tri(wedge_ids[i, k], wedge_ids[i + 1, k + 1], wedge_ids[i, k + 1])

    # exterior rows, bottom-to-top ordering per region keeps orientation
    def quad_strip(rows: np.ndarray) -> None:
        # rows: (nx+1, m) ids with y increasing along the second axis
        n_rows = rows.shape[1]
        for i in range(nx):
            for k in range(n_rows - 1):
                a_, b_ = rows[i, k], rows[i + 1, k]
                c_, d_ = rows[i + 1, k + 1], rows[i, k + 1]
                b.tri(a_, b_, c_)
                b.tri(a_, c_, d_)

    upper = np.column_stack([ray_minus[:, 0], out_up])
    lower = np.column_stack([out_dn[:, ::-1], ray_minus[:, 1]])
    quad_strip(upper)
    quad_strip(lower)

    for i in range(nx):
        b.iface.append((wedge_ids[i, 2 * kw], wedge_ids[i + 1, 2 * kw],
                        ray_minus[i, 0], ray_minus[i + 1, 0]))
        b.iface_side.append(SIDE_LEFT)
        b.iface.append((wedge_ids[i, 0], wedge_ids[i + 1, 0],
                        ray_minus[i, 1], ray_minus[i + 1, 1]))
        b.iface_side.append(SIDE_RIGHT)

    b.boundary.update(out_up[:, -1].tolist())
    b.boundary.update(out_dn[:, -1].tolist())
    b.boundary.update(out_up[0, :].tolist())
    b.boundary.update(out_dn[0, :].tolist())
    b.boundary.add(corner)
    b.boundary.update(wedge_ids[nx, :].tolist())
    b.boundary.update(ray_minus[nx, :].tolist())
    b.boundary.update(out_up[nx, :].tolist())
    b.boundary.update(out_dn[nx, :].tolist())

    return b.finish(corner, {
        "kind": "strip", "x_max": x_max, "nx": nx, "wedge_rows": wedge_rows,
        "outer_rows": outer_rows, "width": width,
        "outer_grading": outer_grading,
    })


def _outer_edges(mesh: Mesh) -> set[tuple[int, int]]:
    """Sorted vertex pairs of the edges on the outer (Dirichlet) boundary.

    An outer edge lies in exactly one triangle and is not a ray segment;
    each side of a ray is in one triangle too, but it is an interface.
    """
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]),
                    axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    rays = {tuple(sorted(map(int, pair))) for row in mesh.interface_edges
            for pair in (row[:2], row[2:])}
    return {(int(a), int(b)) for a, b in uniq[counts == 1]} - rays


def uniform_refine(mesh: Mesh) -> Mesh:
    """Midpoint subdivision: each triangle into four, nested P1 spaces.

    Interface midpoints inherit the two-copy structure automatically because
    the plus-side and minus-side parent edges are distinct index pairs.  A
    midpoint is on the outer boundary only when its parent edge is; an
    interior edge between two boundary vertices keeps an interior midpoint.
    """
    verts = [tuple(v) for v in mesh.vertices]
    boundary = set(np.nonzero(mesh.outer_boundary)[0].tolist())
    outer_edges = _outer_edges(mesh)
    midpoint: dict[tuple[int, int], int] = {}

    def mid(a: int, b: int) -> int:
        key = (a, b) if a < b else (b, a)
        got = midpoint.get(key)
        if got is not None:
            return got
        va, vb = verts[a], verts[b]
        verts.append(((va[0] + vb[0]) / 2.0, (va[1] + vb[1]) / 2.0))
        idx = len(verts) - 1
        midpoint[key] = idx
        if key in outer_edges:
            boundary.add(idx)
        return idx

    tris = []
    for a, b_, c in mesh.triangles:
        ab, bc, ca = mid(a, b_), mid(b_, c), mid(c, a)
        tris.extend([(a, ab, ca), (ab, b_, bc), (ca, bc, c), (ab, bc, ca)])

    iface = []
    iside = []
    for (p0, p1, m0, m1), side in zip(mesh.interface_edges,
                                      mesh.interface_sides):
        pm, mm = mid(p0, p1), mid(m0, m1)
        iface.extend([(p0, pm, m0, mm), (pm, p1, mm, m1)])
        iside.extend([side, side])

    nv = len(verts)
    outer = np.zeros(nv, dtype=bool)
    outer[list(boundary)] = True
    info = dict(mesh.info)
    info["refined"] = info.get("refined", 0) + 1
    return Mesh(
        vertices=np.asarray(verts, dtype=float),
        triangles=np.asarray(tris, dtype=np.int64),
        interface_edges=np.asarray(iface, dtype=np.int64).reshape(-1, 4),
        interface_sides=np.asarray(iside, dtype=np.int64),
        corner_vertex=mesh.corner_vertex,
        outer_boundary=outer,
        info=info,
    )
