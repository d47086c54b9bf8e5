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

Every triangle is counter-clockwise.  A mesh whose triangles are not is
refused with MeshError, not repaired: a folded mesh is no conforming
Dirichlet subspace, so its Ritz values would not be upper bounds and its
count no lower bound.  A mesh of more than 2^20 vertices is refused with
MeshError too, from its vertex count, before any of its arrays is built.

Meshes are built from index arrays.  Vertex 0 is the corner; the other
vertices are numbered ring by ring (disk) or column by column (strip), with
the minus copy of a ray vertex right after its plus copy.  Triangles come
cell by cell in the same order.  This numbering is fixed on purpose: the
pencil, its eigenvectors and hence the byte-identical `fem-count` artifacts
depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..model import ParameterError, PhysParams, derived_constants
from ..variational import critical_angle_maximize

__all__ = ["Mesh", "MeshError", "build_mesh", "build_strip_mesh",
           "uniform_refine"]

SIDE_LEFT = 0   # upper ray, polar angle +omega
SIDE_RIGHT = 1  # lower ray, polar angle -omega
CORNER = 0      # vertex index of the corner, in every mesh
# Most vertices a builder makes: assembly peaks at about 1.3 kB per vertex
# (1.27 kB on a 264 037-vertex strip), so 2^20 vertices take about 1.3 GB.
# The thin-wedge default strip has 26 437.
_MAX_VERTICES = 2 ** 20


class MeshError(ParameterError):
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
    outer_boundary: np.ndarray    # (nv,) bool, Dirichlet vertices
    info: dict = field(default_factory=dict)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_dofs(self) -> int:
        """Complex spinor DOFs before constraint elimination."""
        return 2 * self.n_vertices


def _doubled_areas(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    d1 = v[t[:, 1]] - v[t[:, 0]]
    d2 = v[t[:, 2]] - v[t[:, 0]]
    return d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]


def _check_size(kind: str, n_vertices) -> None:
    """Refuse a mesh of more than _MAX_VERTICES vertices, called with a
    lower bound on its vertex count before any of its arrays is made."""
    if n_vertices > _MAX_VERTICES:
        raise MeshError(f"the {kind} mesh needs at least {n_vertices:.6g} "
                        f"vertices, more than {_MAX_VERTICES}")


def _split_cells(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Triangles (a, b, c), (a, c, d) of every cell between two id columns.

    Cell (i, j) has a = lo[i, j], b = lo[i + 1, j], c = hi[i + 1, j] and
    d = hi[i, j]; cells come row by row.  Halves with a repeated vertex,
    where a row collapses to the corner, are dropped, so the fan around the
    corner is the first row of cells.
    """
    a, b, c, d = lo[:-1], lo[1:], hi[1:], hi[:-1]
    tris = np.stack([np.stack([a, b, c], axis=-1),
                     np.stack([a, c, d], axis=-1)], axis=-2).reshape(-1, 3)
    distinct = ((tris[:, 0] != tris[:, 1]) & (tris[:, 1] != tris[:, 2])
                & (tris[:, 2] != tris[:, 0]))
    return tris[distinct]


def _ray_edges(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """Interface rows of consecutive plus/minus copies along one ray."""
    return np.column_stack([plus[:-1], plus[1:], minus[:-1], minus[1:]])


def _mesh(vertices: np.ndarray, triangles: np.ndarray, iface: np.ndarray,
          sides: np.ndarray, outer: np.ndarray, info: dict) -> Mesh:
    """The one constructor of a Mesh: refuses a triangle that is not
    counter-clockwise; ``outer`` indexes the Dirichlet vertices."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        area2 = _doubled_areas(vertices, triangles)
    bad = ~(area2 > 0.0)   # NaN included
    if np.any(bad):
        i = int(np.argmax(bad))
        raise MeshError(f"triangle {tuple(triangles[i].tolist())} is "
                        f"degenerate or clockwise: doubled area {area2[i]:.6g}")
    boundary = np.zeros(vertices.shape[0], dtype=bool)
    boundary[outer] = True
    return Mesh(vertices=vertices, triangles=triangles,
                interface_edges=iface.reshape(-1, 4), interface_sides=sides,
                outer_boundary=boundary, info=info)


def build_mesh(p: PhysParams, R: float | None = None, h: float | None = None,
               grading: float = 2.0) -> Mesh:
    """Radially graded disk of radius R around the corner.

    Rings at r_i = R (i/Nr)^grading share one angular subdivision that
    contains both ray angles exactly, so the rays are unions of radial mesh
    edges.  R defaults to ten Compton lengths 10/m and h to 0.35/m, so the
    default mesh scales with the problem, as the strip's defaults do.
    Raises MeshError when h cannot resolve the wedge opening (thin wedges
    should use build_strip_mesh instead).
    """
    if R is None:
        R = 10.0 / p.m
    if h is None:
        h = 0.35 / p.m
    if not (0.0 < R < math.inf and 0.0 < h < math.inf):
        raise MeshError(f"need R > 0 and h > 0, got R={R}, h={h}")
    if grading < 1.0:
        raise MeshError(f"grading exponent must be >= 1, got {grading}")
    w = p.omega
    if h > w * R:
        raise MeshError(
            f"h={h} cannot resolve the wedge opening; need h <= omega*R = "
            f"{w * R:.6g} (or the strip mesh for thin wedges)"
        )
    _check_size("disk", R / h)   # rings alone: keeps the counts below finite

    n1 = max(2, int(math.ceil(2.0 * w * R / h)))          # arc [-w, w]
    n2 = max(4, int(math.ceil((2.0 * math.pi - 2.0 * w) * R / h)))
    ntheta = n1 + n2                                       # distinct angles
    nr = max(2, int(math.ceil(R / h)))
    _check_size("disk", 1 + nr * (ntheta + 2))
    ang = np.concatenate([
        np.linspace(-w, w, n1 + 1),
        np.linspace(w, 2.0 * math.pi - w, n2 + 1)[1:-1],
    ])
    radii = R * (np.arange(1, nr + 1) / nr) ** grading

    # Each ring lists its vertices by angle, the ray angles j = 0 (theta=-w)
    # and j = n1 (theta=+w) twice: plus copy, then minus copy.
    slot_angle = np.insert(np.arange(ntheta), [1, n1 + 1], [0, n1])
    th = ang[slot_angle]
    ring_xy = np.stack([radii[:, None] * np.cos(th),
                        radii[:, None] * np.sin(th)], axis=-1)
    vertices = np.concatenate([np.zeros((1, 2)), ring_xy.reshape(-1, 2)])

    # ids by (ring, angle) with the corner as ring 0
    ring_ids = np.pad(1 + np.arange(nr * th.size).reshape(nr, -1),
                      ((1, 0), (0, 0)))
    plus = np.delete(ring_ids, [1, n1 + 2], axis=1)        # (nr + 1, ntheta)
    minus = ring_ids[:, [1, n1 + 2]]                       # cols: j=0, j=n1

    wedge = plus[:, :n1 + 1]
    outside = np.column_stack([minus[:, 1], plus[:, n1 + 1:], minus[:, 0]])
    triangles = _split_cells(
        np.column_stack([wedge[:, :-1], outside[:, :-1]]),
        np.column_stack([wedge[:, 1:], outside[:, 1:]]),
    )
    iface = np.concatenate([_ray_edges(plus[:, n1], minus[:, 1]),
                            _ray_edges(plus[:, 0], minus[:, 0])])
    sides = np.repeat([SIDE_LEFT, SIDE_RIGHT], nr)

    return _mesh(vertices, triangles, iface, sides, ring_ids[-1], {
        "kind": "disk", "R": R, "h": h, "grading": grading,
        "rings": nr, "angles": ntheta,
    })


def build_strip_mesh(p: PhysParams, x_max: float | None = None,
                     nx: int = 480, wedge_rows: int = 8, outer_rows: int = 18,
                     width: float | None = None,
                     outer_grading: float = 1.7) -> Mesh:
    """Anisotropic mesh of [0, x_max] x [-(x tan w + width), x tan w + width].

    Inside the wedge the rows fan out from the corner at fractions of the
    local half-height x tan(omega); outside they follow the rays at graded
    offsets s_j = width (j/outer_rows)^outer_grading.  Row anisotropy is
    aligned with the certificate test function (flat across the wedge,
    exponential across the shell), so thin triangles are harmless here.
    ``x_max`` defaults to three certificate strip lengths L_star (N = 1)
    for tau < 0, ``width`` to five transverse decay lengths 1/|kappa0|.
    For tau > 0 there is no certificate and no L_star: the pencil satisfies
    A >= m^2 B on every mesh, so the count is 0 whatever the length, which
    then only sets how far the lowest Ritz values sit above m^2; it
    defaults to ten Compton lengths 10/m.
    """
    if x_max is None:
        x_max = (10.0 / p.m if p.tau > 0.0
                 else 3.0 * critical_angle_maximize(p, 1)[1])
    if width is None:
        width = 5.0 / abs(derived_constants(p).kappa0)
    if not (0.0 < x_max < math.inf and 0.0 < width < math.inf):
        raise MeshError(f"need x_max > 0 and width > 0, got {x_max}, {width}")
    if nx < 2 or wedge_rows < 1 or outer_rows < 2:
        raise MeshError(
            f"need nx >= 2, wedge_rows >= 1, outer_rows >= 2; "
            f"got {nx}, {wedge_rows}, {outer_rows}"
        )
    if not outer_grading > 0.0:
        raise MeshError(
            f"outer grading exponent must be > 0, got {outer_grading}")
    _check_size("strip", 1 + 2 * outer_rows
                + nx * (2 * wedge_rows + 3 + 2 * outer_rows))
    slope = math.tan(p.omega)
    xs = np.linspace(0.0, x_max, nx + 1)
    s_off = width * (np.arange(1, outer_rows + 1) / outer_rows) ** outer_grading

    kw = wedge_rows
    frac = np.arange(-kw, kw + 1) / kw                     # row fractions
    # Each column x_i lists the wedge rows bottom to top, the minus copies
    # of the upper and lower ray points, then the outer rows in (upper,
    # lower) pairs.  At x = 0 the wedge rows and ray points are the corner.
    n_in = 2 * kw + 3
    ytop = xs * slope
    y_out = ytop[:, None] + s_off
    y_pairs = np.stack([y_out, -y_out], axis=-1).reshape(nx + 1, -1)
    y = np.column_stack([ytop[:, None] * frac, ytop, -ytop, y_pairs])
    xy = np.stack([np.broadcast_to(xs[:, None], y.shape), y], axis=-1)
    vertices = np.concatenate([np.zeros((1, 2)), xy[0, n_in:],
                               xy[1:].reshape(-1, 2)])

    ids = np.zeros(y.shape, dtype=np.int64)
    ids[0, n_in:] = 1 + np.arange(y.shape[1] - n_in)
    ids[1:] = 1 + ids[0, -1] + np.arange(nx * y.shape[1]).reshape(nx, -1)
    wedge_ids = ids[:, :2 * kw + 1]
    ray_minus = ids[:, 2 * kw + 1:n_in]                    # cols: up, down
    out_up, out_dn = ids[:, n_in::2], ids[:, n_in + 1::2]

    # wedge interior (fanning out of the corner), then the exterior rows,
    # each region with y increasing along the second axis
    upper = np.column_stack([ray_minus[:, 0], out_up])
    lower = np.column_stack([out_dn[:, ::-1], ray_minus[:, 1]])
    triangles = np.concatenate([_split_cells(g[:, :-1], g[:, 1:])
                                for g in (wedge_ids, upper, lower)])
    iface = np.stack([_ray_edges(wedge_ids[:, -1], ray_minus[:, 0]),
                      _ray_edges(wedge_ids[:, 0], ray_minus[:, 1])], axis=1)
    sides = np.tile([SIDE_LEFT, SIDE_RIGHT], nx)
    outer = np.concatenate([ids[0], ids[-1], ids[:, -2], ids[:, -1]])

    return _mesh(vertices, triangles, iface, sides, outer, {
        "kind": "strip", "x_max": x_max, "nx": nx, "wedge_rows": wedge_rows,
        "outer_rows": outer_rows, "width": width,
        "outer_grading": outer_grading,
    })


def uniform_refine(mesh: Mesh) -> Mesh:
    """Midpoint subdivision: each triangle into four, nested P1 spaces.

    Interface midpoints inherit the two-copy structure automatically because
    the plus-side and minus-side parent edges are distinct index pairs.  A
    midpoint is on the outer boundary only when its parent edge is: it lies
    in exactly one triangle and is not a ray side (each side of a ray is in
    one triangle too).  An interior edge between two boundary vertices keeps
    an interior midpoint.  Midpoints are numbered after the parent vertices,
    in the order their edges first appear as (ab, bc, ca) of the triangles.
    """
    nv = mesh.n_vertices

    def keys(pairs: np.ndarray) -> np.ndarray:
        return pairs.min(axis=1) * nv + pairs.max(axis=1)

    ends = mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    edge_keys, first, inverse, counts = np.unique(
        keys(ends), return_index=True, return_inverse=True,
        return_counts=True)
    order = np.argsort(first)          # unique edges by first appearance
    number = nv + np.argsort(order)    # midpoint id of each unique edge
    mid_xy = mesh.vertices[ends[first[order]]]

    def mid(pairs: np.ndarray) -> np.ndarray:
        return number[np.searchsorted(edge_keys, keys(pairs))]

    # columns a, b, c, ab, bc, ca -> (a, ab, ca), (ab, b, bc), (ca, bc, c),
    # (ab, bc, ca)
    abc = np.column_stack([mesh.triangles, number[inverse].reshape(-1, 3)])
    tris = abc[:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]].reshape(-1, 3)
    # columns p0, p1, m0, m1, pm, mm -> (p0, pm, m0, mm), (pm, p1, mm, m1)
    ie = mesh.interface_edges
    ie = np.column_stack([ie, mid(ie[:, :2]), mid(ie[:, 2:])])
    iface = ie[:, [0, 4, 2, 5, 4, 1, 5, 3]].reshape(-1, 4)
    ray_keys = np.concatenate([keys(ie[:, :2]), keys(ie[:, 2:4])])
    outer_mid = (counts == 1) & ~np.isin(edge_keys, ray_keys)

    info = dict(mesh.info)
    info["refined"] = info.get("refined", 0) + 1
    return _mesh(
        np.concatenate([mesh.vertices, (mid_xy[:, 0] + mid_xy[:, 1]) / 2.0]),
        tris, iface, np.repeat(mesh.interface_sides, 2),
        np.concatenate([mesh.outer_boundary, outer_mid[order]]), info)
