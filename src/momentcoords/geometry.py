"""Geometric primitives and predicates for the supported node sets.

Tolerances are relative to the geometry diameter (the largest pairwise
vertex distance) so that every predicate is scale invariant.  Geometry
objects validate their invariants at construction, in one pass that keeps
the diameter (and a hexahedron's face planes), and are treated as immutable
afterwards.

The hexahedral conventions live here: REFERENCE_CUBE, the one table of
the reference cube's vertices, and HEX_FACES, the faces' cyclic vertex
order; every other hexahedral table derives from them.  A Hexahedron
keeps the face planes its validation fitted, the lines where opposite
supporting planes meet, and its faces as 2D quadrilaterals.

Point location is written once per element kind (_locate_quad,
_locate_hex), on Python floats for one point and arrays for a stack, so a
point is located alike alone or in a stack; the public classifiers wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations, compress

import numpy as np

from .errors import DegenerateEdge, InvalidGeometry

# Default classification tolerance, relative to the diameter.
CLASSIFY_RTOL = 1e-10
# Face planarity / solid convexity slack, relative to the diameter.
PLANARITY_RTOL = 1e-9
CONVEXITY_RTOL = 1e-9
# Edges shorter than this (absolute) cannot define a direction.
MIN_EDGE_LENGTH = 1e-13
OVERFLOW_MESSAGE = "vertex coordinates too large: pairwise distances overflow"


@dataclass(frozen=True)
class PointLocation:
    """Classification of a query point against a geometry.

    kind is one of "interior", "on_edge", "on_face", "at_vertex",
    "exterior"; index identifies the vertex/edge/face and t is the edge
    parameter in [0, 1] for "on_edge".  For "on_face", faces lists every
    face containing the point, lowest first (index is faces[0]).
    """

    kind: str
    index: int | None = None
    t: float | None = None
    faces: tuple[int, ...] = ()

    @property
    def inside(self) -> bool:
        return self.kind != "exterior"

    @property
    def on_boundary(self) -> bool:
        return self.kind in ("on_edge", "on_face", "at_vertex")


def signed_area(a, b, c) -> float:
    """Signed area of triangle (a, b, c); positive for counterclockwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    return 0.5 * float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _on_segment(a, b, c) -> bool:
    """True if collinear point c lies within the bounding box of segment ab."""
    return bool(
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def _segments_intersect(p1, p2, q1, q2) -> bool:
    """True if segments p1p2 and q1q2 cross, touch, or overlap."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _unit_scale(length: float) -> float:
    """1 / L for L the power of two with length < L <= 2 * length, or 2**1023
    for a subnormal length.  Multiplying by it is exact, so offsets taken in
    units of L keep their bits and no product of them overflows."""
    return math.ldexp(1.0, min(-math.frexp(length)[1], 1023))


def _quad_area(c) -> float:
    """Shoelace area of four corners c (a list of float pairs), taken about
    their centroid so it keeps its precision for far-translated geometry."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    cx, cy = (((x0 + x1) + x2) + x3) / 4, (((y0 + y1) + y2) + y3) / 4
    return sum(
        0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1])
    )


def _check_quad(v):
    """(violations, diameter, area) of a float vertex array, checked in one
    pass on Python floats (diameter and area None if it stopped before them)."""
    if v.shape != (4, 2):
        return [f"expected 4 vertices with 2 coordinates, got shape {v.shape}"], None, None
    c = v.tolist()
    if not all(math.isfinite(x) for corner in c for x in corner):
        return ["vertex coordinates must be finite"], None, None
    diffs = {(i, j): (c[i][0] - c[j][0], c[i][1] - c[j][1]) for i, j in combinations(range(4), 2)}
    dist = {ij: math.sqrt(dx * dx + dy * dy) for ij, (dx, dy) in diffs.items()}
    diam = max(dist.values())
    if not math.isfinite(diam):
        return [OVERFLOW_MESSAGE], None, None
    if diam == 0.0:
        return ["all vertices coincide"], None, None
    close = MIN_EDGE_LENGTH * max(diam, 1.0)
    out = [f"vertices {i} and {j} coincide" for (i, j), d in dist.items() if d <= close]
    area = _quad_area(c)
    if abs(area) <= 1e-12 * diam**2:
        out.append("vertices are collinear (zero total area)")
    # Simplicity: the two pairs of opposite edges must not cross or touch.
    for i, j in ((0, 2), (1, 3)):
        if _segments_intersect(c[i], c[(i + 1) % 4], c[j], c[(j + 1) % 4]):
            out.append(f"edges {i} and {j} intersect (polygon is not simple)")
    return out, diam, area


def quad_violations(vertices) -> list[str]:
    """Invariant violations for a raw 4 x 2 vertex array (empty means valid)."""
    return _check_quad(np.asarray(vertices, dtype=float))[0]


class Quadrilateral:
    """Four 2D vertices in cyclic order bounding a simple polygon.

    Orientation is normalized to counterclockwise at construction; a
    clockwise input is reversed in place (keeping vertex 0 first).  Indices
    are cyclic: edge i joins vertex i to vertex (i + 1) mod 4.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        violations, diameter, area = _check_quad(v)
        if violations:
            raise InvalidGeometry(violations)
        v = v[[0, 3, 2, 1]] if area < 0.0 else v.copy()
        v.flags.writeable = False
        self.vertices = v
        self.diameter = diameter

    @cached_property
    def corner_tuple(self) -> tuple:
        """Vertices as plain float pairs for scalar-arithmetic hot paths."""
        return tuple((float(x), float(y)) for x, y in self.vertices)

    @cached_property
    def edge_rows(self) -> tuple:
        """Per edge i, (ax, ay, by, ex, ey, |e|**2) as floats: vertex i,
        the y of vertex i + 1 and e = vertex i + 1 - vertex i."""
        c = self.corner_tuple
        out = []
        for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1]):
            ex, ey = bx - ax, by - ay
            out.append((ax, ay, by, ex, ey, ex * ex + ey * ey))
        return tuple(out)

    @cached_property
    def reproducing_kernel(self) -> tuple:
        """(nu, k, area2, scale), plain floats, for the closed-form
        coordinates.

        scale is 1 / L for L the power of two next to the diameter
        (_unit_scale).  nu spans the kernel of the constant and linear
        reproducing rows: nu_i is (-1)**i times twice the signed area of the
        corner triangle that leaves vertex i out (the other three in
        increasing order), in units of L**2.  k is the first
        index of the largest |nu_i|, and area2 = (-1)**k * nu_k is that
        triangle's twice signed area.  A simple quadrilateral has an
        interior diagonal, which splits it into two corner triangles, so
        triangle k holds at least half the area and is never flat.
        """
        s = _unit_scale(self.diameter)
        c = self.corner_tuple
        nu = []
        for i in range(4):
            (ax, ay), (bx, by), (cx, cy) = (c[j] for j in range(4) if j != i)
            area2 = ((bx - ax) * s) * ((cy - ay) * s) - ((by - ay) * s) * ((cx - ax) * s)
            nu.append(-area2 if i % 2 else area2)
        k = max(range(4), key=lambda i: abs(nu[i]))
        return tuple(nu), k, -nu[k] if k % 2 else nu[k], s

    @cached_property
    def _corner_crosses(self) -> np.ndarray:
        v = self.vertices
        out = np.empty(4)
        for i in range(4):
            e0 = v[(i + 1) % 4] - v[i]
            e1 = v[(i + 2) % 4] - v[(i + 1) % 4]
            out[i] = e0[0] * e1[1] - e0[1] * e1[0]
        return out

    @cached_property
    def is_convex(self) -> bool:
        return bool(self._corner_crosses.min() >= -1e-12 * self.diameter**2)

    def __repr__(self):
        return f"Quadrilateral({self.vertices.tolist()})"


def edge_distance(quad: Quadrilateral, i: int, p) -> float:
    """Distance from p to the supporting line of edge i.

    Signed positive on the interior side, so h_i(p) >= 0 everywhere inside
    a convex counterclockwise quadrilateral.
    """
    v = quad.vertices
    p = np.asarray(p, dtype=float)
    a = v[i % 4]
    b = v[(i + 1) % 4]
    e = b - a
    length = float(np.linalg.norm(e))
    if length < MIN_EDGE_LENGTH:
        raise DegenerateEdge(f"edge {i} has length {length:.3e}")
    return float(e[0] * (p[1] - a[1]) - e[1] * (p[0] - a[0])) / length


def outward_normal(quad: Quadrilateral, i: int) -> np.ndarray:
    """Unit normal of edge i pointing away from the interior (CCW order)."""
    v = quad.vertices
    a = v[i % 4]
    b = v[(i + 1) % 4]
    e = b - a
    length = float(np.linalg.norm(e))
    if length < MIN_EDGE_LENGTH:
        raise DegenerateEdge(f"edge {i} has length {length:.3e}")
    return np.array([e[1], -e[0]]) / length


def _smallest(values):
    """The smallest of values: a list of floats, or of arrays elementwise
    (np.minimum differs from min() only at NaN, which no point within the
    tolerance of the boundary gives).  A stack takes the first smallest's
    index by argmin, as list.index does for one point."""
    if isinstance(values[0], float):
        return min(values)
    return reduce(np.minimum, values)


# A stack's location kinds by code: exterior, interior, on an edge or face,
# at a vertex.
_QUAD_KINDS = np.array(["exterior", "interior", "on_edge", "at_vertex"])
_HEX_KINDS = np.array(["exterior", "interior", "on_face", "at_vertex"])


def _locate_quad(quad: Quadrilateral, x, y, tol: float):
    """Point location on a quadrilateral: (kind, index, t, dist).

    Takes one point as Python floats (x, y) or a stack as arrays (m,), and
    compares the same numbers with tol on both.  Vertex snapping comes
    first (squared distances against tol**2), then edges (the distance to
    the foot at edge parameter t), each taking the first of equally near
    candidates; otherwise even-odd ray crossing decides, which is valid for
    nonconvex simple polygons.  A horizontal edge never straddles the ray,
    so a stack skips it and nothing divides by zero.

    index is the vertex or edge, t the edge parameter ("on_edge") and dist
    the distance to the nearest edge.  One point returns as soon as its
    kind is known, with None for what it did not compute or has none of;
    a stack has index -1 and t NaN there.
    """
    one = isinstance(x, float)
    sqrt = math.sqrt if one else np.sqrt
    d2, ts, dists, inside = [], [], [], False
    for ax, ay, by, ex, ey, ee in quad.edge_rows:
        qx, qy = x - ax, y - ay
        d2.append(qx * qx + qy * qy)
        t = (qx * ex + qy * ey) / ee
        # The two clamps may differ only in the sign of a zero t, which only
        # a point at vertex a gets.
        t = min(max(t, 0.0), 1.0) if one else np.clip(t, 0.0, 1.0)
        dx, dy = qx - t * ex, qy - t * ey
        ts.append(t)
        dists.append(sqrt(dx * dx + dy * dy))
        if one:
            if (ay > y) != (by > y) and x < ax + qy * ex / ey:
                inside = not inside
        elif ey != 0.0:
            inside = inside ^ (((ay > y) != (by > y)) & (x < ax + qy * ex / ey))
    nearest2 = _smallest(d2)
    vertex = nearest2 <= tol * tol
    if one and vertex:
        return "at_vertex", d2.index(nearest2), None, None
    dist = _smallest(dists)
    edge = dist <= tol
    if one:
        if edge:
            e = dists.index(dist)
            return "on_edge", e, ts[e], dist
        return ("interior" if inside else "exterior"), None, None, dist
    index, t = np.full(len(x), -1), np.full(len(x), np.nan)
    rows = np.flatnonzero(edge & ~vertex)
    index[rows] = e = np.array(dists)[:, rows].argmin(axis=0)
    t[rows] = np.array(ts)[e, rows]
    rows = np.flatnonzero(vertex)
    index[rows] = np.array(d2)[:, rows].argmin(axis=0)
    return _QUAD_KINDS[np.where(vertex, 3, np.where(edge, 2, inside))], index, t, dist


def classify_point_quad(quad: Quadrilateral, p, tol: float | None = None) -> PointLocation:
    """Classify p as at a vertex, on an edge, interior, or exterior.

    Snapping precedence is vertex before edge.  Interior/exterior uses
    even-odd ray crossing, which is valid for nonconvex simple polygons.
    """
    if tol is None:
        tol = CLASSIFY_RTOL * quad.diameter
    kind, index, t, _ = _locate_quad(quad, float(p[0]), float(p[1]), tol)
    return PointLocation(kind, index, t)


def classify_points_quad(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """Classify each row of points (m, 2); returns (kind, index) arrays.

    kind[s] and index[s] (-1 where the location has none) are the kind and
    index classify_point_quad gives for points[s]: both run _locate_quad.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    # Quiet where a point is not finite or its squared distances overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        kind, index, _, _ = _locate_quad(quad, pts[:, 0], pts[:, 1], CLASSIFY_RTOL * quad.diameter)
    return kind, index


class NodeSet1D:
    """n >= 3 strictly increasing nodes on an interval."""

    def __init__(self, nodes):
        x = np.asarray(nodes, dtype=float)
        violations = nodes_violations(x)
        if violations:
            raise InvalidGeometry(violations)
        x = x.copy()
        x.flags.writeable = False
        self.nodes = x

    def __len__(self):
        return self.nodes.shape[0]

    @cached_property
    def span(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])

    @cached_property
    def node_tuple(self) -> tuple:
        """Nodes as plain floats for the single-point locator and fold."""
        return tuple(self.nodes.tolist())

    @cached_property
    def unit_scale(self) -> float:
        """1 / L for L the power of two next to the span (_unit_scale);
        offsets x_j - x are taken in units of L."""
        return _unit_scale(self.span)

    def __repr__(self):
        return f"NodeSet1D({self.nodes.tolist()})"


def nodes_violations(nodes) -> list[str]:
    x = np.asarray(nodes, dtype=float)
    if x.ndim != 1:
        return [f"nodes must be a 1D array, got shape {x.shape}"]
    if x.shape[0] < 3:
        return [f"need at least 3 nodes, got {x.shape[0]}"]
    if not np.all(np.isfinite(x)):
        return ["nodes must be finite"]
    if not math.isfinite(float(x[-1]) - float(x[0])):
        return [OVERFLOW_MESSAGE]
    if not np.all(np.diff(x) > 0):
        return ["nodes must be strictly increasing"]
    return []


# The reference cube [-1, 1]^3: vertex i sits at REFERENCE_CUBE[i].  The
# hexahedral moment system asks the frame coordinates of v_i - p to carry
# the signs of row i, and every other hexahedral table derives from it.
REFERENCE_CUBE = np.array(
    [
        (+1, +1, +1),
        (+1, +1, -1),
        (+1, -1, -1),
        (+1, -1, +1),
        (-1, +1, +1),
        (-1, +1, -1),
        (-1, -1, -1),
        (-1, -1, +1),
    ],
    dtype=float,
)
REFERENCE_CUBE.flags.writeable = False

# Face 2k of the cube is its side where coordinate k is +1, face 2k + 1 the
# side where it is -1; HEX_FACES lists each face's vertices in cyclic order.
HEX_FACES = (
    (0, 1, 2, 3),
    (4, 5, 6, 7),
    (0, 1, 5, 4),
    (3, 2, 6, 7),
    (0, 3, 7, 4),
    (1, 2, 6, 5),
)
# Pair k holds the two faces of coordinate k, which sign-pattern row k separates.
HEX_OPPOSITE_PAIRS = tuple((2 * k, 2 * k + 1) for k in range(3))
# Outward unit normals of the cube's faces, in HEX_FACES order.
REFERENCE_NORMALS = np.repeat(np.eye(3), 2, axis=0) * np.tile([[1.0], [-1.0]], (3, 1))
REFERENCE_NORMALS.flags.writeable = False
# HEX_FACE_VERTICES[f, i] is True when vertex i lies on face f.
HEX_FACE_VERTICES = REFERENCE_NORMALS @ REFERENCE_CUBE.T > 0
HEX_FACE_VERTICES.flags.writeable = False
_HEX_FACE_INDEX = np.array(HEX_FACES)  # v[_HEX_FACE_INDEX] stacks the faces


def _fit_planes(points):
    """Least-squares planes through each stack of points (k, m, 3): the points
    about their centroids, the centroids (k, 3) and the right singular
    vectors (k, 3, 3), two rows spanning each plane and the last its normal."""
    c = points.mean(axis=1)
    q = points - c[:, None]
    return q, c, np.linalg.svd(q, full_matrices=False)[2]


def hex_violations(vertices) -> list[str]:
    """Invariant violations for a raw 8 x 3 vertex array (empty means valid)."""
    return _check_hex(np.asarray(vertices, dtype=float))[0]


def _check_hex(v):
    """(violations, planes, diameter) of a float vertex array in one pass
    over stacked tables (vertex distances, plane fits, vertex-to-plane
    distances, in-plane coordinates); planes holds each face's (outward unit
    normal, centroid) when v is valid.  The planarity and convexity slacks
    are no finer than 4 ulps of the largest coordinate, which rounding the
    vertices alone can cost (Shewchuk 1997).
    """
    if v.shape != (8, 3):
        return [f"expected 8 vertices with 3 coordinates, got shape {v.shape}"], (), None
    if not np.isfinite(v).all():
        return ["vertex coordinates must be finite"], (), None
    with np.errstate(over="ignore"):
        dist = np.sqrt(((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2))
    diam = float(dist.max())
    if not math.isfinite(diam):
        return [OVERFLOW_MESSAGE], (), None
    if diam == 0.0:
        return ["all vertices coincide"], (), None
    close = np.argwhere(dist <= MIN_EDGE_LENGTH * max(diam, 1.0)).tolist()
    out = [f"vertices {i} and {j} coincide" for i, j in close if i < j]
    if out:
        return out, (), None
    floor = 4.0 * np.finfo(float).eps * float(np.abs(v).max())
    q, c, basis = _fit_planes(v[_HEX_FACE_INDEX])
    n = basis[:, 2]
    offset = np.abs(q @ n[..., None]).max(axis=(1, 2))
    n[((c - v.mean(axis=0))[:, None] @ n[..., None]).ravel() < 0] *= -1.0
    worst = ((v - c[:, None]) @ n[..., None]).max(axis=(1, 2))
    planar = offset <= max(PLANARITY_RTOL * diam, floor)
    convex = worst <= max(CONVEXITY_RTOL * diam, floor)
    # Isometric in-plane coordinates of each face's vertices (6, 4, 2).
    face2d = q @ basis[:, :2].transpose(0, 2, 1)
    for f, idx in enumerate(HEX_FACES):
        if not planar[f]:
            corners = tuple(i + 1 for i in idx)
            out.append(f"face {f} {corners} is not planar (offset {offset[f]:.3e})")
            continue
        if not convex[f]:
            out.append(f"vertex protrudes {worst[f]:.3e} beyond face {f} (solid not convex)")
        if _check_quad(face2d[f])[0]:
            out.append(f"face {f} is not a simple quadrilateral")
    return (out, (), None) if out else (out, tuple(zip(n, c)), diam)


class Hexahedron:
    """Eight 3D vertices with six planar quadrilateral faces, convex.

    The vertex order must follow the reference-cube sign convention used by
    the hexahedral moment system (vertex i of the cube [-1,1]^3 is
    REFERENCE_CUBE[i]); no automatic reordering is done.  Keeps the face
    planes its validation fitted (face_planes), and on first use the pair
    lines (pair_lines), each face's 2D quadrilateral (face_to_plane) and
    the Python-float copies that point location and the frame rule read
    (corner_tuple, plane_rows, face_normals).
    """

    FACES = HEX_FACES
    OPPOSITE_PAIRS = HEX_OPPOSITE_PAIRS

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        violations, planes, diameter = _check_hex(v)
        if violations:
            raise InvalidGeometry(violations)
        v = v.copy()
        v.flags.writeable = False
        self.vertices = v
        # Per face (outward unit normal, centroid), and the diameter: kept
        # from _check_hex.
        self.face_planes = planes
        self.diameter = diameter
        # face_to_plane's result per face index, filled on first use.
        self._face_quads: dict[int, tuple] = {}

    @cached_property
    def pair_lines(self) -> tuple:
        """Per opposite-face pair: (line, bisector), exactly one of them None.

        line is (unit direction, point on the line, positive-face centroid)
        of the line where the pair's supporting planes meet, each a tuple of
        floats; when the planes are parallel (|n_a x n_b| < 1e-9) it is None
        and bisector is the unit normal bisector n_a - n_b instead, also a
        tuple of floats.
        """
        out = []
        for fa, fb in self.OPPOSITE_PAIRS:
            na, ca = self.face_planes[fa]
            nb, cb = self.face_planes[fb]
            u = np.cross(na, nb)
            norm_u = np.linalg.norm(u)
            if norm_u < 1e-9:
                m = na - nb
                out.append((None, tuple((m / np.linalg.norm(m)).tolist())))
                continue
            u = u / norm_u
            x0 = np.linalg.solve(np.vstack([na, nb, u]), np.array([na @ ca, nb @ cb, 0.0]))
            out.append(((tuple(u.tolist()), tuple(x0.tolist()), tuple(ca.tolist())), None))
        return tuple(out)

    @cached_property
    def corner_tuple(self) -> tuple:
        """Vertices as plain float triples for the single-point frame."""
        return tuple(map(tuple, self.vertices.tolist()))

    @cached_property
    def face_normals(self) -> tuple:
        """The outward unit normals of face_planes as float triples."""
        return tuple(tuple(n.tolist()) for n, _ in self.face_planes)

    @cached_property
    def unit_scale(self) -> float:
        """1 / L for L the power of two next to the diameter (_unit_scale):
        the 8 x 8 system takes the frame coordinates in units of L."""
        return _unit_scale(self.diameter)

    @cached_property
    def plane_rows(self) -> tuple:
        """Per face, the outward unit normal's x, y and z components and the
        plane's offset n . c, as four floats."""
        return tuple((*n.tolist(), float(n @ c)) for n, c in self.face_planes)

    def _signed_distances(self, x, y, z) -> list:
        """The outward signed distances of (x, y, z) to the six supporting
        planes, floats for one point or arrays for a stack.

        n_x x + n_y y + n_z z - offset is spelled out elementwise rather
        than taken as a matrix product, whose rounding depends on the BLAS
        kernel and the batch size: one point gets the same bits alone or in
        a batch."""
        return [a * x + b * y + c * z - d for a, b, c, d in self.plane_rows]

    def face_signed_distances(self, p) -> np.ndarray:
        """Outward signed distance of p (3,) or of each row of p (m, 3) to
        each supporting face plane: shape (6,) or (m, 6)."""
        p = np.asarray(p, dtype=float)
        return np.stack(self._signed_distances(p[..., 0], p[..., 1], p[..., 2]), axis=-1)

    def __repr__(self):
        return f"Hexahedron({self.vertices.tolist()})"


def face_to_plane(hexa: Hexahedron, f: int):
    """Face f as a 2D quadrilateral in isometric in-plane coordinates.

    Returns (Quadrilateral, to2d) where to2d(x, y, z) maps an on-face 3D
    point to its 2D coordinates, a pair of floats for one point or of
    arrays for a stack, with the same elementwise arithmetic.  Vertex order
    matches HEX_FACES[f]; the in-plane basis is mirrored if needed so that
    order is already counterclockwise and the constructor does not reorder.
    Kept by the hexahedron after the first call.
    """
    hit = hexa._face_quads.get(f)
    if hit is not None:
        return hit
    pts = hexa.vertices[list(HEX_FACES[f])]
    n, c = hexa.face_planes[f]
    # Isometric in-plane axes: u along the face's first edge, w = n x u.
    ref = pts[1] - pts[0]
    u = ref - (ref @ n) * n
    u = u / np.linalg.norm(u)
    w = np.cross(n, u)
    verts2d = np.column_stack([(pts - c) @ u, (pts - c) @ w])
    if _quad_area(verts2d.tolist()) < 0:
        w = -w
        verts2d = np.column_stack([verts2d[:, 0], -verts2d[:, 1]])
    (cx, cy, cz), (ux, uy, uz), (wx, wy, wz) = c.tolist(), u.tolist(), w.tolist()

    def to2d(x, y, z):
        qx, qy, qz = x - cx, y - cy, z - cz
        return qx * ux + qy * uy + qz * uz, qx * wx + qy * wy + qz * wz

    hexa._face_quads[f] = result = (Quadrilateral(verts2d), to2d)
    return result


_NO_FACES = (False,) * 6


def _locate_hex(hexa: Hexahedron, x, y, z):
    """Point location on a hexahedron: (kind, index, on).

    Takes one point as Python floats or a stack as arrays (m,), and
    compares the same numbers with the tolerance on both: the vertex
    distances, the face signed distances and, within the tolerance of a
    face plane, the face quadrilateral's _locate_quad.  Vertex snapping
    wins; a point beyond any plane is exterior; interior means strictly
    inside all six.  index is the vertex or the lowest containing face
    (None or -1 where there is none); on holds the six containing-face
    flags, bools or arrays (m,), which the frame rule takes as they are.
    One point returns as soon as its kind is known.
    """
    one = isinstance(x, float)
    tol = CLASSIFY_RTOL * hexa.diameter
    sqrt = math.sqrt if one else np.sqrt
    dv = [
        sqrt((vx - x) * (vx - x) + (vy - y) * (vy - y) + (vz - z) * (vz - z))
        for vx, vy, vz in hexa.corner_tuple
    ]
    nearest = _smallest(dv)
    vertex = nearest <= tol
    if one and vertex:
        return "at_vertex", dv.index(nearest), _NO_FACES
    s = hexa._signed_distances(x, y, z)
    outside, inner = False, True
    for sf in s:
        outside = outside | (sf > tol)
        inner = inner & (sf < -tol)
    if one and outside:
        return "exterior", None, _NO_FACES
    # One point that got here is neither at a vertex nor outside.
    candidate = True if one else ~(vertex | outside)
    on = []
    for f, sf in enumerate(s):
        near = (abs(sf) <= tol) & candidate
        if one:
            if near:
                quad2d, to2d = face_to_plane(hexa, f)
                near = _locate_quad(quad2d, *to2d(x, y, z), tol)[0] != "exterior"
            on.append(near)
            continue
        rows = np.flatnonzero(near)
        flags = np.zeros(len(x), dtype=bool)
        if rows.size:
            quad2d, to2d = face_to_plane(hexa, f)
            flags[rows] = _locate_quad(quad2d, *to2d(x[rows], y[rows], z[rows]), tol)[0] != "exterior"
        on.append(flags)
    if one:
        if True in on:
            return "on_face", on.index(True), tuple(on)
        return ("interior" if inner else "exterior"), None, _NO_FACES
    on = np.array(on)
    on_face = on.any(axis=0)
    index = np.where(on_face, on.argmax(axis=0), -1)
    rows = np.flatnonzero(vertex)
    index[rows] = np.array(dv)[:, rows].argmin(axis=0)
    return _HEX_KINDS[np.where(vertex, 3, np.where(on_face, 2, candidate & inner))], index, on


def face_of_point_hex(hexa: Hexahedron, p) -> PointLocation:
    """Classify p against a hexahedron.

    Vertex snapping wins over faces; points on edges or corners report the
    lowest-index containing face, and every containing face in faces.
    Interior means strictly inside all six supporting planes.
    """
    kind, index, on = _locate_hex(hexa, float(p[0]), float(p[1]), float(p[2]))
    return PointLocation(kind, index, faces=tuple(compress(range(6), on)))


def faces_containing(hexa: Hexahedron, p) -> list[int]:
    """The faces face_of_point_hex puts p on, lowest first: faces whose
    plane passes within CLASSIFY_RTOL * diameter of p and whose
    quadrilateral contains (the projection of) p, and none at a vertex,
    which snapping takes first, or outside the solid."""
    return list(face_of_point_hex(hexa, p).faces)


def face_of_points_hex(hexa: Hexahedron, points) -> tuple[np.ndarray, np.ndarray]:
    """Classify each row of points (m, 3); returns (kind, index) arrays.

    kind[s] and index[s] (-1 where the location has none) are the kind and
    index face_of_point_hex gives for points[s]: both run _locate_hex.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    kind, index, _ = _locate_hex(hexa, pts[:, 0], pts[:, 1], pts[:, 2])
    return kind, index


def validate_geometry(geom) -> list[str]:
    """Invariant violations for a constructed geometry (empty list = ok)."""
    if isinstance(geom, Quadrilateral):
        return quad_violations(geom.vertices)
    if isinstance(geom, Hexahedron):
        return hex_violations(geom.vertices)
    if isinstance(geom, NodeSet1D):
        return nodes_violations(geom.nodes)
    raise TypeError(f"unsupported geometry type {type(geom).__name__}")
