"""Geometric primitives and predicates for the supported node sets.

The tolerances the predicates read, each with its unit, are lines of
the table in momentcoords.tolerances, not constants here.  Geometry
objects validate their invariants at construction, in one pass per element
kind on Python floats (_check_quad, _check_hex, _check_nodes), and are
treated as immutable afterwards.  Each keeps from that pass the diameter
(an interval: its span) and the float tables its evaluator reads: a
quadrilateral's corner_tuple, an interval's node_tuple, a hexahedron's
corner_tuple, face_normals and plane_rows, and the centroids of the
planes its validation fitted.  What the evaluators derive from those (a
quadrilateral's edge rows and reproducing kernel, its corner crosses, a
hexahedron's pair_lines) is taken on first use.  The set-up is written as
straight-line float arithmetic (_check_quad, the reproducing kernel,
_face_is_simple, the tables of _check_hex, pair_lines): each quantity
spelled out once, in the order of its formula, with no dict, closure or
generator around it, because a mesh builds many elements and evaluates
each at a few points.  A quadrilateral's validation and tables
(_check_quad, _edge_rows, _reproducing_kernel) take (k,) arrays as well,
elementwise in the same order, for QuadStack.from_corners.

The hexahedral conventions live here: REFERENCE_CUBE, the one table of
the reference cube's vertices, and HEX_FACES, the faces' cyclic vertex
order; every other hexahedral table (HEX_EDGES, HEX_OPPOSITE_PAIRS,
HEX_FACE_VERTICES, ...) derives from them, and each goes by that one name.
Each element class names its kind ("quad", "hex", "interval") in kind, the
key of the tables that dispatch on it.

Point location is decided in one place per element kind (_locate_quad,
_locate_hex), on Python floats for one point and arrays for a stack, so a
point is located alike alone or in a stack.  Each locator takes its
tolerance, CLASSIFY_RTOL times the diameter, from the element it is given
and returns the location codes LOC_EXTERIOR, LOC_INTERIOR, LOC_FACET and
LOC_VERTEX, an int for one point and int8 for a stack.  Every evaluator of
the package and the quadrilateral sampler call a locator directly and
compare its codes; the kind names (QUAD_KINDS, HEX_KINDS) and PointLocation
are built only in the single-point classifiers (classify_point_quad,
face_of_point_hex, faces_containing), for callers outside the package.
A QuadStack holds many quadrilaterals for one batch call, each row with
its own element's tables as arrays in place of floats, so that
_locate_quad (with each row's own tolerance) and the closed form of
coords2d run on it unchanged.  Every batch evaluator returns the location
it computed as a BatchInfo of codes, with a cause code per row, last in its
tuple, so no caller locates its points again.
"""

from __future__ import annotations

import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, compress
from operator import itemgetter

import numpy as np

from .errors import InvalidGeometry
from .tolerances import (
    CLASSIFY_RTOL,
    CONVEXITY_RTOL,
    CONVEX_CORNER_RTOL,
    MIN_EDGE_LENGTH,
    PARALLEL_TOL,
    PLANARITY_RTOL,
    SLACK_FLOOR_ULPS,
    ZERO_AREA_RTOL,
)

OVERFLOW_MESSAGE = "vertex coordinates too large: pairwise distances overflow"
UNDERFLOW_MESSAGE = "vertex coordinates too small: pairwise distances underflow"


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


# The most points one stacked pass holds: grid's chunks and its derivative
# offsets, a suite's samples, a sampler's attempts.  Callers read it when
# called, so one setting covers them all.  It bounds the length of every
# (m,) entry array the stacked passes hold at once, the largest set being a
# hexahedron's: its assembled 8 x 8 rows and the entries its elimination
# builds from them.  An entry of 4096 floats is 32 KB, so those come to a
# few MB, and each numpy call of a chunk still spans 4096 points.
BATCH_CHUNK = 4096

# Why a batch row has weights or not, by BatchInfo.cause code: ok; the point
# is exterior; an oracle is undefined on the boundary; no reference frame
# (FrameNotFound); a singular system or a vanishing closed-form denominator;
# a solution beyond the residual contract (ResidualExceeded).  grid's
# warning and check's evaluates property name their counts by it.
CAUSES = ("ok", "exterior", "boundary", "frame", "singular", "residual")
OK, EXTERIOR, BOUNDARY, FRAME, SINGULAR, RESIDUAL = range(len(CAUSES))


def named_counts(counts, names=CAUSES) -> str:
    """The nonzero counts with their causes' names, counts[c] the rows of
    cause code c and names[c] its name: "3 frame, 1 exterior"."""
    return ", ".join(f"{c} {name}" for c, name in zip(counts, names) if c)


# The location codes of _locate_quad and _locate_hex, an int for one point
# and int8 for a stack: exterior, interior, on an edge (a quadrilateral) or
# face (a hexahedron), at a vertex.  An interval has the first two only.
LOC_EXTERIOR, LOC_INTERIOR, LOC_FACET, LOC_VERTEX = range(4)
# The location kinds by code, which only the public classifiers name.
QUAD_KINDS = ("exterior", "interior", "on_edge", "at_vertex")
HEX_KINDS = ("exterior", "interior", "on_face", "at_vertex")


@dataclass(frozen=True)
class BatchInfo:
    """The location a batch evaluator computed for its rows, and why each
    row failed.

    code (m,) holds the int8 location codes (LOC_EXTERIOR, LOC_INTERIOR,
    LOC_FACET, LOC_VERTEX); index (m,) is the vertex, edge or face index
    (an interval: the containing interval), -1 where the location has none.
    cause (m,) holds int8 codes into CAUSES, OK exactly where the row has
    weights.
    """

    code: np.ndarray
    index: np.ndarray
    cause: np.ndarray

    @classmethod
    def of(cls, code, index, ok, failure) -> BatchInfo:
        """The record of rows that failed where ok is clear: EXTERIOR where
        the point is exterior, failure (a code, or codes (m,)) elsewhere."""
        cause = np.where(ok, OK, np.where(code == LOC_EXTERIOR, EXTERIOR, failure))
        return cls(code, index, cause.astype(np.int8))


def signed_area(a, b, c) -> float:
    """Signed area of triangle (a, b, c); positive for counterclockwise."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    return 0.5 * float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _on_segment(a, b, c):
    """True if collinear point c lies within the bounding box of segment ab
    (points in the plane or in space): a bool for float coordinates, a bool
    array for (k,) arrays, elementwise."""
    if isinstance(c[0], float):
        return all(min(p, q) <= r <= max(p, q) for p, q, r in zip(a, b, c))
    inside = [(np.minimum(p, q) <= r) & (r <= np.maximum(p, q)) for p, q, r in zip(a, b, c)]
    return reduce(np.logical_and, inside)


def _crossing(d1, d2, d3, d4, p1, p2, q1, q2):
    """True if segments p1p2 and q1q2 cross, touch, or overlap, given their
    orientations d1 = [q1 q2 p1], d2 = [q1 q2 p2], d3 = [p1 p2 q1] and
    d4 = [p1 p2 q2] (twice signed triangle areas, all taken in one sense).

    Takes floats, or (k,) arrays for a stack of segment pairs, which get the
    same tests elementwise (every test taken, none short-circuited)."""
    if not isinstance(d1, float):
        return (
            ((d1 * d2 < 0) & (d3 * d4 < 0))
            | ((d1 == 0) & _on_segment(q1, q2, p1))
            | ((d2 == 0) & _on_segment(q1, q2, p2))
            | ((d3 == 0) & _on_segment(p1, p2, q1))
            | ((d4 == 0) & _on_segment(p1, p2, q2))
        )
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


# The vertex pairs of a quadrilateral in the order the coincidence messages
# name them.
_QUAD_PAIRS = tuple(combinations(range(4), 2))


def _unit_scale(length):
    """1 / L for L the power of two with length < L <= 2 * length, or 2**1023
    for a subnormal length; a float, or an array for lengths (k,).
    Multiplying by it is exact, so offsets taken in units of L keep their
    bits and no product of them overflows."""
    if isinstance(length, float):
        return math.ldexp(1.0, min(-math.frexp(length)[1], 1023))
    return np.ldexp(1.0, np.minimum(-np.frexp(length)[1], 1023))


def _quad_area(c) -> float:
    """Shoelace area of four corners c (a list of float pairs), taken about
    their centroid so it keeps its precision for far-translated geometry."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = c
    cx, cy = (((x0 + x1) + x2) + x3) / 4, (((y0 + y1) + y2) + y3) / 4
    return sum(
        0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1])
    )


def _check_quad(v, stack=False):
    """(violations, corners, diameter, area) of a float vertex array, checked
    in one pass on Python floats: corners are its rows as float pairs, and
    corners, diameter and area are None where it stopped before them.

    Straight-line arithmetic: the six pairwise distances in _QUAD_PAIRS
    order, then per pair of opposite edges (0 and 2, 1 and 3) the four
    orientations d1 = [q1 q2 p1], d2 = [q1 q2 p2], d3 = [p1 p2 q1] and
    d4 = [p1 p2 q2] of edge p1p2 against edge q1q2, each (b - a) x (c - a)
    for [a b c].

    With stack set, v is a stack of quadrilaterals (k, 4, 2), and the same
    tests run on (k,) arrays to the end (the caller silences numpy's
    warnings): in place of the violations it returns the rows (k,) that
    have any, and corners (pairs of arrays), diameter and area are
    meaningful on the others.  A row fails exactly where the float pass
    on it finds violations, so quad_violations of the row names them.
    """
    one = not stack
    if one:
        if v.shape != (4, 2):
            shape = f"expected 4 vertices with 2 coordinates, got shape {v.shape}"
            return [shape], None, None, None
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = v.tolist()
        if not all(map(math.isfinite, (x0, y0, x1, y1, x2, y2, x3, y3))):
            return ["vertex coordinates must be finite"], None, None, None
    else:
        x0, y0, x1, y1, x2, y2, x3, y3 = v.reshape(-1, 8).T
    sqrt = math.sqrt if one else np.sqrt
    dx, dy = x0 - x1, y0 - y1
    d01 = sqrt(dx * dx + dy * dy)
    dx, dy = x0 - x2, y0 - y2
    d02 = sqrt(dx * dx + dy * dy)
    dx, dy = x0 - x3, y0 - y3
    d03 = sqrt(dx * dx + dy * dy)
    dx, dy = x1 - x2, y1 - y2
    d12 = sqrt(dx * dx + dy * dy)
    dx, dy = x1 - x3, y1 - y3
    d13 = sqrt(dx * dx + dy * dy)
    dx, dy = x2 - x3, y2 - y3
    d23 = sqrt(dx * dx + dy * dy)
    if one:
        diam = max(d01, d02, d03, d12, d13, d23)
        if not math.isfinite(diam):
            return [OVERFLOW_MESSAGE], None, None, None
        if diam == 0.0:
            equal = len({(x0, y0), (x1, y1), (x2, y2), (x3, y3)}) == 1
            return ["all vertices coincide" if equal else UNDERFLOW_MESSAGE], None, None, None
        close = MIN_EDGE_LENGTH * max(diam, 1.0)
    else:
        diam = reduce(np.maximum, (d01, d02, d03, d12, d13, d23))
        close = MIN_EDGE_LENGTH * np.maximum(diam, 1.0)
    coincide = (d01 <= close, d02 <= close, d03 <= close, d12 <= close, d13 <= close, d23 <= close)
    c = [(x0, y0), (x1, y1), (x2, y2), (x3, y3)]
    area = _quad_area(c)
    collinear = abs(area) <= ZERO_AREA_RTOL * (diam * diam)
    # Simplicity: the two pairs of opposite edges must not cross or touch.
    # Edges 0 and 2: p1p2 = v0 v1, q1q2 = v2 v3.
    ex, ey, fx, fy = x3 - x2, y3 - y2, x1 - x0, y1 - y0
    d1 = ex * (y0 - y2) - ey * (x0 - x2)
    d2 = ex * (y1 - y2) - ey * (x1 - x2)
    d3 = fx * (y2 - y0) - fy * (x2 - x0)
    d4 = fx * (y3 - y0) - fy * (x3 - x0)
    cross02 = _crossing(d1, d2, d3, d4, c[0], c[1], c[2], c[3])
    # Edges 1 and 3: p1p2 = v1 v2, q1q2 = v3 v0.
    ex, ey, fx, fy = x0 - x3, y0 - y3, x2 - x1, y2 - y1
    d1 = ex * (y1 - y3) - ey * (x1 - x3)
    d2 = ex * (y2 - y3) - ey * (x2 - x3)
    d3 = fx * (y3 - y1) - fy * (x3 - x1)
    d4 = fx * (y0 - y1) - fy * (x0 - x1)
    cross13 = _crossing(d1, d2, d3, d4, c[1], c[2], c[3], c[0])
    if not one:
        failed = ~np.isfinite(v).all(axis=(1, 2)) | ~np.isfinite(diam) | (diam == 0.0)
        failed = reduce(np.logical_or, coincide, failed | collinear | cross02 | cross13)
        return failed, c, diam, area
    out = [f"vertices {i} and {j} coincide" for (i, j), hit in zip(_QUAD_PAIRS, coincide) if hit]
    if collinear:
        out.append("vertices are collinear (zero total area)")
    if cross02:
        out.append("edges 0 and 2 intersect (polygon is not simple)")
    if cross13:
        out.append("edges 1 and 3 intersect (polygon is not simple)")
    return out, c, diam, area


def quad_violations(vertices) -> list[str]:
    """Invariant violations for a raw 4 x 2 vertex array (empty means valid)."""
    return _check_quad(np.asarray(vertices, dtype=float))[0]


class Quadrilateral:
    """Four 2D vertices in cyclic order bounding a simple polygon.

    Orientation is normalized to counterclockwise at construction; a
    clockwise input is reversed in place (keeping vertex 0 first).  Indices
    are cyclic: edge i joins vertex i to vertex (i + 1) mod 4.  Keeps the
    diameter and the vertices as float pairs (corner_tuple) from its
    validation; the tables the evaluators derive from them are taken on
    first use.
    """

    kind = "quad"

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        violations, corners, diameter, area = _check_quad(v)
        if violations:
            raise InvalidGeometry(violations)
        if area < 0.0:
            v, corners = v[[0, 3, 2, 1]], [corners[i] for i in (0, 3, 2, 1)]
        else:
            v = v.copy()
        v.flags.writeable = False
        self.vertices = v
        # Vertices as plain float pairs for scalar-arithmetic hot paths.
        self.corner_tuple = tuple(corners)
        self.diameter = diameter

    @cached_property
    def edge_rows(self) -> tuple:
        """Per edge i, (ax, ay, by, ex, ey, |e|**2) as floats (_edge_rows)."""
        return _edge_rows(self.corner_tuple)

    @cached_property
    def reproducing_kernel(self) -> tuple:
        """(nu, k, area2, scale), plain floats, for the closed-form
        coordinates (_reproducing_kernel)."""
        return _reproducing_kernel(self.corner_tuple, self.diameter)

    @cached_property
    def _corner_crosses(self) -> tuple:
        """Per corner i + 1, the cross product e_i x e_(i+1) of the edges that
        meet there, as floats (_corner_crosses)."""
        return _corner_crosses(self.edge_rows)

    @cached_property
    def is_convex(self) -> bool:
        return _convex(self._corner_crosses, self.diameter)

    @cached_property
    def inward_bisectors(self) -> tuple:
        """Per vertex i, the unit inward bisector (bx, by) of its corner, as
        floats: the left normal of a - b, for a and b the unit directions
        from vertex i to vertex i + 1 and to vertex i - 1.  That is the
        direction of a + b at a convex corner, of -(a + b) at a reflex one,
        and the edges' inward normal at a straight one."""
        c = self.corner_tuple
        out = []
        for (px, py), (vx, vy), (nx, ny) in zip(c[3:] + c[:3], c, c[1:] + c[:1]):
            la, lb = math.hypot(nx - vx, ny - vy), math.hypot(px - vx, py - vy)
            wx = (py - vy) / lb - (ny - vy) / la
            wy = (nx - vx) / la - (px - vx) / lb
            lw = math.hypot(wx, wy)
            out.append((wx / lw, wy / lw))
        return tuple(out)

    def kernel_groups(self, rows):
        """[(rows, self)]: one quadrilateral is one kernel-index group (see
        QuadStack.kernel_groups)."""
        return [(rows, self)]

    def __repr__(self):
        return f"Quadrilateral({self.vertices.tolist()})"


def _edge_rows(corners) -> tuple:
    """Per edge i, (ax, ay, by, ex, ey, |e|**2): vertex i, the y of vertex
    i + 1 and e = vertex i + 1 - vertex i, from the corners (float pairs, or
    pairs of (k,) arrays for a stack)."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
    ax, ay, bx, by = x1 - x0, y1 - y0, x2 - x1, y2 - y1
    cx, cy, dx, dy = x3 - x2, y3 - y2, x0 - x3, y0 - y3
    return (
        (x0, y0, y1, ax, ay, ax * ax + ay * ay),
        (x1, y1, y2, bx, by, bx * bx + by * by),
        (x2, y2, y3, cx, cy, cx * cx + cy * cy),
        (x3, y3, y0, dx, dy, dx * dx + dy * dy),
    )


def _reproducing_kernel(corners, diameter) -> tuple:
    """(nu, k, area2, scale) from the corners and the diameter, floats (k an
    int), or (k,) arrays for a stack (k an int array).

    scale is 1 / L for L the power of two next to the diameter
    (_unit_scale).  nu spans the kernel of the constant and linear
    reproducing rows: nu_i is (-1)**i times twice the signed area of the
    corner triangle that leaves vertex i out (the other three in increasing
    order), in units of L**2.  k is the first index of the largest |nu_i|,
    and area2 = (-1)**k * nu_k is that triangle's twice signed area.  A
    simple quadrilateral has an interior diagonal, which splits it into two
    corner triangles, so triangle k holds at least half the area and is
    never flat.
    """
    s = _unit_scale(diameter)
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
    # Twice the signed areas of the corner triangles (1, 2, 3), (0, 2, 3),
    # (0, 1, 3) and (0, 1, 2), in units of L**2.
    t0 = ((x2 - x1) * s) * ((y3 - y1) * s) - ((y2 - y1) * s) * ((x3 - x1) * s)
    t1 = ((x2 - x0) * s) * ((y3 - y0) * s) - ((y2 - y0) * s) * ((x3 - x0) * s)
    t2 = ((x1 - x0) * s) * ((y3 - y0) * s) - ((y1 - y0) * s) * ((x3 - x0) * s)
    t3 = ((x1 - x0) * s) * ((y2 - y0) * s) - ((y1 - y0) * s) * ((x2 - x0) * s)
    if isinstance(t0, float):
        # The first largest |nu_i|: a later one replaces it only if larger.
        k, area2, best = 0, t0, abs(t0)
        if abs(t1) > best:
            k, area2, best = 1, t1, abs(t1)
        if abs(t2) > best:
            k, area2, best = 2, t2, abs(t2)
        if abs(t3) > best:
            k, area2 = 3, t3
    else:
        # argmax takes the first largest, as the float comparisons do.
        areas = np.array([t0, t1, t2, t3])
        k = np.abs(areas).argmax(axis=0)
        area2 = np.take_along_axis(areas, k[None], axis=0)[0]
    return (t0, -t1, t2, -t3), k, area2, s


def _corner_crosses(edge_rows) -> tuple:
    """Per corner i + 1, the cross product e_i x e_(i+1) of the edges that
    meet there, negative at a reflex corner; the edges are edge_rows' e_i
    (floats, or (k,) arrays for a stack)."""
    (_, _, _, ax, ay, _), (_, _, _, bx, by, _), (_, _, _, cx, cy, _), (_, _, _, dx, dy, _) = (
        edge_rows
    )
    return (ax * by - ay * bx, bx * cy - by * cx, cx * dy - cy * dx, dx * ay - dy * ax)


def _convex(crosses, diameter):
    """Whether no corner cross is below -CONVEX_CORNER_RTOL * diameter**2
    (taken as a product): a bool, or a bool array (k,) for a stack."""
    return _smallest(crosses) >= -CONVEX_CORNER_RTOL * (diameter * diameter)


def _quad_tables(edge_rows, corners, kernel, diameter) -> list:
    """A quadrilateral's evaluator tables as one list of 40 entries, in the
    order QuadStack unpacks them: edge_rows, corners, the reproducing
    kernel (nu, k, area2, scale) and the diameter; floats for one
    quadrilateral, (k,) arrays for a stack's rows."""
    nu, k, area2, s = kernel
    return [*chain(*edge_rows), *chain(*corners), *nu, k, area2, s, diameter]


class QuadStack:
    """Quadrilaterals stacked row by row for one batch call.

    Holds per row a copy of its element's tables, each float of a
    Quadrilateral's an array (m,) here: edge_rows, corner_tuple,
    reproducing_kernel (nu, k, area2, scale) and diameter.  _locate_quad and
    the closed form of coords2d run the same elementwise arithmetic on them
    as on one quadrilateral's floats, so each row gets the bits of its own
    element's batch call, and a Quadrilateral is the one-element case.  The
    closed form picks its corner triangle by the kernel index k, an int
    array here; kernel_groups splits rows into stacks of one k each, whose
    k is that int.

    Two constructors, one arithmetic.  QuadStack(quads, element) stacks
    validated Quadrilaterals, row s on quads[element[s]], and copies each
    element's float tables.  QuadStack.from_corners(corners) makes each row
    of a corner stack (k, 4, 2) an element of its own, without a
    Quadrilateral: it validates, orients and tabulates the k rows at once, as
    (k,) arrays through the functions a Quadrilateral takes its floats
    from (_check_quad, _edge_rows, _reproducing_kernel), so row s holds the
    bits of Quadrilateral(corners[s])'s tables.  That is the cheaper build
    for many elements; a few are cheaper through their Quadrilaterals.
    """

    def __init__(self, quads, element):
        tables = [
            _quad_tables(q.edge_rows, q.corner_tuple, q.reproducing_kernel, q.diameter)
            for q in quads
        ]
        # take writes the gathered columns C-ordered, several times faster
        # than fancy indexing followed by a contiguous copy.
        self._set(np.array(tables).reshape(-1, 40).T.take(element, axis=1))

    @classmethod
    def from_corners(cls, corners) -> QuadStack:
        """The stack of Quadrilateral(corners[s]) for each row s of corners
        (k, 4, 2), without building them.  Raises InvalidGeometry, with
        quad_violations of the first row that has any, where
        Quadrilateral(corners[s]) would raise for some row."""
        v = np.asarray(corners, dtype=float)
        if v.ndim != 3 or v.shape[1:] != (4, 2):
            raise InvalidGeometry([f"expected a stack of 4 x 2 vertex arrays, got shape {v.shape}"])
        with np.errstate(all="ignore"):
            failed, c, diameter, area = _check_quad(v, stack=True)
        if failed.any():
            raise InvalidGeometry(quad_violations(v[failed.argmax()]))
        # A clockwise row is reversed, keeping vertex 0 first, as
        # Quadrilateral reverses it: corners 1 and 3 trade places.
        cw = area < 0.0
        (x1, y1), (x3, y3) = c[1], c[3]
        c[1] = np.where(cw, x3, x1), np.where(cw, y3, y1)
        c[3] = np.where(cw, x1, x3), np.where(cw, y1, y3)
        kernel = _reproducing_kernel(c, diameter)
        out = cls.__new__(cls)
        out._set(np.array(_quad_tables(_edge_rows(c), c, kernel, diameter)))
        return out

    def _set(self, table, k=None):
        """Unpack table (40, m), one column per row; k is the kernel index
        when every row shares it."""
        self._table = table
        self.edge_rows = tuple(tuple(table[6 * i : 6 * i + 6]) for i in range(4))
        self.corner_tuple = tuple((table[24 + 2 * i], table[25 + 2 * i]) for i in range(4))
        if k is None:
            k = table[36].astype(np.intp)
        self.reproducing_kernel = (tuple(table[32:36]), k, table[37], table[38])
        self.diameter = table[39]

    def take(self, rows, k=None) -> QuadStack:
        """The stack of the given rows (an index array or a slice), in that
        order; k is their kernel index when they share one."""
        out = QuadStack.__new__(QuadStack)
        out._set(self._table[:, rows], k)
        return out

    def kernel_groups(self, rows):
        """(rows, stack) for each kernel index k among rows (an index
        array), k ascending: the rows of that k and their stack, whose k is
        the int."""
        k = self.reproducing_kernel[1][rows]
        groups = [(i, rows[k == i]) for i in range(4)]
        return [(sel, self.take(sel, i)) for i, sel in groups if len(sel)]

    @property
    def is_convex(self) -> bool:
        """Whether the element of every row is convex, by the test of
        Quadrilateral.is_convex on the rows' tables."""
        return bool(np.all(_convex(_corner_crosses(self.edge_rows), self.diameter)))


def _smallest(values):
    """The smallest of values: a list of floats, or of arrays elementwise
    (np.minimum differs from min() only at NaN, which no point within the
    tolerance of the boundary gives).  A stack takes the first smallest's
    index by argmin, as list.index does for one point."""
    if isinstance(values[0], float):
        return min(values)
    return reduce(np.minimum, values)


def _locate_quad(quad: Quadrilateral, x, y):
    """Point location on a quadrilateral: (code, index, t, dist).

    Takes one point as Python floats (x, y) or a stack as arrays (m,), and
    compares the same numbers with the tolerance tol = CLASSIFY_RTOL *
    diameter on both; quad may be a QuadStack for a stack, whose tol is
    then an array (m,), each row's own element's.  Vertex snapping comes
    first (squared distances against tol**2), then edges (the distance to
    the foot at edge parameter t), each taking the first of equally near
    candidates; otherwise even-odd ray crossing decides, which is valid for
    nonconvex simple polygons.  A horizontal edge never straddles the ray,
    so a stack divides by zero there quietly and masks the quotient out; a
    stack is quiet, too, where a point is not finite or its squared
    distances overflow.

    code is the location code (LOC_EXTERIOR ...), index the vertex or edge,
    t the edge parameter (LOC_FACET) and dist the distance to the nearest
    edge.  One point returns an int code as soon as it is known, with None
    for what it did not compute or has none of; a stack returns int8
    codes, with index -1 and t NaN there.
    """
    one = isinstance(x, float)
    tol = CLASSIFY_RTOL * quad.diameter
    sqrt = math.sqrt if one else np.sqrt
    with nullcontext() if one else np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d2, ts, dists, inside = [], [], [], False
        for ax, ay, by, ex, ey, ee in quad.edge_rows:
            qx, qy = x - ax, y - ay
            d2.append(qx * qx + qy * qy)
            t = (qx * ex + qy * ey) / ee
            # The two clamps may differ only in the sign of a zero t, which
            # only a point at vertex a gets.
            t = min(max(t, 0.0), 1.0) if one else np.clip(t, 0.0, 1.0)
            dx, dy = qx - t * ex, qy - t * ey
            ts.append(t)
            dists.append(sqrt(dx * dx + dy * dy))
            if one:
                if (ay > y) != (by > y) and x < ax + qy * ex / ey:
                    inside = not inside
            else:
                inside = inside ^ (((ay > y) != (by > y)) & (x < ax + qy * ex / ey))
        nearest2 = _smallest(d2)
        vertex = nearest2 <= tol * tol
        if one and vertex:
            return LOC_VERTEX, d2.index(nearest2), None, None
        dist = _smallest(dists)
        edge = dist <= tol
    if one:
        if edge:
            e = dists.index(dist)
            return LOC_FACET, e, ts[e], dist
        return (LOC_INTERIOR if inside else LOC_EXTERIOR), None, None, dist
    index, t = np.full(len(x), -1), np.full(len(x), np.nan)
    rows = np.flatnonzero(edge & ~vertex)
    index[rows] = e = np.array(dists)[:, rows].argmin(axis=0)
    t[rows] = np.array(ts)[e, rows]
    rows = np.flatnonzero(vertex)
    index[rows] = np.array(d2)[:, rows].argmin(axis=0)
    code = np.where(vertex, np.int8(LOC_VERTEX), np.where(edge, np.int8(LOC_FACET), inside))
    return code, index, t, dist


def classify_point_quad(quad: Quadrilateral, p) -> PointLocation:
    """Classify p as at a vertex, on an edge, interior, or exterior.

    Snapping precedence is vertex before edge.  Interior/exterior uses
    even-odd ray crossing, which is valid for nonconvex simple polygons.
    """
    code, index, t, _ = _locate_quad(quad, float(p[0]), float(p[1]))
    return PointLocation(QUAD_KINDS[code], index, t)


def _check_nodes(x):
    """(violations, nodes, span) of a float node array, checked in one pass
    on Python floats: nodes is the array as a tuple of floats, and nodes and
    span are None where it stopped before them."""
    if x.ndim != 1:
        return [f"nodes must be a 1D array, got shape {x.shape}"], None, None
    if x.shape[0] < 3:
        return [f"need at least 3 nodes, got {x.shape[0]}"], None, None
    xs = tuple(x.tolist())
    if not all(map(math.isfinite, xs)):
        return ["nodes must be finite"], None, None
    span = xs[-1] - xs[0]
    if not math.isfinite(span):
        return [OVERFLOW_MESSAGE], None, None
    if not all(a < b for a, b in zip(xs, xs[1:])):
        return ["nodes must be strictly increasing"], None, None
    return [], xs, span


def nodes_violations(nodes) -> list[str]:
    """Invariant violations for a raw node array (empty means valid)."""
    return _check_nodes(np.asarray(nodes, dtype=float))[0]


class NodeSet1D:
    """n >= 3 strictly increasing nodes on an interval.

    Keeps the nodes as plain floats (node_tuple), which the single-point
    locator and fold read, and the span, both from its validation; the
    unit scale is taken on first use.
    """

    kind = "interval"

    def __init__(self, nodes):
        x = np.asarray(nodes, dtype=float)
        violations, xs, span = _check_nodes(x)
        if violations:
            raise InvalidGeometry(violations)
        x = x.copy()
        x.flags.writeable = False
        self.nodes = x
        self.node_tuple = xs
        self.span = span

    def __len__(self):
        return self.nodes.shape[0]

    @cached_property
    def unit_scale(self) -> float:
        """1 / L for L the power of two next to the span (_unit_scale);
        offsets x_j - x are taken in units of L."""
        return _unit_scale(self.span)

    def __repr__(self):
        return f"NodeSet1D({self.nodes.tolist()})"


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
# The 12 edges as sorted vertex pairs, in ascending order.
HEX_EDGES = tuple(
    sorted({tuple(sorted((f[i], f[(i + 1) % 4]))) for f in HEX_FACES for i in range(4)})
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
    """Least-squares planes through each stack of points (k, m, 3): the
    centroids (k, 3) and the right singular vectors (k, 3, 3) of the points
    about them, two rows spanning each plane and the last its normal."""
    c = points.mean(axis=1)
    return c, np.linalg.svd(points - c[:, None], full_matrices=False)[2]


def hex_violations(vertices) -> list[str]:
    """Invariant violations for a raw 8 x 3 vertex array (empty means valid)."""
    return _check_hex(np.asarray(vertices, dtype=float))[0]


# The vertex pairs in the order the coincidence messages name them.  Per
# face, _HEX_FACE_CORNERS picks its four entries, in cyclic order, from a
# list over the vertices, and _HEX_FACE_PAIRS its six from a list over the
# pairs.
_HEX_PAIRS = tuple(combinations(range(8), 2))
_HEX_FACE_CORNERS = tuple(itemgetter(*idx) for idx in HEX_FACES)
_HEX_FACE_PAIRS = tuple(
    itemgetter(*(_HEX_PAIRS.index(ij) for ij in combinations(sorted(idx), 2))) for idx in HEX_FACES
)


def _face_is_simple(n, corners, diam) -> bool:
    """_check_quad's area and simplicity verdicts on a planar face, taken on
    the face's corners (float triples in cyclic order) projected along its
    normal n; diam is the largest distance between them.  Its vertex pairs
    already passed the solid's coincidence test, whose bound is no smaller.

    The 2D orientations of the projected corners are the triple products
    [pqr] = n . ((q - p) x (r - p)), taken as (r - p) . (n x (q - p)): twice
    the signed areas of the triangles abc, abd, acd and bcd.
    """
    a, b, c, d = corners
    (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) = corners
    nx, ny, nz = n
    # abc and abd against m = n x (b - a).
    ux, uy, uz = bx - ax, by - ay, bz - az
    mx, my, mz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
    abc = (cx - ax) * mx + (cy - ay) * my + (cz - az) * mz
    abd = (dx - ax) * mx + (dy - ay) * my + (dz - az) * mz
    # acd against m = n x (c - a).
    ux, uy, uz = cx - ax, cy - ay, cz - az
    mx, my, mz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
    acd = (dx - ax) * mx + (dy - ay) * my + (dz - az) * mz
    # bcd against m = n x (c - b).
    ux, uy, uz = cx - bx, cy - by, cz - bz
    mx, my, mz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
    bcd = (dx - bx) * mx + (dy - by) * my + (dz - bz) * mz
    if abs(0.5 * (abc + acd)) <= ZERO_AREA_RTOL * diam * diam:
        return False
    # Edges ab and cd, then bc and da, as _check_quad pairs them.
    return not (
        _crossing(acd, bcd, abc, abd, a, b, c, d) or _crossing(abd, acd, bcd, abc, b, c, d, a)
    )


def _check_hex(v):
    """(violations, tables) of a float vertex array, checked in one pass on
    Python floats; numpy only fits the face planes (one stacked SVD,
    _fit_planes).

    Each face reads one list, the signed distances n . (v_i - c) of all
    eight vertices to its fitted plane (unit normal n, centroid c): the
    largest |distance| of its own four is its planarity offset, and once n
    points outward (away from the vertex centroid) the largest distance is
    how far the solid protrudes beyond it and the deepest vertex how thick
    the solid is behind it; a solid no thicker than the planarity slack is
    flat (zero volume) and rejected.  The planarity and convexity slacks
    are no finer than SLACK_FLOOR_ULPS ulps of the largest coordinate,
    which rounding the vertices alone can cost (Shewchuk 1997).

    tables is None unless v is valid; then it holds what a Hexahedron keeps:
    (corner_tuple, the centroids as float triples, face_normals, plane_rows,
    diameter).
    """
    if v.shape != (8, 3):
        return [f"expected 8 vertices with 3 coordinates, got shape {v.shape}"], None
    coords = v.ravel().tolist()
    if not all(map(math.isfinite, coords)):
        return ["vertex coordinates must be finite"], None
    corners = tuple(map(tuple, v.tolist()))
    dist = []
    for i, j in _HEX_PAIRS:
        (ax, ay, az), (bx, by, bz) = corners[i], corners[j]
        dx, dy, dz = ax - bx, ay - by, az - bz
        dist.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    diam = max(dist)
    if not math.isfinite(diam):
        return [OVERFLOW_MESSAGE], None
    if diam == 0.0:
        equal = len(set(corners)) == 1
        return ["all vertices coincide" if equal else UNDERFLOW_MESSAGE], None
    close = MIN_EDGE_LENGTH * max(diam, 1.0)
    out = [f"vertices {i} and {j} coincide" for (i, j), d in zip(_HEX_PAIRS, dist) if d <= close]
    if out:
        return out, None
    floor = SLACK_FLOOR_ULPS * sys.float_info.epsilon * max(map(abs, coords))
    planar_tol = max(PLANARITY_RTOL * diam, floor)
    convex_tol = max(CONVEXITY_RTOL * diam, floor)
    c, basis = _fit_planes(v[_HEX_FACE_INDEX])
    centroids = tuple(map(tuple, c.tolist()))
    normals = []
    for f, (idx, own, pairs, (nx, ny, nz), (cx, cy, cz)) in enumerate(
        zip(HEX_FACES, _HEX_FACE_CORNERS, _HEX_FACE_PAIRS, basis[:, 2].tolist(), centroids)
    ):
        s = [nx * (x - cx) + ny * (y - cy) + nz * (z - cz) for x, y, z in corners]
        offset = max(map(abs, own(s)))
        if offset > planar_tol:
            out.append(f"face {f} {tuple(i + 1 for i in idx)} is not planar (offset {offset:.3e})")
            continue
        # The distances sum to 8 n . (vertex centroid - c), negative for an
        # outward n.
        if sum(s) > 0.0:
            nx, ny, nz, worst, depth = -nx, -ny, -nz, -min(s), max(s)
        else:
            worst, depth = max(s), -min(s)
        # A solid no thicker than its planarity slack is flat.
        if depth <= planar_tol:
            out.append(f"solid is flat: no vertex lies more than {depth:.3e} inside face {f}")
            continue
        normals.append((nx, ny, nz))
        if worst > convex_tol:
            out.append(f"vertex protrudes {worst:.3e} beyond face {f} (solid not convex)")
        if not _face_is_simple(normals[-1], own(corners), max(pairs(dist))):
            out.append(f"face {f} is not a simple quadrilateral")
    if out:
        return out, None
    # The offsets n . c, summed left to right in Python floats like every
    # other table, so their bits do not depend on the BLAS.
    d = [nx * cx + ny * cy + nz * cz for (nx, ny, nz), (cx, cy, cz) in zip(normals, centroids)]
    rows = (
        (*normals[0], d[0]),
        (*normals[1], d[1]),
        (*normals[2], d[2]),
        (*normals[3], d[3]),
        (*normals[4], d[4]),
        (*normals[5], d[5]),
    )
    return out, (corners, centroids, tuple(normals), rows, diam)


class Hexahedron:
    """Eight 3D vertices with six planar quadrilateral faces, convex.

    The vertex order must follow the reference-cube sign convention used by
    the hexahedral moment system (vertex i of the cube [-1,1]^3 is
    REFERENCE_CUBE[i]); no automatic reordering is done.  Keeps from its
    validation the diameter and the Python-float tables that point location
    and the frame rule read (corner_tuple, face_normals, plane_rows, and
    the fitted planes' centroids); the pair lines (pair_lines) are taken on
    first use.
    """

    kind = "hex"

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        violations, tables = _check_hex(v)
        if violations:
            raise InvalidGeometry(violations)
        v = v.copy()
        v.flags.writeable = False
        self.vertices = v
        # The vertices as float triples; the fitted planes' centroids and
        # outward unit normals as float triples, and the plane rows (n_x,
        # n_y, n_z, n . c); the diameter.
        (
            self.corner_tuple,
            self._centroids,
            self.face_normals,
            self.plane_rows,
            self.diameter,
        ) = tables

    @cached_property
    def pair_lines(self) -> tuple:
        """Per opposite-face pair: (line, bisector), exactly one of them None.

        line is (unit direction, point on the line, positive-face centroid)
        of the line where the pair's supporting planes meet, each a tuple of
        floats; when the planes are parallel (|n_a x n_b| < PARALLEL_TOL) it
        is None and bisector is the unit normal bisector n_a - n_b instead,
        also a tuple of floats.  With u = n_a x n_b and d = n . c the planes'
        offsets (plane_rows), the point is x0 = (d_a (n_b x u) + d_b (u x
        n_a)) / |u|**2, the solution of n_a . x = d_a, n_b . x = d_b,
        u . x = 0 by Cramer's rule; all in Python floats.
        """
        out = []
        for fa, fb in HEX_OPPOSITE_PAIRS:
            ax, ay, az, da = self.plane_rows[fa]
            bx, by, bz, db = self.plane_rows[fb]
            # u = n_a x n_b
            ux, uy, uz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            uu = ux * ux + uy * uy + uz * uz
            norm_u = math.sqrt(uu)
            if norm_u < PARALLEL_TOL:
                mx, my, mz = ax - bx, ay - by, az - bz
                norm_m = math.sqrt(mx * mx + my * my + mz * mz)
                out.append((None, (mx / norm_m, my / norm_m, mz / norm_m)))
                continue
            # n_b x u and u x n_a
            px, py, pz = by * uz - bz * uy, bz * ux - bx * uz, bx * uy - by * ux
            qx, qy, qz = uy * az - uz * ay, uz * ax - ux * az, ux * ay - uy * ax
            x0 = ((da * px + db * qx) / uu, (da * py + db * qy) / uu, (da * pz + db * qz) / uu)
            direction = (ux / norm_u, uy / norm_u, uz / norm_u)
            out.append(((direction, x0, self._centroids[fa]), None))
        return tuple(out)

    @cached_property
    def unit_scale(self) -> float:
        """1 / L for L the power of two next to the diameter (_unit_scale):
        the 8 x 8 system takes the frame coordinates in units of L."""
        return _unit_scale(self.diameter)

    def _signed_distances(self, x, y, z) -> list:
        """The outward signed distances of (x, y, z) to the six supporting
        planes, floats for one point or arrays for a stack.

        n_x x + n_y y + n_z z - offset is spelled out elementwise rather
        than taken as a matrix product, whose rounding depends on the BLAS
        kernel and the batch size: one point gets the same bits alone or in
        a batch."""
        return [a * x + b * y + c * z - d for a, b, c, d in self.plane_rows]

    def __repr__(self):
        return f"Hexahedron({self.vertices.tolist()})"


_NO_FACES = (False,) * 6


def _locate_hex(hexa: Hexahedron, x, y, z):
    """Point location on a hexahedron: (code, index, on).

    Takes one point as Python floats or a stack as arrays (m,), and
    compares the same numbers with the tolerance on both: the eight vertex
    distances and the six face signed distances.  Vertex snapping wins; a
    point beyond any plane by more than the tolerance is exterior; a point
    within the tolerance of a face plane is on that face; interior means
    more than the tolerance inside all six.  The solid is convex, the
    intersection of its six half-spaces, so this is the face test up to
    the tolerance band: where the projection of a flagged point onto its
    face leaves the face, it crosses an edge whose other face is flagged
    too, since the point is beyond no plane by more than the tolerance.
    code is the location code (LOC_EXTERIOR ...), an int for one point and
    int8 for a stack; index is the vertex or the lowest containing face
    (None or -1 where there is none); on holds the six containing-face
    flags, bools or arrays (m,), which the frame rule takes as they are.
    One point returns as soon as its code is known.  A stack is quiet where
    a point is not finite or its squared distances overflow: it is exterior
    there.
    """
    one = isinstance(x, float)
    tol = CLASSIFY_RTOL * hexa.diameter
    sqrt = math.sqrt if one else np.sqrt
    with nullcontext() if one else np.errstate(over="ignore", invalid="ignore"):
        dv = [
            sqrt((vx - x) * (vx - x) + (vy - y) * (vy - y) + (vz - z) * (vz - z))
            for vx, vy, vz in hexa.corner_tuple
        ]
        nearest = _smallest(dv)
        vertex = nearest <= tol
        if one and vertex:
            return LOC_VERTEX, dv.index(nearest), _NO_FACES
        s = hexa._signed_distances(x, y, z)
    outside, inner = False, True
    for sf in s:
        outside = outside | (sf > tol)
        inner = inner & (sf < -tol)
    if one and outside:
        return LOC_EXTERIOR, None, _NO_FACES
    # One point that got here is neither at a vertex nor outside.
    candidate = True if one else ~(vertex | outside)
    on = [(abs(sf) <= tol) & candidate for sf in s]
    if one:
        if True in on:
            return LOC_FACET, on.index(True), tuple(on)
        return (LOC_INTERIOR if inner else LOC_EXTERIOR), None, _NO_FACES
    on = np.array(on)
    on_face = on.any(axis=0)
    index = np.where(on_face, on.argmax(axis=0), -1)
    rows = np.flatnonzero(vertex)
    index[rows] = np.array(dv)[:, rows].argmin(axis=0)
    code = np.where(
        vertex, np.int8(LOC_VERTEX), np.where(on_face, np.int8(LOC_FACET), candidate & inner)
    )
    return code, index, on


def face_of_point_hex(hexa: Hexahedron, p) -> PointLocation:
    """Classify p against a hexahedron (_locate_hex's rule).

    With tol = CLASSIFY_RTOL * diameter: within tol of a vertex is
    at_vertex; otherwise more than tol beyond a face plane is exterior,
    within tol of face planes is on_face, and strictly inside all six
    planes by more than tol is interior.  Points on edges or corners report
    the lowest-index containing face, and every containing face in faces.
    """
    code, index, on = _locate_hex(hexa, float(p[0]), float(p[1]), float(p[2]))
    return PointLocation(HEX_KINDS[code], index, faces=tuple(compress(range(6), on)))


def faces_containing(hexa: Hexahedron, p) -> list[int]:
    """The faces face_of_point_hex puts p on, lowest first: faces whose
    plane passes within CLASSIFY_RTOL * diameter of p, when p is within
    that of every plane; none at a vertex, which snapping takes first, or
    outside the solid."""
    return list(face_of_point_hex(hexa, p).faces)
