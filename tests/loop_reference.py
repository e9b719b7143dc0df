"""Loop-form reference copies of the element set-up and the single-point
evaluators, as they were written before their straight-line rewrites.

geometry writes the set-up tables (_check_quad, Quadrilateral's
reproducing_kernel, edge_rows and _corner_crosses, _face_is_simple, the
tail of _check_hex and Hexahedron.pair_lines) as straight-line float
arithmetic, and the
single-point evaluators call the locators (_locate_quad, _locate_hex)
directly.  The copies here run the same float operations in the same order
through dicts, combinations, closures, generators and the public
classifiers, so tests/test_setup_tables.py can hold the rewrites to them bit
for bit.  They read the package's unchanged helpers (_crossing, _quad_area,
_fit_planes, _closed_form, _frame, ...) and nothing else of it.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from itertools import combinations, repeat
from operator import add, mul

import numpy as np

from momentcoords import coords2d, coords3d, geometry
from momentcoords.coords3d import DELTA_SIGNS, DISTANCE_SIGNS
from momentcoords.errors import NotConvex, OnBoundary, OutsideDomain
from momentcoords.geometry import (
    HEX_FACE_VERTICES,
    MIN_EDGE_LENGTH,
    OVERFLOW_MESSAGE,
    UNDERFLOW_MESSAGE,
    _crossing,
    _quad_area,
    _unit_scale,
    classify_point_quad,
    face_of_point_hex,
)
from momentcoords.smallsolve import solve_dense


def segments_intersect(p1, p2, q1, q2) -> bool:
    """True if segments p1p2 and q1q2 cross, touch, or overlap."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2 = orient(q1, q2, p1), orient(q1, q2, p2)
    return _crossing(d1, d2, orient(p1, p2, q1), orient(p1, p2, q2), p1, p2, q1, q2)


def check_quad(v):
    """(violations, corners, diameter, area), as geometry._check_quad."""
    if v.shape != (4, 2):
        return [f"expected 4 vertices with 2 coordinates, got shape {v.shape}"], None, None, None
    c = list(map(tuple, v.tolist()))
    if not all(math.isfinite(x) for corner in c for x in corner):
        return ["vertex coordinates must be finite"], None, None, None
    diffs = {(i, j): (c[i][0] - c[j][0], c[i][1] - c[j][1]) for i, j in combinations(range(4), 2)}
    dist = {ij: math.sqrt(dx * dx + dy * dy) for ij, (dx, dy) in diffs.items()}
    diam = max(dist.values())
    if not math.isfinite(diam):
        return [OVERFLOW_MESSAGE], None, None, None
    if diam == 0.0:
        equal = all(corner == c[0] for corner in c)
        return ["all vertices coincide" if equal else UNDERFLOW_MESSAGE], None, None, None
    close = MIN_EDGE_LENGTH * max(diam, 1.0)
    out = [f"vertices {i} and {j} coincide" for (i, j), d in dist.items() if d <= close]
    area = _quad_area(c)
    if abs(area) <= 1e-12 * (diam * diam):
        out.append("vertices are collinear (zero total area)")
    for i, j in ((0, 2), (1, 3)):
        if segments_intersect(c[i], c[(i + 1) % 4], c[j], c[(j + 1) % 4]):
            out.append(f"edges {i} and {j} intersect (polygon is not simple)")
    return out, c, diam, area


def reproducing_kernel(quad) -> tuple:
    """(nu, k, area2, scale), as Quadrilateral.reproducing_kernel."""
    s = _unit_scale(quad.diameter)
    c = quad.corner_tuple
    nu = []
    for i in range(4):
        (ax, ay), (bx, by), (cx, cy) = (c[j] for j in range(4) if j != i)
        area2 = ((bx - ax) * s) * ((cy - ay) * s) - ((by - ay) * s) * ((cx - ax) * s)
        nu.append(-area2 if i % 2 else area2)
    k = max(range(4), key=lambda i: abs(nu[i]))
    return tuple(nu), k, -nu[k] if k % 2 else nu[k], s


def edge_rows(quad) -> tuple:
    """As Quadrilateral.edge_rows."""
    c = quad.corner_tuple
    out = []
    for (ax, ay), (bx, by) in zip(c, c[1:] + c[:1]):
        ex, ey = bx - ax, by - ay
        out.append((ax, ay, by, ex, ey, ex * ex + ey * ey))
    return tuple(out)


def corner_crosses(quad) -> tuple:
    """As Quadrilateral._corner_crosses."""
    c = quad.corner_tuple
    out = []
    for (ax, ay), (bx, by), (cx, cy) in zip(c, c[1:] + c[:1], c[2:] + c[:2]):
        out.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
    return tuple(out)


def face_is_simple(n, corners, diam) -> bool:
    """As geometry._face_is_simple."""
    a, b, c, d = corners
    nx, ny, nz = n
    tri = []
    for (px, py, pz), (qx, qy, qz), rs in ((a, b, (c, d)), (a, c, (d,)), (b, c, (d,))):
        ux, uy, uz = qx - px, qy - py, qz - pz
        mx, my, mz = ny * uz - nz * uy, nz * ux - nx * uz, nx * uy - ny * ux
        tri += [(rx - px) * mx + (ry - py) * my + (rz - pz) * mz for rx, ry, rz in rs]
    abc, abd, acd, bcd = tri
    if abs(0.5 * (abc + acd)) <= 1e-12 * diam * diam:
        return False
    return not (
        _crossing(acd, bcd, abc, abd, a, b, c, d) or _crossing(abd, acd, bcd, abc, b, c, d, a)
    )


_HEX_PAIRS = tuple(combinations(range(8), 2))


def check_hex(v):
    """(violations, tables) with tables (corner_tuple, the centroids,
    face_normals, plane_rows, diameter), as geometry._check_hex."""
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
        equal = all(corner == corners[0] for corner in corners)
        return ["all vertices coincide" if equal else UNDERFLOW_MESSAGE], None
    close = MIN_EDGE_LENGTH * max(diam, 1.0)
    out = [f"vertices {i} and {j} coincide" for (i, j), d in zip(_HEX_PAIRS, dist) if d <= close]
    if out:
        return out, None
    floor = 4.0 * sys.float_info.epsilon * max(map(abs, coords))
    planar_tol = max(geometry.PLANARITY_RTOL * diam, floor)
    convex_tol = max(geometry.CONVEXITY_RTOL * diam, floor)
    c, basis = geometry._fit_planes(v[np.array(geometry.HEX_FACES)])
    normals = []
    for f, (idx, (nx, ny, nz), (cx, cy, cz)) in enumerate(
        zip(geometry.HEX_FACES, basis[:, 2].tolist(), c.tolist())
    ):
        s = [nx * (x - cx) + ny * (y - cy) + nz * (z - cz) for x, y, z in corners]
        offset = max(abs(s[i]) for i in idx)
        if offset > planar_tol:
            out.append(f"face {f} {tuple(i + 1 for i in idx)} is not planar (offset {offset:.3e})")
            continue
        if sum(s) > 0.0:
            nx, ny, nz, worst, depth = -nx, -ny, -nz, -min(s), max(s)
        else:
            worst, depth = max(s), -min(s)
        if depth <= planar_tol:
            out.append(f"solid is flat: no vertex lies more than {depth:.3e} inside face {f}")
            continue
        normals.append((nx, ny, nz))
        if worst > convex_tol:
            out.append(f"vertex protrudes {worst:.3e} beyond face {f} (solid not convex)")
        face_diam = max(dist[_HEX_PAIRS.index(ij)] for ij in combinations(sorted(idx), 2))
        if not face_is_simple(normals[-1], tuple(corners[i] for i in idx), face_diam):
            out.append(f"face {f} is not a simple quadrilateral")
    if out:
        return out, None
    normals = tuple(normals)
    offsets = [reduce(add, map(mul, nf, cf)) for nf, cf in zip(normals, c.tolist())]
    rows = tuple((*nf, d) for nf, d in zip(normals, offsets))
    return out, (corners, tuple(map(tuple, c.tolist())), normals, rows, diam)


def _cross(a, b):
    (ax, ay, az), (bx, by, bz) = a, b
    return ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx


def pair_lines(hexa) -> tuple:
    """As Hexahedron.pair_lines, from hexa's plane_rows and centroids."""
    out = []
    for fa, fb in geometry.HEX_OPPOSITE_PAIRS:
        *na, da = hexa.plane_rows[fa]
        *nb, db = hexa.plane_rows[fb]
        u = _cross(na, nb)
        uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        norm_u = math.sqrt(uu)
        if norm_u < 1e-9:
            m = [a - b for a, b in zip(na, nb)]
            norm_m = math.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])
            out.append((None, tuple(c / norm_m for c in m)))
            continue
        x0 = tuple((da * p + db * q) / uu for p, q in zip(_cross(nb, u), _cross(u, na)))
        direction = tuple(c / norm_u for c in u)
        out.append(((direction, x0, hexa._centroids[fa]), None))
    return tuple(out)


def coords_quad(quad, p, wachspress: bool) -> np.ndarray:
    """moment_coords_quad (wachspress_coords_quad with wachspress), located
    through the public classifier."""
    if wachspress and not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    if loc.kind == "interior":
        phi, _, _, _, _ = coords2d._closed_form(quad, float(p[0]), float(p[1]), wachspress)
        return np.array(phi)
    return coords2d._edge_weights(loc.index, 0.0 if loc.kind == "at_vertex" else loc.t)


def mvc_oracle(quad, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    if loc.kind != "interior":
        raise OnBoundary("the local mean value formula is undefined on the boundary")
    return coords2d._mean_value(quad, p)


def cramer_coords_quad(quad, p) -> np.ndarray:
    coords2d.require_cramer(quad)
    p = np.asarray(p, dtype=float)
    if classify_point_quad(quad, p).kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    return coords2d._cramer(quad, float(p[0]), float(p[1]))[0]


def wachspress_oracle(quad, p) -> np.ndarray:
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    w, vanishes = coords2d._area_quotient(quad, p)
    if loc.kind != "interior" or vanishes:
        raise OnBoundary("area quotients are undefined on the boundary")
    return w


# Signs of rows 4 to 7 of the system (the partial distances and the
# distance), (4, 8, 7), indexed by the face last as a stack is: at [..., f]
# for f < 6 for a point on face f, whose columns get 0.0 for their partial
# distances, and at [..., _NO_FACE] for any other point.  _COLUMN_SIGNS[f]
# holds the same numbers per column as floats.
_NO_FACE = 6
_ROW_SIGNS = np.stack(
    [np.vstack([np.where(zero, 0.0, DELTA_SIGNS), DISTANCE_SIGNS]) for zero in HEX_FACE_VERTICES]
    + [np.vstack([DELTA_SIGNS, DISTANCE_SIGNS])],
    axis=-1,
).astype(float)
_COLUMN_SIGNS = tuple(
    tuple(map(tuple, signs.T.tolist())) for signs in np.moveaxis(_ROW_SIGNS, -1, 0)
)


def moment_coords_hex(hexa, p) -> np.ndarray:
    """moment_coords_hex, located through the public classifier."""
    p = np.asarray(p, dtype=float)
    loc = face_of_point_hex(hexa, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the hexahedron")
    if loc.kind == "at_vertex":
        phi = np.zeros(8)
        phi[loc.index] = 1.0
        return phi
    px, py, pz = p.tolist()
    _, rows, _, _ = coords3d._frame(hexa, px, py, pz, tuple(f in loc.faces for f in range(6)))
    s = hexa.unit_scale
    offsets = [(vx - px, vy - py, vz - pz) for vx, vy, vz in hexa.corner_tuple]
    w = [[(fx * dx + fy * dy + fz * dz) * s for dx, dy, dz in offsets] for fx, fy, fz in rows]
    signs = _COLUMN_SIGNS[loc.index if loc.kind == "on_face" else _NO_FACE]
    return solve_dense(
        [[1.0] * 8, *w, *zip(*map(coords3d._distance_rows, *w, signs, repeat(False)))],
        coords3d._RHS,
    )
