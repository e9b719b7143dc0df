"""Moment (mean value) and Wachspress coordinates on simple quadrilaterals.

Both families are computed as unique solutions of 4 x 4 linear systems: the
constant and linear reproducing rows plus one alternating-sign weight row
(vertex distances for the moment family, incident-edge distance products
for Wachspress).  Three independent oracles are provided for cross checks:
the local tangent formula for mean value coordinates, a Cramer's-rule
expansion through triangle coordinates, and the rational area quotient for
Wachspress.  Each coordinate function and oracle has a batch twin (the
*_many functions) that evaluates a stack of points with the same
elementwise arithmetic and returns (phi, ok) instead of raising per point.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateTriangle,
    NotConvex,
    OnBoundary,
    OutsideDomain,
    SingularMatrix,
)
from .geometry import (
    CLASSIFY_RTOL,
    Quadrilateral,
    _classify_points_quad,
    classify_point_quad,
    edge_distance,
    signed_area,
)
from .smallsolve import solve_dense, solve_dense_many

# Sign pattern of the kernel of the reproducing rows on a quadrilateral.
ALTERNATING = np.array([1.0, -1.0, 1.0, -1.0])

_OTHERS = tuple(tuple(j for j in range(4) if j != i) for i in range(4))


def moment_row(quad: Quadrilateral, p) -> np.ndarray:
    """Alternating-sign vertex distances (d1, -d2, d3, -d4)."""
    x, y = float(p[0]), float(p[1])
    c = quad.corner_tuple
    return np.array(
        [
            math.hypot(c[0][0] - x, c[0][1] - y),
            -math.hypot(c[1][0] - x, c[1][1] - y),
            math.hypot(c[2][0] - x, c[2][1] - y),
            -math.hypot(c[3][0] - x, c[3][1] - y),
        ]
    )


def _kronecker(i: int) -> np.ndarray:
    phi = np.zeros(4)
    phi[i] = 1.0
    return phi


def _edge_weights(i: int, t: float) -> np.ndarray:
    """Linear interpolation along edge i: 1 - t at vertex i, t at i + 1.

    Both families reduce to it on an edge.  Taking it from the edge
    parameter, not from a solve, keeps the weights of a point snapped onto
    the edge from within the tolerance nonnegative.  They are the weights
    of the point's projection onto the edge, so they reproduce the point
    itself only up to its distance from the edge, at most the tolerance.
    """
    phi = np.zeros(4)
    phi[i] = 1.0 - t
    phi[(i + 1) % 4] = t
    return phi


def moment_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Moment coordinates of p, identical to mean value coordinates.

    Valid on convex and nonconvex simple quadrilaterals, on the closed
    domain including the boundary.  Raises OutsideDomain for exterior p.
    """
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "at_vertex":
        return _kronecker(loc.index)
    if loc.kind == "on_edge":
        return _edge_weights(loc.index, loc.t)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    m = np.empty((4, 4))
    m[0] = 1.0
    m[1:3] = (quad.vertices - p).T
    m[3] = moment_row(quad, p)
    return solve_dense(m, np.array([1.0, 0.0, 0.0, 0.0]))


def _coords_many(quad: Quadrilateral, points, constant_row: int, weight_rows):
    """Batch path shared by both families.

    Vertex points get the Kronecker row and edge points the edge's linear
    interpolation.  The systems of the interior points are solved as one
    stack, each filled as the single-point function fills its own: ones in
    row constant_row (where the rhs holds its only 1), v - p in the other
    two of rows 0-2, and weight_rows(quad, q) in row 3.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    kind, index, t = _classify_points_quad(quad, pts, CLASSIFY_RTOL * quad.diameter)
    phi = np.full((len(pts), 4), np.nan)
    ok = np.zeros(len(pts), dtype=bool)
    vertex = np.flatnonzero(kind == "at_vertex")
    phi[vertex] = 0.0
    phi[vertex, index[vertex]] = 1.0
    ok[vertex] = True
    edge = np.flatnonzero(kind == "on_edge")
    phi[edge] = 0.0
    phi[edge, index[edge]] = 1.0 - t[edge]
    phi[edge, (index[edge] + 1) % 4] = t[edge]
    ok[edge] = True
    solve = np.flatnonzero(kind == "interior")
    q = pts[solve]
    m = np.empty((len(q), 4, 4))
    m[:, constant_row] = 1.0
    m[:, [r for r in range(3) if r != constant_row]] = quad.vertices.T[None] - q[:, :, None]
    m[:, 3] = weight_rows(quad, q)
    rhs = np.zeros((len(q), 4))
    rhs[:, constant_row] = 1.0
    phi[solve], ok[solve] = solve_dense_many(m, rhs)
    return phi, ok


def _hypot(dx, dy) -> np.ndarray:
    """math.hypot over two equal-shape arrays (np.hypot can differ in the
    last bit, and the single-point functions use math.hypot)."""
    return np.array(list(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()))).reshape(
        dx.shape
    )


def _moment_rows(quad: Quadrilateral, q) -> np.ndarray:
    """moment_row for each row of q, through math.hypot as moment_row does."""
    xs, ys = zip(*quad.corner_tuple)
    return _hypot(np.array(xs)[None] - q[:, :1], np.array(ys)[None] - q[:, 1:]) * ALTERNATING


def moment_coords_quad_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """moment_coords_quad at each row of points (m, 2); returns (phi, ok).

    phi[s] is bitwise equal to moment_coords_quad(quad, points[s]) where
    ok[s] is set; ok[s] is False (and phi[s] NaN) where the single-point
    function raises: an exterior point or a singular system.
    """
    return _coords_many(quad, points, 0, _moment_rows)


def mvc_oracle(quad: Quadrilateral, p) -> np.ndarray:
    """Mean value coordinates via the local tangent half-angle formula.

    Only valid strictly inside the polygon; boundary points raise
    OnBoundary (use the system form there).
    """
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {list(p)} lies outside the quadrilateral")
    if loc.kind != "interior":
        raise OnBoundary("the local mean value formula is undefined on the boundary")
    x, y = float(p[0]), float(p[1])
    e = [(vx - x, vy - y) for vx, vy in quad.corner_tuple]
    r = [math.hypot(ex, ey) for ex, ey in e]
    t = [0.0] * 4
    for i in range(4):
        j = (i + 1) % 4
        cross = e[i][0] * e[j][1] - e[i][1] * e[j][0]
        dot = e[i][0] * e[j][0] + e[i][1] * e[j][1]
        rr = r[i] * r[j]
        # tan(angle/2) = sin/(1+cos) = (1-cos)/sin; pick the branch that
        # avoids cancellation (angles approach pi near an edge).
        t[i] = cross / (rr + dot) if dot >= 0.0 else (rr - dot) / cross
    w = np.array([(t[i - 1] + t[i]) / r[i] for i in range(4)])
    return w / w.sum()


def _locate_many(quad: Quadrilateral, points):
    """(points (m, 2), kind) from classify_point_quad's decisions."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    kind, _, _ = _classify_points_quad(quad, pts, CLASSIFY_RTOL * quad.diameter)
    return pts, kind


def mvc_oracle_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """mvc_oracle at each row of points (m, 2); returns (phi, ok).

    ok[s] is False (and phi[s] NaN) where mvc_oracle raises: off the open
    interior.  The tangent formula runs with the same elementwise
    arithmetic, so phi[s] is bitwise equal to mvc_oracle(quad, points[s]).
    """
    pts, kind = _locate_many(quad, points)
    ok = kind == "interior"
    phi = np.full((len(pts), 4), np.nan)
    xs, ys = zip(*quad.corner_tuple)
    ex = np.array(xs)[None] - pts[ok, :1]
    ey = np.array(ys)[None] - pts[ok, 1:]
    r = _hypot(ex, ey)
    t = np.empty(r.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(4):
            j = (i + 1) % 4
            cross = ex[:, i] * ey[:, j] - ey[:, i] * ex[:, j]
            dot = ex[:, i] * ex[:, j] + ey[:, i] * ey[:, j]
            rr = r[:, i] * r[:, j]
            t[:, i] = np.where(dot >= 0.0, cross / (rr + dot), (rr - dot) / cross)
        w = (t[:, [3, 0, 1, 2]] + t) / r
        phi[ok] = w / w.sum(axis=1)[:, None]
    return phi, ok


def _area2(ax, ay, bx, by, cx, cy):
    """Twice the signed triangle area, on scalars."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _tri_bary(a, b, c, px, py):
    """Barycentric coordinates of (px, py) as a plain 3-tuple; px and py
    may be arrays, which give a tuple of arrays."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    area2 = _area2(ax, ay, bx, by, cx, cy)
    scale2 = max(
        (ax - bx) ** 2 + (ay - by) ** 2,
        (ax - cx) ** 2 + (ay - cy) ** 2,
        (bx - cx) ** 2 + (by - cy) ** 2,
    )
    if abs(area2) <= 2e-13 * scale2:
        raise DegenerateTriangle(f"triangle area {0.5 * area2:.3e} too small")
    l2 = _area2(ax, ay, px, py, cx, cy) / area2
    l3 = _area2(ax, ay, bx, by, px, py) / area2
    return 1.0 - l2 - l3, l2, l3


def triangle_barycentric(tri, p) -> np.ndarray:
    """Affine coordinates of p w.r.t. a triangle, signed outside it."""
    a, b, c = ((float(q[0]), float(q[1])) for q in tri)
    return np.array(_tri_bary(a, b, c, float(p[0]), float(p[1])))


def _kernel_vector(quad: Quadrilateral) -> np.ndarray:
    """Spanning vector of the kernel of the reproducing rows.

    Entry i is +/- the *signed* area of the triangle formed by the other
    three vertices (taken in increasing index order); using absolute areas
    breaks the kernel property on nonconvex quadrilaterals.
    """
    c = quad.corner_tuple
    s = [
        0.5 * _area2(*c[1], *c[2], *c[3]),
        0.5 * _area2(*c[0], *c[2], *c[3]),
        0.5 * _area2(*c[0], *c[1], *c[3]),
        0.5 * _area2(*c[0], *c[1], *c[2]),
    ]
    return np.array(s) * ALTERNATING


def cramer_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Moment coordinates via Cramer's rule through triangle coordinates.

    phi_i = (-1)^(i+1) * S_i * <d, tau_i> / <d, nu> with tau_i the triangle
    coordinates of p leaving vertex i out (zero padded at slot i), S_i the
    signed area of the remaining triangle, and nu the kernel vector of the
    reproducing rows.  Agrees with moment_coords_quad on simple quads.
    """
    if classify_point_quad(quad, p).kind == "exterior":
        raise OutsideDomain(f"point {list(p)} lies outside the quadrilateral")
    c = quad.corner_tuple
    px, py = float(p[0]), float(p[1])
    d = moment_row(quad, p).tolist()
    nu = _kernel_vector(quad)
    den = d[0] * nu[0] + d[1] * nu[1] + d[2] * nu[2] + d[3] * nu[3]
    if abs(den) <= 1e-14 * quad.diameter**3:
        raise SingularMatrix("moment row is orthogonal to the reproducing kernel")
    phi = np.empty(4)
    for i in range(4):
        o = _OTHERS[i]
        tau = _tri_bary(c[o[0]], c[o[1]], c[o[2]], px, py)
        dot = d[o[0]] * tau[0] + d[o[1]] * tau[1] + d[o[2]] * tau[2]
        s_i = nu[i] * ALTERNATING[i]  # recover the signed area from the kernel
        phi[i] = (-1) ** (i + 1) * s_i * dot / den
    return phi


def cramer_coords_quad_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """cramer_coords_quad at each row of points (m, 2); returns (phi, ok).

    ok[s] is False (and phi[s] NaN) where cramer_coords_quad raises: an
    exterior point, a moment row orthogonal to the kernel, or a degenerate
    triangle (then every point).  Same elementwise arithmetic, vertex
    distances through math.hypot, so phi[s] is bitwise equal to
    cramer_coords_quad(quad, points[s]).
    """
    pts, kind = _locate_many(quad, points)
    ok = kind != "exterior"
    c = quad.corner_tuple
    px, py = pts[:, 0], pts[:, 1]
    d = _moment_rows(quad, pts)
    nu = _kernel_vector(quad)
    den = d[:, 0] * nu[0] + d[:, 1] * nu[1] + d[:, 2] * nu[2] + d[:, 3] * nu[3]
    ok &= ~(np.abs(den) <= 1e-14 * quad.diameter**3)
    phi = np.empty((len(pts), 4))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(4):
            o = _OTHERS[i]
            try:
                tau = _tri_bary(c[o[0]], c[o[1]], c[o[2]], px, py)
            except DegenerateTriangle:
                ok[:] = False
                break
            dot = d[:, o[0]] * tau[0] + d[:, o[1]] * tau[1] + d[:, o[2]] * tau[2]
            s_i = nu[i] * ALTERNATING[i]
            phi[:, i] = (-1) ** (i + 1) * s_i * dot / den
    phi[~ok] = np.nan
    return phi, ok


def wachspress_row(quad: Quadrilateral, p) -> np.ndarray:
    """Alternating-sign products of incident edge lengths and edge distances.

    rho_i = l(i-1) * l(i) * h(i-1) * h(i) where edge i joins vertices i and
    i+1; rho_i vanishes exactly when p lies on an edge incident to vertex i.
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress weights require a convex quadrilateral")
    p = np.asarray(p, dtype=float)
    lens = quad.edge_lengths
    h = np.array([edge_distance(quad, i, p) for i in range(4)])
    rho = np.array([lens[i - 1] * lens[i] * h[i - 1] * h[i] for i in range(4)])
    return rho * ALTERNATING


def wachspress_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Wachspress coordinates of p on a convex quadrilateral (closed domain)."""
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "at_vertex":
        return _kronecker(loc.index)
    if loc.kind == "on_edge":
        return _edge_weights(loc.index, loc.t)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    m = np.empty((4, 4))
    m[0:2] = (quad.vertices - p).T
    m[2] = 1.0
    # The row grows as diameter**4; its right-hand side is 0, so scaling it
    # to O(1) leaves the solution unchanged and keeps the solve well scaled.
    m[3] = wachspress_row(quad, p) / quad.diameter**4
    return solve_dense(m, np.array([0.0, 0.0, 1.0, 0.0]))


def _wachspress_rows(quad: Quadrilateral, q) -> np.ndarray:
    """wachspress_row / diameter**4, as wachspress_coords_quad assembles it,
    for each row of q, in the same operation order."""
    v = quad.vertices
    lens = quad.edge_lengths
    h = np.empty((len(q), 4))
    for i in range(4):
        a = v[i]
        e = v[(i + 1) % 4] - a
        h[:, i] = (e[0] * (q[:, 1] - a[1]) - e[1] * (q[:, 0] - a[0])) / float(np.linalg.norm(e))
    rho = np.column_stack([lens[i - 1] * lens[i] * h[:, i - 1] * h[:, i] for i in range(4)])
    return rho * ALTERNATING / quad.diameter**4


def wachspress_coords_quad_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """wachspress_coords_quad at each row of points (m, 2); returns (phi, ok).

    Same contract as moment_coords_quad_many; raises NotConvex, as the
    single-point function does, when the quadrilateral is not convex.
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    return _coords_many(quad, points, 2, _wachspress_rows)


def wachspress_oracle(quad: Quadrilateral, p) -> np.ndarray:
    """Wachspress coordinates from the rational triangle-area quotient.

    w_i = A(v_{i-1}, v_i, v_{i+1}) / (A(p, v_{i-1}, v_i) * A(p, v_i, v_{i+1})),
    normalized to sum one.  Denominators vanish on the boundary, so p must
    be strictly interior.
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    if loc.kind != "interior":
        raise OnBoundary("area quotients are undefined on the boundary")
    v = quad.vertices
    edge_areas = np.array([signed_area(p, v[i], v[(i + 1) % 4]) for i in range(4)])
    if np.any(edge_areas == 0.0):
        raise OnBoundary("area quotients are undefined on the boundary")
    w = np.empty(4)
    for i in range(4):
        corner = signed_area(v[i - 1], v[i], v[(i + 1) % 4])
        w[i] = corner / (edge_areas[i - 1] * edge_areas[i])
    return w / w.sum()


def wachspress_oracle_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """wachspress_oracle at each row of points (m, 2); returns (phi, ok).

    Raises NotConvex, as wachspress_oracle does, when the quadrilateral is
    not convex.  ok[s] is False (and phi[s] NaN) where wachspress_oracle
    raises: off the open interior, or a vanishing edge triangle.  The area
    quotients run with signed_area's elementwise arithmetic, so phi[s] is
    bitwise equal to wachspress_oracle(quad, points[s]).
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    pts, kind = _locate_many(quad, points)
    ok = kind == "interior"
    phi = np.full((len(pts), 4), np.nan)
    v = quad.vertices
    x, y = pts[ok, 0], pts[ok, 1]
    u = v[[1, 2, 3, 0]]
    edge_areas = np.column_stack(
        [0.5 * ((v[i, 0] - x) * (u[i, 1] - y) - (v[i, 1] - y) * (u[i, 0] - x)) for i in range(4)]
    )
    w = np.empty(edge_areas.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(4):
            corner = signed_area(v[i - 1], v[i], v[(i + 1) % 4])
            w[:, i] = corner / (edge_areas[:, i - 1] * edge_areas[:, i])
        w /= w.sum(axis=1)[:, None]
    interior = np.flatnonzero(ok)
    ok[interior] = ~(edge_areas == 0.0).any(axis=1)
    phi[ok] = w[ok[interior]]
    return phi, ok
