"""Moment (mean value) and Wachspress coordinates on simple quadrilaterals.

Both families are the unique solutions of a 4 x 4 linear system: the
constant and linear reproducing rows plus one alternating-sign weight row r
(vertex distances for the moment family, incident-edge distance products
for Wachspress).  The system is solved in closed form, not assembled.  The
reproducing rows have a one-dimensional kernel nu (twice the signed areas
of the corner triangles, Quadrilateral.reproducing_kernel), so the solution
is phi = tau + alpha nu: tau holds the barycentric coordinates of p in the
largest corner triangle, zero at the vertex it leaves out, and alpha =
-<r, tau> / <r, nu>, defined exactly where the system is nonsingular.  The
offsets v_i - p and both rows are taken in units of a power of two next to
the diameter, so nothing overflows and every quadrilateral that validation
accepts evaluates, whatever its size.  A near-orthogonal row is refused as
SingularMatrix, and under __debug__ the residual of the four rows is held
to the contract of smallsolve.solve_dense.

Three independent oracles are provided for cross checks: the local tangent
formula for mean value coordinates, a Cramer's-rule expansion through all
four corner triangles, and the rational area quotient for Wachspress.
Each coordinate function and oracle has a batch twin (the *_many
functions) that evaluates a stack of points and returns (phi, ok) instead
of raising per point.  Every formula is written once for both, on Python
floats for one point and as elementwise numpy over a stack, in the same
order, so the two agree bit for bit: the weight rows, the closed form, the
edge weights and the three oracle kernels.  So is the point location both
paths start from (geometry._locate_quad, which classify_point_quad and
classify_points_quad wrap), and with it the edge parameter of the edge
weights.
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
    _locate_quad,
    classify_point_quad,
    classify_points_quad,
    signed_area,
)
from .smallsolve import PIVOT_RTOL, RESIDUAL_RTOL

_OTHERS = tuple(tuple(j for j in range(4) if j != i) for i in range(4))
_NEXT = np.array([1, 2, 3, 0])
_PREV = np.array([3, 0, 1, 2])


def _offsets(quad: Quadrilateral, p) -> np.ndarray:
    """v_i - p: (2, 4) for one point p (2,), (m, 2, 4) for a stack (m, 2)."""
    return quad.vertices.T - p[..., :, None]


def _unit_offsets(quad: Quadrilateral, x, y):
    """(ux, uy), the four (v_i - p) / L as two lists, of floats at one point
    (x, y) or of arrays (m,) at a stack, with L the power of two between the
    diameter and twice it (Quadrilateral.reproducing_kernel).  The scaling
    is exact, so they carry only the rounding of v_i - p; every weight row
    and the closed form are taken from them, and no product overflows."""
    s = quad.reproducing_kernel[3]
    c = quad.corner_tuple
    return [(vx - x) * s for vx, _ in c], [(vy - y) * s for _, vy in c]


def _moment_weights(ux, uy) -> list:
    """(d1, -d2, d3, -d4) from _unit_offsets, in units of L."""
    sqrt = math.sqrt if isinstance(ux[0], float) else np.sqrt
    d = [sqrt(ax * ax + ay * ay) for ax, ay in zip(ux, uy)]
    return [d[0], -d[1], d[2], -d[3]]


def moment_row(quad: Quadrilateral, p) -> np.ndarray:
    """Alternating-sign vertex distances (d1, -d2, d3, -d4)."""
    row = _moment_weights(*_unit_offsets(quad, float(p[0]), float(p[1])))
    return np.array(row) / quad.reproducing_kernel[3]


def _wachspress_weights(ux, uy) -> list:
    """wachspress_row from _unit_offsets, in units of L**4.

    With c_i = u_i x u_(i+1), twice the signed area of (p, v_i, v_(i+1)) in
    units of L**2, l(i) h(i) = c_i, so the lengths cancel: rho_i =
    c_(i-1) c_i.
    """
    c = [ux[i] * uy[i - 3] - uy[i] * ux[i - 3] for i in range(4)]
    return [c[3] * c[0], -(c[0] * c[1]), c[1] * c[2], -(c[2] * c[3])]


def wachspress_row(quad: Quadrilateral, p) -> np.ndarray:
    """Alternating-sign products of incident edge lengths and edge distances.

    rho_i = l(i-1) * l(i) * h(i-1) * h(i) where edge i joins vertices i and
    i+1; rho_i vanishes exactly when p lies on an edge incident to vertex i.
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress weights require a convex quadrilateral")
    s = quad.reproducing_kernel[3]
    return np.array(_wachspress_weights(*_unit_offsets(quad, float(p[0]), float(p[1])))) / s**4


def _closed_form(quad: Quadrilateral, x, y, wachspress: bool):
    """(phi, r, ux, uy, singular) of either family at (x, y), floats at one
    point or arrays (m,) at a stack; phi, r, ux and uy are 4-lists.

    The reproducing rows have the one-dimensional kernel nu, so phi = tau +
    alpha nu with tau the barycentric coordinates of p in corner triangle k
    (zero at vertex k) and alpha = -<r, tau> / <r, nu> for the family's
    weight row r; alpha does not depend on the scale of r or nu.  The
    corner triangle is the largest, so tau stays O(1) on the quad.
    singular is where r is nearly orthogonal to nu,
    |<r, nu>| <= PIVOT_RTOL * sum |r_i nu_i|; one point raises
    SingularMatrix there instead.
    """
    nu, k, area2, _ = quad.reproducing_kernel
    ux, uy = _unit_offsets(quad, x, y)
    r = _wachspress_weights(ux, uy) if wachspress else _moment_weights(ux, uy)
    rn = [r[0] * nu[0], r[1] * nu[1], r[2] * nu[2], r[3] * nu[3]]
    den = rn[0] + rn[1] + rn[2] + rn[3]
    singular = abs(den) <= PIVOT_RTOL * (abs(rn[0]) + abs(rn[1]) + abs(rn[2]) + abs(rn[3]))
    if isinstance(den, float) and singular:
        raise SingularMatrix(f"weight row is orthogonal to the reproducing kernel ({den:.3e})")
    a, b, c = _OTHERS[k]
    tb = (ux[c] * uy[a] - uy[c] * ux[a]) / area2
    tc = (ux[a] * uy[b] - uy[a] * ux[b]) / area2
    ta = 1.0 - tb - tc
    alpha = -(r[a] * ta + r[b] * tb + r[c] * tc) / den
    phi = [alpha * nu[0], alpha * nu[1], alpha * nu[2], alpha * nu[3]]
    phi[a], phi[b], phi[c] = ta + phi[a], tb + phi[b], tc + phi[c]
    return phi, r, ux, uy, singular


def _residual(phi, r, ux, uy):
    """The four rows phi solves, as a list: partition of unity, linear
    reproduction in units of L and the weight row."""
    return [
        phi[0] + phi[1] + phi[2] + phi[3] - 1.0,
        phi[0] * ux[0] + phi[1] * ux[1] + phi[2] * ux[2] + phi[3] * ux[3],
        phi[0] * uy[0] + phi[1] * uy[1] + phi[2] * uy[2] + phi[3] * uy[3],
        phi[0] * r[0] + phi[1] * r[1] + phi[2] * r[2] + phi[3] * r[3],
    ]


# The residual contract of smallsolve.solve_dense for a right-hand side of
# inf-norm 1: |residual|_inf <= RESIDUAL_RTOL * (1 + |b|_inf).
_RESIDUAL_BOUND = 2.0 * RESIDUAL_RTOL


def _edge_weights(i, t) -> np.ndarray:
    """Linear interpolation along edge i: 1 - t at vertex i, t at i + 1.

    Takes one point (i an int, t a float) or a stack (arrays (m,)); t = 0
    gives the Kronecker row of vertex i.  Both families reduce to it on an
    edge.  Taking it from the edge parameter, not from a solve, keeps the
    weights of a point snapped onto the edge from within the tolerance
    nonnegative.  They are the weights of the point's projection onto the
    edge, so they reproduce the point itself only up to its distance from
    the edge, at most the tolerance.
    """
    i, t = np.asarray(i)[..., None], np.asarray(t)[..., None]
    j = np.arange(4)
    return np.where(j == i, 1.0 - t, np.where(j == (i + 1) % 4, t, 0.0))


def _coords_one(quad: Quadrilateral, p, wachspress: bool) -> np.ndarray:
    """Shared body of moment_coords_quad and wachspress_coords_quad."""
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    if loc.kind == "interior":
        phi, r, ux, uy, _ = _closed_form(quad, float(p[0]), float(p[1]), wachspress)
        if __debug__:
            resid = max(map(abs, _residual(phi, r, ux, uy)))
            assert resid <= _RESIDUAL_BOUND, f"closed-form residual {resid:.3e} exceeds contract"
        return np.array(phi)
    return _edge_weights(loc.index, 0.0 if loc.kind == "at_vertex" else loc.t)


def _coords_many(quad: Quadrilateral, points, wachspress: bool):
    """_coords_one at each row of points, the interior points as one stack."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kind, index, t, _ = _locate_quad(quad, *pts.T, CLASSIFY_RTOL * quad.diameter)
        solve = kind == "interior"
        cols, r, ux, uy, singular = _closed_form(quad, *pts[solve].T, wachspress)
        if __debug__:
            resid = np.abs(_residual(cols, r, ux, uy))[:, ~singular].max(initial=0.0)
            assert resid <= _RESIDUAL_BOUND, f"closed-form residual {resid:.3e} exceeds contract"
    phi = np.full((len(pts), 4), np.nan)
    ok = kind != "exterior"
    edge = ok & ~solve
    phi[edge] = _edge_weights(index[edge], np.where(kind[edge] == "at_vertex", 0.0, t[edge]))
    phi[solve] = np.where(singular[:, None], np.nan, np.array(cols).T)
    ok[solve] = ~singular
    return phi, ok


def moment_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Moment coordinates of p, identical to mean value coordinates.

    Valid on convex and nonconvex simple quadrilaterals, on the closed
    domain including the boundary.  Raises OutsideDomain for exterior p.
    """
    return _coords_one(quad, p, wachspress=False)


def moment_coords_quad_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """moment_coords_quad at each row of points (m, 2); returns (phi, ok).

    phi[s] is bitwise equal to moment_coords_quad(quad, points[s]) where
    ok[s] is set; ok[s] is False (and phi[s] NaN) where the single-point
    function raises: an exterior point or a singular system.
    """
    return _coords_many(quad, points, wachspress=False)


def wachspress_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Wachspress coordinates of p on a convex quadrilateral (closed domain)."""
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    return _coords_one(quad, p, wachspress=True)


def wachspress_coords_quad_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """wachspress_coords_quad at each row of points (m, 2); returns (phi, ok).

    Same contract as moment_coords_quad_many; raises NotConvex, as the
    single-point function does, when the quadrilateral is not convex.
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    return _coords_many(quad, points, wachspress=True)


def _mean_value(quad: Quadrilateral, p) -> np.ndarray:
    """Mean value coordinates by the local tangent half-angle formula at one
    point p (2,) or a stack (m, 2); inf or NaN where p is not interior."""
    o = _offsets(quad, p)
    ex, ey = o[..., 0, :], o[..., 1, :]
    fx, fy = ex[..., _NEXT], ey[..., _NEXT]
    r = np.hypot(ex, ey)
    cross = ex * fy - ey * fx
    dot = ex * fx + ey * fy
    rr = r * r[..., _NEXT]
    with np.errstate(divide="ignore", invalid="ignore"):
        # tan(angle/2) = sin/(1+cos) = (1-cos)/sin; pick the branch that
        # avoids cancellation (angles approach pi near an edge).
        t = np.where(dot >= 0.0, cross / (rr + dot), (rr - dot) / cross)
        w = (t[..., _PREV] + t) / r
        return w / w.sum(axis=-1, keepdims=True)


def mvc_oracle(quad: Quadrilateral, p) -> np.ndarray:
    """Mean value coordinates via the local tangent half-angle formula.

    Only valid strictly inside the polygon; boundary points raise
    OnBoundary (use the system form there).
    """
    p = np.asarray(p, dtype=float)
    loc = classify_point_quad(quad, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    if loc.kind != "interior":
        raise OnBoundary("the local mean value formula is undefined on the boundary")
    return _mean_value(quad, p)


def mvc_oracle_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """mvc_oracle at each row of points (m, 2); returns (phi, ok).

    ok[s] is False (and phi[s] NaN) where mvc_oracle raises: off the open
    interior.  Elsewhere phi[s] is bitwise equal to mvc_oracle(quad,
    points[s]).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    ok = classify_points_quad(quad, pts)[0] == "interior"
    return np.where(ok[:, None], _mean_value(quad, pts), np.nan), ok


def _area2(ax, ay, bx, by, cx, cy):
    """Twice the signed triangle area, on scalars."""
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _tri_area2(a, b, c):
    """(twice the signed area of triangle abc, whether it is too flat to
    carry barycentric coordinates), on float pairs."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    area2 = _area2(ax, ay, bx, by, cx, cy)
    scale2 = max(
        (ax - bx) ** 2 + (ay - by) ** 2,
        (ax - cx) ** 2 + (ay - cy) ** 2,
        (bx - cx) ** 2 + (by - cy) ** 2,
    )
    return area2, abs(area2) <= 2e-13 * scale2


def _tri_bary(a, b, c, px, py):
    """Barycentric coordinates of (px, py) as a plain 3-tuple; px and py
    may be arrays, which give a tuple of arrays."""
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    area2, flat = _tri_area2(a, b, c)
    if flat:
        raise DegenerateTriangle(f"triangle area {0.5 * area2:.3e} too small")
    l2 = _area2(ax, ay, px, py, cx, cy) / area2
    l3 = _area2(ax, ay, bx, by, px, py) / area2
    return 1.0 - l2 - l3, l2, l3


def triangle_barycentric(tri, p) -> np.ndarray:
    """Affine coordinates of p w.r.t. a triangle, signed outside it."""
    a, b, c = ((float(q[0]), float(q[1])) for q in tri)
    return np.array(_tri_bary(a, b, c, float(p[0]), float(p[1])))


def cramer_defect(quad: Quadrilateral) -> str | None:
    """Why the Cramer expansion is undefined on quad, or None where it is
    defined.  It needs the triangle coordinates of every corner triangle
    (three of the four vertices), and a nearly straight corner of a valid
    quadrilateral leaves one too flat."""
    c = quad.corner_tuple
    for j, k, m in _OTHERS:
        area2, flat = _tri_area2(c[j], c[k], c[m])
        if flat:
            return (
                f"Cramer's rule is undefined on this quadrilateral: corner triangle"
                f" ({j}, {k}, {m}) has area {0.5 * area2:.3e}"
            )
    return None


def require_cramer(quad: Quadrilateral):
    """Raise DegenerateTriangle with cramer_defect's reason, if it gives one."""
    defect = cramer_defect(quad)
    if defect is not None:
        raise DegenerateTriangle(defect)


def _cramer(quad: Quadrilateral, x, y):
    """(phi, singular) at (x, y), floats or arrays (m,), with d the moment row
    and nu the reproducing kernel, in units of L and L**2: phi_i = -nu_i *
    <d, tau_i> / <d, nu>, and singular where the moment row is orthogonal to
    the reproducing kernel, |<d, nu>| <= 2e-14 * (diameter / L)**3, which is
    |<d, nu>| <= 1e-14 * diameter**3 with d in lengths and nu in areas (one
    point raises SingularMatrix instead, before any triangle).  Raises
    DegenerateTriangle."""
    c = quad.corner_tuple
    nu, _, _, s = quad.reproducing_kernel
    d = _moment_weights(*_unit_offsets(quad, x, y))
    den = d[0] * nu[0] + d[1] * nu[1] + d[2] * nu[2] + d[3] * nu[3]
    singular = abs(den) <= 2e-14 * (quad.diameter * s) ** 3
    if np.ndim(den) == 0 and singular:
        raise SingularMatrix("moment row is orthogonal to the reproducing kernel")
    phi = []
    for i, (j, k, m) in enumerate(_OTHERS):
        tau = _tri_bary(c[j], c[k], c[m], x, y)
        # -nu_i = (-1)^(i+1) * S_i, exactly: the signs are powers of -1.
        phi.append(-nu[i] * (d[j] * tau[0] + d[k] * tau[1] + d[m] * tau[2]) / den)
    return np.array(phi).T, singular


def cramer_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Moment coordinates via Cramer's rule through triangle coordinates.

    phi_i = (-1)^(i+1) * S_i * <d, tau_i> / <d, nu> with tau_i the triangle
    coordinates of p leaving vertex i out (zero padded at slot i), S_i the
    signed area of the remaining triangle, and nu the kernel vector of the
    reproducing rows.  Agrees with moment_coords_quad on simple quads.
    Raises DegenerateTriangle where cramer_defect names a flat corner.
    """
    require_cramer(quad)
    p = np.asarray(p, dtype=float)
    if classify_point_quad(quad, p).kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    return _cramer(quad, float(p[0]), float(p[1]))[0]


def cramer_coords_quad_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """cramer_coords_quad at each row of points (m, 2); returns (phi, ok).

    ok[s] is False (and phi[s] NaN) where cramer_coords_quad raises for
    points[s]: an exterior point or a moment row orthogonal to the kernel.
    Elsewhere phi[s] is bitwise equal to cramer_coords_quad(quad,
    points[s]).  Raises DegenerateTriangle, as cramer_coords_quad does at
    every point, where cramer_defect names a flat corner.
    """
    require_cramer(quad)
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi, singular = _cramer(quad, *pts.T)
    ok = (classify_points_quad(quad, pts)[0] != "exterior") & ~singular
    return np.where(ok[:, None], phi, np.nan), ok


def _area_quotient(quad: Quadrilateral, p):
    """Wachspress coordinates by the area quotient at one point p (2,) or a
    stack (m, 2), and whether an edge triangle vanishes there."""
    o = _offsets(quad, p)
    ex, ey = o[..., 0, :], o[..., 1, :]
    edge_areas = 0.5 * (ex * ey[..., _NEXT] - ey * ex[..., _NEXT])
    v = quad.vertices
    corners = np.array([signed_area(v[i - 1], v[i], v[(i + 1) % 4]) for i in range(4)])
    with np.errstate(divide="ignore", invalid="ignore"):
        w = corners / (edge_areas[..., _PREV] * edge_areas)
        w = w / w.sum(axis=-1, keepdims=True)
    return w, (edge_areas == 0.0).any(axis=-1)


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
    w, vanishes = _area_quotient(quad, p)
    if loc.kind != "interior" or vanishes:
        raise OnBoundary("area quotients are undefined on the boundary")
    return w


def wachspress_oracle_many(quad: Quadrilateral, points) -> tuple[np.ndarray, np.ndarray]:
    """wachspress_oracle at each row of points (m, 2); returns (phi, ok).

    Raises NotConvex, as wachspress_oracle does, when the quadrilateral is
    not convex.  ok[s] is False (and phi[s] NaN) where wachspress_oracle
    raises: off the open interior, or a vanishing edge triangle.  Elsewhere
    phi[s] is bitwise equal to wachspress_oracle(quad, points[s]).
    """
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    w, vanishes = _area_quotient(quad, pts)
    ok = (classify_points_quad(quad, pts)[0] == "interior") & ~vanishes
    return np.where(ok[:, None], w, np.nan), ok
