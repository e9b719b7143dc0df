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
SingularMatrix, and the residual of the four rows is held to the contract
of smallsolve.solve_dense at every evaluation (smallsolve._residual_held):
one point beyond it raises ResidualExceeded, and a batch leaves that row
blank with the cause residual.

The gradients are closed forms too (moment_gradient_quad_many,
wachspress_gradient_quad_many, on a stack of points and the BatchInfo of
its weights): nu is constant and tau affine, so grad phi = grad tau + grad
alpha nu, with grad alpha = -(<grad r, tau> + <r, grad tau> + alpha
<grad r, nu>) / <r, nu> and grad d_i = -(v_i - p) / |v_i - p| for the
moment row, the product rule on c_(i-1) c_i for Wachspress.  The boundary
policy: an edge point takes the interior formula at the point, its
one-sided limit; a vertex point is evaluated at the vertex itself, where
the moment row's grad d_i is the unit inward bisector of the corner (the
limit along the bisector; the negated sum of the two edge directions at a
reflex corner).  So every point of the closed domain has a gradient.

Three independent oracles are provided for cross checks: the local tangent
formula for mean value coordinates, a Cramer's-rule expansion through all
four corner triangles, and the rational area quotient for Wachspress,
whose areas are taken in the same units, so that its products of two
areas do not overflow either.  Each coordinate function and oracle has a
batch twin (the *_many functions) that evaluates a stack of points and
returns (phi, ok, info) instead of raising per point, info the
geometry.BatchInfo of its location and of why each row failed.  Every
formula is written once for both, on Python floats for one point and as
elementwise numpy over a stack, in the same order, so the two agree bit
for bit: the weight rows, the closed form, the edge weights and the three
oracle kernels.  So is the point location both paths start from,
geometry._locate_quad, and with it the edge parameter of the edge weights:
a single-point function calls it on the point's floats as a batch function
calls it on the stack, and both compare the location codes it returns
(geometry.LOC_EXTERIOR ...); the kind names of geometry.PointLocation are
for callers outside the package, through classify_point_quad.

moment_coords_quad_many and wachspress_coords_quad_many also take a
geometry.QuadStack, many quadrilaterals with one element per row: the
location and the closed form read each row's own element tables through
the same elementwise code, the closed form once per kernel index among the
interior rows (QuadStack.kernel_groups), so every row equals its own
element's batch call bit for bit.  A Quadrilateral is the one-element case,
one kernel-index group with float tables.  The oracle batches take one
quadrilateral per call.  Each locates its points and hands them, with
their location, to a located core (_mvc_oracle_core,
_cramer_coords_quad_core, _wachspress_oracle_core), which the check
suite calls with the location a batch of the same points already
returned.
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
    BOUNDARY,
    LOC_EXTERIOR,
    LOC_INTERIOR,
    LOC_VERTEX,
    RESIDUAL,
    SINGULAR,
    BatchInfo,
    Quadrilateral,
    QuadStack,
    _locate_quad,
    signed_area,
)
from .smallsolve import PIVOT_RTOL, _residual_held

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


def _edge_crosses(ux, uy) -> list:
    """c_i = u_i x u_(i+1) from _unit_offsets: twice the signed area of
    (p, v_i, v_(i+1)) in units of L**2."""
    return [ux[i] * uy[i - 3] - uy[i] * ux[i - 3] for i in range(4)]


def _wachspress_weights(ux, uy) -> list:
    """The Wachspress weight row from _unit_offsets, in units of L**4:
    rho_i = l(i-1) l(i) h(i-1) h(i), with alternating signs, where edge i
    joins vertices i and i+1.

    With c_i from _edge_crosses, l(i) h(i) = c_i, so the lengths cancel:
    rho_i = c_(i-1) c_i.
    """
    c = _edge_crosses(ux, uy)
    return [c[3] * c[0], -(c[0] * c[1]), c[1] * c[2], -(c[2] * c[3])]


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
    SingularMatrix there instead.  quad may be a QuadStack of one kernel
    index k (QuadStack.kernel_groups).
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


def _closed_form_gradient(quad: Quadrilateral, x, y, wachspress: bool):
    """(gx, gy, singular): d phi_i / dx and d phi_i / dy of either family at
    the stack (x, y), arrays (m,), as 4-lists in absolute units, and
    _closed_form's singular there.

    phi = tau + alpha nu with nu constant, so grad phi = grad tau + grad
    alpha nu.  Everything is taken in units of L, as _closed_form takes it,
    where a unit step of p moves every offset u_i by minus that step, and
    multiplied by unit_scale = 1 / L at the end.  grad tau is constant: the
    barycentric gradients of corner triangle k.  With alpha = -<r, tau> /
    <r, nu>, grad alpha = -(<grad r, tau> + <r, grad tau> + alpha <grad r,
    nu>) / <r, nu>, taken as -(<grad r, phi> + <r, grad tau>) / <r, nu>.
    The moment row's distances have grad d_i = -u_i / d_i, and the unit
    inward bisector of vertex i (Quadrilateral.inward_bisectors) where d_i
    = 0: the limit of -u_i / d_i as p leaves the vertex along the bisector.
    The Wachspress row takes the product rule on c_(i-1) c_i, whose edge
    crosses c_i = u_i x u_(i+1) have the constant gradients (y_i -
    y_(i+1), x_(i+1) - x_i) / L.
    """
    nu, k, area2, s = quad.reproducing_kernel
    phi, r, ux, uy, singular = _closed_form(quad, x, y, wachspress)
    if wachspress:
        e = _edge_crosses(ux, uy)

        def grad_row(de):
            return [
                de[3] * e[0] + e[3] * de[0],
                -(de[0] * e[1] + e[0] * de[1]),
                de[1] * e[2] + e[1] * de[2],
                -(de[2] * e[3] + e[2] * de[3]),
            ]

        rx = grad_row([-ey * s for _, _, _, _, ey, _ in quad.edge_rows])
        ry = grad_row([ex * s for _, _, _, ex, _, _ in quad.edge_rows])
    else:
        rx, ry = [], []
        for i, (bx, by) in enumerate(quad.inward_bisectors):
            d, sign = abs(r[i]), -1.0 if i % 2 else 1.0
            at = d > 0.0
            rx.append(sign * np.divide(-ux[i], d, out=np.full(d.shape, bx), where=at))
            ry.append(sign * np.divide(-uy[i], d, out=np.full(d.shape, by), where=at))
    den = r[0] * nu[0] + r[1] * nu[1] + r[2] * nu[2] + r[3] * nu[3]
    a, b, c = _OTHERS[k]
    (ax, ay), (bx, by), (cx, cy) = (quad.corner_tuple[i] for i in (a, b, c))
    out = []
    for dr, db, dc in (
        (rx, (cy - ay) * s / area2, (ay - by) * s / area2),
        (ry, (ax - cx) * s / area2, (bx - ax) * s / area2),
    ):
        dtau = [0.0] * 4
        dtau[a], dtau[b], dtau[c] = -db - dc, db, dc
        dalpha = -sum(dr[i] * phi[i] + r[i] * dtau[i] for i in range(4)) / den
        out.append([(dtau[i] + dalpha * nu[i]) * s for i in range(4)])
    return out[0], out[1], singular


def _residual(phi, r, ux, uy):
    """The four rows phi solves, as a list: partition of unity, linear
    reproduction in units of L and the weight row."""
    return [
        phi[0] + phi[1] + phi[2] + phi[3] - 1.0,
        phi[0] * ux[0] + phi[1] * ux[1] + phi[2] * ux[2] + phi[3] * ux[3],
        phi[0] * uy[0] + phi[1] * uy[1] + phi[2] * uy[2] + phi[3] * uy[3],
        phi[0] * r[0] + phi[1] * r[1] + phi[2] * r[2] + phi[3] * r[3],
    ]


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


def _locate_one(quad: Quadrilateral, p):
    """(x, y, code, index, t) of one point p: its coordinates as floats and
    their _locate_quad location.  Raises OutsideDomain where p is exterior.
    Every single-point function of this module enters through it."""
    p = np.asarray(p, dtype=float)
    x, y = float(p[0]), float(p[1])
    code, index, t, _ = _locate_quad(quad, x, y)
    if code == LOC_EXTERIOR:
        raise OutsideDomain(f"point {p.tolist()} lies outside the quadrilateral")
    return x, y, code, index, t


def _coords_one(quad: Quadrilateral, p, wachspress: bool) -> np.ndarray:
    """Shared body of moment_coords_quad and wachspress_coords_quad."""
    x, y, code, index, t = _locate_one(quad, p)
    if code == LOC_INTERIOR:
        phi, r, ux, uy, _ = _closed_form(quad, x, y, wachspress)
        _residual_held(max(map(abs, _residual(phi, r, ux, uy))), 1.0, "closed-form")
        return np.array(phi)
    return _edge_weights(index, 0.0 if code == LOC_VERTEX else t)


def _coords_many(quad: Quadrilateral | QuadStack, points, wachspress: bool):
    """_coords_one at each row of points (on its own element of a
    QuadStack), the interior points as one stack per kernel index."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    phi = np.full((len(pts), 4), np.nan)
    failure = np.full(len(pts), SINGULAR)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        code, index, t, _ = _locate_quad(quad, *pts.T)
        solve = code == LOC_INTERIOR
        ok = code != LOC_EXTERIOR
        edge = ok & ~solve
        for rows, group in quad.kernel_groups(np.flatnonzero(solve)):
            cols, r, ux, uy, singular = _closed_form(group, *pts[rows].T, wachspress)
            resid = np.abs(_residual(cols, r, ux, uy)).max(axis=0)
            held = _residual_held(resid, 1.0, "closed-form")
            ok[rows] = held & ~singular
            failure[rows[~held & ~singular]] = RESIDUAL
            phi[rows] = np.where(ok[rows, None], np.array(cols).T, np.nan)
    phi[edge] = _edge_weights(index[edge], np.where(code[edge] == LOC_VERTEX, 0.0, t[edge]))
    return phi, ok, BatchInfo.of(code, index, ok, failure)


def moment_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Moment coordinates of p, identical to mean value coordinates.

    Valid on convex and nonconvex simple quadrilaterals, on the closed
    domain including the boundary.  Raises OutsideDomain for exterior p.
    """
    return _coords_one(quad, p, wachspress=False)


def moment_coords_quad_many(quad: Quadrilateral | QuadStack, points):
    """moment_coords_quad at each row of points (m, 2); returns (phi, ok,
    info), info the BatchInfo of the location it ran (causes exterior,
    singular and residual).

    quad may be a QuadStack, whose row s holds the element of points[s].
    phi[s] is bitwise equal to moment_coords_quad(quad, points[s]) where
    ok[s] is set; ok[s] is False (and phi[s] NaN) where the single-point
    function raises: an exterior point, a singular system or a solution
    beyond the residual contract, which holds each row to it alone.
    """
    return _coords_many(quad, points, False)


def wachspress_coords_quad(quad: Quadrilateral, p) -> np.ndarray:
    """Wachspress coordinates of p on a convex quadrilateral (closed domain)."""
    require_convex(quad)
    return _coords_one(quad, p, wachspress=True)


def wachspress_coords_quad_many(quad: Quadrilateral | QuadStack, points):
    """wachspress_coords_quad at each row of points (m, 2); returns (phi, ok,
    info).

    Same contract as moment_coords_quad_many, QuadStack included;
    raises NotConvex, as the single-point function does, when the
    quadrilateral (or an element of the stack) is not convex.
    """
    require_convex(quad)
    return _coords_many(quad, points, True)


def _gradient_many(quad: Quadrilateral, points, info: BatchInfo, wachspress: bool):
    """Shared body of moment_gradient_quad_many and
    wachspress_gradient_quad_many."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    rows = np.flatnonzero(info.code != LOC_EXTERIOR)
    x, y = pts[rows, 0], pts[rows, 1]
    vertex = np.flatnonzero(info.code[rows] == LOC_VERTEX)
    x[vertex], y[vertex] = quad.vertices[info.index[rows[vertex]]].T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gx, gy, singular = _closed_form_gradient(quad, x, y, wachspress)
    grad = np.full((len(pts), 4, 2), np.nan)
    grad[rows] = np.stack([np.array(gx).T, np.array(gy).T], axis=-1)
    ok = np.zeros(len(pts), dtype=bool)
    ok[rows] = ~singular & np.isfinite(grad[rows]).all(axis=(1, 2))
    grad[~ok] = np.nan
    return grad, ok


def moment_gradient_quad_many(quad: Quadrilateral, points, info: BatchInfo):
    """Gradients of the moment coordinates at each row of points (m, 2), in
    closed form; returns (grad (m, 4, 2), ok (m,)), grad[s, i, j] = d phi_i
    / d x_j.

    info is the BatchInfo moment_coords_quad_many(quad, points) returned,
    so the points are not located again.  An interior row takes
    _closed_form_gradient at the point.  The boundary policy: an edge row
    takes the same formula at the point, the one-sided limit from the
    interior; a vertex row takes it at the vertex itself, where the
    gradient of the vanishing distance is the unit inward bisector, so the
    row is the limit along the bisector.  ok[s] is False (and grad[s] NaN)
    at an exterior point, where the closed form is singular at the point,
    or where a gradient is not finite.
    """
    return _gradient_many(quad, points, info, False)


def wachspress_gradient_quad_many(quad: Quadrilateral, points, info: BatchInfo):
    """Gradients of the Wachspress coordinates at each row of points (m, 2),
    in closed form; same contract as moment_gradient_quad_many, info from
    wachspress_coords_quad_many.  Wachspress coordinates are rational and
    smooth up to the boundary, so the formula at an edge point or a vertex
    is the gradient there.  Raises NotConvex on a nonconvex quadrilateral.
    """
    require_convex(quad)
    return _gradient_many(quad, points, info, True)


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
    if _locate_one(quad, p)[2] != LOC_INTERIOR:
        raise OnBoundary("the local mean value formula is undefined on the boundary")
    return _mean_value(quad, p)


def _located(quad: Quadrilateral, points):
    """(pts, code, index): points (m, 2) as floats and their _locate_quad
    location, which the oracle batches hand to their cores."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    code, index, _, _ = _locate_quad(quad, pts[:, 0], pts[:, 1])
    return pts, code, index


def _mvc_oracle_core(quad: Quadrilateral, pts, code, index):
    """mvc_oracle_many at the float points pts (m, 2), whose _locate_quad
    location on quad is given: code and index (m,), as a batch of the same
    points on quad returned them."""
    ok = code == LOC_INTERIOR
    phi = np.where(ok[:, None], _mean_value(quad, pts), np.nan)
    return phi, ok, BatchInfo.of(code, index, ok, BOUNDARY)


def mvc_oracle_many(quad: Quadrilateral, points):
    """mvc_oracle at each row of points (m, 2); returns (phi, ok, info),
    info the BatchInfo of the location it ran (causes exterior and
    boundary).

    ok[s] is False (and phi[s] NaN) where mvc_oracle raises: off the open
    interior.  Elsewhere phi[s] is bitwise equal to mvc_oracle(quad,
    points[s]).
    """
    return _mvc_oracle_core(quad, *_located(quad, points))


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


def require_convex(quad: Quadrilateral | QuadStack):
    """Raise NotConvex unless quad (every element of a stack) is convex,
    as the Wachspress coordinates need."""
    if not quad.is_convex:
        raise NotConvex("Wachspress coordinates require a convex quadrilateral")


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
    x, y, _, _, _ = _locate_one(quad, p)
    return _cramer(quad, x, y)[0]


def _cramer_coords_quad_core(quad: Quadrilateral, pts, code, index):
    """cramer_coords_quad_many at pts located as _mvc_oracle_core's are; the
    caller has checked cramer_defect."""
    with np.errstate(divide="ignore", invalid="ignore"):
        phi, singular = _cramer(quad, *pts.T)
    ok = (code != LOC_EXTERIOR) & ~singular
    phi = np.where(ok[:, None], phi, np.nan)
    return phi, ok, BatchInfo.of(code, index, ok, SINGULAR)


def cramer_coords_quad_many(quad: Quadrilateral, points):
    """cramer_coords_quad at each row of points (m, 2); returns (phi, ok,
    info), info the BatchInfo of the location it ran (causes exterior and
    singular).

    ok[s] is False (and phi[s] NaN) where cramer_coords_quad raises for
    points[s]: an exterior point or a moment row orthogonal to the kernel.
    Elsewhere phi[s] is bitwise equal to cramer_coords_quad(quad,
    points[s]).  Raises DegenerateTriangle, as cramer_coords_quad does at
    every point, where cramer_defect names a flat corner.
    """
    require_cramer(quad)
    return _cramer_coords_quad_core(quad, *_located(quad, points))


def _area_quotient(quad: Quadrilateral, p):
    """Wachspress coordinates by the area quotient at one point p (2,) or a
    stack (m, 2), and whether an edge triangle vanishes there.

    The edge and corner areas are taken on offsets in units of L, the power
    of two next to the diameter (Quadrilateral.reproducing_kernel): an
    exact scaling, which the normalization takes out again, so the
    products of two areas do not overflow on large quadrilaterals."""
    s = quad.reproducing_kernel[3]
    o = _offsets(quad, p) * s
    ex, ey = o[..., 0, :], o[..., 1, :]
    edge_areas = 0.5 * (ex * ey[..., _NEXT] - ey * ex[..., _NEXT])
    v = quad.vertices * s
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
    require_convex(quad)
    p = np.asarray(p, dtype=float)
    code = _locate_one(quad, p)[2]
    w, vanishes = _area_quotient(quad, p)
    if code != LOC_INTERIOR or vanishes:
        raise OnBoundary("area quotients are undefined on the boundary")
    return w


def _wachspress_oracle_core(quad: Quadrilateral, pts, code, index):
    """wachspress_oracle_many at pts located as _mvc_oracle_core's are; the
    caller has checked that quad is convex."""
    w, vanishes = _area_quotient(quad, pts)
    interior = code == LOC_INTERIOR
    ok = interior & ~vanishes
    phi = np.where(ok[:, None], w, np.nan)
    return phi, ok, BatchInfo.of(code, index, ok, np.where(interior, SINGULAR, BOUNDARY))


def wachspress_oracle_many(quad: Quadrilateral, points):
    """wachspress_oracle at each row of points (m, 2); returns (phi, ok,
    info), info the BatchInfo of the location it ran (causes exterior,
    boundary, and singular for a vanishing edge triangle at an interior
    point).

    Raises NotConvex, as wachspress_oracle does, when the quadrilateral is
    not convex.  ok[s] is False (and phi[s] NaN) where wachspress_oracle
    raises: off the open interior, or a vanishing edge triangle.  Elsewhere
    phi[s] is bitwise equal to wachspress_oracle(quad, points[s]).
    """
    require_convex(quad)
    return _wachspress_oracle_core(quad, *_located(quad, points))
