"""Moment coordinates on convex planar-faced hexahedra.

The 8 x 8 system stacks a ones row, the three frame-coordinate rows of
v_i - p, a 3 x 8 block of signed partial distances, and a signed full
distance row.  It is nonsingular and its solution nonnegative whenever the
frame coordinates of v_i - p match a fixed entrywise sign pattern, so each
evaluation first builds a unit reference frame realizing the pattern.  The
pattern is the sign triple of geometry.REFERENCE_CUBE[i] for vertex i; the
partial-distance and distance signs are products of its rows.  One rule
picks each frame row per opposite-face pair: the normal of the plane
through p and the line where the pair's supporting planes meet, or the
pair's normal bisector when the planes are parallel.  The frame varies
continuously with p, and so do the weights.  What depends on the geometry
alone is kept by the Hexahedron: its face planes (face_normals,
plane_rows) and those lines (pair_lines).

For boundary points the pattern cannot hold on the columns of the
containing face; those columns are exempted from the sign check and zeroed
inside the partial-distance block, and the frame row of the face's pair is
the face normal.  This reduces the solution to the 2D moment coordinates of
the face.

The frame's inverse is taken by cofactors: its unit basis vectors are the
adjugate's columns over their norms, and its rows the functionals scaled
by |adjugate column| / |det|.  The system takes the frame coordinates in
units of L, the power of two next to the diameter (an exact scaling), so
its rows are O(1) whatever the size of the hexahedron; the frame and the
frame coordinates it returns stay in absolute units.

One point and a stack run the same code, on Python floats for one point
(faster there than numpy calls) and on (m,) arrays for a stack, with the
same elementwise operations in the same order: point location
(geometry._locate_hex, whose containing-face flags go to the frame rule as
they are), the frame rule (_frame), the assembly (_system) and the LU
(smallsolve._solve, which takes the rows as assembled).  Only the
branches differ: one point raises at the first failed test, a stack clears
ok there.  So moment_coords_hex_many gives each point the bits of
moment_coords_hex.  Every sum of products is spelled out elementwise (the
frame coordinates in _dot3's order), because the rounding of a matrix
product depends on the BLAS kernel and on the stack around it.  The
partial distances are sqrt(a*a + b*b): math.hypot and np.hypot round
differently from each other (on 11,568 of 2,000,000 random normal pairs),
so the single point and the batch would part in the last bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FrameNotFound, OutsideDomain
from .geometry import (
    FRAME,
    HEX_FACE_VERTICES,
    HEX_OPPOSITE_PAIRS,
    LOC_EXTERIOR,
    LOC_FACET,
    LOC_INTERIOR,
    LOC_VERTEX,
    REFERENCE_CUBE,
    RESIDUAL,
    SINGULAR,
    _HEX_FACE_INDEX,
    BatchInfo,
    Hexahedron,
    _locate_hex,
    _quad_area,
)
from .smallsolve import _solve
from .tolerances import (
    FRAME_DET_MIN,
    FRAME_INDEPENDENCE_TOL,
    PATTERN_ZERO_RTOL,
    WEDGE_DISTANCE_RTOL,
    WEDGE_NORMAL_RTOL,
)

# Required signs of the frame coordinates of v_i - p (rows) per vertex
# (columns), column i being REFERENCE_CUBE[i]; row r separates the
# opposite-face pair r.
SIGN_PATTERN = REFERENCE_CUBE.T

# Signs applied to the full distance row: the product of the pattern rows.
DISTANCE_SIGNS = SIGN_PATTERN.prod(axis=0)

# Signs applied to the partial-distance block: row r is the product of the
# pattern rows other than r.
DELTA_SIGNS = DISTANCE_SIGNS * SIGN_PATTERN

# Signs of the partial distances and the distance of each column (vertex)
# i: DELTA_SIGNS[:, i] and DISTANCE_SIGNS[i] as floats.
_VERTEX_SIGNS = tuple(
    map(tuple, np.vstack([DELTA_SIGNS, DISTANCE_SIGNS]).T.astype(float).tolist())
)

# _ZEROED[f] marks the columns of face f, whose partial distances are 0.0
# for a point on face f; _ZEROED[_NO_FACE] marks none, for any other point.
_NO_FACE = 6
_ZEROED = np.vstack([HEX_FACE_VERTICES, np.zeros(8, dtype=bool)])

# The frame rule's tables as Python numbers: the sign pattern's rows, and
# the three faces that contain each vertex.
_PATTERN_ROWS = tuple(map(tuple, SIGN_PATTERN.tolist()))
_VERTEX_FACES = tuple(tuple(np.flatnonzero(col).tolist()) for col in HEX_FACE_VERTICES.T)

# Right-hand side of the system: only the partition-of-unity row is 1.
_RHS = [1.0] + [0.0] * 7

# The frame-coordinate rows that parameterize face f: the two that do not
# belong to its opposite-face pair.
_FACE_ROWS = np.array([[r for r in range(3) if r != f // 2] for f in range(6)])


def _dot3(a, b):
    """Sum over the last axis (length 3) of a * b, elementwise in a fixed
    order; a and b broadcast."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


class Frame3:
    """Unit reference basis anchored at the evaluation point, as the frame
    rule computed it: the basis vectors r1, r2, r3 (the columns of basis),
    its inverse rows (the coordinate functionals) and its determinant det.
    Coordinates of a point q are rows @ (q - origin).
    """

    def __init__(self, columns, rows, origin, det: float):
        """From the frame rule's result for one point (_frame): the basis
        columns and the rows as float triples."""
        self.basis, self.rows = np.array(columns).T, np.array(rows)
        self.origin, self.det = origin, det
        self.r1, self.r2, self.r3 = self.basis.T

    def coords(self, points) -> np.ndarray:
        """Frame coordinates of points (n, 3), returned as a 3 x n array."""
        q = np.asarray(points, dtype=float) - self.origin
        return _dot3(self.rows[:, None, :], q[None, :, :])

    def is_identity(self) -> bool:
        return bool(np.allclose(self.basis, np.eye(3), atol=1e-14))


def sign_pattern_ok(w, diameter: float):
    """True where every entry of the 3 x 8 frame-coordinate array is bounded
    away from zero (beyond PATTERN_ZERO_RTOL * diameter) and carries the
    required sign: a bool for w (3, 8), a bool array for a stack (..., 3,
    8)."""
    w = np.asarray(w, dtype=float)
    ok = np.all(SIGN_PATTERN * w > PATTERN_ZERO_RTOL * diameter, axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def _pick(cond, a, b):
    """Triple a where cond holds, else b: a branch at one point (cond a
    bool), np.where per component over a stack (cond an array)."""
    if isinstance(cond, np.ndarray):
        return tuple(np.where(cond, x, y) for x, y in zip(a, b))
    return a if cond else b


def _distance_rows(x, y, z, signs, zeroed):
    """Rows 4 to 7 of the system in one column, at frame coordinates (x, y,
    z) in units of L: the partial distances sqrt(y*y + z*z), sqrt(x*x +
    z*z) and sqrt(x*x + y*y) and the distance sqrt(x*x + y*y + z*z), each
    times its entry of signs (_VERTEX_SIGNS), with the partial distances
    0.0 where zeroed (the column lies on the face that holds the point).

    Takes one column as floats, zeroed a bool, or a stack as arrays, zeroed
    a bool array, and runs the same elementwise operations on both (not
    math.hypot or np.hypot, which round differently from each other).
    """
    sqrt = math.sqrt if isinstance(x, float) else np.sqrt
    xx, yy, zz = x * x, y * y, z * z
    s_yz, s_xz, s_xy, s_xyz = signs
    partial = (sqrt(yy + zz) * s_yz, sqrt(xx + zz) * s_xz, sqrt(xx + yy) * s_xy)
    return (*_pick(zeroed, (0.0, 0.0, 0.0), partial), sqrt(xx + yy + zz) * s_xyz)


def _system(rows, offsets, scale, zeroed):
    """The 8 rows of the moment system, and the frame coordinates w.

    rows are the frame's three coordinate functionals (fx, fy, fz), offsets
    the eight vertex offsets v_i - p (dx, dy, dz), scale the factor 1 / L
    (Hexahedron.unit_scale) and zeroed the eight columns' flags for
    _distance_rows.  Every number is a float for one point or an (m,) array
    for a stack, and the same elementwise operations run on both: w[r][i]
    is fx dx + fy dy + fz dz, in _dot3's order, and the system's rows are
    the ones row (floats), w in units of L, and the distance rows.
    """
    w = [[fx * dx + fy * dy + fz * dz for dx, dy, dz in offsets] for fx, fy, fz in rows]
    unit = [[c * scale for c in row] for row in w]
    return [[1.0] * 8, *unit, *zip(*map(_distance_rows, *unit, _VERTEX_SIGNS, zeroed))], w


def _wedge_normal(line, px, py, pz):
    """m = u x (p - a) for the line (u, x0, _), a the point of the line
    closest to p, with |p - a| and |m|.

    Takes one point as Python floats or a batch as arrays; both run the
    same elementwise operations.
    """
    (ux, uy, uz), (x0, y0, z0), _ = line
    sqrt = math.sqrt if isinstance(px, float) else np.sqrt
    t = ux * (px - x0) + uy * (py - y0) + uz * (pz - z0)
    dx = px - (x0 + t * ux)
    dy = py - (y0 + t * uy)
    dz = pz - (z0 + t * uz)
    mx = uy * dz - uz * dy
    my = uz * dx - ux * dz
    mz = ux * dy - uy * dx
    return (mx, my, mz), sqrt(dx * dx + dy * dy + dz * dz), sqrt(mx * mx + my * my + mz * mz)


def _functionals(hexa: Hexahedron, px, py, pz, on):
    """(functionals, found): each pair's unit functional as a triple, picked
    as reference_frame says, and where every wedge normal was found (not
    within WEDGE_DISTANCE_RTOL diameters of its line, nor shorter than
    WEDGE_NORMAL_RTOL diameters; one point raises there)."""
    one = isinstance(px, float)
    d = hexa.diameter
    rows = []
    found = True
    for r, ((line, bisector), (fa, fb)) in enumerate(zip(hexa.pair_lines, HEX_OPPOSITE_PAIRS)):
        on_a, on_b = on[fa], on[fb]
        if line is None:
            row = bisector
        elif one and (on_a or on_b):
            row = None  # the face normal below; one point skips the wedge
        else:
            (mx, my, mz), dist, norm_m = _wedge_normal(line, px, py, pz)
            hit = (dist >= WEDGE_DISTANCE_RTOL * d) & (norm_m >= WEDGE_NORMAL_RTOL * d)
            if one and not hit:
                raise FrameNotFound(f"pair {r} has no wedge functional at {[px, py, pz]}")
            found = found & (hit | on_a | on_b)
            mx, my, mz = mx / norm_m, my / norm_m, mz / norm_m
            cx, cy, cz = line[2]
            toward = mx * (cx - px) + my * (cy - py) + mz * (cz - pz) >= 0
            row = _pick(toward, (mx, my, mz), (-mx, -my, -mz))
        nx, ny, nz = hexa.face_normals[fb]
        rows.append(_pick(on_a, hexa.face_normals[fa], _pick(on_b, (-nx, -ny, -nz), row)))
    return rows, found


def _unit_frame(functionals):
    """(basis, rows, det, independent) of the unit frame with functionals
    f_j, by cofactors.  With c_j the adjugate's columns (c_0 = f_1 x f_2,
    c_1 = f_2 x f_0, c_2 = f_0 x f_1) and D = f_0 . c_0, basis column j is
    c_j / (sign(D) |c_j|), row j is f_j |c_j| / |D| and det = D |D| / (|c_0|
    |c_1| |c_2|).  independent is |D| >= FRAME_INDEPENDENCE_TOL; the rest
    is undefined where it fails, and one point returns None for it there."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = functionals
    adj = (
        (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0),
        (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0),
        (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0),
    )
    x, y, z = adj[0]
    det_f = a0 * x + a1 * y + a2 * z
    size = abs(det_f)
    independent = size >= FRAME_INDEPENDENCE_TOL
    if isinstance(size, float) and not independent:
        return None, None, None, False
    sqrt = math.sqrt if isinstance(size, float) else np.sqrt
    norms = [sqrt(x * x + y * y + z * z) for x, y, z in adj]
    sign = det_f / size
    basis = [(x / (sign * n), y / (sign * n), z / (sign * n)) for (x, y, z), n in zip(adj, norms)]
    rows = []
    for (fx, fy, fz), n in zip(functionals, norms):
        k = n / size
        rows.append((fx * k, fy * k, fz * k))
    det = det_f * size / (norms[0] * norms[1] * norms[2])
    return basis, rows, det, independent


def _frame(hexa: Hexahedron, px, py, pz, on):
    """The frame rule of reference_frame: (basis columns, rows, det, ok).

    Takes one point as Python floats with on six bools marking the faces
    that contain it, or a stack as arrays (k,) with on (6, k), and runs the
    same elementwise arithmetic on both: the pair functionals, the strict
    sign test outside the containing faces, the independence test and the
    unit frame's determinant bound.  One point raises FrameNotFound at the
    first test it fails; a stack clears ok there.
    """
    one = isinstance(px, float)
    functionals, ok = _functionals(hexa, px, py, pz, on)
    tol = PATTERN_ZERO_RTOL * hexa.diameter
    offsets = [(vx - px, vy - py, vz - pz) for vx, vy, vz in hexa.corner_tuple]
    exempt = [on[a] | on[b] | on[c] for a, b, c in _VERTEX_FACES]
    for r, ((fx, fy, fz), signs) in enumerate(zip(functionals, _PATTERN_ROWS)):
        hits = True
        for sign, (dx, dy, dz), skip in zip(signs, offsets, exempt):
            hits = hits & ((sign * (fx * dx + fy * dy + fz * dz) > tol) | skip)
        if one and not hits:
            raise FrameNotFound(f"the frame row of pair {r} misses the sign pattern at {[px, py, pz]}")
        ok = ok & hits
    basis, rows, det, independent = _unit_frame(functionals)
    if one and not independent:
        raise FrameNotFound("frame functionals are linearly dependent")
    bounded = abs(det) >= FRAME_DET_MIN
    if one and not bounded:
        raise FrameNotFound(f"frame determinant {det:.3e} below bound")
    return basis, rows, det, ok & independent & bounded


def reference_frame(hexa: Hexahedron, p, faces=()) -> Frame3:
    """A unit frame in which the vertex offsets match the sign pattern.

    Row r separates the opposite-face pair r and follows one rule:
    - when p lies on a face of the pair (faces lists the faces containing
      p), the row is that face's normal, so it vanishes identically on the
      face and the facet-reduction property lives in the other two rows;
    - otherwise, when the pair's supporting planes meet in a line, the row
      is the normal of the plane through that line and p;
    - otherwise the row is the pair's normal bisector.
    The wedge normal tends to the bisector as the planes turn parallel, so
    the frame, and with it the weights, depend continuously on p.  On an
    axis-aligned box the bisectors are the axes and the frame is the
    identity.

    Each row must satisfy the strict sign pattern on the columns outside
    the containing faces, and the rows must be independent with a unit
    basis of |det| >= FRAME_DET_MIN.  Raises FrameNotFound otherwise.
    """
    p = np.asarray(p, dtype=float)
    px, py, pz = p.tolist()
    basis, rows, det, _ = _frame(hexa, px, py, pz, tuple(f in faces for f in range(6)))
    return Frame3(basis, rows, p, det)


def _induced_corners(face, w):
    """The corners of the induced face quadrilateral: face f as a 2D
    quadrilateral in the frame coordinates w (3, 8) of the vertices
    (frame.coords(hexa.vertices), or a row of moment_coords_hex_many's frame
    coordinates) when the query point lies on face f.  (4, 2) for a face f
    (an int) and w (3, 8), or (k, 4, 2) for faces (k,) and w (k, 3, 8), one
    face and point per row.  Quadrilateral of them, or QuadStack.from_corners
    for many, states the facet-reduction property.

    The coordinate row belonging to the face's opposite-face pair vanishes
    on the face (the frame pins that functional to the face normal); each
    row takes the rows of the two other pairs (_FACE_ROWS) at the face's
    vertices in cyclic order, with the query point at the origin, and
    negates the second coordinate where the corners run clockwise
    (_quad_area on the same floats, elementwise for a stack), so every
    induced quadrilateral keeps the face's vertex order.
    """
    rows = np.take_along_axis(w, _FACE_ROWS[face][..., :, None], axis=-2)
    xy = np.take_along_axis(rows, _HEX_FACE_INDEX[face][..., None, :], axis=-1)
    x, y = xy[..., 0, :], xy[..., 1, :]
    area = _quad_area(list(zip(x.T, y.T)))
    return np.stack([x, np.where(np.asarray(area < 0)[..., None], -y, y)], axis=-1)


def moment_coords_hex(hexa: Hexahedron, p, return_frame: bool = False):
    """Moment coordinates of p on a convex planar-faced hexahedron.

    Returns the weight vector, or (weights, frame) when return_frame is
    set (the frame is None when the vertex shortcut fires).  The computed
    weights depend on the reference frame; the reproducing constraints
    (partition of unity and linear precision in the original coordinates)
    hold for any accepted frame.
    """
    p = np.asarray(p, dtype=float)
    px, py, pz = p.tolist()
    code, index, on = _locate_hex(hexa, px, py, pz)
    if code == LOC_EXTERIOR:
        raise OutsideDomain(f"point {p.tolist()} lies outside the hexahedron")
    if code == LOC_VERTEX:
        phi = np.zeros(8)
        phi[index] = 1.0
        return (phi, None) if return_frame else phi
    basis, rows, det, _ = _frame(hexa, px, py, pz, on)
    offsets = [(vx - px, vy - py, vz - pz) for vx, vy, vz in hexa.corner_tuple]
    zeroed = _ZEROED[index if code == LOC_FACET else _NO_FACE]
    system, _ = _system(rows, offsets, hexa.unit_scale, zeroed)
    phi = _solve(system, _RHS)[0]
    return (phi, Frame3(basis, rows, p, det)) if return_frame else phi


def moment_coords_hex_many(hexa: Hexahedron, points, return_frame_coords: bool = False):
    """moment_coords_hex at each row of points (m, 3); returns (phi, ok,
    info), info the BatchInfo of the location it ran, with causes exterior,
    frame (FrameNotFound), singular (SingularMatrix) and residual
    (ResidualExceeded).

    Classification, frames, assembly and the LU solve each run once over
    the batch.  phi[s] is bitwise equal to moment_coords_hex(hexa,
    points[s]) where ok[s] is set; ok[s] is False (and phi[s] NaN) where
    the single-point function raises MomentCoordsError: an exterior point,
    a frame that misses the sign pattern or the determinant bounds, a
    singular system, or a solution beyond the solver's residual contract,
    which holds each row to it alone.

    With return_frame_coords, returns (phi, ok, w, info) where w[s] (3, 8)
    is frame.coords(hexa.vertices) of the frame moment_coords_hex(hexa,
    points[s], return_frame=True) returns, bitwise, and NaN where there is
    none (a vertex, or a point the frame search failed).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    code, index, on = _locate_hex(hexa, pts[:, 0], pts[:, 1], pts[:, 2])
    phi = np.full((len(pts), 8), np.nan)
    ok = np.zeros(len(pts), dtype=bool)
    vertex = np.flatnonzero(code == LOC_VERTEX)
    phi[vertex] = 0.0
    phi[vertex, index[vertex]] = 1.0
    ok[vertex] = True
    solve = np.flatnonzero((code == LOC_INTERIOR) | (code == LOC_FACET))
    q = pts[solve]
    with np.errstate(divide="ignore", invalid="ignore"):
        _, rows, _, framed = _frame(hexa, q[:, 0], q[:, 1], q[:, 2], on[:, solve])
    unframed = solve[~framed]
    solve, q = solve[framed], q[framed]
    rows = [(fx[framed], fy[framed], fz[framed]) for fx, fy, fz in rows]
    qx, qy, qz = q.T
    offsets = [(vx - qx, vy - qy, vz - qz) for vx, vy, vz in hexa.corner_tuple]
    face = np.where(code[solve] == LOC_FACET, index[solve], _NO_FACE)
    system, w = _system(rows, offsets, hexa.unit_scale, _ZEROED.T[:, face])
    phi[solve], ok[solve], over = _solve(system, _RHS, len(solve))
    out = (phi, ok)
    if return_frame_coords:
        frame_coords = np.full((len(pts), 3, 8), np.nan)
        frame_coords[solve] = np.array(w).transpose(2, 0, 1)
        out += (frame_coords,)
    failure = np.full(len(pts), SINGULAR)
    failure[unframed] = FRAME
    failure[solve[over]] = RESIDUAL
    return out + (BatchInfo.of(code, index, ok, failure),)
