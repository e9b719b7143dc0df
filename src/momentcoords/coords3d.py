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
alone is kept by the Hexahedron: its face planes (face_planes), those
lines (pair_lines) and its faces as 2D quadrilaterals (face_to_plane).

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

moment_coords_hex evaluates one point; moment_coords_hex_many evaluates a
batch with the same arithmetic.  The frame rule is written once
(_frame): it takes one point as Python floats, which is faster for a
single point than numpy calls, or a stack as arrays, and both run the same
elementwise operations in the same order.  The assembly helpers take one
point's arrays or a stack of them (the leading axes broadcast), and every
sum of products is spelled out elementwise, because the rounding of a
matrix product depends on the BLAS kernel and on the stack around it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FrameNotFound, OutsideDomain
from .geometry import (
    HEX_FACE_VERTICES,
    REFERENCE_CUBE,
    Hexahedron,
    Quadrilateral,
    _locate_hex,
    _quad_area,
    face_of_point_hex,
)
from .smallsolve import solve_dense, solve_dense_many

# Required signs of the frame coordinates of v_i - p (rows) per vertex
# (columns), column i being REFERENCE_CUBE[i]; row r separates the
# opposite-face pair r.
SIGN_PATTERN = REFERENCE_CUBE.T

# Signs applied to the full distance row: the product of the pattern rows.
DISTANCE_SIGNS = SIGN_PATTERN.prod(axis=0)

# Signs applied to the partial-distance block: row r is the product of the
# pattern rows other than r.
DELTA_SIGNS = DISTANCE_SIGNS * SIGN_PATTERN

# Entries closer to zero than this (relative to the diameter) fail the
# strict sign test.
PATTERN_ZERO_RTOL = 1e-12
# Lower bound on |det| of the unit frame basis.
FRAME_DET_MIN = 1e-8

# FACE_VERTICES[f, i] is True when vertex i lies on face f.
FACE_VERTICES = HEX_FACE_VERTICES

# The frame rule's tables as Python numbers: the sign pattern's rows, and
# the three faces that contain each vertex.
_PATTERN_ROWS = tuple(map(tuple, SIGN_PATTERN.tolist()))
_VERTEX_FACES = tuple(tuple(np.flatnonzero(col).tolist()) for col in FACE_VERTICES.T)

# Right-hand side of the system: only the partition-of-unity row is 1.
_RHS = np.eye(8)[0]


def _dot3(a, b):
    """Sum over the last axis (length 3) of a * b, elementwise in a fixed
    order; a and b broadcast."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _column_norms(a):
    """Euclidean norm of each column of a (..., 3, n)."""
    x, y, z = a[..., 0, :], a[..., 1, :], a[..., 2, :]
    return np.sqrt(x * x + y * y + z * z)


class Frame3:
    """Unit reference basis anchored at the evaluation point, as the frame
    rule computed it: the basis vectors r1, r2, r3 (the columns of basis),
    its inverse rows (the coordinate functionals) and its determinant det.
    Coordinates of a point q are rows @ (q - origin).
    """

    def __init__(self, basis, rows, origin, det: float):
        self.basis, self.rows, self.origin, self.det = basis, rows, origin, det
        self.r1, self.r2, self.r3 = basis.T

    def coords(self, points) -> np.ndarray:
        """Frame coordinates of points (n, 3), returned as a 3 x n array."""
        q = np.asarray(points, dtype=float) - self.origin
        return _dot3(self.rows[:, None, :], q[None, :, :])

    def is_identity(self) -> bool:
        return bool(np.allclose(self.basis, np.eye(3), atol=1e-14))


def sign_pattern_ok(w, diameter: float, cols=None):
    """True where every entry of the 3 x 8 frame-coordinate array is bounded
    away from zero (beyond PATTERN_ZERO_RTOL * diameter) and carries the
    required sign: a bool for w (3, 8), a bool array for a stack (..., 3,
    8).  cols restricts the test to a column subset."""
    w = np.asarray(w, dtype=float)
    pattern = SIGN_PATTERN
    if cols is not None:
        cols = list(cols)
        w = w[..., cols]
        pattern = pattern[:, cols]
    ok = np.all(pattern * w > PATTERN_ZERO_RTOL * diameter, axis=(-2, -1))
    return bool(ok) if ok.ndim == 0 else ok


def _delta_from_w(w, zero_cols=None):
    """Signed partial distances (..., 3, 8) from frame coordinates w
    (..., 3, 8); columns where zero_cols (..., 8) is set are zeroed."""
    delta = np.stack(
        [
            np.hypot(w[..., 1, :], w[..., 2, :]),
            np.hypot(w[..., 0, :], w[..., 2, :]),
            np.hypot(w[..., 0, :], w[..., 1, :]),
        ],
        axis=-2,
    ) * DELTA_SIGNS
    if zero_cols is not None:
        delta = np.where(zero_cols[..., None, :], 0.0, delta)
    return delta


def _hex_system(w, zero_cols=None):
    """The 8 x 8 matrix (or stack of them) for frame coordinates w."""
    m = np.empty(w.shape[:-2] + (8, 8))
    m[..., 0, :] = 1.0
    m[..., 1:4, :] = w
    m[..., 4:7, :] = _delta_from_w(w, zero_cols)
    m[..., 7, :] = _column_norms(w) * DISTANCE_SIGNS
    return m


def _pick(cond, a, b):
    """Triple a where cond holds, else b: a branch at one point (cond a
    bool), np.where per component over a stack (cond an array)."""
    if isinstance(cond, np.ndarray):
        return tuple(np.where(cond, x, y) for x, y in zip(a, b))
    return a if cond else b


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
    within 1e-12 diameters of its line; one point raises there)."""
    one = isinstance(px, float)
    d = hexa.diameter
    rows = []
    found = True
    for r, ((line, bisector), (fa, fb)) in enumerate(zip(hexa.pair_lines, hexa.OPPOSITE_PAIRS)):
        on_a, on_b = on[fa], on[fb]
        if line is None:
            row = bisector
        elif one and (on_a or on_b):
            row = None  # the face normal below; one point skips the wedge
        else:
            (mx, my, mz), dist, norm_m = _wedge_normal(line, px, py, pz)
            hit = (dist >= 1e-12 * d) & (norm_m >= 1e-14 * d)
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
    |c_1| |c_2|).  independent is |D| >= 1e-12; the rest is undefined where
    it fails, and one point returns None for it there."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = functionals
    adj = (
        (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0),
        (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0),
        (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0),
    )
    x, y, z = adj[0]
    det_f = a0 * x + a1 * y + a2 * z
    size = abs(det_f)
    independent = size >= 1e-12
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
    basis of |det| >= FRAME_DET_MIN.  Raises FrameNotFound otherwise; on a
    valid convex hexahedron that is seen only at points just outside a
    corner that classify on a face.
    """
    p = np.asarray(p, dtype=float)
    px, py, pz = p.tolist()
    basis, rows, det, _ = _frame(hexa, px, py, pz, tuple(f in faces for f in range(6)))
    return Frame3(np.array(basis).T, np.array(rows), p, det)


def _induced_face_quad(f: int, w) -> Quadrilateral:
    """Face f as a 2D quadrilateral in the frame coordinates w (3, 8) of
    the vertices (frame.coords(hexa.vertices), or a row of
    moment_coords_hex_many's frame coordinates) when the query point lies
    on face f.

    The coordinate row belonging to the face's opposite-face pair vanishes
    on the face (the frame pins that functional to the face normal); the
    other two rows parameterize it.  The vertex order matches the face
    connectivity, with the query point at the origin.  Used to state the
    facet-reduction property.
    """
    keep = [r for r in range(3) if r != f // 2]
    verts2d = w[keep][:, list(Hexahedron.FACES[f])].T.copy()
    if _quad_area(verts2d.tolist()) < 0:
        verts2d[:, 1] = -verts2d[:, 1]
    return Quadrilateral(verts2d)


def moment_coords_hex(hexa: Hexahedron, p, return_frame: bool = False):
    """Moment coordinates of p on a convex planar-faced hexahedron.

    Returns the weight vector, or (weights, frame) when return_frame is
    set (the frame is None when the vertex shortcut fires).  The computed
    weights depend on the reference frame; the reproducing constraints
    (partition of unity and linear precision in the original coordinates)
    hold for any accepted frame.
    """
    p = np.asarray(p, dtype=float)
    loc = face_of_point_hex(hexa, p)
    if loc.kind == "exterior":
        raise OutsideDomain(f"point {p.tolist()} lies outside the hexahedron")
    if loc.kind == "at_vertex":
        phi = np.zeros(8)
        phi[loc.index] = 1.0
        return (phi, None) if return_frame else phi
    frame = reference_frame(hexa, p, faces=loc.faces)
    w = frame.coords(hexa.vertices)
    zero_cols = FACE_VERTICES[loc.index] if loc.kind == "on_face" else None
    phi = solve_dense(_hex_system(w * hexa.unit_scale, zero_cols), _RHS)
    return (phi, frame) if return_frame else phi


def moment_coords_hex_many(hexa: Hexahedron, points, return_frame_coords: bool = False):
    """moment_coords_hex at each row of points (m, 3); returns (phi, ok).

    Classification, frames, assembly and the LU solve each run once over
    the batch.  phi[s] is bitwise equal to moment_coords_hex(hexa,
    points[s]) where ok[s] is set; ok[s] is False (and phi[s] NaN) where
    the single-point function raises MomentCoordsError: an exterior point,
    a frame that misses the sign pattern or the determinant bounds, or a
    singular system.  The solver's residual contract runs as it does for
    one point, over the whole batch.

    With return_frame_coords, returns (phi, ok, w) where w[s] (3, 8) is
    frame.coords(hexa.vertices) of the frame moment_coords_hex(hexa,
    points[s], return_frame=True) returns, bitwise, and NaN where there is
    none (a vertex, or a point the frame search failed).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    kind, index, on = _locate_hex(hexa, pts[:, 0], pts[:, 1], pts[:, 2])
    phi = np.full((len(pts), 8), np.nan)
    ok = np.zeros(len(pts), dtype=bool)
    vertex = np.flatnonzero(kind == "at_vertex")
    phi[vertex] = 0.0
    phi[vertex, index[vertex]] = 1.0
    ok[vertex] = True
    solve = np.flatnonzero((kind == "interior") | (kind == "on_face"))
    q = pts[solve]
    with np.errstate(divide="ignore", invalid="ignore"):
        _, rows, _, framed = _frame(hexa, q[:, 0], q[:, 1], q[:, 2], on[:, solve])
    solve, q = solve[framed], q[framed]
    rows = np.moveaxis(np.array(rows), -1, 0)[framed]
    w = _dot3(rows[:, :, None, :], (hexa.vertices - q[:, None, :])[:, None, :, :])
    zero_cols = (kind[solve] == "on_face")[:, None] & FACE_VERTICES[index[solve]]
    phi[solve], ok[solve] = solve_dense_many(
        _hex_system(w * hexa.unit_scale, zero_cols), np.broadcast_to(_RHS, (len(solve), 8))
    )
    if not return_frame_coords:
        return phi, ok
    frame_coords = np.full((len(pts), 3, 8), np.nan)
    frame_coords[solve] = w
    return phi, ok, frame_coords
