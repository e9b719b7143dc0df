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

moment_coords_hex evaluates one point; moment_coords_hex_many evaluates a
batch with the same arithmetic, written once where the two can share it:
the helpers below take one point's arrays or a stack of them (the leading
axes broadcast), and every sum of products is spelled out elementwise,
because the rounding of a matrix product depends on the BLAS kernel and on
the stack around it.
"""

from __future__ import annotations

import numpy as np

from .errors import FrameNotFound, OutsideDomain
from .geometry import (
    HEX_FACE_VERTICES,
    REFERENCE_CUBE,
    Hexahedron,
    Quadrilateral,
    _locate_points_hex,
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


def _unit_frame(functionals):
    """(basis, rows) of the frame with these coordinate functionals
    (..., 3, 3), its basis vectors rescaled to unit length.  Rescaling
    basis column j by 1/n_j rescales inverse row j by n_j."""
    basis = np.linalg.inv(functionals)
    norms = _column_norms(basis)
    return basis / norms[..., None, :], functionals * norms[..., :, None]


class Frame3:
    """Unit reference basis anchored at the evaluation point.

    Coordinates of a point q are rows @ (q - origin) where rows is the
    inverse of the basis matrix [r1 r2 r3].
    """

    def __init__(self, r1, r2, r3, origin, _rows=None):
        self.r1 = np.asarray(r1, dtype=float)
        self.r2 = np.asarray(r2, dtype=float)
        self.r3 = np.asarray(r3, dtype=float)
        self.origin = np.asarray(origin, dtype=float)
        self.basis = np.column_stack([self.r1, self.r2, self.r3])
        self.rows = np.linalg.inv(self.basis) if _rows is None else _rows

    @classmethod
    def from_functionals(cls, rows, origin):
        """Build the frame whose coordinate functionals are the given rows,
        rescaled so the basis vectors have unit length."""
        basis, rows = _unit_frame(np.asarray(rows, dtype=float))
        return cls(basis[:, 0], basis[:, 1], basis[:, 2], origin, _rows=rows)

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.basis))

    def coords(self, points) -> np.ndarray:
        """Frame coordinates of points (n, 3), returned as a 3 x n array."""
        q = np.asarray(points, dtype=float) - self.origin
        return _dot3(self.rows[:, None, :], q[None, :, :])

    def is_identity(self) -> bool:
        return bool(np.allclose(self.basis, np.eye(3), atol=1e-14))


def sign_pattern_ok(w, diameter: float, cols=None) -> bool:
    """True iff every entry of the 3 x 8 frame-coordinate array is bounded
    away from zero (beyond PATTERN_ZERO_RTOL * diameter) and carries the
    required sign.  cols restricts the test to a column subset."""
    w = np.asarray(w, dtype=float)
    pattern = SIGN_PATTERN
    if cols is not None:
        cols = list(cols)
        w = w[:, cols]
        pattern = pattern[:, cols]
    return bool(np.all(pattern * w > PATTERN_ZERO_RTOL * diameter))


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


def _det3(rows):
    """Determinant by cofactor expansion of rows, a nested 3 x 3 sequence
    whose entries are floats or arrays (a stack, entrywise)."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rows
    return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)


def _wedge_normal(line, px, py, pz):
    """m = u x (p - a) for the line (u, x0, _), a the point of the line
    closest to p, with |p - a| and |m|.

    Takes one point as Python floats or a batch as arrays; both run the
    same elementwise operations.
    """
    (ux, uy, uz), (x0, y0, z0), _ = line
    t = ux * (px - x0) + uy * (py - y0) + uz * (pz - z0)
    dx = px - (x0 + t * ux)
    dy = py - (y0 + t * uy)
    dz = pz - (z0 + t * uz)
    mx = uy * dz - uz * dy
    my = uz * dx - ux * dz
    mz = ux * dy - uy * dx
    return (mx, my, mz), np.sqrt(dx * dx + dy * dy + dz * dz), np.sqrt(mx * mx + my * my + mz * mz)


def _wedge_direction(hexa, p, pair):
    """Separating functional for an opposite-face pair whose supporting
    planes meet.

    The planes meet in a line l bounding a wedge that contains the solid;
    the plane spanned by l and p separates the two faces, so its normal
    (oriented toward the pair's positive face) is a valid coordinate
    functional.  Returns None when p lies on l.
    """
    line = hexa.pair_lines[pair][0]
    px, py, pz = p.tolist()
    (mx, my, mz), dist, norm_m = _wedge_normal(line, px, py, pz)
    if dist < 1e-12 * hexa.diameter or norm_m < 1e-14 * hexa.diameter:
        return None
    mx, my, mz = mx / norm_m, my / norm_m, mz / norm_m
    cx, cy, cz = line[2]
    m = np.array([mx, my, mz])
    return m if mx * (cx - px) + my * (cy - py) + mz * (cz - pz) >= 0 else -m


def _face_normal_direction(hexa, pair, faces):
    """Outward normal of whichever face of the pair contains p, oriented
    toward that face's positive sign-pattern side."""
    fa, fb = Hexahedron.OPPOSITE_PAIRS[pair]
    if fa in faces:
        return hexa.face_planes[fa][0]
    if fb in faces:
        return -hexa.face_planes[fb][0]
    return None


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
    basis of |det| >= FRAME_DET_MIN.  Raises FrameNotFound otherwise; for
    a valid convex hexahedron this is not expected to happen.
    """
    p = np.asarray(p, dtype=float)
    rows = []
    for r, (line, bisector) in enumerate(hexa.pair_lines):
        row = _face_normal_direction(hexa, r, faces)
        if row is None:
            row = bisector if line is None else _wedge_direction(hexa, p, r)
        if row is None:
            raise FrameNotFound(f"pair {r} has no wedge functional at {p.tolist()}")
        rows.append(row)
    rows = np.vstack(rows)
    signs = SIGN_PATTERN * _dot3(rows[:, None, :], hexa.vertices - p)
    if faces:
        signs = signs[:, ~FACE_VERTICES[list(faces)].any(axis=0)]
    hits = signs > PATTERN_ZERO_RTOL * hexa.diameter
    if not hits.all():
        r = int(np.flatnonzero(~hits.all(axis=1))[0])
        raise FrameNotFound(f"the frame row of pair {r} misses the sign pattern at {p.tolist()}")
    if abs(_det3(rows.tolist())) < 1e-12:
        raise FrameNotFound("frame functionals are linearly dependent")
    frame = Frame3.from_functionals(rows, p)
    if abs(frame.det) < FRAME_DET_MIN:
        raise FrameNotFound(f"frame determinant {frame.det:.3e} below bound")
    return frame


def _frame_rows_many(hexa: Hexahedron, q, faces) -> tuple[np.ndarray, np.ndarray]:
    """reference_frame(hexa, q[s], faces of s).rows for each row of q
    (k, 3), where faces (k, 6) marks the faces containing each point.

    Returns (rows (k, 3, 3), ok (k,)): the same rule and the same tests
    with the same arithmetic, so rows[s] is bitwise equal to the
    single-point frame's rows where ok[s] is set; ok[s] is False where
    reference_frame raises FrameNotFound.
    """
    k = len(q)
    offsets = hexa.vertices - q[:, None, :]
    exempt = (faces[:, :, None] & FACE_VERTICES).any(axis=1)
    tol = PATTERN_ZERO_RTOL * hexa.diameter
    functionals = np.empty((k, 3, 3))
    ok = np.ones(k, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r, (line, bisector) in enumerate(hexa.pair_lines):
            if line is None:
                row = np.broadcast_to(bisector, (k, 3))
                found = np.ones(k, dtype=bool)
            else:
                (mx, my, mz), dist, norm_m = _wedge_normal(line, q[:, 0], q[:, 1], q[:, 2])
                found = ~(dist < 1e-12 * hexa.diameter) & ~(norm_m < 1e-14 * hexa.diameter)
                m = np.stack([mx / norm_m, my / norm_m, mz / norm_m], axis=-1)
                row = np.where((_dot3(m, np.array(line[2]) - q) >= 0)[:, None], m, -m)
            fa, fb = Hexahedron.OPPOSITE_PAIRS[r]
            on_a, on_b = faces[:, fa], faces[:, fb]
            row = np.where(
                on_a[:, None],
                hexa.face_planes[fa][0],
                np.where(on_b[:, None], -hexa.face_planes[fb][0], row),
            )
            signs = SIGN_PATTERN[r] * _dot3(row[:, None, :], offsets)
            ok &= (found | on_a | on_b) & ((signs > tol) | exempt).all(axis=1)
            functionals[:, r] = row
        ok &= ~(np.abs(_det3(np.moveaxis(functionals, 0, -1))) < 1e-12)
        functionals[~ok] = np.eye(3)  # keeps inv defined; these rows are dropped
        basis, rows = _unit_frame(functionals)
        ok &= ~(np.abs(np.linalg.det(basis)) < FRAME_DET_MIN)
    return rows, ok


def partial_distance_matrix(hexa: Hexahedron, p, frame: Frame3) -> np.ndarray:
    """Signed 3 x 8 partial distances in frame coordinates.

    Row r holds the distances between the projections of p and v_i onto
    the coordinate plane excluding frame axis r, with the fixed alternating
    sign layout.  When p lies on a face, that face's four columns are
    zeroed so the boundary system reduces to the face's 2D system.
    """
    p = np.asarray(p, dtype=float)
    w = frame.coords(hexa.vertices)
    location = face_of_point_hex(hexa, p)
    return _delta_from_w(w, FACE_VERTICES[location.index] if location.kind == "on_face" else None)


def distance_row_3d(hexa: Hexahedron, p, frame: Frame3) -> np.ndarray:
    """Signed full distances in frame coordinates (norms of the w columns)."""
    return _column_norms(frame.coords(hexa.vertices)) * DISTANCE_SIGNS


def induced_face_quad(hexa: Hexahedron, f: int, frame: Frame3):
    """Face f as a 2D quadrilateral in the frame coordinates induced on it.

    The coordinate row belonging to the face's opposite-face pair vanishes
    on the face (the frame pins that functional to the face normal); the
    other two rows parameterize it.  Returns a Quadrilateral whose vertex
    order matches the face connectivity, with the query point at the
    origin.  Used to state the facet-reduction property.
    """
    return _induced_face_quad(f, frame.coords(hexa.vertices))


def _induced_face_quad(f: int, w) -> Quadrilateral:
    """induced_face_quad from the frame coordinates w (3, 8) of the
    vertices, such as moment_coords_hex_many returns."""
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
    phi = solve_dense(_hex_system(w, zero_cols), _RHS)
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
    kind, index, faces = _locate_points_hex(hexa, pts)
    phi = np.full((len(pts), 8), np.nan)
    ok = np.zeros(len(pts), dtype=bool)
    vertex = np.flatnonzero(kind == "at_vertex")
    phi[vertex] = 0.0
    phi[vertex, index[vertex]] = 1.0
    ok[vertex] = True
    solve = np.flatnonzero((kind == "interior") | (kind == "on_face"))
    rows, framed = _frame_rows_many(hexa, pts[solve], faces[solve])
    solve, rows = solve[framed], rows[framed]
    q = pts[solve]
    w = _dot3(rows[:, :, None, :], (hexa.vertices - q[:, None, :])[:, None, :, :])
    zero_cols = (kind[solve] == "on_face")[:, None] & FACE_VERTICES[index[solve]]
    phi[solve], ok[solve] = solve_dense_many(
        _hex_system(w, zero_cols), np.broadcast_to(_RHS, (len(solve), 8))
    )
    if not return_frame_coords:
        return phi, ok
    frame_coords = np.full((len(pts), 3, 8), np.nan)
    frame_coords[solve] = w
    return phi, ok, frame_coords
