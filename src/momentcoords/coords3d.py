"""Moment coordinates on convex planar-faced hexahedra.

The 8 x 8 system stacks a ones row, the three frame-coordinate rows of
v_i - p, a 3 x 8 block of signed partial distances, and a signed full
distance row.  It is nonsingular and its solution nonnegative whenever the
frame coordinates of v_i - p match a fixed entrywise sign pattern, so each
evaluation first builds a unit reference frame realizing the pattern.  One
rule picks each frame row per opposite-face pair: the normal of the plane
through p and the line where the pair's supporting planes meet, or the
pair's normal bisector when the planes are parallel.  The frame varies
continuously with p, and so do the weights.

For boundary points the pattern cannot hold on the columns of the
containing face; those columns are exempted from the sign check and zeroed
inside the partial-distance block, and the frame row of the face's pair is
the face normal.  This reduces the solution to the 2D moment coordinates of
the face.
"""

from __future__ import annotations

import numpy as np

from .errors import FrameNotFound, OutsideDomain
from .geometry import (
    Hexahedron,
    PointLocation,
    Quadrilateral,
    _polygon_area,
    face_of_point_hex,
    faces_containing,
)
from .smallsolve import solve_dense

# Required signs of the frame coordinates of v_i - p (rows) per vertex
# (columns); row r separates the opposite-face pair r.
SIGN_PATTERN = np.array(
    [
        [+1, +1, +1, +1, -1, -1, -1, -1],
        [+1, +1, -1, -1, +1, +1, -1, -1],
        [+1, -1, -1, +1, +1, -1, -1, +1],
    ],
    dtype=float,
)

# Signs applied to the partial-distance block, row by row.
DELTA_SIGNS = np.array(
    [
        [+1, -1, +1, -1, +1, -1, +1, -1],
        [+1, -1, -1, +1, -1, +1, +1, -1],
        [+1, +1, -1, -1, -1, -1, +1, +1],
    ],
    dtype=float,
)

# Signs applied to the full distance row.
DISTANCE_SIGNS = np.array([+1, -1, +1, -1, -1, +1, -1, +1], dtype=float)

# Entries closer to zero than this (relative to the diameter) fail the
# strict sign test.
PATTERN_ZERO_RTOL = 1e-12
# Lower bound on |det| of the unit frame basis.
FRAME_DET_MIN = 1e-8


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
        rows = np.asarray(rows, dtype=float)
        basis = np.linalg.inv(rows)
        norms = np.linalg.norm(basis, axis=0)
        basis = basis / norms
        # Rescaling basis column j by 1/n_j rescales inverse row j by n_j.
        return cls(
            basis[:, 0], basis[:, 1], basis[:, 2], origin, _rows=rows * norms[:, None]
        )

    @property
    def det(self) -> float:
        return float(np.linalg.det(self.basis))

    def coords(self, points) -> np.ndarray:
        """Frame coordinates of points (n, 3), returned as a 3 x n array."""
        q = np.asarray(points, dtype=float) - self.origin
        return self.rows @ q.T

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


def _delta_from_w(w, face=None):
    delta = np.vstack(
        [
            np.hypot(w[1], w[2]),
            np.hypot(w[0], w[2]),
            np.hypot(w[0], w[1]),
        ]
    ) * DELTA_SIGNS
    if face is not None:
        delta[:, list(Hexahedron.FACES[face])] = 0.0
    return delta


def _cross3(a, b):
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def _det3(rows) -> float:
    a, b, c = rows
    return float(
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _pair_planes(hexa):
    """Per opposite-face pair: (line, bisector), exactly one of them None.

    line is (unit direction, point on the line, positive-face centroid) of
    the line where the pair's supporting planes meet; when the planes are
    parallel (|n_a x n_b| < 1e-9) it is None and bisector is the unit
    normal bisector n_a - n_b instead.  Depends only on the geometry, so
    cached.
    """
    cached = getattr(hexa, "_mc_pair_planes", None)
    if cached is not None:
        return cached
    out = []
    for fa, fb in Hexahedron.OPPOSITE_PAIRS:
        na, ca = hexa.face_planes[fa]
        nb, cb = hexa.face_planes[fb]
        u = _cross3(na, nb)
        norm_u = np.linalg.norm(u)
        if norm_u < 1e-9:
            m = na - nb
            out.append((None, m / np.linalg.norm(m)))
            continue
        u = u / norm_u
        lhs = np.vstack([na, nb, u])
        rhs = np.array([na @ ca, nb @ cb, 0.0])
        x0 = np.linalg.solve(lhs, rhs)
        centroid = hexa.vertices[list(Hexahedron.FACES[fa])].mean(axis=0)
        out.append(((u, x0, centroid), None))
    cached = tuple(out)
    hexa._mc_pair_planes = cached
    return cached


def _wedge_direction(hexa, p, pair):
    """Separating functional for an opposite-face pair whose supporting
    planes meet.

    The planes meet in a line l bounding a wedge that contains the solid;
    the plane spanned by l and p separates the two faces, so its normal
    (oriented toward the pair's positive face) is a valid coordinate
    functional.  Returns None when p lies on l.
    """
    u, x0, centroid = _pair_planes(hexa)[pair][0]
    a = x0 + (u @ (p - x0)) * u  # closest point to p on the line
    d = p - a
    if np.linalg.norm(d) < 1e-12 * hexa.diameter:
        return None
    m = _cross3(u, d)
    norm_m = np.linalg.norm(m)
    if norm_m < 1e-14 * hexa.diameter:
        return None
    m = m / norm_m
    return m if m @ (centroid - p) >= 0 else -m


def _face_normal_direction(hexa, pair, faces):
    """Outward normal of whichever face of the pair contains p, oriented
    toward that face's positive sign-pattern side."""
    fa, fb = Hexahedron.OPPOSITE_PAIRS[pair]
    if fa in faces:
        n, _ = hexa.face_planes[fa]
        return n
    if fb in faces:
        n, _ = hexa.face_planes[fb]
        return -n
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
    cols = sorted(set(range(8)).difference(*(Hexahedron.FACES[f] for f in faces)))
    offsets = hexa.vertices[cols] - p
    pattern = SIGN_PATTERN[:, cols]
    tol = PATTERN_ZERO_RTOL * hexa.diameter
    rows = []
    for r, (line, bisector) in enumerate(_pair_planes(hexa)):
        row = _face_normal_direction(hexa, r, faces)
        if row is None:
            row = bisector if line is None else _wedge_direction(hexa, p, r)
        if row is None or not np.all(pattern[r] * (offsets @ row) > tol):
            raise FrameNotFound(
                f"the frame row of pair {r} misses the sign pattern at {p.tolist()}"
            )
        rows.append(row)
    if abs(_det3(rows)) < 1e-12:
        raise FrameNotFound("frame functionals are linearly dependent")
    frame = Frame3.from_functionals(np.vstack(rows), p)
    if abs(frame.det) < FRAME_DET_MIN:
        raise FrameNotFound(f"frame determinant {frame.det:.3e} below bound")
    return frame


def partial_distance_matrix(
    hexa: Hexahedron, p, frame: Frame3, location: PointLocation | None = None
) -> np.ndarray:
    """Signed 3 x 8 partial distances in frame coordinates.

    Row r holds the distances between the projections of p and v_i onto
    the coordinate plane excluding frame axis r, with the fixed alternating
    sign layout.  When p lies on a face, that face's four columns are
    zeroed so the boundary system reduces to the face's 2D system.
    """
    p = np.asarray(p, dtype=float)
    w = frame.coords(hexa.vertices)
    if location is None:
        location = face_of_point_hex(hexa, p)
    face = location.index if location.kind == "on_face" else None
    return _delta_from_w(w, face)


def distance_row_3d(hexa: Hexahedron, p, frame: Frame3) -> np.ndarray:
    """Signed full distances in frame coordinates (norms of the w columns)."""
    w = frame.coords(hexa.vertices)
    return np.linalg.norm(w, axis=0) * DISTANCE_SIGNS


def induced_face_quad(hexa: Hexahedron, f: int, frame: Frame3):
    """Face f as a 2D quadrilateral in the frame coordinates induced on it.

    The coordinate row belonging to the face's opposite-face pair vanishes
    on the face (the frame pins that functional to the face normal); the
    other two rows parameterize it.  Returns a Quadrilateral whose vertex
    order matches the face connectivity, with the query point at the
    origin.  Used to state the facet-reduction property.
    """
    idx = list(Hexahedron.FACES[f])
    w = frame.coords(hexa.vertices[idx])
    keep = [r for r in range(3) if r != f // 2]
    verts2d = w[keep].T.copy()
    if _polygon_area(verts2d) < 0:
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
    faces = faces_containing(hexa, p) if loc.kind == "on_face" else ()
    frame = reference_frame(hexa, p, faces=faces)
    w = frame.coords(hexa.vertices)
    m = np.empty((8, 8))
    m[0] = 1.0
    m[1:4] = w
    m[4:7] = _delta_from_w(w, loc.index if loc.kind == "on_face" else None)
    m[7] = np.sqrt((w * w).sum(axis=0)) * DISTANCE_SIGNS
    rhs = np.zeros(8)
    rhs[0] = 1.0
    phi = solve_dense(m, rhs)
    return (phi, frame) if return_frame else phi
