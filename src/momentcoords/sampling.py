"""Seeded random geometry and point generators shared by checks and tests.

The quadrilateral sampler decides with the point location of
geometry._locate_quad, whose nearest-edge distance gives the margin; the
hexahedral one with the face signed distances that geometry._locate_hex
compares (Hexahedron._signed_distances).
"""

from __future__ import annotations

import numpy as np

from . import geometry
from .errors import DomainError, InvalidGeometry
from .geometry import (
    HEX_FACE_VERTICES,
    HEX_FACES,
    LOC_INTERIOR,
    REFERENCE_CUBE,
    REFERENCE_NORMALS,
    Hexahedron,
    NodeSet1D,
    Quadrilateral,
    _locate_quad,
)


def _rejection_sample(rng, lo, hi, n: int, accept, margin: float):
    """n points drawn uniformly from the box [lo, hi] that pass accept.

    Draws the same numbers as a loop of one rng.uniform(lo, hi) per attempt
    that keeps the accepted points, and leaves rng in the same state:
    chunks of at most geometry.BATCH_CHUNK attempts are drawn and tested at
    once (accept maps (k, dim) points to a (k,) mask), and the chunk
    holding the n-th accepted point is redrawn from its saved state up to
    that point only.  Raises DomainError after 2000 * (n + 10) attempts,
    as the loop did: the geometry is valid, but too few of its points lie
    the margin inside it.
    """
    if n <= 0:
        return np.array([])
    budget = 2000 * (n + 10)
    attempts = 0
    out = []
    found = 0
    while found < n:
        if attempts == budget:
            raise DomainError(
                f"could not sample {n} interior points (margin {margin:g}"
                " too large for this geometry?)"
            )
        need = n - found
        rate = (found + 1) / (attempts + 2)  # acceptance estimate, never 0
        chunk = min(budget - attempts, geometry.BATCH_CHUNK, int(1.25 * need / rate) + 16)
        state = rng.bit_generator.state
        pts = rng.uniform(lo, hi, size=(chunk, len(lo)))
        hits = np.flatnonzero(accept(pts))[:need]
        if len(hits) == need and hits[-1] + 1 < chunk:
            rng.bit_generator.state = state
            rng.uniform(lo, hi, size=(hits[-1] + 1, len(lo)))
            chunk = hits[-1] + 1
        out.append(pts[hits])
        found += len(hits)
        attempts += chunk
    return np.concatenate(out)


def interior_points_quad(quad: Quadrilateral, n: int, rng, margin: float = 1e-5):
    """n uniform interior points, kept margin * diameter away from the
    boundary (the local mean value formula loses accuracy right at it).

    Raises DomainError when the acceptance rate collapses (e.g. a sliver
    thinner than the margin) instead of looping forever.  A point is kept
    when _locate_quad calls it interior, at least the margin from every
    edge; a chunk decides as one point at a time would.
    """
    keep = margin * quad.diameter

    def accept(pts):
        code, _, _, dist = _locate_quad(quad, pts[:, 0], pts[:, 1])
        return (code == LOC_INTERIOR) & ~(dist < keep)

    v = quad.vertices
    return _rejection_sample(rng, v.min(axis=0), v.max(axis=0), n, accept, margin)


def interior_points_hex(hexa: Hexahedron, n: int, rng, margin: float = 1e-7):
    """n uniform points strictly inside every face plane by margin *
    diameter; same sampling contract as interior_points_quad."""
    keep = margin * hexa.diameter

    def accept(pts):
        return np.all(np.array(hexa._signed_distances(*pts.T)) < -keep, axis=0)

    v = hexa.vertices
    return _rejection_sample(rng, v.min(axis=0), v.max(axis=0), n, accept, margin)


def face_points_hex(hexa: Hexahedron, f: int, n: int, rng, margin: float = 0.05):
    """n points (n, 3) on face f via bilinear corner blending, away from its
    edges; the same points and draws as a loop of one (s, t) pair each."""
    corners = hexa.vertices[list(HEX_FACES[f])]
    s, t = rng.uniform(margin, 1.0 - margin, (n, 2)).T[:, :, None]
    return (
        (1 - s) * (1 - t) * corners[0]
        + s * (1 - t) * corners[1]
        + s * t * corners[2]
        + (1 - s) * t * corners[3]
    )


def random_simple_quad(rng, convex: bool | None = None) -> Quadrilateral:
    """A random simple quadrilateral: four points ordered by angle around
    their centroid.  convex=True/False filters the shape class."""
    for _ in range(100000):
        pts = rng.uniform(0.0, 1.0, (4, 2))
        c = pts.mean(axis=0)
        order = np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))
        try:
            quad = Quadrilateral(pts[order])
        except InvalidGeometry:
            continue
        # Reject slivers; they make oracle comparisons needlessly touchy.
        if min(map(abs, quad._corner_crosses)) < 1e-3 * quad.diameter**2:
            continue
        if convex is not None and quad.is_convex != convex:
            continue
        return quad
    raise ValueError("quadrilateral sampler failed to produce a valid shape")


def random_affine_cube_hex(rng) -> Hexahedron:
    """A random invertible affine image of the cube (planar, convex)."""
    while True:
        a = np.eye(3) + rng.uniform(-0.4, 0.4, (3, 3))
        if abs(np.linalg.det(a)) >= 0.3:
            break
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-5.0, 5.0, 3)
    return Hexahedron(REFERENCE_CUBE @ a.T * scale + shift)


def random_plane_hex(rng, tilt: float = 0.25) -> Hexahedron:
    """A random convex hexahedron from perturbed supporting planes.

    Each vertex is the intersection of its three adjacent planes, so the
    faces are planar by construction and opposite faces are generally not
    parallel (unlike affine cube images).
    """
    for _ in range(100000):
        normals = []
        offsets = []
        # Seeded by the reference cube's faces, in connectivity order.
        for n0 in REFERENCE_NORMALS:
            n = n0 + rng.uniform(-tilt, tilt, 3)
            normals.append(n / np.linalg.norm(n))
            offsets.append(1.0 + rng.uniform(-0.15, 0.15))
        normals, offsets = np.array(normals), np.array(offsets)
        try:
            return Hexahedron(
                [np.linalg.solve(normals[on], offsets[on]) for on in HEX_FACE_VERTICES.T]
            )
        except (np.linalg.LinAlgError, InvalidGeometry):
            continue
    raise ValueError("hexahedron sampler failed to produce a valid shape")


def random_nodes(rng, n: int, min_gap: float = 1e-4) -> NodeSet1D:
    """n sorted uniform nodes on [0, 1] with a minimum relative spacing."""
    for _ in range(100000):
        xs = np.sort(rng.uniform(0.0, 1.0, n))
        if np.diff(xs).min() >= min_gap * (xs[-1] - xs[0]):
            return NodeSet1D(xs)
    raise ValueError("node sampler failed to satisfy the spacing floor")
