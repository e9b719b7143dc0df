"""Runtime property suites behind the ``check`` subcommand.

Each suite evaluates the coordinate axioms (partition of unity, linear
precision, nonnegativity, Kronecker delta at the nodes), the boundary and
facet reduction properties, and the agreement between the system solutions
and their independent closed-form oracles, over a seeded random sample,
against the fixed tolerances of momentcoords.tolerances.
The points go through the batch functions in a few calls per suite, one
per batch function: moment coordinates (and, on a convex quadrilateral,
Wachspress coordinates) evaluate their samples, vertices, edge points and
five covariance images as one element stack (geometry.QuadStack), each
oracle its samples; a hexahedron's samples, vertices, edge and face points
are one call, and the induced face quadrilaterals of the facet reduction
one stack, built from their corners (QuadStack.from_corners), each
holding its face point.

Which calls locate their points: each quadrilateral family's call (on
its own stack, so moment and Wachspress coordinates each locate the
samples), the hexahedral call, the facet reduction's call on its stack,
and an interval's two calls.  Which reuse a location: the quadrilateral
oracles run through their located cores (coords2d._mvc_oracle_core and
its twins) at the location, BatchInfo's code and index, that their
family's call returned for the samples, and the facet properties read
the hexahedral call's location of its face points.

A row that a batch fails is left out of every other property and
counted, under its geometry.BatchInfo cause, in the evaluates property,
which any failed row fails; so no evaluation raises out of a suite.  A
face point is judged by the facet properties where its batch located it
on its own face, and their lines note how many of the drawn face points
they judged when that is fewer.

Each property is recorded once, whatever the points do: a quadrilateral
suite records 16 when it is convex (moment and Wachspress coordinates),
else 9, one fewer where the Cramer oracle is undefined; a hexahedral one
9, an interval one 6.  A property that judged no row reads NaN, and fails.

The suites record the worst of the per-row axiom errors (_axiom_errors),
and row_ok, grid's and eval's write-time check, holds each row to them.
Those errors are taken over the weight columns, not the rows: numpy's
reductions along a short row cost more per row than the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coords1d, coords2d, coords3d, geometry, sampling
from .geometry import LOC_FACET, Hexahedron, NodeSet1D, Quadrilateral, QuadStack
from .tolerances import (
    BOUNDARY_TOL,
    COVARIANCE_TOL,
    EVALUATES_TOL,
    FACET_TOL,
    KRONECKER_TOL,
    NONNEG_TOL,
    ORACLE_TOL,
    PARTITION_TOL,
    PRECISION_RTOL,
)


@dataclass
class PropertyResult:
    name: str
    worst: float
    tol: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({self.note})" if self.note else ""
        return f"{status} {self.name}: worst={self.worst:.3e} tol={self.tol:.1e}{note}"


class _Accumulator:
    def __init__(self):
        self.results: list[PropertyResult] = []
        self.failed = np.zeros(len(geometry.CAUSES), dtype=int)

    def record(self, name: str, value: float, tol: float, note: str = ""):
        self.results.append(PropertyResult(name, float(value), tol, note))

    def count(self, cause):
        """Count the failed rows of a batch by their cause codes (m,)."""
        self.failed += np.bincount(cause[cause != geometry.OK], minlength=len(self.failed))

    def evaluates(self):
        """Record the evaluates property: the failed rows counted so far,
        named by cause."""
        note = geometry.named_counts(self.failed.tolist())
        self.record("evaluates", self.failed.sum(), EVALUATES_TOL, note)


def linear_precision_error(weights, vertices, points) -> np.ndarray:
    """Linear precision error of each row of weights (m, n) at points
    (m, dim), taken about the vertex centroid c: the largest component of
    |phi @ (v - c) - (p - c)|.

    It is the same quantity as |phi @ v - p| whenever sum(phi) = 1, without
    the rounding of the absolute coordinates of far-translated geometry.
    It runs over columns, not rows: each component is
    0.0 + w_0 c_0d + w_1 c_1d + ... summed left to right over the vertices,
    and the largest is taken across the components in order, so a row's
    value does not depend on its batch.
    """
    c = vertices.mean(axis=0)
    centred = vertices - c
    columns = weights.T
    worst = None
    for d in range(points.shape[1]):
        recon = 0.0 + columns[0] * centred[0, d]
        for i in range(1, len(centred)):
            recon += columns[i] * centred[i, d]
        error = np.abs(recon - (points[:, d] - c[d]))
        worst = error if worst is None else np.maximum(worst, error, out=worst)
    return worst


def _axiom_errors(weights, vertices, points):
    """|sum - 1|, -min and linear_precision_error of each row of weights
    (m, n) at points (m, dim): three arrays (m,).

    The sum is weights.sum(axis=1), numpy's own order (pairwise from n = 8
    on); the minimum runs over the columns left to right.
    """
    columns = weights.T
    low = np.minimum(columns[0], columns[1])
    for column in columns[2:]:
        np.minimum(low, column, out=low)
    return (
        np.abs(weights.sum(axis=1) - 1.0),
        -low,
        linear_precision_error(weights, vertices, points),
    )


def row_ok(weights, vertices, points, diameter) -> np.ndarray:
    """Whether each row's _axiom_errors are within PARTITION_TOL,
    NONNEG_TOL and PRECISION_RTOL * diameter (m,); a NaN row is not."""
    partition, neg, precision = _axiom_errors(weights, vertices, points)
    within = (partition <= PARTITION_TOL) & (neg <= NONNEG_TOL)
    return within & (precision <= PRECISION_RTOL * diameter)


def _axioms(acc, prefix, weights, vertices, points, diameter, ok):
    """Partition of unity, nonnegativity and linear precision of the rows
    of weights (m, n) at points (m, dim) where ok (m,) is set: the _worst
    of each _axiom_errors."""
    partition, neg, precision = (_worst(e, ok) for e in _axiom_errors(weights, vertices, points))
    acc.record(f"{prefix}partition of unity", partition, PARTITION_TOL)
    acc.record(f"{prefix}nonnegativity", neg, NONNEG_TOL)
    acc.record(f"{prefix}linear precision", precision / diameter, PRECISION_RTOL)


def _judged(judged: int, drawn: int) -> str:
    """The note of a property that judged fewer of its drawn points than
    were drawn; none when it judged them all."""
    return f"judged {judged} of {drawn} face points" if judged < drawn else ""


def _worst(errors, ok) -> float:
    """Largest of 0.0 and errors (m,) or (m, n) over the rows where ok (m,)
    is set (errors.T puts the rows last, where ok broadcasts); NaN for
    none, which fails the property.  Never -0.0 (the -min of a row of
    zeros), which would print as -0."""
    if not ok.any():
        return math.nan
    return float(errors.T.max(initial=0.0, where=ok)) + 0.0


def _worst_gap(a, b, ok) -> float:
    """The _worst of |a - b| over the rows (m, n) where ok (m,) is set."""
    return _worst(np.abs(a - b), ok)


def _chunked(many, geom, points, *located, **kwargs):
    """many(geom, points, *located, **kwargs) with its BatchInfo replaced by
    its location codes, indices and cause codes, run geometry.BATCH_CHUNK
    points at a time (and a QuadStack's rows, and the arrays (m,) of
    located, with them)."""
    chunk = geometry.BATCH_CHUNK
    parts = []
    for start in range(0, max(len(points), 1), chunk):
        rows = slice(start, start + chunk)
        part = geom.take(rows) if isinstance(geom, QuadStack) else geom
        *arrays, info = many(part, points[rows], *(a[rows] for a in located), **kwargs)
        parts.append((*arrays, info.code, info.index, info.cause))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _evaluate_groups(acc, many, geom, groups, *located, **kwargs):
    """The part of the batch tuple (weights (m, n), ok (m,), ..., code,
    index, cause (m,)) of many on geom at each of the point groups, in one
    batch call on their concatenation (a QuadStack geom holds a row per
    point); located (arrays over all the groups' points) and kwargs go to
    the batch.  The rows the batch fails are counted in acc by cause."""
    result = _chunked(many, geom, np.concatenate(groups), *located, **kwargs)
    acc.count(result[-1])
    starts = np.cumsum([0] + [len(group) for group in groups]).tolist()
    return [tuple(a[lo:hi] for a in result) for lo, hi in zip(starts, starts[1:])]


def _element_map(a, b, c, d, x):
    """The image c + a (x - c) + d b of x (2,) or of each row of x (m, 2):
    the map (a, b) drawn by _similarity_map or _affine_map, acting in
    element units about the vertex centroid c, d the diameter.  So an image
    stays within a few diameters of the element at every size; an offset
    b in absolute units would move a small element by many of its own
    diameters, where rounding alone fails the covariance tolerance."""
    return c + (x - c) @ a.T + d * b


def _similarity_map(rng):
    ang = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    return rot * rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0, 2)


def _affine_map(rng):
    while True:
        a = np.eye(2) + rng.uniform(-0.5, 0.5, (2, 2))
        if abs(np.linalg.det(a)) >= 0.3:
            return a, rng.uniform(-3.0, 3.0, 2)


class _QuadCoords(NamedTuple):
    """Quadrilateral coordinates as the suite checks them: their batch
    function, the located cores of the oracle batches they are compared
    with on the samples, by name, and their covariance property and map."""

    name: str
    many: object
    oracles: list
    covariance: str
    draw_map: object


def quad_suite(quad: Quadrilateral, samples: int, seed: int):
    """Property results for moment (and, when convex, Wachspress) coordinates.

    The Cramer oracle runs with the moment coordinates wherever it is
    defined (see coords2d.cramer_defect).
    """
    rng = np.random.default_rng(seed)
    acc = _Accumulator()
    pts = sampling.interior_points_quad(quad, samples, rng)
    d = quad.diameter
    v = quad.vertices

    # Covariance under similarity maps holds for both coordinates; Wachspress
    # is additionally covariant under general affine maps (moment/mean value
    # coordinates are distance based and are not).
    oracles = [("mean-value", coords2d._mvc_oracle_core)]
    if coords2d.cramer_defect(quad) is None:
        oracles.append(("cramer", coords2d._cramer_coords_quad_core))
    moment = coords2d.moment_coords_quad_many
    families = [_QuadCoords("moment", moment, oracles, "similarity", _similarity_map)]
    if quad.is_convex:
        wachspress = coords2d.wachspress_coords_quad_many
        area = [("area", coords2d._wachspress_oracle_core)]
        families.append(_QuadCoords("wachspress", wachspress, area, "affine", _affine_map))

    # Drawn in this order: the samples, the edge parameters ts (moment, then
    # Wachspress), then five covariance maps each (in the same order).  Each
    # family evaluates its samples, vertices, edge points and covariance
    # images of the first samples in one call, on the stack of quad and its
    # five images, built at the call (building both first ran 2% slower); each
    # oracle runs on the samples, where that call located them.
    ts = [rng.uniform(0.05, 0.95, (4, 8)) for _ in families]
    first = slice(0, min(len(pts), 20))
    c = v.mean(axis=0)
    calls = []
    for fam, t in zip(families, ts):
        p = (1 - t)[:, :, None] * v[:, None] + t[:, :, None] * v[[1, 2, 3, 0], None]
        quads, groups = [quad], [pts, v, p.reshape(-1, 2)]
        for _ in range(5):
            a, b = fam.draw_map(rng)
            quads.append(Quadrilateral(_element_map(a, b, c, d, v)))
            groups.append(_element_map(a, b, c, d, pts[first]))
        calls.append((quads, groups))

    evaluated = []
    for fam, (quads, groups) in zip(families, calls):
        element = np.repeat([0, 0, 0, 1, 2, 3, 4, 5], [len(g) for g in groups])
        stack = QuadStack(quads, element)
        (phi, ok, code, index, _), *parts = _evaluate_groups(acc, fam.many, stack, groups)
        _axioms(acc, f"{fam.name} ", phi, v, pts, d, ok)
        for oracle, core in fam.oracles:
            [(ref, ref_ok, *_)] = _evaluate_groups(acc, core, quad, [pts], code, index)
            gap = _worst_gap(phi, ref, ok & ref_ok)
            acc.record(f"{fam.name} vs {oracle} oracle", gap, ORACLE_TOL)
        evaluated.append((phi, ok, parts))
    for fam, t, (_, _, parts) in zip(families, ts, evaluated):
        (kron, kron_ok, *_), (edge, edge_ok, *_) = parts[:2]
        expect = np.zeros((4, 8, 4))
        for i in range(4):
            expect[i, :, i] = 1 - t[i]
            expect[i, :, (i + 1) % 4] = t[i]
        kronecker = _worst_gap(kron, np.eye(4), kron_ok)
        acc.record(f"{fam.name} kronecker delta", kronecker, KRONECKER_TOL)
        boundary = _worst_gap(edge, expect.reshape(-1, 4), edge_ok)
        acc.record(f"{fam.name} boundary reduction", boundary, BOUNDARY_TOL)
    for fam, (phi, ok, parts) in zip(families, evaluated):
        # The five images against the first samples, as one comparison.
        images = parts[2:]
        mphi = np.concatenate([image[0] for image in images])
        mok = np.concatenate([image[1] for image in images])
        gap = _worst_gap(np.tile(phi[first], (5, 1)), mphi, np.tile(ok[first], 5) & mok)
        acc.record(f"{fam.name} {fam.covariance} covariance", gap, COVARIANCE_TOL)
    acc.evaluates()
    return acc.results


def hex_suite(hexa: Hexahedron, samples: int, seed: int):
    """Property results for hexahedral moment coordinates."""
    rng = np.random.default_rng(seed)
    acc = _Accumulator()
    d = hexa.diameter
    v = hexa.vertices

    pts = sampling.interior_points_hex(hexa, samples, rng)
    t = rng.uniform(0.1, 0.9, (len(geometry.HEX_EDGES), 3))
    expect = np.zeros((len(geometry.HEX_EDGES), 3, 8))
    for e, (i, j) in enumerate(geometry.HEX_EDGES):
        expect[e, :, i] = 1 - t[e]
        expect[e, :, j] = t[e]
    ends = np.array(geometry.HEX_EDGES)
    p = (1 - t)[:, :, None] * v[ends[:, 0], None] + t[:, :, None] * v[ends[:, 1], None]
    per_face = max(4, samples // 60)
    face = np.repeat(np.arange(6), per_face)
    fpts = np.vstack([sampling.face_points_hex(hexa, f, per_face, rng) for f in range(6)])

    # Samples, vertices, edge points and face points in one batch; the facet
    # properties judge the face points it located on their own face.
    groups = [pts, v, p.reshape(-1, 3), fpts]
    many = coords3d.moment_coords_hex_many
    parts = _evaluate_groups(acc, many, hexa, groups, return_frame_coords=True)
    (phi, ok, w, *_), (vphi, v_ok, *_), (ephi, e_ok, *_), (fphi, f_ok, fw, code, index, _) = parts
    judged = f_ok & (code == LOC_FACET) & (index == face)
    # The facet reduction: each judged face point's weights on its face
    # against the 2D moment coordinates of the origin on its induced face
    # quadrilateral, all of them one stack built from their corners.
    induced = QuadStack.from_corners(coords3d._induced_corners(face[judged], fw[judged]))
    origins = [np.zeros((judged.sum(), 2))]
    [(psi, psi_ok, *_)] = _evaluate_groups(acc, coords2d.moment_coords_quad_many, induced, origins)
    _axioms(acc, "moment ", phi, v, pts, d, ok)
    pattern = coords3d.sign_pattern_ok(w, d)
    acc.record("sign pattern verified", _worst(1.0 - pattern, ok), EVALUATES_TOL)
    acc.evaluates()
    acc.record("kronecker delta", _worst_gap(vphi, np.eye(8), v_ok), KRONECKER_TOL)
    acc.record("edge reduction", _worst_gap(ephi, expect.reshape(-1, 8), e_ok), FACET_TOL)
    off = np.abs(fphi[~geometry.HEX_FACE_VERTICES[face]]).reshape(-1, 4)
    note = _judged(int(judged.sum()), len(fpts))
    acc.record("facet off-face weights", _worst(off, judged), BOUNDARY_TOL, note)
    on = np.take_along_axis(fphi, np.array(geometry.HEX_FACES)[face], axis=1)[judged]
    worst = _worst_gap(on, psi, psi_ok)
    acc.record("facet reduction", worst, FACET_TOL, _judged(int(psi_ok.sum()), len(fpts)))
    return acc.results


def interval_suite(nodes: NodeSet1D, samples: int, seed: int):
    """Property results for interval moment coordinates."""
    rng = np.random.default_rng(seed)
    acc = _Accumulator()
    xs = nodes.nodes
    x = rng.uniform(xs[0], xs[-1], samples)
    # The samples and the nodes in one batch, the hat oracle on the samples.
    many = coords1d.moment_coords_1d_many
    [(phi, ok, *_), (kron, kron_ok, *_)] = _evaluate_groups(acc, many, nodes, [x, xs])
    [(hat, hat_ok, *_)] = _evaluate_groups(acc, coords1d.hat_oracle_many, nodes, [x])
    _axioms(acc, "", phi, xs[:, None], x[:, None], nodes.span, ok)
    acc.record("moment vs hat oracle", _worst_gap(phi, hat, ok & hat_ok), ORACLE_TOL)
    acc.evaluates()
    acc.record("kronecker delta", _worst_gap(kron, np.eye(len(xs)), kron_ok), KRONECKER_TOL)
    return acc.results


def run_suite(geometry, samples: int, seed: int):
    """Dispatch to the suite for the geometry's kind.

    Raises ValueError when samples < 1, which would leave the sampled
    axioms out of the result, and when seed is negative, which the random
    generator refuses without naming it.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    suites = {"quad": quad_suite, "hex": hex_suite, "interval": interval_suite}
    suite = suites.get(getattr(geometry, "kind", None))
    if suite is None:
        raise TypeError(f"unsupported geometry type {type(geometry).__name__}")
    return suite(geometry, samples, seed)
