"""Runtime property suites behind the ``check`` subcommand.

Each suite evaluates the coordinate axioms (partition of unity, linear
precision, nonnegativity, Kronecker delta at the nodes), the boundary and
facet reduction properties, and the agreement between the system solutions
and their independent closed-form oracles, over a seeded random sample.
The points go through the batch functions in a few calls per suite, one
per method: each quadrilateral family evaluates its samples, vertices,
edge points and five covariance images as one element stack
(geometry.QuadStack), each oracle its samples; a hexahedron's samples,
vertices, edge and face points are one call, and the induced face
quadrilaterals of the facet reduction one stack, each holding its face
point.  _evaluate_segments re-runs every point a batch fails through its
single-point function on its own point group and element, in the order a
per-point loop takes them, which raises (or, where the group counts it,
is counted) as that loop would have.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import coords1d, coords2d, coords3d, geometry, sampling
from .errors import SingularMatrix
from .geometry import LOC_FACET, Hexahedron, NodeSet1D, Quadrilateral, QuadStack, _locate_hex

# Baseline tolerances for the standard axioms.
PARTITION_TOL = 1e-12
NONNEG_TOL = 1e-12
PRECISION_RTOL = 1e-10  # times the diameter
ORACLE_TOL = 1e-10
KRONECKER_TOL = 1e-10
BOUNDARY_TOL = 1e-10
FACET_TOL = 1e-9
COVARIANCE_TOL = 1e-9


@dataclass
class PropertyResult:
    name: str
    worst: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: worst={self.worst:.3e} tol={self.tol:.1e}"


class _Accumulator:
    def __init__(self, tol_scale: float):
        self.results: dict[str, PropertyResult] = {}
        self.scale = tol_scale

    def record(self, name: str, value: float, tol: float):
        tol = tol * self.scale
        prev = self.results.get(name)
        if prev is None:
            self.results[name] = PropertyResult(name, float(value), tol)
        elif value > prev.worst:
            prev.worst = float(value)

    def items(self) -> list[PropertyResult]:
        return list(self.results.values())


def linear_precision_error(weights, vertices, points) -> np.ndarray:
    """Linear precision error of each row of weights (m, n) at points
    (m, dim), taken about the vertex centroid c: the largest component of
    |phi @ (v - c) - (p - c)|.

    It is the same quantity as |phi @ v - p| whenever sum(phi) = 1, without
    the rounding of the absolute coordinates of far-translated geometry.
    The sum over vertices runs in a fixed order, so a row's value does not
    depend on its batch.
    """
    c = vertices.mean(axis=0)
    centred = vertices - c
    recon = np.zeros(points.shape)
    for i in range(centred.shape[0]):
        recon += weights[:, i, None] * centred[i]
    return np.abs(recon - (points - c)).max(axis=1)


def _axioms(acc, prefix, weights, vertices, points, diameter):
    """Partition of unity, nonnegativity and linear precision of each row
    of weights (m, n) at points (m, dim); records the worst of each."""
    if not len(weights):
        return
    acc.record(
        f"{prefix}partition of unity",
        float(np.abs(weights.sum(axis=1) - 1.0).max()),
        PARTITION_TOL,
    )
    acc.record(f"{prefix}nonnegativity", max(0.0, -float(weights.min())), NONNEG_TOL)
    acc.record(
        f"{prefix}linear precision",
        float(linear_precision_error(weights, vertices, points).max()) / diameter,
        PRECISION_RTOL,
    )


def _worst_gap(a, b) -> float:
    """Largest |a - b| over all entries (0 for no rows)."""
    return float(np.abs(a - b).max(initial=0.0))


def _chunked(many, geom, points, **kwargs):
    """many(geom, points, **kwargs), run geometry.BATCH_CHUNK points at a
    time (and a QuadStack's rows with them)."""
    chunk = geometry.BATCH_CHUNK
    parts = [
        many(
            geom.take(slice(start, start + chunk)) if isinstance(geom, QuadStack) else geom,
            points[start : start + chunk],
            **kwargs,
        )
        for start in range(0, max(len(points), 1), chunk)
    ]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


class _Segment(NamedTuple):
    """Points that a per-point loop evaluates on one geometry, in turn; a
    failed point whose single-point function raises a type in count is
    counted (left failed), not raised."""

    geom: object
    points: np.ndarray
    count: tuple = ()


def _evaluate_segments(segments, *methods, **kwargs):
    """Per method, the part of its batch's tuple (weights (m, n), ok (m,),
    ...) on each of its segments, for each (batch, single-point) pair of
    methods, or (batch, single-point, segment indices) for a method that
    runs on those segments only; kwargs go to the batches.

    Each method runs as one batch call over its segments: on their geometry
    when they share one, else on the QuadStack of their quadrilaterals, one
    element per segment (each built, so validated, before any point is
    evaluated).  The segments come in the order a per-point loop takes them,
    and every point some batch failed is then re-run through the
    single-point functions on its segment's geometry in that loop's order:
    segment by segment, point by point and method by method, so the first
    exception raised is the one that loop raised.  An exception of a type in
    the segment's count leaves the row failed (ok False) and the loop going.
    A single-point function that returns a value where its batch failed
    breaks the batch contract and raises RuntimeError, naming the point by
    its index in its segment.
    """
    parts, failed = [], []
    for k, (many, _, *only) in enumerate(methods):
        pick = only[0] if only else range(len(segments))
        picked = [segments[i] for i in pick]
        sizes = [len(seg.points) for seg in picked]
        geom = picked[0].geom
        if any(seg.geom is not geom for seg in picked):
            element = np.repeat(np.arange(len(sizes)), sizes)
            geom = QuadStack([seg.geom for seg in picked], element)
        result = _chunked(many, geom, np.concatenate([seg.points for seg in picked]), **kwargs)
        starts = np.cumsum([0] + sizes).tolist()
        for s in np.flatnonzero(~result[1]).tolist():
            j = bisect_right(starts, s) - 1
            failed.append((pick[j], s - starts[j], k))
        parts.append([tuple(a[lo:hi] for a in result) for lo, hi in zip(starts, starts[1:])])
    for i, row, k in sorted(failed):
        seg, single = segments[i], methods[k][1]
        try:
            single(seg.geom, seg.points[row])
        except seg.count:
            continue
        raise RuntimeError(f"{single.__name__} evaluates point {row}, which its batch failed")
    return parts


def _evaluate(geom, points, *methods, count=(), **kwargs):
    """Each batch's own tuple at the rows of points: _evaluate_segments on
    the one segment of points."""
    segments = [_Segment(geom, points, count)]
    return [parts for [parts] in _evaluate_segments(segments, *methods, **kwargs)]


def _element_map(a, b, c, d, x):
    """The image c + a (x - c) + d b of x (2,) or of each row of x (m, 2):
    the map (a, b) drawn by _similarity_map or _affine_map, acting in
    element units about the vertex centroid c, d the diameter.  So an image
    stays within a few diameters of the element at every scale; an offset
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


class _Family(NamedTuple):
    """A quadrilateral coordinate family as its suite checks it: its
    (batch, single-point) pair, the oracles it is compared with on the
    samples by name, and its covariance property and map."""

    name: str
    method: tuple
    oracles: list
    covariance: str
    draw_map: object


def quad_suite(
    quad: Quadrilateral,
    samples: int,
    seed: int,
    tol_scale: float = 1.0,
    family: str | None = None,
):
    """Property results for moment (and, when convex, Wachspress) coordinates.

    family restricts the suite to "moment" or "wachspress"; by default both
    run (Wachspress only when the quadrilateral is convex).  The Cramer
    oracle runs with the moment family wherever it is defined (see
    coords2d.cramer_defect).
    """
    rng = np.random.default_rng(seed)
    acc = _Accumulator(tol_scale)
    pts = sampling.interior_points_quad(quad, samples, rng)
    d = quad.diameter
    v = quad.vertices

    # Covariance under similarity maps holds for both families; Wachspress
    # is additionally covariant under general affine maps (moment/mean value
    # coordinates are distance based and are not).
    families = []
    if family in (None, "moment"):
        oracles = [("mean-value", (coords2d.mvc_oracle_many, coords2d.mvc_oracle))]
        if coords2d.cramer_defect(quad) is None:
            cramer = (coords2d.cramer_coords_quad_many, coords2d.cramer_coords_quad)
            oracles.append(("cramer", cramer))
        moment = (coords2d.moment_coords_quad_many, coords2d.moment_coords_quad)
        families.append(_Family("moment", moment, oracles, "similarity", _similarity_map))
    if quad.is_convex and family in (None, "wachspress"):
        wachspress = (coords2d.wachspress_coords_quad_many, coords2d.wachspress_coords_quad)
        area = [("area", (coords2d.wachspress_oracle_many, coords2d.wachspress_oracle))]
        families.append(_Family("wachspress", wachspress, area, "affine", _affine_map))

    # The point groups in the per-point loop's order, drawn in it: the
    # samples, each family's vertices and edge points, then each family's
    # five covariance images of the first samples.  picks holds each
    # family's groups: all of its points, evaluated in one stacked call.
    segments = [_Segment(quad, pts)]
    picks = [[0] for _ in families]
    ts = [rng.uniform(0.05, 0.95, (4, 8)) for _ in families]
    for pick, t in zip(picks, ts):
        p = (1 - t)[:, :, None] * v[:, None] + t[:, :, None] * v[[1, 2, 3, 0], None]
        pick += [len(segments), len(segments) + 1]
        segments += [_Segment(quad, v), _Segment(quad, p.reshape(-1, 2))]
    first = slice(0, min(len(pts), 20))
    c = v.mean(axis=0)
    for pick, fam in zip(picks, families):
        for _ in range(5):
            a, b = fam.draw_map(rng)
            mapped = Quadrilateral(_element_map(a, b, c, d, v))
            pick.append(len(segments))
            segments.append(_Segment(mapped, _element_map(a, b, c, d, pts[first])))

    # A sample goes through its family and then the family's oracles, as in
    # the loop; each oracle runs once, on the samples.
    methods = []
    for pick, fam in zip(picks, families):
        methods.append((*fam.method, pick))
        methods += [(*oracle, [0]) for _, oracle in fam.oracles]
    results = iter(_evaluate_segments(segments, *methods))

    evaluated = []
    for fam in families:
        (phi, _), (kron, _), (edge, _), *images = next(results)
        _axioms(acc, f"{fam.name} ", phi, v, pts, d)
        for oracle, _ in fam.oracles:
            [(ref, _)] = next(results)
            acc.record(f"{fam.name} vs {oracle} oracle", _worst_gap(phi, ref), ORACLE_TOL)
        evaluated.append((phi, kron, edge, images))
    for fam, t, (_, kron, edge, _) in zip(families, ts, evaluated):
        expect = np.zeros((4, 8, 4))
        for i in range(4):
            expect[i, :, i] = 1 - t[i]
            expect[i, :, (i + 1) % 4] = t[i]
        acc.record(f"{fam.name} kronecker delta", _worst_gap(kron, np.eye(4)), KRONECKER_TOL)
        acc.record(
            f"{fam.name} boundary reduction", _worst_gap(edge, expect.reshape(-1, 4)), BOUNDARY_TOL
        )
    for fam, (phi, _, _, images) in zip(families, evaluated):
        name = f"{fam.name} {fam.covariance} covariance"
        for mphi, _ in images:
            acc.record(name, _worst_gap(phi[first], mphi), COVARIANCE_TOL)
    return acc.items()


def hex_suite(hexa: Hexahedron, samples: int, seed: int, tol_scale: float = 1.0):
    """Property results for hexahedral moment coordinates."""
    rng = np.random.default_rng(seed)
    acc = _Accumulator(tol_scale)
    d = hexa.diameter
    v = hexa.vertices

    hex_method = (coords3d.moment_coords_hex_many, coords3d.moment_coords_hex)
    pts = sampling.interior_points_hex(hexa, samples, rng)
    edges = sorted(
        {
            tuple(sorted((idx[i], idx[(i + 1) % 4])))
            for idx in Hexahedron.FACES
            for i in range(4)
        }
    )
    t = rng.uniform(0.1, 0.9, (len(edges), 3))
    expect = np.zeros((len(edges), 3, 8))
    for e, (i, j) in enumerate(edges):
        expect[e, :, i] = 1 - t[e]
        expect[e, :, j] = t[e]
    ends = np.array(edges)
    p = (1 - t)[:, :, None] * v[ends[:, 0], None] + t[:, :, None] * v[ends[:, 1], None]
    per_face = max(4, samples // 60)
    face = np.repeat(np.arange(6), per_face)
    fpts = np.vstack([sampling.face_points_hex(hexa, f, per_face, rng) for f in range(6)])
    code, index, _ = _locate_hex(hexa, *fpts.T)
    on_face = (code == LOC_FACET) & (index == face)
    face, fpts = face[on_face], fpts[on_face]

    # Samples, vertices, edge points and face points in one batch; only a
    # sample's singular solve is counted.
    [[(phi, ok, w), (vphi, _, _), (ephi, _, _), (fphi, _, fw)]] = _evaluate_segments(
        [
            _Segment(hexa, pts, (SingularMatrix,)),
            _Segment(hexa, v),
            _Segment(hexa, p.reshape(-1, 3)),
            _Segment(hexa, fpts),
        ],
        hex_method,
        return_frame_coords=True,
    )
    _axioms(acc, "moment ", phi[ok], v, pts[ok], d)
    if ok.any():
        pattern = coords3d.sign_pattern_ok(w[ok], d)
        acc.record("sign pattern verified", 0.0 if pattern.all() else 1.0, 0.5)
    acc.record("no solver singularity", float((~ok).sum()), 0.5)
    acc.record("kronecker delta", _worst_gap(vphi, np.eye(8)), KRONECKER_TOL)
    acc.record("edge reduction", _worst_gap(ephi, expect.reshape(-1, 8)), FACET_TOL)
    if len(fpts):
        off = ~coords3d.FACE_VERTICES[face]
        acc.record("facet off-face weights", float(np.abs(fphi[off]).max()), BOUNDARY_TOL)
        # The facet reduction: each face point's weights on its face against
        # the 2D moment coordinates of the origin on its induced face
        # quadrilateral, all of them one stack.
        origin = np.zeros((1, 2))
        induced = [
            _Segment(coords3d._induced_face_quad(f, fw[s]), origin)
            for s, f in enumerate(face.tolist())
        ]
        [parts] = _evaluate_segments(
            induced, (coords2d.moment_coords_quad_many, coords2d.moment_coords_quad)
        )
        psi = np.concatenate([phi for phi, _ in parts])
        on = np.take_along_axis(fphi, np.array(Hexahedron.FACES)[face], axis=1)
        acc.record("facet reduction", _worst_gap(on, psi), FACET_TOL)
    return acc.items()


def interval_suite(nodes: NodeSet1D, samples: int, seed: int, tol_scale: float = 1.0):
    """Property results for interval moment coordinates."""
    rng = np.random.default_rng(seed)
    acc = _Accumulator(tol_scale)
    xs = nodes.nodes
    x = rng.uniform(xs[0], xs[-1], samples)
    moment = (coords1d.moment_coords_1d_many, coords1d.moment_coords_1d)
    [(phi, ok)] = _evaluate(nodes, x, moment, count=(SingularMatrix,))
    phi, x = phi[ok], x[ok]
    _axioms(acc, "", phi, xs[:, None], x[:, None], nodes.span)
    if len(x):
        [(hat, _)] = _evaluate(nodes, x, (coords1d.hat_oracle_many, coords1d.hat_oracle))
        acc.record("moment vs hat oracle", _worst_gap(phi, hat), ORACLE_TOL)
    acc.record("no solver singularity", float(samples - len(x)), 0.5)
    [(phi, _)] = _evaluate(nodes, xs, moment)
    acc.record("kronecker delta", _worst_gap(phi, np.eye(len(xs))), KRONECKER_TOL)
    return acc.items()


def run_suite(geometry, samples: int, seed: int, tol_scale: float = 1.0, method: str | None = None):
    """Dispatch to the suite for the geometry kind.

    method restricts quadrilateral suites to one coordinate family
    ("wachspress" or anything else mapping to the moment family); hex and
    interval geometries have a single family.  Raises ValueError when
    samples < 1, which would leave the sampled axioms out of the result;
    when tol_scale is not finite and > 0: an infinite scale passes every
    property, and a zero, negative or NaN one fails them all; and when seed
    is negative, which the random generator refuses without naming it.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not (np.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tol_scale must be finite and > 0, got {tol_scale}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if isinstance(geometry, Quadrilateral):
        family = None
        if method is not None:
            family = "wachspress" if method.startswith("wachspress") else "moment"
        return quad_suite(geometry, samples, seed, tol_scale, family=family)
    if isinstance(geometry, Hexahedron):
        return hex_suite(geometry, samples, seed, tol_scale)
    if isinstance(geometry, NodeSet1D):
        return interval_suite(geometry, samples, seed, tol_scale)
    raise TypeError(f"unsupported geometry type {type(geometry).__name__}")
