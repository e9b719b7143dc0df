"""Runtime property suites behind the ``check`` subcommand.

Each suite evaluates the coordinate axioms (partition of unity, linear
precision, nonnegativity, Kronecker delta at the nodes), the boundary and
facet reduction properties, and the agreement between the system solutions
and their independent closed-form oracles, over a seeded random sample.
The samples go through the batch functions, and _evaluate re-runs every
point a batch fails through its single-point function, which raises (or is
counted) as a loop over the points would have.  Only the 2D reduction of the
hexahedral facet points, one induced quadrilateral each, runs point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coords1d, coords2d, coords3d, sampling
from .errors import SingularMatrix
from .geometry import Hexahedron, NodeSet1D, Quadrilateral, face_of_points_hex

# Baseline tolerances for the standard axioms.
PARTITION_TOL = 1e-12
NONNEG_TOL = 1e-12
PRECISION_RTOL = 1e-10  # times the diameter
ORACLE_TOL = 1e-10
KRONECKER_TOL = 1e-10
BOUNDARY_TOL = 1e-10
FACET_TOL = 1e-9
COVARIANCE_TOL = 1e-9
# The suites evaluate their samples this many at a time, which bounds the
# memory of the stacked solves.
SUITE_CHUNK = 256


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
    """many(geom, points, **kwargs), run SUITE_CHUNK points at a time."""
    parts = [
        many(geom, points[start : start + SUITE_CHUNK], **kwargs)
        for start in range(0, max(len(points), 1), SUITE_CHUNK)
    ]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _evaluate(geom, points, *methods, count=(), **kwargs):
    """Each batch's own tuple (weights (m, n), ok (m,), ...) at the rows of
    points, for each (batch, single-point) pair of methods; kwargs go to
    the batches.

    The batch functions run first.  Every point some batch failed is then
    re-run through the single-point functions in the order a per-point
    loop takes them, point by point and method by method, so the first
    exception raised is the one that loop raised.  An exception of a type
    in count leaves the row failed (ok False) and the loop going.  A
    single-point function that returns a value where its batch failed
    breaks the batch contract and raises RuntimeError.
    """
    results = [_chunked(many, geom, points, **kwargs) for many, _ in methods]
    failed = sorted(set().union(*(np.flatnonzero(~r[1]).tolist() for r in results)))
    for s in failed:
        for (_, single), (_, ok, *_) in zip(methods, results):
            if ok[s]:
                continue
            try:
                single(geom, points[s])
            except count:
                continue
            raise RuntimeError(f"{single.__name__} evaluates point {s}, which its batch failed")
    return results


def _similarity_map(rng):
    ang = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    return rot * rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0, 2)


def _affine_map(rng):
    while True:
        a = np.eye(2) + rng.uniform(-0.5, 0.5, (2, 2))
        if abs(np.linalg.det(a)) >= 0.3:
            return a, rng.uniform(-3.0, 3.0, 2)


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
    run_moment = family in (None, "moment")
    run_cramer = run_moment and coords2d.cramer_defect(quad) is None
    run_wachspress = quad.is_convex and family in (None, "wachspress")
    moment = (coords2d.moment_coords_quad_many, coords2d.moment_coords_quad)
    wachspress = (coords2d.wachspress_coords_quad_many, coords2d.wachspress_coords_quad)

    methods = []
    if run_moment:
        methods += [moment, (coords2d.mvc_oracle_many, coords2d.mvc_oracle)]
    if run_cramer:
        methods.append((coords2d.cramer_coords_quad_many, coords2d.cramer_coords_quad))
    if run_wachspress:
        methods += [wachspress, (coords2d.wachspress_oracle_many, coords2d.wachspress_oracle)]
    weights = [phi for phi, _ in _evaluate(quad, pts, *methods)]
    if run_moment:
        phi, mvc = weights[:2]
        _axioms(acc, "moment ", phi, v, pts, d)
        acc.record("moment vs mean-value oracle", _worst_gap(phi, mvc), ORACLE_TOL)
    if run_cramer:
        acc.record("moment vs cramer oracle", _worst_gap(phi, weights[2]), ORACLE_TOL)
    if run_wachspress:
        wphi, area = weights[-2:]
        _axioms(acc, "wachspress ", wphi, v, pts, d)
        acc.record("wachspress vs area oracle", _worst_gap(wphi, area), ORACLE_TOL)

    families = []
    if run_moment:
        families.append(("moment", moment))
    if run_wachspress:
        families.append(("wachspress", wachspress))
    for name, method in families:
        [(phi, _)] = _evaluate(quad, v, method)
        acc.record(f"{name} kronecker delta", _worst_gap(phi, np.eye(4)), KRONECKER_TOL)
        t = rng.uniform(0.05, 0.95, (4, 8))
        expect = np.zeros((4, 8, 4))
        for i in range(4):
            expect[i, :, i] = 1 - t[i]
            expect[i, :, (i + 1) % 4] = t[i]
        p = (1 - t)[:, :, None] * v[:, None] + t[:, :, None] * v[[1, 2, 3, 0], None]
        [(phi, _)] = _evaluate(quad, p.reshape(-1, 2), method)
        acc.record(
            f"{name} boundary reduction", _worst_gap(phi, expect.reshape(-1, 4)), BOUNDARY_TOL
        )

    # Covariance under similarity maps holds for both families; Wachspress
    # is additionally covariant under general affine maps (moment/mean value
    # coordinates are distance based and are not).
    covariance = []
    if run_moment:
        covariance.append(("moment similarity covariance", moment, weights[0], _similarity_map))
    if run_wachspress:
        covariance.append(("wachspress affine covariance", wachspress, weights[-2], _affine_map))
    first = slice(0, min(len(pts), 20))
    for name, method, phi, draw_map in covariance:
        for _ in range(5):
            a, b = draw_map(rng)
            mapped = Quadrilateral(v @ a.T + b)
            q = np.array([a @ p + b for p in pts[first]])
            [(mphi, _)] = _evaluate(mapped, q, method)
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
    [(phi, ok, w)] = _evaluate(
        hexa, pts, hex_method, count=(SingularMatrix,), return_frame_coords=True
    )
    _axioms(acc, "moment ", phi[ok], v, pts[ok], d)
    if ok.any():
        pattern = coords3d.sign_pattern_ok(w[ok], d)
        acc.record("sign pattern verified", 0.0 if pattern.all() else 1.0, 0.5)
    acc.record("no solver singularity", float((~ok).sum()), 0.5)

    [(phi, _)] = _evaluate(hexa, v, hex_method)
    acc.record("kronecker delta", _worst_gap(phi, np.eye(8)), KRONECKER_TOL)

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
    [(phi, _)] = _evaluate(hexa, p.reshape(-1, 3), hex_method)
    acc.record("edge reduction", _worst_gap(phi, expect.reshape(-1, 8)), FACET_TOL)

    per_face = max(4, samples // 60)
    face = np.repeat(np.arange(6), per_face)
    pts = np.vstack([sampling.face_points_hex(hexa, f, per_face, rng) for f in range(6)])
    kind, index = face_of_points_hex(hexa, pts)
    on_face = (kind == "on_face") & (index == face)
    face, pts = face[on_face], pts[on_face]
    [(phi, _, w)] = _evaluate(hexa, pts, hex_method, return_frame_coords=True)
    if len(pts):
        off = ~coords3d.FACE_VERTICES[face]
        acc.record("facet off-face weights", float(np.abs(phi[off]).max()), BOUNDARY_TOL)
        gap = 0.0
        for s, f in enumerate(face.tolist()):
            psi = coords2d.moment_coords_quad(coords3d._induced_face_quad(f, w[s]), np.zeros(2))
            gap = max(gap, float(np.abs(phi[s, list(Hexahedron.FACES[f])] - psi).max()))
        acc.record("facet reduction", gap, FACET_TOL)
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
    samples < 1, which would leave the sampled axioms out of the result,
    and when tol_scale is not finite and > 0: an infinite scale passes
    every property, and a zero, negative or NaN one fails them all.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not (np.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tol_scale must be finite and > 0, got {tol_scale}")
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
