"""Runtime property suites behind the ``check`` subcommand.

Each suite evaluates the coordinate axioms (partition of unity, linear
precision, nonnegativity, Kronecker delta at the nodes), the boundary and
facet reduction properties, and the agreement between the system solutions
and their independent closed-form oracles, over a seeded random sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coords1d, coords2d, coords3d, sampling
from .errors import SingularMatrix
from .geometry import Hexahedron, NodeSet1D, Quadrilateral, face_of_point_hex

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


def _axioms(acc, label, weights, vertices, p, diameter):
    acc.record(f"{label} partition of unity", abs(weights.sum() - 1.0), PARTITION_TOL)
    acc.record(f"{label} nonnegativity", max(0.0, -float(weights.min())), NONNEG_TOL)
    acc.record(
        f"{label} linear precision",
        float(np.abs(weights @ vertices - p).max()) / diameter,
        PRECISION_RTOL,
    )


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
    run (Wachspress only when the quadrilateral is convex).
    """
    rng = np.random.default_rng(seed)
    acc = _Accumulator(tol_scale)
    pts = sampling.interior_points_quad(quad, samples, rng)
    d = quad.diameter
    v = quad.vertices
    run_moment = family in (None, "moment")
    run_wachspress = quad.is_convex and family in (None, "wachspress")

    for p in pts:
        if run_moment:
            phi = coords2d.moment_coords_quad(quad, p)
            _axioms(acc, "moment", phi, v, p, d)
            acc.record(
                "moment vs mean-value oracle",
                float(np.abs(phi - coords2d.mvc_oracle(quad, p)).max()),
                ORACLE_TOL,
            )
            acc.record(
                "moment vs cramer oracle",
                float(np.abs(phi - coords2d.cramer_coords_quad(quad, p)).max()),
                ORACLE_TOL,
            )
        if run_wachspress:
            wphi = coords2d.wachspress_coords_quad(quad, p)
            _axioms(acc, "wachspress", wphi, v, p, d)
            acc.record(
                "wachspress vs area oracle",
                float(np.abs(wphi - coords2d.wachspress_oracle(quad, p)).max()),
                ORACLE_TOL,
            )

    families = []
    if run_moment:
        families.append(("moment", coords2d.moment_coords_quad))
    if run_wachspress:
        families.append(("wachspress", coords2d.wachspress_coords_quad))
    for name, fn in families:
        for i in range(4):
            phi = fn(quad, v[i])
            expect = np.zeros(4)
            expect[i] = 1.0
            acc.record(f"{name} kronecker delta", float(np.abs(phi - expect).max()), KRONECKER_TOL)
        for i in range(4):
            for t in rng.uniform(0.05, 0.95, 8):
                p = (1 - t) * v[i] + t * v[(i + 1) % 4]
                phi = fn(quad, p)
                expect = np.zeros(4)
                expect[i] = 1 - t
                expect[(i + 1) % 4] = t
                acc.record(
                    f"{name} boundary reduction", float(np.abs(phi - expect).max()), BOUNDARY_TOL
                )

    # Covariance under similarity maps holds for both families; Wachspress
    # is additionally covariant under general affine maps (moment/mean value
    # coordinates are distance based and are not).
    if run_moment:
        for _ in range(5):
            a, b = _similarity_map(rng)
            mapped = Quadrilateral(v @ a.T + b)
            for p in pts[: min(len(pts), 20)]:
                q = a @ p + b
                acc.record(
                    "moment similarity covariance",
                    float(np.abs(coords2d.moment_coords_quad(quad, p) - coords2d.moment_coords_quad(mapped, q)).max()),
                    COVARIANCE_TOL,
                )
    if run_wachspress:
        for _ in range(5):
            a, b = _affine_map(rng)
            mapped = Quadrilateral(v @ a.T + b)
            for p in pts[: min(len(pts), 20)]:
                q = a @ p + b
                acc.record(
                    "wachspress affine covariance",
                    float(np.abs(coords2d.wachspress_coords_quad(quad, p) - coords2d.wachspress_coords_quad(mapped, q)).max()),
                    COVARIANCE_TOL,
                )
    return acc.items()


def hex_suite(hexa: Hexahedron, samples: int, seed: int, tol_scale: float = 1.0):
    """Property results for hexahedral moment coordinates."""
    rng = np.random.default_rng(seed)
    acc = _Accumulator(tol_scale)
    d = hexa.diameter
    v = hexa.vertices
    singular = 0

    for p in sampling.interior_points_hex(hexa, samples, rng):
        try:
            phi, frame = coords3d.moment_coords_hex(hexa, p, return_frame=True)
        except SingularMatrix:
            singular += 1
            continue
        _axioms(acc, "moment", phi, v, p, d)
        w = frame.coords(v)
        ok = coords3d.sign_pattern_ok(w, d)
        acc.record("sign pattern verified", 0.0 if ok else 1.0, 0.5)
    acc.record("no solver singularity", float(singular), 0.5)

    for i in range(8):
        phi = coords3d.moment_coords_hex(hexa, v[i])
        expect = np.zeros(8)
        expect[i] = 1.0
        acc.record("kronecker delta", float(np.abs(phi - expect).max()), KRONECKER_TOL)

    edges = sorted(
        {
            tuple(sorted((idx[i], idx[(i + 1) % 4])))
            for idx in Hexahedron.FACES
            for i in range(4)
        }
    )
    for (i, j) in edges:
        for t in rng.uniform(0.1, 0.9, 3):
            p = (1 - t) * v[i] + t * v[j]
            phi = coords3d.moment_coords_hex(hexa, p)
            expect = np.zeros(8)
            expect[i] = 1 - t
            expect[j] = t
            acc.record("edge reduction", float(np.abs(phi - expect).max()), FACET_TOL)

    per_face = max(4, samples // 60)
    for f in range(6):
        idx = list(Hexahedron.FACES[f])
        off = [i for i in range(8) if i not in idx]
        for p in sampling.face_points_hex(hexa, f, per_face, rng):
            loc = face_of_point_hex(hexa, p)
            if loc.kind != "on_face" or loc.index != f:
                continue
            phi, frame = coords3d.moment_coords_hex(hexa, p, return_frame=True)
            acc.record("facet off-face weights", float(np.abs(phi[off]).max()), BOUNDARY_TOL)
            quad2d = coords3d.induced_face_quad(hexa, f, frame)
            psi = coords2d.moment_coords_quad(quad2d, np.zeros(2))
            acc.record("facet reduction", float(np.abs(phi[idx] - psi).max()), FACET_TOL)
    return acc.items()


def interval_suite(nodes: NodeSet1D, samples: int, seed: int, tol_scale: float = 1.0):
    """Property results for interval moment coordinates."""
    rng = np.random.default_rng(seed)
    acc = _Accumulator(tol_scale)
    xs = nodes.nodes
    span = nodes.span
    singular = 0
    for _ in range(samples):
        x = rng.uniform(xs[0], xs[-1])
        try:
            phi = coords1d.moment_coords_1d(nodes, x)
        except SingularMatrix:
            singular += 1
            continue
        acc.record("partition of unity", abs(phi.sum() - 1.0), PARTITION_TOL)
        acc.record("nonnegativity", max(0.0, -float(phi.min())), NONNEG_TOL)
        acc.record("linear precision", abs(float(phi @ xs) - x) / span, PRECISION_RTOL)
        acc.record(
            "moment vs hat oracle",
            float(np.abs(phi - coords1d.hat_oracle(nodes, x)).max()),
            ORACLE_TOL,
        )
    acc.record("no solver singularity", float(singular), 0.5)
    for i, x in enumerate(xs):
        phi = coords1d.moment_coords_1d(nodes, float(x))
        expect = np.zeros(len(xs))
        expect[i] = 1.0
        acc.record("kronecker delta", float(np.abs(phi - expect).max()), KRONECKER_TOL)
    return acc.items()


def run_suite(geometry, samples: int, seed: int, tol_scale: float = 1.0, method: str | None = None):
    """Dispatch to the suite for the geometry kind.

    method restricts quadrilateral suites to one coordinate family
    ("wachspress" or anything else mapping to the moment family); hex and
    interval geometries have a single family.  Raises ValueError when
    samples < 1, which would leave the sampled axioms out of the result.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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
