import numpy as np
import pytest

from momentcoords import coords1d, coords2d, coords3d, sampling, shapes
from momentcoords.checks import (
    hex_suite,
    interval_suite,
    linear_precision_error,
    quad_suite,
    run_suite,
)
from momentcoords.errors import FrameNotFound, MomentCoordsError, SingularMatrix
from momentcoords.geometry import Hexahedron, NodeSet1D, Quadrilateral, face_of_point_hex


@pytest.mark.parametrize("samples", [0, -5])
def test_run_suite_rejects_nonpositive_samples(samples):
    # With no samples the result would hold only the non-sampled properties,
    # all passing.
    with pytest.raises(ValueError, match="samples"):
        run_suite(shapes.convex_quad(), samples, seed=0)


@pytest.mark.parametrize("tol_scale", [float("inf"), float("nan"), 0.0, -1.0])
def test_run_suite_rejects_bad_tol_scale(tol_scale):
    # An infinite scale would pass every property, and a zero, negative or
    # NaN one fail them all.
    with pytest.raises(ValueError, match="tol_scale"):
        run_suite(shapes.convex_quad(), 5, seed=0, tol_scale=tol_scale)


# Per-point recomputations of the suites through the single-point functions:
# the batched suites must report the same properties, in the same order, with
# the same worst values.


class _Worst(dict):
    def record(self, name, value):
        self[name] = max(self.get(name, value), float(value))


def _precision(phi, vertices, p, diameter):
    """Centred linear precision of one weight vector, summed as the suites
    sum it."""
    c = vertices.mean(axis=0)
    recon = np.zeros(len(p))
    for i, vc in enumerate(vertices - c):
        recon += phi[i] * vc
    return float(np.abs(recon - (p - c)).max()) / diameter


def _axioms(worst, prefix, phi, vertices, p, diameter):
    worst.record(f"{prefix}partition of unity", abs(phi.sum() - 1.0))
    worst.record(f"{prefix}nonnegativity", max(0.0, -float(phi.min())))
    worst.record(f"{prefix}linear precision", _precision(phi, vertices, p, diameter))


def _gap(a, b):
    return float(np.abs(a - b).max())


def _reference_quad_suite(quad, samples, seed, family=None):
    rng = np.random.default_rng(seed)
    worst = _Worst()
    pts = sampling.interior_points_quad(quad, samples, rng)
    d, v = quad.diameter, quad.vertices
    run_moment = family in (None, "moment")
    run_wachspress = quad.is_convex and family in (None, "wachspress")
    for p in pts:
        if run_moment:
            phi = coords2d.moment_coords_quad(quad, p)
            _axioms(worst, "moment ", phi, v, p, d)
            worst.record("moment vs mean-value oracle", _gap(phi, coords2d.mvc_oracle(quad, p)))
            worst.record(
                "moment vs cramer oracle", _gap(phi, coords2d.cramer_coords_quad(quad, p))
            )
        if run_wachspress:
            phi = coords2d.wachspress_coords_quad(quad, p)
            _axioms(worst, "wachspress ", phi, v, p, d)
            worst.record(
                "wachspress vs area oracle", _gap(phi, coords2d.wachspress_oracle(quad, p))
            )
    families = []
    if run_moment:
        families.append(("moment", coords2d.moment_coords_quad))
    if run_wachspress:
        families.append(("wachspress", coords2d.wachspress_coords_quad))
    for name, fn in families:
        for i in range(4):
            worst.record(f"{name} kronecker delta", _gap(fn(quad, v[i]), np.eye(4)[i]))
        for i in range(4):
            for t in rng.uniform(0.05, 0.95, 8):
                expect = np.zeros(4)
                expect[i], expect[(i + 1) % 4] = 1 - t, t
                p = (1 - t) * v[i] + t * v[(i + 1) % 4]
                worst.record(f"{name} boundary reduction", _gap(fn(quad, p), expect))
    maps = []
    if run_moment:
        maps.append(("moment similarity covariance", coords2d.moment_coords_quad, _similarity))
    if run_wachspress:
        maps.append(("wachspress affine covariance", coords2d.wachspress_coords_quad, _affine))
    for name, fn, draw in maps:
        for _ in range(5):
            a, b = draw(rng)
            mapped = Quadrilateral(v @ a.T + b)
            for p in pts[:20]:
                worst.record(name, _gap(fn(quad, p), fn(mapped, a @ p + b)))
    return worst


def _similarity(rng):
    ang = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    return rot * rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0, 2)


def _affine(rng):
    while True:
        a = np.eye(2) + rng.uniform(-0.5, 0.5, (2, 2))
        if abs(np.linalg.det(a)) >= 0.3:
            return a, rng.uniform(-3.0, 3.0, 2)


def _reference_hex_suite(hexa, samples, seed):
    rng = np.random.default_rng(seed)
    worst = _Worst()
    d, v = hexa.diameter, hexa.vertices
    singular = 0
    for p in sampling.interior_points_hex(hexa, samples, rng):
        try:
            phi, frame = coords3d.moment_coords_hex(hexa, p, return_frame=True)
        except SingularMatrix:
            singular += 1
            continue
        _axioms(worst, "moment ", phi, v, p, d)
        ok = coords3d.sign_pattern_ok(frame.coords(v), d)
        worst.record("sign pattern verified", 0.0 if ok else 1.0)
    worst.record("no solver singularity", float(singular))
    for i in range(8):
        worst.record("kronecker delta", _gap(coords3d.moment_coords_hex(hexa, v[i]), np.eye(8)[i]))
    edges = sorted(
        {tuple(sorted((idx[i], idx[(i + 1) % 4]))) for idx in Hexahedron.FACES for i in range(4)}
    )
    for i, j in edges:
        for t in rng.uniform(0.1, 0.9, 3):
            expect = np.zeros(8)
            expect[i], expect[j] = 1 - t, t
            p = (1 - t) * v[i] + t * v[j]
            worst.record("edge reduction", _gap(coords3d.moment_coords_hex(hexa, p), expect))
    for f in range(6):
        idx = list(Hexahedron.FACES[f])
        off = [i for i in range(8) if i not in idx]
        for p in sampling.face_points_hex(hexa, f, max(4, samples // 60), rng):
            loc = face_of_point_hex(hexa, p)
            if loc.kind != "on_face" or loc.index != f:
                continue
            phi, frame = coords3d.moment_coords_hex(hexa, p, return_frame=True)
            worst.record("facet off-face weights", float(np.abs(phi[off]).max()))
            w = frame.coords(v)
            psi = coords2d.moment_coords_quad(coords3d._induced_face_quad(f, w), [0, 0])
            worst.record("facet reduction", _gap(phi[idx], psi))
    return worst


def _reference_interval_suite(nodes, samples, seed):
    rng = np.random.default_rng(seed)
    worst = _Worst()
    xs = nodes.nodes
    singular = 0
    for _ in range(samples):
        x = rng.uniform(xs[0], xs[-1])
        try:
            phi = coords1d.moment_coords_1d(nodes, x)
        except SingularMatrix:
            singular += 1
            continue
        _axioms(worst, "", phi, xs[:, None], np.array([x]), nodes.span)
        worst.record("moment vs hat oracle", _gap(phi, coords1d.hat_oracle(nodes, x)))
    worst.record("no solver singularity", float(singular))
    for i, x in enumerate(xs):
        phi = coords1d.moment_coords_1d(nodes, float(x))
        worst.record("kronecker delta", _gap(phi, np.eye(len(xs))[i]))
    return worst


def _assert_same_results(results, reference):
    assert [r.name for r in results] == list(reference)
    for r in results:
        assert r.worst == reference[r.name], (r.name, r.worst, reference[r.name])


QUADS = {
    "biunit": shapes.biunit_square,
    "convex": shapes.convex_quad,
    "nonconvex": shapes.nonconvex_quad,
    "random": lambda: sampling.random_simple_quad(np.random.default_rng(8), convex=True),
    "convex+1e6": lambda: Quadrilateral(shapes.convex_quad().vertices + [1e6, -7e5]),
}


@pytest.mark.parametrize("name", sorted(QUADS))
@pytest.mark.parametrize("family", [None, "moment", "wachspress"])
def test_quad_suite_equals_per_point_recomputation(name, family):
    quad = QUADS[name]()
    for samples, seed in ((1, 0), (23, 7)):
        _assert_same_results(
            quad_suite(quad, samples, seed, family=family),
            _reference_quad_suite(quad, samples, seed, family=family),
        )


@pytest.mark.parametrize(
    "make",
    [
        shapes.convex_hex,
        shapes.cube,
        lambda: sampling.random_plane_hex(np.random.default_rng(6), tilt=0.4),
    ],
    ids=["conv-hex", "cube", "plane-hex"],
)
def test_hex_suite_equals_per_point_recomputation(make):
    hexa = make()
    for samples, seed in ((1, 0), (30, 7)):
        _assert_same_results(
            hex_suite(hexa, samples, seed), _reference_hex_suite(hexa, samples, seed)
        )


@pytest.mark.parametrize(
    "nodes",
    [
        shapes.unit_interval(3),
        sampling.random_nodes(np.random.default_rng(7), 12),
        NodeSet1D(sampling.random_nodes(np.random.default_rng(2), 16).nodes * 1e3 + 1e6),
    ],
    ids=["3", "random-12", "random-16+1e6"],
)
def test_interval_suite_equals_per_point_recomputation(nodes):
    for samples, seed in ((1, 0), (40, 7)):
        _assert_same_results(
            interval_suite(nodes, samples, seed), _reference_interval_suite(nodes, samples, seed)
        )


@pytest.mark.parametrize("error, counted", [(SingularMatrix, True), (FrameNotFound, False)])
def test_hex_suite_reruns_failed_samples(monkeypatch, error, counted):
    # Samples the batch fails are re-run through moment_coords_hex: a
    # singular solve is counted, any other error raised, as the per-point
    # loop did.
    real = coords3d.moment_coords_hex_many
    batches, reruns = [], []

    def fail_two_samples(hexa, points, return_frame_coords=False):
        out = real(hexa, points, return_frame_coords)
        if not batches:
            out[1][[3, 5]] = False
        batches.append(len(points))
        return out

    def single(hexa, p, return_frame=False):
        reruns.append(p)
        raise error("forced")

    monkeypatch.setattr(coords3d, "moment_coords_hex_many", fail_two_samples)
    monkeypatch.setattr(coords3d, "moment_coords_hex", single)
    if not counted:
        with pytest.raises(FrameNotFound):
            hex_suite(shapes.convex_hex(), 10, 3)
        assert len(reruns) == 1
        return
    results = {r.name: r for r in hex_suite(shapes.convex_hex(), 10, 3)}
    assert len(reruns) == 2
    assert results["no solver singularity"].worst == 2.0
    assert not results["no solver singularity"].passed
    assert results["moment partition of unity"].passed


def test_linear_precision_error_far_from_the_origin():
    # About the vertex centroid the error is the weights' own; the absolute
    # form |phi @ v - p| would carry the rounding of coordinates near 1e6.
    quad = Quadrilateral(shapes.nonconvex_quad().vertices + [1e6, -7e5])
    pts = sampling.interior_points_quad(quad, 200, np.random.default_rng(1))
    phi, ok = coords2d.moment_coords_quad_many(quad, pts)
    assert ok.all()
    assert linear_precision_error(phi, quad.vertices, pts).max() <= 1e-14 * quad.diameter


def _failing(many, rows):
    """many, with ok cleared (and phi NaN) at the given rows of each batch."""

    def wrapped(geom, points, **kwargs):
        phi, ok = many(geom, points, **kwargs)
        ok[rows] = False
        phi[rows] = np.nan
        return phi, ok

    return wrapped


def _raising(message):
    def single(geom, p):
        raise MomentCoordsError(message)

    return single


def test_quad_suite_reruns_failed_points_in_loop_order(monkeypatch):
    quad = shapes.convex_quad()
    monkeypatch.setattr(coords2d, "mvc_oracle_many", _failing(coords2d.mvc_oracle_many, [2, 5]))
    monkeypatch.setattr(
        coords2d,
        "wachspress_coords_quad_many",
        _failing(coords2d.wachspress_coords_quad_many, [0]),
    )
    # A single-point function that evaluates a point its batch failed breaks
    # the batch contract; the row is not filled from it.
    with pytest.raises(RuntimeError, match="wachspress_coords_quad evaluates point 0"):
        quad_suite(quad, 23, 7)
    with pytest.raises(RuntimeError, match="mvc_oracle evaluates point 2"):
        quad_suite(quad, 23, 7, family="moment")
    # When they raise, the first exception is the per-point loop's: sample 0
    # reaches Wachspress before sample 2 reaches the mean value oracle.
    monkeypatch.setattr(coords2d, "mvc_oracle", _raising("mvc"))
    monkeypatch.setattr(coords2d, "wachspress_coords_quad", _raising("wachspress"))
    with pytest.raises(MomentCoordsError, match="wachspress"):
        quad_suite(quad, 23, 7)
    with pytest.raises(MomentCoordsError, match="mvc"):
        quad_suite(quad, 23, 7, family="moment")
