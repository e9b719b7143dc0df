import numpy as np
import pytest

from momentcoords import coords1d, coords2d, coords3d, geometry, sampling, shapes
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
    c = v.mean(axis=0)
    for name, fn, draw in maps:
        for _ in range(5):
            a, b = draw(rng)
            mapped = Quadrilateral(_image(a, b, c, d, v))
            for p, q in zip(pts[:20], _image(a, b, c, d, pts[:20])):
                worst.record(name, _gap(fn(quad, p), fn(mapped, q)))
    return worst


def _image(a, b, c, d, x):
    """The covariance maps act in element units about the vertex centroid c
    (d the diameter): x -> c + a (x - c) + d b."""
    return c + (x - c) @ a.T + d * b


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
    # A family's samples are rows of its stack, re-run with the oracles'
    # failures in the loop's order: sample 0 reaches the mean value oracle
    # before sample 2 reaches Wachspress.
    monkeypatch.undo()
    pts = _loop_points(quad, 23, 7)[0]
    _force(monkeypatch, "mvc_oracle", [(quad.vertices, pts[0], "mvc sample 0")])
    _force(monkeypatch, "wachspress_coords_quad", [(quad.vertices, pts[2], "wachspress sample 2")])
    for suite in (quad_suite, _reference_quad_suite):
        with pytest.raises(MomentCoordsError, match="^mvc sample 0$"):
            suite(quad, 23, 7)


def _loop_points(quad, samples, seed):
    """The samples, each family's edge points (4, 8, 2) and the ten
    covariance images (vertices, points (20, 2)) of the per-point loop on a
    convex quad, from its draws."""
    rng = np.random.default_rng(seed)
    v = quad.vertices
    pts = sampling.interior_points_quad(quad, samples, rng)
    edges = []
    for _ in range(2):
        t = rng.uniform(0.05, 0.95, (4, 8))
        edges.append((1 - t)[:, :, None] * v[:, None] + t[:, :, None] * v[[1, 2, 3, 0], None])
    images = []
    c, d = v.mean(axis=0), quad.diameter
    for draw in (_similarity, _affine):
        for _ in range(5):
            a, b = draw(rng)
            images.append((_image(a, b, c, d, v), _image(a, b, c, d, pts[:20])))
    return pts, edges, images


def _force(monkeypatch, name, forced):
    """Patch coords2d's name_many to fail the row of each (element
    vertices, point, message) of forced, wherever it is in the batch, and
    name to raise its message there."""
    real_many, real_single = getattr(coords2d, f"{name}_many"), getattr(coords2d, name)

    def hit(vertices, p):
        return [m for w, q, m in forced if np.array_equal(vertices, w) and np.array_equal(p, q)]

    def many(geom, points, **kwargs):
        phi, ok = real_many(geom, points, **kwargs)
        for s, p in enumerate(points):
            element = geom.quads[geom.element[s]] if isinstance(geom, geometry.QuadStack) else geom
            if hit(element.vertices, p):
                ok[s], phi[s] = False, np.nan
        return phi, ok

    def single(geom, p):
        for message in hit(geom.vertices, p):
            raise MomentCoordsError(message)
        return real_single(geom, p)

    monkeypatch.setattr(coords2d, f"{name}_many", many)
    monkeypatch.setattr(coords2d, name, single)


@pytest.mark.parametrize("case", ["sample before vertex", "edge point before image"])
def test_quad_suite_reruns_across_point_groups_in_loop_order(monkeypatch, case):
    # Each family's samples, vertices, edge points and images are one stack.
    # Its failed rows are re-run in the loop's order across the families:
    # every sample first, then the families' vertices and edge points, then
    # their covariance images.
    quad = shapes.convex_quad()
    v = quad.vertices
    pts, edges, images = _loop_points(quad, 23, 7)
    if case == "sample before vertex":
        moment = [(v, v[1], "moment vertex 1")]
        wachspress = [(v, pts[5], "wachspress sample 5")]
        expect = "wachspress sample 5"
    else:
        moment = [(images[1][0], images[1][1][6], "moment image 1 point 6")]
        wachspress = [(v, edges[1][2, 3], "wachspress edge point")]
        expect = "wachspress edge point"
    _force(monkeypatch, "moment_coords_quad", moment)
    _force(monkeypatch, "wachspress_coords_quad", wachspress)
    for suite in (quad_suite, _reference_quad_suite):
        with pytest.raises(MomentCoordsError, match=f"^{expect}$"):
            suite(quad, 23, 7)


@pytest.mark.parametrize(
    "make",
    [
        shapes.convex_quad,
        shapes.convex_hex,
        lambda: NodeSet1D([0.0, 0.13, 0.4, 0.55, 0.9, 1.0, 1.7]),
    ],
    ids=["conv-quad", "conv-hex", "interval-7"],
)
def test_suite_results_independent_of_chunk_size(monkeypatch, make):
    # 50 samples are one chunk at the default BATCH_CHUNK, seven chunks of 7
    # and a last chunk of one, or 50 chunks of one point; the samplers draw
    # their attempts in chunks of the same size.
    geom = make()

    def results():
        return [(r.name, r.worst, r.tol) for r in run_suite(geom, 50, seed=3)]

    default = results()
    for chunk in (7, 1):
        monkeypatch.setattr(geometry, "BATCH_CHUNK", chunk)
        assert results() == default


@pytest.mark.parametrize("family", ["moment", "wachspress"])
def test_quad_suite_reruns_stacked_images_in_loop_order(monkeypatch, family):
    # The five covariance images of a family are elements of its stack.
    # Rows the stack fails in the third and fourth images are re-run on
    # their own image in the per-point loop's order, and named by their
    # index in it.
    quad = shapes.convex_quad()
    many_name, single_name = f"{family}_coords_quad_many", f"{family}_coords_quad"
    real_many, real_single = getattr(coords2d, many_name), getattr(coords2d, single_name)
    forced = []  # (image vertices, point, message) of each failed row

    def failing(geom, points, **kwargs):
        phi, ok = real_many(geom, points, **kwargs)
        if isinstance(geom, geometry.QuadStack):
            images = [e for e, element in enumerate(geom.quads) if element is not quad]
            for e, local in ((3, 1), (2, 9), (2, 4)):
                s = np.flatnonzero(geom.element == images[e])[local]
                ok[s], phi[s] = False, np.nan
                vertices = geom.quads[images[e]].vertices
                forced.append((vertices, points[s], f"image {e} point {local}"))
        return phi, ok

    monkeypatch.setattr(coords2d, many_name, failing)
    with pytest.raises(RuntimeError, match=f"{single_name} evaluates point 4, which"):
        quad_suite(quad, 23, 7, family=family)

    def raising(geom, p):
        for vertices, q, message in forced:
            if np.array_equal(geom.vertices, vertices) and np.array_equal(p, q):
                raise MomentCoordsError(message)
        return real_single(geom, p)

    monkeypatch.setattr(coords2d, single_name, raising)
    with pytest.raises(MomentCoordsError, match="^image 2 point 4$"):
        quad_suite(quad, 23, 7, family=family)
    # The per-point loop raises the same, at the same image and point.
    with pytest.raises(MomentCoordsError, match="^image 2 point 4$"):
        _reference_quad_suite(quad, 23, 7, family=family)


@pytest.mark.parametrize("error", [SingularMatrix, FrameNotFound])
def test_hex_suite_counts_singular_samples_only(monkeypatch, error):
    # Samples, vertices, edge points and face points run as one batch.  A
    # failed sample's SingularMatrix is counted; a failed vertex raises what
    # its single-point function raises, SingularMatrix included, before the
    # edge point that failed after it, as the per-point loop does.
    hexa = shapes.convex_hex()
    samples = 10
    real_many, real_single = coords3d.moment_coords_hex_many, coords3d.moment_coords_hex
    raises = {}  # row of the batch -> what its re-run raises (None: weights)
    forced = []  # (point, exception) of each failed row

    def failing(h, points, return_frame_coords=False):
        out = real_many(h, points, return_frame_coords)
        for s, exc in raises.items():
            out[1][s] = False
            forced.append((points[s], exc))
        return out

    def single(h, p, return_frame=False):
        for q, exc in forced:
            if exc is not None and np.array_equal(p, q):
                raise exc
        return real_single(h, p, return_frame=return_frame)

    monkeypatch.setattr(coords3d, "moment_coords_hex_many", failing)
    monkeypatch.setattr(coords3d, "moment_coords_hex", single)
    # A counted sample, then a vertex whose re-run returns weights, named by
    # its index among the vertices (row 12 of the batch).
    raises.update({3: SingularMatrix("sample 3"), samples + 2: None})
    with pytest.raises(RuntimeError, match="evaluates point 2, which"):
        hex_suite(hexa, samples, 5)
    raises.update({samples + 2: error("vertex 2"), samples + 8 + 5: FrameNotFound("edge point 5")})
    forced.clear()
    with pytest.raises(error, match="^vertex 2$"):
        hex_suite(hexa, samples, 5)
    with pytest.raises(error, match="^vertex 2$"):
        _reference_hex_suite(hexa, samples, 5)
