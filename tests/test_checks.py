import math
from collections import Counter

import numpy as np
import pytest
from oracles import axiom_errors

from momentcoords import checks, coords1d, coords2d, coords3d, geometry, sampling, shapes
from momentcoords.checks import (
    NONNEG_TOL,
    PARTITION_TOL,
    PRECISION_RTOL,
    hex_suite,
    interval_suite,
    linear_precision_error,
    quad_suite,
    run_suite,
)
from momentcoords.cli import _evaluate, _geometry_size, main
from momentcoords.errors import (
    DomainError,
    FrameNotFound,
    MomentCoordsError,
    OnBoundary,
    OutOfDomain,
    OutsideDomain,
    ResidualExceeded,
    SingularMatrix,
)
from momentcoords.geometry import (
    CAUSES,
    CLASSIFY_RTOL,
    HEX_EDGES,
    HEX_FACES,
    NodeSet1D,
    Quadrilateral,
    QuadStack,
    face_of_point_hex,
    named_counts,
)


@pytest.mark.parametrize("samples", [0, -5])
def test_run_suite_rejects_nonpositive_samples(samples):
    # With no samples the result would hold only the non-sampled properties,
    # all passing.
    with pytest.raises(ValueError, match="samples"):
        run_suite(shapes.convex_quad(), samples, seed=0)


def test_run_suite_refuses_an_object_without_a_kind():
    # A QuadStack holds quadrilaterals but is no element kind of its own.
    stack = QuadStack([shapes.convex_quad()], [0])
    with pytest.raises(TypeError, match="^unsupported geometry type QuadStack$"):
        run_suite(stack, 5, seed=0)


# Per-point recomputations of the suites through the single-point functions:
# the batched suites must report the same properties, in the same order, with
# the same worst values and the same failed evaluations by cause.


def _cause(exc):
    """The geometry.CAUSES name of what a single-point function raised."""
    if isinstance(exc, OnBoundary):
        return "boundary"
    if isinstance(exc, DomainError):
        return "exterior"
    if isinstance(exc, FrameNotFound):
        return "frame"
    if isinstance(exc, SingularMatrix):
        return "singular"
    if isinstance(exc, ResidualExceeded):
        return "residual"
    raise exc


class _Worst(dict):
    def __init__(self):
        super().__init__()
        self.failed = Counter()

    def record(self, name, value):
        self[name] = max(self.get(name, value), float(value))

    def evaluate(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), or None where it raises, counted by cause."""
        try:
            return fn(*args, **kwargs)
        except MomentCoordsError as exc:
            self.failed[_cause(exc)] += 1
            return None

    def evaluates(self):
        """Hold the place of the evaluates property, which self.failed
        counts."""
        self["evaluates"] = None


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


def _reference_quad_suite(quad, samples, seed):
    rng = np.random.default_rng(seed)
    worst = _Worst()
    pts = sampling.interior_points_quad(quad, samples, rng)
    d, v = quad.diameter, quad.vertices
    oracles = [("mean-value", coords2d.mvc_oracle), ("cramer", coords2d.cramer_coords_quad)]
    families = [("moment", coords2d.moment_coords_quad, oracles)]
    if quad.is_convex:
        oracles = [("area", coords2d.wachspress_oracle)]
        families.append(("wachspress", coords2d.wachspress_coords_quad, oracles))
    sample_phi = {name: [] for name, _, _ in families}
    for p in pts:
        for name, fn, oracles in families:
            phi = worst.evaluate(fn, quad, p)
            sample_phi[name].append(phi)
            if phi is not None:
                _axioms(worst, f"{name} ", phi, v, p, d)
            for oracle, ref_fn in oracles:
                ref = worst.evaluate(ref_fn, quad, p)
                if phi is not None and ref is not None:
                    worst.record(f"{name} vs {oracle} oracle", _gap(phi, ref))
    for name, fn, _ in families:
        for i in range(4):
            phi = worst.evaluate(fn, quad, v[i])
            if phi is not None:
                worst.record(f"{name} kronecker delta", _gap(phi, np.eye(4)[i]))
        for i in range(4):
            for t in rng.uniform(0.05, 0.95, 8):
                expect = np.zeros(4)
                expect[i], expect[(i + 1) % 4] = 1 - t, t
                phi = worst.evaluate(fn, quad, (1 - t) * v[i] + t * v[(i + 1) % 4])
                if phi is not None:
                    worst.record(f"{name} boundary reduction", _gap(phi, expect))
    draws = {"moment": ("similarity", _similarity), "wachspress": ("affine", _affine)}
    c = v.mean(axis=0)
    for name, fn, _ in families:
        covariance, draw = draws[name]
        for _ in range(5):
            a, b = draw(rng)
            mapped = Quadrilateral(_image(a, b, c, d, v))
            for phi, q in zip(sample_phi[name][:20], _image(a, b, c, d, pts[:20])):
                mphi = worst.evaluate(fn, mapped, q)
                if phi is not None and mphi is not None:
                    worst.record(f"{name} {covariance} covariance", _gap(phi, mphi))
    worst.evaluates()
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
    for p in sampling.interior_points_hex(hexa, samples, rng):
        out = worst.evaluate(coords3d.moment_coords_hex, hexa, p, return_frame=True)
        if out is not None:
            phi, frame = out
            _axioms(worst, "moment ", phi, v, p, d)
            ok = coords3d.sign_pattern_ok(frame.coords(v), d)
            worst.record("sign pattern verified", 0.0 if ok else 1.0)
    worst.evaluates()
    for i in range(8):
        phi = worst.evaluate(coords3d.moment_coords_hex, hexa, v[i])
        if phi is not None:
            worst.record("kronecker delta", _gap(phi, np.eye(8)[i]))
    for i, j in HEX_EDGES:
        for t in rng.uniform(0.1, 0.9, 3):
            expect = np.zeros(8)
            expect[i], expect[j] = 1 - t, t
            phi = worst.evaluate(coords3d.moment_coords_hex, hexa, (1 - t) * v[i] + t * v[j])
            if phi is not None:
                worst.record("edge reduction", _gap(phi, expect))
    for f in range(6):
        idx = list(HEX_FACES[f])
        off = [i for i in range(8) if i not in idx]
        for p in sampling.face_points_hex(hexa, f, max(4, samples // 60), rng):
            out = worst.evaluate(coords3d.moment_coords_hex, hexa, p, return_frame=True)
            loc = face_of_point_hex(hexa, p)
            if out is None or loc.kind != "on_face" or loc.index != f:
                continue
            phi, frame = out
            worst.record("facet off-face weights", float(np.abs(phi[off]).max()))
            induced = coords3d._induced_face_quad(f, frame.coords(v))
            psi = worst.evaluate(coords2d.moment_coords_quad, induced, [0, 0])
            if psi is not None:
                worst.record("facet reduction", _gap(phi[idx], psi))
    return worst


def _reference_interval_suite(nodes, samples, seed):
    rng = np.random.default_rng(seed)
    worst = _Worst()
    xs = nodes.nodes
    for _ in range(samples):
        x = rng.uniform(xs[0], xs[-1])
        phi = worst.evaluate(coords1d.moment_coords_1d, nodes, x)
        hat = worst.evaluate(coords1d.hat_oracle, nodes, x)
        if phi is not None:
            _axioms(worst, "", phi, xs[:, None], np.array([x]), nodes.span)
            if hat is not None:
                worst.record("moment vs hat oracle", _gap(phi, hat))
    worst.evaluates()
    for i, x in enumerate(xs):
        phi = worst.evaluate(coords1d.moment_coords_1d, nodes, float(x))
        if phi is not None:
            worst.record("kronecker delta", _gap(phi, np.eye(len(xs))[i]))
    return worst


def _assert_same_results(results, reference):
    assert [r.name for r in results] == list(reference)
    for r in results:
        assert np.isfinite(r.worst), r.line()
        if r.name == "evaluates":
            failed = reference.failed
            assert r.worst == sum(failed.values()), (r.line(), failed)
            assert r.note == named_counts([failed[c] for c in CAUSES]), (r.line(), failed)
        else:
            assert r.worst == reference[r.name], (r.name, r.worst, reference[r.name])


QUADS = {
    "biunit": shapes.biunit_square,
    "convex": shapes.convex_quad,
    "nonconvex": shapes.nonconvex_quad,
    "random": lambda: sampling.random_simple_quad(np.random.default_rng(8), convex=True),
    "convex+1e6": lambda: Quadrilateral(shapes.convex_quad().vertices + [1e6, -7e5]),
}


@pytest.mark.parametrize("name", sorted(QUADS))
def test_quad_suite_equals_per_point_recomputation(name):
    quad = QUADS[name]()
    for samples, seed in ((1, 0), (23, 7)):
        reference = _reference_quad_suite(quad, samples, seed)
        _assert_same_results(quad_suite(quad, samples, seed), reference)


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


def test_linear_precision_error_far_from_the_origin():
    # About the vertex centroid the error is the weights' own; the absolute
    # form |phi @ v - p| would carry the rounding of coordinates near 1e6.
    quad = Quadrilateral(shapes.nonconvex_quad().vertices + [1e6, -7e5])
    pts = sampling.interior_points_quad(quad, 200, np.random.default_rng(1))
    phi, ok, _ = coords2d.moment_coords_quad_many(quad, pts)
    assert ok.all()
    assert linear_precision_error(phi, quad.vertices, pts).max() <= 1e-14 * quad.diameter


def _row_errors_within(weights, vertices, points, diameter):
    """Each row's three axiom errors against their bounds, one row at a
    time in Python floats, the sums in the order the checks take them."""
    within = []
    for phi, p in zip(weights.tolist(), points):
        within.append(
            abs(sum(phi) - 1.0) <= PARTITION_TOL
            and -min(phi) <= NONNEG_TOL
            and _precision(np.array(phi), vertices, p, 1.0) <= PRECISION_RTOL * diameter
        )
    return within


def test_row_ok_is_the_three_axiom_bounds():
    # Crafted rows on the biunit square, whose vertex centroid is 0: each
    # point is its row's own reconstruction, except where a row tests linear
    # precision.  Near 1, |sum - 1| is a multiple of 2**-52 or 2**-53, so
    # the partition rows take the last sum within the tolerance and the
    # next float.
    square = shapes.BUILTINS["biunit-square"]()
    v, d = square.vertices, square.diameter
    ulp = 2.0**-52
    top = 1.0 + math.floor(PARTITION_TOL / ulp) * ulp
    neg = np.nextafter(NONNEG_TOL, 1.0)
    bound = PRECISION_RTOL * d
    rows = [
        # (weights, point or None for the reconstruction, row_ok)
        ([np.nan, 0.25, 0.25, 0.5], None, False),
        ([-0.0, -0.0, 1.0, -0.0], None, True),
        ([-0.0] * 4, None, False),
        ([top, 0.0, 0.0, 0.0], None, True),
        ([np.nextafter(top, 2.0), 0.0, 0.0, 0.0], None, False),
        ([1.0 + NONNEG_TOL, -NONNEG_TOL, 0.0, 0.0], None, True),
        ([1.0 + neg, -neg, 0.0, 0.0], None, False),
        ([0.25] * 4, (bound, 0.0), True),
        ([0.25] * 4, (np.nextafter(bound, 1.0), 0.0), False),
    ]
    weights = np.array([w for w, _, _ in rows])
    points = np.array([weights[k] @ v if p is None else p for k, (_, p, _) in enumerate(rows)])
    partition, negative, precision = checks._axiom_errors(weights, v, points)
    assert partition[3] <= PARTITION_TOL < partition[4]
    assert negative[5] == NONNEG_TOL and precision[7] == bound
    got = checks.row_ok(weights, v, points, d).tolist()
    assert got == [ok for _, _, ok in rows]
    assert got == _row_errors_within(weights, v, points, d)
    # The nonconvex quad moved by (1e6, -7e5): its interior rows pass, about
    # the vertex centroid, where |phi @ v - p| would carry the rounding of
    # the coordinates.
    quad = Quadrilateral(shapes.nonconvex_quad().vertices + [1e6, -7e5])
    pts = sampling.interior_points_quad(quad, 50, np.random.default_rng(3))
    phi, ok, _ = coords2d.moment_coords_quad_many(quad, pts)
    assert ok.all()
    got = checks.row_ok(phi, quad.vertices, pts, quad.diameter).tolist()
    assert got == _row_errors_within(phi, quad.vertices, pts, quad.diameter) == [True] * len(pts)


def _assert_same_bits(weights, vertices, points, diameter):
    """_axiom_errors and row_ok equal the row form of tests/oracles.py bit
    for bit."""
    got = checks._axiom_errors(weights, vertices, points)
    want = axiom_errors(weights, vertices, points)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (len(weights),)
        assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()
    partition, neg, precision = want
    within = (partition <= PARTITION_TOL) & (neg <= NONNEG_TOL)
    within &= precision <= PRECISION_RTOL * diameter
    assert checks.row_ok(weights, vertices, points, diameter).tolist() == within.tolist()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 8, 12, 16])
def test_axiom_errors_equal_the_row_form_bitwise(n, dim):
    # Weight rows on random vertices, some far from the origin, with noise
    # in the weights and the points, so each error spans a range of values
    # and row_ok takes both answers.  Then rows with a NaN in each column,
    # rows of +0.0 and of -0.0, and -0.0 entries beside positive weights
    # or a negative one.  No row's minimum is a tie of +0.0 and -0.0: numpy
    # takes such a tie in its own order over long rows, and its sign
    # changes neither row_ok nor a printed worst value.
    rng = np.random.default_rng([n, dim])
    offset = rng.choice([0.0, 1e6], dim)
    vertices = rng.uniform(-1.0, 1.0, (n, dim)) + offset
    diameter = max(np.linalg.norm(a - b) for a in vertices for b in vertices)
    weights = rng.dirichlet(np.ones(n), 200)
    weights += rng.choice([0.0, 1e-14, 1e-11], (200, 1)) * rng.normal(size=(200, n))
    weights[::5, -1] = -rng.uniform(0.0, 2e-12, 40)
    points = weights @ (vertices - offset) + offset
    points += rng.choice([0.0, 1e-12, 1e-9], (200, 1)) * rng.normal(size=(200, dim))
    special = []
    for j in range(n):
        row = np.full(n, 1.0 / n)
        row[j] = np.nan
        special.append(row)
        row = np.full(n, 1.0 / (n - 1))
        row[j] = -0.0
        special.append(row)
        row = np.where(np.arange(n) % 2 == j % 2, -0.0, 0.5)
        row[(j + 1) % n] = -1e-13
        special.append(row)
    special += [np.zeros(n), np.full(n, -0.0)]
    special = np.array(special)
    weights = np.concatenate([weights, special])
    points = np.concatenate([points, vertices.mean(axis=0) + 0.0 * special[:, :dim]])
    _assert_same_bits(weights, vertices, points, diameter)
    # One row at a time, as eval and a batch of one check it.
    for k in (0, 1, len(weights) - 1):
        _assert_same_bits(weights[k : k + 1], vertices, points[k : k + 1], diameter)


@pytest.mark.parametrize(
    "geometry, point",
    [
        ("conv-hex", [0.0, 0.5, 0.0]),
        ("conv-hex", [1.0, 1.0, 0.0]),
        ("conv-hex", [0.0, 1.5, 0.0]),
        ("nonconv-quad", [0.3, 0.3]),
        ("interval-7", [0.3]),
    ],
)
def test_axiom_errors_of_an_eval_row_equal_the_row_form_bitwise(geometry, point):
    # The single row eval checks; on conv-hex's faces it holds -0.0 weights.
    if geometry == "interval-7":
        geom = NodeSet1D([0.0, 0.13, 0.4, 0.55, 0.9, 1.0, 1.7])
    else:
        geom = shapes.BUILTINS[geometry]()
    diameter, vertices = _geometry_size(geom)
    point = np.array(point)
    weights, _ = _evaluate(geom, "moment", point)
    _assert_same_bits(weights[None], vertices, point[None], diameter)


@pytest.mark.parametrize("seed", [0, 7])
def test_check_prints_zero_not_negative_zero(capsys, tmp_path, seed):
    # The 7-node interval's hat-like rows hold exact zeros, so every row's
    # -min is -0.0 or less; check prints the worst as 0, not -0.
    path = tmp_path / "interval-7.json"
    path.write_text('{"kind": "interval", "nodes": [0, 0.13, 0.4, 0.55, 0.9, 1, 1.7]}')
    argv = ["check", "--geometry", str(path), "--samples", "600", "--seed", str(seed)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "PASS nonnegativity: worst=0.000e+00 tol=1.0e-12\n" in out


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


# Forced failures: a batch fails one row, with a cause, and its single-point
# function raises the matching exception at the same point.  The suite
# leaves the row out of every other property and counts it under its cause
# in the evaluates property; its per-point recomputation does the same.


def _force(monkeypatch, module, name, error, cause, element, point):
    """Patch module's name_many to fail, with the cause code, every row at
    point on element (its vertices, or an interval's nodes), and name to
    raise error there."""
    real_many, real_single = getattr(module, f"{name}_many"), getattr(module, name)

    def hit(geom, p):
        own = geom.nodes if isinstance(geom, NodeSet1D) else geom.vertices
        return np.array_equal(own, element) and np.array_equal(p, point)

    def many(geom, points, **kwargs):
        *out, info = real_many(geom, points, **kwargs)
        for s, p in enumerate(points):
            own = geom.quads[geom.element[s]] if isinstance(geom, QuadStack) else geom
            if hit(own, p):
                out[1][s] = False
                for values in (out[0], *out[2:]):  # the weights, frame coordinates
                    values[s] = np.nan
                info.cause[s] = cause
        return (*out, info)

    def single(geom, p, **kwargs):
        if hit(geom, p):
            raise error("forced")
        return real_single(geom, p, **kwargs)

    monkeypatch.setattr(module, f"{name}_many", many)
    monkeypatch.setattr(module, name, single)


def _assert_counted(results, reference, cause, count=1):
    """The suite's results equal its recomputation's, with the count forced
    rows counted under cause; no property reads NaN."""
    _assert_same_results(results, reference)
    [evaluates] = [r for r in results if r.name == "evaluates"]
    line = f"FAIL evaluates: worst={count:.3e} tol=5.0e-01 ({count} {cause})"
    assert evaluates.line() == line
    assert all(r.passed for r in results if r.name != "evaluates")


def _quad_points(quad, samples, seed):
    """The samples, each family's edge points (4, 8, 2) and the ten
    covariance images (vertices, points (20, 2)) of quad_suite on a convex
    quad, from its draws."""
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


# group: (single-point function, error, cause, (element, point) from
# (vertices, samples, edge points, images)).
QUAD_FORCED = {
    "sample": ("moment_coords_quad", SingularMatrix, "singular", lambda v, p, e, im: (v, p[3])),
    "vertex": ("wachspress_coords_quad", SingularMatrix, "singular", lambda v, p, e, im: (v, v[2])),
    "edge point": (
        "moment_coords_quad", OutsideDomain, "exterior", lambda v, p, e, im: (v, e[0][1, 4])
    ),
    # Images 5-9 are the Wachspress family's affine images.
    "covariance image": (
        "wachspress_coords_quad",
        SingularMatrix,
        "singular",
        lambda v, p, e, im: (im[7][0], im[7][1][4]),
    ),
    "oracle sample": ("mvc_oracle", OnBoundary, "boundary", lambda v, p, e, im: (v, p[5])),
}


@pytest.mark.parametrize("group", sorted(QUAD_FORCED))
def test_quad_suite_counts_failed_rows_by_cause(monkeypatch, group):
    quad = shapes.convex_quad()
    name, error, cause, where = QUAD_FORCED[group]
    element, point = where(quad.vertices, *_quad_points(quad, 23, 7))
    _force(monkeypatch, coords2d, name, error, CAUSES.index(cause), element, point)
    _assert_counted(quad_suite(quad, 23, 7), _reference_quad_suite(quad, 23, 7), cause)


@pytest.mark.parametrize("image", [0, 4])
def test_covariance_keeps_the_judged_worst_when_one_image_fails(monkeypatch, image):
    # Every row of the first or the last similarity image fails: the images
    # that evaluate still judge the property, which passes with their worst
    # (a record over no row reads NaN only until another judges a row).
    quad = shapes.convex_quad()
    _, _, images = _quad_points(quad, 23, 7)
    vertices, points = images[image]
    code = CAUSES.index("singular")
    for p in points:
        _force(monkeypatch, coords2d, "moment_coords_quad", SingularMatrix, code, vertices, p)
    results = quad_suite(quad, 23, 7)
    reference = _reference_quad_suite(quad, 23, 7)
    _assert_counted(results, reference, "singular", count=len(points))
    [covariance] = [r for r in results if r.name == "moment similarity covariance"]
    assert covariance.passed and covariance.worst == reference[covariance.name]


@pytest.mark.parametrize("family", ["moment", "wachspress"])
def test_quad_suite_reruns_stacked_images_in_loop_order(monkeypatch, family):
    # The five covariance images of a family are elements of its stack.
    # Rows the stack fails in its third and fourth images are counted as
    # the per-point loop over the images counts them, and every other
    # image row keeps its value.
    quad = shapes.convex_quad()
    _, _, images = _quad_points(quad, 23, 7)
    first = {"moment": 0, "wachspress": 5}[family]  # similarity, then affine images
    name, code = f"{family}_coords_quad", CAUSES.index("singular")
    for e, local in ((3, 1), (2, 9), (2, 4)):
        vertices, points = images[first + e]
        _force(monkeypatch, coords2d, name, SingularMatrix, code, vertices, points[local])
    results = quad_suite(quad, 23, 7)
    _assert_counted(results, _reference_quad_suite(quad, 23, 7), "singular", count=3)


def _hex_points(hexa, samples, seed):
    """The samples, vertices, edge points and the first on-face point of
    hex_suite, from its draws."""
    rng = np.random.default_rng(seed)
    v = hexa.vertices
    pts = sampling.interior_points_hex(hexa, samples, rng)
    ends = np.array(HEX_EDGES)
    t = rng.uniform(0.1, 0.9, (len(ends), 3))
    edge = (1 - t)[:, :, None] * v[ends[:, 0], None] + t[:, :, None] * v[ends[:, 1], None]
    on_face = [
        p
        for f in range(6)
        for p in sampling.face_points_hex(hexa, f, max(4, samples // 60), rng)
        if face_of_point_hex(hexa, p).kind == "on_face" and face_of_point_hex(hexa, p).index == f
    ]
    return pts, v, edge.reshape(-1, 3), on_face[0]


HEX_FORCED = {
    "sample": (FrameNotFound, "frame", lambda pts, v, edge, face: pts[4]),
    "vertex": (SingularMatrix, "singular", lambda pts, v, edge, face: v[6]),
    "edge point": (FrameNotFound, "frame", lambda pts, v, edge, face: edge[17]),
    "face point": (FrameNotFound, "frame", lambda pts, v, edge, face: face),
}


@pytest.mark.parametrize("group", sorted(HEX_FORCED))
def test_hex_suite_counts_failed_rows_by_cause(monkeypatch, group):
    hexa = shapes.convex_hex()
    error, cause, where = HEX_FORCED[group]
    point = where(*_hex_points(hexa, 30, 5))
    code = CAUSES.index(cause)
    _force(monkeypatch, coords3d, "moment_coords_hex", error, code, hexa.vertices, point)
    _assert_counted(hex_suite(hexa, 30, 5), _reference_hex_suite(hexa, 30, 5), cause)


INTERVAL_FORCED = {
    "sample": ("moment_coords_1d", SingularMatrix, "singular", lambda x, xs: x[6]),
    "node": ("moment_coords_1d", SingularMatrix, "singular", lambda x, xs: xs[2]),
    "oracle sample": ("hat_oracle", OutOfDomain, "exterior", lambda x, xs: x[1]),
}


@pytest.mark.parametrize("group", sorted(INTERVAL_FORCED))
def test_interval_suite_counts_failed_rows_by_cause(monkeypatch, group):
    nodes = NodeSet1D([0.0, 0.13, 0.4, 0.55, 0.9, 1.0, 1.7])
    name, error, cause, where = INTERVAL_FORCED[group]
    xs = nodes.nodes
    x = np.random.default_rng(5).uniform(xs[0], xs[-1], 20)
    _force(monkeypatch, coords1d, name, error, CAUSES.index(cause), xs, where(x, xs))
    _assert_counted(interval_suite(nodes, 20, 5), _reference_interval_suite(nodes, 20, 5), cause)


def test_evaluates_fails_on_one_failed_row(monkeypatch):
    # A failed evaluation is not a tolerance: one failed row fails the suite.
    hexa = shapes.convex_hex()
    point = _hex_points(hexa, 30, 5)[0][4]
    code = CAUSES.index("frame")
    _force(monkeypatch, coords3d, "moment_coords_hex", FrameNotFound, code, hexa.vertices, point)
    [evaluates] = [r for r in hex_suite(hexa, 30, 5) if r.name == "evaluates"]
    assert evaluates.tol == 0.5 and not evaluates.passed


def _fail_every_row(monkeypatch, module, names, cause):
    """Patch each module.name (a batch function) to fail every row it
    evaluates, with the cause code."""
    for name in names:

        def many(geom, points, real=getattr(module, name), **kwargs):
            *out, info = real(geom, points, **kwargs)
            out[1][:] = False
            for values in (out[0], *out[2:]):  # the weights, frame coordinates
                values[:] = np.nan
            info.cause[:] = cause
            return (*out, info)

        monkeypatch.setattr(module, name, many)


# builtin: (module, the batch functions of its suite, the cause, the lines
# check prints when every row fails).  evaluates counts every row (conv-quad
# at 30 samples: two families of 30 samples, 4 vertices, 32 edge points and
# 100 image points, and three oracles of 30; conv-hex: 30 samples, 8
# vertices, 36 edge points, 24 face points).  The sampled axioms, and on a
# hexahedron the sign pattern and the facet properties, which have no face
# point left, are left out; the comparisons over no row read NaN and fail.
EVERY_ROW_FAILS = {
    "conv-quad": (
        coords2d,
        [
            "moment_coords_quad_many",
            "mvc_oracle_many",
            "cramer_coords_quad_many",
            "wachspress_coords_quad_many",
            "wachspress_oracle_many",
        ],
        "singular",
        [
            "FAIL moment vs mean-value oracle: worst=nan tol=1.0e-10",
            "FAIL moment vs cramer oracle: worst=nan tol=1.0e-10",
            "FAIL wachspress vs area oracle: worst=nan tol=1.0e-10",
            "FAIL moment kronecker delta: worst=nan tol=1.0e-10",
            "FAIL moment boundary reduction: worst=nan tol=1.0e-10",
            "FAIL wachspress kronecker delta: worst=nan tol=1.0e-10",
            "FAIL wachspress boundary reduction: worst=nan tol=1.0e-10",
            "FAIL moment similarity covariance: worst=nan tol=1.0e-09",
            "FAIL wachspress affine covariance: worst=nan tol=1.0e-09",
            "FAIL evaluates: worst=4.220e+02 tol=5.0e-01 (422 singular)",
            "10 of 10 properties failed",
        ],
    ),
    "conv-hex": (
        coords3d,
        ["moment_coords_hex_many"],
        "frame",
        [
            "FAIL evaluates: worst=9.800e+01 tol=5.0e-01 (98 frame)",
            "FAIL kronecker delta: worst=nan tol=1.0e-10",
            "FAIL edge reduction: worst=nan tol=1.0e-09",
            "3 of 3 properties failed",
        ],
    ),
}


@pytest.mark.parametrize("builtin", sorted(EVERY_ROW_FAILS))
def test_check_with_every_row_failed(monkeypatch, capsys, builtin):
    module, names, cause, lines = EVERY_ROW_FAILS[builtin]
    _fail_every_row(monkeypatch, module, names, CAUSES.index(cause))
    assert main(["check", "--geometry", builtin, "--samples", "30"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines
    assert captured.err == ""


def test_sign_pattern_miss_fails_check(monkeypatch, capsys):
    # The 0/1 sign-pattern flag has the fixed tol 0.5: one sample whose
    # frame misses the pattern fails the suite and check exits 1.
    monkeypatch.setattr(coords3d, "sign_pattern_ok", lambda w, d: np.zeros(len(w), dtype=bool))
    [line] = [r.line() for r in hex_suite(shapes.convex_hex(), 50, 0) if r.name.startswith("sign")]
    assert line == "FAIL sign pattern verified: worst=1.000e+00 tol=5.0e-01"
    assert main(["check", "--geometry", "conv-hex", "--samples", "50"]) == 1
    assert "FAIL sign pattern verified: " in capsys.readouterr().out


def test_check_counts_face_points_the_batch_locates_outside(monkeypatch, capsys):
    # The drawn points of face 2 moved 10 tolerances outward: the batch
    # locates them exterior, evaluates counts them under that cause, and the
    # facet properties judge the other faces' points.
    real = sampling.face_points_hex

    def moved(hexa, f, n, rng, **kwargs):
        points = real(hexa, f, n, rng, **kwargs)
        if f == 2:
            normal = np.asarray(hexa.face_normals[f])
            points = points + 10 * CLASSIFY_RTOL * hexa.diameter * normal
        return points

    monkeypatch.setattr(sampling, "face_points_hex", moved)
    assert main(["check", "--geometry", "conv-hex", "--samples", "50"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL evaluates: worst=4.000e+00 tol=5.0e-01 (4 exterior)" in lines
    facet = [line for line in lines if " facet " in line]
    assert len(facet) == 2 and all(line.startswith("PASS ") for line in facet)
    assert lines[-1] == "1 of 9 properties failed"
