"""The batch API against the single-point API it must reproduce bit for bit."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcoords import cli, sampling, shapes
from momentcoords.cli import main
from momentcoords.coords2d import (
    cramer_coords_quad,
    cramer_coords_quad_many,
    moment_coords_quad,
    moment_coords_quad_many,
    mvc_oracle,
    mvc_oracle_many,
    wachspress_coords_quad,
    wachspress_coords_quad_many,
    wachspress_oracle,
    wachspress_oracle_many,
)
from momentcoords.coords1d import (
    hat_oracle,
    hat_oracle_many,
    moment_coords_1d,
    moment_coords_1d_many,
)
from momentcoords.coords3d import moment_coords_hex, moment_coords_hex_many
from momentcoords.errors import DomainError, MomentCoordsError, NotConvex
from momentcoords.geometry import (
    CLASSIFY_RTOL,
    Hexahedron,
    NodeSet1D,
    Quadrilateral,
    _locate_hex,
    _locate_quad,
    classify_point_quad,
    classify_points_quad,
    face_of_point_hex,
    face_of_points_hex,
)
from momentcoords.gradients import (
    FD_STEP_RTOL,
    finite_difference_gradient,
    finite_difference_gradient_many,
)


def _bbox_grid(quad, n):
    lo, hi = quad.vertices.min(axis=0), quad.vertices.max(axis=0)
    gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n))
    return np.column_stack([gx.ravel(), gy.ravel()])


def _edge_points(quad):
    """Points on each edge and within a few tolerances of it, on both sides."""
    v = quad.vertices
    tol = CLASSIFY_RTOL * quad.diameter
    out = []
    for i in range(4):
        a, b = v[i], v[(i + 1) % 4]
        e = b - a
        normal = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        for t in (0.0, 1e-12, 0.25, 0.5, 0.999, 1.0):
            for off in (0.0, 0.5, 0.99, 1.01, 3.9, 4.1, -0.5, -1.01, -5.0):
                out.append(a + t * e + off * tol * normal)
    return np.array(out)


def _tolerance_points(quad):
    """Points at (1 +- 1e-6) tol off each edge, on both sides, and around
    each vertex, where the classification turns on the last bits."""
    v = quad.vertices
    tol = CLASSIFY_RTOL * quad.diameter
    out = []
    for i in range(4):
        a, b = v[i], v[(i + 1) % 4]
        e = b - a
        normal = np.array([e[1], -e[0]]) / np.linalg.norm(e)
        for t in np.linspace(0.0, 1.0, 11):
            for off in (1 - 1e-6, 1 + 1e-6, -1 + 1e-6, -1 - 1e-6):
                out.append(a + t * e + off * tol * normal)
        angle = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
        ring = np.column_stack([np.cos(angle), np.sin(angle)])
        for r in (1 - 1e-6, 1 + 1e-6):
            out.extend(a + r * tol * ring)
    return np.array(out)


def _test_points(quad):
    return np.vstack([_bbox_grid(quad, 41), _edge_points(quad), _tolerance_points(quad)])


def _offset(quad, offset):
    return Quadrilateral(quad.vertices + np.asarray(offset))


QUADS = {
    "biunit": shapes.biunit_square(),
    "convex": shapes.convex_quad(),
    "nonconvex": shapes.nonconvex_quad(),
    "nonconvex+1e6": _offset(shapes.nonconvex_quad(), [1e6, -0.4e6]),
    "nonconvex+1e8": _offset(shapes.nonconvex_quad(), [1e8, 0.7e8]),
    "convex+1e8": _offset(shapes.convex_quad(), [-1e8, 1e8]),
    # Far and small: the tolerance (3e-13) is below the ulp of the
    # coordinates (1.2e-10), so the classification turns on rounding.
    "nonconvex*1e-3+1e6": Quadrilateral(shapes.nonconvex_quad().vertices * 1e-3 + [1e6, -7e5]),
}


def _assert_classify_equal(quad, points):
    kind, index = classify_points_quad(quad, points)
    # The edge parameter, which the edge weights take, is compared bit for
    # bit; the stack has NaN where one point has None.
    t = _locate_quad(quad, points[:, 0], points[:, 1], CLASSIFY_RTOL * quad.diameter)[2]
    for s, p in enumerate(points):
        loc = classify_point_quad(quad, p)
        assert kind[s] == loc.kind, (p, kind[s], loc)
        assert index[s] == (-1 if loc.index is None else loc.index), (p, index[s], loc)
        ref = np.nan if loc.t is None else loc.t
        assert np.float64(t[s]).tobytes() == np.float64(ref).tobytes(), (p, t[s], loc)
    return kind


def _assert_many_equal(single, many, geom, points):
    refs = []
    for p in points:
        try:
            refs.append(single(geom, p))
        except MomentCoordsError:
            refs.append(None)
        except AssertionError:
            # The residual contract failed at some point: the batch, which
            # checks the same contract, must fail it too.
            with pytest.raises(AssertionError, match="residual"):
                many(geom, points)
            return
    phi, ok = many(geom, points)
    for s, (p, ref) in enumerate(zip(points, refs)):
        if ref is None:
            assert not ok[s] and np.isnan(phi[s]).all()
        else:
            assert ok[s] and np.array_equal(phi[s], ref), (p, phi[s], ref)


@pytest.mark.parametrize("name", sorted(QUADS))
def test_classify_points_quad_same_decisions(name):
    quad = QUADS[name]
    kind = _assert_classify_equal(quad, _test_points(quad))
    # The grids and edge offsets do reach every kind of location.
    assert {"interior", "exterior", "on_edge", "at_vertex"} <= set(kind.tolist())


@pytest.mark.parametrize("name", sorted(QUADS))
def test_many_bitwise_equal_to_single_point(name):
    quad = QUADS[name]
    points = _test_points(quad)
    _assert_many_equal(moment_coords_quad, moment_coords_quad_many, quad, points)
    if quad.is_convex:
        _assert_many_equal(wachspress_coords_quad, wachspress_coords_quad_many, quad, points)


@pytest.mark.parametrize(
    "name, scale",
    [(n, s) for n in ("biunit", "convex", "nonconvex") for s in (1e-3, 1.0, 1e3)]
    + [("nonconvex+1e6", 1.0), ("nonconvex+1e6", 1e3)],
)
def test_edge_snapped_rows_pass_row_check(name, scale):
    # A point up to tol outside an edge snaps onto it and takes the linear
    # interpolation of its projection q, so its linear precision is off by
    # |p - q|, and the row check's bound checks.PRECISION_RTOL * diameter is
    # tol itself.  Snapped from 0.5 or 0.99 tol, every row passes.  Snapped
    # from the full tol there is no margin left: the row reproduces q to
    # rounding, and the check may exceed its bound by that rounding alone.
    quad = QUADS[name]
    quad = Quadrilateral((quad.vertices - quad.vertices[0]) * scale + quad.vertices[0])
    v, c = quad.vertices, quad.vertices.mean(axis=0)
    tol = CLASSIFY_RTOL * quad.diameter
    families = [moment_coords_quad_many] + ([wachspress_coords_quad_many] if quad.is_convex else [])
    for off in (0.5, 0.99, 1.0):
        points = []
        for i in range(4):
            a, e = v[i], v[(i + 1) % 4] - v[i]
            normal = np.array([e[1], -e[0]]) / np.linalg.norm(e)
            for t in np.linspace(0.05, 0.95, 19):
                points.append(a + t * e + off * tol * normal)
        points = np.array(points)
        snapped = classify_points_quad(quad, points)[0] == "on_edge"
        # Near 1e6 the coordinates round by up to 0.15 tol, which moves some
        # points past tol; from the full tol many points classify as exterior.
        assert off == 1.0 or snapped.sum() >= len(points) // 2
        for many in families:
            phi, ok = many(quad, points[snapped])
            assert ok.all()
            if off < 1.0:
                assert cli._row_ok(phi, v, points[snapped], quad.diameter).all(), (many, off)
            recon = phi @ (v - c)
            assert np.abs(recon - (points[snapped] - c)).max(initial=0.0) <= (1 + 1e-5) * tol


SCALES = [1e-5, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e9, 1e14, 1e100]


def _assert_any_scale(single, many, oracle, scale):
    # Both weight rows are taken in units of a power of two next to the
    # diameter, and the closed form's alpha does not depend on their scale.  Scaled by 1e9 the 4 x 4
    # solve failed its residual contract, by 1e14 its pivot floor, and the
    # Wachspress row's diameter**4 overflowed by 1e100.  The oracle runs on
    # the unscaled quad, where its own products cannot overflow.
    base = sampling.random_simple_quad(np.random.default_rng(0))
    quad = Quadrilateral(base.vertices * scale)
    points = _bbox_grid(quad, 9)
    kind, _ = classify_points_quad(quad, points)
    inside = np.flatnonzero(kind != "exterior")
    phi, ok = many(quad, points)
    assert ok[inside].all()
    for s in inside:
        ref = single(quad, points[s])
        assert np.array_equal(phi[s], ref)
        if kind[s] == "interior":
            assert np.abs(ref - oracle(base, points[s] / scale)).max() <= 1e-14


@pytest.mark.parametrize("scale", SCALES)
def test_wachspress_any_scale(scale):
    _assert_any_scale(wachspress_coords_quad, wachspress_coords_quad_many, wachspress_oracle, scale)


@pytest.mark.parametrize("scale", SCALES)
def test_moment_any_scale(scale):
    _assert_any_scale(moment_coords_quad, moment_coords_quad_many, mvc_oracle, scale)


def _assert_oracles_equal(quad, points):
    _assert_many_equal(mvc_oracle, mvc_oracle_many, quad, points)
    _assert_many_equal(cramer_coords_quad, cramer_coords_quad_many, quad, points)
    if quad.is_convex:
        _assert_many_equal(wachspress_oracle, wachspress_oracle_many, quad, points)


@pytest.mark.parametrize("name", sorted(QUADS))
def test_oracle_many_bitwise_equal_to_single_point(name):
    # Interior, edge, vertex and exterior points: the bounding-box grid
    # reaches the exterior, the edge points include the vertices.
    quad = QUADS[name]
    points = np.vstack([_test_points(quad), quad.vertices])
    kind = classify_points_quad(quad, points)[0]
    assert {"interior", "exterior", "on_edge", "at_vertex"} <= set(kind.tolist())
    _assert_oracles_equal(quad, points)


def test_oracle_many_ok_mask():
    quad = QUADS["convex"]
    points = np.array([[0.3, 1.0], [0.5, 0.0], [0.0, 0.0], [5.0, 5.0]])
    for many in (mvc_oracle_many, wachspress_oracle_many):
        phi, ok = many(quad, points)
        assert ok.tolist() == [True, False, False, False]
        assert np.isnan(phi[1:]).all()
    # The Cramer expansion is defined on the closed domain.
    phi, ok = cramer_coords_quad_many(quad, points)
    assert ok.tolist() == [True, True, True, False]
    assert np.abs(phi[2] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-15


def test_wachspress_many_refuses_nonconvex():
    for many in (wachspress_coords_quad_many, wachspress_oracle_many):
        with pytest.raises(NotConvex):
            many(QUADS["nonconvex"], np.zeros((1, 2)))


def test_many_empty_batch():
    phi, ok = moment_coords_quad_many(QUADS["convex"], np.zeros((0, 2)))
    assert phi.shape == (0, 4) and ok.shape == (0,)


@pytest.mark.parametrize("many", [mvc_oracle_many, cramer_coords_quad_many, wachspress_oracle_many])
def test_oracle_many_empty_batch(many):
    phi, ok = many(QUADS["convex"], np.zeros((0, 2)))
    assert phi.shape == (0, 4) and ok.shape == (0,)


NODE_SETS = {
    "uniform-5": NodeSet1D(np.linspace(0.0, 1.0, 5)),
    "graded-3": NodeSet1D([0.0, 1e-4, 1.0]),
    "random-12": sampling.random_nodes(np.random.default_rng(7), 12),
    "random-16+1e6": NodeSet1D(sampling.random_nodes(np.random.default_rng(3), 16).nodes + 1e6),
}


def _interval_test_points(nodes, rng, count=200):
    """count uniform queries, every node, points just inside and outside
    the domain tolerance, far outside, and non-finite queries."""
    xs = nodes.nodes
    tol = 1e-12 * nodes.span
    return np.concatenate(
        [
            rng.uniform(xs[0], xs[-1], count),
            xs,
            (xs[:-1] + xs[1:]) / 2,
            [xs[0] - 0.5 * tol, xs[-1] + 0.5 * tol, xs[0] - 2 * tol, xs[-1] + 2 * tol],
            [xs[0] - nodes.span, xs[-1] + nodes.span, np.nan, np.inf, -np.inf],
        ]
    )


@pytest.mark.parametrize("name", sorted(NODE_SETS))
def test_interval_many_bitwise_equal_to_single_point(name):
    nodes = NODE_SETS[name]
    x = _interval_test_points(nodes, np.random.default_rng(11))
    _assert_many_equal(moment_coords_1d, moment_coords_1d_many, nodes, x)
    _assert_many_equal(hat_oracle, hat_oracle_many, nodes, x)
    # (m, 1) columns, as grid passes them, give the same rows.
    for many in (moment_coords_1d_many, hat_oracle_many):
        phi, ok = many(nodes, x)
        phi_col, ok_col = many(nodes, x[:, None])
        assert np.array_equal(phi, phi_col, equal_nan=True) and np.array_equal(ok, ok_col)


def test_interval_many_ok_mask():
    # Within the domain tolerance the query is clamped; beyond it, or not
    # finite, the single-point functions raise OutOfDomain.
    nodes = NODE_SETS["uniform-5"]
    x = _interval_test_points(nodes, np.random.default_rng(0))[-9:]
    for many in (moment_coords_1d_many, hat_oracle_many):
        phi, ok = many(nodes, x)
        assert ok.tolist() == [True, True] + [False] * 7
        assert phi[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0] and np.isnan(phi[2:]).all()


@pytest.mark.parametrize("many", [moment_coords_1d_many, hat_oracle_many])
def test_interval_many_empty_batch(many):
    phi, ok = many(NODE_SETS["uniform-5"], np.zeros(0))
    assert phi.shape == (0, 5) and ok.shape == (0,)


@pytest.mark.parametrize("name", ["convex", "nonconvex", "nonconvex+1e6"])
def test_batched_fd_equals_scalar_fd(name):
    quad = QUADS[name]
    h = FD_STEP_RTOL * quad.diameter
    points = _test_points(quad)
    points = points[classify_points_quad(quad, points)[0] != "exterior"]
    base, ok = moment_coords_quad_many(quad, points)
    points, base = points[ok], base[ok]

    def inside_many(q):
        return classify_points_quad(quad, q)[0] != "exterior"

    grad, grad_ok = finite_difference_gradient_many(
        lambda q: moment_coords_quad_many(quad, q), inside_many, points, base, h
    )
    raised = 0
    for s, p in enumerate(points):
        try:
            ref = finite_difference_gradient(
                lambda q: moment_coords_quad(quad, q),
                lambda q: classify_point_quad(quad, q).inside,
                p,
                h,
            )
        except DomainError:
            raised += 1
            assert not grad_ok[s]
            continue
        assert grad_ok[s] and np.array_equal(grad[s], ref), p
    assert raised > 0  # the sharp corners have no admissible step


# Geometries the grid tests write to a JSON file: the seeded tilt-0.4 plane
# hexahedron of the hex-grid benchmark, where the wedge frames of one point
# and of a batch once differed in the last bits.
GENERATED = {
    "plane-hex-tilt0.4": lambda: sampling.random_plane_hex(np.random.default_rng(7), tilt=0.4),
}


def _geometry(tmp_path, name):
    """(--geometry argument, geometry) for a builtin or GENERATED name."""
    if name in shapes.BUILTINS:
        return name, shapes.BUILTINS[name]()
    geom = GENERATED[name]()
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"kind": "hex", "vertices": geom.vertices.tolist()}))
    return str(path), geom


def _grid_rows(capsys, tmp_path, geometry, method, resolution, derivatives=False):
    out = tmp_path / "grid.csv"
    argv = ["grid", "--geometry", geometry, "--resolution", str(resolution),
            "--method", method, "--out", str(out)]
    assert main(argv + (["--derivatives"] if derivatives else [])) == 0
    capsys.readouterr()
    with open(out, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.mark.parametrize(
    "geometry,method,fn",
    [
        ("nonconv-quad", "moment", moment_coords_quad),
        ("conv-quad", "wachspress", wachspress_coords_quad),
        ("biunit-square", "moment", moment_coords_quad),
        ("conv-hex", "moment", moment_coords_hex),
        ("plane-hex-tilt0.4", "moment", moment_coords_hex),
    ],
)
def test_grid_rows_equal_single_point_weights(capsys, tmp_path, geometry, method, fn):
    arg, geom = _geometry(tmp_path, geometry)
    dim = geom.vertices.shape[1]
    rows = _grid_rows(capsys, tmp_path, arg, method, 11 if dim == 3 else 31)
    assert rows
    for row in rows:
        p = np.array([float(c) for c in row[:dim]])
        assert row[dim:] == [format(w, ".17g") for w in fn(geom, p)]


def test_grid_derivative_rows_equal_scalar_fd(capsys, tmp_path):
    quad = shapes.nonconvex_quad()
    h = FD_STEP_RTOL * quad.diameter
    rows = _grid_rows(capsys, tmp_path, "nonconv-quad", "moment", 21, derivatives=True)
    blank = 0
    for row in rows:
        p = np.array([float(c) for c in row[:2]])
        assert row[2:6] == [format(w, ".17g") for w in moment_coords_quad(quad, p)]
        try:
            grad = finite_difference_gradient(
                lambda q: moment_coords_quad(quad, q),
                lambda q: classify_point_quad(quad, q).inside,
                p,
                h,
            )
        except DomainError:
            blank += 1
            assert row[6:] == [""] * 8
            continue
        assert row[6:] == [format(g, ".17g") for g in grad.ravel()]
    assert blank > 0


def test_hex_grid_derivative_rows_equal_scalar_fd(capsys, tmp_path):
    hexa = shapes.convex_hex()
    h = FD_STEP_RTOL * hexa.diameter
    rows = _grid_rows(capsys, tmp_path, "conv-hex", "moment", 9, derivatives=True)
    blank = 0
    for row in rows:
        p = np.array([float(c) for c in row[:3]])
        assert row[3:11] == [format(w, ".17g") for w in moment_coords_hex(hexa, p)]
        try:
            grad = finite_difference_gradient(
                lambda q: moment_coords_hex(hexa, q),
                lambda q: face_of_point_hex(hexa, q).inside,
                p,
                h,
            )
        except DomainError:
            # Points on a solid edge with a dihedral angle below 90 degrees
            # have no admissible step along some axis.
            blank += 1
            assert row[11:] == [""] * 24
            continue
        assert row[11:] == [format(g, ".17g") for g in grad.ravel()]
    assert blank > 0


def _assert_interval_grid_rows(capsys, tmp_path, method, fn):
    nodes = [0.0, 0.1, 0.25, 0.7, 1.0]
    path = tmp_path / "iv.json"
    path.write_text(json.dumps({"kind": "interval", "nodes": nodes}))
    rows = _grid_rows(capsys, tmp_path, str(path), method, 17)
    assert len(rows) == 17
    for row in rows:
        ref = fn(NodeSet1D(nodes), float(row[0]))
        assert row[1:] == [format(w, ".17g") for w in ref]


def test_interval_grid_rows_equal_single_point(capsys, tmp_path):
    _assert_interval_grid_rows(capsys, tmp_path, "hat", hat_oracle)


def test_interval_grid_moment_rows_equal_single_point(capsys, tmp_path):
    _assert_interval_grid_rows(capsys, tmp_path, "moment", moment_coords_1d)


def test_every_grid_method_has_a_batch_entry():
    assert {k: sorted(v) for k, v in cli.BATCH_METHODS.items()} == {
        k: sorted(v) for k, v in cli.METHODS.items()
    }


@pytest.mark.parametrize(
    "geometry, method",
    [
        ("conv-quad", "mvc-oracle"),
        ("nonconv-quad", "mvc-oracle"),
        ("conv-quad", "wachspress-oracle"),
        ("biunit-square", "wachspress-oracle"),
        ("nonconv-quad", "cramer"),
        ("biunit-square", "cramer"),
    ],
)
def test_grid_oracle_rows_equal_single_point(capsys, tmp_path, geometry, method):
    # The closed forms are undefined on the boundary: those rows are blank,
    # where the single-point oracle raises.
    geom = shapes.BUILTINS[geometry]()
    fn = cli.METHODS["quad"][method]
    rows = _grid_rows(capsys, tmp_path, geometry, method, 31)
    blank = 0
    for row in rows:
        p = np.array([float(c) for c in row[:2]])
        try:
            ref = fn(geom, p)
        except MomentCoordsError:
            blank += 1
            assert row[2:] == [""] * 4
            continue
        assert row[2:] == [format(w, ".17g") for w in ref]
    assert blank > 0 if method != "cramer" else blank == 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.tuples(st.floats(-1e8, 1e8), st.floats(-1e8, 1e8)),
)
def test_property_batch_equals_single_point(seed, log_scale, offset):
    rng = np.random.default_rng(seed)
    base = sampling.random_simple_quad(rng)
    quad = Quadrilateral(base.vertices * 10.0**log_scale + np.array(offset))
    points = np.vstack([_bbox_grid(quad, 9), _edge_points(quad)[::5]])
    _assert_classify_equal(quad, points)
    _assert_many_equal(moment_coords_quad, moment_coords_quad_many, quad, points)
    if quad.is_convex:
        _assert_many_equal(wachspress_coords_quad, wachspress_coords_quad_many, quad, points)
    _assert_oracles_equal(quad, points)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 16),
    # Up to 1e100: from 1e8 the n x n LU broke its residual contract, from
    # 1e14 its pivot floor.
    log_scale=st.floats(-3.0, 3.0) | st.floats(8.0, 100.0),
    offset=st.floats(-1e6, 1e6),
)
def test_property_interval_batch_equals_single_point(seed, n, log_scale, offset):
    rng = np.random.default_rng(seed)
    nodes = NodeSet1D(sampling.random_nodes(rng, n).nodes * 10.0**log_scale + offset)
    x = _interval_test_points(nodes, rng, count=40)
    _assert_many_equal(moment_coords_1d, moment_coords_1d_many, nodes, x)
    _assert_many_equal(hat_oracle, hat_oracle_many, nodes, x)
    # Only queries outside the domain fail, as for the hat oracle.
    assert np.array_equal(moment_coords_1d_many(nodes, x)[1], hat_oracle_many(nodes, x)[1])


def _hex_test_points(hexa, rng, n=7):
    """A bounding-box grid, face points, edge midpoints and vertices, each
    also moved off its face, edge or vertex by a few tolerances."""
    lo, hi = hexa.vertices.min(axis=0), hexa.vertices.max(axis=0)
    axes = [np.linspace(lo[d], hi[d], n) for d in range(3)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    tol = CLASSIFY_RTOL * hexa.diameter
    v = hexa.vertices
    edges = {tuple(sorted((f[i], f[(i + 1) % 4]))) for f in Hexahedron.FACES for i in range(4)}
    boundary = [v, np.array([(v[i] + v[j]) / 2 for i, j in sorted(edges)])]
    for f in range(6):
        boundary.append(sampling.face_points_hex(hexa, f, 2, rng, margin=0.0))
    boundary = np.vstack(boundary)
    moved = [boundary + off * tol * rng.normal(size=boundary.shape) / np.sqrt(3)
             for off in (0.5, 0.99, 1.01, 3.9)]
    return np.vstack([grid, boundary] + moved)


def _assert_hex_classify_equal(hexa, points):
    kind, index = face_of_points_hex(hexa, points)
    # The containing-face flags, which the frame rule takes, against faces.
    on = _locate_hex(hexa, points[:, 0], points[:, 1], points[:, 2])[2]
    for s, p in enumerate(points):
        loc = face_of_point_hex(hexa, p)
        assert kind[s] == loc.kind, (p, kind[s], loc)
        assert index[s] == (-1 if loc.index is None else loc.index), (p, index[s], loc)
        assert tuple(np.flatnonzero(on[:, s]).tolist()) == loc.faces, (p, on[:, s], loc)
    return kind


def _hex_tolerance_points(hexa):
    """Face points, edge midpoints and vertices moved by (1 +- 1e-6) tol
    along each containing face's normal and along their sum, both ways."""
    v = hexa.vertices
    tol = CLASSIFY_RTOL * hexa.diameter
    normals = np.array([n for n, _ in hexa.face_planes])
    def faces_with(*corners):
        return [f for f, idx in enumerate(Hexahedron.FACES) if set(corners) <= set(idx)]

    edges = {tuple(sorted((f[i], f[(i + 1) % 4]))) for f in Hexahedron.FACES for i in range(4)}
    sites = [(v[list(idx)].mean(axis=0), [f]) for f, idx in enumerate(Hexahedron.FACES)]
    sites += [((v[a] + v[b]) / 2, faces_with(a, b)) for a, b in sorted(edges)]
    sites += [(v[i], faces_with(i)) for i in range(8)]
    out = []
    for site, faces in sites:
        directions = [normals[f] for f in faces] + [normals[faces].sum(axis=0)]
        for d in directions:
            d = d / np.linalg.norm(d)
            for off in (1 - 1e-6, 1 + 1e-6, -1 + 1e-6, -1 - 1e-6):
                out.append(site + off * tol * d)
    return np.array(out)


@pytest.mark.parametrize("make", [shapes.convex_hex, shapes.cube], ids=["conv-hex", "cube"])
def test_hex_batch_equals_single_point(make):
    hexa = make()
    points = np.vstack([_hex_test_points(hexa, np.random.default_rng(5)), _hex_tolerance_points(hexa)])
    kind = _assert_hex_classify_equal(hexa, points)
    assert {"interior", "exterior", "on_face", "at_vertex"} <= set(kind.tolist())
    _assert_many_equal(moment_coords_hex, moment_coords_hex_many, hexa, points)


def test_hex_many_empty_batch():
    phi, ok = moment_coords_hex_many(shapes.convex_hex(), np.zeros((0, 3)))
    assert phi.shape == (0, 8) and ok.shape == (0,)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    plane=st.booleans(),
    tilt=st.floats(0.0, 0.4),
    log_scale=st.one_of(st.floats(-3.0, 3.0), st.floats(6.0, 100.0)),
    offset=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
)
def test_property_hex_batch_equals_single_point(seed, plane, tilt, log_scale, offset):
    rng = np.random.default_rng(seed)
    if plane:
        base = sampling.random_plane_hex(rng, tilt=tilt)
    else:
        base = sampling.random_affine_cube_hex(rng)
    hexa = Hexahedron(base.vertices * 10.0**log_scale + np.array(offset))
    points = _hex_test_points(hexa, rng)
    kind = _assert_hex_classify_equal(hexa, points)
    _assert_many_equal(moment_coords_hex, moment_coords_hex_many, hexa, points)
    # _assert_many_equal alone would also accept a batch-wide residual
    # failure.  Every interior point evaluates; of the others, only exterior
    # points and boundary points moved a few tolerances off a corner fail
    # (those where the single point raises FrameNotFound, checked above).
    assert moment_coords_hex_many(hexa, points)[1][kind == "interior"].all()


# Every batch method on a geometry where it is defined, with points that
# reach every location kind of that geometry.
COMPOSITION_CASES = [
    (kind, method, name)
    for kind, names in [
        ("quad", ["conv-quad", "nonconv-quad"]),
        ("hex", ["conv-hex"]),
        ("interval", ["random-12"]),
    ]
    for method in sorted(cli.BATCH_METHODS[kind])
    for name in names
    if not (method.startswith("wachspress") and name == "nonconv-quad")
]


def _composition_input(name):
    if name == "conv-hex":
        hexa = shapes.convex_hex()
        points = _hex_test_points(hexa, np.random.default_rng(5), n=4)
        kinds = set(face_of_points_hex(hexa, points)[0].tolist())
        assert kinds == {"interior", "exterior", "on_face", "at_vertex"}
        return hexa, points
    if name == "random-12":
        nodes = NODE_SETS[name]
        return nodes, _interval_test_points(nodes, np.random.default_rng(5), count=60)
    quad = shapes.BUILTINS[name]()
    points = np.vstack([_bbox_grid(quad, 9), _edge_points(quad)[::2]])
    kinds = set(classify_points_quad(quad, points)[0].tolist())
    assert kinds == {"interior", "exterior", "on_edge", "at_vertex"}
    return quad, points


@pytest.mark.parametrize("kind, method, name", COMPOSITION_CASES)
def test_batch_rows_independent_of_batch_composition(kind, method, name):
    # A row must not depend on the other points of its batch: the batch
    # functions share their formulas with the single-point functions, so
    # this is what keeps the batch-vs-single tests comparing two paths.
    geom, points = _composition_input(name)
    many = cli.BATCH_METHODS[kind][method]
    phi, ok = many(geom, points)
    assert ok.any() and not ok.all()
    rev_phi, rev_ok = many(geom, points[::-1])
    layouts = {"reversed": (rev_phi[::-1], rev_ok[::-1])}
    for size in (1, 7):
        parts = [many(geom, points[s : s + size]) for s in range(0, len(points), size)]
        layouts[f"stacks of {size}"] = (
            np.concatenate([part[0] for part in parts]),
            np.concatenate([part[1] for part in parts]),
        )
    for layout, (other_phi, other_ok) in layouts.items():
        assert np.array_equal(other_ok, ok), layout
        assert other_phi.tobytes() == phi.tobytes(), layout
