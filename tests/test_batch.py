"""The batch API against the single-point API it must reproduce bit for bit."""

import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcoords import checks, cli, coords1d, coords2d, coords3d, csvfmt, geometry, sampling, shapes
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
    wachspress_gradient_quad_many,
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
from momentcoords.errors import (
    DomainError,
    FrameNotFound,
    MomentCoordsError,
    NotConvex,
    OnBoundary,
    OutOfDomain,
    OutsideDomain,
    ResidualExceeded,
    SingularMatrix,
)
from momentcoords.geometry import (
    BOUNDARY,
    CLASSIFY_RTOL,
    EXTERIOR,
    FRAME,
    HEX_EDGES,
    HEX_FACES,
    HEX_KINDS,
    LOC_EXTERIOR,
    LOC_FACET,
    LOC_INTERIOR,
    LOC_VERTEX,
    OK,
    QUAD_KINDS,
    RESIDUAL,
    SINGULAR,
    BatchInfo,
    Hexahedron,
    NodeSet1D,
    Quadrilateral,
    QuadStack,
    _locate_hex,
    _locate_quad,
    classify_point_quad,
    face_of_point_hex,
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
    code, index, t, _ = _locate_quad(quad, points[:, 0], points[:, 1])
    kind = np.array(QUAD_KINDS)[code]
    # The edge parameter, which the edge weights take, is compared bit for
    # bit; the stack has NaN where one point has None.
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
    phi, ok, _ = many(geom, points)
    for s, (p, ref) in enumerate(zip(points, refs)):
        if ref is None:
            assert not ok[s] and np.isnan(phi[s]).all()
        else:
            assert ok[s] and np.array_equal(phi[s], ref), (p, phi[s], ref)


@pytest.mark.parametrize("name", sorted(QUADS))
def test_locate_quad_stack_same_decisions(name):
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
        snapped = _locate_quad(quad, *points.T)[0] == LOC_FACET
        # Near 1e6 the coordinates round by up to 0.15 tol, which moves some
        # points past tol; from the full tol many points classify as exterior.
        assert off == 1.0 or snapped.sum() >= len(points) // 2
        for many in families:
            phi, ok, _ = many(quad, points[snapped])
            assert ok.all()
            if off < 1.0:
                assert checks.row_ok(phi, v, points[snapped], quad.diameter).all(), (many, off)
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
    code = _locate_quad(quad, *points.T)[0]
    inside = np.flatnonzero(code != LOC_EXTERIOR)
    phi, ok, _ = many(quad, points)
    assert ok[inside].all()
    for s in inside:
        ref = single(quad, points[s])
        assert np.array_equal(phi[s], ref)
        if code[s] == LOC_INTERIOR:
            assert np.abs(ref - oracle(base, points[s] / scale)).max() <= 1e-14


@pytest.mark.parametrize("scale", SCALES)
def test_wachspress_any_scale(scale):
    _assert_any_scale(wachspress_coords_quad, wachspress_coords_quad_many, wachspress_oracle, scale)


@pytest.mark.parametrize("scale", SCALES)
def test_moment_any_scale(scale):
    _assert_any_scale(moment_coords_quad, moment_coords_quad_many, mvc_oracle, scale)


@pytest.mark.parametrize("scale", SCALES)
def test_wachspress_oracle_any_scale(scale):
    # The area quotient takes its areas in units of a power of two next to
    # the diameter; by 1e100 the product of two edge areas overflowed and
    # every weight was NaN.
    base = shapes.convex_quad()
    quad = Quadrilateral(base.vertices * scale)
    points = _bbox_grid(quad, 9)
    _assert_many_equal(wachspress_oracle, wachspress_oracle_many, quad, points)
    phi, ok, _ = wachspress_oracle_many(quad, points)
    interior = _locate_quad(quad, *points.T)[0] == LOC_INTERIOR
    assert interior.any() and ok[interior].all()
    for s in np.flatnonzero(interior):
        assert np.abs(phi[s] - wachspress_oracle(base, points[s] / scale)).max() <= 1e-14


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
    code = _locate_quad(quad, *points.T)[0]
    assert {LOC_INTERIOR, LOC_EXTERIOR, LOC_FACET, LOC_VERTEX} <= set(code.tolist())
    _assert_oracles_equal(quad, points)


def test_oracle_many_ok_mask():
    quad = QUADS["convex"]
    points = np.array([[0.3, 1.0], [0.5, 0.0], [0.0, 0.0], [5.0, 5.0]])
    for many in (mvc_oracle_many, wachspress_oracle_many):
        phi, ok, _ = many(quad, points)
        assert ok.tolist() == [True, False, False, False]
        assert np.isnan(phi[1:]).all()
    # The Cramer expansion is defined on the closed domain.
    phi, ok, _ = cramer_coords_quad_many(quad, points)
    assert ok.tolist() == [True, True, True, False]
    assert np.abs(phi[2] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-15


def test_wachspress_many_refuses_nonconvex():
    # The batch, single-point and gradient functions all refuse with
    # coords2d.require_convex's one message.
    quad, points = QUADS["nonconvex"], np.zeros((1, 2))
    info = moment_coords_quad_many(quad, points)[2]
    calls = [
        (wachspress_coords_quad_many, points),
        (wachspress_oracle_many, points),
        (wachspress_coords_quad, points[0]),
        (wachspress_oracle, points[0]),
        (lambda q, p: wachspress_gradient_quad_many(q, p, info), points),
    ]
    for fn, arg in calls:
        with pytest.raises(NotConvex) as err:
            fn(quad, arg)
        assert str(err.value) == "Wachspress coordinates require a convex quadrilateral"


def test_many_empty_batch():
    phi, ok, _ = moment_coords_quad_many(QUADS["convex"], np.zeros((0, 2)))
    assert phi.shape == (0, 4) and ok.shape == (0,)


@pytest.mark.parametrize("many", [mvc_oracle_many, cramer_coords_quad_many, wachspress_oracle_many])
def test_oracle_many_empty_batch(many):
    phi, ok, _ = many(QUADS["convex"], np.zeros((0, 2)))
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
        phi, ok, _ = many(nodes, x)
        phi_col, ok_col, _ = many(nodes, x[:, None])
        assert np.array_equal(phi, phi_col, equal_nan=True) and np.array_equal(ok, ok_col)


def test_interval_many_ok_mask():
    # Within the domain tolerance the query is clamped; beyond it, or not
    # finite, the single-point functions raise OutOfDomain.
    nodes = NODE_SETS["uniform-5"]
    x = _interval_test_points(nodes, np.random.default_rng(0))[-9:]
    for many in (moment_coords_1d_many, hat_oracle_many):
        phi, ok, _ = many(nodes, x)
        assert ok.tolist() == [True, True] + [False] * 7
        assert phi[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0] and np.isnan(phi[2:]).all()


@pytest.mark.parametrize("many", [moment_coords_1d_many, hat_oracle_many])
def test_interval_many_empty_batch(many):
    phi, ok, _ = many(NODE_SETS["uniform-5"], np.zeros(0))
    assert phi.shape == (0, 5) and ok.shape == (0,)


@pytest.mark.parametrize("name", ["convex", "nonconvex", "nonconvex+1e6"])
def test_batched_fd_equals_scalar_fd(name):
    quad = QUADS[name]
    h = FD_STEP_RTOL * quad.diameter
    points = _test_points(quad)
    points = points[_locate_quad(quad, *points.T)[0] != LOC_EXTERIOR]
    base, ok, _ = moment_coords_quad_many(quad, points)
    points, base = points[ok], base[ok]
    grad, grad_ok, no_step = finite_difference_gradient_many(
        lambda q: moment_coords_quad_many(quad, q), points, base, h
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
            assert not grad_ok[s] and no_step[s]
            continue
        assert grad_ok[s] and not no_step[s] and np.array_equal(grad[s], ref), p
    assert raised > 0  # the sharp corners have no admissible step


# Geometries the grid tests write to a JSON file: the seeded tilt-0.4 plane
# hexahedron of the hex-grid benchmark, where the wedge frames of one point
# and of a batch once differed in the last bits; the nonconvex quad far from
# the origin; and a 7-node interval.
GENERATED = {
    "plane-hex-tilt0.4": lambda: sampling.random_plane_hex(np.random.default_rng(7), tilt=0.4),
    "nonconvex+1e6": lambda: QUADS["nonconvex+1e6"],
    "interval-7": lambda: NodeSet1D([0.0, 0.13, 0.4, 0.55, 0.9, 1.0, 1.7]),
    "square-1e100": lambda: Quadrilateral([[0.0, 0.0], [1e100, 0.0], [1e100, 1e100], [0.0, 1e100]]),
}


def _geometry(tmp_path, name):
    """(--geometry argument, geometry) for a builtin or GENERATED name."""
    if name in shapes.BUILTINS:
        return name, shapes.BUILTINS[name]()
    geom = GENERATED[name]()
    if isinstance(geom, NodeSet1D):
        data = {"kind": "interval", "nodes": geom.nodes.tolist()}
    else:
        kind = "quad" if isinstance(geom, Quadrilateral) else "hex"
        data = {"kind": kind, "vertices": geom.vertices.tolist()}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
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
        ("interval-7", "moment", moment_coords_1d),
    ],
)
def test_grid_rows_equal_single_point_weights(capsys, tmp_path, geometry, method, fn):
    arg, geom = _geometry(tmp_path, geometry)
    if isinstance(geom, NodeSet1D):
        # Every point of an interval's grid is inside, so its point column
        # is the whole axis; the single-point function takes a float.
        rows = _grid_rows(capsys, tmp_path, arg, method, 31)
        axis = np.linspace(geom.nodes[0], geom.nodes[-1], 31)
        assert [row[0] for row in rows] == [format(x, ".17g") for x in axis]
        for row in rows:
            assert row[1:] == [format(w, ".17g") for w in fn(geom, float(row[0]))]
        return
    dim = geom.vertices.shape[1]
    rows = _grid_rows(capsys, tmp_path, arg, method, 11 if dim == 3 else 31)
    assert rows
    for row in rows:
        p = np.array([float(c) for c in row[:dim]])
        assert row[dim:] == [format(w, ".17g") for w in fn(geom, p)]


def test_grid_derivative_rows_equal_scalar_fd(capsys, tmp_path):
    # The quadrilateral grid writes closed-form gradients: at interior rows
    # they match the scalar finite differences to within the differences'
    # own error (at most 1.1e-10 here, step 1e-6 * diameter), and no row is
    # blank, the sharp corners included, where no step is admissible.
    quad = shapes.nonconvex_quad()
    h = FD_STEP_RTOL * quad.diameter
    rows = _grid_rows(capsys, tmp_path, "nonconv-quad", "moment", 21, derivatives=True)
    interior = no_step = 0
    for row in rows:
        p = np.array([float(c) for c in row[:2]])
        assert row[2:6] == [format(w, ".17g") for w in moment_coords_quad(quad, p)]
        assert "" not in row[6:]
        grad = np.array([float(g) for g in row[6:]]).reshape(4, 2)
        try:
            ref = finite_difference_gradient(
                lambda q: moment_coords_quad(quad, q),
                lambda q: classify_point_quad(quad, q).inside,
                p,
                h,
            )
        except DomainError:
            no_step += 1
            continue
        if classify_point_quad(quad, p).kind == "interior":
            interior += 1
            assert np.abs(grad - ref).max() <= 1e-9, p
    assert interior > 0 and no_step > 0


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


def test_hex_grid_derivatives_translation_invariant(capsys, tmp_path):
    # The finite differences divide by the step their rounded offsets span.
    # Moved by (1e6, -7e5, 3e5), where p +- h rounds to the ulp of p (1.2e-10
    # against h = 4.1e-6), conv-hex writes the same weights and derivative
    # cells within 1e-9 of the unmoved ones (1.2e-10 measured; 3.8e-6 when
    # they divided by the nominal 2h).
    v = shapes.convex_hex().vertices
    path = tmp_path / "moved.json"
    path.write_text(json.dumps({"kind": "hex", "vertices": (v + [1e6, -7e5, 3e5]).tolist()}))
    near = _grid_rows(capsys, tmp_path, "conv-hex", "moment", 9, derivatives=True)
    far = _grid_rows(capsys, tmp_path, str(path), "moment", 9, derivatives=True)
    assert len(near) == len(far)
    compared = 0
    for a, b in zip(near, far):
        assert a[3:11] == b[3:11]
        assert (a[11] == "") == (b[11] == "")
        if a[11] != "":
            gap = np.abs(np.array(a[11:], dtype=float) - np.array(b[11:], dtype=float)).max()
            assert gap <= 1e-9, (a[:3], gap)
            compared += 1
    assert compared > 0


def _identity_field(points):
    """The weights (x, y) at each row of points: a linear field whose
    gradient is the identity, with every point evaluable."""
    points = np.asarray(points, dtype=float)
    cause = np.zeros(len(points), dtype=np.int8)
    return points.copy(), np.ones(len(points), dtype=bool), BatchInfo(cause, cause, cause)


@pytest.mark.parametrize("x", [0.3, 3e6, -7e9])
def test_fd_divides_by_the_realized_step(x):
    # A central difference of a linear field over the step its offsets
    # span is exact, however p +- h rounds; over the nominal 2h it was off
    # by up to an ulp of p over h.  Batch and single point agree bitwise.
    points = np.array([[x, 0.25], [x, 1.0 - x]])
    base = points.copy()
    grad, ok, no_step = finite_difference_gradient_many(_identity_field, points, base, 1e-6)
    assert ok.all() and not no_step.any()
    for p, g in zip(points, grad):
        single = finite_difference_gradient(lambda q: q.copy(), lambda q: True, p, 1e-6)
        assert np.array_equal(single, g)
        assert np.array_equal(g, np.eye(2))


def test_fd_offset_rounding_onto_its_point_is_not_admissible():
    # At 1e17 (ulp 16) a step of 1 rounds back onto the point: it spans no
    # step, so the axis has no admissible one.
    points = np.array([[1e17, 0.0]])
    with pytest.raises(DomainError, match="axis 0"):
        finite_difference_gradient(lambda q: q.copy(), lambda q: True, points[0], 1.0)
    grad, ok, no_step = finite_difference_gradient_many(_identity_field, points, points.copy(), 1.0)
    assert no_step.tolist() == [True] and ok.tolist() == [False] and np.isnan(grad).all()


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
    boundary = [v, np.array([(v[i] + v[j]) / 2 for i, j in HEX_EDGES])]
    for f in range(6):
        boundary.append(sampling.face_points_hex(hexa, f, 2, rng, margin=0.0))
    boundary = np.vstack(boundary)
    moved = [boundary + off * tol * rng.normal(size=boundary.shape) / np.sqrt(3)
             for off in (0.5, 0.99, 1.01, 3.9)]
    return np.vstack([grid, boundary] + moved)


def _assert_hex_classify_equal(hexa, points):
    code, index, on = _locate_hex(hexa, points[:, 0], points[:, 1], points[:, 2])
    kind = np.array(HEX_KINDS)[code]
    # The containing-face flags, which the frame rule takes, against faces.
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
    normals = np.array(hexa.face_normals)
    def faces_with(*corners):
        return [f for f, idx in enumerate(HEX_FACES) if set(corners) <= set(idx)]

    sites = [(v[list(idx)].mean(axis=0), [f]) for f, idx in enumerate(HEX_FACES)]
    sites += [((v[a] + v[b]) / 2, faces_with(a, b)) for a, b in HEX_EDGES]
    sites += [(v[i], faces_with(i)) for i in range(8)]
    out = []
    for site, faces in sites:
        directions = [normals[f] for f in faces] + [normals[faces].sum(axis=0)]
        for d in directions:
            d = d / np.linalg.norm(d)
            for off in (1 - 1e-6, 1 + 1e-6, -1 + 1e-6, -1 - 1e-6):
                out.append(site + off * tol * d)
    return np.array(out)


def _scaled_convex_hex(scale):
    return lambda: Hexahedron(shapes.convex_hex().vertices * scale)


# conv-hex at sizes 1e6 apart: the tolerance band is the diameter's.
@pytest.mark.parametrize(
    "make",
    [shapes.convex_hex, shapes.cube, _scaled_convex_hex(1e-3), _scaled_convex_hex(1e3)],
    ids=["conv-hex", "cube", "conv-hex*1e-3", "conv-hex*1e3"],
)
def test_hex_batch_equals_single_point(make):
    hexa = make()
    # Points whose squared distances overflow, and points not finite: the
    # stack locates them exterior quietly, and each one alone raises
    # OutsideDomain.
    far = [[1e200] * 3, [np.nan] * 3, [np.inf] * 3, [-np.inf] * 3]
    points = np.vstack(
        [_hex_test_points(hexa, np.random.default_rng(5)), _hex_tolerance_points(hexa), far]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kind = _assert_hex_classify_equal(hexa, points)
        assert {"interior", "exterior", "on_face", "at_vertex"} <= set(kind.tolist())
        assert kind[-len(far) :].tolist() == ["exterior"] * len(far)
        _assert_many_equal(moment_coords_hex, moment_coords_hex_many, hexa, points)


def test_stack_rows_take_their_own_elements_tolerance():
    # The tolerance band of a QuadStack row is its own element's: two
    # elements whose diameters differ by 1e6, with points (1 +- 1e-6) tol
    # off each edge and around each vertex, where the location turns on the
    # last bits of the tolerance.
    base = shapes.nonconvex_quad().vertices
    quads = [Quadrilateral(base * 1e-3), Quadrilateral(base * 1e3 + [5e3, -2e3])]
    parts = [_tolerance_points(q) for q in quads]
    element = np.repeat([0, 1], [len(part) for part in parts])
    points = np.vstack(parts)
    code, index, t, _ = _locate_quad(QuadStack(quads, element), points[:, 0], points[:, 1])
    assert set(code.tolist()) == {LOC_EXTERIOR, LOC_INTERIOR, LOC_FACET, LOC_VERTEX}
    for s, (e, p) in enumerate(zip(element.tolist(), points)):
        one_code, one_index, one_t, _ = _locate_quad(quads[e], *p.tolist())
        assert code[s] == one_code, (e, p)
        assert index[s] == (-1 if one_index is None else one_index), (e, p)
        ref = np.nan if one_t is None else one_t
        assert np.float64(t[s]).tobytes() == np.float64(ref).tobytes(), (e, p)


# A fixed corpus of seeded hexahedra, tilted plane hexahedra and affine cube
# images, with interior points and points on every face.
HEX_CORPUS = [(make, seed) for make in ("plane", "affine") for seed in range(24)]


@pytest.mark.parametrize("make, seed", HEX_CORPUS)
def test_hex_corpus_single_point_bitwise_equal_to_batch(make, seed):
    rng = np.random.default_rng(seed)
    if make == "plane":
        hexa = sampling.random_plane_hex(rng, tilt=0.4)
    else:
        hexa = sampling.random_affine_cube_hex(rng)
    faces = [sampling.face_points_hex(hexa, f, 5, rng) for f in range(6)]
    points = np.vstack([sampling.interior_points_hex(hexa, 40, rng)] + faces)
    phi, ok, w, _ = moment_coords_hex_many(hexa, points, return_frame_coords=True)
    assert ok.all()
    located = set()
    for s, p in enumerate(points):
        ref, frame = moment_coords_hex(hexa, p, return_frame=True)
        located.add(face_of_point_hex(hexa, p).kind)
        # Bytes, so that a zero's sign counts as well.
        assert phi[s].tobytes() == ref.tobytes(), (p, phi[s], ref)
        assert moment_coords_hex(hexa, p).tobytes() == ref.tobytes()
        assert frame.coords(hexa.vertices).tobytes() == w[s].tobytes(), p
    assert located == {"interior", "on_face"}
    # Every point located inside or on the boundary evaluates, also those a
    # few tolerances off a vertex, an edge or a face.
    near = np.vstack([_hex_test_points(hexa, rng), _hex_tolerance_points(hexa)])
    kind = _assert_hex_classify_equal(hexa, near)
    _assert_many_equal(moment_coords_hex, moment_coords_hex_many, hexa, near)
    assert moment_coords_hex_many(hexa, near)[1][kind != "exterior"].all()


def test_hex_many_empty_batch():
    phi, ok, _ = moment_coords_hex_many(shapes.convex_hex(), np.zeros((0, 3)))
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
    # failure.  Every point that is not exterior evaluates.
    assert moment_coords_hex_many(hexa, points)[1][kind != "exterior"].all()


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
        codes = set(_locate_hex(hexa, *points.T)[0].tolist())
        assert codes == {LOC_INTERIOR, LOC_EXTERIOR, LOC_FACET, LOC_VERTEX}
        return hexa, points
    if name == "random-12":
        nodes = NODE_SETS[name]
        return nodes, _interval_test_points(nodes, np.random.default_rng(5), count=60)
    quad = shapes.BUILTINS[name]()
    points = np.vstack([_bbox_grid(quad, 9), _edge_points(quad)[::2]])
    codes = set(_locate_quad(quad, *points.T)[0].tolist())
    assert codes == {LOC_INTERIOR, LOC_EXTERIOR, LOC_FACET, LOC_VERTEX}
    return quad, points


@pytest.mark.parametrize("kind, method, name", COMPOSITION_CASES)
def test_batch_rows_independent_of_batch_composition(kind, method, name):
    # A row must not depend on the other points of its batch: the batch
    # functions share their formulas with the single-point functions, so
    # this is what keeps the batch-vs-single tests comparing two paths.
    geom, points = _composition_input(name)
    many = cli.BATCH_METHODS[kind][method]
    phi, ok, _ = many(geom, points)
    assert ok.any() and not ok.all()
    rev_phi, rev_ok, _ = many(geom, points[::-1])
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
    if kind == "quad" and method in STACK_METHODS:
        # Rows of mixed elements: geom's points shuffled among those of the
        # other elements of a QuadStack.
        quads = [geom, *_stack_elements(convex=method == "wachspress")]
        parts = [points] + [_stack_points(q) for q in quads[1:]]
        element = np.repeat(np.arange(len(quads)), [len(part) for part in parts])
        order = np.random.default_rng(3).permutation(len(element))
        info = _assert_stack_rows(method, quads, element[order], np.vstack(parts)[order])
        assert set(info.code.tolist()) == {LOC_INTERIOR, LOC_EXTERIOR, LOC_FACET, LOC_VERTEX}


# The batch methods that take a QuadStack, and the similarity images of
# biunit-square the quadrilateral check suite draws: their kernel indices k
# differ, 0 for biunit-square itself.
STACK_METHODS = {
    "moment": (moment_coords_quad_many, moment_coords_quad),
    "wachspress": (wachspress_coords_quad_many, wachspress_coords_quad),
}


def _similarity_images(count, seed):
    rng = np.random.default_rng(seed)
    base = shapes.biunit_square().vertices
    images = []
    for _ in range(count):
        a, b = checks._similarity_map(rng)
        images.append(Quadrilateral(base @ a.T + b))
    return images


def _stack_elements(convex):
    """biunit-square (horizontal edges), a quadrilateral about 1e6 away
    (nonconv-quad, or conv-quad for convex) and five similarity images of
    biunit-square whose kernel indices differ."""
    far = shapes.convex_quad() if convex else shapes.nonconvex_quad()
    quads = [shapes.biunit_square(), _offset(far, [1e6, -0.4e6]), *_similarity_images(5, 7)]
    assert len({q.reproducing_kernel[1] for q in quads}) >= 3
    return quads


def _stack_points(quad):
    """Interior, exterior, edge and vertex points of quad."""
    return np.vstack([_bbox_grid(quad, 9), _edge_points(quad)[::2]])


def _assert_stack_rows(method, quads, element, points):
    """Each row of the QuadStack batch call, with its info record, bitwise
    equal to its own element's batch call and to the single-point function;
    returns the record."""
    many, single = STACK_METHODS[method]
    refs = []
    for e, p in zip(element.tolist(), points):
        try:
            refs.append(single(quads[e], p))
        except MomentCoordsError:
            refs.append(None)
    phi, ok, info = many(QuadStack(quads, element), points)
    for e, quad in enumerate(quads):
        rows = np.flatnonzero(element == e)
        own_phi, own_ok, own_info = many(quad, points[rows])
        assert own_phi.tobytes() == phi[rows].tobytes(), (method, e)
        assert np.array_equal(own_ok, ok[rows]), (method, e)
        for field in ("code", "index", "cause"):
            assert np.array_equal(getattr(own_info, field), getattr(info, field)[rows]), (e, field)
    for s, ref in enumerate(refs):
        if ref is None:
            assert not ok[s] and np.isnan(phi[s]).all(), (method, s)
        else:
            assert ok[s] and ref.tobytes() == phi[s].tobytes(), (method, s)
    return info


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 4),
    convex=st.booleans(),
    log_scale=st.floats(-3.0, 3.0),
    offset=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
)
def test_property_stack_rows_equal_own_element(seed, count, convex, log_scale, offset):
    # Random simple quadrilaterals (all convex when convex is drawn), each
    # row of a stack of them on its own element.
    rng = np.random.default_rng(seed)
    quads = [
        Quadrilateral(
            sampling.random_simple_quad(rng, convex=convex or None).vertices * 10.0**log_scale
            + np.array(offset)
        )
        for _ in range(count)
    ]
    parts = [np.vstack([_bbox_grid(q, 7), _edge_points(q)[::7]]) for q in quads]
    element = np.repeat(np.arange(count), [len(part) for part in parts])
    order = rng.permutation(len(element))
    element, points = element[order], np.vstack(parts)[order]
    _assert_stack_rows("moment", quads, element, points)
    if all(q.is_convex for q in quads):
        _assert_stack_rows("wachspress", quads, element, points)
    else:
        with pytest.raises(NotConvex):
            wachspress_coords_quad_many(QuadStack(quads, element), points)


@pytest.mark.parametrize(
    "name, derivatives, chunk",
    [
        ("conv-hex", False, 7),
        ("plane-hex-tilt0.4", False, 7),
        ("conv-hex", True, 7),
        ("conv-hex", True, 42),
        ("conv-hex", False, 1),
        ("plane-hex-tilt0.4", False, 1),
        ("nonconv-quad", True, 7),
        ("nonconv-quad", True, 28),
        ("nonconv-quad", True, 1),
        ("conv-quad", True, 7),
        ("nonconvex+1e6", False, 7),
        ("nonconvex+1e6", False, 1),
        ("interval-7", True, 7),
        ("interval-7", True, 1),
    ],
)
def test_grid_csv_independent_of_chunk_size(capsys, tmp_path, monkeypatch, name, derivatives, chunk):
    # A hexahedron at resolution 8 has 8**3 = 512 grid points: one chunk at
    # the default BATCH_CHUNK, 73 chunks of 7 and a last chunk of one point,
    # or 512 chunks of one, in which every solved point is a stack of one
    # system, entries of shape (1,).  With finite-difference derivatives each
    # of a chunk's 2 * dim offset stacks is one more call of at most the
    # chunk's size; 74 chunks of 7 of the hexahedron include 22 with no row
    # to take derivatives at.
    # The quads (23**2 points) and the interval (41 points) pin the point
    # columns grid formats per axis and joins per chunk: two axes, and one
    # with no outer part.  The quads' closed-form gradients take no offsets,
    # so their chunks stay whole; conv-quad runs the Wachspress family, the
    # other geometries the moment family.
    arg, geom = _geometry(tmp_path, name)
    resolution = {Quadrilateral: 23, NodeSet1D: 41}.get(type(geom), 8)
    method = "wachspress" if name == "conv-quad" else "moment"

    def grid_bytes(filename):
        out = tmp_path / filename
        argv = ["grid", "--geometry", arg, "--resolution", str(resolution),
                "--method", method, "--out", str(out)]
        assert main(argv + (["--derivatives"] if derivatives else [])) == 0
        capsys.readouterr()
        return out.read_bytes()

    default = grid_bytes("default.csv")
    monkeypatch.setattr(geometry, "BATCH_CHUNK", chunk)
    assert grid_bytes(f"chunk-{chunk}.csv") == default


def _locations(geom, points):
    """(code, index) of each point by the element's locator, or for an
    interval by coords1d._locate's ok and k."""
    if isinstance(geom, Quadrilateral):
        return _locate_quad(geom, *points.T)[:2]
    if isinstance(geom, Hexahedron):
        return _locate_hex(geom, *points.T)[:2]
    k, _, inside = coords1d._locate(geom, np.asarray(points, dtype=float).reshape(-1))
    return np.where(inside, LOC_INTERIOR, LOC_EXTERIOR), k


# The exception the single-point function raises at a row of each cause.
CAUSE_ERRORS = {
    EXTERIOR: (OutsideDomain, OutOfDomain),
    BOUNDARY: OnBoundary,
    FRAME: FrameNotFound,
    SINGULAR: SingularMatrix,
    RESIDUAL: ResidualExceeded,
}


def _assert_record(kind, method, geom, points):
    """The info record of a batch method against the locator and the
    single-point function."""
    many = cli.BATCH_METHODS[kind][method]
    _, ok, info = many(geom, points)
    loc_code, loc_index = _locations(geom, points)
    assert np.array_equal(info.code, loc_code)
    assert np.array_equal(info.index, loc_index)
    assert info.cause.dtype == np.int8 and info.cause.shape == ok.shape
    assert np.array_equal(info.cause == OK, ok)
    assert np.array_equal(info.cause == EXTERIOR, loc_code == LOC_EXTERIOR)
    single = cli.METHODS[kind][method]
    for p, cause in zip(points, info.cause.tolist()):
        if cause != OK:
            with pytest.raises(CAUSE_ERRORS[cause]):
                single(geom, p)
    return info


@pytest.mark.parametrize("kind, method, name", COMPOSITION_CASES)
def test_batch_info_record(kind, method, name):
    geom, points = _composition_input(name)
    info = _assert_record(kind, method, geom, points)
    causes = set(info.cause.tolist())
    assert {OK, EXTERIOR} <= causes
    if method in ("mvc-oracle", "wachspress-oracle"):
        assert BOUNDARY in causes  # the stacks hold edge and vertex points
    empty = _assert_record(kind, method, geom, points[:0])
    assert empty.code.shape == empty.index.shape == empty.cause.shape == (0,)


def test_hex_info_names_frame_failures():
    # A small hexahedron far from the origin, on which the frame misses the
    # sign pattern at a few interior points (FrameNotFound, blank grid rows).
    base = sampling.random_affine_cube_hex(np.random.default_rng(0))
    hexa = Hexahedron(base.vertices * 10.0**-1.75 + [0.0, 0.0, 167410.0])
    points = _hex_test_points(hexa, np.random.default_rng(1))
    info = _assert_record("hex", "moment", hexa, points)
    assert FRAME in info.cause
    # With the frame coordinates the record comes last, the weights are those
    # of the call without them, and a row without a frame has none.
    phi, ok, w, info_last = moment_coords_hex_many(hexa, points, return_frame_coords=True)
    plain = moment_coords_hex_many(hexa, points)
    assert phi.tobytes() == plain[0].tobytes() and ok.tobytes() == plain[1].tobytes()
    assert np.isnan(w[info_last.cause == FRAME]).all()
    assert info_last.cause.tobytes() == info.cause.tobytes()


@pytest.mark.parametrize(
    "shape, method, resolution, derivatives",
    [
        ("nonconv-quad", "moment", 21, False),
        ("nonconv-quad", "moment", 21, True),
        ("conv-quad", "wachspress", 21, True),
        ("conv-quad", "mvc-oracle", 21, True),
        ("nonconv-quad", "cramer", 15, True),
        ("conv-hex", "moment", 9, False),
        ("conv-hex", "moment", 9, True),
        ("interval-7", "moment", 41, True),
        ("interval-7", "hat", 41, True),
    ],
)
def test_grid_locates_each_point_once(capsys, tmp_path, monkeypatch, shape, method, resolution, derivatives):
    # Every point location goes through _locate_quad, _locate_hex or
    # coords1d._locate; count the points each call locates, under every
    # name the package calls them by.  No stack, of grid points or of their
    # derivative offsets, holds more than BATCH_CHUNK points.  The quad
    # moment and Wachspress gradients are closed forms on the grid points'
    # own location, so those grids locate each point exactly once.  The
    # finite differences locate each of their 2 * dim offset stacks in a
    # call of its own, so a grid takes as many chunks of grid points,
    # ceil(n**dim / BATCH_CHUNK), with --derivatives as without.
    chunk = 48
    monkeypatch.setattr(geometry, "BATCH_CHUNK", chunk)
    located = []

    def counting(locate):
        def wrapper(geom, x, *args):
            located.append(np.size(x))
            return locate(geom, x, *args)
        return wrapper

    for module, name in [
        (geometry, "_locate_quad"), (coords2d, "_locate_quad"),
        (geometry, "_locate_hex"), (coords3d, "_locate_hex"),
        (coords1d, "_locate"),
    ]:
        monkeypatch.setattr(module, name, counting(getattr(module, name)))
    # The located calls each finite-difference call makes.
    offset_calls = []
    real = cli.finite_difference_gradient_many

    def counting_differences(*args):
        before = len(located)
        result = real(*args)
        offset_calls.append(len(located) - before)
        return result

    monkeypatch.setattr(cli, "finite_difference_gradient_many", counting_differences)
    arg, geom = _geometry(tmp_path, shape)
    dim = 1 if isinstance(geom, NodeSet1D) else geom.vertices.shape[1]
    rows = _grid_rows(capsys, tmp_path, arg, method, resolution, derivatives)
    # The finite differences take the rows with weights (mvc-oracle leaves
    # its boundary rows blank).
    evaluated = sum(row[dim] != "" for row in rows)
    assert evaluated > 0
    closed_form = method in cli.GRADIENT_METHODS.get("quad" if dim == 2 else "", {})
    fd = derivatives and not closed_form
    expected = resolution**dim + (2 * dim * evaluated if fd else 0)
    assert sum(located) == expected
    assert max(located) <= chunk
    assert len(located) - sum(offset_calls) == -(-(resolution**dim) // chunk)
    assert set(offset_calls) == ({2 * dim} if fd else set())


@pytest.mark.parametrize(
    "shape, resolution", [("conv-hex", 9), ("nonconv-quad", 23), ("interval-7", 41)]
)
def test_grid_formats_each_axis_once(tmp_path, monkeypatch, shape, resolution):
    # Each axis value is formatted once per command, into one label table
    # of n entries per axis, however many chunks the grid takes; the
    # interval's one table is the 1D label path.
    arg, geom = _geometry(tmp_path, shape)
    dim = 1 if isinstance(geom, NodeSet1D) else geom.vertices.shape[1]
    chunk = 40
    assert resolution**dim > chunk
    monkeypatch.setattr(geometry, "BATCH_CHUNK", chunk)
    tables = []
    real = cli._label_bytes

    def counting(labels):
        tables.append(len(labels))
        return real(labels)

    monkeypatch.setattr(cli, "_label_bytes", counting)
    out = tmp_path / "grid.csv"
    argv = ["grid", "--geometry", arg, "--resolution", str(resolution),
            "--method", "moment", "--out", str(out)]
    assert main(argv) == 0
    assert tables == [resolution] * dim
    # The CSV is the one the default chunk writes.
    patched = out.read_bytes()
    monkeypatch.undo()
    assert main(argv) == 0
    assert out.read_bytes() == patched


@pytest.mark.parametrize("shape, method", [("nonconv-quad", "moment"), ("conv-quad", "wachspress")])
def test_grid_closed_form_gradient_takes_rows_with_weights(capsys, tmp_path, monkeypatch, shape, method):
    # The closed-form gradient runs on the rows that have weights after the
    # row check, with their slice of the chunk's BatchInfo: not on the
    # exterior points of the bounding box, nor on an interior row whose
    # evaluation failed (here every seventh, forced singular).
    resolution = 21
    out = tmp_path / "grid.csv"
    argv = ["grid", "--geometry", shape, "--resolution", str(resolution),
            "--method", method, "--derivatives", "--out", str(out)]
    evaluate = cli.BATCH_METHODS["quad"][method]

    def failing(quad, points):
        phi, ok, info = evaluate(quad, points)
        inside = np.flatnonzero(info.code != LOC_EXTERIOR)[::7]
        phi[inside], ok[inside] = np.nan, False
        cause = info.cause.copy()
        cause[inside] = geometry.SINGULAR
        return phi, ok, geometry.BatchInfo(info.code, info.index, cause)

    real = cli.GRADIENT_METHODS["quad"][method]
    seen = []

    def recording(quad, points, info):
        assert len(info.code) == len(points) and (info.cause == geometry.OK).all()
        seen.append(np.array(points))
        return real(quad, points, info)

    for forced in [False, True]:
        if forced:
            monkeypatch.setitem(cli.BATCH_METHODS["quad"], method, failing)
        assert main(argv) == 0
        expected = out.read_bytes(), capsys.readouterr().err
        seen.clear()
        monkeypatch.setitem(cli.GRADIENT_METHODS["quad"], method, recording)
        assert main(argv) == 0
        assert (out.read_bytes(), capsys.readouterr().err) == expected
        monkeypatch.setitem(cli.GRADIENT_METHODS["quad"], method, real)
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert len(rows) < resolution**2
        filled = [[float(r[0]), float(r[1])] for r in rows if r[2] != ""]
        assert len(filled) < len(rows) if forced else len(filled) == len(rows)
        assert np.concatenate(seen).tolist() == filled


@pytest.mark.parametrize("shape, resolution, fallback", [
    ("conv-hex", 11, [",0,", "e-17,"]),
    ("square-1e100", 9, ["e-101,", "e-100,"]),
])
def test_grid_formats_at_most_batch_chunk_values_per_pass(capsys, tmp_path, monkeypatch, shape, resolution, fallback):
    # Each formatting pass takes at most BATCH_CHUNK values, whole rows of
    # them, and the CSV is the one the default chunk writes.  conv-hex has
    # exact zeros and face rounding noise near 1e-17 among its derivatives,
    # which the kernel writes itself; every derivative on the 1e100 square
    # is in exponent notation below 1e-29, which goes through "%.17g".
    arg, geom = _geometry(tmp_path, shape)
    out = tmp_path / "grid.csv"
    argv = ["grid", "--geometry", arg, "--resolution", str(resolution),
            "--method", "moment", "--derivatives", "--out", str(out)]
    assert main(argv) == 0
    default = out.read_bytes()
    chunk = 64
    monkeypatch.setattr(geometry, "BATCH_CHUNK", chunk)
    sizes = []
    real = csvfmt.format17

    def counting(x):
        sizes.append(np.size(x))
        return real(x)

    monkeypatch.setattr(csvfmt, "format17", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == default
    text = default.decode("ascii")
    assert all(f in text for f in fallback)
    n, dim = geom.vertices.shape
    width = n * (1 + dim)
    assert max(sizes) <= chunk
    assert all(size % width == 0 for size in sizes)
    assert sum(sizes) == width * (len(text.splitlines()) - 1)


def test_grid_memory_bounded_by_chunk(tmp_path, monkeypatch):
    # grid holds one chunk of points, weights and CSV lines at a time, so
    # its traced peak does not grow with the grid (a grid held whole, with
    # every line, peaks at 0.5 MB at 31 x 31 and 2.9 MB at 81 x 81).
    monkeypatch.setattr(geometry, "BATCH_CHUNK", 256)

    def peak(resolution):
        argv = ["grid", "--geometry", "biunit-square", "--resolution", str(resolution),
                "--method", "moment", "--out", str(tmp_path / "grid.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(11)  # one-time allocations of a first run
    small, large = peak(31), peak(81)
    assert large < 1.5 * small, (small, large)
