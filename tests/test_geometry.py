import struct
import warnings
from itertools import combinations

import numpy as np
import pytest

from loop_reference import pair_lines, segments_intersect
from momentcoords import geometry as geo
from momentcoords import sampling
from momentcoords.errors import InvalidGeometry
from momentcoords.geometry import (
    Hexahedron,
    NodeSet1D,
    Quadrilateral,
    classify_point_quad,
    face_of_point_hex,
    signed_area,
)


class TestSignedArea:
    def test_unit_right_triangle(self):
        assert signed_area((0, 0), (1, 0), (0, 1)) == 0.5

    def test_orientation_flip(self):
        assert signed_area((0, 0), (0, 1), (1, 0)) == -0.5

    def test_collinear(self):
        assert signed_area((0, 0), (1, 1), (2, 2)) == 0.0

    def test_antisymmetric(self, rng):
        for _ in range(100):
            a, b, c = rng.normal(size=(3, 2))
            assert signed_area(a, b, c) == pytest.approx(-signed_area(b, a, c), abs=1e-14)

    def test_translation_invariance(self, rng):
        for _ in range(100):
            pts = rng.normal(size=(3, 2))
            shift = rng.uniform(-100, 100, 2)
            scale = max(1.0, np.abs(pts).max() ** 2)
            base = signed_area(*pts)
            moved = signed_area(*(pts + shift))
            assert abs(base - moved) <= 1e-12 * max(scale, np.abs(shift).max() ** 2)


class TestQuadrilateral:
    def test_examples_validate(self, quad_convex, quad_nonconvex, biunit):
        assert geo.quad_violations(quad_convex.vertices) == []
        assert quad_convex.is_convex
        assert geo.quad_violations(quad_nonconvex.vertices) == []
        assert not quad_nonconvex.is_convex
        assert biunit.is_convex

    def test_clockwise_input_reversed(self):
        quad = Quadrilateral([(-1, -1), (-1, 1), (1, 1), (1, -1)])
        assert np.array_equal(
            quad.vertices, [(-1, -1), (1, -1), (1, 1), (-1, 1)]
        )

    def test_bowtie_rejected(self):
        with pytest.raises(InvalidGeometry):
            Quadrilateral([(0, 0), (1, 1), (1, 0), (0, 1)])

    def test_coincident_vertices_rejected(self):
        violations = geo.quad_violations([(0, 0), (0, 0), (1, 1), (0, 1)])
        assert any("coincide" in v for v in violations)

    def test_collinear_rejected(self):
        violations = geo.quad_violations([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert violations

    def test_vertices_immutable(self, biunit):
        with pytest.raises(ValueError):
            biunit.vertices[0, 0] = 5.0


class TestClassifyQuad:
    def test_biunit_center(self, biunit):
        assert classify_point_quad(biunit, (0, 0)).kind == "interior"

    def test_biunit_edge_midpoint(self, biunit):
        loc = classify_point_quad(biunit, (1, 0))
        assert loc.kind == "on_edge" and loc.index == 1
        assert loc.t == pytest.approx(0.5)

    def test_vertices_snap(self, rng):
        for _ in range(25):
            quad = sampling.random_simple_quad(rng)
            for i in range(4):
                loc = classify_point_quad(quad, quad.vertices[i])
                assert loc.kind == "at_vertex" and loc.index == i

    def test_nonconvex_exterior_notch(self, quad_nonconvex):
        # Inside the bounding box but inside the reflex notch.
        assert classify_point_quad(quad_nonconvex, (0.5, 1.5)).kind == "exterior"
        assert classify_point_quad(quad_nonconvex, (1.6, 2.0)).kind == "exterior"

    def test_nonconvex_interior(self, quad_nonconvex):
        assert classify_point_quad(quad_nonconvex, (0.9, 1.5)).kind == "interior"
        assert classify_point_quad(quad_nonconvex, (1.2, 3.0)).kind == "interior"


class TestNodeSet1D:
    def test_valid(self):
        ns = NodeSet1D([0.0, 0.5, 1.0])
        assert len(ns) == 3 and ns.span == 1.0

    def test_too_few(self):
        with pytest.raises(InvalidGeometry):
            NodeSet1D([0.0, 1.0])

    def test_not_increasing(self):
        with pytest.raises(InvalidGeometry):
            NodeSet1D([0.0, 0.5, 0.5, 1.0])


class TestHexahedron:
    def test_cube_and_tapered_validate(self, cube, hex_tapered):
        assert geo.hex_violations(cube.vertices) == []
        assert geo.hex_violations(hex_tapered.vertices) == []

    def test_planarity_violation(self, cube):
        bad = np.array(cube.vertices)
        bad[0] += (1.0, 0.0, 0.0)
        violations = geo.hex_violations(bad)
        assert any("planar" in v for v in violations)

    def test_convexity_violation(self, cube):
        bad = np.array(cube.vertices)
        bad[0] = (3.0, 3.0, 3.0)  # pull one corner far out along the diagonal
        violations = geo.hex_violations(bad)
        assert violations

    def test_zero_volume_rejected(self):
        # A rank-2 map of the reference cube puts all eight vertices in one
        # plane: every face is a planar, simple parallelogram and no vertex
        # lies beyond a face plane, but the solid is flat.
        a = np.array([[1.0, 0.3, 0.2], [0.1, 1.0, 0.7]])
        flat = geo.REFERENCE_CUBE @ np.vstack([a, 0.4 * a[0] + 0.5 * a[1]]).T
        with pytest.raises(InvalidGeometry) as err:
            Hexahedron(flat)
        violations = err.value.violations
        assert violations == geo.hex_violations(flat)
        assert [int(v.rsplit(" ", 1)[1]) for v in violations] == list(range(6))
        assert all(v.startswith("solid is flat: no vertex lies more than ") for v in violations)

    @pytest.mark.parametrize("thickness, flat", [(1e-10, True), (1e-9, True), (1e-8, False), (1.0, False)])
    def test_thickness_against_planarity_slack(self, thickness, flat):
        # A box 2 x 2 x 2 * thickness is flat, seen from its faces 4 and 5,
        # when no thicker than the planarity slack PLANARITY_RTOL * diameter
        # (about 2.8e-9); the side faces stay simple at these thicknesses.
        slab = geo.REFERENCE_CUBE * (1.0, 1.0, thickness)
        expected = [
            f"solid is flat: no vertex lies more than {2.0 * thickness:.3e} inside face {f}"
            for f in (4, 5)
        ]
        assert geo.hex_violations(slab) == (expected if flat else [])

    def test_outward_normals(self, cube):
        for n, expect in zip(
            cube.face_normals,
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        ):
            assert np.allclose(n, expect, atol=1e-12)


class TestFaceOfPointHex:
    def test_cube_center(self, cube):
        assert face_of_point_hex(cube, (0, 0, 0)).kind == "interior"

    def test_cube_face(self, cube):
        loc = face_of_point_hex(cube, (1, 0, 0))
        assert loc.kind == "on_face" and loc.index == 0

    def test_cube_edge_lowest_face(self, cube):
        loc = face_of_point_hex(cube, (1, 1, 0))
        assert loc.kind == "on_face" and loc.index == 0

    def test_vertex(self, hex_tapered):
        loc = face_of_point_hex(hex_tapered, (1, 2, 1))
        assert loc.kind == "at_vertex" and loc.index == 0

    def test_exterior(self, cube):
        assert face_of_point_hex(cube, (1.5, 0, 0)).kind == "exterior"

    def test_random_face_samples(self, rng):
        # Sampled face points classify onto their face and satisfy the
        # coplanarity condition (zero triple product with two face edges).
        for _ in range(10):
            hexa = sampling.random_affine_cube_hex(rng)
            for f in range(6):
                idx = list(geo.HEX_FACES[f])
                for p in sampling.face_points_hex(hexa, f, 17, rng):
                    loc = face_of_point_hex(hexa, p)
                    assert loc.kind == "on_face" and loc.index == f
                    vi, vj, vk = hexa.vertices[idx[0]], hexa.vertices[idx[1]], hexa.vertices[idx[2]]
                    triple = np.dot(p - vi, np.cross(vj - vi, vk - vi))
                    assert abs(triple) <= 1e-9 * hexa.diameter**3


# The one-pass validation against the validation it replaced, kept here as
# its oracle: pairwise np.linalg.norm tests, one SVD and one in-plane chart
# per face, and quad_violations on numpy arrays.
def _reference_diameter(vertices):
    diffs = vertices[:, None, :] - vertices[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def _reference_polygon_area(v):
    c = v.mean(axis=0)
    n = v.shape[0]
    return sum(signed_area(v[i], v[(i + 1) % n], c) for i in range(n))


def _reference_quad_violations(vertices):
    v = np.asarray(vertices, dtype=float)
    out = []
    if v.shape != (4, 2):
        return [f"expected 4 vertices with 2 coordinates, got shape {v.shape}"]
    if not np.all(np.isfinite(v)):
        return ["vertex coordinates must be finite"]
    diam = _reference_diameter(v)
    if diam == 0.0:
        return ["all vertices coincide"]
    for i, j in combinations(range(4), 2):
        if np.linalg.norm(v[i] - v[j]) <= geo.MIN_EDGE_LENGTH * max(diam, 1.0):
            out.append(f"vertices {i} and {j} coincide")
    area = _reference_polygon_area(v)
    if abs(area) <= 1e-12 * diam**2:
        out.append("vertices are collinear (zero total area)")
    for i, j in ((0, 2), (1, 3)):
        a, b = v[i], v[(i + 1) % 4]
        c, d = v[j], v[(j + 1) % 4]
        if segments_intersect(a, b, c, d):
            out.append(f"edges {i} and {j} intersect (polygon is not simple)")
    return out


def _reference_fit_plane(points):
    c = points.mean(axis=0)
    q = points - c
    _, s, vt = np.linalg.svd(q, full_matrices=False)
    n = vt[-1]
    return n, c, float(np.abs(q @ n).max())


def _reference_plane_coords(points, normal, origin):
    ref = points[1] - points[0]
    u = ref - (ref @ normal) * normal
    u = u / np.linalg.norm(u)
    w = np.cross(normal, u)
    q = points - origin
    return np.column_stack([q @ u, q @ w]), u, w


def _reference_check_hex(v):
    out = []
    if v.shape != (8, 3):
        return [f"expected 8 vertices with 3 coordinates, got shape {v.shape}"], ()
    if not np.all(np.isfinite(v)):
        return ["vertex coordinates must be finite"], ()
    diam = _reference_diameter(v)
    if diam == 0.0:
        return ["all vertices coincide"], ()
    for i, j in combinations(range(8), 2):
        if np.linalg.norm(v[i] - v[j]) <= geo.MIN_EDGE_LENGTH * max(diam, 1.0):
            out.append(f"vertices {i} and {j} coincide")
    if out:
        return out, ()
    floor = 4.0 * np.finfo(float).eps * float(np.abs(v).max())
    centroid = v.mean(axis=0)
    planes = []
    for f, idx in enumerate(geo.HEX_FACES):
        pts = v[list(idx)]
        n, c, offset = _reference_fit_plane(pts)
        if offset > max(geo.PLANARITY_RTOL * diam, floor):
            out.append(f"face {f} {tuple(i + 1 for i in idx)} is not planar (offset {offset:.3e})")
            continue
        if n @ (c - centroid) < 0:
            n = -n
        planes.append((n, c))
        worst = float(((v - c) @ n).max())
        if worst > max(geo.CONVEXITY_RTOL * diam, floor):
            out.append(f"vertex protrudes {worst:.3e} beyond face {f} (solid not convex)")
        verts2d, _, _ = _reference_plane_coords(pts, n, c)
        if _reference_quad_violations(verts2d):
            out.append(f"face {f} is not a simple quadrilateral")
    return out, tuple(planes)


def _quad_corpus(rng, count):
    """(kind, vertices) of valid quads and of each kind of invalid one."""
    kinds = ("valid", "coincident", "collinear", "bowtie", "far-small")
    for k in range(count):
        kind = kinds[k % len(kinds)]
        v = rng.uniform(0.0, 1.0, (4, 2))
        c = v.mean(axis=0)
        v = v[np.argsort(np.arctan2(v[:, 1] - c[1], v[:, 0] - c[0]))]
        if rng.uniform() < 0.5:
            v = v[::-1]  # clockwise
        if kind == "coincident":
            v[rng.integers(4)] = v[rng.integers(4)]
        elif kind == "collinear":
            t = rng.uniform(0.0, 3.0, 4)
            v = np.column_stack([t, rng.uniform(-2, 2) * t + rng.uniform(-1, 1)])
        elif kind == "bowtie":
            v = v[[0, 2, 1, 3]]
        elif kind == "far-small":
            v = v * 1e-3 + rng.uniform(-1e6, 1e6, 2)
        yield kind, v


def _dart_prism(rng):
    """A prism over a dart: planar faces, but one reflex edge."""
    reflex = (rng.uniform(0.2, 0.8), rng.uniform(-0.3, 0.3))
    dart = {(1, 1): (1, 1), (1, -1): (1, -1), (-1, -1): (-1, -1), (-1, 1): reflex}
    base = np.array([(*dart[int(x), int(y)], z) for x, y, z in geo.REFERENCE_CUBE])
    return base @ (np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))).T


def _hex_corpus(rng, count):
    """(kind, vertices) of valid hexahedra and of each kind of invalid one."""
    kinds = ("valid", "moved", "duplicated", "twisted", "protruding", "far-small")
    for k in range(count):
        kind = kinds[k % len(kinds)]
        if k % 2:
            v = sampling.random_plane_hex(rng, tilt=rng.uniform(0.0, 0.4)).vertices.copy()
        else:
            v = sampling.random_affine_cube_hex(rng).vertices.copy()
        if kind == "moved":
            v[rng.integers(8)] += rng.normal(size=3) * 0.1
        elif kind == "duplicated":
            v[rng.integers(8)] = v[rng.integers(8)]
        elif kind == "twisted":
            face = geo.HEX_FACES[rng.integers(6)]
            v[[face[0], face[1]]] = v[[face[1], face[0]]]
        elif kind == "protruding":
            v = _dart_prism(rng)
        elif kind == "far-small":
            v = v * 1e-3 + rng.uniform(-1e6, 1e6)
        yield kind, v


def _message_kind(message):
    return next(w for w in ("coincide", "collinear", "planar", "protrudes", "simple") if w in message)


def test_quad_validation_matches_reference():
    rng = np.random.default_rng(11)
    seen = set()
    for kind, v in _quad_corpus(rng, 1000):
        expected = _reference_quad_violations(v)
        assert geo.quad_violations(v) == expected, (kind, v)
        if expected:
            seen.update(_message_kind(m) for m in expected)
            continue
        quad = Quadrilateral(v)
        reordered = v[[0, 3, 2, 1]] if _reference_polygon_area(v) < 0.0 else v
        assert np.array_equal(quad.vertices, reordered)
        assert quad.diameter == _reference_diameter(v)
        assert geo._quad_area(v.tolist()) == _reference_polygon_area(v)
    assert seen == {"coincide", "collinear", "simple"}


def test_hex_validation_matches_reference():
    rng = np.random.default_rng(12)
    seen = set()
    for kind, v in _hex_corpus(rng, 300):
        expected, planes = _reference_check_hex(v)
        assert geo.hex_violations(v) == expected, (kind, v)
        if expected:
            seen.update(_message_kind(m) for m in expected)
            continue
        hexa = Hexahedron(v)
        assert np.array_equal(hexa.vertices, v)
        assert hexa.diameter == _reference_diameter(v)
        for n, c, (n_ref, c_ref) in zip(hexa.face_normals, hexa._centroids, planes, strict=True):
            assert np.array_equal(n, n_ref) and np.array_equal(c, c_ref)
    assert seen == {"coincide", "planar", "protrudes", "simple"}


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e308])
def test_overflowing_coordinates_rejected_once(scale):
    quad = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)]) * scale
    cube = geo.REFERENCE_CUBE * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert geo.quad_violations(quad) == [geo.OVERFLOW_MESSAGE]
        assert geo.hex_violations(cube) == [geo.OVERFLOW_MESSAGE]
        for build, v in ((Quadrilateral, quad), (Hexahedron, cube)):
            with pytest.raises(InvalidGeometry) as err:
                build(v)
            assert err.value.violations == [geo.OVERFLOW_MESSAGE]


def _bowtie_prism(rng):
    """A prism over a lopsided bowtie (two lobes of unequal area): planar
    faces, but its two end faces cross themselves."""
    crossed = {(1, 1): (1, 1), (1, -1): (-1, -1), (-1, -1): (1, -1), (-1, 1): (-1, 1)}
    bowtie = {yz: np.add(c, rng.uniform(-0.3, 0.3, 2)) for yz, c in crossed.items()}
    base = np.array([(x, *bowtie[int(y), int(z)]) for x, y, z in geo.REFERENCE_CUBE])
    return base @ (np.eye(3) + rng.uniform(-0.2, 0.2, (3, 3))).T


def test_bowtie_and_dart_faces_match_reference():
    rng = np.random.default_rng(19)
    for build, kinds in ((_bowtie_prism, {"simple", "protrudes"}), (_dart_prism, {"protrudes"})):
        seen = set()
        for _ in range(20):
            v = build(rng)
            expected, _ = _reference_check_hex(v)
            assert geo.hex_violations(v) == expected, (build.__name__, v)
            seen.update(_message_kind(m) for m in expected)
            if build is _bowtie_prism:
                assert expected[:2] == [f"face {f} is not a simple quadrilateral" for f in (0, 1)]
        assert seen == kinds


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_coordinates_rejected(bad):
    quad = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    quad[2, 1] = bad
    cube = np.array(geo.REFERENCE_CUBE)
    cube[5, 0] = bad
    nodes = np.array([0.0, 0.5, 1.0, 2.0])
    nodes[2] = bad
    for build, violations, v, message in (
        (Quadrilateral, geo.quad_violations, quad, "vertex coordinates must be finite"),
        (Hexahedron, geo.hex_violations, cube, "vertex coordinates must be finite"),
        (NodeSet1D, geo.nodes_violations, nodes, "nodes must be finite"),
    ):
        assert violations(v) == [message]
        with pytest.raises(InvalidGeometry) as err:
            build(v)
        assert err.value.violations == [message]


@pytest.mark.parametrize(
    "build, violations, v, message",
    [
        (Quadrilateral, geo.quad_violations, np.zeros((3, 2)), "expected 4 vertices with 2 coordinates, got shape (3, 2)"),
        (Quadrilateral, geo.quad_violations, np.zeros((4, 3)), "expected 4 vertices with 2 coordinates, got shape (4, 3)"),
        (Quadrilateral, geo.quad_violations, np.zeros(8), "expected 4 vertices with 2 coordinates, got shape (8,)"),
        (Hexahedron, geo.hex_violations, np.zeros((7, 3)), "expected 8 vertices with 3 coordinates, got shape (7, 3)"),
        (Hexahedron, geo.hex_violations, np.zeros((8, 2)), "expected 8 vertices with 3 coordinates, got shape (8, 2)"),
        (Hexahedron, geo.hex_violations, np.zeros((2, 4, 3)), "expected 8 vertices with 3 coordinates, got shape (2, 4, 3)"),
        (NodeSet1D, geo.nodes_violations, np.zeros((4, 1)), "nodes must be a 1D array, got shape (4, 1)"),
        (NodeSet1D, geo.nodes_violations, np.float64(1.0), "nodes must be a 1D array, got shape ()"),
        (NodeSet1D, geo.nodes_violations, np.array([0.0, 1.0]), "need at least 3 nodes, got 2"),
    ],
)
def test_wrong_shape_rejected(build, violations, v, message):
    assert violations(v) == [message]
    with pytest.raises(InvalidGeometry) as err:
        build(v)
    assert err.value.violations == [message]


@pytest.mark.parametrize("scale", [1e154, 1e200, 1e308])
def test_node_span_overflow_rejected(scale):
    nodes = np.array([-1.0, 0.0, 1.0]) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale < 1e308:
            assert NodeSet1D(nodes).span == 2.0 * scale
        else:
            assert geo.nodes_violations(nodes) == [geo.OVERFLOW_MESSAGE]
            with pytest.raises(InvalidGeometry) as err:
                NodeSet1D(nodes)
            assert err.value.violations == [geo.OVERFLOW_MESSAGE]


# The float tables each element keeps from its validation, against the
# formulas that built them on first use before: the reference plane fit,
# float(n @ c), vertices.tolist() and the corner crosses on the vertex array.
def _as_bytes(table):
    """A table of Python floats (nested in tuples, with None) or float arrays
    as bytes, so that equal means bit for bit equal, and -0.0 differs from
    0.0; a numpy scalar where a Python float belongs fails."""
    if table is None:
        return b"None"
    if type(table) is float:
        return struct.pack("<d", table)
    if isinstance(table, np.ndarray):
        assert table.dtype == np.float64
        return table.tobytes()
    assert type(table) is tuple, type(table)
    return b"(" + b",".join(_as_bytes(t) for t in table) + b")"


def _kept_hex_corpus():
    """Plane hexahedra with tilts from 0 to 0.4 and affine cubes at scales
    1e-12 to 1e100, and an affine cube made small and moved far (twice)."""
    rng = np.random.default_rng(17)
    for k in range(24):
        if k % 2:
            base = sampling.random_plane_hex(rng, tilt=0.4 * k / 23)
        else:
            base = sampling.random_affine_cube_hex(rng)
        for scale in (1e-12, 1e-6, 1.0, 1e6, 1e12, 1e77, 1e100):
            yield base.vertices * scale
    cube = sampling.random_affine_cube_hex(np.random.default_rng(0)).vertices
    yield cube * 1e-2 + (0.0, 0.0, 131061.0)
    yield cube * 10**-1.75 + (0.0, 0.0, 167410.0)


def test_hexahedron_keeps_its_tables_bitwise():
    for v in _kept_hex_corpus():
        # The reference's numpy scalars overflow where the face check's
        # Python floats do not warn: orientation products at 1e77 and up.
        with np.errstate(over="ignore"):
            expected, planes = _reference_check_hex(v)
        assert expected == []
        hexa = Hexahedron(v)
        # The offsets n . c summed left to right, as Python floats add them.
        rows = tuple(
            (*n.tolist(), float(n[0] * c[0] + n[1] * c[1] + n[2] * c[2])) for n, c in planes
        )
        # pair_lines read from the reference tables by the loop-form copy.
        reference = object.__new__(Hexahedron)
        centroids = tuple(tuple(c.tolist()) for _, c in planes)
        reference._centroids, reference.plane_rows = centroids, rows
        for kept, ref in (
            (hexa._centroids, centroids),
            (hexa.plane_rows, rows),
            (hexa.face_normals, tuple(tuple(n.tolist()) for n, _ in planes)),
            (hexa.corner_tuple, tuple(map(tuple, v.tolist()))),
            (hexa.pair_lines, pair_lines(reference)),
            (hexa.diameter, _reference_diameter(v)),
        ):
            assert _as_bytes(kept) == _as_bytes(ref), v


def _reference_corner_crosses(v):
    out = np.empty(4)
    for i in range(4):
        e0 = v[(i + 1) % 4] - v[i]
        e1 = v[(i + 2) % 4] - v[(i + 1) % 4]
        out[i] = e0[0] * e1[1] - e0[1] * e1[0]
    return out


def test_quadrilateral_keeps_its_tables_bitwise():
    rng = np.random.default_rng(18)
    corpus = [(kind, v) for kind, v in _quad_corpus(rng, 200) if not geo.quad_violations(v)]
    corpus += [("sampled", sampling.random_simple_quad(rng).vertices) for _ in range(20)]
    seen = set()
    for kind, base in corpus:
        for scale in (1.0,) if kind == "far-small" else (1e-6, 1.0, 1e12, 1e100):
            quad = Quadrilateral(base * scale)
            crosses = _reference_corner_crosses(quad.vertices)
            assert _as_bytes(quad.corner_tuple) == _as_bytes(tuple(map(tuple, quad.vertices.tolist())))
            assert _as_bytes(quad._corner_crosses) == _as_bytes(tuple(crosses.tolist()))
            assert quad.is_convex is bool(crosses.min() >= -1e-12 * (quad.diameter * quad.diameter))
            seen.add(quad.is_convex)
    assert seen == {False, True}


def test_node_set_keeps_its_tables_bitwise():
    rng = np.random.default_rng(19)
    for _ in range(40):
        base = sampling.random_nodes(rng, int(rng.integers(3, 17))).nodes
        for scale, shift in ((1e-300, 0.0), (1e-12, 0.0), (1.0, -0.5), (1e6, 3e6), (1e100, 0.0)):
            x = base * scale + shift * scale
            nodes = NodeSet1D(x)
            assert _as_bytes(nodes.node_tuple) == _as_bytes(tuple(x.tolist()))
            assert _as_bytes(nodes.span) == _as_bytes(float(x[-1] - x[0]))


def _stack_corpus(rng):
    """_quad_corpus's quads, as drawn, moved by 1e6 and scaled by 1e-12 and
    by 1e150 (valid and invalid), quads on a 3 x 3 grid of integer points,
    whose edges touch and overlap with exactly zero orientations, and rows
    validation stops on early."""
    base = [v for _, v in _quad_corpus(rng, 200)]
    corpus = base + [v + 1e6 for v in base] + [v * 1e-12 for v in base] + [v * 1e150 for v in base]
    corpus += [rng.integers(0, 3, (4, 2)).astype(float) for _ in range(300)]
    square = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
    nan, inf = square.copy(), square.copy()
    nan[2, 0], inf[1, 1] = np.nan, np.inf
    return corpus + [nan, inf, square * 1e200, square * 1e-170, np.zeros((4, 2))]


def _tables_bytes(quad):
    kernel = quad.reproducing_kernel
    tables = geo._quad_tables(quad.edge_rows, quad.corner_tuple, kernel, quad.diameter)
    return np.array(tables, dtype=float).tobytes()


def test_stacked_validation_fails_the_rows_the_float_pass_fails():
    corpus = _stack_corpus(np.random.default_rng(40))
    with np.errstate(all="ignore"):
        failed = geo._check_quad(np.array(corpus), stack=True)[0]
    assert failed.tolist() == [bool(geo.quad_violations(v)) for v in corpus]
    assert 0 < failed.sum() < len(corpus)


def test_corner_stack_rows_equal_their_quadrilaterals():
    # Every row of a stack built from corners holds the table bits of
    # Quadrilateral(row): clockwise rows reversed, every kernel index.
    corpus = [v for v in _stack_corpus(np.random.default_rng(41)) if not geo.quad_violations(v)]
    stack = geo.QuadStack.from_corners(np.array(corpus))
    assert stack.quads is None and stack.element.tolist() == list(range(len(corpus)))
    quads = [Quadrilateral(v) for v in corpus]
    for s, quad in enumerate(quads):
        assert stack._table[:, s].tobytes() == _tables_bytes(quad), corpus[s]
    assert stack._table.tobytes() == geo.QuadStack(quads, range(len(quads)))._table.tobytes()
    assert {_reference_polygon_area(v) < 0.0 for v in corpus} == {False, True}
    assert {q.reproducing_kernel[1] for q in quads} == {0, 1, 2, 3}
    assert stack.is_convex is False
    convex = [v for v, q in zip(corpus, quads) if q.is_convex]
    assert geo.QuadStack.from_corners(np.array(convex)).is_convex is True


def test_corner_stack_raises_the_first_invalid_rows_violations():
    rng = np.random.default_rng(42)
    corpus = _stack_corpus(rng)
    valid = [v for v in corpus if not geo.quad_violations(v)]
    invalid = [v for v in corpus if geo.quad_violations(v)]
    seen = set()
    for s, bad in enumerate(invalid):
        after = invalid[(s + 1) % len(invalid)]
        rows = [valid[s % len(valid)], bad, valid[(s + 1) % len(valid)], after]
        with pytest.raises(InvalidGeometry) as err:
            geo.QuadStack.from_corners(np.array(rows))
        assert err.value.violations == geo.quad_violations(bad)
        seen.update(err.value.violations)
    for kind in ("coincide", "collinear", "simple", "finite", "overflow", "underflow"):
        assert any(kind in message for message in seen), kind


@pytest.mark.parametrize("shape", [(4, 2), (3, 3, 2), (2, 4, 3)])
def test_corner_stack_refuses_other_shapes(shape):
    with pytest.raises(InvalidGeometry, match=r"expected a stack of 4 x 2 vertex arrays"):
        geo.QuadStack.from_corners(np.zeros(shape))
