"""The hexahedral tables derive from one reference-cube table, and a
hexahedron fits each face plane once."""

import numpy as np
import pytest

from momentcoords import coords3d, geometry, sampling, shapes
from momentcoords.coords3d import moment_coords_hex
from momentcoords.geometry import (
    HEX_EDGES,
    HEX_FACE_VERTICES,
    HEX_FACES,
    HEX_OPPOSITE_PAIRS,
    REFERENCE_CUBE,
    REFERENCE_NORMALS,
    Hexahedron,
    face_of_point_hex,
)

# The tables as they were written out by hand before they were derived.
SIGN_PATTERN = np.array(
    [
        [+1, +1, +1, +1, -1, -1, -1, -1],
        [+1, +1, -1, -1, +1, +1, -1, -1],
        [+1, -1, -1, +1, +1, -1, -1, +1],
    ],
    dtype=float,
)
DELTA_SIGNS = np.array(
    [
        [+1, -1, +1, -1, +1, -1, +1, -1],
        [+1, -1, -1, +1, -1, +1, +1, -1],
        [+1, +1, -1, -1, -1, -1, +1, +1],
    ],
    dtype=float,
)
DISTANCE_SIGNS = np.array([+1, -1, +1, -1, -1, +1, -1, +1], dtype=float)
CUBE_NORMALS = np.array(
    [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    dtype=float,
)


def test_derived_sign_tables_equal_the_written_ones():
    for derived, written in [
        (coords3d.SIGN_PATTERN, SIGN_PATTERN),
        (coords3d.DELTA_SIGNS, DELTA_SIGNS),
        (coords3d.DISTANCE_SIGNS, DISTANCE_SIGNS),
        (REFERENCE_NORMALS, CUBE_NORMALS),
    ]:
        assert derived.dtype == float
        assert np.array_equal(derived, written)


def test_face_vertices_match_the_face_connectivity():
    expect = np.zeros((6, 8), dtype=bool)
    for f, idx in enumerate(HEX_FACES):
        expect[f, list(idx)] = True
    assert np.array_equal(HEX_FACE_VERTICES, expect)


def test_hex_edges_join_the_cube_vertices_one_coordinate_apart():
    # Derived from the sign table, not from the faces.
    expect = [
        (i, j)
        for i in range(8)
        for j in range(i + 1, 8)
        if np.count_nonzero(REFERENCE_CUBE[i] != REFERENCE_CUBE[j]) == 1
    ]
    assert HEX_EDGES == tuple(expect)


def test_hex_faces_agree_with_the_sign_table():
    for f, idx in enumerate(HEX_FACES):
        side = 1.0 if f % 2 == 0 else -1.0
        assert all(REFERENCE_CUBE[i, f // 2] == side for i in idx)
        for a, b in zip(idx, idx[1:] + idx[:1]):
            assert np.count_nonzero(REFERENCE_CUBE[a] != REFERENCE_CUBE[b]) == 1
    assert HEX_OPPOSITE_PAIRS == ((0, 1), (2, 3), (4, 5))


def test_cube_shape_is_the_scaled_reference_cube():
    h = 0.5
    written = [
        (h, h, h),
        (h, h, -h),
        (h, -h, -h),
        (h, -h, h),
        (-h, h, h),
        (-h, h, -h),
        (-h, -h, -h),
        (-h, -h, h),
    ]
    assert np.array_equal(shapes.cube(h).vertices, written)


@pytest.fixture
def fit_count(monkeypatch):
    """Faces fitted by geometry._fit_planes, one entry per call."""
    faces = []
    fit = geometry._fit_planes

    def counted(points):
        faces.append(len(points))
        return fit(points)

    monkeypatch.setattr(geometry, "_fit_planes", counted)
    return faces


def test_construct_evaluate_classify_fits_each_face_once(fit_count):
    hexa = shapes.convex_hex()
    moment_coords_hex(hexa, (0.0, 0.5, 0.0))
    assert face_of_point_hex(hexa, (1.0, 1.0, 0.0)).kind == "on_face"
    assert sum(fit_count) == 6


def test_plane_hex_sampler_fits_each_face_once(fit_count):
    sampling.random_plane_hex(np.random.default_rng(0))
    assert sum(fit_count) == 6


def test_hexahedron_keeps_its_face_data():
    hexa = shapes.convex_hex()
    assert len(hexa.face_normals) == len(hexa._centroids) == 6
    assert hexa.pair_lines is hexa.pair_lines
    for (line, _), (fa, _) in zip(hexa.pair_lines, HEX_OPPOSITE_PAIRS):
        if line is not None:
            assert line[2] == hexa._centroids[fa]


@pytest.mark.parametrize("scale, shift", [(1e-3, 1e5), (1e-2, 1e6), (1e-3, 1e6)])
def test_small_far_hexahedron_is_valid(scale, shift):
    # Rounding the vertices to the shift's ulp bends the faces by more than
    # PLANARITY_RTOL * diameter; the slack's floor of 4 ulps of the largest
    # coordinate accepts them.
    base = sampling.random_plane_hex(np.random.default_rng(3), tilt=0.2)
    vertices = base.vertices * scale + shift
    assert geometry.hex_violations(vertices) == []
    hexa = Hexahedron(vertices)
    c = hexa.vertices.mean(axis=0)
    phi = moment_coords_hex(hexa, c)
    assert abs(phi.sum() - 1.0) <= 1e-12 and phi.min() >= 0.0
    assert np.abs(phi @ (hexa.vertices - c)).max() <= 1e-10 * hexa.diameter


def _pair_line_hexahedra():
    """Seeded plane hexahedra at three tilts; the smallest tilt gives pairs
    of nearly parallel planes, whose lines lie far from the solid."""
    for seed in range(30):
        rng = np.random.default_rng(seed)
        yield sampling.random_plane_hex(rng, tilt=(0.4, 0.1, 0.02)[seed % 3])


def test_pair_lines_solve_their_plane_equations():
    # x0 solves n_a . x = d_a, n_b . x = d_b, u . x = 0.  Its rounding is a
    # few ulps of the largest number involved, R = diameter + |x0| + |c|
    # (nearly parallel planes put x0 up to ~200 diameters out), and against
    # np.linalg.solve the error also carries the condition 1 / |n_a x n_b|.
    eps = np.finfo(float).eps
    lines = 0
    for hexa in _pair_line_hexahedra():
        for (line, bisector), (fa, fb) in zip(hexa.pair_lines, HEX_OPPOSITE_PAIRS):
            assert bisector is None and line is not None
            u, x0, c = (np.array(t) for t in line)
            na, nb = np.array(hexa.face_normals[fa]), np.array(hexa.face_normals[fb])
            ca, cb = np.array(hexa._centroids[fa]), np.array(hexa._centroids[fb])
            assert np.array_equal(c, ca)
            assert abs(np.linalg.norm(u) - 1.0) <= 4 * eps
            size = hexa.diameter + np.linalg.norm(x0) + max(np.linalg.norm(ca), np.linalg.norm(cb))
            bound = 8 * eps * size
            assert abs(na @ x0 - na @ ca) <= bound
            assert abs(nb @ x0 - nb @ cb) <= bound
            assert abs(u @ x0) <= bound
            ref = np.linalg.solve(np.vstack([na, nb, u]), [na @ ca, nb @ cb, 0.0])
            assert np.abs(x0 - ref).max() <= bound / np.linalg.norm(np.cross(na, nb))
            lines += 1
    assert lines == 90


def test_parallel_pairs_give_the_normal_bisector():
    # Affine cube images have parallel opposite faces; a cube with face
    # x = +1 tilted to x = 1 + e*y has |n_a x n_b| about e, so pair 0 has a
    # line above the 1e-9 cutoff and the bisector below it.
    rng = np.random.default_rng(4)
    for _ in range(10):
        hexa = sampling.random_affine_cube_hex(rng)
        for (line, bisector), (fa, fb) in zip(hexa.pair_lines, HEX_OPPOSITE_PAIRS):
            assert line is None
            m = np.subtract(hexa.face_normals[fa], hexa.face_normals[fb])
            gap = np.abs(np.array(bisector) - m / np.linalg.norm(m)).max()
            assert gap <= 4 * np.finfo(float).eps
    for e, parallel in ((2e-9, False), (5e-10, True)):
        v = shapes.cube().vertices.copy()
        v[:4, 0] = 1.0 + e * v[:4, 1]
        line, bisector = Hexahedron(v).pair_lines[0]
        assert (line is None) == parallel and (bisector is None) != parallel
