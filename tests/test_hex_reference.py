"""The hexahedral tables derive from one reference-cube table, and a
hexahedron fits each face plane once."""

import numpy as np
import pytest

from momentcoords import coords3d, geometry, sampling, shapes
from momentcoords.coords3d import moment_coords_hex
from momentcoords.geometry import (
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
    assert coords3d.FACE_VERTICES is HEX_FACE_VERTICES


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
    assert len(hexa.face_planes) == 6
    assert hexa.pair_lines is hexa.pair_lines
    assert geometry.face_to_plane(hexa, 2) is geometry.face_to_plane(hexa, 2)
    for (line, _), (fa, _) in zip(hexa.pair_lines, HEX_OPPOSITE_PAIRS):
        if line is not None:
            assert line[2] == tuple(hexa.face_planes[fa][1].tolist())


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
