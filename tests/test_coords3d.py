import numpy as np
import pytest

from momentcoords import sampling
from momentcoords.coords2d import moment_coords_quad
from momentcoords.coords3d import (
    DELTA_SIGNS,
    DISTANCE_SIGNS,
    Frame3,
    distance_row_3d,
    induced_face_quad,
    moment_coords_hex,
    partial_distance_matrix,
    reference_frame,
    sign_pattern_ok,
)
from momentcoords.errors import FrameNotFound, OutsideDomain, SingularMatrix
from momentcoords.geometry import Hexahedron, face_of_point_hex, faces_containing

HEX_EDGES = sorted(
    {
        tuple(sorted((idx[i], idx[(i + 1) % 4])))
        for idx in Hexahedron.FACES
        for i in range(4)
    }
)


def identity_frame(p):
    return Frame3((1, 0, 0), (0, 1, 0), (0, 0, 1), p)


class TestPartialDistances:
    def test_cube_center_symmetry(self, cube):
        delta = partial_distance_matrix(cube, (0, 0, 0), identity_frame((0, 0, 0)))
        assert np.allclose(np.abs(delta), np.sqrt(2.0))
        assert np.array_equal(np.sign(delta), DELTA_SIGNS)

    def test_cube_face_columns_zeroed(self, cube):
        p = (1.0, 0.0, 0.0)
        delta = partial_distance_matrix(cube, p, identity_frame(p))
        assert np.array_equal(delta[:, :4], np.zeros((3, 4)))
        assert np.all(np.abs(delta[:, 4:]) > 0)

    def test_cube_offset_point_values(self, cube):
        p = np.array([0.5, 0.0, 0.0])
        delta = partial_distance_matrix(cube, p, identity_frame(p))
        # Row 1 drops the first axis, row 3 drops the last one.
        assert delta[0, 0] == pytest.approx(np.sqrt(2.0))
        assert delta[2, 0] == pytest.approx(np.sqrt(0.25 + 1.0))

    def test_formula_against_projections(self, hex_tapered, rng):
        p = sampling.interior_points_hex(hex_tapered, 1, rng)[0]
        frame = reference_frame(hex_tapered, p)
        w = frame.coords(hex_tapered.vertices)
        delta = partial_distance_matrix(hex_tapered, p, frame)
        drop = [(1, 2), (0, 2), (0, 1)]
        for r in range(3):
            for i in range(8):
                expect = np.hypot(w[drop[r][0], i], w[drop[r][1], i])
                assert abs(delta[r, i]) == pytest.approx(expect)


class TestDistanceRow:
    def test_cube_center(self, cube):
        row = distance_row_3d(cube, (0, 0, 0), identity_frame((0, 0, 0)))
        assert np.allclose(row, np.sqrt(3.0) * DISTANCE_SIGNS)

    def test_zero_at_vertex(self, cube):
        p = cube.vertices[0]
        row = distance_row_3d(cube, p, identity_frame(p))
        assert row[0] == 0.0

    def test_tapered_hand_values(self, hex_tapered):
        p = np.array([0.0, 0.5, 0.0])
        row = distance_row_3d(hex_tapered, p, identity_frame(p))
        far = np.sqrt(4.25)
        expect = np.array([far, -far, 1.5, -1.5, -1.5, 1.5, -far, far])
        assert np.allclose(row, expect)


class TestSignPattern:
    def test_cube_interior_identity(self, cube):
        w = identity_frame((0.2, -0.3, 0.1)).coords(cube.vertices)
        assert sign_pattern_ok(w, cube.diameter)

    def test_zero_entry_fails(self, cube):
        w = identity_frame((1.0, 0.0, 0.0)).coords(cube.vertices)
        assert not sign_pattern_ok(w, cube.diameter)

    def test_tapered_origin_identity_fails(self, hex_tapered):
        # The third vertex offset has a zero component at the origin.
        w = identity_frame((0.0, 0.0, 0.0)).coords(hex_tapered.vertices)
        assert not sign_pattern_ok(w, hex_tapered.diameter)


class TestReferenceFrame:
    def test_cube_interior_identity_accepted(self, cube, rng):
        for p in sampling.interior_points_hex(cube, 20, rng):
            frame = reference_frame(cube, p)
            assert frame.is_identity()

    def test_tapered_origin_non_identity(self, hex_tapered):
        frame = reference_frame(hex_tapered, (0.0, 0.0, 0.0))
        assert not frame.is_identity()
        w = frame.coords(hex_tapered.vertices)
        assert sign_pattern_ok(w, hex_tapered.diameter)

    def test_sheared_cube_center(self, rng):
        hexa = sampling.random_affine_cube_hex(rng)
        p = hexa.vertices.mean(axis=0)
        frame = reference_frame(hexa, p)
        assert sign_pattern_ok(frame.coords(hexa.vertices), hexa.diameter)

    def test_frame_invariants(self, hex_tapered, rng):
        def check(hexa, p, faces=()):
            frame = reference_frame(hexa, p, faces=faces)
            for r in (frame.r1, frame.r2, frame.r3):
                assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
            assert abs(frame.det) >= 1e-8
            exempt = {i for f in faces for i in Hexahedron.FACES[f]}
            cols = [i for i in range(8) if i not in exempt]
            assert sign_pattern_ok(frame.coords(hexa.vertices), hexa.diameter, cols=cols)

        for maker in (sampling.random_affine_cube_hex, sampling.random_plane_hex):
            hexa = maker(rng)
            for p in sampling.interior_points_hex(hexa, 40, rng):
                check(hexa, p)
        # Boundary points: face interiors (one containing face) and edge
        # midpoints (two), where the frame pins a row per containing face.
        for hexa in (hex_tapered, sampling.random_plane_hex(rng, tilt=0.4)):
            for f in range(6):
                for p in sampling.face_points_hex(hexa, f, 10, rng):
                    faces = faces_containing(hexa, p)
                    assert faces == [f]
                    check(hexa, p, faces)
            for i, j in HEX_EDGES:
                p = 0.5 * (hexa.vertices[i] + hexa.vertices[j])
                faces = faces_containing(hexa, p)
                assert len(faces) == 2
                check(hexa, p, faces)

    def test_continuous_across_parallel_cutoff(self, cube):
        # Tilt face x = +1 to x = 1 + e*y: pair 0 switches from the wedge
        # functional to the normal bisector once its planes are parallel
        # within 1e-9, and the weights must not jump there.
        def tilted(e):
            v = np.array(cube.vertices)
            v[:4, 0] = 1.0 + e * v[:4, 1]
            return Hexahedron(v)

        p = (0.3, -0.2, 0.45)
        phi0 = moment_coords_hex(tilted(0.0), p)
        for e in (1e-8, 3e-9, 1.1e-9, 9e-10, 1e-10, 0.0):
            assert np.abs(moment_coords_hex(tilted(e), p) - phi0).max() <= 1e-9


class TestMomentCoordsHex:
    def test_cube_center(self, cube):
        assert np.allclose(moment_coords_hex(cube, (0, 0, 0)), 0.125)

    def test_cube_face_center(self, cube):
        phi = moment_coords_hex(cube, (1.0, 0.0, 0.0))
        assert np.abs(phi[:4] - 0.25).max() <= 1e-12
        assert np.abs(phi[4:]).max() <= 1e-12

    def test_kronecker(self, hex_tapered):
        for i in range(8):
            phi = moment_coords_hex(hex_tapered, hex_tapered.vertices[i])
            expect = np.zeros(8)
            expect[i] = 1.0
            assert np.array_equal(phi, expect)

    def test_exterior_raises(self, hex_tapered):
        with pytest.raises(OutsideDomain):
            moment_coords_hex(hex_tapered, (3.0, 0.0, 0.0))

    def test_axioms_random_hexes(self, rng):
        for maker in (sampling.random_affine_cube_hex, sampling.random_plane_hex):
            for _ in range(4):
                hexa = maker(rng)
                for p in sampling.interior_points_hex(hexa, 50, rng):
                    phi = moment_coords_hex(hexa, p)
                    assert abs(phi.sum() - 1.0) <= 1e-12
                    assert phi.min() >= -1e-10
                    assert np.abs(phi @ hexa.vertices - p).max() <= 1e-9 * hexa.diameter

    def test_edge_reduction(self, cube, hex_tapered, rng):
        geoms = [cube, hex_tapered, sampling.random_affine_cube_hex(rng)]
        for hexa in geoms:
            for i, j in HEX_EDGES:
                for t in rng.uniform(0.1, 0.9, 2):
                    p = (1 - t) * hexa.vertices[i] + t * hexa.vertices[j]
                    phi = moment_coords_hex(hexa, p)
                    expect = np.zeros(8)
                    expect[i] = 1 - t
                    expect[j] = t
                    assert np.abs(phi - expect).max() <= 1e-9

    def test_facet_reduction(self, hex_tapered, rng):
        for f in range(6):
            idx = list(Hexahedron.FACES[f])
            off = [i for i in range(8) if i not in idx]
            for p in sampling.face_points_hex(hex_tapered, f, 15, rng):
                loc = face_of_point_hex(hex_tapered, p)
                assert loc.kind == "on_face" and loc.index == f
                phi, frame = moment_coords_hex(hex_tapered, p, return_frame=True)
                assert np.abs(phi[off]).max() <= 1e-10
                quad2d = induced_face_quad(hex_tapered, f, frame)
                psi = moment_coords_quad(quad2d, np.zeros(2))
                assert np.abs(phi[idx] - psi).max() <= 1e-9

    def test_continuous_along_segment(self, hex_tapered):
        # A frame choice that switches from point to point made the field
        # jump by 0.021 between neighbouring samples on this segment.
        ys = np.linspace(0.2, 1.4, 4001)
        phi = np.array([moment_coords_hex(hex_tapered, (0.0, y, 0.0)) for y in ys])
        assert np.abs(np.diff(phi, axis=0)).max() <= 1e-3
        h = 1e-6 * hex_tapered.diameter
        for y in ys[::4]:
            plus = moment_coords_hex(hex_tapered, (0.0, y + h, 0.0))
            minus = moment_coords_hex(hex_tapered, (0.0, y - h, 0.0))
            assert np.abs((plus - minus) / (2 * h)).max() < 10

    def test_no_singularity_with_verified_pattern(self, rng):
        # Whenever the frame verifies the sign pattern the solve must not be
        # singular.
        for _ in range(3):
            hexa = sampling.random_plane_hex(rng)
            for p in sampling.interior_points_hex(hexa, 60, rng):
                frame = reference_frame(hexa, p)
                assert sign_pattern_ok(frame.coords(hexa.vertices), hexa.diameter)
                try:
                    moment_coords_hex(hexa, p)
                except (SingularMatrix, FrameNotFound) as exc:
                    pytest.fail(f"unexpected failure at {p}: {exc}")

    def test_returned_frame_reproducibility(self, hex_tapered, rng):
        p = sampling.interior_points_hex(hex_tapered, 1, rng)[0]
        phi, frame = moment_coords_hex(hex_tapered, p, return_frame=True)
        w = frame.coords(hex_tapered.vertices)
        # Reproducing constraints hold in frame coordinates and original ones.
        assert np.abs(w @ phi).max() <= 1e-12 * hex_tapered.diameter
        assert np.abs(phi @ hex_tapered.vertices - p).max() <= 1e-10 * hex_tapered.diameter

    def test_cube_reflection_symmetry(self, cube, rng):
        # Mirroring the cube across a coordinate plane permutes the vertices;
        # the weights must follow the permutation.  Independent of the system
        # assembly, so it cross-checks the whole pipeline.
        perms = {
            0: ([4, 5, 6, 7, 0, 1, 2, 3], np.array([-1.0, 1.0, 1.0])),
            1: ([3, 2, 1, 0, 7, 6, 5, 4], np.array([1.0, -1.0, 1.0])),
            2: ([1, 0, 3, 2, 5, 4, 7, 6], np.array([1.0, 1.0, -1.0])),
        }
        for _ in range(60):
            p = rng.uniform(-0.95, 0.95, 3)
            phi = moment_coords_hex(cube, p)
            for perm, flip in perms.values():
                mirrored = moment_coords_hex(cube, p * flip)
                assert np.abs(mirrored - phi[perm]).max() <= 1e-12
