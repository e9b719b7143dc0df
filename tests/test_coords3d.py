import numpy as np
import pytest

from momentcoords import checks, sampling, shapes
from momentcoords.coords2d import moment_coords_quad
from momentcoords.coords3d import (
    DELTA_SIGNS,
    DISTANCE_SIGNS,
    PATTERN_ZERO_RTOL,
    SIGN_PATTERN,
    _NO_FACE,
    _ZEROED,
    _frame,
    _induced_corners,
    _system,
    moment_coords_hex,
    moment_coords_hex_many,
    reference_frame,
    sign_pattern_ok,
)
from momentcoords.errors import FrameNotFound, OutsideDomain, SingularMatrix
from momentcoords.geometry import (
    HEX_EDGES,
    HEX_FACES,
    LOC_FACET,
    Hexahedron,
    Quadrilateral,
    QuadStack,
    _quad_area,
    _quad_tables,
    face_of_point_hex,
    faces_containing,
)


def identity_coords(hexa, p):
    """The vertices' coordinates in the identity frame at p: w = (v - p)^T."""
    return (hexa.vertices - np.asarray(p, dtype=float)).T


def frame_system(hexa, p, rows=np.eye(3), face=_NO_FACE):
    """The 8 x 8 system at p in the frame with functionals rows (the
    identity by default), in absolute units (scale 1), with the partial
    distances of face's columns zeroed."""
    offsets = (hexa.vertices - np.asarray(p, dtype=float)).tolist()
    system, _ = _system(np.asarray(rows).tolist(), offsets, 1.0, _ZEROED[face])
    return np.array(system)


class TestPartialDistances:
    def test_cube_center_symmetry(self, cube):
        delta = frame_system(cube, (0, 0, 0))[4:7]
        assert np.allclose(np.abs(delta), np.sqrt(2.0))
        assert np.array_equal(np.sign(delta), DELTA_SIGNS)

    def test_cube_face_columns_zeroed(self, cube):
        p = (1.0, 0.0, 0.0)
        loc = face_of_point_hex(cube, p)
        assert (loc.kind, loc.index) == ("on_face", 0)
        delta = frame_system(cube, p, face=loc.index)[4:7]
        assert np.array_equal(delta[:, :4], np.zeros((3, 4)))
        assert np.all(np.abs(delta[:, 4:]) > 0)

    def test_cube_offset_point_values(self, cube):
        p = np.array([0.5, 0.0, 0.0])
        delta = frame_system(cube, p)[4:7]
        # Row 1 drops the first axis, row 3 drops the last one.
        assert delta[0, 0] == pytest.approx(np.sqrt(2.0))
        assert delta[2, 0] == pytest.approx(np.sqrt(0.25 + 1.0))

    def test_formula_against_projections(self, hex_tapered, rng):
        p = sampling.interior_points_hex(hex_tapered, 1, rng)[0]
        frame = reference_frame(hex_tapered, p)
        w = frame.coords(hex_tapered.vertices)
        delta = frame_system(hex_tapered, p, frame.rows)[4:7]
        drop = [(1, 2), (0, 2), (0, 1)]
        for r in range(3):
            for i in range(8):
                expect = np.hypot(w[drop[r][0], i], w[drop[r][1], i])
                assert abs(delta[r, i]) == pytest.approx(expect)

    def test_one_point_and_stack_assemble_the_same_bits(self, hex_tapered):
        # An interior point and a point on face 2 (its vertex centroid), one
        # at a time as floats and together as one stack: the same system and
        # frame coordinates, bit for bit, the zeroed columns included.
        hexa = hex_tapered
        points = np.array([[0.1, 0.2, -0.3], hexa.vertices[list(HEX_FACES[2])].mean(axis=0)])
        locs = [face_of_point_hex(hexa, p) for p in points]
        assert [loc.kind for loc in locs] == ["interior", "on_face"]
        faces = [loc.index if loc.kind == "on_face" else _NO_FACE for loc in locs]
        on = np.array([[f in loc.faces for f in range(6)] for loc in locs])

        def assemble(px, py, pz, on, zeroed):
            _, rows, _, found = _frame(hexa, px, py, pz, on)
            offsets = [(vx - px, vy - py, vz - pz) for vx, vy, vz in hexa.corner_tuple]
            return _system(rows, offsets, hexa.unit_scale, zeroed), found

        (system, w), found = assemble(*points.T, on.T, _ZEROED.T[:, faces])
        assert found.all()
        for s, (p, face) in enumerate(zip(points.tolist(), faces)):
            (one, w_one), _ = assemble(*p, tuple(on[s].tolist()), _ZEROED[face])
            at_s = [[np.broadcast_to(e, (2,))[s] for e in row] for row in system]
            assert np.array(at_s).tobytes() == np.array(one).tobytes()
            assert np.array(w)[:, :, s].tobytes() == np.array(w_one).tobytes()
        assert np.array(one)[4:7, list(HEX_FACES[2])].tobytes() == bytes(8 * 12)


class TestDistanceRow:
    def test_cube_center(self, cube):
        row = frame_system(cube, (0, 0, 0))[7]
        assert np.allclose(row, np.sqrt(3.0) * DISTANCE_SIGNS)

    def test_zero_at_vertex(self, cube):
        p = cube.vertices[0]
        row = frame_system(cube, p)[7]
        assert row[0] == 0.0

    def test_tapered_hand_values(self, hex_tapered):
        p = np.array([0.0, 0.5, 0.0])
        row = frame_system(hex_tapered, p)[7]
        far = np.sqrt(4.25)
        expect = np.array([far, -far, 1.5, -1.5, -1.5, 1.5, -far, far])
        assert np.allclose(row, expect)


class TestSignPattern:
    def test_cube_interior_identity(self, cube):
        w = identity_coords(cube, (0.2, -0.3, 0.1))
        assert sign_pattern_ok(w, cube.diameter)

    def test_zero_entry_fails(self, cube):
        w = identity_coords(cube, (1.0, 0.0, 0.0))
        assert not sign_pattern_ok(w, cube.diameter)

    def test_tapered_origin_identity_fails(self, hex_tapered):
        # The third vertex offset has a zero component at the origin.
        w = identity_coords(hex_tapered, (0.0, 0.0, 0.0))
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
            exempt = {i for f in faces for i in HEX_FACES[f]}
            cols = [i for i in range(8) if i not in exempt]
            w = frame.coords(hexa.vertices)[:, cols]
            assert np.all(SIGN_PATTERN[:, cols] * w > PATTERN_ZERO_RTOL * hexa.diameter)

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

    @pytest.mark.parametrize("tilt", [0.0, 0.4])
    def test_stack_fails_where_single_point_raises(self, tilt):
        # Points around the solid, out to three times its extent, and on the
        # pair lines, where the wedge normal is not found: the stack's ok is
        # False exactly where reference_frame raises, and its rows are the
        # single point's rows, bit for bit, elsewhere.
        hexa = sampling.random_plane_hex(np.random.default_rng(7), tilt=tilt)
        v = hexa.vertices
        c = v.mean(axis=0)
        axes = [np.linspace(3 * lo - 2 * m, 3 * hi - 2 * m, 9)
                for lo, hi, m in zip(v.min(axis=0), v.max(axis=0), c)]
        pts = [np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)]
        for line, _ in hexa.pair_lines:
            if line is not None:
                pts.append([np.add(line[1], np.multiply(t, line[0])) for t in (-1.0, 0.0, 2.0)])
        pts = np.vstack(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, rows, _, ok = _frame(hexa, *pts.T, np.zeros((6, len(pts)), dtype=bool))
        rows = np.moveaxis(np.array(rows), -1, 0)
        raised = 0
        for s, p in enumerate(pts):
            try:
                frame = reference_frame(hexa, p)
            except FrameNotFound:
                raised += 1
                assert not ok[s], p
                continue
            assert ok[s] and np.array_equal(frame.rows, rows[s]), p
        assert 0 < raised < len(pts)

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

    def test_point_just_outside_a_corner_evaluates(self):
        # 1.33 tol from vertex 3 and within tol outside the planes of faces
        # 0, 3 and 4: the point is on all three faces.  Flagged on face 0
        # alone, pair 1's frame row would miss the sign pattern.
        # Nonnegativity is not asserted: the point lies outside the solid
        # and its weights reach -1.7e-10.
        hexa = sampling.random_affine_cube_hex(np.random.default_rng(0))
        p = np.array([4.92133820826643, -7.459685260726046, 5.356047637972352])
        loc = face_of_point_hex(hexa, p)
        assert (loc.kind, loc.faces) == ("on_face", (0, 3, 4))
        phi = moment_coords_hex(hexa, p)
        assert abs(phi.sum() - 1.0) <= checks.PARTITION_TOL
        precision = checks.linear_precision_error(phi[None], hexa.vertices, p[None])
        assert precision[0] <= checks.PRECISION_RTOL * hexa.diameter
        batch, ok, _ = moment_coords_hex_many(hexa, p[None])
        assert ok[0] and batch[0].tobytes() == phi.tobytes()

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
            idx = list(HEX_FACES[f])
            off = [i for i in range(8) if i not in idx]
            for p in sampling.face_points_hex(hex_tapered, f, 15, rng):
                loc = face_of_point_hex(hex_tapered, p)
                assert loc.kind == "on_face" and loc.index == f
                phi, frame = moment_coords_hex(hex_tapered, p, return_frame=True)
                assert np.abs(phi[off]).max() <= 1e-10
                quad2d = Quadrilateral(_induced_corners(f, frame.coords(hex_tapered.vertices)))
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


HEX_SCALES = [1e-12, 1e-6, 1e6, 1e9, 1e12, 1e15, 1e100]


@pytest.mark.parametrize("offset", [0.0, 3.0])
@pytest.mark.parametrize("scale", HEX_SCALES)
def test_hex_any_scale_evaluates(scale, offset):
    # The 8 x 8 system took its frame rows in absolute units against a
    # residual contract in absolute units and a pivot floor relative to
    # max|A|, whose ones row is 1: scaled by 1e6 some interior points raised
    # AssertionError (and the batch with them), from 1e9 every one, and
    # from 1e15 they raised SingularMatrix.  The rows are now taken in units
    # of a power of two next to the diameter (Hexahedron.unit_scale).
    hexa = Hexahedron(shapes.convex_hex().vertices * scale + offset * scale)
    rng = np.random.default_rng(1)
    p0 = np.array([0.0, 0.5, 0.0]) * scale + offset * scale
    pts = np.vstack([p0, sampling.interior_points_hex(hexa, 200, rng)])
    phi, ok, _ = moment_coords_hex_many(hexa, pts)
    assert ok.all()
    for s, p in enumerate(pts):
        assert np.array_equal(phi[s], moment_coords_hex(hexa, p))
    assert np.abs(phi.sum(axis=1) - 1.0).max() <= checks.PARTITION_TOL
    assert phi.min() >= -checks.NONNEG_TOL
    lp = checks.linear_precision_error(phi, hexa.vertices, pts).max()
    assert lp <= checks.PRECISION_RTOL * hexa.diameter


def test_induced_corner_stack_matches_the_one_point_form():
    # The facet reduction builds its induced quadrilaterals as one stack:
    # each row, reflected where the face runs clockwise in the frame, holds
    # the corners and the table bits of the Quadrilateral of its one-point
    # corners, which the tests take as the reference.
    rng = np.random.default_rng(40)
    hexahedra = [shapes.convex_hex(), sampling.random_plane_hex(rng, tilt=0.3)]
    hexahedra += [sampling.random_affine_cube_hex(rng) for _ in range(2)]
    reflected = set()
    for hexa in hexahedra:
        face = np.repeat(np.arange(6), 6)
        points = np.vstack([sampling.face_points_hex(hexa, f, 6, rng) for f in range(6)])
        _, ok, w, info = moment_coords_hex_many(hexa, points, return_frame_coords=True)
        judged = ok & (info.code == LOC_FACET) & (info.index == face)
        face, w = face[judged], w[judged]
        # Every induced face of these runs clockwise; the same rows with the
        # first of their face's two frame rows negated run counterclockwise.
        mirrored = w.copy()
        for s, f in enumerate(face.tolist()):
            mirrored[s, min({0, 1, 2} - {f // 2})] *= -1.0
        face, w = np.concatenate([face, face]), np.concatenate([w, mirrored])
        corners = _induced_corners(face, w)
        stack = QuadStack.from_corners(corners)
        for s, f in enumerate(face.tolist()):
            quad = Quadrilateral(_induced_corners(f, w[s]))
            assert corners[s].tobytes() == quad.vertices.tobytes()
            kernel = quad.reproducing_kernel
            ref = _quad_tables(quad.edge_rows, quad.corner_tuple, kernel, quad.diameter)
            assert stack._table[:, s].tobytes() == np.array(ref).tobytes()
            keep = [r for r in range(3) if r != f // 2]
            raw = w[s][keep][:, list(HEX_FACES[f])].T
            reflected.add(_quad_area(raw.tolist()) < 0)
    assert reflected == {False, True}
