import numpy as np
import pytest

from momentcoords import geometry, sampling, shapes
from momentcoords.errors import DomainError, OutsideDomain
from momentcoords.geometry import (
    LOC_INTERIOR,
    Quadrilateral,
    _locate_quad,
    classify_point_quad,
    face_of_point_hex,
    hex_violations,
    quad_violations,
)
from momentcoords.gradients import finite_difference_gradient
from momentcoords.coords2d import moment_coords_quad


def test_interior_points_quad_are_interior(biunit, rng):
    pts = sampling.interior_points_quad(biunit, 50, rng)
    assert pts.shape == (50, 2)
    for p in pts:
        assert classify_point_quad(biunit, p).kind == "interior"


def test_interior_sampler_raises_instead_of_hanging(rng):
    sliver = Quadrilateral([(0, 0), (1, 0), (1, 1e-5), (0, 1e-5)])
    with pytest.raises(DomainError):
        sampling.interior_points_quad(sliver, 3, rng, margin=1e-3)


# The samplers' former one-point-per-attempt loops: the vectorized samplers
# must return their points and leave the generator in their state.


def _loop_interior_points_quad(quad, n, rng, margin=1e-5):
    lo = quad.vertices.min(axis=0)
    hi = quad.vertices.max(axis=0)
    keep = margin * quad.diameter
    out = []
    attempts = 0
    budget = 2000 * (n + 10)
    while len(out) < n:
        attempts += 1
        if attempts > budget:
            raise ValueError("budget")
        p = rng.uniform(lo, hi)
        code, _, _, dist = _locate_quad(quad, *p.tolist())
        if code != LOC_INTERIOR or dist < keep:
            continue
        out.append(p)
    return np.array(out)


def _loop_interior_points_hex(hexa, n, rng, margin=1e-7):
    lo = hexa.vertices.min(axis=0)
    hi = hexa.vertices.max(axis=0)
    keep = margin * hexa.diameter
    out = []
    attempts = 0
    budget = 2000 * (n + 10)
    while len(out) < n:
        attempts += 1
        if attempts > budget:
            raise ValueError("budget")
        p = rng.uniform(lo, hi)
        if np.all(np.array(hexa._signed_distances(*p)) < -keep):
            out.append(p)
    return np.array(out)


def _assert_same_stream(vectorized, loop, geom, n, seed, **kwargs):
    # At the default chunk and at chunks of 7 attempts, which take several
    # passes for all but the smallest n.
    rng_old = np.random.default_rng(seed)
    old = loop(geom, n, rng_old, **kwargs)
    state = rng_old.bit_generator.state
    after = rng_old.uniform()
    for chunk in (geometry.BATCH_CHUNK, 7):
        rng_new = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "BATCH_CHUNK", chunk)
            new = vectorized(geom, n, rng_new, **kwargs)
        assert new.shape == old.shape and np.array_equal(new, old)
        assert rng_new.bit_generator.state == state
        # The next draw agrees too.
        assert rng_new.uniform() == after


_QUADS = {
    "biunit": shapes.biunit_square,
    "convex": shapes.convex_quad,
    "nonconvex": shapes.nonconvex_quad,
    "nonconvex+1e6": lambda: Quadrilateral(shapes.nonconvex_quad().vertices + [1e6, -7e5]),
    "random": lambda: sampling.random_simple_quad(np.random.default_rng(4)),
    "thin": lambda: Quadrilateral([(0, 0), (1, 0), (1, 0.02), (0, 0.01)]),
}


@pytest.mark.parametrize("name", sorted(_QUADS))
@pytest.mark.parametrize("n", [1, 7, 120])
def test_interior_points_quad_same_stream_as_loop(name, n):
    quad = _QUADS[name]()
    new, loop = sampling.interior_points_quad, _loop_interior_points_quad
    for seed in (0, 7):
        _assert_same_stream(new, loop, quad, n, seed)
    _assert_same_stream(new, loop, quad, n, 3, margin=1e-3)


_HEXES = {
    "conv-hex": shapes.convex_hex,
    "cube": shapes.cube,
    "plane": lambda: sampling.random_plane_hex(np.random.default_rng(2), tilt=0.4),
    "affine+1e3": lambda: sampling.random_affine_cube_hex(np.random.default_rng(5)),
}


@pytest.mark.parametrize("name", sorted(_HEXES))
@pytest.mark.parametrize("n", [1, 7, 120])
def test_interior_points_hex_same_stream_as_loop(name, n):
    hexa = _HEXES[name]()
    for seed in (0, 7):
        _assert_same_stream(sampling.interior_points_hex, _loop_interior_points_hex, hexa, n, seed)


@pytest.mark.parametrize("n", [0, -2])
def test_samplers_draw_nothing_for_no_points(n):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    assert sampling.interior_points_quad(shapes.convex_quad(), n, rng).shape == (0,)
    assert sampling.interior_points_hex(shapes.cube(), n, rng).shape == (0,)
    assert rng.bit_generator.state == state


def _state_after_attempts(seed, lo, hi, attempts):
    # One (attempts, dim) draw takes the numbers of that many one-point
    # draws (the same-stream tests above rest on it too).
    rng = np.random.default_rng(seed)
    rng.uniform(lo, hi, size=(attempts, len(lo)))
    return rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 3])
def test_budget_exhaustion_after_the_same_attempts(n):
    # The loop raised after 2000 * (n + 10) attempts of one uniform point
    # each; the vectorized samplers raise after drawing exactly as many.
    budget = 2000 * (n + 10)
    sliver = Quadrilateral([(0, 0), (1, 0), (1, 1e-5), (0, 1e-5)])
    rng = np.random.default_rng(9)
    with pytest.raises(DomainError, match="could not sample"):
        sampling.interior_points_quad(sliver, n, rng, margin=1e-3)
    lo, hi = sliver.vertices.min(axis=0), sliver.vertices.max(axis=0)
    assert rng.bit_generator.state == _state_after_attempts(9, lo, hi, budget)

    cube = shapes.cube()
    rng = np.random.default_rng(9)
    with pytest.raises(DomainError, match="could not sample"):
        sampling.interior_points_hex(cube, n, rng, margin=1.0)
    lo, hi = cube.vertices.min(axis=0), cube.vertices.max(axis=0)
    assert rng.bit_generator.state == _state_after_attempts(9, lo, hi, budget)


@pytest.mark.parametrize("name", sorted(_QUADS))
def test_boundary_distance_batch_equals_single_point(name):
    # interior_points_quad keeps a candidate by its nearest-edge distance
    # from the stacked point location; one point gets the same bits, so a
    # chunk decides as the loop of single points does.
    quad = _QUADS[name]()
    rng = np.random.default_rng(12)
    lo, hi = quad.vertices.min(axis=0), quad.vertices.max(axis=0)
    pts = rng.uniform(lo, hi, size=(500, 2))
    batch = _locate_quad(quad, pts[:, 0], pts[:, 1])[3]
    single = [_locate_quad(quad, *p.tolist())[3] for p in pts]
    assert batch.tobytes() == np.array(single).tobytes()


def test_random_simple_quads_valid_and_both_classes(rng):
    kinds = set()
    for _ in range(40):
        quad = sampling.random_simple_quad(rng)
        assert quad_violations(quad.vertices) == []
        kinds.add(quad.is_convex)
    assert kinds == {True, False}


def test_random_affine_cube_hexes_valid(rng):
    for _ in range(5):
        hexa = sampling.random_affine_cube_hex(rng)
        assert hex_violations(hexa.vertices) == []


def test_random_plane_hexes_valid_and_nonparallel(rng):
    saw_nonparallel = False
    for _ in range(5):
        hexa = sampling.random_plane_hex(rng)
        assert hex_violations(hexa.vertices) == []
        for fa, fb in geometry.HEX_OPPOSITE_PAIRS:
            na, nb = np.array(hexa.face_normals[fa]), np.array(hexa.face_normals[fb])
            if np.linalg.norm(np.cross(na, nb)) > 1e-6:
                saw_nonparallel = True
    assert saw_nonparallel


def _loop_face_points_hex(hexa, f, n, rng, margin=0.05):
    corners = hexa.vertices[list(geometry.HEX_FACES[f])]
    out = []
    for _ in range(n):
        s, t = rng.uniform(margin, 1.0 - margin, 2)
        out.append(
            (1 - s) * (1 - t) * corners[0]
            + s * (1 - t) * corners[1]
            + s * t * corners[2]
            + (1 - s) * t * corners[3]
        )
    return np.array(out)


@pytest.mark.parametrize("name", sorted(_HEXES))
@pytest.mark.parametrize("n", [1, 5, 17])
def test_face_points_hex_same_stream_as_loop(name, n):
    # One (n, 2) draw and one blend give the loop's points bit for bit.
    hexa = _HEXES[name]()
    for f in range(6):
        rng_new, rng_old = np.random.default_rng(f), np.random.default_rng(f)
        new = sampling.face_points_hex(hexa, f, n, rng_new)
        old = _loop_face_points_hex(hexa, f, n, rng_old)
        assert new.shape == old.shape == (n, 3) and new.tobytes() == old.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def test_face_points_hex_none():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    assert sampling.face_points_hex(shapes.cube(), 0, 0, rng).shape == (0, 3)
    assert rng.bit_generator.state == state


def test_face_points_land_on_their_face(rng):
    hexa = sampling.random_affine_cube_hex(rng)
    for f in range(6):
        for p in sampling.face_points_hex(hexa, f, 10, rng):
            loc = face_of_point_hex(hexa, p)
            assert loc.kind == "on_face" and loc.index == f


def test_random_nodes_spacing(rng):
    for _ in range(20):
        nodes = sampling.random_nodes(rng, 9, min_gap=1e-3)
        gaps = np.diff(nodes.nodes)
        assert gaps.min() >= 1e-3 * nodes.span


class TestFiniteDifferenceGradient:
    def test_central_on_linear_field(self, biunit):
        grad = finite_difference_gradient(
            lambda p: np.array([p[0] + 2 * p[1], -p[0]]),
            lambda p: True,
            np.array([0.1, 0.2]),
            1e-6,
        )
        assert np.allclose(grad, [[1, 2], [-1, 0]], atol=1e-9)

    def test_one_sided_near_boundary(self, biunit):
        # x + h would leave the square, so the x column falls back to a
        # one-sided difference; the identities still hold.
        p = np.array([1.0, 0.3])

        def inside(q):
            return classify_point_quad(biunit, q).inside

        grad = finite_difference_gradient(
            lambda q: moment_coords_quad(biunit, q), inside, p, 1e-6 * biunit.diameter
        )
        assert np.abs(grad.sum(axis=0)).max() <= 1e-6
        assert np.abs(biunit.vertices.T @ grad - np.eye(2)).max() <= 1e-5

    def test_no_admissible_step_raises(self, quad_convex):
        apex = quad_convex.vertices[2]  # sharp corner; both x offsets exit

        def inside(q):
            return classify_point_quad(quad_convex, q).inside

        with pytest.raises(OutsideDomain):
            moment_coords_quad(quad_convex, apex + [0.0, 1.0])
        from momentcoords.errors import DomainError

        with pytest.raises(DomainError):
            finite_difference_gradient(
                lambda q: moment_coords_quad(quad_convex, q),
                inside,
                apex,
                1e-6 * quad_convex.diameter,
            )
