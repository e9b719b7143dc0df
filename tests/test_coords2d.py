import math
import warnings

import numpy as np
import pytest

from momentcoords import sampling
from momentcoords.coords2d import (
    cramer_coords_quad,
    moment_coords_quad,
    moment_coords_quad_many,
    mvc_oracle,
    wachspress_coords_quad,
    wachspress_coords_quad_many,
    wachspress_oracle,
)
from momentcoords.errors import (
    DegenerateTriangle,
    InvalidGeometry,
    NotConvex,
    OnBoundary,
    OutsideDomain,
)
from momentcoords.geometry import Quadrilateral
from momentcoords.smallsolve import solve_dense
from oracles import moment_row, triangle_barycentric, wachspress_row


class TestMomentRow:
    def test_biunit_center_symmetry(self, biunit):
        r = np.sqrt(2.0)
        assert np.allclose(moment_row(biunit, (0, 0)), [r, -r, r, -r])

    def test_at_vertex_zero_entry(self, biunit):
        row = moment_row(biunit, biunit.vertices[0])
        assert row[0] == 0.0
        assert np.all(row[[1, 3]] < 0) and row[2] > 0

    def test_nonconvex_quad_distances(self, quad_nonconvex):
        row = moment_row(quad_nonconvex, (1, 1))
        r = np.sqrt(2.0)
        assert np.allclose(row, [r, -r, 3.0, -1.0])


class TestMomentCoords:
    def test_biunit_center(self, biunit):
        assert np.allclose(moment_coords_quad(biunit, (0, 0)), 0.25)

    def test_edge_midpoint(self, quad_convex, quad_nonconvex, rng):
        for quad in (quad_convex, quad_nonconvex, sampling.random_simple_quad(rng)):
            v = quad.vertices
            phi = moment_coords_quad(quad, 0.5 * (v[0] + v[1]))
            assert np.abs(phi - [0.5, 0.5, 0.0, 0.0]).max() <= 1e-12

    def test_boundary_reduction(self, quad_nonconvex, rng):
        v = quad_nonconvex.vertices
        for i in range(4):
            for t in rng.uniform(0.05, 0.95, 6):
                p = (1 - t) * v[i] + t * v[(i + 1) % 4]
                expect = np.zeros(4)
                expect[i] = 1 - t
                expect[(i + 1) % 4] = t
                assert np.abs(moment_coords_quad(quad_nonconvex, p) - expect).max() <= 1e-10

    def test_kronecker(self, quad_convex, quad_nonconvex):
        for quad in (quad_convex, quad_nonconvex):
            for i in range(4):
                phi = moment_coords_quad(quad, quad.vertices[i])
                expect = np.zeros(4)
                expect[i] = 1.0
                assert np.array_equal(phi, expect)

    def test_exterior_raises(self, quad_nonconvex):
        with pytest.raises(OutsideDomain):
            moment_coords_quad(quad_nonconvex, (0.5, 1.5))

    def test_axioms_on_random_quads(self, rng):
        for _ in range(20):
            quad = sampling.random_simple_quad(rng)
            for p in sampling.interior_points_quad(quad, 25, rng):
                phi = moment_coords_quad(quad, p)
                assert abs(phi.sum() - 1.0) <= 1e-12
                assert phi.min() >= -1e-12
                assert np.abs(phi @ quad.vertices - p).max() <= 1e-10 * quad.diameter


class TestMvcOracle:
    def test_biunit_center(self, biunit):
        assert np.allclose(mvc_oracle(biunit, (0, 0)), 0.25)

    def test_boundary_raises(self, biunit):
        with pytest.raises(OnBoundary):
            mvc_oracle(biunit, (1.0, 0.0))

    def test_exterior_raises(self, biunit):
        with pytest.raises(OutsideDomain):
            mvc_oracle(biunit, (2.0, 0.0))

    def test_kite_mirror_symmetry(self):
        kite = Quadrilateral([(0, 0), (1, 1), (0, 3), (-1, 1)])
        for y in (0.4, 1.0, 1.7):
            phi = mvc_oracle(kite, (0.0, y))
            assert phi[1] == pytest.approx(phi[3], abs=1e-14)

    def test_matches_system_on_interiors(self, biunit, quad_convex, quad_nonconvex, rng):
        worst = 0.0
        for quad in (biunit, quad_convex, quad_nonconvex):
            for p in sampling.interior_points_quad(quad, 120, rng):
                diff = np.abs(moment_coords_quad(quad, p) - mvc_oracle(quad, p)).max()
                worst = max(worst, diff)
        assert worst <= 1e-10


class TestTriangleBarycentric:
    def test_centroid(self):
        tri = [(0, 0), (1, 0), (0, 1)]
        assert np.allclose(triangle_barycentric(tri, (1 / 3, 1 / 3)), 1 / 3)

    def test_vertex(self):
        tri = [(0, 0), (2, 0), (0, 2)]
        assert np.allclose(triangle_barycentric(tri, (2, 0)), [0, 1, 0])

    def test_outside_signed(self):
        tri = [(0, 0), (1, 0), (0, 1)]
        lam = triangle_barycentric(tri, (2, 2))
        assert lam.min() < 0
        assert lam.sum() == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateTriangle):
            triangle_barycentric([(0, 0), (1, 1), (2, 2)], (0.5, 0.5))


class TestCramer:
    def test_biunit_center(self, biunit):
        assert np.allclose(cramer_coords_quad(biunit, (0, 0)), 0.25)

    def test_kronecker(self, quad_convex):
        phi = cramer_coords_quad(quad_convex, quad_convex.vertices[1])
        assert np.abs(phi - [0, 1, 0, 0]).max() <= 1e-12

    def test_matches_system(self, quad_convex, quad_nonconvex, rng):
        worst = 0.0
        for quad in (quad_convex, quad_nonconvex):
            for p in sampling.interior_points_quad(quad, 150, rng):
                diff = np.abs(moment_coords_quad(quad, p) - cramer_coords_quad(quad, p)).max()
                worst = max(worst, diff)
        assert worst <= 1e-10


class TestWachspressRow:
    def test_biunit_center(self, biunit):
        assert np.allclose(wachspress_row(biunit, (0, 0)), [4, -4, 4, -4])

    def test_zero_pattern_on_edge(self, quad_convex, rng):
        # On edge v1v2 both weights touching that edge vanish.
        v = quad_convex.vertices
        p = 0.3 * v[0] + 0.7 * v[1]
        row = wachspress_row(quad_convex, p)
        assert row[0] == pytest.approx(0.0, abs=1e-14)
        assert row[1] == pytest.approx(0.0, abs=1e-14)
        assert abs(row[2]) > 0 and abs(row[3]) > 0

    def test_convex_quad_hand_values(self, quad_convex):
        # l = (1, sqrt(16.25), sqrt(4.25), 2); h at (0.5, 1) worked out from
        # the edge distances gives rho = (1, 1.5, 2.25, 1.5) before signs.
        row = wachspress_row(quad_convex, (0.5, 1.0))
        assert np.allclose(row, [1.0, -1.5, 2.25, -1.5])

    def test_nonconvex_refused(self, quad_nonconvex):
        with pytest.raises(NotConvex):
            wachspress_row(quad_nonconvex, (0.9, 1.5))


class TestWachspressCoords:
    def test_printed_fixture_point(self, quad_convex):
        phi = wachspress_coords_quad(quad_convex, (0.5, 1.0))
        assert np.abs(phi - [0.3, 0.4, 0.2, 0.1]).max() <= 1e-12

    def test_biunit_center(self, biunit):
        assert np.allclose(wachspress_coords_quad(biunit, (0, 0)), 0.25)

    def test_kronecker(self, quad_convex):
        phi = wachspress_coords_quad(quad_convex, quad_convex.vertices[2])
        assert np.array_equal(phi, [0, 0, 1, 0])

    def test_bilinear_on_biunit(self, biunit, rng):
        for p in sampling.interior_points_quad(biunit, 100, rng):
            x, y = p
            expect = 0.25 * np.array(
                [(1 - x) * (1 - y), (1 + x) * (1 - y), (1 + x) * (1 + y), (1 - x) * (1 + y)]
            )
            assert np.abs(wachspress_coords_quad(biunit, p) - expect).max() <= 1e-12

    def test_edge_points_reduce(self, quad_convex, rng):
        v = quad_convex.vertices
        for i in range(4):
            t = rng.uniform(0.1, 0.9)
            p = (1 - t) * v[i] + t * v[(i + 1) % 4]
            expect = np.zeros(4)
            expect[i] = 1 - t
            expect[(i + 1) % 4] = t
            assert np.abs(wachspress_coords_quad(quad_convex, p) - expect).max() <= 1e-10

    def test_nonconvex_refused(self, quad_nonconvex):
        with pytest.raises(NotConvex):
            wachspress_coords_quad(quad_nonconvex, (0.9, 1.5))

    def test_exterior_raises(self, quad_convex):
        with pytest.raises(OutsideDomain):
            wachspress_coords_quad(quad_convex, (5.0, 5.0))

    def test_matches_oracle_on_random_convex(self, rng):
        worst = 0.0
        for _ in range(15):
            quad = sampling.random_simple_quad(rng, convex=True)
            for p in sampling.interior_points_quad(quad, 40, rng):
                diff = np.abs(
                    wachspress_coords_quad(quad, p) - wachspress_oracle(quad, p)
                ).max()
                worst = max(worst, diff)
        assert worst <= 1e-10


class TestWachspressOracle:
    def test_printed_fixture_point(self, quad_convex):
        phi = wachspress_oracle(quad_convex, (0.5, 1.0))
        assert np.abs(phi - [0.3, 0.4, 0.2, 0.1]).max() <= 1e-12

    def test_boundary_raises(self, quad_convex):
        v = quad_convex.vertices
        with pytest.raises(OnBoundary):
            wachspress_oracle(quad_convex, 0.5 * (v[0] + v[1]))

    def test_nonconvex_refused(self, quad_nonconvex):
        with pytest.raises(NotConvex):
            wachspress_oracle(quad_nonconvex, (0.9, 1.5))


class TestCovariance:
    def test_wachspress_affine(self, quad_convex, rng):
        v = quad_convex.vertices
        for _ in range(20):
            a = np.eye(2) + rng.uniform(-0.5, 0.5, (2, 2))
            if abs(np.linalg.det(a)) < 0.3:
                continue
            b = rng.uniform(-10, 10, 2)
            mapped = Quadrilateral(v @ a.T + b)
            for p in sampling.interior_points_quad(quad_convex, 10, rng):
                diff = np.abs(
                    wachspress_coords_quad(quad_convex, p)
                    - wachspress_coords_quad(mapped, a @ p + b)
                ).max()
                assert diff <= 1e-9

    def test_moment_similarity(self, quad_nonconvex, rng):
        v = quad_nonconvex.vertices
        for _ in range(20):
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            a = rot * rng.uniform(0.2, 5.0)
            b = rng.uniform(-10, 10, 2)
            mapped = Quadrilateral(v @ a.T + b)
            for p in sampling.interior_points_quad(quad_nonconvex, 10, rng):
                diff = np.abs(
                    moment_coords_quad(quad_nonconvex, p)
                    - moment_coords_quad(mapped, a @ p + b)
                ).max()
                assert diff <= 1e-9


FAMILIES = {
    "moment": (moment_coords_quad, moment_coords_quad_many),
    "wachspress": (wachspress_coords_quad, wachspress_coords_quad_many),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("side", [1e-5, 1e9, 1e14, 1e100])
def test_square_of_any_size(family, side):
    # The 4 x 4 solve failed its residual contract on the square of side
    # 1e9, its pivot floor from 1e14, and the Wachspress row's diameter**4
    # overflowed at 1e100.  Wachspress is bilinear on a square, and moment
    # coordinates agree with it on the square's axis of symmetry x = s / 2.
    single, many = FAMILIES[family]
    quad = Quadrilateral(np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * side)
    points = np.array([(0.5, 1 / 3), (0.5, 0.5), (0.5, 0.25)]) * side
    expect = [[1 / 3, 1 / 3, 1 / 6, 1 / 6], [0.25] * 4, [0.375, 0.375, 0.125, 0.125]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, ok, _ = many(quad, points)
        assert ok.all()
        for p, row, want in zip(points, phi, expect):
            assert np.array_equal(single(quad, p), row)
            assert np.abs(row - want).max() <= 1e-14


def _lu_coords(quad, p, wachspress):
    """The 4 x 4 system the closed form replaced, assembled as it was and
    solved by LU: the ones row, v - p and the moment row (rhs e_0), or
    v - p, the ones row and the Wachspress row over diameter**4 (rhs e_2)."""
    v = quad.vertices
    x, y = float(p[0]), float(p[1])
    off = v.T - np.asarray(p, dtype=float)[:, None]
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    if wachspress:
        e = [v[(i + 1) % 4] - v[i] for i in range(4)]
        lens = [math.hypot(ex, ey) for ex, ey in e]
        h = [(e[i][0] * (y - v[i][1]) - e[i][1] * (x - v[i][0])) / lens[i] for i in range(4)]
        row = np.array([lens[i - 1] * lens[i] * h[i - 1] * h[i] for i in range(4)]) * signs
        matrix = [off[0], off[1], np.ones(4), row / quad.diameter**4]
        return solve_dense(np.array(matrix), [0.0, 0.0, 1.0, 0.0])
    row = np.array([math.hypot(off[0, i], off[1, i]) for i in range(4)]) * signs
    return solve_dense(np.array([np.ones(4), off[0], off[1], row]), [1.0, 0.0, 0.0, 0.0])


def _flatten_corner(quad, i, eps):
    """quad with vertex i moved to eps * diameter beyond the midpoint of the
    chord between its neighbours: a corner that is straight up to eps."""
    v = quad.vertices.copy()
    a, b = v[i - 1], v[(i + 1) % 4]
    e = b - a
    v[i] = 0.5 * (a + b) + eps * quad.diameter * np.array([e[1], -e[0]]) / np.linalg.norm(e)
    return Quadrilateral(v)


def _oracle_sample(seed, n_quads, n_points):
    """(quad, points) pairs: seeded random simple quads, a third of them with
    a corner flattened to 1e-7, a third moved by up to 1e6."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n_quads:
        quad = sampling.random_simple_quad(rng)
        if len(out) % 3 == 1:
            try:
                quad = _flatten_corner(quad, int(rng.integers(4)), 1e-7)
            except InvalidGeometry:
                continue
        if len(out) % 3 == 2:
            quad = Quadrilateral(quad.vertices + rng.uniform(-1e6, 1e6, 2))
        out.append((quad, sampling.interior_points_quad(quad, n_points, rng)))
    return out


def test_closed_form_matches_lu():
    worst = {False: 0.0, True: 0.0}
    for quad, points in _oracle_sample(5, 150, 5):
        for wachspress in (False, True) if quad.is_convex else (False,):
            single = wachspress_coords_quad if wachspress else moment_coords_quad
            for p in points:
                diff = np.abs(single(quad, p) - _lu_coords(quad, p, wachspress)).max()
                worst[wachspress] = max(worst[wachspress], diff)
    assert max(worst.values()) <= 1e-13, worst


def _mp_coords(quad, p, wachspress, mpmath):
    """The 4 x 4 system in 50-digit arithmetic, from the float vertices and
    point, with the Wachspress row as products of incident edge crosses."""
    v = [[mpmath.mpf(float(c)) for c in row] for row in quad.vertices]
    x, y = mpmath.mpf(float(p[0])), mpmath.mpf(float(p[1]))
    ux = [a - x for a, _ in v]
    uy = [b - y for _, b in v]
    if wachspress:
        c = [ux[i] * uy[(i + 1) % 4] - uy[i] * ux[(i + 1) % 4] for i in range(4)]
        row = [c[i - 1] * c[i] for i in range(4)]
    else:
        row = [mpmath.sqrt(ux[i] ** 2 + uy[i] ** 2) for i in range(4)]
    matrix = mpmath.matrix([[1] * 4, ux, uy, [(-1) ** i * row[i] for i in range(4)]])
    return np.array([float(t) for t in mpmath.lu_solve(matrix, mpmath.matrix([1, 0, 0, 0]))])


def test_closed_form_matches_50_digit_solve():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for quad, points in _oracle_sample(9, 30, 3):
            for wachspress in (False, True) if quad.is_convex else (False,):
                single = wachspress_coords_quad if wachspress else moment_coords_quad
                for p in points:
                    ref = _mp_coords(quad, p, wachspress, mpmath)
                    worst = max(worst, np.abs(single(quad, p) - ref).max())
    assert worst <= 5e-14
