import numpy as np
import pytest

from momentcoords import sampling
from momentcoords.coords1d import (
    DOMAIN_RTOL,
    _fold,
    _locate,
    hat_oracle,
    hat_oracle_many,
    moment_coords_1d,
    moment_coords_1d_many,
)
from momentcoords.errors import OutOfDomain, SingularMatrix
from momentcoords.geometry import NodeSet1D
from momentcoords.smallsolve import solve_dense
from oracles import build_system_1d


class TestHatOracle:
    def test_three_nodes(self):
        assert np.allclose(hat_oracle(NodeSet1D([0, 0.5, 1]), 0.25), [0.5, 0.5, 0])

    def test_left_endpoint(self):
        assert np.allclose(hat_oracle(NodeSet1D([0, 0.3, 0.7, 1]), 0.0), [1, 0, 0, 0])

    def test_middle_interval_midpoint(self):
        assert np.allclose(hat_oracle(NodeSet1D([0, 0.1, 0.9, 1]), 0.5), [0, 0.5, 0.5, 0])

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            hat_oracle(NodeSet1D([0, 0.5, 1]), 1.5)


class TestBuildSystem:
    def test_three_nodes_first_interval_matches_display(self):
        # For x in the first interval the permutation is the identity and the
        # three rows are exactly: ones, centered nodes, alternating distances.
        nodes = NodeSet1D([0.0, 0.4, 1.0])
        x = 0.1
        matrix, rhs, perm = build_system_1d(nodes, x)
        assert perm[0] == 0
        assert np.array_equal(perm, [0, 1, 2])
        xs = nodes.nodes
        expect = np.array(
            [
                [1.0, 1.0, 1.0],
                [xs[0] - x, xs[1] - x, xs[2] - x],
                [abs(xs[0] - x), -abs(xs[1] - x), abs(xs[2] - x)],
            ]
        )
        assert np.allclose(matrix, expect)
        assert np.array_equal(rhs, [1.0, 0.0, 0.0])

    def test_four_nodes_adjacency_row(self):
        matrix, _, perm = build_system_1d(NodeSet1D([0, 0.2, 0.7, 1]), 0.1)
        assert np.array_equal(perm, [0, 1, 2, 3])
        assert np.array_equal(matrix[3], [0, 0, 1, 1])

    def test_six_nodes_interior_interval_permutation(self):
        m, _, perm = build_system_1d(NodeSet1D(np.linspace(0, 1, 6)), 0.45)
        assert perm[0] == 2
        assert np.array_equal(perm, [2, 3, 0, 1, 4, 5])
        for r, pair in enumerate([(2, 3), (3, 4), (4, 5)]):
            row = np.zeros(6)
            row[list(pair)] = 1.0
            assert np.array_equal(m[3 + r], row)

    def test_distance_signs_follow_original_index(self):
        # Permuted position parity differs from node parity here; signs must
        # stay keyed to the original sorted index.
        nodes = NodeSet1D([0.0, 0.2, 0.5, 1.0])
        matrix, _, _ = build_system_1d(nodes, 0.3)  # interval [x2, x3], 1-based
        signs = np.sign(matrix[2])
        # permutation (1, 2, 0, 3): original parities -, +, +, -
        assert np.array_equal(signs, [-1, 1, 1, -1])

    def test_node_tie_takes_lower_interval(self):
        _, _, perm = build_system_1d(NodeSet1D([0, 0.25, 0.5, 0.75, 1]), 0.5)
        assert perm[0] == 1


class TestMomentCoords1D:
    def test_hat_midpoint(self):
        assert np.allclose(moment_coords_1d(NodeSet1D([0, 0.4, 1]), 0.2), [0.5, 0.5, 0])

    def test_kronecker_at_node(self):
        phi = moment_coords_1d(NodeSet1D([0, 0.25, 0.5, 0.75, 1]), 0.75)
        assert np.abs(phi - [0, 0, 0, 1, 0]).max() <= 1e-12

    def test_kronecker_every_node(self, rng):
        for _ in range(20):
            nodes = sampling.random_nodes(rng, int(rng.integers(3, 10)))
            for i, x in enumerate(nodes.nodes):
                phi = moment_coords_1d(nodes, float(x))
                expect = np.zeros(len(nodes))
                expect[i] = 1.0
                assert np.abs(phi - expect).max() <= 1e-12

    def test_matches_hat_oracle_randomly(self, rng):
        worst = 0.0
        for _ in range(800):
            nodes = sampling.random_nodes(rng, int(rng.integers(3, 13)))
            x = rng.uniform(nodes.nodes[0], nodes.nodes[-1])
            diff = np.abs(moment_coords_1d(nodes, x) - hat_oracle(nodes, x)).max()
            worst = max(worst, diff)
        assert worst <= 1e-10

    def test_every_interval_of_every_size(self, rng):
        for n in range(3, 13):
            nodes = sampling.random_nodes(rng, n)
            xs = nodes.nodes
            for k in range(n - 1):
                x = rng.uniform(xs[k], xs[k + 1])
                assert np.abs(moment_coords_1d(nodes, x) - hat_oracle(nodes, x)).max() <= 1e-10

    def test_partition_and_precision(self, rng):
        for _ in range(100):
            nodes = sampling.random_nodes(rng, 7)
            x = rng.uniform(nodes.nodes[0], nodes.nodes[-1])
            phi = moment_coords_1d(nodes, x)
            assert abs(phi.sum() - 1.0) <= 1e-12
            assert phi.min() >= -1e-12
            assert abs(phi @ nodes.nodes - x) <= 1e-10 * nodes.span

    def test_translation_scale_covariance(self, rng):
        for _ in range(50):
            nodes = sampling.random_nodes(rng, 6)
            x = rng.uniform(nodes.nodes[0], nodes.nodes[-1])
            a = rng.uniform(0.1, 10.0)
            b = rng.uniform(-100.0, 100.0)
            mapped = NodeSet1D(nodes.nodes * a + b)
            diff = np.abs(
                moment_coords_1d(nodes, x) - moment_coords_1d(mapped, a * x + b)
            ).max()
            assert diff <= 1e-10

    def test_out_of_domain(self):
        nodes = NodeSet1D([0, 0.5, 1])
        with pytest.raises(OutOfDomain):
            moment_coords_1d(nodes, -0.1)
        with pytest.raises(OutOfDomain):
            moment_coords_1d(nodes, 1.0 + 1e-6)

    def test_just_outside_within_tolerance_clamps(self):
        nodes = NodeSet1D([0, 0.5, 1])
        phi = moment_coords_1d(nodes, 1.0 + 1e-16)
        assert np.allclose(phi, [0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fn", [moment_coords_1d, hat_oracle])
    def test_non_finite_point_out_of_domain(self, fn, x):
        with pytest.raises(OutOfDomain, match=r"outside \[0\.0, 1\.0\]"):
            fn(NodeSet1D([0, 0.5, 1]), x)


def _fold_sample(seed, per_size=4, uniform=6, every_node=True):
    """Seeded node sets with n = 3..16, every other one moved to 1e6 and
    scaled by 1e3, each with uniform queries, node hits (every node, or the
    two endpoints and a middle one) and the two points clamped from within
    DOMAIN_RTOL outside the ends."""
    rng = np.random.default_rng(seed)
    for n in range(3, 17):
        for rep in range(per_size):
            nodes = sampling.random_nodes(rng, n)
            if rep % 2:
                nodes = NodeSet1D(nodes.nodes * 1e3 + 1e6)
            xs, tol = nodes.nodes, DOMAIN_RTOL * nodes.span
            hits = xs if every_node else xs[[0, n // 2, -1]]
            clamped = [xs[0] - 0.5 * tol, xs[-1] + 0.5 * tol]
            yield nodes, [*rng.uniform(xs[0], xs[-1], uniform), *hits, *clamped]


def _lu_coords(nodes, x):
    matrix, rhs, perm = build_system_1d(nodes, x)
    phi = np.empty(len(nodes))
    phi[perm] = solve_dense(matrix, rhs)
    return phi


def _mp_coords(nodes, x, mpmath):
    """The relabeled n x n system of build_system_1d solved in 50 digits."""
    matrix, rhs, perm = build_system_1d(nodes, x)
    sol = mpmath.lu_solve(mpmath.matrix(matrix.tolist()), mpmath.matrix(rhs.tolist()))
    phi = np.empty(len(nodes))
    phi[perm] = [float(v) for v in sol]
    return phi


class TestFold:
    # The folded 3 x 3 closed form against independent solves of the full
    # relabeled n x n system.  Measured worst: 3.3e-16 against the LU,
    # 2.2e-16 against 50 digits; the bound leaves a few ulps of margin.
    BOUND = 1e-15

    def test_matches_lu_solve(self):
        worst = 0.0
        for nodes, points in _fold_sample(5):
            for x in points:
                worst = max(worst, np.abs(moment_coords_1d(nodes, x) - _lu_coords(nodes, x)).max())
        assert worst <= self.BOUND

    def test_matches_50_digit_solve(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(50):
            for nodes, points in _fold_sample(6, per_size=2, uniform=3, every_node=False):
                for x in points:
                    ref = _mp_coords(nodes, x, mpmath)
                    worst = max(worst, np.abs(moment_coords_1d(nodes, x) - ref).max())
        assert worst <= self.BOUND

    def test_outside_weights_are_zero_and_none_negative(self):
        # t solves to an exact zero, and the two inside numerators are
        # nonnegative in floating point (|c1| <= c2 survives rounding), so
        # no weight is negative, not even -0.0.
        for nodes, points in _fold_sample(7, per_size=2):
            for x in points:
                phi = moment_coords_1d(nodes, x)
                k, _, _ = _locate(nodes, float(x))
                assert not np.signbit(phi).any()
                assert np.count_nonzero(np.delete(phi, [k, k + 1])) == 0

    def test_singular_determinant_refused(self):
        # Offsets that make the folded system singular: one point raises,
        # a stack marks the row instead.
        with pytest.raises(SingularMatrix, match="folded determinant"):
            _fold(0.0, 0.0, 1.0, 1.0, 0.0, 0.0)
        with np.errstate(invalid="ignore"):
            _, _, _, singular = _fold(
                np.array([-0.25, 0.0]), np.array([0.5, 0.0]), np.ones(2), 1.0,
                np.array([0.75, 0.0]), np.array([0.75, 0.0]),
            )
        assert singular.tolist() == [False, True]


SCALES = [1e-310, 1e-100, 1e-14, 1e-12, 1e8, 1e9, 1e12, 1e14, 1e100]


@pytest.mark.parametrize("offset", [0.0, 3.0])
@pytest.mark.parametrize("scale", SCALES)
def test_interval_any_scale_evaluates(scale, offset):
    # The n x n LU held its residual in absolute units and its pivot floor
    # relative to max|A|, whose ones row is 1 and whose offset rows carry
    # the scale: from 1e8 single points raised AssertionError (and the
    # batch with them), from 1e14 every point raised SingularMatrix, and so
    # did points from 1e-12 and every point from 1e-13.  The fold takes
    # offsets in units of L (1e-310: subnormal nodes, L = 2**-1023).
    base = sampling.random_nodes(np.random.default_rng(3), 7).nodes
    nodes = NodeSet1D(base * scale + offset * scale)
    xs = nodes.nodes
    x = np.concatenate([np.linspace(xs[0], xs[-1], 41), xs, (xs[:-1] + xs[1:]) / 2])
    phi, ok, _ = moment_coords_1d_many(nodes, x)
    hat, _, _ = hat_oracle_many(nodes, x)
    assert ok.all()
    for s, xq in enumerate(x):
        single = moment_coords_1d(nodes, xq)
        assert np.array_equal(phi[s], single)
        assert np.abs(single - hat[s]).max() <= 1e-15
