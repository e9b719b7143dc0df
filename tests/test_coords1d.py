import numpy as np
import pytest

from momentcoords import sampling
from momentcoords.coords1d import build_system_1d, hat_oracle, moment_coords_1d
from momentcoords.errors import OutOfDomain
from momentcoords.geometry import NodeSet1D


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
