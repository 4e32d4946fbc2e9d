import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescan import (FeatureMap, WeightedGraph, build_causal_graph, build_grid_graph,
                      vertex_dissimilarity)

from conftest import bfs_reachable


class TestVertexDissimilarity:
    def test_identical_vectors_cosine(self):
        assert vertex_dissimilarity("cosine", [1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_euclidean_345(self):
        assert vertex_dissimilarity("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_cosine_orthogonal(self):
        assert vertex_dissimilarity("cosine", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_manhattan(self):
        assert vertex_dissimilarity("manhattan", [1.0, -2.0], [0.0, 1.0]) == 4.0

    def test_zero_norm_cosine_is_one(self):
        assert vertex_dissimilarity("cosine", [0.0, 0.0], [1.0, 2.0]) == 1.0
        assert vertex_dissimilarity("cosine", [0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_cosine_clamped(self):
        assert vertex_dissimilarity("cosine", [1.0, 0.0], [-1.0, 0.0]) <= 2.0

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            vertex_dissimilarity("euclidean", [1.0], [1.0, 2.0])

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            vertex_dissimilarity("chebyshev", [1.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            vertex_dissimilarity("euclidean", [np.nan], [1.0])

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.sampled_from(["cosine", "euclidean", "manhattan"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b, metric):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        d_ab = vertex_dissimilarity(metric, a, b)
        d_ba = vertex_dissimilarity(metric, b, a)
        assert d_ab == d_ba
        assert d_ab >= 0.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_self_distance_zero(self, a):
        assert vertex_dissimilarity("euclidean", a, a) == 0.0
        assert vertex_dissimilarity("manhattan", a, a) == 0.0
        if np.linalg.norm(a) > 0:
            assert vertex_dissimilarity("cosine", a, a) == 0.0

    def test_scaling_behavior(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        k = 3.5
        for metric in ("euclidean", "manhattan"):
            d1 = vertex_dissimilarity(metric, a, b)
            dk = vertex_dissimilarity(metric, k * a, k * b)
            assert dk == pytest.approx(k * d1, rel=1e-12)
        # cosine invariant under independent positive scaling of each vertex
        d1 = vertex_dissimilarity("cosine", a, b)
        dk = vertex_dissimilarity("cosine", 2.0 * a, 7.0 * b)
        assert dk == pytest.approx(d1, abs=1e-12)
        # near the float64 limits: no overflow to inf, no underflow to a zero norm
        for k in (1e200, 1e-200):
            for metric in ("euclidean", "manhattan"):
                dk = vertex_dissimilarity(metric, k * a, k * b)
                assert dk == pytest.approx(k * vertex_dissimilarity(metric, a, b), rel=1e-12)
            assert vertex_dissimilarity("cosine", k * a, b) == pytest.approx(d1, abs=1e-12)
            assert vertex_dissimilarity("cosine", a, k * b) == pytest.approx(d1, abs=1e-12)
        assert vertex_dissimilarity("cosine", [1e-200, 0.0], [1.0, 3.0]) == pytest.approx(
            1.0 - 1.0 / np.sqrt(10.0), rel=1e-12)


class TestFeatureMap:
    def test_basic(self):
        f = FeatureMap(np.zeros((6, 2)), spatial=(2, 3))
        assert f.num_tokens == 6 and f.num_channels == 2

    def test_spatial_mismatch(self):
        """A size that does not multiply out to L, or is not an int (numpy
        ints pass, bools and floats do not)."""
        for data, spatial in ((np.zeros((5, 2)), (2, 3)), (np.ones((5, 2)), (2.5, 2)),
                              (np.ones((4, 2)), (True, 4)), (np.ones((4, 2)), (2.0, 2)),
                              (np.ones((4, 2)), (np.bool_(True), 4))):
            with pytest.raises(ValueError, match="spatial shape"):
                FeatureMap(data, spatial=spatial)
        assert FeatureMap(np.ones((4, 2)), spatial=(np.int64(2), 2)).spatial == (2, 2)

    def test_nonfinite(self):
        with pytest.raises(ValueError):
            FeatureMap(np.array([[np.inf]]))

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros(4))


class TestWeightedGraph:
    def test_duplicate_edges_rejected(self):
        # the duplicate pair is the first and the last edge, far apart in edge order
        edges = np.array([[0, 3], [1, 2], [0, 1], [2, 3], [0, 3]])
        with pytest.raises(ValueError, match="^duplicate edges$"):
            WeightedGraph(4, edges, np.ones(5))
        with pytest.raises(ValueError, match="^duplicate edges$"):
            WeightedGraph(4, np.array([[1, 2], [1, 2]]), np.ones(2))
        g = WeightedGraph(4, edges[:4], np.ones(4))  # u * L + v keys differ: 3, 6, 1, 11
        assert g.num_edges == 4
        assert WeightedGraph(1, np.zeros((0, 2)), np.zeros(0)).num_edges == 0


class TestGridGraph:
    def two_region_2x2(self):
        data = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        return FeatureMap(data, spatial=(2, 2))

    def test_2x2_edges(self):
        g = build_grid_graph(self.two_region_2x2(), "cosine")
        assert sorted(map(tuple, g.edges.tolist())) == [(0, 1), (0, 2), (1, 3), (2, 3)]

    def test_2x2_two_region_weights(self):
        g = build_grid_graph(self.two_region_2x2(), "cosine")
        w = {tuple(e): wt for e, wt in zip(g.edges.tolist(), g.weights.tolist())}
        assert w[(0, 1)] == pytest.approx(0.0, abs=1e-15)
        assert w[(2, 3)] == pytest.approx(0.0, abs=1e-15)
        assert w[(0, 2)] == pytest.approx(1.0)
        assert w[(1, 3)] == pytest.approx(1.0)

    def test_weights_match_scalar_metric(self):
        rng = np.random.default_rng(5)
        f = FeatureMap(rng.standard_normal((12, 3)), spatial=(3, 4))
        for metric in ("cosine", "euclidean", "manhattan"):
            g = build_grid_graph(f, metric)
            for (u, v), w in zip(g.edges.tolist(), g.weights.tolist()):
                assert w == vertex_dissimilarity(metric, f.data[u], f.data[v])

    def test_3x3_edge_count(self):
        f = FeatureMap(np.zeros((9, 1)), spatial=(3, 3))
        assert build_grid_graph(f).num_edges == 12

    def test_edge_count_formula_exhaustive(self):
        for h in range(1, 65):
            for w in range(1, 65):
                f = FeatureMap(np.zeros((h * w, 1)), spatial=(h, w))
                g = build_grid_graph(f, "euclidean")
                assert g.num_edges == h * (w - 1) + w * (h - 1)

    def test_connected(self):
        rng = np.random.default_rng(1)
        for h, w in [(1, 7), (4, 4), (3, 9)]:
            f = FeatureMap(rng.standard_normal((h * w, 2)), spatial=(h, w))
            g = build_grid_graph(f)
            assert bfs_reachable(g.num_vertices, g.edges)

    def test_single_pixel_is_edgeless(self):
        g = build_grid_graph(FeatureMap(np.zeros((1, 1)), spatial=(1, 1)))
        assert g.num_vertices == 1
        assert g.edges.shape == (0, 2) and g.weights.shape == (0,)

    def test_missing_spatial_errors(self):
        with pytest.raises(ValueError):
            build_grid_graph(FeatureMap(np.zeros((4, 1))))


class TestCausalGraph:
    def test_l4_m3(self):
        g = build_causal_graph(FeatureMap(np.zeros((4, 1))), m=3)
        assert sorted(map(tuple, g.edges.tolist())) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]

    def test_m1_is_a_path(self):
        g = build_causal_graph(FeatureMap(np.zeros((5, 1))), m=1)
        assert g.edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4]]

    def test_identical_tokens_zero_weights(self):
        g = build_causal_graph(FeatureMap(np.ones((3, 2))), m=3, metric="cosine")
        assert g.num_edges == 3
        np.testing.assert_allclose(g.weights, 0.0, atol=1e-15)

    def test_connected(self):
        rng = np.random.default_rng(2)
        for n, m in [(2, 1), (9, 3), (17, 4)]:
            g = build_causal_graph(FeatureMap(rng.standard_normal((n, 2))), m=m)
            assert bfs_reachable(g.num_vertices, g.edges)

    def test_too_short(self):
        with pytest.raises(ValueError):
            build_causal_graph(FeatureMap(np.zeros((1, 1))), m=1)
