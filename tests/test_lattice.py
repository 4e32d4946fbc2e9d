import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treescan import FeatureMap, WeightedGraph, build_causal_graph, build_grid_graph
from treescan.oracle import pair_dissimilarity

from conftest import bfs_reachable


def pair_weight(metric, a, b):
    """The builders' weight of one pair of rows: the only edge of a 1x2 grid."""
    f = FeatureMap(np.stack([np.asarray(a, dtype=float), np.asarray(b, dtype=float)]),
                   spatial=(1, 2))
    return float(build_grid_graph(f, metric).weights[0])


def edge_rows(rng, n, channels):
    """n random rows with the cases the weights must survive: per-row scales
    of 1e-200 and 1e200, zero rows, and rows equal to their predecessor."""
    x = rng.standard_normal((n, channels))
    x *= 10.0 ** rng.choice([-200, 0, 0, 200], size=n)[:, None]
    x[rng.random(n) < 0.15] = 0.0
    for i in np.flatnonzero(rng.random(n) < 0.2):
        x[i] = x[i - 1]
    return x


def assert_weights_match_reference(graph, data, metric):
    """Every edge weight against ``pair_dissimilarity`` of its rows: within
    1e-12 relative for euclidean and manhattan, 1e-12 absolute for cosine."""
    for (u, v), w in zip(graph.edges.tolist(), graph.weights.tolist()):
        ref = pair_dissimilarity(metric, data[u], data[v])
        bound = 1e-12 if metric == "cosine" else 1e-12 * abs(ref)
        assert abs(w - ref) <= bound, (metric, u, v, w, ref)


class TestEdgeWeight:
    def test_identical_vectors_cosine(self):
        assert pair_weight("cosine", [1.0, 0.0], [1.0, 0.0]) == 0.0
        a = np.array([1.0, 0.3, -7.1])
        assert pair_weight("cosine", a, 2.0 * a) == 0.0  # equal up to a power of two

    def test_euclidean_345(self):
        assert pair_weight("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_cosine_orthogonal(self):
        assert pair_weight("cosine", [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_manhattan(self):
        assert pair_weight("manhattan", [1.0, -2.0], [0.0, 1.0]) == 4.0

    def test_zero_norm_cosine_is_one(self):
        assert pair_weight("cosine", [0.0, 0.0], [1.0, 2.0]) == 1.0
        assert pair_weight("cosine", [0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_cosine_clamped(self):
        assert pair_weight("cosine", [1.0, 0.0], [-1.0, 0.0]) <= 2.0

    def test_reference_rejects_mismatched_lengths(self):
        for metric in ("euclidean", "manhattan"):
            with pytest.raises(ValueError):
                pair_dissimilarity(metric, [1.0], [1.0, 2.0])

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            pair_weight("chebyshev", [1.0], [1.0])
        with pytest.raises(ValueError, match="unknown metric"):
            build_causal_graph(FeatureMap(np.ones((2, 1))), metric="chebyshev")
        with pytest.raises(ValueError, match="unknown metric"):
            pair_dissimilarity("chebyshev", [1.0], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pair_weight("euclidean", [np.nan], [1.0])

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_overflow_names_metric(self, metric):
        """Finite rows farther apart than float64 reaches: a ValueError that
        names the metric and the overflow, from both builders."""
        f = FeatureMap(np.array([[1e308, -1e308], [-1e308, 1e308]]), spatial=(1, 2))
        with pytest.raises(ValueError, match=f"^{metric} distance .* overflows float64$"):
            build_grid_graph(f, metric)
        with pytest.raises(ValueError, match=f"^{metric} distance .* overflows float64$"):
            build_causal_graph(f, metric=metric)
        assert build_grid_graph(f, "cosine").weights.tolist() == [2.0]

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.sampled_from(["cosine", "euclidean", "manhattan"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, a, b, metric):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        d_ab = pair_weight(metric, a, b)
        d_ba = pair_weight(metric, b, a)
        assert d_ab == d_ba
        assert d_ab >= 0.0

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_self_distance_zero(self, a):
        assert pair_weight("euclidean", a, a) == 0.0
        assert pair_weight("manhattan", a, a) == 0.0
        if np.linalg.norm(a) > 0:
            assert pair_weight("cosine", a, a) == 0.0

    def test_scaling_behavior(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        k = 3.5
        for metric in ("euclidean", "manhattan"):
            d1 = pair_weight(metric, a, b)
            dk = pair_weight(metric, k * a, k * b)
            assert dk == pytest.approx(k * d1, rel=1e-12)
        # cosine invariant under independent positive scaling of each vertex
        d1 = pair_weight("cosine", a, b)
        dk = pair_weight("cosine", 2.0 * a, 7.0 * b)
        assert dk == pytest.approx(d1, abs=1e-12)
        # near the float64 limits: no overflow to inf, no underflow to a zero norm
        for k in (1e200, 1e-200):
            for metric in ("euclidean", "manhattan"):
                dk = pair_weight(metric, k * a, k * b)
                assert dk == pytest.approx(k * pair_weight(metric, a, b), rel=1e-12)
            assert pair_weight("cosine", k * a, b) == pytest.approx(d1, abs=1e-12)
            assert pair_weight("cosine", a, k * b) == pytest.approx(d1, abs=1e-12)
        assert pair_weight("cosine", [1e-200, 0.0], [1.0, 3.0]) == pytest.approx(
            1.0 - 1.0 / np.sqrt(10.0), rel=1e-12)
        # a zero row does not set the scale of its tiny neighbor (once read 0.0)
        assert pair_weight("euclidean", [0.0, 0.0], [3e-200, 4e-200]) == pytest.approx(
            5e-200, rel=1e-12)

    def test_reference_fixed_values(self):
        """The reference on the hand-checked pairs above, at the same exactness."""
        assert pair_dissimilarity("euclidean", [0.0, 0.0], [3.0, 4.0]) == 5.0
        assert pair_dissimilarity("manhattan", [1.0, -2.0], [0.0, 1.0]) == 4.0
        assert pair_dissimilarity("cosine", [1.0, 0.0], [1.0, 0.0]) == 0.0
        assert pair_dissimilarity("cosine", [1.0, 0.0], [-1.0, 0.0]) == 2.0
        assert pair_dissimilarity("cosine", [0.0, 0.0], [1.0, 2.0]) == 1.0
        assert pair_dissimilarity("cosine", [0.0, 0.0], [0.0, 0.0]) == 1.0
        assert pair_dissimilarity("cosine", [1e-200, 0.0], [1.0, 3.0]) == pytest.approx(
            1.0 - 1.0 / np.sqrt(10.0), rel=1e-12)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
    def test_grid_matches_reference(self, metric):
        rng = np.random.default_rng(16)
        shapes = [(1, 1), (1, 2), (2, 1)] + [tuple(rng.integers(1, 7, size=2)) for _ in range(40)]
        for h, w in shapes:
            data = edge_rows(rng, h * w, int(rng.integers(1, 6)))
            g = build_grid_graph(FeatureMap(data, spatial=(int(h), int(w))), metric)
            assert g.num_edges == h * (w - 1) + w * (h - 1)
            assert_weights_match_reference(g, data, metric)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean", "manhattan"])
    def test_causal_matches_reference(self, metric):
        """Random lengths from 2, and m up to past L - 1."""
        rng = np.random.default_rng(17)
        for n in [2, 2, 3] + rng.integers(2, 40, size=40).tolist():
            data = edge_rows(rng, n, int(rng.integers(1, 6)))
            m = int(rng.integers(1, n + 3))
            g = build_causal_graph(FeatureMap(data), m=m, metric=metric)
            assert g.num_edges == sum(n - d for d in range(1, min(m, n - 1) + 1))
            assert_weights_match_reference(g, data, metric)


class TestFeatureMap:
    def test_basic(self):
        f = FeatureMap(np.zeros((6, 2)), spatial=(2, 3))
        assert f.num_tokens == 6 and f.data.shape[1] == 2

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

    @pytest.mark.parametrize("data,spatial,message", [
        (np.zeros((0, 2)), None, "need L >= 1 and C >= 1"),
        (np.zeros((3, 0)), None, "need L >= 1 and C >= 1"),
        (np.zeros((3, 1)), (-1, -3), "spatial shape must be positive"),
        (np.zeros((1, 1)), (1, 0), "spatial shape must be positive"),
    ])
    def test_empty_or_nonpositive_shape(self, data, spatial, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FeatureMap(data, spatial=spatial)


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

    @pytest.mark.parametrize("edges,weights,message", [
        (np.zeros((2, 3)), np.zeros(2), "edges must be (E, 2), got (2, 3)"),
        (np.zeros(2), np.zeros(1), "edges must be (E, 2), got (2,)"),
        ([[0, 1], [1, 2]], [0.0], "weights length must match edge count"),
        ([[0, 1], [1, 3]], [0.0, 0.0], "edge endpoint out of range"),
        ([[-1, 1]], [0.0], "edge endpoint out of range"),
        ([[1, 0]], [0.0], "edges must satisfy u < v"),
        ([[1, 1]], [0.0], "edges must satisfy u < v"),
        ([[0, 1]], [-1.0], "edge weights must be finite and >= 0"),
        ([[0, 1]], [np.inf], "edge weights must be finite and >= 0"),
        ([[0, 1]], [np.nan], "edge weights must be finite and >= 0"),
    ])
    def test_invalid_graph_rejected(self, edges, weights, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightedGraph(3, np.asarray(edges), np.asarray(weights))


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

    def test_weights_match_pair_grid(self):
        """Each edge's weight is, bit for bit, that of its two rows alone."""
        rng = np.random.default_rng(5)
        f = FeatureMap(rng.standard_normal((12, 3)), spatial=(3, 4))
        for metric in ("cosine", "euclidean", "manhattan"):
            g = build_grid_graph(f, metric)
            for (u, v), w in zip(g.edges.tolist(), g.weights.tolist()):
                assert w == pair_weight(metric, f.data[u], f.data[v])

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

    def test_m0_rejected(self):
        with pytest.raises(ValueError, match="m must be >= 1"):
            build_causal_graph(FeatureMap(np.zeros((3, 1))), m=0)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 5), (7, 3), (50, 4), (513, 3)])
    def test_shift_blocks_are_sorted_runs(self, n, m):
        """One block per shift d = 1 .. min(m, n - 1), in that order: the
        n - d edges (j, j + d), ascending in j, so each block is a run of
        ascending u * n + v keys."""
        g = build_causal_graph(FeatureMap(np.zeros((n, 1))), m=m)
        shifts = range(1, min(m, n - 1) + 1)
        bounds = np.cumsum([0] + [n - d for d in shifts])
        assert bounds[-1] == g.num_edges
        for d, lo, hi in zip(shifts, bounds, bounds[1:]):
            u, v = g.edges[lo:hi, 0], g.edges[lo:hi, 1]
            np.testing.assert_array_equal(u, np.arange(n - d))
            np.testing.assert_array_equal(v - u, d)
            assert np.all(np.diff(u * n + v) > 0)

    @pytest.mark.parametrize("n,m", [(2, 1), (6, 3), (40, 2), (300, 4)])
    def test_same_edge_set_as_later_earlier_listing(self, n, m):
        """Sorted by (later, earlier) token, the edges are the pairs (j, i)
        for j in [max(0, i - m), i), listed per later token i."""
        g = build_causal_graph(FeatureMap(np.zeros((n, 1))), m=m)
        order = np.lexsort((g.edges[:, 0], g.edges[:, 1]))
        listed = [[j, i] for i in range(1, n) for j in range(max(0, i - m), i)]
        assert g.edges[order].tolist() == listed
