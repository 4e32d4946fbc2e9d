import itertools

import numpy as np
import pytest

from treescan import (
    FeatureMap,
    SpanningTree,
    WeightedGraph,
    boruvka_mst,
    build_causal_graph,
    build_grid_graph,
    kruskal_mst,
    root_tree,
)
from treescan.selfcheck import chain_tree, random_connected_graph


def construction_cases():
    """A 40x40 constant image (every weight ties), a causal m=3 graph, a chain
    and a single pixel: the tie-heavy, deep and edgeless shapes."""
    rng = np.random.default_rng(5)
    return [
        build_grid_graph(FeatureMap(np.ones((1, 2)), spatial=(1, 1)), "cosine"),
        build_grid_graph(FeatureMap(np.ones((1600, 2)), spatial=(40, 40)), "cosine"),
        build_causal_graph(FeatureMap(rng.standard_normal((500, 4))), m=3),
        build_causal_graph(FeatureMap(rng.standard_normal((300, 4))), m=1),
    ]


def test_triangle_unique_mst():
    g = WeightedGraph(3, np.array([[0, 1], [0, 2], [1, 2]]), np.array([1.0, 3.0, 2.0]))
    edges, weights = boruvka_mst(g)
    assert edges.tolist() == [[0, 1], [1, 2]]
    assert weights.sum() == 3.0


def test_two_region_grid_keeps_zero_edges():
    data = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    g = build_grid_graph(FeatureMap(data, spatial=(2, 2)), "cosine")
    edges, weights = boruvka_mst(g)
    ke, kw = kruskal_mst(g)
    assert weights.sum() == pytest.approx(kw.sum())
    assert weights.sum() == pytest.approx(1.0)
    kept = set(map(tuple, edges.tolist()))
    assert (0, 1) in kept and (2, 3) in kept


def test_matches_kruskal_on_random_graph():
    rng = np.random.default_rng(42)
    g = random_connected_graph(rng, 64, extra_edges=140)
    _, bw = boruvka_mst(g)
    _, kw = kruskal_mst(g)
    assert bw.sum() == pytest.approx(kw.sum(), abs=1e-12)


def test_matches_kruskal_exactly_with_distinct_weights():
    rng = np.random.default_rng(9)
    graphs = construction_cases()
    for _ in range(40):
        n = int(rng.integers(2, 200))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)), distinct=True)
        graphs.append(g)
    for g in graphs:
        be, bw = boruvka_mst(g)
        ke, kw = kruskal_mst(g)
        assert be.shape == ke.shape == (g.num_vertices - 1, 2)
        assert be.tolist() == ke.tolist()
        np.testing.assert_array_equal(bw, kw)


def test_tie_breaking_is_deterministic_and_matches_kruskal():
    # constant image: every edge weight ties at zero
    f = FeatureMap(np.ones((12, 2)), spatial=(3, 4))
    for g in [build_grid_graph(f, "cosine")] + construction_cases():
        be, _ = boruvka_mst(g)
        ke, _ = kruskal_mst(g)
        assert be.tolist() == ke.tolist()
        be2, _ = boruvka_mst(g)
        assert be.tolist() == be2.tolist()


def test_disconnected_graph_reports_component():
    g = WeightedGraph(4, np.array([[0, 1], [2, 3]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="disconnected"):
        boruvka_mst(g)
    # a forest of three trees: the error names vertex 0's component
    forest = WeightedGraph(7, np.array([[0, 4], [1, 2], [2, 3], [4, 6], [3, 5]]),
                           np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    with pytest.raises(ValueError, match=r"component of vertex 0 = \[0, 4, 6\] "
                                         r"cannot reach the remaining 4 vertices"):
        boruvka_mst(forest)


def test_cut_property_exhaustive_small():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = 8
        g = random_connected_graph(rng, n, extra_edges=10, distinct=True)
        mst_edges = set(map(tuple, boruvka_mst(g)[0].tolist()))
        for r in range(1, n):
            for subset in itertools.combinations(range(n), r):
                side = set(subset)
                crossing = [
                    (w, u, v)
                    for (u, v), w in zip(g.edges.tolist(), g.weights.tolist())
                    if (u in side) != (v in side)
                ]
                if crossing:
                    _, u, v = min(crossing)
                    assert (u, v) in mst_edges


class TestRootTree:
    def path(self):
        return np.array([[0, 1], [1, 2]]), np.array([0.25, 0.5])

    def test_path_rooted_at_0(self):
        edges, w = self.path()
        t = root_tree(edges, w, 3, 0)
        assert t.parent.tolist() == [0, 0, 1]
        assert t.bfs_order.tolist() == [0, 1, 2]
        assert t.edge_weight_to_parent.tolist() == [0.0, 0.25, 0.5]

    def test_path_rooted_at_2(self):
        edges, w = self.path()
        t = root_tree(edges, w, 3, 2)
        assert t.parent.tolist() == [1, 2, 2]
        assert t.bfs_order.tolist() == [2, 1, 0]

    def test_star(self):
        edges = np.array([[0, 3], [1, 3], [2, 3]])
        t = root_tree(edges, np.zeros(3), 4, 3)
        assert t.bfs_order.tolist() == [3, 0, 1, 2]
        assert t.parent.tolist() == [3, 3, 3, 3]
        # centre between its leaves, edges unsorted: children still ascend
        edges = np.array([[2, 4], [0, 2], [2, 3], [1, 2]])
        t = root_tree(edges, np.array([0.5, 1.0, 2.0, 3.0]), 5, 2)
        assert t.bfs_order.tolist() == [2, 0, 1, 3, 4]
        assert t.edge_weight_to_parent.tolist() == [1.0, 3.0, 0.0, 2.0, 0.5]

    def test_levels_and_depths(self):
        edges = np.array([[0, 1], [1, 2], [1, 3]])
        t = root_tree(edges, np.zeros(3), 4, 0)
        assert t.depths.tolist() == [0, 1, 2, 2]
        assert [lv.tolist() for lv in t.levels] == [[0], [1], [2, 3]]
        # a long chain: L levels of one vertex each
        n = 2000
        chain = chain_tree(n)
        assert len(chain.levels) == n
        assert chain.depths.tolist() == list(range(n - 1, -1, -1))
        # a star: the root, then one level of L - 1 leaves
        star = root_tree(np.stack([np.zeros(9, dtype=np.int64), np.arange(1, 10)], axis=1),
                         np.zeros(9), 10, 0)
        assert [lv.tolist() for lv in star.levels] == [[0], list(range(1, 10))]
        # random trees at every root: levels partition bfs_order, parents one level up
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 40, extra_edges=30)
        edges, weights = boruvka_mst(g)
        for r in range(40):
            t = root_tree(edges, weights, 40, r)
            np.testing.assert_array_equal(np.concatenate(t.levels), t.bfs_order)
            for k in range(1, len(t.levels)):
                assert set(t.parent[t.levels[k]].tolist()) <= set(t.levels[k - 1].tolist())
            nonroot = np.arange(40) != r
            np.testing.assert_array_equal(t.depths[t.parent[nonroot]], t.depths[nonroot] - 1)
        # a depth-first order lists parents first but is not breadth-first
        dfs = SpanningTree(4, 0, np.array([0, 0, 0, 1]), np.array([0, 1, 3, 2]), np.zeros(4))
        with pytest.raises(ValueError, match="breadth-first"):
            dfs.levels
        with pytest.raises(ValueError, match="breadth-first"):
            dfs.validate()

    def test_not_a_tree_cycle(self):
        edges = np.array([[0, 1], [1, 2], [0, 2]])
        with pytest.raises(ValueError):
            root_tree(edges, np.zeros(3), 4, 0)
        # a self-loop is a cycle of one edge; the first bad edge is named
        edges = np.array([[0, 1], [2, 2], [3, 3]])
        with pytest.raises(ValueError, match=r"bad edge \(2, 2\)"):
            root_tree(edges, np.zeros(3), 4, 0)

    def test_not_a_tree_disconnected(self):
        edges = np.array([[0, 1], [0, 1], [2, 3]])
        with pytest.raises(ValueError, match="unreachable|duplicate|tree"):
            root_tree(edges, np.zeros(3), 4, 0)
        # a duplicate edge leaves too few distinct edges to span
        edges = np.array([[0, 1], [1, 2], [2, 1]])
        with pytest.raises(ValueError, match=r"vertices \[3\] unreachable"):
            root_tree(edges, np.zeros(3), 4, 0)

    def test_root_out_of_range(self):
        edges, w = self.path()
        with pytest.raises(ValueError):
            root_tree(edges, w, 3, 3)
        # an edge endpoint out of range; the first bad edge is named
        edges = np.array([[0, 1], [1, 4], [-1, 2]])
        with pytest.raises(ValueError, match=r"bad edge \(1, 4\)"):
            root_tree(edges, np.zeros(3), 4, 0)

    def test_invariants_for_every_root(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng, 24, extra_edges=20)
        edges, weights = boruvka_mst(g)
        undirected = set(map(tuple, edges.tolist()))
        for r in range(24):
            t = root_tree(edges, weights, 24, r)
            t.validate()
            rebuilt = {
                (min(v, int(t.parent[v])), max(v, int(t.parent[v])))
                for v in range(24)
                if v != t.root
            }
            assert rebuilt == undirected  # re-rooting preserves the edge set
