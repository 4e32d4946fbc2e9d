import itertools
import re
from collections.abc import Sequence

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
    mst,
    root_tree,
    walk,
)
from treescan.oracle import bfs_root_tree
from treescan.scenarios import (
    causal_graph,
    causal_tree,
    chain_tree,
    random_connected_graph,
    random_tree,
)


def construction_cases():
    """A 40x40 constant image (every weight ties), a causal m=3 graph, a chain
    and a single pixel: the tie-heavy, deep and edgeless shapes."""
    rng = np.random.default_rng(5)
    return [
        build_grid_graph(FeatureMap(np.ones((1, 2)), spatial=(1, 1)), "cosine"),
        build_grid_graph(FeatureMap(np.ones((1600, 2)), spatial=(40, 40)), "cosine"),
        causal_graph(rng, 500),
        causal_graph(rng, 300, m=1),
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


def assert_same_as_kruskal(g):
    be, bw = boruvka_mst(g)
    ke, kw = kruskal_mst(g)
    assert be.shape == ke.shape == (g.num_vertices - 1, 2)
    assert be.tobytes() == ke.tobytes() and bw.tobytes() == kw.tobytes()


def test_matches_kruskal_exactly_with_distinct_weights():
    rng = np.random.default_rng(9)
    graphs = construction_cases()
    for _ in range(40):
        n = int(rng.integers(2, 200))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)), distinct=True)
        graphs.append(g)
    for g in graphs:
        assert_same_as_kruskal(g)


@pytest.mark.parametrize("weights", ["levels-4", "zero", "continuous"])
def test_matches_kruskal_exactly_under_ties(weights):
    """Random connected graphs with chords, from L = 1, with weights drawn
    from {0, 1, 2, 3}, all zero or continuous: the contracted rounds pick
    the (weight, u, v) minimum, so the edges and weights equal Kruskal's."""
    rng = np.random.default_rng(19)
    for _ in range(60):
        n = int(rng.integers(1, 120))
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3 * n)))
        draw = {"levels-4": lambda m: rng.integers(0, 4, m).astype(np.float64),
                "zero": np.zeros, "continuous": rng.random}[weights]
        assert_same_as_kruskal(WeightedGraph(n, g.edges, draw(g.num_edges)))


@pytest.mark.parametrize("metric", ["cosine", "manhattan"])
def test_matches_kruskal_exactly_on_tied_grids(metric):
    """A 64x64 constant image (every weight ties) and a 4-level quantized
    one (a few distinct weights)."""
    rng = np.random.default_rng(23)
    quantized = np.floor(rng.random((64 * 64, 3)) * 4) / 4
    for data in (np.ones((64 * 64, 3)), quantized):
        assert_same_as_kruskal(build_grid_graph(FeatureMap(data, spatial=(64, 64)), metric))


def test_tie_breaking_is_deterministic_and_matches_kruskal():
    # constant image: every edge weight ties at zero
    f = FeatureMap(np.ones((12, 2)), spatial=(3, 4))
    for g in [build_grid_graph(f, "cosine")] + construction_cases():
        be, _ = boruvka_mst(g)
        ke, _ = kruskal_mst(g)
        assert be.tolist() == ke.tolist()
        be2, _ = boruvka_mst(g)
        assert be.tolist() == be2.tolist()


def test_independent_of_edge_order():
    """Boruvka orders the edges itself: any order of the same (u, v) rows,
    weights carried along, gives the same edge and weight bytes, on random
    graphs with tied weights, tied and untied grids and causal graphs."""
    rng = np.random.default_rng(29)
    tied = random_connected_graph(rng, 150, extra_edges=300)
    graphs = construction_cases() + [
        random_connected_graph(rng, 200, extra_edges=400),
        WeightedGraph(150, tied.edges, rng.integers(0, 3, tied.num_edges).astype(np.float64)),
        build_grid_graph(FeatureMap(rng.standard_normal((30 * 40, 3)), spatial=(30, 40)), "cosine"),
        build_grid_graph(FeatureMap(np.floor(rng.random((900, 2)) * 3), spatial=(30, 30)),
                         "manhattan"),
        build_causal_graph(FeatureMap(np.round(rng.standard_normal((400, 2)))), m=4,
                           metric="manhattan"),
    ]
    for g in graphs:
        edges, weights = boruvka_mst(g)
        for _ in range(3):
            perm = rng.permutation(g.num_edges)
            pe, pw = boruvka_mst(WeightedGraph(g.num_vertices, g.edges[perm], g.weights[perm]))
            assert pe.tobytes() == edges.tobytes() and pw.tobytes() == weights.tobytes()


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
    # an edgeless vertex 0
    with pytest.raises(ValueError, match=r"component of vertex 0 = \[0\] "
                                         r"cannot reach the remaining 2 vertices$"):
        boruvka_mst(WeightedGraph(3, np.array([[1, 2]]), np.array([0.5])))


def test_disconnected_after_several_rounds():
    """Two trees of four vertices whose middle edges are their heaviest:
    round 1 joins each tree into two pairs, round 2 joins the pairs, and
    then no edge is left between the trees."""
    edges = np.array([[0, 3], [3, 5], [5, 6], [1, 2], [2, 4], [4, 7]])
    weights = np.array([1.0, 5.0, 1.0, 2.0, 6.0, 2.0])
    with pytest.raises(ValueError) as err:
        boruvka_mst(WeightedGraph(8, edges, weights))
    assert str(err.value) == ("graph is disconnected: component of vertex 0 = [0, 3, 5, 6] "
                              "cannot reach the remaining 4 vertices")


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


def test_no_vertices_rejected():
    with pytest.raises(ValueError, match="need at least 1 vertex"):
        boruvka_mst(WeightedGraph(0, np.zeros((0, 2)), np.zeros(0)))


class TestRootTree:
    def path(self):
        return np.array([[0, 1], [1, 2]]), np.array([0.25, 0.5])

    def test_path_rooted_at_0(self):
        edges, w = self.path()
        t = root_tree(edges, w, 3, 0)
        assert t.parent.tolist() == [0, 0, 1]
        assert t.walk.order.tolist() == [0, 1, 2]
        assert t.edge_weight_to_parent.tolist() == [0.0, 0.25, 0.5]

    def test_path_rooted_at_2(self):
        edges, w = self.path()
        t = root_tree(edges, w, 3, 2)
        assert t.parent.tolist() == [1, 2, 2]
        assert t.walk.order.tolist() == [2, 1, 0]

    def test_star(self):
        edges = np.array([[0, 3], [1, 3], [2, 3]])
        t = root_tree(edges, np.zeros(3), 4, 3)
        assert t.walk.order.tolist() == [3, 0, 1, 2]
        assert t.parent.tolist() == [3, 3, 3, 3]
        # centre between its leaves, edges unsorted: children still ascend
        edges = np.array([[2, 4], [0, 2], [2, 3], [1, 2]])
        t = root_tree(edges, np.array([0.5, 1.0, 2.0, 3.0]), 5, 2)
        assert t.walk.order.tolist() == [2, 0, 1, 3, 4]
        assert t.edge_weight_to_parent.tolist() == [1.0, 3.0, 0.0, 2.0, 0.5]

    @pytest.mark.parametrize("banded", [True, False])
    def test_levels_contract(self, banded, monkeypatch):
        """``tree.levels`` is a read-only sequence over the walk, on a banded
        and on a per-level tree: its length is the level count, read
        without ``walk.order``, so without making a level; item d is the
        view of ``walk.order`` that lists the depth-d vertices ascending,
        negative indices counting from the end; the levels concatenate to
        ``walk.order``."""
        rng = np.random.default_rng(37)
        t = causal_tree(rng, 2000) if banded else random_tree(rng, 300)
        w = t.walk
        assert (w.height > 1) == banded
        depth = int(t.depths.max()) + 1
        levels = t.levels
        assert isinstance(levels, Sequence) and "levels" not in vars(t)
        with monkeypatch.context() as m:
            m.setattr(w, "order", None)  # every level is a view of it
            assert len(t.levels) == depth == len(w.bounds) - 1
        for d in range(depth):
            expected = np.flatnonzero(t.depths == d).tolist()
            assert levels[d].tolist() == levels[d - depth].tolist() == expected
            assert np.shares_memory(levels[d], w.order)
        for d in (depth, -depth - 1):
            with pytest.raises(IndexError):
                levels[d]
        with pytest.raises(TypeError):
            levels[0] = w.order[:1]
        np.testing.assert_array_equal(np.concatenate(levels), w.order)

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
        # random trees at every root: levels partition the walk's order, parents one level up
        rng = np.random.default_rng(21)
        g = random_connected_graph(rng, 40, extra_edges=30)
        edges, weights = boruvka_mst(g)
        for r in range(40):
            t = root_tree(edges, weights, 40, r)
            np.testing.assert_array_equal(np.concatenate(t.levels), t.walk.order)
            for k in range(1, len(t.levels)):
                assert set(t.parent[t.levels[k]].tolist()) <= set(t.levels[k - 1].tolist())
            nonroot = np.arange(40) != r
            np.testing.assert_array_equal(t.depths[t.parent[nonroot]], t.depths[nonroot] - 1)

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
        with pytest.raises(ValueError, match=r"^root 3 out of range for 3 vertices$"):
            root_tree(edges, w, 3, 3)
        # an edge endpoint out of range; the first bad edge is named
        edges = np.array([[0, 1], [1, 4], [-1, 2]])
        with pytest.raises(ValueError, match=r"bad edge \(1, 4\)"):
            root_tree(edges, np.zeros(3), 4, 0)

    @pytest.mark.parametrize("field,value,message", [
        ("parent", np.array([0, 0]), "edge_weight_to_parent length must equal num_vertices"),
        ("parent", np.array([[0, 0, 1]]), "parent must be a 1-D array"),
        ("parent", np.array([0, 1, 1]), "exactly one vertex may be its own parent"),
        ("edge_weight_to_parent", np.zeros(2), "edge_weight_to_parent length must equal"),
        ("edge_weight_to_parent", np.array([0.0, -0.25, 0.5]),
         "edge weights to parent must be finite and >= 0"),
    ])
    def test_validate_names_the_violation(self, field, value, message):
        edges, w = self.path()
        tree = root_tree(edges, w, 3, 0)
        tree.validate()
        setattr(tree, field, value)
        with pytest.raises(ValueError, match=re.escape(message)):
            tree.validate()

    def test_root_and_size_read_off_parent(self):
        tree = SpanningTree(np.array([2, 2, 2, 0]), np.zeros(4))
        assert (tree.num_vertices, tree.root) == (4, 2)
        tree.validate()
        assert tree.depths.tolist() == [1, 1, 0, 2]
        assert tree.walk.order.tolist() == [2, 0, 1, 3]
        assert tree.walk.bounds == [0, 1, 3, 4]

    @pytest.mark.parametrize("parent,message", [
        ([1, 2, 0], "exactly one vertex may be its own parent, found 0"),
        ([0, 1, 1], "exactly one vertex may be its own parent, found 2"),
        ([0, 2, 1], "parent pointers cycle through [1, 2]"),
        ([0, 3, 1, 2], "parent pointers cycle through [1, 2, 3]"),
        ([0, 3, 1], "parent index out of range"),
        ([0, -1, 1], "parent index out of range"),
    ])
    def test_validate_names_a_hand_built_violation(self, parent, message):
        tree = SpanningTree(np.array(parent), np.zeros(len(parent)))
        with pytest.raises(ValueError, match=re.escape(message)):
            tree.validate()

    def test_validate_reads_reassigned_fields(self):
        """Fields reassigned after ``root_tree``, which fills in the root and
        the depths, are checked as they are now, as a fresh tree of the same
        arrays would be."""
        tree = root_tree(np.array([[0, 1], [1, 2], [2, 3]]), np.ones(3), 4, 3)
        tree.validate()
        tree.parent = np.array([1, 0, 3, 3])
        fresh = SpanningTree(tree.parent, tree.edge_weight_to_parent)
        for t in (fresh, tree):
            with pytest.raises(ValueError, match=re.escape("parent pointers cycle through [0, 1]")):
                t.validate()

    def test_cycle_below_a_long_chain_is_named(self):
        """Vertices 1..499 hang from the root as a chain; 500..996 are a
        chain whose pointers lead into the cycle 997 -> 998 -> 999 -> 997,
        so vertex 500 is 497 jumps short of the cycle."""
        parent = np.arange(-1, 999)
        parent[0] = 0
        parent[500:997] = np.arange(501, 998)
        parent[997:] = [998, 999, 997]
        tree = SpanningTree(parent, np.zeros(1000))
        with pytest.raises(ValueError, match=re.escape("parent pointers cycle through [997, 998, 999]")):
            tree.validate()
        # depths raise the same, so no kernel walks the cycle either
        with pytest.raises(ValueError, match="cycle"):
            tree.walk.bounds

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


def assert_rooting_matches_reference(edges, weights, n, root):
    """``root_tree`` against the list-BFS reference: the same parents, depths
    and weights, and a walk whose rows are the vertices by (depth, vertex)."""
    t = root_tree(edges, weights, n, root)
    ref = bfs_root_tree(edges, weights, n, root)
    np.testing.assert_array_equal(t.parent, ref.parent)
    np.testing.assert_array_equal(t.depths, ref.depths)
    np.testing.assert_array_equal(t.edge_weight_to_parent, ref.edge_weight_to_parent)
    np.testing.assert_array_equal(t.walk.order, np.argsort(ref.depths, kind="stable"))
    t.validate()
    return t


def same_rooting_error(edges, n, root):
    with pytest.raises(ValueError) as ref:
        bfs_root_tree(edges, np.zeros(len(edges)), n, root)
    with pytest.raises(ValueError) as got:
        root_tree(edges, np.zeros(len(edges)), n, root)
    assert str(got.value) == str(ref.value)
    return str(got.value)


def shuffled(rng, edges, weights):
    """The same undirected edges in random order, each flipped at random."""
    perm = rng.permutation(len(edges))
    edges, weights = edges[perm].copy(), weights[perm]
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    return edges, weights


class TestRootTreeAgainstReference:
    def test_construction_cases_every_root(self):
        rng = np.random.default_rng(31)
        for g in construction_cases():
            edges, weights = boruvka_mst(g)
            n = g.num_vertices
            for r in sorted({0, n - 1, *rng.integers(0, n, 5).tolist()}):
                assert_rooting_matches_reference(edges, weights, n, r)

    def test_random_trees_every_root(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(2, 40))
            edges, weights = boruvka_mst(random_connected_graph(rng, n, extra_edges=n))
            edges, weights = shuffled(rng, edges, weights)
            for r in range(n):
                assert_rooting_matches_reference(edges, weights, n, r)

    def test_long_chain(self):
        n = 50000
        rng = np.random.default_rng(33)
        edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        weights = rng.random(n - 1)
        for r in (n - 1, 0, n // 2 + 7):
            t = assert_rooting_matches_reference(edges, weights, n, r)
            assert t.depths.max() == max(r, n - 1 - r)
        t = assert_rooting_matches_reference(*shuffled(rng, edges, weights), n, n - 1)
        assert len(t.levels) == n

    def test_level_key_past_16_bits(self):
        """The walk's level sort, keyed by depth, passes 2^16 on a chain of
        70,000 rooted at an end (depths to 69,999), so it takes the
        comparison sort instead of the 16-bit radix sort."""
        n = 70000
        rng = np.random.default_rng(36)
        chain = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        for r in (0, n - 1):
            t = assert_rooting_matches_reference(chain, rng.random(n - 1), n, r)
            assert t.depths.max() == n - 1

    def test_past_16_bits_in_any_edge_order(self):
        """A random tree of 70,000 vertices, whose arc tails pass 2^16 and
        so take the comparison sort, roots like the reference with its
        edges as built and shuffled and flipped; a fresh tree of its parents
        finds the same depths by pointer jumping, and a 3-cycle spliced
        into them is named."""
        n = 70000
        rng = np.random.default_rng(37)
        v = np.arange(1, n)
        edges, weights = np.stack([v, rng.integers(0, v)], axis=1), rng.random(n - 1)
        for root in (0, int(rng.integers(0, n))):
            for e, w in ((edges, weights), shuffled(rng, edges, weights)):
                t = assert_rooting_matches_reference(e, w, n, root)
                fresh = SpanningTree(t.parent.copy(), t.edge_weight_to_parent)
                np.testing.assert_array_equal(fresh.depths, t.depths)
        cycle = np.sort(rng.choice(np.flatnonzero(t.parent != np.arange(n)), 3, replace=False))
        t.parent[cycle] = np.roll(cycle, 1)
        message = f"parent pointers cycle through {cycle.tolist()}"
        with pytest.raises(ValueError, match=re.escape(message)):
            t.validate()

    def test_wide_star(self):
        n = 5001
        rng = np.random.default_rng(34)
        centre = 1234
        leaves = np.flatnonzero(np.arange(n) != centre)
        edges, weights = shuffled(
            rng, np.stack([leaves, np.full(n - 1, centre)], axis=1), rng.random(n - 1))
        t = assert_rooting_matches_reference(edges, weights, n, centre)
        assert [lv.tolist() for lv in t.levels] == [[centre], leaves.tolist()]
        t = assert_rooting_matches_reference(edges, weights, n, 17)
        assert t.levels[2].tolist() == leaves[leaves != 17].tolist()

    def test_one_and_two_vertices(self):
        t = assert_rooting_matches_reference(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 1, 0)
        assert t.walk.order.tolist() == [0] and t.parent.tolist() == [0]
        for edge in ([0, 1], [1, 0]):
            for r in (0, 1):
                t = assert_rooting_matches_reference(np.array([edge]), np.array([0.5]), 2, r)
                assert t.walk.order.tolist() == [r, 1 - r]
                assert t.edge_weight_to_parent.tolist() == [0.5 * r, 0.5 * (1 - r)]

    def test_existing_non_trees_give_the_reference_error(self):
        unreachable = "edge set is not a spanning tree: vertices {} unreachable from root"
        cases = [
            ([[0, 1], [1, 2], [0, 2]], 4, 0, unreachable.format([3])),
            ([[0, 1], [2, 2], [3, 3]], 4, 0, "bad edge (2, 2)"),
            ([[0, 1], [0, 1], [2, 3]], 4, 0, unreachable.format([2, 3])),
            ([[0, 1], [1, 2], [2, 1]], 4, 0, unreachable.format([3])),
            ([[1, 2], [2, 3], [1, 3]], 4, 0, unreachable.format([1, 2, 3])),  # root has no edge
            ([[0, 1], [1, 2]], 3, 3, "root 3 out of range for 3 vertices"),
            ([[0, 1], [1, 4], [-1, 2]], 4, 0, "bad edge (1, 4)"),
            ([[0, 1], [1, 2]], 4, 0, "a spanning tree over 4 vertices needs exactly 3 edges, got 2"),
            ([[0, 1]], 1, 0, "a spanning tree over 1 vertices needs exactly 0 edges, got 1"),
        ]
        for edges, n, root, message in cases:
            assert same_rooting_error(np.array(edges), n, root) == message

    def test_random_cycles_and_duplicates_give_the_reference_error(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(3, 60))
            if rng.random() < 0.5:  # one tree edge swapped for a copy of another
                tree, _ = boruvka_mst(random_connected_graph(rng, n))
                k, j = rng.choice(n - 1, size=2, replace=False)
                edges = tree.copy()
                edges[k] = tree[j]
            else:  # n - 1 random pairs: a cycle, so not spanning, unless they form a tree
                u = rng.integers(0, n, n - 1)
                edges = np.stack([u, (u + rng.integers(1, n, n - 1)) % n], axis=1)
            edges, _ = shuffled(rng, edges, np.zeros(n - 1))
            for root in (0, int(rng.integers(0, n))):
                try:
                    bfs_root_tree(edges, np.zeros(n - 1), n, root)
                except ValueError:
                    same_rooting_error(edges, n, root)


def test_pointer_jumping_guards_its_packing():
    """A pointer of 2^31 cannot be packed above a 32-bit sum: the jumping
    raises instead of wrapping, and ``root_tree`` refuses a tree over 2^30
    vertices before it reads an edge.  A chain of 4 jumps to its root in
    two rounds, its sums the depths."""
    with pytest.raises(ValueError, match=re.escape("below 2^31")):
        mst._pointer_jump(np.array([0, 1, 2**31]), np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(ValueError, match=re.escape("at most 2^30 vertices, got 1073741825")):
        root_tree(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 2**30 + 1, 0)
    up, sums = mst._pointer_jump(np.array([0, 0, 1, 2]), np.array([0, 1, 1, 1]), 2)
    assert (up.tolist(), sums.tolist()) == ([0, 0, 0, 0], [0, 1, 2, 3])


@pytest.mark.parametrize("top", [1, 2**16 - 1, 2**16, 2**20, 2**40])
def test_stable_argsort_is_numpys(top):
    """The walk's level sort against ``np.argsort(kind="stable")``,
    bitwise: keys below 2^16 (the 16-bit radix sort) and from 2^16 on (the
    comparison sort), each with many repeats so that a lost tie order
    shows."""
    rng = np.random.default_rng(top % 1000)
    key = rng.integers(0, top + 1, 5000)
    repeats = rng.random(5000) < 0.5
    key[repeats] = rng.choice(key[:7], np.count_nonzero(repeats))
    key[:3] = [top, 0, top]
    for k in (key, key[:1], key[:0], np.sort(key), np.sort(key)[::-1]):
        expected = np.argsort(k, kind="stable")
        got = walk._stable_argsort(k)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
