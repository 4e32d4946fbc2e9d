import re

import numpy as np
import pytest

from treescan import (
    ContinuousScanParams,
    DiscreteScanParams,
    FeatureMap,
    SpanningTree,
    affinity_map,
    discretize,
    io,
    mst,
    naive_tree_scan,
    output_projection,
    output_projection_backward,
    path_product,
    root_tree,
    scan,
    sequential_selective_scan,
    tree_scan_language_forward,
    tree_scan_vision_forward,
)
from treescan.selfcheck import (
    align_chain_params,
    causal_tree,
    chain_tree,
    random_connected_graph,
    random_scan_instance,
    random_tree,
    rank_block_levels,
    smooth_grid_tree,
)


def single_vertex_tree():
    return root_tree(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 1, 0)


STRESS_TREES = ("shuffled-levels", "chain-5000", "causal-2000", "L1", "L2")
# plus a tree whose leaf-to-root pass mixes rank blocks and np.add.at at C = N = 8
UP_BRANCH_TREES = STRESS_TREES + ("wide-grid",)


def stress_instance(tree_name, a_kind, seed=0):
    """An instance on a tree whose BFS-position layout the level walks must
    get right, every one rooted at its last token so that both modes apply.
    ``shuffled-levels`` is built directly: within each level the vertices
    are neither ascending nor grouped by parent, and vertex 1's two children
    sit apart in level 2.  ``a_kind`` "near-one" sets every a_bar to 1 - 1e-12.
    Every tree but "wide-grid" (C = N = 8) has C = N = 2."""
    rng = np.random.default_rng(seed)
    tree = {
        "shuffled-levels": lambda: SpanningTree(
            np.array([6, 8, 3, 8, 3, 1, 1, 2, 8]),
            np.array([8, 3, 1, 5, 2, 6, 4, 0, 7]), np.zeros(9)),
        "chain-5000": lambda: chain_tree(5000),
        "causal-2000": lambda: causal_tree(rng, 2000),
        "L1": single_vertex_tree,
        "L2": lambda: chain_tree(2),
        "wide-grid": lambda: smooth_grid_tree(rng, root_last=True),
    }[tree_name]()
    tree.validate()
    n = tree.num_vertices
    c, s = (8, 8) if tree_name == "wide-grid" else (2, 2)
    if a_kind == "near-one":
        a_bar = np.full((n, c, s), 1.0 - 1e-12)
    else:
        a_bar = rng.uniform(0.05, 0.95, (n, c, s))
    x = FeatureMap(rng.standard_normal((n, c)))
    return x, DiscreteScanParams(a_bar, rng.standard_normal((n, c, s))), tree


def subtree_only(p, tree, vertex):
    """``p`` with b_bar zeroed outside ``vertex``'s subtree, so that a full
    aggregation at ``vertex`` is the causal (subtree) one."""
    inside = [False] * tree.num_vertices
    inside[vertex] = True
    parent = tree.parent.tolist()
    for v in tree.bfs_order.tolist()[1:]:
        inside[v] = inside[v] or inside[parent[v]]
    return DiscreteScanParams(p.a_bar, p.b_bar * np.array(inside)[:, None, None])


def scan_outputs(x, p, tree):
    """Output bytes of the vision forward pass (h, xi) and, on a tree rooted
    at its last token, of the language forward pass."""
    h, xi = tree_scan_vision_forward(x, p, tree)
    out = [h.tobytes(), xi.tobytes()]
    if tree.root == tree.num_vertices - 1:
        out.append(tree_scan_language_forward(x, p, tree).tobytes())
    return out


class TestLayoutStress:
    @pytest.mark.parametrize("a_kind", ["random", "near-one"])
    @pytest.mark.parametrize("tree_name", STRESS_TREES)
    def test_forward_kernels_match_naive(self, tree_name, a_kind):
        x, p, tree = stress_instance(tree_name, a_kind)
        n = tree.num_vertices
        rng = np.random.default_rng(1)
        at = np.unique([tree.root, tree.bfs_order[-1], *rng.integers(0, n, 4)])
        h, xi = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        assert np.max(np.abs(h[at] - naive_tree_scan(x, p, tree, roots=at, force=True))) < 1e-9
        for v in at.tolist():
            causal_ref = naive_tree_scan(x, subtree_only(p, tree, v), tree, roots=[v], force=True)
            assert np.max(np.abs(h_lang[v] - causal_ref[0])) < 1e-9
        if n <= 64:
            assert np.max(np.abs(h - naive_tree_scan(x, p, tree))) < 1e-9
        np.testing.assert_array_equal(h_lang, xi)  # both are the subtree sums
        again = tree_scan_vision_forward(x, p, tree)
        assert again[0].tobytes() == h.tobytes() and again[1].tobytes() == xi.tobytes()
        assert tree_scan_language_forward(x, p, tree).tobytes() == h_lang.tobytes()

    @pytest.mark.parametrize("tree_name", UP_BRANCH_TREES)
    def test_up_branches_give_identical_outputs(self, tree_name, monkeypatch):
        """Rank blocks on every level (bound 0), np.add.at on every level (a
        huge bound) and the default mix give the same output bytes."""
        x, p, tree = stress_instance(tree_name, "random")
        if tree_name == "wide-grid":
            assert 0 < rank_block_levels(tree, 64) < len(tree.levels) - 1
        default = scan_outputs(x, p, tree)
        for bound in (0, 2**62):
            monkeypatch.setattr(scan, "RANK_BLOCK_MIN", bound)
            assert scan_outputs(x, p, tree) == default


def assert_rank_runs(tree, rank_major=True):
    """``run_bounds`` cuts every level of ``bfs_order`` into consecutive runs,
    and no run holds a parent twice, so a leaf-to-root step run by run adds
    each parent's children in their ``bfs_order`` order.  With
    ``rank_major`` (a ``root_tree`` layout), run k of a level is its rank
    block: the k-th smallest child of every parent with more than k
    children, parents ascending."""
    runs, b = tree.run_bounds, tree.level_bounds
    assert runs[0] == 0 and runs[-1] == tree.num_vertices
    assert set(b) <= set(runs) and all(s < e for s, e in zip(runs, runs[1:]))
    par = tree.parent[tree.bfs_order]
    for s, e in zip(runs, runs[1:]):
        assert np.unique(par[s:e]).size == e - s
    if not rank_major:
        return
    kids = {}
    for v in range(tree.num_vertices):
        if v != tree.root:
            kids.setdefault(int(tree.parent[v]), []).append(v)
    for lo, hi in zip(b[1:-1], b[2:]):
        parents = sorted(set(tree.parent[tree.bfs_order[lo:hi]].tolist()))
        blocks = [[kids[q][k] for q in parents if len(kids[q]) > k]
                  for k in range(max(len(kids[q]) for q in parents))]
        assert tree.bfs_order[lo:hi].tolist() == [v for block in blocks for v in block]
        assert runs[runs.index(lo):runs.index(hi) + 1] == (
            lo + np.cumsum([0] + [len(block) for block in blocks])).tolist()


class TestRankSchedule:
    @pytest.mark.parametrize("tree_name", UP_BRANCH_TREES)
    def test_stress_trees(self, tree_name):
        assert_rank_runs(stress_instance(tree_name, "random")[2],
                         rank_major=tree_name != "shuffled-levels")

    def test_random_trees_and_a_star(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            assert_rank_runs(random_tree(rng, int(rng.integers(1, 200))))
        star = np.stack([np.zeros(49, dtype=np.int64), np.arange(1, 50)], axis=1)
        tree = root_tree(star, np.ones(49), 50, 0)
        assert_rank_runs(tree)
        assert tree.run_bounds == list(range(51))  # one run per child of the centre

    def test_one_wide_level_at_three_lanes(self, monkeypatch):
        """A tree whose only level of at least ceil(500 / 3) = 167 rows is
        level 2 (200 rows, 20 under each of 10 parents): at 3 lanes only that
        level takes runs, 20 rank blocks of one child per parent.  Outputs
        are the same bytes at bounds 0, 500 and 1e12."""
        mid = np.repeat(np.arange(1, 11), 20)  # parents of vertices 11..210
        low = np.arange(11, 211, 2)  # every other level-2 vertex has one child
        parent = np.concatenate([[0], np.zeros(10, dtype=np.int64), mid, low])
        n = parent.size
        edges = n - 1 - np.stack([np.arange(1, n), parent[1:]], axis=1)  # rooted at the last token
        tree = root_tree(edges, np.ones(n - 1), n, n - 1)
        assert np.diff(tree.level_bounds).tolist() == [1, 10, 200, 100]
        assert rank_block_levels(tree, 3) == 1
        assert_rank_runs(tree)
        lo, hi = tree.level_bounds[2:4]
        runs = tree.run_bounds
        assert runs[runs.index(lo):runs.index(hi) + 1] == list(range(lo, hi + 1, 10))
        np.testing.assert_array_equal(tree.parent[tree.bfs_order[lo:lo + 10]], tree.bfs_order[1:11])
        rng = np.random.default_rng(4)
        x = FeatureMap(rng.standard_normal((n, 3)))
        p = DiscreteScanParams(rng.uniform(0.05, 0.95, (n, 3, 1)), rng.standard_normal((n, 3, 1)))
        default = scan_outputs(x, p, tree)
        for bound in (0, 500, 10**12):
            monkeypatch.setattr(scan, "RANK_BLOCK_MIN", bound)
            assert scan_outputs(x, p, tree) == default

    def test_tree_file_in_parent_vertex_order(self, tmp_path, monkeypatch):
        """A tree file whose levels are ordered by (parent, vertex), as files
        written before the rank-major order were, loads with ``pos`` the
        inverse of its ``bfs_order`` and scans to the same bytes as the
        rank-major tree, on either branch of the leaf-to-root step, and to
        the same affinity maps; its wide levels take more, shorter runs."""
        x, p, tree = stress_instance("wide-grid", "random")
        n = tree.num_vertices
        old_order = np.lexsort((np.arange(n), tree.parent, tree.depths))
        assert not np.array_equal(old_order, tree.bfs_order)
        io.write_tree(tmp_path / "old.json",
                      SpanningTree(tree.parent, old_order, tree.edge_weight_to_parent))
        old = io.read_tree(tmp_path / "old.json")
        np.testing.assert_array_equal(old.bfs_order, old_order)
        np.testing.assert_array_equal(old.pos[old.bfs_order], np.arange(n))
        np.testing.assert_array_equal(old.bfs_order[old.pos], np.arange(n))
        for anchor in (tree.root, int(old.bfs_order[-1]), n // 2):
            assert affinity_map(old, p, anchor).tobytes() == affinity_map(tree, p, anchor).tobytes()
        assert old.level_bounds == tree.level_bounds
        assert_rank_runs(old, rank_major=False)
        assert len(old.run_bounds) > len(tree.run_bounds)
        for bound in (0, scan.RANK_BLOCK_MIN, 2**62):
            monkeypatch.setattr(scan, "RANK_BLOCK_MIN", bound)
            assert scan_outputs(x, p, old) == scan_outputs(x, p, tree)


def rooted_at_last(parent):
    """``root_tree`` of the tree whose vertex v > 0 hangs off ``parent[v]``
    (vertex 0 the root), relabelled v -> n - 1 - v so that the root is the
    last token."""
    n = len(parent)
    edges = n - 1 - np.stack([np.arange(1, n), np.asarray(parent)[1:]], axis=1)
    return root_tree(edges, np.zeros(n - 1), n, n - 1)


def broom(depth, extra):
    """A chain of ``depth`` levels with ``extra`` more leaves under the
    root's child (on level 2), so that ``depth`` stays its level count."""
    return rooted_at_last([0, *range(depth - 1), *[1] * extra])


def spider(legs, length):
    """``legs`` chains of ``length`` vertices under one root: that many band
    tops on level 1."""
    return rooted_at_last([0, *[0 if i % length == 0 else i for i in range(legs * length)]])


def parent_vertex_order(tree):
    """The same tree with each level in (parent, vertex) order, as older tree
    files hold it: more, shorter runs than the rank-major order."""
    order = np.lexsort((np.arange(tree.num_vertices), tree.parent, tree.depths))
    return SpanningTree(tree.parent, order, tree.edge_weight_to_parent)


BANDED_TREES = {
    "chain-5000": lambda: chain_tree(5000),
    "causal-2000": lambda: causal_tree(np.random.default_rng(0), 2000),
    "causal-2000-parent-order": lambda: parent_vertex_order(
        causal_tree(np.random.default_rng(0), 2000)),
    "chain-51": lambda: chain_tree(51),  # 7 bands of 7 levels below the root, then 1 of 1
    "chain-50": lambda: chain_tree(50),  # 7 full bands
    "spider": lambda: spider(3, 40),
    "broom-below-cut": lambda: broom(64, mst.BAND_ROWS_MAX * 64 - 1 - 64),
}


def banded_params(rng, n, a_kind, c=2, s=2):
    """Scan scalars whose a_bar is random in [0.05, 0.95] ("random"), 1 -
    1e-12 in every lane ("near-one"), random with 30 % exact zeros
    ("zeros"), or about 1e-3 ("small")."""
    a_bar = {
        "random": lambda: rng.uniform(0.05, 0.95, (n, c, s)),
        "near-one": lambda: np.full((n, c, s), 1.0 - 1e-12),
        "zeros": lambda: np.where(rng.random((n, c, s)) < 0.3, 0.0,
                                  rng.uniform(0.05, 0.95, (n, c, s))),
        "small": lambda: rng.uniform(0.9e-3, 1.1e-3, (n, c, s)),
    }[a_kind]()
    x = FeatureMap(rng.standard_normal((n, c)))
    return x, DiscreteScanParams(a_bar, rng.standard_normal((n, c, s)))


def band_top(tree, row):
    """The row of ``row``'s band top, found by walking up its parents."""
    k = tree.bands.height
    level = int(tree.depths[tree.bfs_order[row]])
    for _ in range((level - 1) % k):
        row = int(tree.ppos[row])
    return row


class TestBandedWalks:
    def test_band_height_follows_the_shape(self):
        """isqrt(depth) levels a band when the levels hold fewer than
        ``BAND_ROWS_MAX`` rows on average: a broom of 64 levels bands with
        one vertex fewer than 64 times that and not with exactly as many;
        L = 1, L = 2, 3 levels (height 1) and a wide grid never band."""
        cut = mst.BAND_ROWS_MAX * 64
        below, at_cut = broom(64, cut - 1 - 64), broom(64, cut - 64)
        assert (below.num_vertices, at_cut.num_vertices) == (cut - 1, cut)
        assert len(below.level_bounds) == len(at_cut.level_bounds) == 65
        for tree in (single_vertex_tree(), chain_tree(2), chain_tree(3), at_cut,
                     smooth_grid_tree(np.random.default_rng(0))):
            assert tree.bands is None
        for tree, height in ((chain_tree(4), 2), (chain_tree(5000), 70), (below, 8)):
            assert tree.bands.height == height

    @pytest.mark.parametrize("tree_name", BANDED_TREES)
    def test_plan_layout(self, tree_name):
        """Every offset's rows once, with their parents, in rank groups that
        hold no parent twice; each row's place among its offset's rows, and
        its band top as a walk up its parents finds it.  At the tops of
        bands 1, 2, ... (levels 1 + k, 1 + 2k, ...): the parent's band top
        and the parent's place in the last offset's rows."""
        tree = BANDED_TREES[tree_name]()
        plan, n = tree.bands, tree.num_vertices
        k = plan.height
        level = tree.depths[tree.bfs_order]
        for j in range(1, k):
            rows = plan.rows[j]
            at_j = np.flatnonzero((level > 0) & ((level - 1) % k == j))
            assert sorted(rows.tolist()) == at_j.tolist()
            np.testing.assert_array_equal(plan.parents[j], tree.ppos[rows])
            np.testing.assert_array_equal(plan.place[rows], np.arange(rows.size))
            g = plan.groups[j]
            assert g[0] == 0 and g[-1] == rows.size and all(s < e for s, e in zip(g, g[1:]))
            for s, e in zip(g, g[1:]):
                assert np.unique(plan.parents[j][s:e]).size == e - s
            if j > 1:
                cpar = plan.place[plan.parents[j]]
                np.testing.assert_array_equal(plan.rows[j - 1][cpar], plan.parents[j])
        assert plan.top.tolist() == [band_top(tree, r) for r in range(n)]
        assert np.flatnonzero(plan.top == np.arange(n)).tolist() == [
            0, *np.flatnonzero((level > 0) & ((level - 1) % k == 0)).tolist()]
        assert tree.ppos[plan.top[1:]].tolist() == [
            int(tree.ppos[band_top(tree, r)]) for r in range(1, n)]
        tops = np.flatnonzero((level > k) & ((level - 1) % k == 0))
        np.testing.assert_array_equal(plan.rows[k - 1][plan.place[tree.ppos[tops]]],
                                      tree.ppos[tops])
        assert plan.top[tree.ppos[tops]].tolist() == [
            band_top(tree, int(tree.ppos[t])) for t in tops]

    @pytest.mark.parametrize("a_kind", ["random", "near-one", "zeros", "small"])
    @pytest.mark.parametrize("tree_name", BANDED_TREES)
    def test_kernels_match_naive(self, tree_name, a_kind):
        """Both forward kernels within 1e-9 of ``naive_tree_scan`` at the
        root, the deepest vertex and random ones; the banded walks within
        1e-9 of the per-level ones at every row, the leaf-to-root walk
        leaving ``a`` as it was; ``h_lang == xi`` bitwise, and the same
        bytes on a second run."""
        tree = BANDED_TREES[tree_name]()
        assert tree.bands is not None
        rng = np.random.default_rng(7)
        n = tree.num_vertices
        x, p = banded_params(rng, n, a_kind)
        at = np.unique([tree.root, tree.bfs_order[-1], *rng.integers(0, n, 3)])
        h, xi = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        assert np.max(np.abs(h[at] - naive_tree_scan(x, p, tree, roots=at, force=True))) < 1e-9
        for v in at.tolist():
            causal_ref = naive_tree_scan(x, subtree_only(p, tree, v), tree, roots=[v], force=True)
            assert np.max(np.abs(h_lang[v] - causal_ref[0])) < 1e-9
        np.testing.assert_array_equal(h_lang, xi)
        assert scan_outputs(x, p, tree) == [h.tobytes(), xi.tobytes(), h_lang.tobytes()]
        a = p.a_bar.take(tree.bfs_order, axis=0)
        u = rng.standard_normal(a.shape)
        for walk in (scan._up, scan._down):
            ref, got, a_got = u.copy(), u.copy(), a.copy()
            walk(tree, ref, a.copy())
            walk(tree, got, a_got, tree.bands)
            assert np.max(np.abs(got - ref)) < 1e-9
            if walk is scan._up:
                assert a_got.tobytes() == a.tobytes()

    def test_band_products_underflow(self):
        """On a 12000-chain (bands of 109 levels) with a_bar about 1e-3, the
        root-to-leaf walk's band products underflow to 0, and the kernels
        still match ``naive_tree_scan`` within 1e-9."""
        tree = chain_tree(12000)
        assert tree.bands.height == 109
        rng = np.random.default_rng(8)
        x, p = banded_params(rng, tree.num_vertices, "small", 1, 1)
        a = p.a_bar.take(tree.bfs_order, axis=0)
        scan._down(tree, np.zeros(a.shape), a, tree.bands)
        assert np.all(p.a_bar > 0) and np.any(a == 0.0)
        at = np.array([tree.root, 0, 6000, 11000 - 1])
        h, _ = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        assert np.max(np.abs(h[at] - naive_tree_scan(x, p, tree, roots=at, force=True))) < 1e-9
        for v in at.tolist():
            causal_ref = naive_tree_scan(x, subtree_only(p, tree, v), tree, roots=[v], force=True)
            assert np.max(np.abs(h_lang[v] - causal_ref[0])) < 1e-9

    @pytest.mark.parametrize("tree_name", ["smooth-grid", "random-bushy", "L1", "L2"])
    def test_unbanded_tree_takes_the_level_walk(self, tree_name):
        """A tree that does not band gives the bytes of the per-level walks:
        the language forward is ``_up`` without a plan, and the language
        backward's d_b_bar is ``_down`` without a plan."""
        rng = np.random.default_rng(9)
        tree = {
            "smooth-grid": lambda: smooth_grid_tree(rng, root_last=True),
            "random-bushy": lambda: rooted_at_last(
                [0, *(rng.integers(0, np.arange(1, 500)) // 4).tolist()]),
            "L1": single_vertex_tree,
            "L2": lambda: chain_tree(2),
        }[tree_name]()
        assert tree.bands is None
        n = tree.num_vertices
        x, p = banded_params(rng, n, "random")
        order, pos = tree.bfs_order, tree.pos
        h = (p.b_bar * x.data[:, :, None]).take(order, axis=0)
        scan._up(tree, h, p.a_bar.take(order, axis=0))
        h = h.take(pos, axis=0)
        assert tree_scan_language_forward(x, p, tree).tobytes() == h.tobytes()
        d_h = rng.standard_normal(p.shape)
        rho = d_h.take(order, axis=0)
        scan._down(tree, rho, p.a_bar.take(order, axis=0))
        d_b_bar = rho.take(pos, axis=0) * x.data[:, :, None]
        g = scan.tree_scan_language_backward(x, p, tree, h, d_h)
        assert g.d_b_bar.tobytes() == d_b_bar.tobytes()


def make_continuous(rng, length, channels, states):
    return ContinuousScanParams(
        a=-rng.uniform(0.1, 2.0, size=(channels, states)),
        b=rng.standard_normal((length, states)),
        c_out=rng.standard_normal((length, states)),
        d=rng.standard_normal(channels),
        delta=rng.uniform(0.05, 1.0, size=(length, channels)),
    )


class TestDiscretize:
    def test_small_delta_limit(self):
        p = ContinuousScanParams(
            a=np.array([[-1.0]]),
            b=np.array([[2.0]]),
            c_out=np.array([[1.0]]),
            d=np.array([0.0]),
            delta=np.array([[1e-12]]),
        )
        d = discretize(p)
        assert d.a_bar[0, 0, 0] == pytest.approx(1.0, abs=1e-11)
        assert d.b_bar[0, 0, 0] == pytest.approx(0.0, abs=1e-11)

    def test_ln2(self):
        p = ContinuousScanParams(
            a=np.array([[-1.0]]),
            b=np.array([[1.0]]),
            c_out=np.array([[1.0]]),
            d=np.array([0.0]),
            delta=np.array([[np.log(2.0)]]),
        )
        assert discretize(p).a_bar[0, 0, 0] == pytest.approx(0.5)

    def test_quarter_step(self):
        p = ContinuousScanParams(
            a=np.array([[-1.0]]),
            b=np.array([[2.0]]),
            c_out=np.array([[1.0]]),
            d=np.array([0.0]),
            delta=np.array([[0.25]]),
        )
        d = discretize(p)
        assert d.a_bar[0, 0, 0] == pytest.approx(np.exp(-0.25))
        assert d.b_bar[0, 0, 0] == pytest.approx(0.5)

    def test_formula_elementwise(self):
        rng = np.random.default_rng(0)
        p = make_continuous(rng, 5, 3, 2)
        d = discretize(p)
        for i in range(5):
            for c in range(3):
                for n in range(2):
                    assert d.a_bar[i, c, n] == np.exp(p.delta[i, c] * p.a[c, n])
                    assert d.b_bar[i, c, n] == p.delta[i, c] * p.b[i, n]

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError, match="delta"):
            ContinuousScanParams(
                a=np.array([[-1.0]]),
                b=np.array([[1.0]]),
                c_out=np.array([[1.0]]),
                d=np.array([0.0]),
                delta=np.array([[0.0]]),
            )

    def test_underflow_to_zero_accepted(self):
        # delta * a = -800 rounds exp to exactly 0: a cut edge, not an error
        p = ContinuousScanParams(
            a=np.array([[-1.0]]),
            b=np.ones((2, 1)),
            c_out=np.ones((2, 1)),
            d=np.zeros(1),
            delta=np.full((2, 1), 800.0),
        )
        assert np.all(discretize(p).a_bar == 0.0)

    @pytest.mark.parametrize("bad", [-1e-300, -1.0, np.nan, np.inf])
    def test_negative_or_non_finite_transitions_rejected(self, bad):
        with pytest.raises(ValueError, match="a_bar|NaN"):
            DiscreteScanParams(np.array([0.5, bad]).reshape(2, 1, 1), np.ones((2, 1, 1)))

    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("a_bad,b_bad,message", [
        (-1.0, None, "a_bar entries must be >= 0"),
        (-np.inf, None, "NaN or Inf"),
        (np.nan, None, "NaN or Inf"),
        (-1.0, np.inf, "NaN or Inf"),  # non-finite is reported before negative
        (None, -np.inf, "NaN or Inf"),
        (None, np.nan, "NaN or Inf"),
    ])
    def test_validation_messages_and_order(self, length, a_bad, b_bad, message):
        a_bar, b_bar = np.full((length, 2, 1), 0.5), np.ones((length, 2, 1))
        if a_bad is not None:
            a_bar[-1, 0, 0] = a_bad
        if b_bad is not None:
            b_bar[0, 1, 0] = b_bad
        with pytest.raises(ValueError, match=message):
            DiscreteScanParams(a_bar, b_bar)

    def test_single_precision_computes_in_double(self):
        """float32 transitions and inputs scan as their float64 values do,
        though the kernels scale their gathered inputs in place."""
        rng = np.random.default_rng(28)
        x, p, tree = random_scan_instance(rng, 40, 2, 3, root=39)
        a32, b32 = p.a_bar.astype(np.float32), p.b_bar.astype(np.float32)
        single = DiscreteScanParams(a32, b32)
        double = DiscreteScanParams(a32.astype(np.float64), b32.astype(np.float64))
        assert single.a_bar.dtype == single.b_bar.dtype == np.float64
        for forward in (tree_scan_vision_forward, tree_scan_language_forward):
            got, want = forward(x, single, tree), forward(x, double, tree)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_empty_and_boundary_values_accepted(self):
        DiscreteScanParams(np.zeros((0, 2, 3)), np.zeros((0, 2, 3)))
        big = np.finfo(np.float64).max
        DiscreteScanParams(np.array([0.0, big]).reshape(2, 1, 1), np.array([-big, big]).reshape(2, 1, 1))


class TestSequentialScan:
    def test_memoryless(self):
        rng = np.random.default_rng(1)
        x = FeatureMap(rng.standard_normal((6, 2)))
        b = rng.standard_normal((6, 2, 3))
        p = DiscreteScanParams(np.full((6, 2, 3), 1e-300), b)  # effectively zero
        h = sequential_selective_scan(x, p)
        np.testing.assert_allclose(h, b * x.data[:, :, None], atol=1e-290)

    def test_hand_unrolled_chain(self):
        x = FeatureMap(np.ones((3, 1)))
        p = DiscreteScanParams(
            np.array([1.0, 0.5, 0.5]).reshape(3, 1, 1), np.ones((3, 1, 1))
        )
        h = sequential_selective_scan(x, p)
        np.testing.assert_allclose(h.ravel(), [1.0, 1.5, 1.75])

    def test_prefix_sums(self):
        rng = np.random.default_rng(2)
        x = FeatureMap(rng.standard_normal((8, 1)))
        p = DiscreteScanParams(np.ones((8, 1, 1)), np.ones((8, 1, 1)))
        h = sequential_selective_scan(x, p)
        np.testing.assert_allclose(h[:, 0, 0], np.cumsum(x.data[:, 0]), rtol=1e-14)

    def test_shape_mismatch(self):
        x = FeatureMap(np.ones((3, 2)))
        p = DiscreteScanParams(np.ones((3, 1, 1)), np.ones((3, 1, 1)))
        with pytest.raises(ValueError):
            sequential_selective_scan(x, p)


class TestVisionForward:
    def test_single_vertex(self):
        x = FeatureMap(np.array([[2.0]]))
        p = DiscreteScanParams(np.array([[[0.7]]]), np.array([[[3.0]]]))
        h, xi = tree_scan_vision_forward(x, p, single_vertex_tree())
        assert h[0, 0, 0] == 6.0 and xi[0, 0, 0] == 6.0

    def test_chain_frozen_values(self, chain3_vision):
        x, p, tree = chain3_vision
        h, xi = tree_scan_vision_forward(x, p, tree)
        np.testing.assert_allclose(xi.ravel(), [1.75, 1.5, 1.0])
        np.testing.assert_allclose(h.ravel(), [1.75, 2.0, 1.75])

    def test_star_closed_form(self):
        k = 5
        edges = np.stack([np.zeros(k, dtype=np.int64), np.arange(1, k + 1)], axis=1)
        tree = root_tree(edges, np.zeros(k), k + 1, 0)
        a = 0.3
        p = DiscreteScanParams(np.full((k + 1, 1, 1), a), np.ones((k + 1, 1, 1)))
        h, _ = tree_scan_vision_forward(FeatureMap(np.ones((k + 1, 1))), p, tree)
        assert h[0, 0, 0] == pytest.approx(1 + k * a)

    def test_tiny_transitions_kill_propagation(self):
        rng = np.random.default_rng(3)
        x, p, tree = random_scan_instance(rng, 20, 2, 2)
        p = DiscreteScanParams(np.full_like(p.a_bar, 1e-300), p.b_bar)
        h, _ = tree_scan_vision_forward(x, p, tree)
        np.testing.assert_allclose(h, p.b_bar * x.data[:, :, None], atol=1e-290)

    def test_matches_naive_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 120))
            x, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            h, _ = tree_scan_vision_forward(x, p, tree)
            ref = naive_tree_scan(x, p, tree)
            assert np.max(np.abs(h - ref)) < 1e-9
        # the extreme shapes: a deep chain (one vertex per level) and a star
        # (one level of L - 1 leaves)
        k = 150
        star = root_tree(np.stack([np.zeros(k, dtype=np.int64), np.arange(1, k + 1)], axis=1),
                         np.zeros(k), k + 1, 0)
        for tree in (chain_tree(300), star):
            n = tree.num_vertices
            x = FeatureMap(rng.standard_normal((n, 2)))
            p = DiscreteScanParams(rng.uniform(0.05, 0.95, (n, 2, 2)), rng.standard_normal((n, 2, 2)))
            h, _ = tree_scan_vision_forward(x, p, tree)
            assert np.max(np.abs(h - naive_tree_scan(x, p, tree))) < 1e-9

    def test_zero_transitions_match_naive(self):
        """Exact zeros (cut edges) in about a third of the lanes: both modes
        against ``naive_tree_scan`` at 1e-9, L = 1 and 2 included."""
        rng = np.random.default_rng(30)
        for n in [1, 2, *rng.integers(3, 40, 18).tolist()]:
            x, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 4)),
                                              int(rng.integers(1, 4)), root=n - 1)
            p = DiscreteScanParams(np.where(rng.random(p.shape) < 0.3, 0.0, p.a_bar), p.b_bar)
            h, _ = tree_scan_vision_forward(x, p, tree)
            assert np.max(np.abs(h - naive_tree_scan(x, p, tree))) < 1e-9
            h_lang = tree_scan_language_forward(x, p, tree)
            for v in range(n):
                causal_ref = naive_tree_scan(x, subtree_only(p, tree, v), tree, roots=[v])
                assert np.max(np.abs(h_lang[v] - causal_ref[0])) < 1e-9

    def test_tree_size_mismatch(self, chain3_vision):
        x, p, tree = chain3_vision
        with pytest.raises(ValueError):
            tree_scan_vision_forward(FeatureMap(np.ones((4, 1))), p, tree)

    def test_two_traversal_identity(self):
        rng = np.random.default_rng(5)
        x, p, tree = random_scan_instance(rng, 50, 2, 2)
        h, xi = tree_scan_vision_forward(x, p, tree)
        for v in range(50):
            if v == tree.root:
                continue
            a = p.a_bar[v]
            lhs = h[v]
            rhs = a * h[tree.parent[v]] + (1 - a * a) * xi[v]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        x1, p, tree = random_scan_instance(rng, 30, 2, 2)
        x2 = FeatureMap(rng.standard_normal(x1.data.shape))
        alpha, beta = 0.7, -1.3
        mix = FeatureMap(alpha * x1.data + beta * x2.data)
        h_mix, _ = tree_scan_vision_forward(mix, p, tree)
        h1, _ = tree_scan_vision_forward(x1, p, tree)
        h2, _ = tree_scan_vision_forward(x2, p, tree)
        np.testing.assert_allclose(h_mix, alpha * h1 + beta * h2, atol=1e-12)

    def test_stability_bound(self):
        rng = np.random.default_rng(7)
        x, p, tree = random_scan_instance(rng, 40, 2, 2, a_range=(0.2, 1.0))
        h, _ = tree_scan_vision_forward(x, p, tree)
        bound = np.sum(np.abs(p.b_bar * x.data[:, :, None]), axis=0)
        assert np.all(np.abs(h) <= bound[None] + 1e-12)


class TestLanguageForward:
    def test_requires_last_token_root(self):
        rng = np.random.default_rng(8)
        x, p, tree = random_scan_instance(rng, 10, 1, 1, root=3)
        with pytest.raises(ValueError, match="last token"):
            tree_scan_language_forward(x, p, tree)

    def test_chain_hand_unrolled(self):
        # transitions keyed by the child-toward-root vertex: edge (0,1) by 0, (1,2) by 1
        x = FeatureMap(np.ones((3, 1)))
        p = DiscreteScanParams(
            np.array([0.5, 0.5, 1.0]).reshape(3, 1, 1), np.ones((3, 1, 1))
        )
        h = tree_scan_language_forward(x, p, chain_tree(3))
        np.testing.assert_allclose(h.ravel(), [1.0, 1.5, 1.75])

    def test_equals_sequential_on_chains(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 100))
            c, s = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            p = DiscreteScanParams(
                rng.uniform(0.05, 0.95, (n, c, s)), rng.standard_normal((n, c, s))
            )
            x = FeatureMap(rng.standard_normal((n, c)))
            h_seq = sequential_selective_scan(x, p)
            h_tree = tree_scan_language_forward(x, align_chain_params(p), chain_tree(n))
            assert np.max(np.abs(h_seq - h_tree)) <= 1e-12

    def test_constant_transitions_identical_arrays(self):
        # with a constant a_bar the edge re-keying is invisible: the same
        # parameter object feeds both scans
        rng = np.random.default_rng(10)
        n = 40
        p = DiscreteScanParams(np.full((n, 1, 2), 0.8), rng.standard_normal((n, 1, 2)))
        x = FeatureMap(rng.standard_normal((n, 1)))
        h_seq = sequential_selective_scan(x, p)
        h_tree = tree_scan_language_forward(x, p, chain_tree(n))
        np.testing.assert_allclose(h_seq, h_tree, atol=1e-12)

    def test_subtree_only_aggregation(self):
        rng = np.random.default_rng(11)
        n = 30
        x, p, tree = random_scan_instance(rng, n, 2, 2, root=n - 1)
        h = tree_scan_language_forward(x, p, tree)
        # brute force: h[i] = sum over j in subtree(i) of pathweight * b*x
        descendants = [set([v]) for v in range(n)]
        for v in reversed(tree.bfs_order.tolist()):
            if v != tree.root:
                descendants[int(tree.parent[v])] |= descendants[v]
        unit = p.b_bar * x.data[:, :, None]
        for i in range(n):
            expected = np.zeros(p.shape[1:])
            for j in descendants[i]:
                expected += path_product(tree, p, i, j) * unit[j]
            np.testing.assert_allclose(h[i], expected, atol=1e-10)

    def test_memoryless(self):
        rng = np.random.default_rng(12)
        n = 15
        x, p, tree = random_scan_instance(rng, n, 1, 2, root=n - 1)
        p = DiscreteScanParams(np.full_like(p.a_bar, 1e-300), p.b_bar)
        h = tree_scan_language_forward(x, p, tree)
        np.testing.assert_allclose(h, p.b_bar * x.data[:, :, None], atol=1e-290)


class TestNaiveScan:
    def test_single_vertex(self):
        x = FeatureMap(np.array([[2.0]]))
        p = DiscreteScanParams(np.array([[[0.7]]]), np.array([[[3.0]]]))
        h = naive_tree_scan(x, p, single_vertex_tree())
        assert h[0, 0, 0] == 6.0

    def test_single_token_random_instance(self):
        rng = np.random.default_rng(19)
        assert random_connected_graph(rng, 1).edges.shape == (0, 2)
        x, p, tree = random_scan_instance(rng, 1, 2, 3)
        h, _ = tree_scan_vision_forward(x, p, tree)
        np.testing.assert_array_equal(h, naive_tree_scan(x, p, tree))
        np.testing.assert_array_equal(h, p.b_bar * x.data[:, :, None])

    def test_unit_transitions_sum_everything(self):
        rng = np.random.default_rng(13)
        x, p, tree = random_scan_instance(rng, 25, 2, 2)
        p = DiscreteScanParams(np.ones_like(p.a_bar), p.b_bar)
        h = naive_tree_scan(x, p, tree)
        total = np.sum(p.b_bar * x.data[:, :, None], axis=0)
        for i in range(25):
            np.testing.assert_allclose(h[i], total, rtol=1e-12)

    def test_single_root_mode(self):
        rng = np.random.default_rng(14)
        x, p, tree = random_scan_instance(rng, 20, 2, 2)
        full = naive_tree_scan(x, p, tree, roots="all")
        only_root = naive_tree_scan(x, p, tree, roots="single")
        np.testing.assert_allclose(only_root, full[tree.root], atol=0)

    def test_rows_at_vertex_ids(self):
        """A sequence of ids gives the matching rows of the all-roots mode,
        byte for byte, on random trees with L = 1 and 2 among them."""
        rng = np.random.default_rng(27)
        for n in [1, 2, *rng.integers(3, 60, 20).tolist()]:
            x, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 4)),
                                              int(rng.integers(1, 4)))
            full = naive_tree_scan(x, p, tree, roots="all")
            ids = rng.integers(0, n, int(rng.integers(1, 6)))
            assert naive_tree_scan(x, p, tree, roots=ids).tobytes() == full[ids].tobytes()
            rows = naive_tree_scan(x, p, tree, roots=list(range(n)))
            assert rows.tobytes() == full.tobytes()
            assert naive_tree_scan(x, p, tree, roots=[tree.root])[0].tobytes() == \
                naive_tree_scan(x, p, tree, roots="single").tobytes()

    @pytest.mark.parametrize("roots,match", [
        ("every", "roots must be"), ("ALL", "roots must be"), ([1.0], "roots must be"),
        ([[0]], "roots must be"), ([5], "root id 5 out of range"),
        ([0, -1], "root id -1 out of range"),
    ])
    def test_bad_roots_rejected(self, roots, match):
        x, p, tree = random_scan_instance(np.random.default_rng(28), 5, 1, 1)
        with pytest.raises(ValueError, match=match):
            naive_tree_scan(x, p, tree, roots=roots)

    def test_guard_value(self):
        assert scan.NAIVE_SCAN_GUARD == 4096

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(scan, "NAIVE_SCAN_GUARD", 64)  # the quadratic scan stays cheap
        big = 100
        xb = FeatureMap(np.ones((big, 1)))
        pb = DiscreteScanParams(np.full((big, 1, 1), 0.5), np.ones((big, 1, 1)))
        tb = chain_tree(big)
        with pytest.raises(ValueError, match="refusing L = 100 > 64 without force"):
            naive_tree_scan(xb, pb, tb)
        h = naive_tree_scan(xb, pb, tb, force=True)  # allowed when forced
        assert h.shape == (big, 1, 1)


class TestOutputProjection:
    def test_pure_feedthrough(self):
        rng = np.random.default_rng(16)
        p = make_continuous(rng, 6, 2, 3)
        p.c_out[:] = 0.0
        x = FeatureMap(rng.standard_normal((6, 2)))
        h = rng.standard_normal((6, 2, 3))
        y = output_projection(h, p, x)
        np.testing.assert_allclose(y.data, p.d[None, :] * x.data, atol=1e-14)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(18)
        length, c, n = 4, 2, 3
        p = make_continuous(rng, length, c, n)
        x = FeatureMap(rng.standard_normal((length, c)))
        h = rng.standard_normal((length, c, n))
        y = output_projection(h, p, x).data
        for i in range(length):
            r = np.sqrt(np.mean(h[i] ** 2))
            for cc in range(c):
                expected = sum(p.c_out[i, nn] * h[i, cc, nn] / r for nn in range(n))
                expected += p.d[cc] * x.data[i, cc]
                assert y[i, cc] == pytest.approx(expected, rel=1e-12)

    def test_zero_hidden_state_is_safe(self):
        rng = np.random.default_rng(19)
        p = make_continuous(rng, 3, 1, 2)
        x = FeatureMap(rng.standard_normal((3, 1)))
        y = output_projection(np.zeros((3, 1, 2)), p, x)
        np.testing.assert_allclose(y.data, p.d[None, :] * x.data, atol=1e-14)

    @pytest.mark.parametrize("scale", [1e-170, 1e-120, 1e-90, 1e90, 1e120, 1e160])
    def test_scale_invariant(self, scale):
        """RMS normalization does not depend on the scale of h: y(s h) = y(h),
        s d_h(s h) = d_h(h) and d_c_out(s h) = d_c_out(h), also where the
        squares of s h underflow or overflow or 1/rms^3 would; an all-zero
        token still maps to d x and gets zero gradient."""
        rng = np.random.default_rng(27)
        p = make_continuous(rng, 6, 3, 2)
        x = FeatureMap(rng.standard_normal((6, 3)))
        h = rng.standard_normal((6, 3, 2))
        h[2] = 0.0
        d_y = rng.standard_normal((6, 3))
        y = output_projection(h, p, x).data
        d_h, d_c_out, _, _ = output_projection_backward(h, p, x, d_y)
        y_s = output_projection(scale * h, p, x).data
        d_h_s, d_c_out_s, _, _ = output_projection_backward(scale * h, p, x, d_y)
        np.testing.assert_allclose(y_s, y, rtol=1e-12, atol=0)
        np.testing.assert_allclose(scale * d_h_s, d_h, rtol=1e-12, atol=0)
        np.testing.assert_allclose(d_c_out_s, d_c_out, rtol=1e-12, atol=0)
        assert np.array_equal(y_s[2], p.d * x.data[2])
        assert np.all(d_h_s[2] == 0.0)

    def test_spatial_shape_preserved(self):
        rng = np.random.default_rng(20)
        p = make_continuous(rng, 6, 1, 1)
        x = FeatureMap(rng.standard_normal((6, 1)), spatial=(2, 3))
        y = output_projection(rng.standard_normal((6, 1, 1)), p, x)
        assert y.spatial == (2, 3)


def rerooted_affinity(tree, p, anchor):
    """``affinity_map`` by its earlier formulation: root the tree's edges at
    the anchor, key every transition to its edge's child under that rooting,
    then one ``_down`` from a unit vector at the anchor."""
    n = tree.num_vertices
    nonroot = np.flatnonzero(np.arange(n) != tree.root)
    anchored = root_tree(np.stack([nonroot, tree.parent[nonroot]], axis=1), np.zeros(n - 1), n,
                         anchor)
    key = np.where(tree.parent == anchored.parent, np.arange(n), anchored.parent)
    prod = np.zeros(p.shape)
    prod[0] = 1.0
    scan._down(anchored, prod, p.a_bar.take(key[anchored.bfs_order], axis=0))
    return prod.take(anchored.pos, axis=0).reshape(n, -1).mean(axis=1)


class TestAffinityMap:
    def test_anchor_is_one(self):
        rng = np.random.default_rng(21)
        x, p, tree = random_scan_instance(rng, 12, 2, 2)
        for anchor in (0, 5, 11):
            vals = affinity_map(tree, p, anchor)
            assert vals[anchor] == 1.0
            assert np.all(vals > 0) and np.all(vals <= 1.0)

    def test_chain_path_products(self):
        tree = root_tree(np.array([[0, 1], [1, 2]]), np.zeros(2), 3, 0)
        p = DiscreteScanParams(
            np.array([1.0, 0.5, 0.5]).reshape(3, 1, 1), np.ones((3, 1, 1))
        )
        np.testing.assert_allclose(affinity_map(tree, p, 0), [1.0, 0.5, 0.25])

    def test_all_unit_transitions(self):
        rng = np.random.default_rng(22)
        x, p, tree = random_scan_instance(rng, 9, 1, 1)
        p = DiscreteScanParams(np.ones_like(p.a_bar), p.b_bar)
        np.testing.assert_array_equal(affinity_map(tree, p, 4), np.ones(9))

    def test_monotone_away_from_anchor(self):
        rng = np.random.default_rng(23)
        x, p, tree = random_scan_instance(rng, 40, 1, 1)
        anchor = 7
        vals = affinity_map(tree, p, anchor)
        # on the anchor-rooted orientation every vertex's affinity is bounded
        # by its parent's, i.e. values never increase moving away from anchor
        edges = np.array(
            [
                [min(v, int(tree.parent[v])), max(v, int(tree.parent[v]))]
                for v in range(40)
                if v != tree.root
            ]
        )
        anchored = root_tree(edges, np.zeros(len(edges)), 40, anchor)
        for v in range(40):
            if v != anchor:
                assert vals[v] <= vals[int(anchored.parent[v])] + 1e-15

    def test_matches_path_product_oracle(self):
        """Every anchor of 30 random trees, L = 1 and 2 among them, against
        the lane mean of ``oracle.path_product`` within 1e-12; every other
        tree has exact zeros (cut edges) in about a third of the lanes."""
        rng = np.random.default_rng(29)
        for k, n in enumerate([1, 2, *rng.integers(3, 30, 28).tolist()]):
            x, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 4)),
                                              int(rng.integers(1, 4)))
            if k % 2:
                p = DiscreteScanParams(np.where(rng.random(p.shape) < 0.3, 0.0, p.a_bar), p.b_bar)
            for anchor in range(n):
                expected = [path_product(tree, p, anchor, j).mean() for j in range(n)]
                np.testing.assert_allclose(affinity_map(tree, p, anchor), expected,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("a_kind", ["random", "near-one"])
    @pytest.mark.parametrize("tree_name", UP_BRANCH_TREES)
    def test_matches_path_product_oracle_on_stress_trees(self, tree_name, a_kind):
        """Anchors at the root, the deepest leaf and a middle vertex, against
        ``oracle.path_product`` at those vertices and 20 random ones, within
        1e-12."""
        _, p, tree = stress_instance(tree_name, a_kind)
        n = tree.num_vertices
        anchors = sorted({tree.root, int(tree.bfs_order[-1]), n // 2})
        at = np.unique([*anchors, *np.random.default_rng(2).integers(0, n, 20)])
        for anchor in anchors:
            expected = [path_product(tree, p, anchor, j).mean() for j in at]
            np.testing.assert_allclose(affinity_map(tree, p, anchor)[at], expected,
                                       rtol=0, atol=1e-12)

    def test_same_bytes_as_rerooting(self):
        """Byte-equal to ``rerooted_affinity`` on random trees with cut edges,
        unit transitions or all edges cut, and on the stress trees, at the
        root, vertices 0 and L - 1, the deepest leaf and a middle vertex."""
        rng = np.random.default_rng(30)
        cases = [stress_instance(name, kind)[1:] for name in UP_BRANCH_TREES
                 for kind in ("random", "near-one")]
        for n in [1, 2, *rng.integers(3, 200, 20).tolist()]:
            _, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 4)),
                                              int(rng.integers(1, 4)))
            for a_bar in (p.a_bar, np.where(rng.random(p.shape) < 0.3, 0.0, p.a_bar),
                          np.ones(p.shape), np.zeros(p.shape)):
                cases.append((DiscreteScanParams(a_bar, p.b_bar), tree))
        for p, tree in cases:
            n = tree.num_vertices
            for anchor in {tree.root, 0, n - 1, int(tree.bfs_order[-1]), n // 2}:
                assert (affinity_map(tree, p, anchor).tobytes()
                        == rerooted_affinity(tree, p, anchor).tobytes())

    def test_invalid_anchor(self):
        rng = np.random.default_rng(24)
        x, p, tree = random_scan_instance(rng, 5, 1, 1)
        for anchor in (5, -1, 2.5, 2.0, True, np.float64(1.0)):
            with pytest.raises(ValueError, match="anchor"):
                affinity_map(tree, p, anchor)
        assert affinity_map(tree, p, np.int64(2))[2] == 1.0

    def test_transitions_above_one_rejected(self):
        rng = np.random.default_rng(25)
        x, p, tree = random_scan_instance(rng, 5, 1, 1)
        bad = DiscreteScanParams(np.full_like(p.a_bar, 1.5), p.b_bar)
        with pytest.raises(ValueError):
            affinity_map(tree, bad, 0)


def test_make_continuous_shapes():
    rng = np.random.default_rng(26)
    p = make_continuous(rng, 7, 3, 2)
    assert p.shape == (7, 3, 2)
    d = discretize(p)
    assert d.shape == (7, 3, 2)
    assert np.all(d.a_bar > 0) and np.all(d.a_bar <= 1.0)


def _continuous_with(**field):
    """Valid (L, C, N) = (4, 3, 2) continuous params with ``field`` replaced."""
    p = make_continuous(np.random.default_rng(27), 4, 3, 2)
    return ContinuousScanParams(**{**vars(p), **field})


def _projection_backward_with_d_y(d_y):
    p = make_continuous(np.random.default_rng(28), 4, 3, 2)
    x = FeatureMap(np.ones((4, 3)))
    return output_projection_backward(np.ones((4, 3, 2)), p, x, d_y)


VALIDATION_CASES = {
    "a-not-2d": (lambda: _continuous_with(a=-np.ones(3)), "a must be (C, N)"),
    "delta-not-2d": (lambda: _continuous_with(delta=np.ones(4)), "delta must be (L, C)"),
    "delta-channels": (lambda: _continuous_with(delta=np.ones((4, 2))), "delta must be (L, C)"),
    "b-shape": (lambda: _continuous_with(b=np.ones((3, 2))), "b must be (L, N) = (4, 2)"),
    "c-out-shape": (lambda: _continuous_with(c_out=np.ones((4, 3))), "c_out must be (L, N) = (4, 2)"),
    "d-shape": (lambda: _continuous_with(d=np.ones(2)), "d must be (C,) = (3,)"),
    "discrete-shapes-differ": (lambda: DiscreteScanParams(np.ones((4, 3, 2)), np.ones((4, 3, 1))),
                               "a_bar and b_bar must both be (L, C, N)"),
    "discrete-not-3d": (lambda: DiscreteScanParams(np.ones((4, 3)), np.ones((4, 3))),
                        "a_bar and b_bar must both be (L, C, N)"),
    "projection-d-y-shape": (lambda: _projection_backward_with_d_y(np.ones((4, 2))),
                             "d_y must have the feature map's (L, C) shape"),
    "affinity-params-length": (lambda: affinity_map(chain_tree(5), DiscreteScanParams(
        np.full((4, 1, 1), 0.5), np.ones((4, 1, 1))), 0), "params length does not match the tree"),
}


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_validation_messages(case):
    call, message = VALIDATION_CASES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
