import hashlib
import re
import warnings
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from treescan import (
    ContinuousScanParams,
    DiscreteScanParams,
    FeatureMap,
    SpanningTree,
    affinity_map,
    discretization_backward,
    discretize,
    io,
    naive_tree_scan,
    output_projection,
    output_projection_backward,
    path_product,
    root_tree,
    scan,
    sequential_selective_scan,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
    walk,
)
from treescan.scenarios import (
    causal_tree,
    chain_tree,
    lane_inputs,
    make_continuous,
    random_connected_graph,
    random_scan_instance,
    random_tree,
    smooth_grid_tree,
    star_tree,
)
from treescan.selfcheck import align_chain_params


STRESS_TREES = ("shuffled-levels", "chain-5000", "causal-2000", "L1", "L2")
# plus a smooth-grid tree of ~1400 levels of up to ~45 rows, at C = N = 8
LAYOUT_TREES = STRESS_TREES + ("wide-grid",)


def stress_instance(tree_name, a_kind, seed=0):
    """An instance on a tree whose row layout the level walks must get
    right, every one rooted at its last token so that both modes apply.
    ``shuffled-levels`` is built directly: the parents of each level, in
    vertex order, are neither ascending nor grouped, and vertex 1's two
    children sit apart in level 2.  ``a_kind`` "near-one" sets every a_bar
    to 1 - 1e-12.  Every tree but "wide-grid" (C = N = 8) has C = N = 2."""
    rng = np.random.default_rng(seed)
    tree = {
        "shuffled-levels": lambda: SpanningTree(np.array([6, 8, 3, 8, 1, 3, 1, 2, 8]),
                                                np.zeros(9)),
        "chain-5000": lambda: chain_tree(5000),
        "causal-2000": lambda: causal_tree(rng, 2000),
        "L1": lambda: chain_tree(1),
        "L2": lambda: chain_tree(2),
        "wide-grid": lambda: smooth_grid_tree(rng, root_last=True),
    }[tree_name]()
    tree.validate()
    c = 8 if tree_name == "wide-grid" else 2
    return (*lane_inputs(rng, tree.num_vertices, c, c, a_kind), tree)


def subtree_only(p, tree, vertex):
    """``p`` with b_bar zeroed outside ``vertex``'s subtree, so that a full
    aggregation at ``vertex`` is the causal (subtree) one."""
    inside = [False] * tree.num_vertices
    inside[vertex] = True
    parent = tree.parent.tolist()
    for v in np.concatenate(tree.levels).tolist()[1:]:  # parents before children
        inside[v] = inside[v] or inside[parent[v]]
    return DiscreteScanParams(p.a_bar, p.b_bar * np.array(inside)[:, None, None])


def scan_arrays(x, p, tree):
    """The outputs of the vision forward pass (h, xi) and, on a tree rooted
    at its last token, of the language forward pass."""
    out = list(tree_scan_vision_forward(x, p, tree))
    if tree.root == tree.num_vertices - 1:
        out.append(tree_scan_language_forward(x, p, tree))
    return out


def scan_outputs(x, p, tree):
    """The bytes of ``scan_arrays``."""
    return [arr.tobytes() for arr in scan_arrays(x, p, tree)]


class TestLayoutStress:
    @pytest.mark.parametrize("a_kind", ["random", "near-one"])
    @pytest.mark.parametrize("tree_name", STRESS_TREES)
    def test_forward_kernels_match_naive(self, tree_name, a_kind):
        x, p, tree = stress_instance(tree_name, a_kind)
        n = tree.num_vertices
        rng = np.random.default_rng(1)
        at = np.unique([tree.root, tree.levels[-1][-1], *rng.integers(0, n, 4)])
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

    @pytest.mark.parametrize("tree_name", [*LAYOUT_TREES, "star", "one-wide-level"])
    def test_level_step_matches_a_per_row_reference(self, tree_name):
        """The per-level ``_up`` gives the bytes of ``up_by_rows``, on the
        stress trees, a star and a tree of one wide level at three lanes,
        with a float64 and a float32 ``u`` (whose sums round to float32 as
        ``u[r] += v`` rounds them, lane by lane)."""
        rng = np.random.default_rng(3)
        if tree_name == "star":
            tree = star_tree(49)
            x, p, _ = random_scan_instance(rng, 50, 2, 3)
        elif tree_name == "one-wide-level":
            tree = one_wide_level_tree()
            x, p, _ = random_scan_instance(rng, tree.num_vertices, 3, 1)
        else:
            x, p, tree = stress_instance(tree_name, "random")
        level = walk.tree_walk(tree, 1)
        a = scan._swap(p.a_bar).take(level.order, axis=0)
        for dtype in (np.float64, np.float32):
            u = scan._input_terms(x, p, level.order).astype(dtype)
            expected = u.copy()
            up_by_rows(level, expected, a)
            walk._up(level, u, a)
            assert u.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("height", [1, 2])
    def test_up_refuses_a_u_it_cannot_view_flat(self, height):
        """A row-order ``u`` that is not C-contiguous raises instead of
        being summed into a copy, and is left as it was."""
        x, p, tree = stress_instance("causal-2000", "random")
        w = walk.tree_walk(tree, height)
        a = scan._swap(p.a_bar).take(w.order, axis=0)
        u = scan._swap(np.ascontiguousarray(scan._swap(scan._input_terms(x, p, w.order))))
        before = u.copy()
        with pytest.raises(ValueError, match="copy"):
            walk._up(w, u, a)
        np.testing.assert_array_equal(u, before)


BLOCK_TREES = {
    "wide-grid": lambda: smooth_grid_tree(np.random.default_rng(0), root_last=True),
    "star-1023": lambda: star_tree(1023),
    "chain-2000": lambda: chain_tree(2000),
    "causal-2000": lambda: causal_tree(np.random.default_rng(0), 2000),
    "spider": lambda: BANDED_TREES["spider"](),
    "broom-below-cut": lambda: BANDED_TREES["broom-below-cut"](),
}


@pytest.mark.parametrize("tree_name", BLOCK_TREES)
def test_chunk_and_block_bounds_are_free(tree_name, monkeypatch):
    """``_up`` and ``_down`` (on the tree's walk and on its per-level walk),
    both forwards and both backwards give the same bytes with
    ``walk.ROW_BLOCK_BYTES`` at one index entry, at 13 rows of the 4 lanes
    (which cuts the star's level and the grid's wide levels mid-way) and
    above the whole tree: neither the chunks of levels or band offsets of
    the leaf-to-root index nor the row blocks of a wide level or offset
    move an addition.  The chain, the causal tree, the spider and the broom
    band, so their level-1 join is covered, and the broom's offset 1 holds
    199 rows; the star, rooted at vertex 0, takes the vision kernels
    only."""
    tree = BLOCK_TREES[tree_name]()
    n = tree.num_vertices
    rng = np.random.default_rng(14)
    x, p = lane_inputs(rng, n, 2, 2, "random")
    d_h, u = rng.standard_normal(p.shape), rng.standard_normal(p.shape)

    def outputs():
        out = []
        for w in (tree.walk, walk.tree_walk(tree, 1)):
            for walk_pass in (walk._up, walk._down):
                out += walked(walk_pass, w, u, p.a_bar)
        h, xi = tree_scan_vision_forward(x, p, tree)
        g = tree_scan_vision_backward(x, p, tree, xi, h, d_h)
        out += [h, xi, g.d_x, g.d_a_bar, g.d_b_bar]
        if tree.root == n - 1:
            h = tree_scan_language_forward(x, p, tree)
            g = tree_scan_language_backward(x, p, tree, h, d_h)
            out += [h, g.d_x, g.d_a_bar, g.d_b_bar]
        return [arr.tobytes() for arr in out]

    default = outputs()
    for block_bytes in (8, 13 * 4 * 8, n * 4 * 8 + 8):
        monkeypatch.setattr(walk, "ROW_BLOCK_BYTES", block_bytes)
        assert outputs() == default


def test_chunks_hold_whole_levels_or_one_block():
    """Levels 1 .. 4 of 2, 1, 26 and 2 rows at 4 rows a chunk: levels 1
    and 2 share a chunk, level 3 takes 7 row blocks, in row order, and
    level 4 its own chunk; the chunks and the levels within a chunk go
    deepest first."""
    cuts = [1, 3, 4, 30, 32]
    blocks = [(s, min(s + 4, 30), [(s, min(s + 4, 30))]) for s in range(4, 30, 4)]
    expected = [(30, 32, [(30, 32)]), *blocks, (1, 4, [(3, 4), (1, 3)])]
    assert walk._chunks(cuts, 4) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_scatter_add_matches_a_loop(data):
    """``_scatter_add`` gives the bytes of ``u[r] += v`` for each row r and
    value v in index order: rows that repeat, no rows at all, buffers of
    no rows, 1 to 8 lanes (odd ones as float64, even ones as lane pairs)
    in one or two lane axes, and values of both signs from 1e-300 to
    1e300, ±0.0 among them (no sum of them overflows)."""
    lanes = data.draw(st.integers(1, 8))
    lane_shape = data.draw(st.sampled_from([(lanes,), (1, lanes)]))
    n = data.draw(st.integers(0, 5))
    rows = data.draw(st.lists(st.integers(0, n - 1), max_size=12) if n else st.just([]))
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
                      st.floats(-1e300, 1e300))
    u = data.draw(hnp.arrays(np.float64, (n, *lane_shape), elements=value))
    vals = data.draw(hnp.arrays(np.float64, (len(rows), *lane_shape), elements=value))
    expected = u.copy()
    for r, v in zip(rows, vals):
        expected[r] += v
    walk._scatter_add(u, np.array(rows, dtype=np.int64), vals)
    assert u.tobytes() == expected.tobytes()


def test_scatter_add_into_float32():
    """Float64 values into a float32 ``u`` of 4 lanes give the bytes of
    ``u[r] += v`` for each row r and value v in index order: each sum is
    taken in float64 and rounded to float32, lane by lane."""
    rng = np.random.default_rng(16)
    u = rng.standard_normal((5, 2, 2)).astype(np.float32)
    rows, vals = np.array([3, 0, 3, 3, 1]), rng.standard_normal((5, 2, 2))
    expected = u.copy()
    for r, v in zip(rows, vals):
        expected[r] += v
    walk._scatter_add(u, rows, vals)
    assert u.tobytes() == expected.tobytes()


def backward_outputs(tree, x, p, d_h):
    """d_x, d_a_bar and d_b_bar of the vision backward and, on a tree rooted
    at its last token, of the language backward, on ``d_h``."""
    h, xi = tree_scan_vision_forward(x, p, tree)
    grads = [tree_scan_vision_backward(x, p, tree, xi, h, d_h)]
    if tree.root == tree.num_vertices - 1:
        h = tree_scan_language_forward(x, p, tree)
        grads.append(tree_scan_language_backward(x, p, tree, h, d_h))
    return [getattr(g, name) for g in grads for name in ("d_x", "d_a_bar", "d_b_bar")]


def test_kernels_take_a_float32_d_h():
    """A float32 d_h walks on a per-level and a banded tree: the gradients
    are within float32 rounding of a float64 d_h's, and they are the bytes
    of the same values cast to float64 first, since the kernels sum in
    float64 whatever the caller's dtype."""
    rng = np.random.default_rng(17)
    per_level, banded = random_tree(rng, 300), causal_tree(rng, 300)
    assert per_level.walk.bands is None and banded.walk.bands is not None
    for tree in (per_level, banded):
        x, p = lane_inputs(rng, tree.num_vertices, 2, 2, "random")
        d_h = rng.standard_normal(p.shape)
        ref = backward_outputs(tree, x, p, d_h)
        got = backward_outputs(tree, x, p, d_h.astype(np.float32))
        for g, r in zip(got, ref):
            np.testing.assert_allclose(g, r, rtol=1e-5, atol=1e-5)
        cast = backward_outputs(tree, x, p, d_h.astype(np.float32).astype(np.float64))
        assert [g.tobytes() for g in got] == [c.tobytes() for c in cast]


def test_kernels_take_an_integer_d_h():
    """An integer d_h in [-3, 3] on a per-level and a banded tree, both
    rooted at their last token: both backward kernels give the bytes of the
    same d_h cast to float64 first (summed in the caller's dtype, a
    per-level walk would truncate and a banded one raise)."""
    rng = np.random.default_rng(18)
    per_level, banded = random_tree(rng, 300, root=299), causal_tree(rng, 300)
    assert per_level.walk.bands is None and banded.walk.bands is not None
    for tree in (per_level, banded):
        x, p = lane_inputs(rng, tree.num_vertices, 2, 2, "random")
        d_h = rng.integers(-3, 4, p.shape)
        got = backward_outputs(tree, x, p, d_h)
        cast = backward_outputs(tree, x, p, d_h.astype(np.float64))
        assert len(got) == 6 and [g.tobytes() for g in got] == [c.tobytes() for c in cast]


def test_kernels_run_on_zero_states():
    """An (L, C, 0) instance, which ``DiscreteScanParams`` accepts, walks
    rows of no lanes: every kernel returns arrays of zero states and d_x
    of zeros, on a per-level and a banded tree.  The output projection
    and its backward take the zero states without a warning: y = d * x,
    d_x = d_y * d and d_h has zero states."""
    rng = np.random.default_rng(5)
    for tree in (random_tree(rng, 40), causal_tree(rng, 200, m=3)):
        n = tree.num_vertices
        x = FeatureMap(rng.standard_normal((n, 3)))
        p = DiscreteScanParams(np.empty((n, 3, 0)), np.empty((n, 3, 0)))
        h, xi = tree_scan_vision_forward(x, p, tree)
        g = tree_scan_vision_backward(x, p, tree, xi, h, np.empty((n, 3, 0)))
        assert h.shape == xi.shape == g.d_a_bar.shape == (n, 3, 0)
        assert np.array_equal(g.d_x, np.zeros((n, 3)))
        params = ContinuousScanParams(np.empty((3, 0)), np.empty((n, 0)), np.empty((n, 0)),
                                      rng.standard_normal(3), rng.uniform(0.1, 1.0, (n, 3)))
        d_y = rng.standard_normal((n, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = output_projection(h, params, x)
            d_h, _, _, d_x = output_projection_backward(h, params, x, d_y)
        assert np.array_equal(y.data, params.d * x.data)
        assert np.array_equal(d_x, d_y * params.d)
        assert d_h.shape == (n, 3, 0)
        if tree.root == n - 1:
            h = tree_scan_language_forward(x, p, tree)
            g = tree_scan_language_backward(x, p, tree, h, np.empty((n, 3, 0)))
            assert h.shape == g.d_b_bar.shape == (n, 3, 0)
            assert np.array_equal(g.d_x, np.zeros((n, 3)))


def up_by_rows(w, u, a):
    """The leaf-to-root pass one row at a time on a walk of height 1: the
    levels deepest first, the rows of a level in row order."""
    c = w.cuts
    for lo, hi in reversed([*zip(c, c[1:])]):
        for r in range(lo, hi):
            u[w.ppos[r]] += u[r] * a[r]


def one_wide_level_tree():
    """A tree rooted at its last token whose level 2 holds 200 rows, 20
    under each of the 10 rows of level 1, which take turns as the parent
    of the next level-2 row; every other level-2 row has one child."""
    mid = np.tile(np.arange(1, 11), 20)  # parents of vertices 11..210
    low = np.arange(11, 211, 2)  # every other level-2 vertex has one child
    parent = np.concatenate([[0], np.zeros(10, dtype=np.int64), mid, low])
    n = parent.size
    edges = n - 1 - np.stack([np.arange(1, n), parent[1:]], axis=1)  # rooted at the last token
    return root_tree(edges, np.ones(n - 1), n, n - 1)


def parent_vertex_order(tree):
    """The same tree relabelled so that its walk lists each level in
    (parent, vertex) order of the old labels: every parent's children
    together, in their old order.  Vertex k of the result is vertex
    ``perm[k]`` of ``tree``; the deepest level comes first, so that a root
    at the last vertex stays there.  Returns the tree and ``perm``."""
    n = tree.num_vertices
    perm = np.lexsort((np.arange(n), tree.parent, -tree.depths))
    return SpanningTree(np.argsort(perm)[tree.parent[perm]], tree.edge_weight_to_parent[perm]), perm


def assert_grouped_by_parent(tree):
    """Every level of the walk lists each parent's children in one run."""
    w = tree.walk
    for lo, hi in w.spans[1:].tolist():
        assert np.count_nonzero(np.diff(w.ppos[lo:hi])) + 1 == np.unique(w.ppos[lo:hi]).size


def permuted_instance(x, p, perm):
    """``x`` and ``p`` with their rows taken in ``perm`` order."""
    return FeatureMap(x.data[perm]), DiscreteScanParams(p.a_bar[perm], p.b_bar[perm])


def assert_level_order(tree):
    """The walk's ``ppos`` is each row's parent row, and its level d lists
    the vertices of depth d, ascending."""
    w = tree.walk
    assert w.ppos[0] == 0
    np.testing.assert_array_equal(w.order[w.ppos[1:]], tree.parent[w.order[1:]])
    for d, (lo, hi) in enumerate(w.spans.tolist()):
        assert w.order[lo:hi].tolist() == np.flatnonzero(tree.depths == d).tolist()


class TestRankSchedule:
    @pytest.mark.parametrize("tree_name", LAYOUT_TREES)
    def test_stress_trees(self, tree_name):
        assert_level_order(stress_instance(tree_name, "random")[2])

    def test_random_trees_and_a_star(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            assert_level_order(random_tree(rng, int(rng.integers(1, 200))))
        tree = star_tree(49)
        assert_level_order(tree)
        assert tree.walk.order.tolist() == list(range(50))
        assert tree.walk.ppos.tolist() == [0] * 50  # every child of the centre under row 0

    def test_one_wide_level_at_three_lanes(self):
        """A tree whose level 2 holds 200 rows, 20 under each of 10 parents,
        one child of every parent in turn, scans at 3 lanes to the bytes of
        the same tree relabelled so that level 2 lists each parent's
        children together, in the same order."""
        tree = one_wide_level_tree()
        n = tree.num_vertices
        assert np.diff(tree.walk.spans).ravel().tolist() == [1, 10, 200, 100]
        assert_level_order(tree)
        lo, hi = tree.walk.spans[2]
        np.testing.assert_array_equal(tree.walk.ppos[lo:hi], np.tile(np.arange(1, 11), 20))
        grouped, perm = parent_vertex_order(tree)
        assert grouped.root == n - 1
        np.testing.assert_array_equal(grouped.walk.ppos[lo:hi], np.repeat(np.arange(1, 11), 20))
        rng = np.random.default_rng(4)
        x = FeatureMap(rng.standard_normal((n, 3)))
        p = DiscreteScanParams(rng.uniform(0.05, 0.95, (n, 3, 1)), rng.standard_normal((n, 3, 1)))
        got = scan_outputs(*permuted_instance(x, p, perm), grouped)
        assert got == [arr[perm].tobytes() for arr in scan_arrays(x, p, tree)]

    @pytest.mark.parametrize("tree_name", LAYOUT_TREES)
    def test_order_within_a_level_is_free(self, tree_name):
        """Relabelled so that every level lists each parent's children
        together (``parent_vertex_order``), a tree scans to the same bytes,
        row for row: no kernel reads the order of a level beyond the order
        in which each parent adds its children, which the relabelling
        keeps."""
        x, p, tree = stress_instance(tree_name, "random")
        grouped, perm = parent_vertex_order(tree)
        assert grouped.root == tree.root == tree.num_vertices - 1
        assert_level_order(grouped)
        assert_grouped_by_parent(grouped)
        assert grouped.walk.cuts == tree.walk.cuts
        np.testing.assert_array_equal(grouped.walk.spans, tree.walk.spans)
        got = scan_outputs(*permuted_instance(x, p, perm), grouped)
        assert got == [arr[perm].tobytes() for arr in scan_arrays(x, p, tree)]

    def test_tree_file_in_parent_vertex_order(self, tmp_path):
        """A tree file of the wide grid relabelled so that each level of its
        walk is in (parent, vertex) order loads with ``pos`` the inverse of
        its ``order`` and other parent rows, and scans to the grid's bytes
        and affinity maps, row for row."""
        x, p, tree = stress_instance("wide-grid", "random")
        n = tree.num_vertices
        grouped, perm = parent_vertex_order(tree)
        io.write_tree(tmp_path / "grouped.json", grouped)
        back = io.read_tree(tmp_path / "grouped.json")
        np.testing.assert_array_equal(back.parent, grouped.parent)
        np.testing.assert_array_equal(back.walk.pos[back.walk.order], np.arange(n))
        np.testing.assert_array_equal(back.walk.order[back.walk.pos], np.arange(n))
        assert back.walk.cuts == tree.walk.cuts
        np.testing.assert_array_equal(back.walk.spans, tree.walk.spans)
        assert_level_order(back)
        assert_grouped_by_parent(back)
        assert not np.array_equal(back.walk.ppos, tree.walk.ppos)
        xg, pg = permuted_instance(x, p, perm)
        new_label = np.argsort(perm)
        for anchor in (tree.root, int(tree.levels[-1][-1]), n // 2):
            assert (affinity_map(back, pg, int(new_label[anchor])).tobytes()
                    == affinity_map(tree, p, anchor)[perm].tobytes())
        assert scan_outputs(xg, pg, back) == [arr[perm].tobytes()
                                              for arr in scan_arrays(x, p, tree)]

    def test_tree_file_round_trips_the_walk(self, tmp_path):
        """A tree written and read back has the same walk (rows, parent rows,
        cuts and level spans), scans to the same bytes and gives the same
        affinity maps."""
        x, p, tree = stress_instance("wide-grid", "random")
        n = tree.num_vertices
        io.write_tree(tmp_path / "t.json", tree)
        back = io.read_tree(tmp_path / "t.json")
        for name in ("order", "pos", "ppos"):
            assert getattr(back.walk, name).tobytes() == getattr(tree.walk, name).tobytes()
        assert back.walk.cuts == tree.walk.cuts
        np.testing.assert_array_equal(back.walk.spans, tree.walk.spans)
        for anchor in (tree.root, int(tree.levels[-1][-1]), n // 2):
            assert affinity_map(back, p, anchor).tobytes() == affinity_map(tree, p, anchor).tobytes()
        assert scan_outputs(x, p, back) == scan_outputs(x, p, tree)

    def test_validate_drops_a_cached_walk(self):
        """A walk cached before ``parent`` is reassigned is dropped by
        ``validate``: the walk built after it has the rows and parent rows
        of a fresh tree with the new parents, here the same grid rooted at
        pixel 0 instead of its last pixel."""
        tree = stress_instance("wide-grid", "random")[2]
        stale, fresh = tree.walk, smooth_grid_tree(np.random.default_rng(0))
        tree.parent, tree.edge_weight_to_parent = fresh.parent, fresh.edge_weight_to_parent
        tree.validate()
        assert not np.array_equal(fresh.walk.pos, stale.pos)
        assert not np.array_equal(fresh.walk.ppos, stale.ppos)
        np.testing.assert_array_equal(tree.walk.pos, fresh.walk.pos)
        np.testing.assert_array_equal(tree.walk.ppos, fresh.walk.ppos)


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


BANDED_TREES = {
    "chain-5000": lambda: chain_tree(5000),
    "causal-2000": lambda: causal_tree(np.random.default_rng(0), 2000),
    "causal-2000-parent-order": lambda: parent_vertex_order(
        causal_tree(np.random.default_rng(0), 2000))[0],
    "chain-51": lambda: chain_tree(51),  # 7 bands of 7 levels below the root, then 1 of 1
    "chain-50": lambda: chain_tree(50),  # 7 full bands
    "spider": lambda: spider(3, 40),
    "broom-below-cut": lambda: broom(64, walk.BAND_ROWS_MAX * 64 - 1 - 64),
}


PINNED_TREES = {**BANDED_TREES, "causal-8192": lambda: causal_tree(np.random.default_rng(1), 8192)}
# blake2b of ``kernel_outputs`` on each tree, recorded while the band phases
# still gathered their rows out of the (depth, vertex) order
KERNEL_DIGESTS = {
    "chain-5000": "a7ce60473cc7734f8723b98bb7020712",
    "causal-2000": "4f0bcb47fc1f078eaadf4b4ee9cd0db0",
    "causal-2000-parent-order": "9c2eb5bac8de5cbb9db2b249d131abcc",
    "chain-51": "993c6fa059296cff6b3927b87477be16",
    "chain-50": "a16ccd69e497f5da091340d09ed37a79",
    "spider": "6e6be72cf41c174aec51651c1640f533",
    "broom-below-cut": "05163a10faebe040d8468f288c67fde6",
    "causal-8192": "59e397eaae923a51d6cde87c86941a78",
}


def kernel_outputs(tree):
    """Every output of the four kernels at C = N = 2: h and xi of the vision
    forward, h_lang, then d_x, d_a_bar and d_b_bar of the vision and of the
    language backward, on one random d_h."""
    rng = np.random.default_rng(13)
    x, p = lane_inputs(rng, tree.num_vertices, 2, 2, "random")
    d_h = rng.standard_normal(p.shape)
    h, xi = tree_scan_vision_forward(x, p, tree)
    h_lang = tree_scan_language_forward(x, p, tree)
    out = [h, xi, h_lang]
    for g in (tree_scan_vision_backward(x, p, tree, xi, h, d_h),
              tree_scan_language_backward(x, p, tree, h_lang, d_h)):
        out += [g.d_x, g.d_a_bar, g.d_b_bar]
    return out


def band_top(tree, row):
    """The row of ``row``'s band top, found by walking up its parents."""
    k = tree.walk.height
    level = int(tree.depths[tree.walk.order[row]])
    for _ in range((level - 1) % k):
        row = int(tree.walk.ppos[row])
    return row


def walked(walk_pass, w, u, a):
    """``walk_pass`` on ``w`` of the vertex-order arrays ``u`` and ``a``:
    each gathered into ``w``'s rows, walked, and gathered back.  Returns
    ``(u, a)`` after the pass, in vertex order."""
    u_w, a_w = u.take(w.order, axis=0), a.take(w.order, axis=0)
    walk_pass(w, u_w, a_w)
    return u_w.take(w.pos, axis=0), a_w.take(w.pos, axis=0)


@st.composite
def walk_instances(draw):
    """A tree of 2 to 200 vertices, a band height from 2 to its level count
    + 1, a lane count from 1 to 8 and a random generator.  The shapes: a
    random tree, a chain and a caterpillar (a spine with leaves), each
    rooted at a random vertex; and a causal m = 1-4 tree rooted at its last
    token."""
    shape = draw(st.sampled_from(["random", "chain", "caterpillar", "causal"]))
    n = draw(st.integers(2, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    root, v = int(rng.integers(0, n)), np.arange(1, n)
    if shape == "causal":
        tree = causal_tree(rng, n, draw(st.integers(1, 4)))
    else:
        if shape == "chain":
            up = v - 1
        elif shape == "caterpillar":
            spine = draw(st.integers(1, n))
            up = np.where(v < spine, v - 1, rng.integers(0, spine, n - 1))
        else:
            up = rng.integers(0, v)  # vertex v hangs off a smaller one
        tree = root_tree(np.stack([v, up], axis=1), np.zeros(n - 1), n, root)
    height = draw(st.integers(2, len(tree.levels) + 1))
    return tree, height, draw(st.integers(1, 8)), rng


class TestBandedWalks:
    @settings(max_examples=100, deadline=None)
    @given(instance=walk_instances())
    def test_layout_at_every_height(self, instance):
        """``tree_walk`` at every height from 1 to the level count + 1 on
        small trees of every shape: ``pos`` inverts ``order``; ``ppos`` is
        each row's parent row; every level is one contiguous slice of
        ``order`` (``spans``), ascending by vertex; the rows between
        consecutive ``cuts`` hold one level at height 1, above it the
        levels of one offset 1, 2, ..., band by band, with the band tops
        (offset 0) before the first cut; at height 1 ``order`` is the
        vertices by (depth, vertex)."""
        tree, n = instance[0], instance[0].num_vertices
        depths, rows = tree.depths, np.arange(n)
        below = np.flatnonzero(depths > 0)
        for k in range(1, len(tree.levels) + 2):
            w = walk.tree_walk(tree, k)
            assert w.height == k and len(w.spans) == len(tree.levels)
            np.testing.assert_array_equal(w.pos[w.order], rows)
            assert w.order[0] == tree.root and w.ppos[0] == 0
            np.testing.assert_array_equal(w.order[w.ppos[1:]], tree.parent[w.order[1:]])
            level = depths[w.order]
            np.testing.assert_array_equal(np.diff(w.spans).ravel(), np.bincount(depths))
            assert np.all((w.spans[level, 0] <= rows) & (rows < w.spans[level, 1]))
            assert np.all(np.diff(w.order)[np.diff(level) == 0] > 0)
            if k == 1:
                np.testing.assert_array_equal(w.order, np.argsort(depths, kind="stable"))
                assert w.cuts == [*w.spans[1:, 0].tolist(), n]
                continue
            off = (depths[below] - 1) % k  # offset j's levels, then band by band
            np.testing.assert_array_equal(w.order[1:], below[np.lexsort((depths[below], off))])
            assert [1, *w.cuts] == np.cumsum([1, *np.bincount(off, minlength=k)]).tolist()

    @settings(max_examples=300, deadline=None)
    @given(instance=walk_instances())
    def test_any_band_height_matches_the_level_walk(self, instance):
        """On small trees of every shape, the banded walks at any height
        equal the per-level walks within 1e-12, and the leaf-to-root walk
        leaves ``a`` as it was."""
        tree, height, lanes, rng = instance
        a = rng.uniform(0.05, 0.95, (tree.num_vertices, lanes))
        u = rng.standard_normal(a.shape)
        level_walk, banded = walk.tree_walk(tree, 1), walk.tree_walk(tree, height)
        for walk_pass in (walk._up, walk._down):
            ref, _ = walked(walk_pass, level_walk, u, a)
            got, a_got = walked(walk_pass, banded, u, a)
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
            if walk_pass is walk._up:
                assert a_got.tobytes() == a.tobytes()

    def test_single_vertex_walks_one_level_a_step(self):
        """At L = 1 no band plan fits (one of height 2 would index past the
        one row), and ``tree_walk`` builds none."""
        assert chain_tree(1).walk.height == 1

    def test_band_height_follows_the_shape(self):
        """isqrt(depth) levels a band when the levels hold fewer than
        ``BAND_ROWS_MAX`` rows on average: a broom of 64 levels bands with
        one vertex fewer than 64 times that and not with exactly as many;
        L = 1, L = 2, 3 levels (height 1) and a wide grid never band."""
        cut = walk.BAND_ROWS_MAX * 64
        below, at_cut = broom(64, cut - 1 - 64), broom(64, cut - 64)
        assert (below.num_vertices, at_cut.num_vertices) == (cut - 1, cut)
        assert len(below.levels) == len(at_cut.levels) == 64
        for tree in (chain_tree(1), chain_tree(2), chain_tree(3), at_cut,
                     smooth_grid_tree(np.random.default_rng(0))):
            assert tree.walk.bands is None
        for tree, height in ((chain_tree(4), 2), (chain_tree(5000), 70), (below, 8)):
            assert tree.walk.height == height and tree.walk.bands is not None

    @pytest.mark.parametrize("tree_name", BANDED_TREES)
    def test_plan_layout(self, tree_name):
        """The banded walk's rows: the root, then each band's tops, then
        every offset's rows once (between the walk's ``cuts``), with their
        parent rows, by band and within a band in (depth, vertex) order;
        each row's parent among the rows of the offset above (its place),
        and its band top as a walk up its parents finds it.  At the tops of
        bands 1, 2, ... (levels 1 + k, 1 + 2k, ...): the parent's band top
        and the parent among the last offset's rows; those parents are the
        links, band by band, and every row's ``anc`` finds its band top's
        parent among them."""
        tree = BANDED_TREES[tree_name]()
        w, plan, n = tree.walk, tree.walk.bands, tree.num_vertices
        k, c, t = w.height, w.cuts, plan.tops
        o = [1, *c]  # every offset's first row, then L
        rows = walk.tree_walk(tree, 1).pos[w.order]  # the (depth, vertex) row of every row
        np.testing.assert_array_equal(w.pos[w.order], np.arange(n))
        assert w.order[0] == tree.root and w.ppos[0] == 0
        np.testing.assert_array_equal(w.order[w.ppos[1:]], tree.parent[w.order[1:]])
        assert (t[0], c[0], c[-1], len(c)) == (1, t[-1], n, k)
        assert len(t) - 1 == -(-(len(tree.levels) - 1) // k)
        for b in range(len(t) - 1):
            assert w.order[t[b] : t[b + 1]].tolist() == tree.levels[1 + b * k].tolist()
        for j in range(1, k):
            lo, hi = o[j], o[j + 1]
            at_j = np.flatnonzero((tree.depths > 0) & ((tree.depths - 1) % k == j))
            assert sorted(w.order[lo:hi].tolist()) == at_j.tolist()
            par = w.ppos[lo:hi]
            assert np.all((par >= o[j - 1]) & (par < o[j]))  # places among offset j - 1's rows
            band = (tree.depths[w.order[lo:hi]] - 1) // k
            assert np.all(np.diff(band) >= 0)  # ascending by band
            # in a band, by (depth, vertex)
            assert np.all(np.diff(rows[lo:hi])[np.diff(band) == 0] > 0)
        assert plan.top.tolist() == [band_top(tree, r) for r in range(n)]
        assert np.flatnonzero(plan.top == np.arange(n)).tolist() == list(range(o[1]))
        tops = np.arange(t[1], t[-1])
        assert np.all(w.ppos[tops] >= o[k - 1])
        assert plan.top[w.ppos[tops]].tolist() == [band_top(tree, int(w.ppos[r])) for r in tops]
        links, lb = plan.links, plan.link_bounds
        assert links[0] == 0 and sorted(links[1:].tolist()) == np.unique(w.ppos[tops]).tolist()
        assert (lb[0], lb[-1], len(lb)) == (1, len(links), len(t))
        for b in range(len(t) - 1):
            band = plan.top[links[lb[b] : lb[b + 1]]]
            assert np.all((band >= t[b]) & (band < t[b + 1]))
        np.testing.assert_array_equal(links[plan.anc], w.ppos[plan.top])

    @pytest.mark.parametrize("tree_name", PINNED_TREES)
    def test_kernel_bytes_pinned(self, tree_name):
        """The bytes of every kernel output on the banded trees and a
        causal-train-sized one: a change to the banded walks that moves an
        addition or a product, such as the order in which a parent adds two
        children, fails here."""
        tree = PINNED_TREES[tree_name]()
        assert tree.walk.bands is not None
        digest = hashlib.blake2b(digest_size=16)
        for arr in kernel_outputs(tree):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == KERNEL_DIGESTS[tree_name]

    @pytest.mark.parametrize("lanes", [(3, 1), (2, 2)])
    @pytest.mark.parametrize("tree_name", BANDED_TREES)
    def test_lanes_walk_apart(self, tree_name, lanes):
        """h, xi, h_lang and both backwards' d_a_bar and d_b_bar of a run
        on C x N lanes equal, lane for lane, the bytes of C x N one-lane
        runs: at C * N = 3 the walks add float64 lanes, at 4 lane pairs."""
        tree = BANDED_TREES[tree_name]()
        rng = np.random.default_rng(15)
        c, n = lanes
        x, p = lane_inputs(rng, tree.num_vertices, c, n, "random")
        d_h = rng.standard_normal(p.shape)

        def outputs(x, p, d_h):
            h, xi = tree_scan_vision_forward(x, p, tree)
            h_lang = tree_scan_language_forward(x, p, tree)
            g_vision = tree_scan_vision_backward(x, p, tree, xi, h, d_h)
            g_lang = tree_scan_language_backward(x, p, tree, h_lang, d_h)
            return [h, xi, h_lang, g_vision.d_a_bar, g_vision.d_b_bar, g_lang.d_a_bar,
                    g_lang.d_b_bar]

        every = outputs(x, p, d_h)
        for i in range(c):
            for j in range(n):
                lane = np.s_[:, i : i + 1, j : j + 1]
                one = outputs(FeatureMap(x.data[:, i : i + 1]),
                              DiscreteScanParams(p.a_bar[lane], p.b_bar[lane]), d_h[lane])
                assert [arr[lane].tobytes() for arr in every] == [arr.tobytes() for arr in one]

    @pytest.mark.parametrize("a_kind", ["random", "near-one", "zeros", "small"])
    @pytest.mark.parametrize("tree_name", BANDED_TREES)
    def test_kernels_match_naive(self, tree_name, a_kind):
        """Both forward kernels within 1e-9 of ``naive_tree_scan`` at the
        root, the deepest vertex and random ones; the banded walks within
        1e-9 of the per-level ones at every row, the leaf-to-root walk
        leaving ``a`` as it was; ``h_lang == xi`` bitwise, and the same
        bytes on a second run."""
        tree = BANDED_TREES[tree_name]()
        assert tree.walk.bands is not None
        rng = np.random.default_rng(7)
        n = tree.num_vertices
        x, p = lane_inputs(rng, n, 2, 2, a_kind)
        at = np.unique([tree.root, tree.levels[-1][-1], *rng.integers(0, n, 3)])
        h, xi = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        assert np.max(np.abs(h[at] - naive_tree_scan(x, p, tree, roots=at, force=True))) < 1e-9
        for v in at.tolist():
            causal_ref = naive_tree_scan(x, subtree_only(p, tree, v), tree, roots=[v], force=True)
            assert np.max(np.abs(h_lang[v] - causal_ref[0])) < 1e-9
        np.testing.assert_array_equal(h_lang, xi)
        assert scan_outputs(x, p, tree) == [h.tobytes(), xi.tobytes(), h_lang.tobytes()]
        a = p.a_bar
        u = rng.standard_normal(a.shape)
        for walk_pass in (walk._up, walk._down):
            ref, _ = walked(walk_pass, walk.tree_walk(tree, 1), u, a)
            got, a_got = walked(walk_pass, tree.walk, u, a)
            assert np.max(np.abs(got - ref)) < 1e-9
            if walk_pass is walk._up:
                assert a_got.tobytes() == a.tobytes()

    @pytest.mark.parametrize("tree_name", ["smooth-grid", "random-bushy"])
    def test_any_height_matches_the_level_walks(self, tree_name):
        """Plans of height 2, 3 and isqrt(depth) on trees that
        ``BAND_ROWS_MAX`` does not band, with wide levels and parents of
        many children at each offset: the banded walks within 1e-9 of the
        per-level ones at every row, the leaf-to-root walk leaving ``a`` as
        it was."""
        rng = np.random.default_rng(10)
        tree = {
            "smooth-grid": lambda: smooth_grid_tree(rng),
            "random-bushy": lambda: rooted_at_last(
                [0, *rng.integers(np.arange(1, 2000) // 2, np.arange(1, 2000)).tolist()]),
        }[tree_name]()
        assert tree.walk.bands is None
        depth = len(tree.levels)
        assert depth > 3 and tree.num_vertices > walk.BAND_ROWS_MAX * depth
        x, p = lane_inputs(rng, tree.num_vertices, 2, 2, "random")
        a = p.a_bar
        u = rng.standard_normal(a.shape)
        for height in (2, 3, isqrt(depth)):
            banded = walk.tree_walk(tree, height)
            for walk_pass in (walk._up, walk._down):
                ref, _ = walked(walk_pass, tree.walk, u, a)
                got, a_got = walked(walk_pass, banded, u, a)
                assert np.max(np.abs(got - ref)) < 1e-9
                if walk_pass is walk._up:
                    assert a_got.tobytes() == a.tobytes()

    def test_band_products_underflow(self):
        """On a 12000-chain (bands of 109 levels) with a_bar about 1e-3, the
        root-to-leaf walk's band products underflow to 0, and the kernels
        still match ``naive_tree_scan`` within 1e-9."""
        tree = chain_tree(12000)
        assert tree.walk.height == 109
        rng = np.random.default_rng(8)
        x, p = lane_inputs(rng, tree.num_vertices, 1, 1, "small")
        a = p.a_bar.take(tree.walk.order, axis=0)
        walk._down(tree.walk, np.zeros(a.shape), a)
        assert np.all(p.a_bar > 0) and np.any(a == 0.0)
        at = np.array([tree.root, 0, 6000, 11000 - 1])
        h, _ = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        assert np.max(np.abs(h[at] - naive_tree_scan(x, p, tree, roots=at, force=True))) < 1e-9
        for v in at.tolist():
            causal_ref = naive_tree_scan(x, subtree_only(p, tree, v), tree, roots=[v], force=True)
            assert np.max(np.abs(h_lang[v] - causal_ref[0])) < 1e-9

    def test_plan_built_on_first_read(self):
        """A walk builds its band plan only when a pass reads it:
        ``affinity_map`` takes the per-level walk of a banded tree and builds
        no plan; the language forward builds it."""
        tree = chain_tree(5000)
        rng = np.random.default_rng(12)
        x, p = lane_inputs(rng, tree.num_vertices, 1, 1, "random")
        affinity_map(tree, p, 2500)
        assert tree.walk.height == 70 and "bands" not in vars(tree.walk)
        tree_scan_language_forward(x, p, tree)
        assert vars(tree.walk)["bands"] is not None

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
            "L1": lambda: chain_tree(1),
            "L2": lambda: chain_tree(2),
        }[tree_name]()
        assert tree.walk.bands is None
        n = tree.num_vertices
        x, p = lane_inputs(rng, n, 2, 2, "random")
        order, pos = tree.walk.order, tree.walk.pos
        h = (p.b_bar * x.data[:, :, None]).take(order, axis=0)
        walk._up(tree.walk, h, p.a_bar.take(order, axis=0))
        h = h.take(pos, axis=0)
        assert tree_scan_language_forward(x, p, tree).tobytes() == h.tobytes()
        d_h = rng.standard_normal(p.shape)
        rho = d_h.take(order, axis=0)
        walk._down(tree.walk, rho, p.a_bar.take(order, axis=0))
        d_b_bar = rho.take(pos, axis=0) * x.data[:, :, None]
        g = scan.tree_scan_language_backward(x, p, tree, h, d_h)
        assert g.d_b_bar.tobytes() == d_b_bar.tobytes()


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
        h, xi = tree_scan_vision_forward(x, p, chain_tree(1))
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
        for v in reversed(np.concatenate(tree.levels).tolist()):  # children before parents
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
        h = naive_tree_scan(x, p, chain_tree(1))
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
    level_walk = walk.tree_walk(anchored, 1)
    walk._down(level_walk, prod, p.a_bar.take(key[level_walk.order], axis=0))
    return prod.take(level_walk.pos, axis=0).reshape(n, -1).mean(axis=1)


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
    @pytest.mark.parametrize("tree_name", LAYOUT_TREES)
    def test_matches_path_product_oracle_on_stress_trees(self, tree_name, a_kind):
        """Anchors at the root, the deepest leaf and a middle vertex, against
        ``oracle.path_product`` at those vertices and 20 random ones, within
        1e-12."""
        _, p, tree = stress_instance(tree_name, a_kind)
        n = tree.num_vertices
        anchors = sorted({tree.root, int(tree.levels[-1][-1]), n // 2})
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
        cases = [stress_instance(name, kind)[1:] for name in LAYOUT_TREES
                 for kind in ("random", "near-one")]
        for n in [1, 2, *rng.integers(3, 200, 20).tolist()]:
            _, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 4)),
                                              int(rng.integers(1, 4)))
            for a_bar in (p.a_bar, np.where(rng.random(p.shape) < 0.3, 0.0, p.a_bar),
                          np.ones(p.shape), np.zeros(p.shape)):
                cases.append((DiscreteScanParams(a_bar, p.b_bar), tree))
        for p, tree in cases:
            n = tree.num_vertices
            for anchor in {tree.root, 0, n - 1, int(tree.levels[-1][-1]), n // 2}:
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


def is_state_major(arr):
    """An (L, C, N) view of C-contiguous (L, N, C) memory."""
    return arr.base is not None and arr.transpose(0, 2, 1).flags.c_contiguous


def training_outputs(x, p, params, tree, d_y, to=lambda arr: arr):
    """Every output of both modes' steps, by name, each full-size array
    handed on through ``to``; one token of h is scaled by 1e-170 for the
    projections, so that they also take their rescaled path."""
    h, xi = map(to, tree_scan_vision_forward(x, p, tree))
    h_lang = to(tree_scan_language_forward(x, p, tree))
    h_far = h.copy(order="K")
    h_far[len(h) // 2] *= 1e-170
    out = {"h": h, "xi": xi, "h_lang": h_lang}
    for name, hp in (("", h), ("far ", h_far)):
        out[name + "y"] = output_projection(hp, params, x).data
        d_h, *rest = output_projection_backward(hp, params, x, d_y)
        out.update({name + "d_h": to(d_h), **dict(zip((name + "d_c_out", name + "d_d",
                                                        name + "d_x"), rest))})
    for mode, g in (
        ("vision", tree_scan_vision_backward(x, p, tree, xi, h, out["d_h"])),
        ("language", tree_scan_language_backward(x, p, tree, h_lang, out["d_h"])),
    ):
        d_a_bar, d_b_bar = to(g.d_a_bar), to(g.d_b_bar)
        out.update({f"{mode} d_x": g.d_x, f"{mode} d_a_bar": d_a_bar,
                    f"{mode} d_b_bar": d_b_bar})
        out.update(zip((f"{mode} d_a", f"{mode} d_b", f"{mode} d_delta"),
                       discretization_backward(params, p, d_a_bar, d_b_bar)))
    return out


class TestStateMajorLayout:
    """Full-size lane arrays live as (L, N, C) memory behind (L, C, N)
    views; inputs of any layout give the same bytes."""

    @pytest.mark.parametrize("tree_name", ["random-60", "chain-200"])
    def test_full_size_outputs_are_state_major(self, tree_name):
        rng = np.random.default_rng(40)
        n = {"random-60": 60, "chain-200": 200}[tree_name]
        x, _, tree = random_scan_instance(rng, n, 3, 4, root=n - 1)
        if tree_name == "chain-200":
            tree = chain_tree(n)
            assert tree.walk.bands is not None
        params = make_continuous(rng, n, 3, 4)
        disc = discretize(params)
        out = training_outputs(x, disc, params, tree, rng.standard_normal((n, 3)))
        full = {"a_bar": disc.a_bar, "b_bar": disc.b_bar,
                **{k: v for k, v in out.items() if np.ndim(v) == 3}}
        assert len(full) == 11
        for name, arr in full.items():
            assert arr.shape == (n, 3, 4) and arr.dtype == np.float64, name
            assert is_state_major(arr) and not arr.flags.c_contiguous, name

    def test_params_copy_only_foreign_layouts(self):
        rng = np.random.default_rng(41)
        a_bar, b_bar = rng.uniform(0.1, 0.9, (6, 3, 4)), rng.standard_normal((6, 3, 4))
        p = DiscreteScanParams(a_bar, b_bar)
        assert is_state_major(p.a_bar) and is_state_major(p.b_bar)
        assert not np.shares_memory(p.a_bar, a_bar)
        np.testing.assert_array_equal(p.a_bar, a_bar)
        np.testing.assert_array_equal(p.b_bar, b_bar)
        q = DiscreteScanParams(p.a_bar, p.b_bar)
        assert np.shares_memory(q.a_bar, p.a_bar) and np.shares_memory(q.b_bar, p.b_bar)
        one = np.full((6, 3, 1), 0.5)  # with N = 1 both layouts are one
        assert np.shares_memory(DiscreteScanParams(one, one).a_bar, one)

    @pytest.mark.parametrize("states", [1, 4])
    @pytest.mark.parametrize("tree_name", ["random-60", "chain-200"])
    def test_c_order_inputs_give_the_same_bytes(self, tree_name, states):
        """User-built ``DiscreteScanParams`` and C-order copies of h, xi,
        d_h, d_a_bar and d_b_bar give every kernel, both projections and
        ``discretization_backward`` the bytes of state-major inputs."""
        rng = np.random.default_rng(42)
        n = {"random-60": 60, "chain-200": 200}[tree_name]
        x, _, tree = random_scan_instance(rng, n, 7, states, root=n - 1)
        if tree_name == "chain-200":
            tree = chain_tree(n)
        params = make_continuous(rng, n, 7, states)
        disc = discretize(params)
        d_y = rng.standard_normal((n, 7))
        user = DiscreteScanParams(np.ascontiguousarray(disc.a_bar), np.ascontiguousarray(disc.b_bar))
        c_order = training_outputs(x, user, params, tree, d_y, to=np.ascontiguousarray)
        if states > 1:
            assert c_order["h"].flags.c_contiguous and not is_state_major(c_order["h"])
        state_major = training_outputs(x, disc, params, tree, d_y)
        assert c_order.keys() == state_major.keys()
        for name in state_major:
            assert c_order[name].tobytes() == state_major[name].tobytes(), name
