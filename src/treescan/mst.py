"""Minimum spanning tree extraction and rooting.

Boruvka contraction prunes the neighborhood graph down to the spanning tree
of minimum total dissimilarity; ``root_tree`` then fixes a root and derives
the parent/BFS structure the scan kernels traverse.  Ties are broken
by the lexicographic (weight, u, v) order, which makes the result unique and
bit-for-bit identical to a Kruskal run with the same rule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .lattice import WeightedGraph

# Mean rows per level below which a tree of depth D is walked by bands of
# isqrt(D) levels (``SpanningTree.bands``) instead of one level per step.
# Measured (_up + _down, medians, 2-core VM): bands win on a causal m=3 tree
# of 8192 tokens (1.9 rows a level, 64 lanes: 45 -> 14 ms) and lose on a
# 56x56 blurred-grid tree (15 rows, 256 lanes: 7.7 -> 12.9 ms) and a 224x224
# noise-grid tree (40 rows, 3 lanes: 13.4 -> 14.1 ms).  On levels of random
# parents they break even near 7 rows a level at 256 lanes (6 rows: 17.1 ->
# 15.3 ms, 8 rows: 14.4 -> 16.2 ms) and still win at 24 rows at 3 and 64 lanes.
BAND_ROWS_MAX = 4


@dataclass(eq=False)
class BandPlan:
    """A tree's levels below the root cut into bands of ``height``
    consecutive levels, as the banded scan walks read them: integer arrays
    of BFS rows (positions in ``bfs_order``).

    Band b holds levels 1 + b * height onwards, up to ``height`` of them
    (the last band may hold fewer), so its rows start at
    ``level_bounds[1 + b * height]``.  A row's offset is its level's place
    in its band; its band top is its ancestor at offset 0.  For every offset
    j in 1 .. height - 1 (index 0 of the lists is unused):

    - ``rows[j]``, the offset-j rows of every band, cut by the bounds
      ``groups[j]`` into one group per run index of ``run_bounds`` (per
      sibling rank, on a ``root_tree`` tree): no group holds a parent
      twice, so that each is one plain indexed add;
    - ``parents[j]``, their parent rows.

    Per row: ``top``, its band top (the root and the band tops are their
    own), and ``place``, its place among the rows of its offset (in
    ``rows[j]`` for offset j >= 1; 0 at the root).
    """

    height: int
    rows: list[np.ndarray]
    groups: list[list[int]]
    parents: list[np.ndarray]
    top: np.ndarray
    place: np.ndarray


@dataclass(eq=False)
class SpanningTree:
    """Rooted spanning tree in the arrays the scan kernels consume.

    The root is the one vertex that is its own parent; ``bfs_order`` is
    breadth-first: it starts at the root and lists each level of the tree
    after the level above it, in any order within a level (``root_tree``
    orders each level by sibling rank, parent, then vertex, where a
    vertex's rank is the number of its siblings with a smaller id);
    ``edge_weight_to_parent[i]`` is the weight of the tree edge
    (i, parent[i]) and 0 at the root.  The rest is read off these arrays.
    """

    parent: np.ndarray  # (L,) int64
    bfs_order: np.ndarray  # (L,) int64
    edge_weight_to_parent: np.ndarray  # (L,) float64

    @property
    def num_vertices(self) -> int:
        return len(self.parent)

    @cached_property
    def root(self) -> int:
        """The first vertex that is its own parent (``validate`` checks it is the only one)."""
        return int(np.argmax(self.parent == np.arange(self.num_vertices)))

    @cached_property
    def depths(self) -> np.ndarray:
        """Depth of every vertex, by pointer jumping up ``parent`` (``root_tree``
        fills it in with the depths it computed): each round adds up the depths
        jumped and doubles the jump, until every pointer is at the root, in at
        most ceil(log2(L)) rounds.  Raises ValueError naming the vertices of a
        parent cycle, and unless the depths never decrease along ``bfs_order``,
        i.e. unless it is breadth-first."""
        n, root = self.num_vertices, self.root
        up, depth = self.parent, (self.parent != np.arange(n)).astype(np.int64)
        for _ in range((n - 1).bit_length()):
            if np.all(up == root):
                break
            depth += depth[up]
            up = up[up]
        if (stuck := up[up != root]).size:  # on cycles, each cycle vertex among them
            raise ValueError(f"parent pointers cycle through {np.unique(stuck).tolist()}")
        if np.any(np.diff(depth[self.bfs_order]) < 0):
            raise ValueError("bfs_order is not breadth-first: it lists a vertex after a deeper one")
        return depth

    @cached_property
    def level_bounds(self) -> list[int]:
        """Start of every level in ``bfs_order``, then ``num_vertices``: level
        k is ``bfs_order[level_bounds[k]:level_bounds[k + 1]]``.  Python ints,
        so the scans slice with them at no conversion cost; raises like
        ``depths`` unless ``bfs_order`` is breadth-first."""
        return [0] + np.cumsum(np.bincount(self.depths)).tolist()

    @cached_property
    def pos(self) -> np.ndarray:
        """BFS position of every vertex, the inverse of ``bfs_order``: a
        BFS-position array ``u`` in vertex order is ``u.take(pos, axis=0)``."""
        pos = np.empty(self.num_vertices, dtype=np.int64)
        pos[self.bfs_order] = np.arange(self.num_vertices)
        return pos

    @cached_property
    def ppos(self) -> np.ndarray:
        """BFS position of the parent of the vertex at each BFS position (0
        at the root, position 0): the parent array of the tree relabelled by
        ``bfs_order``, on which every level is a contiguous slice."""
        return self.pos[self.parent[self.bfs_order]]

    @cached_property
    def run_bounds(self) -> list[int]:
        """Start of every run of ``bfs_order`` within a level in which the
        parent ids climb, then ``num_vertices``; Python ints, like
        ``level_bounds``, which it contains.  A run holds no parent twice, and
        on a level that ``root_tree`` ordered the runs are its rank blocks:
        every parent's first child, then every second child, and so on."""
        return np.flatnonzero(self._run_starts()).tolist()

    def _run_starts(self) -> np.ndarray:
        """(num_vertices + 1,) bool, True at the start of every run of
        ``run_bounds`` and at the end."""
        par = self.parent[self.bfs_order]
        depth = self.depths[self.bfs_order]
        cut = np.ones(self.num_vertices + 1, dtype=bool)
        cut[1:-1] = (par[1:] <= par[:-1]) | (depth[1:] != depth[:-1])
        return cut

    @cached_property
    def bands(self) -> BandPlan | None:
        """The band plan of a deep, narrow tree: bands of isqrt(depth)
        levels when the levels hold fewer than ``BAND_ROWS_MAX`` rows on
        average and that height is at least 2; None for any other tree,
        which the scans walk one level per step.  Built from the depths,
        ``ppos`` and the runs of ``run_bounds``, which give the rank
        groups."""
        depth = len(self.level_bounds) - 1
        k = isqrt(depth) if self.num_vertices < BAND_ROWS_MAX * depth else 1
        return _band_plan(self, k) if k > 1 else None

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """``bfs_order`` cut into depth levels (views), each in BFS order;
        raises like ``depths`` unless ``bfs_order`` is breadth-first."""
        b = self.level_bounds
        return [self.bfs_order[lo:hi] for lo, hi in zip(b, b[1:])]

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError naming the first violation."""
        n = self.num_vertices
        if self.parent.shape != (n,) or self.bfs_order.shape != (n,):
            raise ValueError("parent and bfs_order must be 1-D arrays of one length")
        if (selfs := np.count_nonzero(self.parent == np.arange(n))) != 1:
            raise ValueError(f"exactly one vertex may be its own parent, found {selfs}")
        if np.any(self.parent < 0) or np.any(self.parent >= n):
            raise ValueError("parent index out of range")
        if not np.array_equal(np.sort(self.bfs_order), np.arange(n)):
            raise ValueError("bfs_order is not a permutation of the vertices")
        if self.bfs_order[0] != self.root:
            raise ValueError(f"bfs_order must start at the root {self.root}")
        self.depths  # raises on a parent cycle or unless bfs_order is breadth-first
        w = self.edge_weight_to_parent
        if w.shape != (n,):
            raise ValueError("edge_weight_to_parent length must equal num_vertices")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("edge weights to parent must be finite and >= 0")
        if w[self.root] != 0.0:
            raise ValueError("edge weight at the root must be 0")


def _band_plan(tree: SpanningTree, k: int) -> BandPlan:
    """The ``BandPlan`` of ``tree`` for bands of k >= 2 levels; the tree has
    more than k levels."""
    n, ppos = tree.num_vertices, tree.ppos
    level = tree.depths[tree.bfs_order]
    run = np.cumsum(tree._run_starts()[:-1]) - 1
    new_level = np.ones(n, dtype=bool)
    new_level[1:] = level[1:] != level[:-1]
    rank = run - np.maximum.accumulate(np.where(new_level, run, 0))  # run within the level
    band, off = np.divmod(level[1:] - 1, k)  # of rows 1, 2, ...
    # by offset, then rank, then band, then row (the sort is stable)
    num_bands = int(band[-1]) + 1
    key = (off * (int(rank.max()) + 1) + rank[1:]) * num_bands + band
    by_key = np.argsort(key, kind="stable")
    inner, key = by_key + 1, key[by_key] // num_bands
    at = np.searchsorted(off[by_key], np.arange(k + 1)).tolist()  # offset j from at[j]
    place = np.zeros(n, dtype=np.int64)  # a row's place among the rows of its offset
    place[inner] = np.arange(n - 1) - np.repeat(at[:-1], np.diff(at))
    cuts = (np.flatnonzero(key[1:] != key[:-1]) + 1).tolist()  # rank groups, all offsets
    par = ppos[inner]
    rows, groups, parents = [None], [None], [None]
    for lo, hi in zip(at[1:-1], at[2:]):
        rows.append(inner[lo:hi])
        groups.append([0, *(c - lo for c in cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)]),
                       hi - lo])
        parents.append(par[lo:hi])
    # band tops by pointer jumping up the parents, a band top stopping at
    # itself: 2^r jumps after r gathers, and a row is under k jumps from its top
    top = ppos.copy()
    top[1:][off == 0] = np.flatnonzero(off == 0) + 1
    for _ in range((k - 1).bit_length()):
        top = top[top]
    return BandPlan(height=k, rows=rows, groups=groups, parents=parents, top=top, place=place)


def boruvka_mst(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree edges via Boruvka contraction.

    Each round runs on components labelled 0..k-1 and the edges between them.
    Every component takes its minimum weight, then its first edge at that
    weight in (u, v) order, i.e. its cheapest edge under the (weight, u, v)
    order, and hooks onto the component across it (of two that pick the same
    edge, the smaller label stays a root); pointer jumping flattens the hooks,
    the roots are relabelled 0..k'-1 and edges inside a component dropped.
    Returns ``(edges, weights)`` sorted by (u, v); raises on disconnected
    inputs, naming vertex 0's component.
    """
    n = graph.num_vertices
    if n < 1:
        raise ValueError("need at least 1 vertex")
    eu, ev = graph.edges[:, 0], graph.edges[:, 1]
    # position -> edge id, so positions are the (u, v) order; the stable sort
    # merges the presorted runs that the graph builders emit
    order = np.argsort(eu * n + ev, kind="stable")
    u, v, w = eu[order], ev[order], graph.weights[order]
    pos = np.arange(order.size)
    picked = np.zeros(order.size, dtype=bool)  # by position; a shared pick is set twice
    k = n
    while pos.size:
        best = np.full(k, np.inf)
        np.minimum.at(best, u, w)
        np.minimum.at(best, v, w)
        first = np.full(k, pos.size)  # pick's index in the live edges, kept in position order
        at_u = np.flatnonzero(w == best[u])
        at_v = np.flatnonzero(w == best[v])
        np.minimum.at(first, u[at_u], at_u)
        np.minimum.at(first, v[at_v], at_v)
        roots = np.flatnonzero(first < pos.size)
        e = first[roots]
        picked[pos[e]] = True
        across = u[e] + v[e] - roots
        hook = np.arange(k)
        hook[roots] = np.where(first[across] == e, np.minimum(roots, across), across)
        while not np.array_equal(nxt := hook[hook], hook):
            hook = nxt
        is_root = hook == np.arange(k)
        label = (np.cumsum(is_root) - 1)[hook]
        k = int(np.count_nonzero(is_root))
        u, v = label[u], label[v]
        live = np.flatnonzero(u != v)
        u, v, w, pos = u[live], v[live], w[live], pos[live]

    chosen = order[picked]
    if chosen.size != n - 1:
        members = np.setdiff1d(np.arange(n), _unreachable(eu[chosen], ev[chosen], n, 0))
        raise ValueError(
            f"graph is disconnected: component of vertex 0 = {members.tolist()} "
            f"cannot reach the remaining {n - members.size} vertices"
        )
    return np.take(graph.edges, chosen, axis=0), graph.weights[chosen]


def root_tree(edges: np.ndarray, weights: np.ndarray, num_vertices: int, root: int) -> SpanningTree:
    """Root an undirected spanning tree at ``root`` via its Euler tour.

    Each arc u -> v is followed by the arc after v -> u around v; the tour
    this walks from the root is ranked by pointer doubling.  An arc the tour
    takes before its twin points down and names a parent, and the running
    sum of +1 down, -1 up gives depths (``_euler_tour``).  ``bfs_order`` lists
    the vertices by (depth, sibling rank, parent, vertex), so that each level
    is rank-major: every parent's first child, then every second child, and
    so on.  Raises if the edge set is not a tree over exactly
    ``num_vertices`` vertices, naming the first bad edge (out of range or a
    self-loop) or the unreachable vertices.
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n = num_vertices
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} vertices")
    if edges.shape != (n - 1, 2):
        raise ValueError(
            f"a spanning tree over {n} vertices needs exactly {n - 1} edges, got {edges.shape[0]}"
        )
    eu, ev = edges[:, 0], edges[:, 1]
    bad = np.flatnonzero(((edges < 0) | (edges >= n)).any(axis=1) | (eu == ev))
    if bad.size:
        raise ValueError(f"bad edge ({eu[bad[0]]}, {ev[bad[0]]})")
    parent, depth, kids, rank = _euler_tour(eu, ev, n, root)
    if not np.all(depth[np.arange(n) != root]):
        raise ValueError(
            f"edge set is not a spanning tree: vertices {_unreachable(eu, ev, n, root)} "
            f"unreachable from root"
        )
    weight_to_parent = np.zeros(n, dtype=np.float64)
    weight_to_parent[np.where(parent[eu] == ev, eu, ev)] = weights
    # kids are in (parent, vertex) order, so a stable sort on (depth, rank) is by all four
    by_level = np.argsort(depth[kids] * n + rank, kind="stable")
    bfs_order = np.concatenate([[root], kids[by_level]])
    tree = SpanningTree(parent, bfs_order, weight_to_parent)
    tree.root, tree.depths = int(root), depth  # known here, nothing to re-derive
    return tree


def _euler_tour(
    eu: np.ndarray, ev: np.ndarray, n: int, root: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parent and depth of every vertex, read off the Euler tour from ``root``
    of the n - 1 edges (eu, ev), and the children in (parent, vertex) order
    with their sibling ranks; unless the tour covers every arc, every depth
    is left 0 and no child is listed.  With n - 1 edges, a vertex left at
    depth 0 besides the root means the edges are no tree.

    Arc k < n - 1 is edge k forwards and arc k + n - 1 its twin; slots list
    the arcs by (tail, head), so a vertex's arcs to its children run in
    ascending child order and a child's rank is the number of down arcs
    before its own in its parent's slots.  The tour is cut where it re-enters
    the root and ranked by pointer doubling in ceil(log2(arcs)) rounds, enough
    for a tour of every arc; the other closed walks of a graph with a cycle
    never reach the cut, and the bound stops them too.
    """
    parent = np.full(n, root, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    kids = rank = np.zeros(0, dtype=np.int64)
    arcs = 2 * (n - 1)
    tails, heads = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    by_arc = np.argsort(tails * n + heads, kind="stable")  # slot -> arc
    tail, head = tails[by_arc], heads[by_arc]
    starts = np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n))])
    if starts[root] == starts[root + 1]:  # no arcs at the root (or n == 1)
        return parent, depth, kids, rank
    slot = np.empty(arcs, dtype=np.int64)
    slot[by_arc] = np.arange(arcs)
    twin = slot[(by_arc + (n - 1)) % arcs]  # slot of each slot's reverse arc
    nxt = twin + 1  # successor: the arc after the twin around the head, cyclically
    wrap = nxt == starts[head + 1]
    nxt[wrap] = starts[head[wrap]]
    last = twin[starts[root + 1] - 1]  # re-enters the root just before its first arc
    nxt[last] = last
    dist = np.ones(arcs, dtype=np.int64)  # arcs left to the end of the tour
    dist[last] = 0
    for _ in range((arcs - 1).bit_length()):  # Wyllie list ranking
        dist += dist.take(nxt)
        nxt = nxt.take(nxt)
    if np.all(nxt == last):
        step_at = (arcs - 1) - dist  # each arc's step of the tour
        down = dist > dist[twin]  # the tour takes it before its twin
        step = np.empty(arcs, dtype=np.int64)
        step[step_at] = np.where(down, 1, -1)
        at = np.flatnonzero(down)
        kids = head[at]
        parent[kids] = tail[at]
        depth[kids] = np.cumsum(step)[step_at[at]]
        before = np.cumsum(down) - down  # down arcs in earlier slots; the k-th has k
        rank = np.arange(n - 1) - before[starts[tail[at]]]
    return parent, depth, kids, rank


def _unreachable(eu: np.ndarray, ev: np.ndarray, n: int, root: int) -> list[int]:
    """Vertices not joined to ``root`` by the edges, ascending: components by
    min-label hooking and pointer jumping (the error path of ``root_tree``)."""
    comp = np.arange(n, dtype=np.int64)
    while True:
        cu, cv = comp[eu], comp[ev]
        hook = np.arange(n, dtype=np.int64)
        np.minimum.at(hook, cu, cv)
        np.minimum.at(hook, cv, cu)
        if np.array_equal(hook, np.arange(n)):
            return np.flatnonzero(comp != comp[root]).tolist()
        comp = hook[comp]
        while not np.array_equal(comp[comp], comp):
            comp = comp[comp]
