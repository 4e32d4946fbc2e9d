"""Minimum spanning tree extraction and rooting.

Boruvka contraction prunes the neighborhood graph down to the spanning tree
of minimum total dissimilarity; ``root_tree`` then fixes a root and derives
the parents whose walk the scan kernels take (``SpanningTree.walk``).
Ties are broken by the lexicographic (weight, u, v) order, which makes the
result unique and bit-for-bit identical to a Kruskal run with the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .lattice import WeightedGraph
from .walk import Levels, Walk, _stable_argsort, tree_walk

# Pointer jumping packs each pointer and its running sum into one int64,
# pointer << 32 | sum, so pointers must stay below 2^31; the Euler tour of a
# tree of n vertices has 2(n - 1) arcs.
MAX_VERTICES = 1 << 30


@dataclass(eq=False)
class SpanningTree:
    """Rooted spanning tree in the arrays the scan kernels consume.

    The root is the one vertex that is its own parent;
    ``edge_weight_to_parent[i]`` is the weight of the tree edge
    (i, parent[i]) and 0 at the root.  The rest is read off these arrays.
    """

    parent: np.ndarray  # (L,) int64
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
        """Depth of every vertex, by pointer jumping up ``parent``
        (``_pointer_jump``): each round adds up the depths jumped and doubles
        the jump, until every pointer is at the root, in at most
        ceil(log2(L)) rounds.  Raises ValueError naming the vertices of a
        parent cycle."""
        n, root = self.num_vertices, self.root
        nonroot = (self.parent != np.arange(n)).astype(np.int64)
        up, depth = _pointer_jump(self.parent, nonroot, (n - 1).bit_length(), root)
        if (stuck := up[up != root]).size:  # on cycles, each cycle vertex among them
            raise ValueError(f"parent pointers cycle through {np.unique(stuck).tolist()}")
        return depth

    @cached_property
    def walk(self) -> Walk:
        """The levels and the schedule of the scan passes (``walk.tree_walk``);
        raises like ``depths``."""
        return tree_walk(self)

    @property
    def levels(self) -> Levels:
        """The walk's ``order`` cut into depth levels at its ``spans``, each
        a view made when it is read (``walk.Levels``); raises like
        ``depths``."""
        return Levels(self.walk)

    def validate(self) -> None:
        """Check the structural invariants of the fields as they are now:
        every value cached from earlier ones (the root, the depths and the
        walk) is dropped first.  Raises ValueError naming the first violation."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        vars(self).clear()
        vars(self).update(current)
        n = self.num_vertices
        if self.parent.ndim != 1:
            raise ValueError("parent must be a 1-D array")
        if not np.issubdtype(self.parent.dtype, np.integer):
            raise ValueError(f"parent must be an integer array, got dtype {self.parent.dtype}")
        if (selfs := np.count_nonzero(self.parent == np.arange(n))) != 1:
            raise ValueError(f"exactly one vertex may be its own parent, found {selfs}")
        if self.parent.min() < 0 or self.parent.max() >= n:
            raise ValueError("parent index out of range")
        self.depths  # raises on a parent cycle
        w = self.edge_weight_to_parent
        if w.shape != (n,):
            raise ValueError("edge_weight_to_parent length must equal num_vertices")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("edge weights to parent must be finite and >= 0")
        if w[self.root] != 0.0:
            raise ValueError("edge weight at the root must be 0")


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
    takes before its twin points down and names a parent (``_euler_tour``);
    the depths are the tree's own, found from the parents when first read
    (``SpanningTree.depths``).  Raises if the edge set is not a tree over
    exactly ``num_vertices`` vertices, naming the first bad edge (out of
    range or a self-loop) or the unreachable vertices, or if there are more
    than ``MAX_VERTICES``.
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n = num_vertices
    if n > MAX_VERTICES:
        raise ValueError(f"root_tree takes at most 2^30 vertices, got {n}")
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for {n} vertices")
    if edges.shape != (n - 1, 2):
        raise ValueError(
            f"a spanning tree over {n} vertices needs exactly {n - 1} edges, got {edges.shape[0]}"
        )
    eu, ev = edges[:, 0], edges[:, 1]
    if edges.min(initial=0) < 0 or edges.max(initial=0) >= n or np.any(eu == ev):
        bad = np.flatnonzero((eu < 0) | (eu >= n) | (ev < 0) | (ev >= n) | (eu == ev))[0]
        raise ValueError(f"bad edge ({eu[bad]}, {ev[bad]})")
    parent, is_tree = _euler_tour(eu, ev, n, root)
    if not is_tree:
        raise ValueError(
            f"edge set is not a spanning tree: vertices {_unreachable(eu, ev, n, root)} "
            f"unreachable from root"
        )
    weight_to_parent = np.zeros(n, dtype=np.float64)
    weight_to_parent[np.where(parent[eu] == ev, eu, ev)] = weights
    return SpanningTree(parent, weight_to_parent)


def _euler_tour(eu: np.ndarray, ev: np.ndarray, n: int, root: int) -> tuple[np.ndarray, bool]:
    """The parent of every vertex, read off the Euler tour from ``root`` of
    the n - 1 edges (eu, ev), and whether the edges are a tree: the tour
    covers every arc (as it may on n - 1 edges that hold two cycles, beside
    vertices no edge reaches), and every vertex but the root heads one down
    arc, an arc taken before its twin.

    Arc k < n - 1 is edge k forwards and arc k + n - 1 its twin; slots list
    the arcs by tail, and around a tail by arc (any order of the arcs around
    a vertex gives the same parents).  The tour is cut where it re-enters
    the root and ranked by pointer doubling (``_pointer_jump``) in
    ceil(log2(arcs)) rounds, enough for a tour of every arc; the other
    closed walks of a graph with a cycle never reach the cut, and the bound
    stops them too.
    """
    parent = np.full(n, root, dtype=np.int64)
    arcs = 2 * (n - 1)
    tails, heads = np.concatenate([eu, ev]), np.concatenate([ev, eu])
    by_arc = _stable_argsort(tails, n)  # slot -> arc
    starts = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))])
    if starts[root] == starts[root + 1]:  # no arcs at the root (or n == 1)
        return parent, n == 1
    slot = np.empty(arcs, dtype=np.int64)
    slot[by_arc] = np.arange(arcs)
    # slot of each slot's reverse arc: arc k's twin is k + n - 1, cyclically
    twin = np.concatenate([slot[n - 1 :], slot[: n - 1]])[by_arc]
    after = np.arange(1, arcs + 1)  # the next slot around the same tail, cyclically
    has = starts[1:] > starts[:-1]  # an edge set that is no tree may leave a vertex arcless
    after[starts[1:][has] - 1] = starts[:-1][has]
    nxt = after[twin]  # successor: the arc after the twin around the head
    last = twin[starts[root + 1] - 1]  # re-enters the root just before its first arc
    nxt[last] = last
    dist = np.ones(arcs, dtype=np.int64)  # arcs left to the end of the tour
    dist[last] = 0
    nxt, dist = _pointer_jump(nxt, dist, (arcs - 1).bit_length())  # Wyllie list ranking
    if not np.all(nxt == last):
        return parent, False
    arc = by_arc[dist > dist[twin]]  # the down arcs: the tour takes each before its twin
    kids = heads[arc]
    parent[kids] = tails[arc]
    into = np.bincount(kids, minlength=n)  # the down arcs into each vertex
    return parent, bool(np.all(into == (np.arange(n) != root)))


def _pointer_jump(up: np.ndarray, sums: np.ndarray, rounds: int,
                  end: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pointer jumping over the int64 pointers ``up``: each round, every sum
    adds the sum at its pointer and every pointer moves on to its pointer's
    pointer, for ``rounds`` rounds or, given ``end``, until every pointer is
    at ``end``.  Returns the pointers and the sums.

    A round is one gather: each pointer and its running sum are packed into
    one int64, pointer << 32 | sum.  The sums, nonnegative, must stay below
    2^32; sums of 0 and 1 do over rounds <= 31.  Raises ValueError on a
    pointer of 2^31 or more, which the packing cannot hold."""
    if (top := int(up.max(initial=0))) >> 31:
        raise ValueError(f"pointer jumping packs pointers below 2^31, got pointer {top}")
    low = (1 << 32) - 1
    packed = np.asarray(up, dtype=np.int64) << 32 | sums
    for _ in range(rounds):
        at = packed >> 32
        if end is not None and np.all(at == end):
            break
        jumped = packed.take(at)
        packed &= low
        packed += jumped
    return packed >> 32, packed & low


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
