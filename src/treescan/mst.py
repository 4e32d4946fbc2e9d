"""Minimum spanning tree extraction and rooting.

Boruvka contraction prunes the neighborhood graph down to the spanning tree
of minimum total dissimilarity; ``root_tree`` then fixes a root and derives
the parent/BFS structure the scan kernels traverse.  Ties are broken
by the lexicographic (weight, u, v) order, which makes the result unique and
bit-for-bit identical to a Kruskal run with the same rule.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import WeightedGraph


@dataclass(eq=False)
class SpanningTree:
    """Rooted spanning tree in the arrays the scan kernels consume.

    ``parent[root] == root``; ``bfs_order`` is breadth-first: it starts at
    the root and lists each level of the tree after the level above it, the
    children of each vertex together and in the order their parents appear;
    ``edge_weight_to_parent[i]`` is the weight of the tree edge
    (i, parent[i]) and 0 at the root.
    """

    num_vertices: int
    root: int
    parent: np.ndarray  # (L,) int64
    bfs_order: np.ndarray  # (L,) int64
    edge_weight_to_parent: np.ndarray  # (L,) float64

    @cached_property
    def levels(self) -> list[np.ndarray]:
        """``bfs_order`` cut into depth levels, each in BFS order.

        Level k + 1 is the children of level k, so it ends where the running
        sum of child counts in BFS order stands at the last vertex of level
        k.  Raises ValueError unless every non-root vertex's parent lies in
        the level before its own, i.e. unless ``bfs_order`` is breadth-first.
        """
        n = self.num_vertices
        nonroot = np.flatnonzero(np.arange(n) != self.root)
        reach = 1 + np.cumsum(np.bincount(self.parent[nonroot], minlength=n)[self.bfs_order])
        ends = [1]
        while ends[-1] < n and reach[ends[-1] - 1] > ends[-1]:
            ends.append(int(reach[ends[-1] - 1]))
        depth = np.full(n, -1, dtype=np.int64)
        depth[self.bfs_order[: ends[-1]]] = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
        if np.any(depth[self.parent[nonroot]] != depth[nonroot] - 1):
            raise ValueError(
                "bfs_order is not breadth-first: some vertex's parent is not in the level above it"
            )
        return np.split(self.bfs_order, ends[:-1])

    @cached_property
    def depths(self) -> np.ndarray:
        """Depth of every vertex, read off ``levels``."""
        depth = np.empty(self.num_vertices, dtype=np.int64)
        for d, lv in enumerate(self.levels):
            depth[lv] = d
        return depth

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError naming the first violation."""
        n = self.num_vertices
        if not 0 <= self.root < n:
            raise ValueError("root out of range")
        if self.parent.shape != (n,) or self.bfs_order.shape != (n,):
            raise ValueError("parent/bfs_order length must equal num_vertices")
        if self.parent[self.root] != self.root:
            raise ValueError("parent[root] must equal root")
        if np.count_nonzero(self.parent == np.arange(n)) != 1:
            raise ValueError("exactly one vertex may be its own parent")
        if np.any(self.parent < 0) or np.any(self.parent >= n):
            raise ValueError("parent index out of range")
        if np.sort(self.bfs_order).tolist() != list(range(n)):
            raise ValueError("bfs_order is not a permutation of the vertices")
        if self.bfs_order[0] != self.root:
            raise ValueError("bfs_order must start at the root")
        self.levels  # raises unless bfs_order is breadth-first
        w = self.edge_weight_to_parent
        if w.shape != (n,):
            raise ValueError("edge_weight_to_parent length must equal num_vertices")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("edge weights to parent must be finite and >= 0")
        if w[self.root] != 0.0:
            raise ValueError("edge weight at the root must be 0")


def _edge_order_keys(edges: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rank edges by the strict total order (weight, u, v); returns rank per edge."""
    order = np.lexsort((edges[:, 1], edges[:, 0], weights))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def boruvka_mst(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree edges via Boruvka contraction.

    Each round selects, for every component, its cheapest outgoing edge under
    the (weight, u, v) total order, then contracts.  Returns ``(edges, weights)``
    with edges sorted by (u, v); raises on disconnected inputs, naming an
    unreached component.
    """
    n = graph.num_vertices
    if n < 2:
        raise ValueError("need at least 2 vertices")
    eu = graph.edges[:, 0]
    ev = graph.edges[:, 1]
    rank = _edge_order_keys(graph.edges, graph.weights)
    by_rank = np.argsort(rank, kind="stable")  # rank -> edge id
    sentinel = graph.num_edges

    comp = np.arange(n, dtype=np.int64)  # flattened component pointer per vertex
    chosen: list[int] = []
    num_components = n
    while num_components > 1:
        ru = comp[eu]
        rv = comp[ev]
        alive = ru != rv
        if not np.any(alive):
            members = np.flatnonzero(comp == comp[0])
            raise ValueError(
                f"graph is disconnected: component of vertex 0 = {members.tolist()} "
                f"cannot reach the remaining {n - members.size} vertices"
            )
        cheapest = np.full(n, sentinel, dtype=np.int64)
        np.minimum.at(cheapest, ru[alive], rank[alive])
        np.minimum.at(cheapest, rv[alive], rank[alive])
        edge_ids = by_rank[np.unique(cheapest[cheapest < sentinel])]
        for e in edge_ids:
            # comp may be one hop stale mid-round; chase to the true roots
            a = int(eu[e])
            while comp[a] != a:
                a = int(comp[a])
            b = int(ev[e])
            while comp[b] != b:
                b = int(comp[b])
            if a != b:
                comp[b] = a
                chosen.append(int(e))
                num_components -= 1
        while True:
            nxt = comp[comp]
            if np.array_equal(nxt, comp):
                break
            comp = nxt

    chosen_arr = np.array(sorted(chosen), dtype=np.int64)
    edges = graph.edges[chosen_arr]
    weights = graph.weights[chosen_arr]
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order], weights[order]


def root_tree(edges: np.ndarray, weights: np.ndarray, num_vertices: int, root: int) -> SpanningTree:
    """Root an undirected spanning tree at ``root`` via breadth-first traversal.

    Children are visited in ascending vertex order, so the BFS order and the
    resulting arrays are deterministic.  Raises if the edge set is not a tree
    over exactly ``num_vertices`` vertices.
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not 0 <= root < num_vertices:
        raise ValueError("root out of range")
    if edges.shape != (num_vertices - 1, 2):
        raise ValueError(
            f"a spanning tree over {num_vertices} vertices needs exactly "
            f"{num_vertices - 1} edges, got {edges.shape[0]}"
        )
    adj: list[list[tuple[int, float]]] = [[] for _ in range(num_vertices)]
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        adj[u].append((v, w))
        adj[v].append((u, w))
    for lst in adj:
        lst.sort()

    parent = np.full(num_vertices, -1, dtype=np.int64)
    weight_to_parent = np.zeros(num_vertices, dtype=np.float64)
    bfs = np.empty(num_vertices, dtype=np.int64)
    parent[root] = root
    bfs[0] = root
    filled = 1
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for nb, w in adj[v]:
            if parent[nb] < 0:
                parent[nb] = v
                weight_to_parent[nb] = w
                bfs[filled] = nb
                filled += 1
                queue.append(nb)
    if filled != num_vertices:
        missing = np.flatnonzero(parent < 0)
        raise ValueError(
            f"edge set is not a spanning tree: vertices {missing.tolist()} unreachable from root"
        )
    return SpanningTree(num_vertices, int(root), parent, bfs, weight_to_parent)
