"""Independent brute-force references for the fast kernels.

Deliberately simple and separately implemented: nothing here shares code
with the graph, scan or MST fast paths, only the domain containers.  These
routines may be quadratic or worse; they exist to be trusted, not to be
fast.  ``pair_dissimilarity`` is the edge weights' reference.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import FeatureMap, WeightedGraph
from .mst import SpanningTree
from .scan import DiscreteScanParams, GradBundle


class FiniteDifferenceConfig:
    """Step of the central differences and the relative error the gradient
    checks accept."""

    epsilon = 1e-5
    relative_tolerance = 1e-4


def pair_dissimilarity(metric: str, a, b) -> float:
    """Textbook distance of two feature rows in Python floats: ``math.fsum``
    for manhattan, ``math.dist`` for euclidean, and for cosine 1 - <a,b> /
    (|a||b|) of the rows divided by their max-abs, clipped to [0, 2].  A zero
    row is at cosine distance 1 from everything, identical rows at 0."""
    a, b = [float(x) for x in a], [float(y) for y in b]
    if metric == "manhattan":
        return math.fsum(abs(x - y) for x, y in zip(a, b, strict=True))
    if metric == "euclidean":
        return math.dist(a, b)
    if metric != "cosine":
        raise ValueError(f"unknown metric {metric!r}")
    scale_a, scale_b = max(map(abs, a)), max(map(abs, b))
    if scale_a == 0.0 or scale_b == 0.0:
        return 1.0
    if a == b:
        return 0.0
    a, b = [x / scale_a for x in a], [y / scale_b for y in b]
    cos = math.fsum(x * y for x, y in zip(a, b, strict=True)) / (math.hypot(*a) * math.hypot(*b))
    return min(max(1.0 - cos, 0.0), 2.0)


class _DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def kruskal_mst(graph: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Sort-and-union minimum spanning tree with (weight, u, v) tie order.

    Returns ``(edges, weights)`` sorted by (u, v), matching the contraction
    algorithm's output exactly under the shared tie rule.
    """
    n = graph.num_vertices
    if n < 1:
        raise ValueError("need at least 1 vertex")
    order = np.lexsort((graph.edges[:, 1], graph.edges[:, 0], graph.weights))
    ds = _DisjointSet(n)
    keep = []
    for e in order:
        u, v = int(graph.edges[e, 0]), int(graph.edges[e, 1])
        if ds.union(u, v):
            keep.append(int(e))
            if len(keep) == n - 1:
                break
    if len(keep) != n - 1:
        root = ds.find(0)
        members = [v for v in range(n) if ds.find(v) == root]
        raise ValueError(
            f"graph is disconnected: component {members} cannot reach the rest"
        )
    keep_arr = np.array(sorted(keep), dtype=np.int64)
    edges = graph.edges[keep_arr]
    weights = graph.weights[keep_arr]
    out = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[out], weights[out]


def bfs_root_tree(edges: np.ndarray, weights: np.ndarray, num_vertices: int,
                  root: int) -> SpanningTree:
    """Root an undirected spanning tree by a plain breadth-first walk.

    Children are visited in ascending vertex order and levels come out in
    the order their parents were reached.  Raises like ``mst.root_tree``
    (same messages) unless the edge set is a tree over ``num_vertices``.
    """
    edges = np.asarray(edges, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not 0 <= root < num_vertices:
        raise ValueError(f"root {root} out of range for {num_vertices} vertices")
    if edges.shape != (num_vertices - 1, 2):
        raise ValueError(
            f"a spanning tree over {num_vertices} vertices needs exactly "
            f"{num_vertices - 1} edges, got {edges.shape[0]}"
        )
    nbrs: list[list[int]] = [[] for _ in range(num_vertices)]
    for u, v in edges.tolist():
        if not (0 <= u < num_vertices and 0 <= v < num_vertices) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        nbrs[u].append(v)
        nbrs[v].append(u)
    parent = [-1] * num_vertices
    parent[root] = root
    bfs = [root]
    for v in bfs:  # the list grows as vertices are reached
        for nb in sorted(nbrs[v]):
            if parent[nb] < 0:
                parent[nb] = v
                bfs.append(nb)
    if len(bfs) != num_vertices:
        missing = [v for v in range(num_vertices) if parent[v] < 0]
        raise ValueError(
            f"edge set is not a spanning tree: vertices {missing} unreachable from root"
        )
    weight_to_parent = np.zeros(num_vertices, dtype=np.float64)
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        weight_to_parent[u if parent[u] == v else v] = w
    return SpanningTree(np.array(parent, dtype=np.int64), np.array(bfs, dtype=np.int64),
                        weight_to_parent)


def sequential_selective_scan(x: FeatureMap, p: DiscreteScanParams) -> np.ndarray:
    """Plain chain recurrence h[i] = a_bar[i] * h[i-1] + b_bar[i] * x[i].

    The state prior is zero, so h[0] = b_bar[0] * x[0] and a_bar[0] is never
    used.  Returns hidden states of shape (L, C, N).
    """
    if x.data.shape != p.shape[:2]:
        raise ValueError(f"feature map shape {x.data.shape} does not match params "
                         f"(L, C) = {p.shape[:2]}")
    u = p.b_bar * x.data[:, :, None]
    h = np.empty_like(u)
    h[0] = u[0]
    for i in range(1, u.shape[0]):
        h[i] = p.a_bar[i] * h[i - 1] + u[i]
    return h


def path_product(tree: SpanningTree, p: DiscreteScanParams, i: int, j: int) -> np.ndarray:
    """Per-lane product of transition scalars along the unique i-j tree path.

    Each tree edge is keyed by its child endpoint, so crossing the edge
    between v and parent(v) multiplies by a_bar[v].  Returns a (C, N) array;
    the empty path i == j gives all ones.
    """
    n = tree.num_vertices
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("vertex index out of range")
    par = tree.parent
    depth = tree.depths
    keys: list[int] = []
    a, b = i, j
    while depth[a] > depth[b]:
        keys.append(a)
        a = int(par[a])
    while depth[b] > depth[a]:
        keys.append(b)
        b = int(par[b])
    while a != b:
        keys.append(a)
        keys.append(b)
        a = int(par[a])
        b = int(par[b])
    prod = np.ones(p.shape[1:], dtype=np.float64)
    for k in sorted(keys):  # canonical order makes the product direction-free
        prod = prod * p.a_bar[k]
    return prod


def finite_diff_gradients(
    forward,
    x: np.ndarray,
    a_bar: np.ndarray,
    b_bar: np.ndarray,
    weights: np.ndarray,
) -> GradBundle:
    """Central-difference gradients of loss = sum(weights * forward(x, a_bar, b_bar)).

    ``forward`` must be a deterministic function of the three arrays returning
    hidden states shaped like ``weights``.  Every scalar coordinate of every
    input is perturbed by +/- ``FiniteDifferenceConfig.epsilon`` in turn.
    """
    eps = FiniteDifferenceConfig.epsilon
    x = np.array(x, dtype=np.float64)
    a_bar = np.array(a_bar, dtype=np.float64)
    b_bar = np.array(b_bar, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)

    def loss() -> float:
        h = forward(x, a_bar, b_bar)
        val = float(np.sum(weights * h))
        if not np.isfinite(val):
            raise ValueError("loss is not finite")
        return val

    def sweep(arr: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            hi = loss()
            flat[k] = orig - eps
            lo = loss()
            flat[k] = orig
            gflat[k] = (hi - lo) / (2.0 * eps)
        return grad

    return GradBundle(sweep(x), sweep(a_bar), sweep(b_bar))
