"""Feature containers and input-adaptive neighborhood graphs.

A feature map holds L token (or pixel) embeddings of C channels each.  Graph
builders connect neighboring tokens and weigh every edge by the feature
dissimilarity of its endpoints, producing the connected weighted graph that
the spanning-tree stage prunes.  The weights are checked against a per-pair
reference in Python floats, ``oracle.pair_dissimilarity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRICS = ("cosine", "euclidean", "manhattan")


@dataclass
class FeatureMap:
    """L x C float64 matrix of token features, optionally carrying a 2-D shape.

    When ``spatial=(H, W)`` is present, H*W must equal L and token i sits at
    grid position (i // W, i % W) in row-major order.
    """

    data: np.ndarray
    spatial: tuple[int, int] | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise ValueError(f"feature data must be 2-D (L, C), got shape {self.data.shape}")
        if self.data.shape[0] < 1 or self.data.shape[1] < 1:
            raise ValueError(f"need L >= 1 and C >= 1, got shape {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("feature data contains NaN or Inf")
        if self.spatial is not None:
            h, w = self.spatial
            if not all(isinstance(s, (int, np.integer)) and not isinstance(s, bool)
                       for s in (h, w)):
                raise ValueError(f"spatial shape must be two ints, got {self.spatial}")
            if h < 1 or w < 1:
                raise ValueError(f"spatial shape must be positive, got {self.spatial}")
            if h * w != self.data.shape[0]:
                raise ValueError(
                    f"spatial shape {self.spatial} implies {h * w} tokens, data has {self.data.shape[0]}"
                )
            self.spatial = (int(h), int(w))

    @property
    def num_tokens(self) -> int:
        return self.data.shape[0]


@dataclass
class WeightedGraph:
    """Undirected weighted graph over ``num_vertices`` vertices.

    Edges are stored canonically: endpoint arrays with u < v, no self-loops,
    no duplicates, all weights finite and nonnegative.
    """

    num_vertices: int
    edges: np.ndarray  # (E, 2) int64, each row (u, v) with u < v
    weights: np.ndarray  # (E,) float64

    def __post_init__(self):
        self.edges = np.ascontiguousarray(np.asarray(self.edges, dtype=np.int64))
        self.weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        if self.edges.ndim != 2 or self.edges.shape[1] != 2:
            raise ValueError(f"edges must be (E, 2), got {self.edges.shape}")
        if self.weights.shape != (self.edges.shape[0],):
            raise ValueError("weights length must match edge count")
        u, v = self.edges[:, 0], self.edges[:, 1]
        if self.edges.size and (u.min() < 0 or v.max() >= self.num_vertices):
            raise ValueError("edge endpoint out of range")
        if np.any(u >= v):
            raise ValueError("edges must satisfy u < v (canonical order, no self-loops)")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("edge weights must be finite and >= 0")
        keys = np.sort(u * self.num_vertices + v, kind="stable")  # merges presorted runs
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edges")

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def _neighbors(metric: str, x: np.ndarray, ends) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (u, v) and weight of every edge, in ``ends`` block order:
    ``ends`` of the row ids gives the endpoints, ``_edge_weights`` of the rows
    the weights.  Raises ValueError for an unknown metric, and names the
    metric when two finite rows lie farther apart than float64 reaches."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    edges = np.concatenate([np.stack(uv, axis=-1).reshape(-1, 2) for uv in ends(np.arange(len(x)))])
    with np.errstate(over="ignore"):  # reported below, by metric
        weights = _edge_weights(metric, x, ends)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"{metric} distance between neighboring features overflows float64")
    return edges, weights


def _edge_weights(metric: str, x: np.ndarray, ends) -> np.ndarray:
    """Distance between the endpoint rows of every edge, block by block.

    ``ends(r)`` maps an array with one entry per row of ``x`` (x itself, or
    a per-row scalar) to one (u, v) pair of shifted views of it per block of
    edges, so that no endpoint row is gathered; the blocks' distances are
    concatenated in order.  Euclidean and cosine rescale rows by exact
    powers of two, so that finite features near the float64 limits neither
    overflow nor underflow; inside the normal range no bit of the result
    changes."""
    if metric == "manhattan":
        return np.concatenate([np.sum(np.abs(a - b), axis=-1).ravel() for a, b in ends(x)])
    top = np.max(np.abs(x), axis=1)
    if metric == "euclidean":  # both rows share the larger row's factor, undone on the result
        out = []
        for (a, b), (ta, tb) in zip(ends(x), ends(top)):
            _, e = np.frexp(np.maximum(ta, tb))
            diff = np.ldexp(a, -e[..., None]) - np.ldexp(b, -e[..., None])
            out.append(np.ldexp(np.sqrt(np.sum(diff * diff, axis=-1)), e).ravel())
        return np.concatenate(out)
    # cosine: 1 - <a,b>/(|a||b|); a zero-norm endpoint counts as distance 1
    # (orthogonal-equivalent) so degenerate features never poison MST weights.
    x = np.ldexp(x, -np.frexp(top)[1][:, None])  # scale-invariant: each row its own factor
    norm = np.sqrt(np.sum(x * x, axis=1))
    out = []
    for (a, b), (na, nb) in zip(ends(x), ends(norm)):
        denom = na * nb
        dot = np.sum(a * b, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            dist = 1.0 - dot / denom
        dist = np.where(denom > 0.0, dist, 1.0)
        # rows equal after scaling (equal up to a power of two) are exactly at
        # distance 0; rounding in dot/denom would otherwise leave one-ulp residue
        equal = np.all(a == b, axis=-1) & (denom > 0.0)
        out.append(np.clip(np.where(equal, 0.0, dist), 0.0, 2.0).ravel())
    return np.concatenate(out)


def build_grid_graph(feature: FeatureMap, metric: str = "cosine") -> WeightedGraph:
    """4-connected pixel graph of a spatial feature map.

    Every horizontally or vertically adjacent pixel pair gets one edge whose
    weight is the dissimilarity of the two pixel features; the result has
    H*(W-1) + W*(H-1) edges (none for a single pixel) and is connected.  Edges
    are enumerated row-major, horizontal block first.
    """
    if feature.spatial is None:
        raise ValueError("grid graph needs a feature map with a spatial shape")
    h, w = feature.spatial

    def ends(r):
        g = r.reshape(h, w, *r.shape[1:])
        return [(g[:, :-1], g[:, 1:]), (g[:-1], g[1:])]

    return WeightedGraph(h * w, *_neighbors(metric, feature.data, ends))


def build_causal_graph(feature: FeatureMap, m: int = 3, metric: str = "cosine") -> WeightedGraph:
    """Connect each token to its m predecessors, weighted by dissimilarity.

    Token i >= 1 gets edges (j, i) for j in [max(0, i-m), i); the edge to the
    immediate predecessor always exists, so the graph is connected.  Edges
    come in one block per shift d = i - j = 1 .. m, each ascending by the
    earlier token j.
    """
    n = feature.num_tokens
    if n < 2:
        raise ValueError("need at least 2 tokens")
    if m < 1:
        raise ValueError("m must be >= 1")
    shifts = range(1, min(m, n - 1) + 1)
    return WeightedGraph(n, *_neighbors(
        metric, feature.data, lambda r: [(r[:-d], r[d:]) for d in shifts]))
