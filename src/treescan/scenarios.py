"""Seeded synthetic graphs, trees and scan inputs for the self-check, the
bench, the tests and the demos.  Each builder draws only from the generator
it is given, in an order that ``tests/test_scenarios.py`` pins.
"""

from __future__ import annotations

import numpy as np

from .lattice import FeatureMap, WeightedGraph, build_causal_graph, build_grid_graph
from .mst import SpanningTree, boruvka_mst, root_tree
from .scan import ContinuousScanParams, DiscreteScanParams


def random_connected_graph(
    rng: np.random.Generator, n: int, extra_edges: int = 0, distinct: bool = False
) -> WeightedGraph:
    """Random spanning tree plus ``extra_edges`` random chords.

    With ``distinct=True`` the weights are a shuffled arithmetic progression,
    so no two edges tie and the minimum spanning tree is unique.
    """
    pairs = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        pairs.add((u, v))
    attempts = 0
    while len(pairs) < n - 1 + extra_edges and attempts < 50 * (extra_edges + 1):
        u, v = rng.integers(0, n, size=2)
        attempts += 1
        if u == v:
            continue
        pairs.add((min(int(u), int(v)), max(int(u), int(v))))
    edges = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    if distinct:
        weights = rng.permutation(m).astype(np.float64) / max(m, 1) + 0.5
    else:
        weights = rng.random(m)
    return WeightedGraph(n, edges, weights)


def causal_graph(rng: np.random.Generator, num_tokens: int, m: int = 3) -> WeightedGraph:
    """The causal graph, each token joined to its ``m`` predecessors, of a
    sequence of 4-channel noise tokens."""
    return build_causal_graph(FeatureMap(rng.standard_normal((num_tokens, 4))), m=m)


def near_square_factors(n: int) -> tuple[int, int]:
    """Largest divisor pair (h, w) with h <= w and h as close to sqrt(n) as possible."""
    h = int(np.sqrt(n))
    while h > 1 and n % h != 0:
        h -= 1
    return h, n // h


def rooted_mst(graph: WeightedGraph, root: int) -> SpanningTree:
    """The minimum spanning tree of ``graph``, rooted at ``root``."""
    return root_tree(*boruvka_mst(graph), graph.num_vertices, root)


def random_tree(rng: np.random.Generator, n: int, root: int | None = None) -> SpanningTree:
    """Minimum spanning tree of a random connected graph with n // 2 chords,
    rooted at ``root`` or, if None, at a random vertex drawn after the graph."""
    graph = random_connected_graph(rng, n, extra_edges=n // 2)
    return rooted_mst(graph, int(rng.integers(0, n)) if root is None else root)


def chain_tree(num_tokens: int) -> SpanningTree:
    """Path 0-1-...-(L-1) rooted at the last token."""
    edges = np.stack(
        [np.arange(num_tokens - 1, dtype=np.int64), np.arange(1, num_tokens, dtype=np.int64)],
        axis=1,
    )
    return root_tree(edges, np.zeros(num_tokens - 1), num_tokens, num_tokens - 1)


def star_tree(leaves: int) -> SpanningTree:
    """``leaves`` leaves under vertex 0, every edge of weight 1: the root,
    then one level as wide as the tree."""
    star = np.stack([np.zeros(leaves, dtype=np.int64), np.arange(1, leaves + 1)], axis=1)
    return root_tree(star, np.ones(leaves), leaves + 1, 0)


def causal_tree(rng: np.random.Generator, num_tokens: int, m: int = 3) -> SpanningTree:
    """Minimum spanning tree of ``causal_graph``, rooted at the last token: at
    m = 3, about num_tokens / 2 levels of ~2 vertices."""
    return rooted_mst(causal_graph(rng, num_tokens, m), num_tokens - 1)


def noise_grid(rng: np.random.Generator, num_tokens: int, channels: int,
               metric: str = "cosine") -> tuple[FeatureMap, SpanningTree]:
    """Noise features on a ``near_square_factors`` grid (a prime size is a
    1 x L grid, i.e. a chain) and their minimum spanning tree, rooted at
    pixel 0."""
    fmap = FeatureMap(rng.standard_normal((num_tokens, channels)),
                      spatial=near_square_factors(num_tokens))
    return fmap, rooted_mst(build_grid_graph(fmap, metric), 0)


def smooth_grid_tree(rng: np.random.Generator, root_last: bool = False) -> SpanningTree:
    """Minimum spanning tree of a 32 x 512 grid of 7 x 7 box-blurred noise,
    rooted at pixel 0 (or the last pixel): smooth features make long winding
    paths, ~1300 levels."""
    h, w, k = 32, 512, 7
    noise = rng.standard_normal((h + k - 1, w + k - 1, 4))
    sums = np.pad(noise, ((1, 0), (1, 0), (0, 0))).cumsum(0).cumsum(1)
    box = sums[k:, k:] - sums[:-k, k:] - sums[k:, :-k] + sums[:-k, :-k]
    graph = build_grid_graph(FeatureMap(box.reshape(h * w, 4), spatial=(h, w)))
    return rooted_mst(graph, h * w - 1 if root_last else 0)


def lane_inputs(rng: np.random.Generator, n: int, channels: int, states: int,
                a_kind: str = "random") -> tuple[FeatureMap, DiscreteScanParams]:
    """Scan inputs for ``n`` tokens, drawn a_bar, then x, then b_bar (both
    standard normal).  a_bar is random in [0.05, 0.95] ("random"), 1 - 1e-12
    in every lane ("near-one"), random with 30 % exact zeros ("zeros"), or
    about 1e-3 ("small")."""
    shape = (n, channels, states)
    a_bar = {
        "random": lambda: rng.uniform(0.05, 0.95, shape),
        "near-one": lambda: np.full(shape, 1.0 - 1e-12),
        "zeros": lambda: np.where(rng.random(shape) < 0.3, 0.0, rng.uniform(0.05, 0.95, shape)),
        "small": lambda: rng.uniform(0.9e-3, 1.1e-3, shape),
    }[a_kind]()
    x = FeatureMap(rng.standard_normal((n, channels)))
    return x, DiscreteScanParams(a_bar, rng.standard_normal(shape))


def random_scan_instance(
    rng: np.random.Generator,
    num_tokens: int,
    channels: int,
    states: int,
    root: int | None = None,
    a_range: tuple[float, float] = (0.05, 0.95),
) -> tuple[FeatureMap, DiscreteScanParams, SpanningTree]:
    """Random tree plus random per-lane scan scalars with a_bar in ``a_range``."""
    tree = random_tree(rng, num_tokens, root=root)
    lo, hi = a_range
    a_bar = rng.uniform(lo, hi, size=(num_tokens, channels, states))
    b_bar = rng.standard_normal((num_tokens, channels, states))
    x = FeatureMap(rng.standard_normal((num_tokens, channels)))
    return x, DiscreteScanParams(a_bar, b_bar), tree


def scan_equivalence_instance(
    rng: np.random.Generator, shape: str
) -> tuple[FeatureMap, DiscreteScanParams, SpanningTree]:
    """A random tree of 1 to 128 vertices, or one of the deep shapes: a
    2000-chain, a causal m=3 tree of ~2000 levels, a smooth-grid tree of
    ~1300 levels, the smooth grid rooted at its last pixel with C = N = 8
    ("wide-grid": levels of up to ~45 rows at 64 lanes), or a 2000-chain
    whose a_bar is 1 - 1e-12 in every lane, so every vertex sees all others.
    Deep shapes other than "wide-grid" have C = N = 2."""
    if shape == "random":
        n = int(rng.integers(1, 129))
        return random_scan_instance(rng, n, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    if shape == "causal":
        tree = causal_tree(rng, 4000)
    elif shape in ("smooth-grid", "wide-grid"):
        tree = smooth_grid_tree(rng, root_last=shape == "wide-grid")
    else:
        tree = chain_tree(2000)
    c = 8 if shape == "wide-grid" else 2
    a_kind = "near-one" if shape == "near-one" else "random"
    return (*lane_inputs(rng, tree.num_vertices, c, c, a_kind), tree)


def make_continuous(rng: np.random.Generator, length: int, channels: int,
                    states: int) -> ContinuousScanParams:
    """Continuous scan parameters: a in [-2, -0.1], b, c_out and d standard
    normal, delta in [0.05, 1]."""
    return ContinuousScanParams(
        a=-rng.uniform(0.1, 2.0, size=(channels, states)),
        b=rng.standard_normal((length, states)),
        c_out=rng.standard_normal((length, states)),
        d=rng.standard_normal(channels),
        delta=rng.uniform(0.05, 1.0, size=(length, channels)),
    )
