"""Wall-clock scaling measurement for the scan kernels.

Builds one instance per requested size (tree construction excluded from the
timed region), times the two-pass scan and, where the guard allows, the
quadratic reference, and reports medians plus consecutive-size growth ratios.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from .lattice import FeatureMap, build_grid_graph
from .mst import boruvka_mst, root_tree
from .scan import NAIVE_SCAN_GUARD, DiscreteScanParams, naive_tree_scan, tree_scan_vision_forward


def near_square_factors(n: int) -> tuple[int, int]:
    """Largest divisor pair (h, w) with h <= w and h as close to sqrt(n) as possible."""
    h = int(np.sqrt(n))
    while h > 1 and n % h != 0:
        h -= 1
    return h, n // h


def build_instance(num_tokens: int, seed: int = 0):
    """Feature map, discrete params (C = N = 1) and rooted MST for one size.

    Every instance is a grid of ``near_square_factors`` (a prime size is a
    1 x L grid, i.e. a chain).  The features are drawn first, so a size that
    cannot be allocated raises before any other work.
    """
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((num_tokens, 4))
    fmap = FeatureMap(features, spatial=near_square_factors(num_tokens))
    graph = build_grid_graph(fmap, "euclidean")
    edges, weights = boruvka_mst(graph)
    tree = root_tree(edges, weights, num_tokens, root=0)
    params = DiscreteScanParams(
        rng.uniform(0.05, 0.95, size=(num_tokens, 1, 1)),
        rng.standard_normal((num_tokens, 1, 1)),
    )
    x = FeatureMap(fmap.data[:, :1].copy())
    return x, params, tree


def _time_runs(fn, repeat: int) -> list[float]:
    fn()  # warm caches (tree levels, allocator) outside the measurement
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def run_benchmark(sizes: list[int], repeat: int = 10, seed: int = 0) -> dict:
    """Median scan times per size plus t(size[k+1]) / t(size[k]) ratios.

    Every size must be at least 2.  The quadratic reference is only run for
    sizes within its guard.  Returns a JSON-serializable report.
    """
    if len(sizes) < 2:
        raise ValueError("need at least 2 sizes to form ratios")
    small = [s for s in sizes if s < 2]
    if small:
        raise ValueError(f"every size must be at least 2, got {small[0]}")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    entries = []
    for num_tokens in sizes:
        x, params, tree = build_instance(num_tokens, seed=seed)
        dp_times = _time_runs(lambda: tree_scan_vision_forward(x, params, tree), repeat)
        entry = {
            "size": int(num_tokens),
            "dp_median_s": median(dp_times),
            "dp_times_s": dp_times,
            "naive_median_s": None,
        }
        if num_tokens <= NAIVE_SCAN_GUARD:
            naive_times = _time_runs(
                lambda: naive_tree_scan(x, params, tree, roots="all"), repeat
            )
            entry["naive_median_s"] = median(naive_times)
        entries.append(entry)
    dp_ratios = [
        entries[k + 1]["dp_median_s"] / entries[k]["dp_median_s"]
        for k in range(len(entries) - 1)
    ]
    naive_ratios = [
        entries[k + 1]["naive_median_s"] / entries[k]["naive_median_s"]
        if entries[k]["naive_median_s"] and entries[k + 1]["naive_median_s"]
        else None
        for k in range(len(entries) - 1)
    ]
    return {
        "sizes": [int(s) for s in sizes],
        "repeat": int(repeat),
        "entries": entries,
        "dp_ratios": dp_ratios,
        "naive_ratios": naive_ratios,
    }
