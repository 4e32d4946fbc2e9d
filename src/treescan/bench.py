"""Wall-clock scaling measurement for the scan kernels.

Builds one instance per requested size (tree construction excluded from the
timed region), then times the two-pass scan and, where the guard allows, the
quadratic reference in rounds of one run per size, and reports medians plus
consecutive-size growth ratios.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from .lattice import FeatureMap
from .scan import NAIVE_SCAN_GUARD, DiscreteScanParams, naive_tree_scan, tree_scan_vision_forward
from .scenarios import noise_grid


def build_instance(num_tokens: int, seed: int = 0):
    """Feature map, discrete params (C = N = 1) and rooted MST for one size.

    Every instance is a 4-channel euclidean ``scenarios.noise_grid``.  The
    features are drawn first, so a size that cannot be allocated raises
    before any other work.
    """
    rng = np.random.default_rng(seed)
    fmap, tree = noise_grid(rng, num_tokens, 4, "euclidean")
    params = DiscreteScanParams(
        rng.uniform(0.05, 0.95, size=(num_tokens, 1, 1)),
        rng.standard_normal((num_tokens, 1, 1)),
    )
    x = FeatureMap(fmap.data[:, :1].copy())
    return x, params, tree


def run_benchmark(sizes: list[int], repeat: int = 10, seed: int = 0) -> dict:
    """Median scan times per size plus t(size[k+1]) / t(size[k]) ratios.

    Every size must be at least 2.  The quadratic reference is only run for
    sizes within its guard.  All instances are built first, and every timed
    call runs once untimed (tree levels, allocator).  The sizes are then
    timed interleaved, one run of each per round, so that a drift in the
    machine's load hits every size alike.  Returns a JSON-serializable report.
    """
    if len(sizes) < 2:
        raise ValueError("need at least 2 sizes to form ratios")
    small = [s for s in sizes if s < 2]
    if small:
        raise ValueError(f"every size must be at least 2, got {small[0]}")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    runs = {}  # (index into sizes, "dp" or "naive") -> (call, its times)
    for k, num_tokens in enumerate(sizes):
        x, params, tree = build_instance(num_tokens, seed=seed)
        runs[k, "dp"] = (lambda x=x, p=params, t=tree: tree_scan_vision_forward(x, p, t), [])
        if num_tokens <= NAIVE_SCAN_GUARD:
            runs[k, "naive"] = (
                lambda x=x, p=params, t=tree: naive_tree_scan(x, p, t, roots="all"), [])
    for fn, _ in runs.values():
        fn()
    for _ in range(repeat):
        for fn, times in runs.values():
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    entries = [
        {
            "size": int(num_tokens),
            "dp_median_s": median(runs[k, "dp"][1]),
            "dp_times_s": runs[k, "dp"][1],
            "naive_median_s": median(runs[k, "naive"][1]) if (k, "naive") in runs else None,
        }
        for k, num_tokens in enumerate(sizes)
    ]
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
