"""Allocation budget of the training stages.

numpy reports its buffers to ``tracemalloc``, so the peak memory that a stage
traces above its entry level counts the arrays it holds at once, with no
timing involved. The unit is one (L, C, N) float64 array. With N = 4 an
(L, C) array counts 0.25, and the level schedule's Python lists and index
arrays add a few hundredths. A change that brings back a full-size
temporary fails here, not only in a noisy benchmark.
"""

import tracemalloc

import numpy as np
import pytest

from treescan import (
    FeatureMap,
    discretization_backward,
    discretize,
    output_projection,
    output_projection_backward,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
)
from treescan.scenarios import causal_tree, make_continuous, noise_grid, star_tree

# Peak above entry, in (L, C, N) arrays, pinned a few hundredths above the
# measured value. The outputs count: discretize returns two full-size arrays,
# the vision forward two, each backward two. Row-block buffers of
# ``walk.ROW_BLOCK_BYTES`` (which ``scan`` shares) count 0.0625 each at these
# sizes: the walks' level steps hold at most one at a time (the leaf-to-root
# step two, its chunk's index and its product), so a level as wide as the
# tree adds a block, not an array.
VISION_BUDGET = {
    "discretize": 2.05,  # a_bar, b_bar
    "vision_forward": 3.1,  # xi, a_bar and 1 - a_bar^2 in BFS order; h, xi out
    "output_projection": 0.6,  # y and d * x, both (L, C)
    "output_projection_backward": 1.35,  # d_h, d_x, row blocks
    "vision_backward": 3.2,  # eta, rho, d_a_bar, row blocks
    "discretization_backward": 0.55,
}
CAUSAL_BUDGET = {
    "discretize": 2.05,
    "language_forward": 2.15,  # h and a_bar in BFS order
    "output_projection": 0.6,
    "output_projection_backward": 1.45,
    "language_backward": 2.35,  # rho (becomes d_b_bar), d_a_bar, d_x
    "discretization_backward": 0.6,
}


def traced_peak(fn, *args):
    """(fn(*args), bytes traced at the peak of the call above its entry)."""
    running = tracemalloc.is_tracing()
    if not running:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        entry = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not running:
            tracemalloc.stop()


def training_step_peaks(x, params, tree, causal):
    """Each stage's peak above entry, in units of one (L, C, N) float64 array."""
    unit = np.prod(params.shape) * 8
    d_y = np.random.default_rng(1).standard_normal(x.data.shape)
    peaks = {}

    def run(name, fn, *args):
        out, peak = traced_peak(fn, *args)
        peaks[name] = peak / unit
        return out

    tree.walk.bands  # cached before tracing
    disc = run("discretize", discretize, params)
    if causal:
        h = run("language_forward", tree_scan_language_forward, x, disc, tree)
    else:
        h, xi = run("vision_forward", tree_scan_vision_forward, x, disc, tree)
    run("output_projection", output_projection, h, params, x)
    d_h = run("output_projection_backward", output_projection_backward, h, params, x, d_y)[0]
    if causal:
        g = run("language_backward", tree_scan_language_backward, x, disc, tree, h, d_h)
    else:
        g = run("vision_backward", tree_scan_vision_backward, x, disc, tree, xi, h, d_h)
    run("discretization_backward", discretization_backward, params, disc, g.d_a_bar, g.d_b_bar)
    return peaks


@pytest.fixture(scope="module")
def vision_peaks():
    """The minimum spanning tree of a 32 x 32 noise grid, C = 64, N = 4."""
    rng = np.random.default_rng(5)
    x, tree = noise_grid(rng, 1024, 64)
    return training_step_peaks(x, make_continuous(rng, 1024, 64, 4), tree, False)


@pytest.fixture(scope="module")
def star_peaks():
    """1023 leaves under vertex 0, C = 64, N = 4: one level as wide as the tree."""
    rng = np.random.default_rng(8)
    tree = star_tree(1023)
    x = FeatureMap(rng.standard_normal((1024, 64)))
    return training_step_peaks(x, make_continuous(rng, 1024, 64, 4), tree, False)


@pytest.fixture(scope="module")
def causal_peaks():
    """A causal m=3 tree of 4096 noise tokens (~2000 levels), C = 16, N = 4."""
    rng = np.random.default_rng(6)
    tree = causal_tree(rng, 4096)
    x = FeatureMap(rng.standard_normal((4096, 16)))
    return training_step_peaks(x, make_continuous(rng, 4096, 16, 4), tree, True)


@pytest.mark.parametrize("stage", VISION_BUDGET)
def test_vision_step_within_budget(vision_peaks, stage):
    assert vision_peaks[stage] <= VISION_BUDGET[stage], f"{stage}: {vision_peaks[stage]:.3f} arrays"


@pytest.mark.parametrize("stage", VISION_BUDGET)
def test_star_step_within_budget(star_peaks, stage):
    """The star's one level is the whole tree, and the walks step through it
    by row blocks: every stage keeps the grid's pin."""
    assert star_peaks[stage] <= VISION_BUDGET[stage], f"{stage}: {star_peaks[stage]:.3f} arrays"


@pytest.mark.parametrize("stage", CAUSAL_BUDGET)
def test_causal_step_within_budget(causal_peaks, stage):
    assert causal_peaks[stage] <= CAUSAL_BUDGET[stage], f"{stage}: {causal_peaks[stage]:.3f} arrays"


@pytest.mark.parametrize("stage", ["output_projection", "output_projection_backward"])
def test_c_order_h_within_budget(stage):
    """An h in C order, not the kernels' state-major layout, is read by row
    blocks: no full-size copy, also on a token that the RMS scale rescales."""
    rng = np.random.default_rng(7)
    params = make_continuous(rng, 1024, 64, 4)
    x = FeatureMap(rng.standard_normal((1024, 64)))
    h = rng.standard_normal((1024, 64, 4))
    h[5] *= 1e-170
    d_y = rng.standard_normal((1024, 64))
    call = {"output_projection": lambda: output_projection(h, params, x),
            "output_projection_backward": lambda: output_projection_backward(h, params, x, d_y)}
    peak = traced_peak(call[stage])[1] / h.nbytes
    assert peak <= VISION_BUDGET[stage], f"{stage}: {peak:.3f} arrays"


@pytest.mark.parametrize("stage", ["vision_backward", "language_backward"])
def test_c_order_d_h_within_budget(stage):
    """A d_h in C order, not the kernels' state-major layout, is gathered
    into row order as state-major memory: the gathered rows are not copied
    whole again by a later ``take``."""
    rng = np.random.default_rng(8)
    if stage == "vision_backward":
        n, c, budget = 1024, 64, VISION_BUDGET
        x, tree = noise_grid(rng, n, c)
    else:
        n, c, budget = 4096, 16, CAUSAL_BUDGET
        tree = causal_tree(rng, n)
        x = FeatureMap(rng.standard_normal((n, c)))
    disc = discretize(make_continuous(rng, n, c, 4))
    d_h = rng.standard_normal((n, c, 4))
    tree.walk.bands  # cached before tracing
    if stage == "vision_backward":
        h, xi = tree_scan_vision_forward(x, disc, tree)
        call = (tree_scan_vision_backward, x, disc, tree, xi, h, d_h)
    else:
        h = tree_scan_language_forward(x, disc, tree)
        call = (tree_scan_language_backward, x, disc, tree, h, d_h)
    peak = traced_peak(*call)[1] / d_h.nbytes
    assert peak <= budget[stage], f"{stage}: {peak:.3f} arrays"


def test_a_full_size_temporary_is_caught():
    """numpy's buffers reach tracemalloc: a reduction traces next to nothing,
    the same reduction over a fresh product one array more."""
    a = np.ones((256, 4, 4))
    lean = traced_peak(np.sum, a)[1]
    wasteful = traced_peak(lambda arr: np.sum(arr * 2.0), a)[1]
    assert lean < 0.05 * a.nbytes and wasteful >= a.nbytes

