"""Analytic backward passes versus brute-force finite differences.

The scan's gradients come out of the same two-traversal structure as the
forward pass (aggregate the output gradients up, propagate them down); this
script confirms them numerically for both the all-roots and the causal scan.
"""

import numpy as np

from treescan import (
    DiscreteScanParams,
    FeatureMap,
    finite_diff_gradients,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
)
from treescan.scenarios import random_scan_instance
from treescan.selfcheck import relative_gradient_error

rng = np.random.default_rng(7)
L, C, N = 24, 2, 2

# all-roots scan, arbitrary root
x, params, tree = random_scan_instance(rng, L, C, N)
w = rng.standard_normal(params.shape)  # fixed random loss weights
h, xi = tree_scan_vision_forward(x, params, tree)
analytic = tree_scan_vision_backward(x, params, tree, xi, h, w)


def vision_forward(xa, aa, ba):
    out, _ = tree_scan_vision_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)
    return out


numeric = finite_diff_gradients(vision_forward, x.data, params.a_bar, params.b_bar, w)
print(f"all-roots scan   worst relative error: {relative_gradient_error(analytic, numeric):.2e}")
print(f"  transition gradient at the root is identically zero: {not analytic.d_a_bar[tree.root].any()}")

# causal scan, root pinned to the last token
x, params, tree = random_scan_instance(rng, L, C, N, root=L - 1)
w = rng.standard_normal(params.shape)
h = tree_scan_language_forward(x, params, tree)
analytic = tree_scan_language_backward(x, params, tree, h, w)


def language_forward(xa, aa, ba):
    return tree_scan_language_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)


numeric = finite_diff_gradients(language_forward, x.data, params.a_bar, params.b_bar, w)
print(f"causal scan      worst relative error: {relative_gradient_error(analytic, numeric):.2e}")
