"""Input-adaptive tree scanning kernels.

Feature maps become 4-connected (or causal) dissimilarity graphs, a Boruvka
pass extracts the minimum spanning tree, and state-space scans propagate
per-lane hidden states over that tree in linear time, with analytic
gradients checked against brute-force references.
"""

from .lattice import (
    METRICS,
    FeatureMap,
    WeightedGraph,
    build_causal_graph,
    build_grid_graph,
)
from .mst import SpanningTree, boruvka_mst, root_tree
from .oracle import (FiniteDifferenceConfig, finite_diff_gradients, kruskal_mst, path_product,
                     sequential_selective_scan)
from .scan import (
    ContinuousScanParams,
    DiscreteScanParams,
    GradBundle,
    affinity_map,
    discretization_backward,
    discretize,
    naive_tree_scan,
    output_projection,
    output_projection_backward,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
)

__all__ = [
    "METRICS",
    "FeatureMap",
    "WeightedGraph",
    "build_causal_graph",
    "build_grid_graph",
    "SpanningTree",
    "boruvka_mst",
    "root_tree",
    "FiniteDifferenceConfig",
    "finite_diff_gradients",
    "kruskal_mst",
    "path_product",
    "sequential_selective_scan",
    "ContinuousScanParams",
    "DiscreteScanParams",
    "GradBundle",
    "affinity_map",
    "discretization_backward",
    "discretize",
    "naive_tree_scan",
    "output_projection",
    "output_projection_backward",
    "tree_scan_language_backward",
    "tree_scan_language_forward",
    "tree_scan_vision_backward",
    "tree_scan_vision_forward",
]

__version__ = "0.1.0"
