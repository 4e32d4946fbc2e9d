"""End-to-end walkthrough on a tiny image.

Builds a 4x4 feature image with two textured regions, derives the
dissimilarity graph and its minimum spanning tree, then runs the two-pass
scan and confirms it against the direct quadratic aggregation.
"""

import numpy as np

from treescan import (
    DiscreteScanParams,
    FeatureMap,
    boruvka_mst,
    build_grid_graph,
    naive_tree_scan,
    root_tree,
    tree_scan_vision_forward,
)

rng = np.random.default_rng(0)

# A 4x4 image, 3 channels: left half near one prototype, right half near another.
H, W, C = 4, 4, 3
prototypes = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.2]])
pixels = np.empty((H * W, C))
for i in range(H * W):
    region = 0 if (i % W) < W // 2 else 1
    pixels[i] = prototypes[region] + 0.05 * rng.standard_normal(C)
image = FeatureMap(pixels, spatial=(H, W))

# 4-connected graph; edge weights are cosine dissimilarities.
graph = build_grid_graph(image, "cosine")
print(f"grid graph: {graph.num_vertices} vertices, {graph.num_edges} edges")
print(f"  weight range [{graph.weights.min():.4f}, {graph.weights.max():.4f}]")

# The MST keeps cheap (similar-feature) edges and drops the expensive ones,
# so region boundaries end up crossed by as few edges as possible.
edges, weights = boruvka_mst(graph)
tree = root_tree(edges, weights, graph.num_vertices, root=0)
crossing = sum(
    1 for (u, v) in edges.tolist() if ((u % W) < W // 2) != ((v % W) < W // 2)
)
print(f"MST total weight {weights.sum():.4f}, boundary crossings kept: {crossing}")

# Per-lane scan scalars (C channels x N states). Transitions in (0, 1).
N = 2
params = DiscreteScanParams(
    rng.uniform(0.3, 0.9, size=(H * W, C, N)),
    rng.standard_normal((H * W, C, N)),
)

h, xi = tree_scan_vision_forward(image, params, tree)
reference = naive_tree_scan(image, params, tree)
print(f"two-pass scan vs direct aggregation: max |diff| = {np.max(np.abs(h - reference)):.2e}")

# The root-to-leaf pass is exactly the propagation identity
#   h[v] = a[v] * h[parent] + (1 - a[v]^2) * xi[v]
v = int(tree.levels[-1][-1])  # a vertex of the deepest level, so a leaf
a = params.a_bar[v]
lhs = h[v]
rhs = a * h[tree.parent[v]] + (1 - a * a) * xi[v]
print(f"propagation identity at leaf {v}: max |diff| = {np.max(np.abs(lhs - rhs)):.2e}")
