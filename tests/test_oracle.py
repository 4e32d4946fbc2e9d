"""The brute-force references themselves, checked against hand results and
against third, even dumber implementations."""

import ast
from pathlib import Path

import numpy as np
import pytest

import treescan
from treescan import (
    DiscreteScanParams,
    FeatureMap,
    WeightedGraph,
    finite_diff_gradients,
    kruskal_mst,
    naive_tree_scan,
    path_product,
    root_tree,
)
from treescan.scenarios import random_connected_graph, random_scan_instance


def triangle():
    return WeightedGraph(
        3, np.array([[0, 1], [0, 2], [1, 2]]), np.array([1.0, 3.0, 2.0])
    )


def test_kruskal_triangle():
    edges, weights = kruskal_mst(triangle())
    assert weights.sum() == 3.0
    assert edges.tolist() == [[0, 1], [1, 2]]


def test_kruskal_on_a_tree_returns_it():
    g = WeightedGraph(4, np.array([[0, 1], [1, 2], [2, 3]]), np.array([0.3, 0.1, 0.2]))
    edges, weights = kruskal_mst(g)
    assert edges.tolist() == g.edges.tolist()
    assert weights.tolist() == g.weights.tolist()


def test_kruskal_disconnected_reports_component():
    g = WeightedGraph(4, np.array([[0, 1], [2, 3]]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="disconnected"):
        kruskal_mst(g)


def _random_dfs_spanning_tree_weight(graph, rng):
    adj = [[] for _ in range(graph.num_vertices)]
    for (u, v), w in zip(graph.edges.tolist(), graph.weights.tolist()):
        adj[u].append((v, w))
        adj[v].append((u, w))
    start = int(rng.integers(graph.num_vertices))
    seen = {start}
    total = 0.0
    stack = [start]
    while stack:
        v = stack.pop()
        nbrs = list(adj[v])
        rng.shuffle(nbrs)
        for w_vertex, w in nbrs:
            if w_vertex not in seen:
                seen.add(w_vertex)
                total += w
                stack.append(w_vertex)
    assert len(seen) == graph.num_vertices
    return total


def test_kruskal_beats_random_spanning_trees():
    rng = np.random.default_rng(7)
    graph = random_connected_graph(rng, 64, extra_edges=150)
    _, weights = kruskal_mst(graph)
    best = weights.sum()
    for _ in range(100):
        assert best <= _random_dfs_spanning_tree_weight(graph, rng) + 1e-12


# ---------------------------------------------------------------------------
# path products


def unit_params(n, values=None):
    a = np.ones((n, 1, 1)) if values is None else np.asarray(values, float).reshape(n, 1, 1)
    return DiscreteScanParams(a, np.ones((n, 1, 1)))


def test_path_product_identity_and_single_edge():
    tree = root_tree(np.array([[0, 1], [1, 2]]), np.zeros(2), 3, 0)
    p = unit_params(3, [0.9, 0.5, 0.25])
    assert path_product(tree, p, 1, 1) == pytest.approx(1.0)
    # adjacent pair: child 2's key
    assert path_product(tree, p, 1, 2)[0, 0] == pytest.approx(0.25)


def test_path_product_chain_two_edges():
    tree = root_tree(np.array([[0, 1], [1, 2]]), np.zeros(2), 3, 0)
    p = unit_params(3, [1.0, 0.5, 0.25])
    assert path_product(tree, p, 0, 2)[0, 0] == pytest.approx(0.125)


def test_path_product_symmetry():
    rng = np.random.default_rng(11)
    x, p, tree = random_scan_instance(rng, 17, 2, 2)
    for _ in range(30):
        i, j = rng.integers(0, 17, size=2)
        np.testing.assert_allclose(
            path_product(tree, p, int(i), int(j)),
            path_product(tree, p, int(j), int(i)),
            rtol=0,
            atol=0,
        )


def _enumerated_path(tree, i, j):
    """Vertex list of the i-j path found by exhaustive DFS over tree edges."""
    n = tree.num_vertices
    adj = [[] for _ in range(n)]
    for v in range(n):
        u = int(tree.parent[v])
        if u != v:
            adj[v].append(u)
            adj[u].append(v)

    def dfs(v, target, seen, path):
        path.append(v)
        if v == target:
            return True
        seen.add(v)
        for w in adj[v]:
            if w not in seen and dfs(w, target, seen, path):
                return True
        path.pop()
        return False

    path = []
    assert dfs(i, j, set(), path)
    return path


def test_naive_reconstruction_via_explicit_paths():
    """sum_j path_product(i, j) * b_bar[j] * x[j] rebuilt from enumerated paths
    matches naive_tree_scan on small trees."""
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 17))
        x, p, tree = random_scan_instance(rng, n, 2, 2)
        unit = p.b_bar * x.data[:, :, None]
        expected = np.zeros_like(unit)
        for i in range(n):
            for j in range(n):
                path = _enumerated_path(tree, i, j)
                prod = np.ones(p.shape[1:])
                for a, b in zip(path, path[1:]):
                    key = a if tree.parent[a] == b else b
                    prod = prod * p.a_bar[key]
                np.testing.assert_allclose(prod, path_product(tree, p, i, j), atol=1e-15)
                expected[i] += prod * unit[j]
        got = naive_tree_scan(x, p, tree)
        np.testing.assert_allclose(got, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# finite differences


def test_finite_difference_on_quadratic():
    def forward(x, a_bar, b_bar):
        return (x[0, 0] ** 2) * np.ones((1, 1, 1))

    x = np.array([[3.0]])
    g = finite_diff_gradients(forward, x, np.ones((1, 1, 1)), np.ones((1, 1, 1)), np.ones((1, 1, 1)))
    assert abs(g.d_x[0, 0] - 6.0) < 1e-8


def test_finite_difference_single_vertex_scan_is_linear():
    from treescan import tree_scan_vision_forward

    tree = root_tree(np.zeros((0, 2), dtype=np.int64), np.zeros(0), 1, 0)
    w = np.array([[[2.0]]])
    b = np.array([[[1.5]]])

    def forward(x, a_bar, b_bar):
        h, _ = tree_scan_vision_forward(FeatureMap(x), DiscreteScanParams(a_bar, b_bar), tree)
        return h

    g = finite_diff_gradients(forward, np.array([[4.0]]), np.array([[[0.5]]]), b, w)
    # linear in x: d_x == b_bar * w exactly up to fd noise
    assert abs(g.d_x[0, 0] - 3.0) < 1e-9
    assert abs(g.d_a_bar[0, 0, 0]) < 1e-9


def package_imports(module):
    """(module, name) for every import from the treescan package in
    ``treescan/<module>.py``, at any depth: ``from .scan import X`` gives
    ("scan", "X"), ``from . import scan`` gives ("scan", None) and ``import
    treescan`` gives ("", None)."""
    source = Path(treescan.__file__).with_name(f"{module}.py").read_text()
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "treescan"):
            base = (node.module or "").removeprefix("treescan").lstrip(".")
            found |= {(base, a.name) if base else (a.name, None) for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {(a.name.removeprefix("treescan").lstrip("."), None)
                      for a in node.names if a.name.split(".")[0] == "treescan"}
    return found


def test_module_boundaries():
    """``oracle`` takes only the domain containers from the package, so it
    shares no code with what it checks; the pipeline modules import none of
    the checking or command-line modules, nor the seeded builders."""
    assert package_imports("oracle") == {
        ("lattice", "FeatureMap"), ("lattice", "WeightedGraph"), ("mst", "SpanningTree"),
        ("scan", "DiscreteScanParams"), ("scan", "GradBundle")}
    for module in ("lattice", "mst", "walk", "scan", "io"):
        imported = {base for base, _ in package_imports(module)}
        assert not imported & {"", "oracle", "selfcheck", "bench", "cli", "scenarios"}, module
