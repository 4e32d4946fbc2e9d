import contextlib
import io

import numpy as np
import pytest

from treescan import DiscreteScanParams, FeatureMap, root_tree
from treescan.cli import main


@pytest.fixture(scope="session")
def selfcheck_runs():
    """``treescan selfcheck`` run once per session in each mode, "clean"
    and "negative-control": each mode's (exit code, stdout)."""
    runs = {}
    for mode, flags in (("clean", []), ("negative-control", ["--negative-control"])):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["selfcheck", *flags])
        runs[mode] = code, stdout.getvalue()
    return runs


@pytest.fixture
def chain3_vision():
    """Path 0-1-2 rooted at 0 with transitions (-, 0.5, 0.5), b_bar = x = 1."""
    tree = root_tree(np.array([[0, 1], [1, 2]]), np.zeros(2), 3, 0)
    x = FeatureMap(np.ones((3, 1)))
    p = DiscreteScanParams(
        np.array([1.0, 0.5, 0.5]).reshape(3, 1, 1), np.ones((3, 1, 1))
    )
    return x, p, tree


def bfs_reachable(num_vertices: int, edges: np.ndarray) -> bool:
    """Plain BFS connectivity check, independent of the library's union-find."""
    adj = [[] for _ in range(num_vertices)]
    for u, v in np.asarray(edges).tolist():
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == num_vertices
