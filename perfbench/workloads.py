"""The benchmark's workloads: a seeded input pool, one pipeline step, and the
oracle checks that verify each input's first result.

A step calls the library only through the public functions of
``treescan.lattice``, ``treescan.mst``, ``treescan.scan`` and ``treescan.io``,
each inside a span named ``<module>.<call>``. ``treescan.oracle``,
``treescan.selfcheck`` and ``treescan.cli`` serve the checks only and are
never timed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from tracing import NullTracer
from treescan import cli, io, lattice, mst, oracle, scan, selfcheck

POOL_SIZE = 3
ROOT_STATE_RTOL = 1e-9  # acceptance bound of the fast scans against naive_tree_scan


def continuous_params(rng, length: int, channels: int, states: int) -> scan.ContinuousScanParams:
    """a < 0 and delta > 0 keep every a_bar = exp(delta * a) inside (0, 1)."""
    return scan.ContinuousScanParams(
        a=-rng.uniform(0.5, 2.0, (channels, states)),
        b=rng.standard_normal((length, states)),
        c_out=rng.standard_normal((length, states)),
        d=rng.standard_normal(channels),
        delta=rng.uniform(0.05, 0.5, (length, channels)),
    )


def levels(tree: mst.SpanningTree):
    """First access of the cached level schedule, so that its cost is charged
    to ``mst`` rather than to the first scan that needs it."""
    return tree.levels


def tree_shape(tree: mst.SpanningTree) -> dict:
    """mst.depth is the number of BFS levels, the number of steps a
    level-synchronous scan makes."""
    nonroot = np.arange(tree.num_vertices) != tree.root
    depth = len(tree.levels)
    return {
        "mst.depth": depth,
        "mst.max_fanout": int(np.bincount(tree.parent[nonroot]).max()),
        "mst.vertices_per_level": tree.num_vertices / depth,
    }


def forward_bytes(*arrays) -> dict:
    """Compulsory traffic of a forward scan: every input read once and every
    output written once, from array sizes alone (cache misses ignored)."""
    return {"scan.forward_bytes_computed": sum(a.nbytes for a in arrays)}


def digest(*chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c if isinstance(c, bytes) else np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def check_mst(graph, edges, weights) -> list[str]:
    k_edges, k_weights = oracle.kruskal_mst(graph)
    if np.array_equal(edges, k_edges) and np.array_equal(weights, k_weights):
        return []
    return ["boruvka_mst edge set differs from kruskal_mst"]


def check_root_state(fmap, disc, tree, h) -> list[str]:
    ref = scan.naive_tree_scan(fmap, disc, tree, roots="single", force=True)
    err = float(np.max(np.abs(h[tree.root] - ref)) / np.max(np.abs(ref)))
    if err <= ROOT_STATE_RTOL:
        return []
    return [f"h at the root is {err:.2e} relative from naive_tree_scan"]


class CliGrid:
    """``treescan tree`` then ``treescan scan --mode vision``, through files."""

    name = "cli-grid"
    graph_metric = "cosine"
    forward_span = "scan.vision_forward"

    def __init__(self, side: int = 224):
        self.side = side
        self.shape = (side * side, 3, 1)

    def make_pool(self, rng, workdir: Path) -> list[dict]:
        length, channels, states = self.shape
        pool = []
        for k in range(POOL_SIZE):
            inp = {
                "x": workdir / f"{self.name}-{k}-x.json",
                "params": workdir / f"{self.name}-{k}-params.json",
                "tree": workdir / f"{self.name}-{k}-tree.json",
                "h": workdir / f"{self.name}-{k}-h",  # io adds .json and .bin
                "workdir": workdir,
            }
            io.write_tensor(inp["x"], rng.random((length, channels)).astype(np.float32))
            io.write_params(inp["params"], continuous_params(rng, length, channels, states))
            pool.append(inp)
        return pool

    def step(self, tr, inp: dict) -> dict:
        # The calls and their order are those of cli.cmd_tree and cli.cmd_scan.
        with tr.span("cli.tree"):
            x = tr.call("io.read_tensor", io.read_tensor, inp["x"])
            fmap = lattice.FeatureMap(x.astype(np.float64), spatial=(self.side, self.side))
            graph = tr.call(
                "lattice.build_graph", lattice.build_grid_graph, fmap, self.graph_metric,
                counts=lambda g: {"lattice.edges": g.num_edges},
            )
            edges, weights = tr.call("mst.boruvka_mst", mst.boruvka_mst, graph)
            built = tr.call("mst.root_tree", mst.root_tree, edges, weights, fmap.num_tokens, 0)
            tr.call(
                "io.write_tree", io.write_tree, inp["tree"], built,
                counts=lambda _: {"io.tree_json_bytes": inp["tree"].stat().st_size},
            )
        with tr.span("cli.scan"):
            x = tr.call("io.read_tensor", io.read_tensor, inp["x"])
            tree = tr.call("io.read_tree", io.read_tree, inp["tree"])
            params = tr.call("io.read_params", io.read_params, inp["params"])
            fmap = lattice.FeatureMap(x.astype(np.float64))
            tr.call("mst.levels", levels, tree, counts=lambda _: tree_shape(tree))
            disc = tr.call("scan.discretize", scan.discretize, params)
            h, xi = tr.call(
                "scan.vision_forward", scan.tree_scan_vision_forward, fmap, disc, tree,
                counts=lambda out: forward_bytes(fmap.data, disc.a_bar, disc.b_bar, tree.parent, *out),
            )
            tr.call("io.write_tensor", io.write_tensor, inp["h"], h)
        return {"graph": graph, "edges": edges, "weights": weights, "fmap": fmap,
                "disc": disc, "tree": tree, "h": h}

    def outputs(self, inp: dict) -> list[Path]:
        return [inp["tree"], inp["h"].with_suffix(".json"), inp["h"].with_suffix(".bin")]

    def digest(self, inp: dict, out: dict) -> str:
        return digest(*(p.read_bytes() for p in self.outputs(inp)))

    def verify(self, inp: dict, out: dict, rng) -> list[str]:
        problems = check_mst(out["graph"], out["edges"], out["weights"])
        problems += check_root_state(out["fmap"], out["disc"], out["tree"], out["h"])
        ref_tree = inp["workdir"] / "cli-reference-tree.json"
        ref_h = inp["workdir"] / "cli-reference-h"
        side = str(self.side)
        codes = (
            cli.main(["tree", "--input", str(inp["x"]), "--height", side, "--width", side,
                      "--metric", self.graph_metric, "--root", "0", "--out", str(ref_tree)]),
            cli.main(["scan", "--input", str(inp["x"]), "--tree", str(ref_tree),
                      "--params", str(inp["params"]), "--mode", "vision", "--out", str(ref_h)]),
        )
        if codes != (0, 0):
            return problems + [f"treescan tree/scan exited with {codes}"]
        theirs_all = [ref_tree, ref_h.with_suffix(".json"), ref_h.with_suffix(".bin")]
        for mine, theirs in zip(self.outputs(inp), theirs_all):
            if mine.read_bytes() != theirs.read_bytes():
                problems.append(f"{mine.name} differs from what the treescan CLI writes")
        return problems


class _Train:
    """One training step with no io: graph, MST, root, discretize, forward
    scan, RMS output projection, and the backward pass through all three."""

    graph_metric = "cosine"
    mode: str  # "vision" or "language"

    def features(self, rng) -> lattice.FeatureMap:
        raise NotImplementedError

    def build_graph(self, fmap) -> lattice.WeightedGraph:
        raise NotImplementedError

    def make_pool(self, rng, workdir: Path) -> list[dict]:
        length, channels, states = self.shape
        return [
            {
                "fmap": self.features(rng),
                "params": continuous_params(rng, length, channels, states),
                "d_y": rng.standard_normal((length, channels)),
            }
            for _ in range(POOL_SIZE)
        ]

    def forward(self, tr, fmap, disc, tree):
        """Hidden states h plus what the matching backward pass needs."""
        inputs = (fmap.data, disc.a_bar, disc.b_bar, tree.parent)
        if self.mode == "vision":
            h, xi = tr.call("scan.vision_forward", scan.tree_scan_vision_forward, fmap, disc, tree,
                            counts=lambda out: forward_bytes(*inputs, *out))
            return h, (xi, h)
        h = tr.call("scan.language_forward", scan.tree_scan_language_forward, fmap, disc, tree,
                    counts=lambda out: forward_bytes(*inputs, out))
        return h, (h,)

    def backward(self, tr, fmap, disc, tree, saved, d_h):
        if self.mode == "vision":
            return tr.call("scan.vision_backward", scan.tree_scan_vision_backward,
                           fmap, disc, tree, *saved, d_h)
        return tr.call("scan.language_backward", scan.tree_scan_language_backward,
                       fmap, disc, tree, *saved, d_h)

    def step(self, tr, inp: dict) -> dict:
        fmap, params = inp["fmap"], inp["params"]
        graph = tr.call("lattice.build_graph", self.build_graph, fmap,
                        counts=lambda g: {"lattice.edges": g.num_edges})
        edges, weights = tr.call("mst.boruvka_mst", mst.boruvka_mst, graph)
        tree = tr.call("mst.root_tree", mst.root_tree, edges, weights, fmap.num_tokens,
                       self.root)
        tr.call("mst.levels", levels, tree, counts=lambda _: tree_shape(tree))
        disc = tr.call("scan.discretize", scan.discretize, params)
        h, saved = self.forward(tr, fmap, disc, tree)
        y = tr.call("scan.output_projection", scan.output_projection, h, params, fmap)
        d_h, d_c_out, d_d, d_x_skip = tr.call(
            "scan.output_projection_backward", scan.output_projection_backward,
            h, params, fmap, inp["d_y"],
        )
        g = self.backward(tr, fmap, disc, tree, saved, d_h)
        d_a, d_b, d_delta = tr.call(
            "scan.discretization_backward", scan.discretization_backward,
            params, disc, g.d_a_bar, g.d_b_bar,
        )
        grads = {"x": d_x_skip + g.d_x, "a": d_a, "b": d_b, "c_out": d_c_out, "d": d_d,
                 "delta": d_delta}
        return {"graph": graph, "edges": edges, "weights": weights, "tree": tree,
                "disc": disc, "h": h, "y": y.data, "grads": grads}

    def digest(self, inp: dict, out: dict) -> str:
        return digest(out["tree"].parent, out["y"], *out["grads"].values())

    def verify(self, inp: dict, out: dict, rng) -> list[str]:
        problems = check_mst(out["graph"], out["edges"], out["weights"])
        problems += check_root_state(inp["fmap"], out["disc"], out["tree"], out["h"])
        return problems + self.check_directional_derivative(inp, out, rng)

    def check_directional_derivative(self, inp: dict, out: dict, rng) -> list[str]:
        """Central difference of loss = sum(d_y * y) along one random
        direction in (x, a, b, c_out, d, delta), tree held fixed, against
        the analytic gradients' inner product with that direction."""
        cfg = oracle.FiniteDifferenceConfig()
        p, tree = inp["params"], out["tree"]
        base = {"x": inp["fmap"].data, "a": p.a, "b": p.b, "c_out": p.c_out, "d": p.d,
                "delta": p.delta}
        direction = {k: rng.standard_normal(v.shape) for k, v in base.items()}

        def loss(sign: float) -> float:
            moved = {k: v + sign * cfg.epsilon * direction[k] for k, v in base.items()}
            fmap = lattice.FeatureMap(moved.pop("x"), spatial=inp["fmap"].spatial)
            params = scan.ContinuousScanParams(**moved)
            h, _ = self.forward(NullTracer(), fmap, scan.discretize(params), tree)
            return float(np.sum(inp["d_y"] * scan.output_projection(h, params, fmap).data))

        numeric = (loss(1.0) - loss(-1.0)) / (2.0 * cfg.epsilon)
        analytic = sum(float(np.sum(out["grads"][k] * direction[k])) for k in base)
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), selfcheck.GRAD_DENOM_FLOOR)
        if err < cfg.relative_tolerance:
            return []
        return [f"directional derivative {analytic:.6e} vs central difference {numeric:.6e} "
                f"(relative error {err:.2e})"]


class GridTrain(_Train):
    name = "grid-train"
    mode = "vision"
    forward_span = "scan.vision_forward"
    root = 0
    blur = 7  # box-filter width; gives trees of ~200-350 levels at 56x56

    def __init__(self, side: int = 56, channels: int = 64, states: int = 4):
        self.side = side
        self.shape = (side * side, channels, states)

    def features(self, rng) -> lattice.FeatureMap:
        k, s, c = self.blur, self.side, self.shape[1]
        noise = rng.standard_normal((s + k - 1, s + k - 1, c))
        sums = np.pad(noise, ((1, 0), (1, 0), (0, 0))).cumsum(0).cumsum(1)
        box = (sums[k:, k:] - sums[:-k, k:] - sums[k:, :-k] + sums[:-k, :-k]) / (k * k)
        return lattice.FeatureMap(box.reshape(s * s, c), spatial=(s, s))

    def build_graph(self, fmap):
        return lattice.build_grid_graph(fmap, self.graph_metric)


class CausalTrain(_Train):
    name = "causal-train"
    mode = "language"
    forward_span = "scan.language_forward"
    neighbours = 3

    def __init__(self, tokens: int = 8192, channels: int = 16, states: int = 4):
        self.shape = (tokens, channels, states)
        self.root = tokens - 1

    def features(self, rng) -> lattice.FeatureMap:
        return lattice.FeatureMap(rng.standard_normal(self.shape[:2]))

    def build_graph(self, fmap):
        return lattice.build_causal_graph(fmap, m=self.neighbours, metric=self.graph_metric)


WORKLOADS = {w.name: w for w in (CliGrid(), GridTrain(), CausalTrain())}
