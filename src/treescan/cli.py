"""Command-line surface: tree building, scanning, affinity images, benchmarks
and the self-check suite.

Exit codes: 0 on success, 1 when a consistency check fails, 2 for usage or
input-validation errors.  Diagnostics go to standard error only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .bench import run_benchmark
from .lattice import METRICS, FeatureMap, build_grid_graph
from .mst import boruvka_mst, root_tree
from .scan import (
    DiscreteScanParams,
    affinity_map,
    discretize,
    tree_scan_language_forward,
    tree_scan_vision_forward,
)
from .selfcheck import run_selfcheck


def cmd_tree(args) -> int:
    x = io.read_tensor(args.input)
    fmap = FeatureMap(x, spatial=(args.height, args.width))
    graph = build_grid_graph(fmap, args.metric)
    edges, weights = boruvka_mst(graph)
    tree = root_tree(edges, weights, fmap.num_tokens, args.root)
    io.write_tree(args.out, tree)
    return 0


def cmd_scan(args) -> int:
    x = io.read_tensor(args.input)
    tree = io.read_tree(args.tree)
    params = io.read_params(args.params)
    fmap = FeatureMap(x)
    disc = discretize(params)
    if args.mode == "vision":
        h, _ = tree_scan_vision_forward(fmap, disc, tree)
    else:
        h = tree_scan_language_forward(fmap, disc, tree)
    if not np.all(np.isfinite(h)):
        raise ValueError("scan output contains NaN or Inf: the states overflowed float64")
    io.write_tensor(args.out, h)
    return 0


def cmd_affinity(args) -> int:
    if args.height <= 0 or args.width <= 0:
        raise ValueError(f"--height and --width must be positive, got {args.height}, {args.width}")
    if not (np.isfinite(args.delta) and args.delta >= 0):
        raise ValueError(f"--delta must be finite and >= 0, got {args.delta}")
    tree = io.read_tree(args.tree)
    n = tree.num_vertices
    if args.height * args.width != n:
        raise ValueError(f"height*width = {args.height * args.width} but the tree has {n} vertices")
    if args.from_weights:
        a_bar = np.exp(-args.delta * tree.edge_weight_to_parent)[:, None, None]
        disc = DiscreteScanParams(a_bar, np.zeros_like(a_bar))
    else:
        params = io.read_params(args.params)
        disc = discretize(params)
    values = affinity_map(tree, disc, args.anchor)
    image = np.rint(255.0 * values).astype(np.uint8).reshape(args.height, args.width)
    io.write_pgm(args.out, image)
    return 0


def cmd_bench(args) -> int:
    out = Path(args.out)
    if out.is_dir() or not out.parent.is_dir():  # before any instance is built
        raise ValueError(f"bench --out {out}: not a file in an existing directory")
    sizes = []
    for entry in filter(None, map(str.strip, args.sizes.split(","))):
        try:  # numpy must index and allocate the features each instance draws first
            sizes.append(len(np.empty((int(entry), 4))))
        except (ValueError, MemoryError) as exc:
            raise ValueError(f"bench --sizes entry {entry!r}: {exc}") from None
    report = run_benchmark(sizes, repeat=args.repeat, seed=args.seed)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


def cmd_selfcheck(args) -> int:
    ok = run_selfcheck(base_seed=args.seed, perturb=args.negative_control)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treescan",
        description="Input-adaptive tree scanning: MSTs over feature graphs and "
        "linear-time state propagation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree", help="build the rooted MST of a feature image")
    p.add_argument("--input", required=True, help="feature tensor of shape (H*W, C)")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--metric", choices=METRICS, default="cosine")
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--out", required=True, help="output tree file")
    p.set_defaults(fn=cmd_tree)

    p = sub.add_parser("scan", help="run a tree scan and write hidden states")
    p.add_argument("--input", required=True, help="feature tensor of shape (L, C)")
    p.add_argument("--tree", required=True, help="tree file, as written by tree")
    p.add_argument("--params", required=True, help="continuous scan parameter file")
    p.add_argument("--mode", choices=("vision", "language"), required=True)
    p.add_argument("--out", required=True, help="output tensor, shape (L, C, N)")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("affinity", help="render the path-weight map of an anchor pixel")
    p.add_argument("--tree", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--params", help="continuous scan parameter file")
    source.add_argument(
        "--from-weights",
        action="store_true",
        help="derive transitions as exp(-delta * edge weight) instead of --params",
    )
    p.add_argument("--delta", type=float, default=1.0, help="scale for --from-weights")
    p.add_argument("--anchor", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--out", required=True, help="output PGM image")
    p.set_defaults(fn=cmd_affinity)

    p = sub.add_parser("bench", help="measure scan wall-time scaling")
    p.add_argument("--sizes", required=True, help="comma-separated token counts, at least 2")
    p.add_argument("--repeat", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output JSON report")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("selfcheck", help="run the seeded kernel-vs-oracle suite")
    p.add_argument("--seed", type=int, default=20240601)
    p.add_argument(
        "--negative-control",
        action="store_true",
        help="deliberately perturb a kernel to confirm the suite can fail",
    )
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"{args.command} --seed must be >= 0, got {args.seed}")
        # Overflow is reported by the explicit finiteness checks (parameters,
        # scan output), so numpy's own warnings would only add stderr lines.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
