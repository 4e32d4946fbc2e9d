"""File formats for the command-line tools.

A tensor on disk is a pair of sibling files: ``name.json`` holds the header
``{"shape": [...], "dtype": "f32"|"f64", "layout": "row-major"}`` and
``name.bin`` holds the raw little-endian payload.  Trees and continuous scan
parameters are plain JSON.  Affinity images are binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .mst import SpanningTree
from .scan import ContinuousScanParams

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def _tensor_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix == ".json":
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".bin")


def write_tensor(path, array: np.ndarray) -> None:
    """Write ``array`` as a header/payload pair; float32 stays f32, everything
    else is stored as f64."""
    header_path, payload_path = _tensor_paths(path)
    arr = np.asarray(array)
    tag = "f32" if arr.dtype == np.float32 else "f64"
    arr = np.ascontiguousarray(arr, dtype=_DTYPES[tag])
    header = {"shape": list(arr.shape), "dtype": tag, "layout": "row-major"}
    header_path.write_text(json.dumps(header) + "\n")
    payload_path.write_bytes(arr.tobytes())


def read_tensor(path) -> np.ndarray:
    """Load a header/payload tensor, validating the header invariants."""
    header_path, payload_path = _tensor_paths(path)
    try:
        header = json.loads(header_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"tensor header {header_path} is not valid JSON: {exc}") from exc
    shape = header.get("shape")
    if not isinstance(shape, list) or not shape or not all(
        isinstance(s, int) and s >= 1 for s in shape
    ):
        raise ValueError(f"tensor header {header_path}: shape must be a nonempty list of positive ints")
    tag = header.get("dtype")
    if tag not in _DTYPES:
        raise ValueError(f"tensor header {header_path}: dtype must be 'f32' or 'f64', got {tag!r}")
    if header.get("layout") != "row-major":
        raise ValueError(f"tensor header {header_path}: layout must be 'row-major'")
    dtype = _DTYPES[tag]
    payload = payload_path.read_bytes()
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise ValueError(
            f"tensor payload {payload_path}: expected {expected} bytes for shape {shape}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_tree(path, tree: SpanningTree) -> None:
    obj = {
        "num_vertices": tree.num_vertices,
        "root": tree.root,
        "parent": tree.parent.tolist(),
        "bfs_order": tree.bfs_order.tolist(),
        "edge_weight_to_parent": tree.edge_weight_to_parent.tolist(),
    }
    Path(path).write_text(json.dumps(obj) + "\n")


def read_tree(path) -> SpanningTree:
    """Load a tree file and validate every structural invariant before use."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"tree file {path} is not valid JSON: {exc}") from exc
    required = ("num_vertices", "root", "parent", "bfs_order", "edge_weight_to_parent")
    for key in required:
        if key not in obj:
            raise ValueError(f"tree file {path}: missing field {key!r}")
    for key in ("num_vertices", "root"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(f"tree file {path}: field {key!r} must be an integer, got {obj[key]!r}")
    tree = SpanningTree(
        num_vertices=obj["num_vertices"],
        root=obj["root"],
        parent=np.asarray(obj["parent"], dtype=np.int64),
        bfs_order=np.asarray(obj["bfs_order"], dtype=np.int64),
        edge_weight_to_parent=np.asarray(obj["edge_weight_to_parent"], dtype=np.float64),
    )
    tree.validate()
    return tree


def write_params(path, params: ContinuousScanParams) -> None:
    obj = {
        "a": params.a.tolist(),
        "b": params.b.tolist(),
        "c_out": params.c_out.tolist(),
        "d": params.d.tolist(),
        "delta": params.delta.tolist(),
    }
    Path(path).write_text(json.dumps(obj) + "\n")


def read_params(path) -> ContinuousScanParams:
    """Load continuous scan parameters; shape and positivity checks happen in
    the container's constructor."""
    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"params file {path} is not valid JSON: {exc}") from exc
    for key in ("a", "b", "c_out", "d", "delta"):
        if key not in obj:
            raise ValueError(f"params file {path}: missing field {key!r}")
    return ContinuousScanParams(
        a=np.asarray(obj["a"], dtype=np.float64),
        b=np.asarray(obj["b"], dtype=np.float64),
        c_out=np.asarray(obj["c_out"], dtype=np.float64),
        d=np.asarray(obj["d"], dtype=np.float64),
        delta=np.asarray(obj["delta"], dtype=np.float64),
    )


def write_pgm(path, image: np.ndarray) -> None:
    """Write a (H, W) uint8 array as binary PGM, maxval 255."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    img = img.astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM written by ``write_pgm``."""
    raw = Path(path).read_bytes()
    parts = raw.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError(f"{path} is not a maxval-255 binary PGM")
    w, h = (int(t) for t in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=h * w)
    return pixels.reshape(h, w).copy()
