"""File formats for the command-line tools.

A tensor on disk is a pair of sibling files: ``name.json`` holds the header
``{"shape": [...], "dtype": "f32"|"f64", "layout": "row-major"}`` and
``name.bin`` holds the raw little-endian payload.  Trees and continuous scan
parameters are one JSON object each, whose array fields are
``{"shape": [...], "dtype": "f64"|"i64", "data": "<base64>"}``: the data is
the base64 of the array's little-endian row-major bytes.  Affinity images are
binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import base64
import json
import math
from pathlib import Path

import numpy as np

from .mst import SpanningTree
from .scan import ContinuousScanParams

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "i64": np.dtype("<i8")}
_TENSOR_TAGS = ("f32", "f64")
_TREE_SCALARS = ("num_vertices", "root")
_TREE_FIELDS = {"parent": "i64", "bfs_order": "i64", "edge_weight_to_parent": "f64"}
_PARAMS_FIELDS = {"a": "f64", "b": "f64", "c_out": "f64", "d": "f64", "delta": "f64"}


def _load_json_object(path, what: str) -> dict:
    """Parse a JSON file whose top level must be an object."""
    try:
        obj = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _shape_and_dtype(where: str, header, tags) -> tuple[list[int], np.dtype]:
    """The header check shared by tensor headers and array fields: ``shape``
    a nonempty list of positive ints, ``dtype`` one of ``tags``."""
    if not isinstance(header, dict):
        raise ValueError(f"{where} must be a JSON object with shape and dtype, "
                         f"got {type(header).__name__}")
    shape = header.get("shape")
    if not isinstance(shape, list) or not shape or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in shape
    ):
        raise ValueError(f"{where}: shape must be a nonempty list of positive ints")
    tag = header.get("dtype")
    if tag not in tags:
        raise ValueError(f"{where}: dtype must be {' or '.join(map(repr, tags))}, got {tag!r}")
    return shape, _DTYPES[tag]


def _from_bytes(where: str, payload: bytes, shape: list[int], dtype: np.dtype) -> np.ndarray:
    """A writable native-order array from little-endian row-major bytes."""
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise ValueError(f"{where}: expected {expected} bytes for shape {shape}, got {len(payload)}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))


def _encode(array: np.ndarray, tag: str) -> dict:
    arr = np.ascontiguousarray(array, dtype=_DTYPES[tag])
    return {"shape": list(arr.shape), "dtype": tag,
            "data": base64.b64encode(arr.tobytes()).decode("ascii")}


def _decode(where: str, field, tag: str) -> np.ndarray:
    shape, dtype = _shape_and_dtype(where, field, (tag,))
    data = field.get("data")
    if not isinstance(data, str):
        raise ValueError(f"{where}: data must be a base64 string")
    try:
        payload = base64.b64decode(data, validate=True)
    except ValueError as exc:
        raise ValueError(f"{where}: data is not valid base64: {exc}") from exc
    return _from_bytes(where, payload, shape, dtype)


def _read_fields(path, what: str, fields: dict[str, str], scalars=()) -> dict:
    """Load a tree or params file: every key of ``fields`` decoded as an array
    of its dtype tag, every key of ``scalars`` checked to be an integer."""
    obj = _load_json_object(path, what)
    for key in (*scalars, *fields):
        if key not in obj:
            raise ValueError(f"{what} {path}: missing field {key!r}")
    for key in scalars:
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise ValueError(f"{what} {path}: field {key!r} must be an integer, got {obj[key]!r}")
    out = {key: obj[key] for key in scalars}
    for key, tag in fields.items():
        out[key] = _decode(f"{what} {path}: field {key!r}", obj[key], tag)
    return out


def _write_fields(path, fields: dict[str, str], source, scalars=()) -> None:
    obj = {key: getattr(source, key) for key in scalars}
    obj.update((key, _encode(getattr(source, key), tag)) for key, tag in fields.items())
    Path(path).write_text(json.dumps(obj) + "\n")


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
    header = _load_json_object(header_path, "tensor header")
    where = f"tensor header {header_path}"
    shape, dtype = _shape_and_dtype(where, header, _TENSOR_TAGS)
    if header.get("layout") != "row-major":
        raise ValueError(f"{where}: layout must be 'row-major'")
    return _from_bytes(f"tensor payload {payload_path}", payload_path.read_bytes(), shape, dtype)


def write_tree(path, tree: SpanningTree) -> None:
    _write_fields(path, _TREE_FIELDS, tree, scalars=_TREE_SCALARS)


def read_tree(path) -> SpanningTree:
    """Load a tree file and validate every structural invariant before use."""
    tree = SpanningTree(**_read_fields(path, "tree file", _TREE_FIELDS, scalars=_TREE_SCALARS))
    tree.validate()
    return tree


def write_params(path, params: ContinuousScanParams) -> None:
    _write_fields(path, _PARAMS_FIELDS, params)


def read_params(path) -> ContinuousScanParams:
    """Load continuous scan parameters; shape, finiteness and positivity
    checks happen in the container's constructor."""
    return ContinuousScanParams(**_read_fields(path, "params file", _PARAMS_FIELDS))


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
