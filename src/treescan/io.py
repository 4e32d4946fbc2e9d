"""File formats for the command-line tools.

A tensor on disk is a pair of sibling files: ``name.json`` holds the header
``{"shape": [...], "dtype": "f32"|"f64", "layout": "row-major"}`` and
``name.bin`` holds the raw little-endian payload.  A tree or continuous scan
parameter file is laid out like NumPy's ``.npy``: one JSON header line with
``{"shape": [...], "dtype": "f64"|"i64"}`` per array field, space-padded to a
multiple of 64 bytes, then the fields' little-endian row-major bytes back to
back, in the format's field order, up to the end of the file.  Affinity
images are binary PGM (P5, maxval 255).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .mst import SpanningTree
from .scan import ContinuousScanParams

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8"), "i64": np.dtype("<i8")}
_TENSOR_TAGS = ("f32", "f64")
_TREE_FIELDS = {"parent": "i64", "bfs_order": "i64", "edge_weight_to_parent": "f64"}
_PARAMS_FIELDS = {"a": "f64", "b": "f64", "c_out": "f64", "d": "f64", "delta": "f64"}
_ALIGN = 64  # the first payload's offset; every payload is then 8-byte aligned


def _json_object(raw: bytes, where: str) -> dict:
    """Parse JSON text whose top level must be an object."""
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must hold a JSON object, got {type(obj).__name__}")
    return obj


def _read_buffer(path) -> bytearray:
    """The whole file, read once into a writable buffer."""
    with open(path, "rb") as f:
        buf = bytearray(os.fstat(f.fileno()).st_size)
        del buf[f.readinto(buf):]
    return buf


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


def _from_bytes(where: str, payload, shape: list[int], dtype: np.dtype) -> np.ndarray:
    """A native-order array over little-endian row-major bytes; a view, so
    writable when ``payload`` is, on a little-endian machine."""
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise ValueError(f"{where}: expected {expected} bytes for shape {shape}, got {len(payload)}")
    return np.frombuffer(payload, dtype).reshape(shape).astype(dtype.newbyteorder("="), copy=False)


def _read_fields(path, what: str, fields: dict[str, str]) -> dict:
    """Load a tree or params file: every key of ``fields`` an array of its
    dtype tag; other header keys are ignored."""
    where, buf = f"{what} {path}", _read_buffer(path)
    end = buf.find(b"\n")
    header = _json_object(buf[:end] if end >= 0 else buf, f"{where}: header line")
    if any(isinstance(v, dict) and "data" in v for v in header.values()):
        raise ValueError(f"{where} is in the old base64 format; write it again with this version")
    for key in fields:
        if key not in header:
            raise ValueError(f"{where}: missing field {key!r}")
    specs = {key: _shape_and_dtype(f"{where}: field {key!r}", header[key], (tag,))
             for key, tag in fields.items()}
    if end < 0:
        first = next(iter(fields))
        raise ValueError(f"{where}: no newline ends the header line, before field {first!r}")
    out, offset = {}, end + 1
    for key, (shape, dtype) in specs.items():
        size = math.prod(shape) * dtype.itemsize
        out[key] = _from_bytes(f"{where}: field {key!r}", memoryview(buf)[offset:offset + size],
                               shape, dtype)
        offset += size
    if offset != len(buf):
        raise ValueError(f"{where}: {len(buf) - offset} trailing bytes after field {key!r}")
    return out


def _write_fields(path, fields: dict[str, str], source) -> None:
    arrays = [np.ascontiguousarray(getattr(source, key), dtype=_DTYPES[tag])
              for key, tag in fields.items()]
    header = {key: {"shape": list(arr.shape), "dtype": tag}
              for (key, tag), arr in zip(fields.items(), arrays)}
    line = json.dumps(header).encode("ascii")
    with open(path, "wb") as f:
        f.write(line + b" " * (-(len(line) + 1) % _ALIGN) + b"\n")
        for arr in arrays:
            f.write(arr)


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
    where = f"tensor header {header_path}"
    header = _json_object(header_path.read_bytes(), where)
    shape, dtype = _shape_and_dtype(where, header, _TENSOR_TAGS)
    if header.get("layout") != "row-major":
        raise ValueError(f"{where}: layout must be 'row-major'")
    return _from_bytes(f"tensor payload {payload_path}", _read_buffer(payload_path), shape, dtype)


def write_tree(path, tree: SpanningTree) -> None:
    _write_fields(path, _TREE_FIELDS, tree)


def read_tree(path) -> SpanningTree:
    """Load a tree file and validate every structural invariant before use."""
    tree = SpanningTree(**_read_fields(path, "tree file", _TREE_FIELDS))
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
