import base64
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import treescan
from treescan import bench, io
from treescan.bench import build_instance
from treescan.cli import main
from treescan.mst import SpanningTree, root_tree
from treescan.scan import ContinuousScanParams
from treescan.scenarios import chain_tree, random_tree


def rng():
    return np.random.default_rng(99)


LITTLE_ENDIAN = {"f64": "<f8", "i64": "<i8"}


def encode_array(arr):
    """A tree/params array field in the old base64 format, encoded
    independently of ``io``."""
    tag = {"f": "f64", "i": "i64"}[arr.dtype.kind]
    raw = np.ascontiguousarray(arr, dtype=LITTLE_ENDIAN[tag]).tobytes()
    return {"shape": list(arr.shape), "dtype": tag, "data": base64.b64encode(raw).decode("ascii")}


# A tree or params file, read and written independently of ``io``: one JSON
# header line padded with spaces to a multiple of 64 bytes, then the payload
# of every array field (those whose header is an object) in header order.


def split_file(raw):
    """The header object and each array field's payload bytes of ``raw``."""
    start = raw.index(b"\n") + 1
    header = json.loads(raw[:start])
    payloads = {}
    for key, field in header.items():
        if isinstance(field, dict):
            size = 8 * math.prod(field["shape"])
            payloads[key] = raw[start:start + size]
            start += size
    assert start == len(raw)
    return header, payloads


def join_file(header, payloads):
    line = json.dumps(header).encode()
    return line.ljust(-(-(len(line) + 1) // 64) * 64 - 1) + b"\n" + b"".join(payloads.values())


def decode_field(field, payload):
    arr = np.frombuffer(payload, dtype=LITTLE_ENDIAN[field["dtype"]])
    return arr.reshape(field["shape"]).copy()


def decode_file(raw):
    header, payloads = split_file(raw)
    return {k: decode_field(v, payloads[k]) if k in payloads else v for k, v in header.items()}


def encode_file(obj):
    """The bytes of a file holding ``obj``'s arrays as fields, in ``obj``'s
    order, and any other value as it is in the header."""
    header, payloads = {}, {}
    for key, value in obj.items():
        if isinstance(value, np.ndarray):
            tag = {"f": "f64", "i": "i64"}[value.dtype.kind]
            header[key] = {"shape": list(value.shape), "dtype": tag}
            payloads[key] = np.ascontiguousarray(value, dtype=LITTLE_ENDIAN[tag]).tobytes()
        else:
            header[key] = value
    return join_file(header, payloads)


def edit_file(path, edit):
    """Decode a tree or params file's array fields, let ``edit`` change the
    object in place (arrays or any other field), and write it back encoded."""
    obj = decode_file(path.read_bytes())
    edit(obj)
    path.write_bytes(encode_file(obj))


def write_three_array_tree(path):
    """Rewrite a tree file in the format that also held ``bfs_order``, the
    vertices in breadth-first order, between the two arrays."""
    tree = io.read_tree(path)
    path.write_bytes(encode_file({"parent": tree.parent, "bfs_order": tree.walk.order,
                                  "edge_weight_to_parent": tree.edge_weight_to_parent}))


def write_old_format(path):
    """Rewrite a tree or params file in the old format: one JSON object whose
    array fields hold base64 ``data`` strings."""
    obj = decode_file(path.read_bytes())
    obj = {k: encode_array(v) if isinstance(v, np.ndarray) else v for k, v in obj.items()}
    path.write_text(json.dumps(obj) + "\n")


class TestTensorFile:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_round_trip_bitwise(self, tmp_path, dtype):
        arr = rng().standard_normal((3, 4, 2)).astype(dtype)
        io.write_tensor(tmp_path / "t.json", arr)
        back = io.read_tensor(tmp_path / "t.json")
        assert back.dtype == dtype and back.flags.writeable and back.flags.aligned
        assert back.tobytes() == arr.tobytes()

    def test_path_with_or_without_suffix(self, tmp_path):
        arr = np.ones((2, 2))
        io.write_tensor(tmp_path / "t", arr)
        assert (tmp_path / "t.json").exists() and (tmp_path / "t.bin").exists()
        np.testing.assert_array_equal(io.read_tensor(tmp_path / "t"), arr)

    def test_payload_size_mismatch(self, tmp_path):
        io.write_tensor(tmp_path / "t", np.ones((2, 2)))
        (tmp_path / "t.bin").write_bytes(b"\x00" * 7)
        with pytest.raises(ValueError, match="payload"):
            io.read_tensor(tmp_path / "t")
        # 2**32 * 2**32 elements wrap a fixed-width product to 0, which the
        # empty payload would match; the exact size must be demanded instead
        (tmp_path / "t.json").write_text(json.dumps(
            {"shape": [2**32, 2**32], "dtype": "f64", "layout": "row-major"}))
        (tmp_path / "t.bin").write_bytes(b"")
        with pytest.raises(ValueError, match=f"expected {8 * 2**64} bytes"):
            io.read_tensor(tmp_path / "t")

    def test_bad_header(self, tmp_path):
        io.write_tensor(tmp_path / "t", np.ones((2, 2)))
        hdr = json.loads((tmp_path / "t.json").read_text())
        hdr["dtype"] = "i8"
        (tmp_path / "t.json").write_text(json.dumps(hdr))
        with pytest.raises(ValueError, match="dtype"):
            io.read_tensor(tmp_path / "t")


class TestTreeFile:
    def test_round_trip(self, tmp_path):
        tree = random_tree(rng(), 23)
        io.write_tree(tmp_path / "t.tree.json", tree)
        back = io.read_tree(tmp_path / "t.tree.json")
        assert back.root == tree.root
        np.testing.assert_array_equal(back.parent, tree.parent)
        np.testing.assert_array_equal(back.walk.order, tree.walk.order)
        np.testing.assert_array_equal(back.edge_weight_to_parent, tree.edge_weight_to_parent)

    def test_corrupt_parent_rejected(self, tmp_path):
        tree = random_tree(rng(), 8)
        io.write_tree(tmp_path / "t.json", tree)

        def corrupt(obj):
            obj["parent"][tree.root] = (tree.root + 1) % 8

        edit_file(tmp_path / "t.json", corrupt)
        with pytest.raises(ValueError, match="parent"):
            io.read_tree(tmp_path / "t.json")

    def test_header_holds_only_the_arrays(self, tmp_path):
        io.write_tree(tmp_path / "t.json", random_tree(rng(), 9, root=4))
        header, _ = split_file((tmp_path / "t.json").read_bytes())
        assert list(header) == ["parent", "edge_weight_to_parent"]

    def test_previous_layout_reads_to_the_same_arrays(self, tmp_path):
        """Header keys that hold no object, such as the integers
        ``num_vertices`` and ``root`` that files once held, are ignored: the
        file reads, and writing what was read drops exactly those keys."""
        tree = random_tree(rng(), 23, root=5)
        arrays = {k: getattr(tree, k) for k in ("parent", "edge_weight_to_parent")}
        (tmp_path / "old.json").write_bytes(encode_file({"num_vertices": 23, "root": 5, **arrays}))
        back = io.read_tree(tmp_path / "old.json")
        assert (back.num_vertices, back.root) == (23, 5)
        for key, arr in arrays.items():
            assert_same_array(getattr(back, key), arr)
        io.write_tree(tmp_path / "new.json", back)
        old_header, old_payloads = split_file((tmp_path / "old.json").read_bytes())
        new_header, new_payloads = split_file((tmp_path / "new.json").read_bytes())
        assert set(old_header) - set(new_header) == {"num_vertices", "root"}
        assert set(new_header) <= set(old_header) and new_payloads == old_payloads

    def test_bad_bfs_order_rejected(self, tmp_path):
        """A tree file in the three-array format, with ``bfs_order`` between
        the two arrays, is rejected naming that field instead of misread."""
        io.write_tree(tmp_path / "t.json", random_tree(rng(), 8))
        write_three_array_tree(tmp_path / "t.json")
        with pytest.raises(ValueError, match="older format with field 'bfs_order'"):
            io.read_tree(tmp_path / "t.json")


class TestParamsFile:
    def test_round_trip(self, tmp_path):
        r = rng()
        p = ContinuousScanParams(
            a=-r.uniform(0.1, 1.0, (2, 3)),
            b=r.standard_normal((5, 3)),
            c_out=r.standard_normal((5, 3)),
            d=r.standard_normal(2),
            delta=r.uniform(0.1, 1.0, (5, 2)),
        )
        io.write_params(tmp_path / "p.json", p)
        q = io.read_params(tmp_path / "p.json")
        np.testing.assert_array_equal(p.a, q.a)
        np.testing.assert_array_equal(p.delta, q.delta)

    def test_missing_field(self, tmp_path):
        (tmp_path / "p.json").write_text('{"a": [[1.0]]}')
        with pytest.raises(ValueError, match="missing field"):
            io.read_params(tmp_path / "p.json")


def assert_same_array(back, orig):
    assert back.dtype == orig.dtype and back.dtype.isnative and back.flags.writeable
    assert back.shape == orig.shape and back.tobytes() == orig.tobytes()


EXTREMES = np.array([-0.0, 5e-324, 1.7e308, -1.7e308, 1.0, -5e-324])

def edit_field_header(edit):
    """A malformation that replaces a field's header ``f`` with ``edit(f)``."""
    def malform(header, payloads, key):
        header[key] = edit(header[key])
    return malform


def end_file_in(keep):
    """A malformation that ends the file ``keep(n)`` bytes into the field's
    n-byte payload: the later fields' payloads go too."""
    def malform(header, payloads, key):
        later = list(payloads)[list(payloads).index(key) + 1:]
        for k in later:
            del payloads[k]
        payloads[key] = payloads[key][:keep(len(payloads[key]))]
    return malform


def list_form(header, payloads, key):
    """The field as a JSON number list, the format before binary payloads."""
    header[key] = decode_field(header[key], payloads.pop(key)).tolist()


# each case turns a well-formed array field of a file into a malformed one,
# and names a word the rejection must contain
MALFORMED = {
    "garbled-header": (edit_field_header(lambda f: json.dumps(f)[2:]), "JSON object"),
    "byte-count": (end_file_in(lambda n: n - 8), "bytes"),
    "truncated": (end_file_in(lambda n: 5), "bytes"),
    "unknown-dtype": (edit_field_header(lambda f: {**f, "dtype": "f16"}), "dtype"),
    "mismatched-dtype": (edit_field_header(
        lambda f: {**f, "dtype": {"f64": "i64", "i64": "f64"}[f["dtype"]]}), "dtype"),
    "shape-not-list": (edit_field_header(lambda f: {**f, "shape": f["shape"][0]}), "shape"),
    "negative-shape": (edit_field_header(lambda f: {**f, "shape": [-s for s in f["shape"]]}),
                       "shape"),
    "bool-shape": (edit_field_header(lambda f: {**f, "shape": [True, *f["shape"]]}), "shape"),
    "list-form": (list_form, "JSON object"),
}


def grow_last_shape(raw):
    """The last field's header claims one more row than its payload holds."""
    header, payloads = split_file(raw)
    last = header[list(payloads)[-1]]
    last["shape"] = [last["shape"][0] + 1, *last["shape"][1:]]
    return join_file(header, payloads)


def header_as_list(raw):
    header, payloads = split_file(raw)
    return join_file(list(header.items()), payloads)


# each case malforms a whole tree or params file's bytes, and names a
# pattern the rejection must match; {first} and {last} stand for the file's
# first and last field
FILE_MALFORMED = {
    "trailing-bytes": (lambda raw: raw + bytes(8), "8 trailing bytes after field '{last}'"),
    "shape-grown": (grow_last_shape, "field '{last}': expected .* bytes"),
    "no-newline": (lambda raw: raw[:raw.index(b"\n")],
                   "no newline ends the header line, before field '{first}'"),
    "header-not-object": (header_as_list, "header line must hold a JSON object"),
    "garbled-header-line": (lambda raw: b"*" + raw[1:], "header line is not valid JSON"),
    "old-base64-format": (None, "old base64 format"),
}


def run_python(args, cwd=None):
    """``python *args`` in a fresh interpreter that imports this checkout's
    treescan.  pytest captures numpy's RuntimeWarnings, so only a separate
    interpreter shows whether they reach stderr."""
    src = str(Path(treescan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def assert_one_error_line_outside_pytest(argv):
    """``python -m treescan *argv`` in a fresh interpreter exits 2 with one
    ``error:`` line on stderr."""
    proc = run_python(["-m", "treescan", *argv])
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr


def write_scan_inputs(tmp_path, length=4):
    """x, a chain tree rooted at 0 and params: a valid ``scan`` call."""
    io.write_tensor(tmp_path / "x", np.ones((length, 1)))
    edges = np.stack([np.arange(length - 1), np.arange(1, length)], axis=1)
    io.write_tree(tmp_path / "tree.json", root_tree(edges, np.ones(length - 1), length, 0))
    write_simple_params(tmp_path, length)
    return ["scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "vision",
            "--out", str(tmp_path / "h")]


class TestArrayEncoding:
    def test_tree_round_trip_bit_exact(self, tmp_path):
        tree = random_tree(rng(), 7, root=2)
        weights = np.where(np.arange(7) == 2, -0.0, np.abs(EXTREMES[np.arange(7) % 6]))
        tree = SpanningTree(tree.parent, weights)
        io.write_tree(tmp_path / "t.json", tree)
        back = io.read_tree(tmp_path / "t.json")
        assert (back.num_vertices, back.root) == (7, 2)
        for name in ("parent", "edge_weight_to_parent"):
            assert_same_array(getattr(back, name), getattr(tree, name))
        assert back.parent.dtype == np.int64
        # the stored bytes are the little-endian row-major array
        header, payloads = split_file((tmp_path / "t.json").read_bytes())
        assert header["parent"]["dtype"] == "i64"
        assert header["edge_weight_to_parent"]["dtype"] == "f64"
        assert payloads["edge_weight_to_parent"] == weights.astype("<f8").tobytes()

    def test_params_round_trip_bit_exact(self, tmp_path):
        p = ContinuousScanParams(
            a=EXTREMES.reshape(2, 3),
            b=EXTREMES[::-1].reshape(2, 3),
            c_out=EXTREMES.reshape(2, 3),
            d=EXTREMES[:2],
            delta=np.array([[5e-324, 1.7e308]] * 2),
        )
        io.write_params(tmp_path / "p.json", p)
        q = io.read_params(tmp_path / "p.json")
        for name in ("a", "b", "c_out", "d", "delta"):
            assert_same_array(getattr(q, name), getattr(p, name))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("name,field", [("tree.json", "parent"),
                                            ("tree.json", "edge_weight_to_parent"),
                                            ("params.json", "a"), ("params.json", "delta")])
    def test_malformed_field_rejected(self, tmp_path, capsys, case, name, field):
        argv = write_scan_inputs(tmp_path)
        malform, word = MALFORMED[case]
        header, payloads = split_file((tmp_path / name).read_bytes())
        malform(header, payloads, field)
        (tmp_path / name).write_bytes(join_file(header, payloads))
        reader = io.read_tree if name == "tree.json" else io.read_params
        with pytest.raises(ValueError, match=f"{name}: field '{field}'.*{word}"):
            reader(tmp_path / name)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and field in err

    @pytest.mark.parametrize("case", sorted(FILE_MALFORMED))
    @pytest.mark.parametrize("name,first,last", [("tree.json", "parent", "edge_weight_to_parent"),
                                                 ("params.json", "a", "delta")])
    def test_malformed_file_rejected(self, tmp_path, capsys, case, name, first, last):
        argv = write_scan_inputs(tmp_path)
        malform, pattern = FILE_MALFORMED[case]
        if malform is None:
            write_old_format(tmp_path / name)
        else:
            (tmp_path / name).write_bytes(malform((tmp_path / name).read_bytes()))
        reader = io.read_tree if name == "tree.json" else io.read_params
        with pytest.raises(ValueError, match=f"{name}.*{pattern.format(first=first, last=last)}"):
            reader(tmp_path / name)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and name in err

    @pytest.mark.parametrize("kind", ["tree", "params"])
    def test_write_read_write_byte_stable(self, tmp_path, kind):
        if kind == "tree":
            obj = random_tree(rng(), 23, root=5)
            write, read = io.write_tree, io.read_tree
            keys = ("parent", "edge_weight_to_parent")
        else:
            obj = ContinuousScanParams(a=EXTREMES.reshape(2, 3), b=EXTREMES[::-1].reshape(2, 3),
                                       c_out=EXTREMES.reshape(2, 3), d=EXTREMES[:2],
                                       delta=np.array([[5e-324, 1.7e308]] * 2))
            write, read = io.write_params, io.read_params
            keys = ("a", "b", "c_out", "d", "delta")
        write(tmp_path / "f", obj)
        raw = (tmp_path / "f").read_bytes()
        # the writer follows the format as encoded independently of io
        assert raw == encode_file({k: getattr(obj, k) for k in keys})
        write(tmp_path / "g", read(tmp_path / "f"))
        assert (tmp_path / "g").read_bytes() == raw
        start = raw.index(b"\n") + 1
        assert start % 64 == 0
        for key, payload in split_file(raw)[1].items():
            assert start % 8 == 0, key
            start += len(payload)

    @pytest.mark.parametrize("text", ["[]", "null", "3", '"s"', "[1]"])
    @pytest.mark.parametrize("name", ["x.json", "tree.json", "params.json"])
    def test_top_level_not_an_object_exit_2(self, tmp_path, capsys, name, text):
        argv = write_scan_inputs(tmp_path)
        (tmp_path / name).write_text(text)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:") and name in err

    def test_bool_in_tensor_shape_rejected(self, tmp_path):
        io.write_tensor(tmp_path / "t", np.ones((1, 1)))
        (tmp_path / "t.json").write_text(json.dumps(
            {"shape": [True, 1], "dtype": "f64", "layout": "row-major"}))
        with pytest.raises(ValueError, match="shape"):
            io.read_tensor(tmp_path / "t")


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = (rng().random((5, 7)) * 255).astype(np.uint8)
        io.write_pgm(tmp_path / "i.pgm", img)
        np.testing.assert_array_equal(io.read_pgm(tmp_path / "i.pgm"), img)
        header = (tmp_path / "i.pgm").read_bytes()[:15]
        assert header.startswith(b"P5\n7 5\n255\n")


def two_region_image(tmp_path, h=6, w=8):
    """Left half one constant feature, right half an orthogonal one."""
    data = np.zeros((h * w, 2))
    for i in range(h * w):
        data[i] = [1.0, 0.0] if (i % w) < w // 2 else [0.0, 1.0]
    io.write_tensor(tmp_path / "x", data)
    return data


def write_simple_params(tmp_path, length, channels=1, states=1, seed=0):
    r = np.random.default_rng(seed)
    p = ContinuousScanParams(
        a=-r.uniform(0.2, 1.5, (channels, states)),
        b=r.standard_normal((length, states)),
        c_out=r.standard_normal((length, states)),
        d=r.standard_normal(channels),
        delta=r.uniform(0.1, 0.9, (length, channels)),
    )
    io.write_params(tmp_path / "params.json", p)
    return p


class TestCmdTree:
    def test_root_out_of_range_named(self, tmp_path, capsys):
        io.write_tensor(tmp_path / "x", np.ones((4, 2)))
        code = main(["tree", "--input", str(tmp_path / "x.json"), "--height", "2", "--width", "2",
                     "--root", "7", "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: root 7 out of range for 4 vertices\n"

    def test_two_region_2x2(self, tmp_path, capsys):
        data = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        io.write_tensor(tmp_path / "x", data)
        out = tmp_path / "tree.json"
        code = main([
            "tree", "--input", str(tmp_path / "x.json"), "--height", "2",
            "--width", "2", "--metric", "cosine", "--root", "0", "--out", str(out),
        ])
        assert code == 0
        tree = io.read_tree(out)
        kept = {
            (min(v, int(tree.parent[v])), max(v, int(tree.parent[v])))
            for v in range(4)
            if v != tree.root
        }
        assert (0, 1) in kept and (2, 3) in kept
        assert tree.edge_weight_to_parent.sum() == pytest.approx(1.0)

    def test_constant_image_deterministic(self, tmp_path):
        data = np.ones((9, 2))
        io.write_tensor(tmp_path / "x", data)
        outs = []
        for name in ("t1.json", "t2.json"):
            code = main([
                "tree", "--input", str(tmp_path / "x.json"), "--height", "3",
                "--width", "3", "--out", str(tmp_path / name),
            ])
            assert code == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_single_pixel_tree_then_scan(self, tmp_path):
        # one vertex, no edges: the scan reduces to h = b_bar * x
        x = np.array([[0.5, -2.0, 3.0]])
        io.write_tensor(tmp_path / "x", x)
        p = write_simple_params(tmp_path, 1, channels=3, states=2)
        code = main([
            "tree", "--input", str(tmp_path / "x.json"), "--height", "1",
            "--width", "1", "--out", str(tmp_path / "tree.json"),
        ])
        assert code == 0
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "vision",
            "--out", str(tmp_path / "h"),
        ])
        assert code == 0
        b_bar = p.delta[:, :, None] * p.b[:, None, :]
        np.testing.assert_array_equal(io.read_tensor(tmp_path / "h.json"), b_bar * x[:, :, None])

    def test_bad_metric_usage_error(self, tmp_path):
        io.write_tensor(tmp_path / "x", np.ones((4, 1)))
        with pytest.raises(SystemExit) as exc:
            main([
                "tree", "--input", str(tmp_path / "x.json"), "--height", "2",
                "--width", "2", "--metric", "bogus", "--out", str(tmp_path / "t.json"),
            ])
        assert exc.value.code == 2

    def test_shape_mismatch_exit_2(self, tmp_path, capsys):
        io.write_tensor(tmp_path / "x", np.ones((4, 1)))
        code = main([
            "tree", "--input", str(tmp_path / "x.json"), "--height", "3",
            "--width", "3", "--out", str(tmp_path / "t.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCmdScan:
    def make_chain_inputs(self, tmp_path, root):
        io.write_tensor(tmp_path / "x", np.ones((3, 1)))
        tree = root_tree(np.array([[0, 1], [1, 2]]), np.zeros(2), 3, root)
        io.write_tree(tmp_path / "tree.json", tree)
        # continuous params whose discretization gives a_bar = 0.5, b_bar = 1
        p = ContinuousScanParams(
            a=np.array([[np.log(0.5)]]),
            b=np.array([[1.0]] * 3),
            c_out=np.ones((3, 1)),
            d=np.zeros(1),
            delta=np.ones((3, 1)),
        )
        io.write_params(tmp_path / "params.json", p)

    def test_vision_chain_worked_example(self, tmp_path):
        self.make_chain_inputs(tmp_path, root=0)
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "vision",
            "--out", str(tmp_path / "h"),
        ])
        assert code == 0
        h = io.read_tensor(tmp_path / "h.json")
        np.testing.assert_allclose(h.ravel(), [1.75, 2.0, 1.75])

    def test_language_root_mismatch_names_constraint(self, tmp_path, capsys):
        self.make_chain_inputs(tmp_path, root=0)
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "language",
            "--out", str(tmp_path / "h"),
        ])
        assert code == 2
        assert "last token" in capsys.readouterr().err

    def test_language_chain_equals_sequential_file(self, tmp_path):
        # constant transitions make the chain scan slot-for-slot identical to
        # the sequential recurrence, so the two files must match bitwise
        from treescan import DiscreteScanParams, FeatureMap, sequential_selective_scan

        self.make_chain_inputs(tmp_path, root=2)
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "language",
            "--out", str(tmp_path / "h"),
        ])
        assert code == 0
        h = io.read_tensor(tmp_path / "h.json")
        seq = sequential_selective_scan(
            FeatureMap(np.ones((3, 1))),
            DiscreteScanParams(np.full((3, 1, 1), 0.5), np.ones((3, 1, 1))),
        )
        np.testing.assert_array_equal(h, seq)

    def test_zero_transition_params(self, tmp_path):
        # a very negative state matrix drives a_bar to ~0: output = b_bar * x
        io.write_tensor(tmp_path / "x", np.full((4, 1), 2.0))
        tree = root_tree(np.array([[0, 1], [1, 2], [2, 3]]), np.zeros(3), 4, 0)
        io.write_tree(tmp_path / "tree.json", tree)
        p = ContinuousScanParams(
            a=np.array([[-700.0]]),
            b=np.full((4, 1), 3.0),
            c_out=np.ones((4, 1)),
            d=np.zeros(1),
            delta=np.ones((4, 1)),
        )
        io.write_params(tmp_path / "params.json", p)
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "vision",
            "--out", str(tmp_path / "h"),
        ])
        assert code == 0
        h = io.read_tensor(tmp_path / "h.json")
        np.testing.assert_allclose(h.ravel(), 6.0, atol=1e-12)

    @pytest.mark.parametrize("case", ["x-rows", "tree-vertices", "3-d-input", "dfs-tree",
                                      "parent-cycle"])
    def test_rejected_inputs_exit_2(self, tmp_path, capsys, case):
        length = 4
        write_simple_params(tmp_path, length)
        x_shape = {"x-rows": (length + 1, 1), "3-d-input": (length, 1, 1)}.get(case, (length, 1))
        io.write_tensor(tmp_path / "x", np.ones(x_shape))
        if case == "parent-cycle":  # vertices 1 -> 2 -> 3 -> 1 never reach the root
            tree = SpanningTree(np.array([0, 2, 3, 1]), np.zeros(4))
        else:
            n = length + (case == "tree-vertices")
            tree = root_tree(np.stack([np.arange(n - 1), np.arange(1, n)], axis=1),
                             np.zeros(n - 1), n, 0)
        io.write_tree(tmp_path / "tree.json", tree)
        if case == "dfs-tree":  # a file that also stores an order, depth-first
            (tmp_path / "tree.json").write_bytes(encode_file({
                "parent": np.array([0, 0, 0, 1]), "bfs_order": np.array([0, 1, 3, 2]),
                "edge_weight_to_parent": np.zeros(4)}))
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "vision",
            "--out", str(tmp_path / "h"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert case != "parent-cycle" or "cycle through [1, 2, 3]" in err
        assert case != "dfs-tree" or "older format with field 'bfs_order'" in err

    @staticmethod
    def write_overflow_inputs(tmp_path, case):
        """Finite, valid files whose scan overflows float64: a huge input
        with every a_bar < 1, a 2000-chain with a_bar = exp(0.4) > 1, or
        a = 1000 so that discretization itself overflows."""
        length, a, b = {"huge-input": (4, -0.1, 1e308), "a-bar-above-1": (2000, 0.4, 1.0),
                        "exp-overflow": (4, 1000.0, 1.0)}[case]
        io.write_tensor(tmp_path / "x", np.ones((length, 1)))
        io.write_tree(tmp_path / "tree.json", chain_tree(length))
        io.write_params(tmp_path / "params.json", ContinuousScanParams(
            a=np.array([[a]]), b=np.full((length, 1), b), c_out=np.ones((length, 1)),
            d=np.zeros(1), delta=np.ones((length, 1)),
        ))
        return ["scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
                "--params", str(tmp_path / "params.json"), "--out", str(tmp_path / "h")]

    @pytest.mark.parametrize("mode", ["vision", "language"])
    @pytest.mark.parametrize("case", ["huge-input", "a-bar-above-1"])
    def test_non_finite_output_rejected(self, tmp_path, capsys, case, mode):
        code = main(self.write_overflow_inputs(tmp_path, case) + ["--mode", mode])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: scan output contains NaN or Inf")
        assert not (tmp_path / "h.json").exists() and not (tmp_path / "h.bin").exists()

    @pytest.mark.parametrize("case", ["exp-overflow", "huge-input"])
    def test_overflow_prints_one_error_line_outside_pytest(self, tmp_path, case):
        argv = self.write_overflow_inputs(tmp_path, case) + ["--mode", "vision"]
        assert_one_error_line_outside_pytest(argv)

    def test_deterministic_across_runs(self, tmp_path):
        self.make_chain_inputs(tmp_path, root=0)
        blobs = []
        for name in ("h1", "h2"):
            main([
                "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
                "--params", str(tmp_path / "params.json"), "--mode", "vision",
                "--out", str(tmp_path / name),
            ])
            blobs.append((tmp_path / f"{name}.bin").read_bytes())
        assert blobs[0] == blobs[1]


class TestCmdAffinity:
    def build_tree(self, tmp_path, h=6, w=8):
        two_region_image(tmp_path, h, w)
        main([
            "tree", "--input", str(tmp_path / "x.json"), "--height", str(h),
            "--width", str(w), "--out", str(tmp_path / "tree.json"),
        ])

    def test_anchor_pixel_is_255(self, tmp_path):
        self.build_tree(tmp_path)
        code = main([
            "affinity", "--tree", str(tmp_path / "tree.json"), "--from-weights",
            "--anchor", "0", "--height", "6", "--width", "8",
            "--out", str(tmp_path / "a.pgm"),
        ])
        assert code == 0
        img = io.read_pgm(tmp_path / "a.pgm")
        assert img[0, 0] == 255

    def test_two_region_contrast(self, tmp_path):
        self.build_tree(tmp_path)
        main([
            "affinity", "--tree", str(tmp_path / "tree.json"), "--from-weights",
            "--anchor", "0", "--height", "6", "--width", "8",
            "--out", str(tmp_path / "a.pgm"),
        ])
        img = io.read_pgm(tmp_path / "a.pgm").astype(float)
        left, right = img[:, :4].mean(), img[:, 4:].mean()
        assert left >= 2.0 * right

    def test_unit_transition_params_all_255(self, tmp_path):
        self.build_tree(tmp_path, 2, 2)
        # delta -> 0+ pushes a_bar -> 1; use tiny delta with params instead
        p = ContinuousScanParams(
            a=np.array([[-1e-15]]),
            b=np.ones((4, 1)),
            c_out=np.ones((4, 1)),
            d=np.zeros(1),
            delta=np.full((4, 1), 1e-15),
        )
        io.write_params(tmp_path / "p.json", p)
        main([
            "affinity", "--tree", str(tmp_path / "tree.json"), "--params",
            str(tmp_path / "p.json"), "--anchor", "3", "--height", "2",
            "--width", "2", "--out", str(tmp_path / "a.pgm"),
        ])
        np.testing.assert_array_equal(io.read_pgm(tmp_path / "a.pgm"), 255)

    def test_anchor_out_of_range(self, tmp_path, capsys):
        self.build_tree(tmp_path, 2, 2)
        code = main([
            "affinity", "--tree", str(tmp_path / "tree.json"), "--from-weights",
            "--anchor", "9", "--height", "2", "--width", "2",
            "--out", str(tmp_path / "a.pgm"),
        ])
        assert code == 2

    @pytest.mark.parametrize("flags,named", [
        (["--height", "-4", "--width", "-4"], "--height"),
        (["--height", "0", "--width", "4"], "--height"),
        (["--height", "4", "--width", "4", "--delta", "-1"], "--delta"),
        (["--height", "4", "--width", "4", "--delta", "nan"], "--delta"),
        (["--height", "4", "--width", "4", "--delta", "inf"], "--delta"),
    ])
    def test_bad_flags_named(self, tmp_path, capsys, flags, named):
        write_scan_inputs(tmp_path, length=16)
        code = main(["affinity", "--tree", str(tmp_path / "tree.json"), "--from-weights",
                     "--anchor", "0", "--out", str(tmp_path / "a.pgm"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:") and named in err

    def test_params_xor_from_weights(self, tmp_path):
        self.build_tree(tmp_path, 2, 2)
        with pytest.raises(SystemExit) as exc:
            main([
                "affinity", "--tree", str(tmp_path / "tree.json"),
                "--anchor", "0", "--height", "2", "--width", "2",
                "--out", str(tmp_path / "a.pgm"),
            ])
        assert exc.value.code == 2

    def test_params_and_from_weights_together(self, tmp_path, capsys):
        self.build_tree(tmp_path, 2, 2)
        with pytest.raises(SystemExit) as exc:
            main([
                "affinity", "--tree", str(tmp_path / "tree.json"),
                "--params", str(tmp_path / "params.json"), "--from-weights",
                "--anchor", "0", "--height", "2", "--width", "2",
                "--out", str(tmp_path / "a.pgm"),
            ])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "a.pgm").exists()


class TestCmdBench:
    def test_report_structure_and_quadratic_growth(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench", "--sizes", "64,128", "--repeat", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sizes"] == [64, 128]
        assert len(report["dp_ratios"]) == 1
        assert report["entries"][0]["naive_median_s"] is not None

    def test_sizes_timed_interleaved(self, monkeypatch):
        """Every timed call runs once untimed, then once a round in the order
        of the sizes, so that a drift in load hits every size alike; a
        repeated size keeps its own entry."""
        calls = []
        monkeypatch.setattr(bench, "tree_scan_vision_forward",
                            lambda x, p, tree: calls.append(("dp", len(x.data))))
        monkeypatch.setattr(bench, "naive_tree_scan",
                            lambda x, p, tree, roots: calls.append(("naive", len(x.data))))
        report = bench.run_benchmark([8, 5000, 8], repeat=2)
        assert calls == [("dp", 8), ("naive", 8), ("dp", 5000), ("dp", 8), ("naive", 8)] * 3
        assert [len(e["dp_times_s"]) for e in report["entries"]] == [2, 2, 2]
        assert [e["naive_median_s"] is None for e in report["entries"]] == [False, True, False]

    def test_repeat_zero_usage_error(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "16,32", "--repeat", "0", "--out", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("entry", ["abc", "2.5", "-3", "99999999999999999999", str(2**62),
                                       str(10**15)])
    def test_bad_size_entry_named(self, tmp_path, capsys, entry):
        """A size that is no integer, or that numpy cannot index or allocate
        (10**15 tokens of 4 features is 32 PB), is named with the flag before
        any instance is built."""
        code = main(["bench", "--sizes", f"4, {entry}", "--repeat", "1",
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: bench --sizes entry '{entry}'")
        assert not (tmp_path / "r.json").exists()

    def test_single_size_usage_error(self, tmp_path):
        code = main(["bench", "--sizes", "64", "--repeat", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2

    @pytest.mark.parametrize("size", [2, 3, 7, 13])
    def test_prime_size_is_a_chain_grid(self, size):
        """A prime size has no factors but (1, L): its instance is the MST of
        a 1 x L grid, the chain rooted at token 0."""
        x, params, tree = build_instance(size)
        assert x.data.shape == (size, 1) and params.shape == (size, 1, 1)
        assert tree.parent.tolist() == [0, *range(size - 1)]


class TestCmdSelfcheck:
    def test_clean_build_exits_zero(self, selfcheck_runs):
        code, out = selfcheck_runs["clean"]
        assert code == 0
        assert "all checks passed" in out
        assert "seed=" in out
        # every group line carries the group's worst error
        groups = re.findall(r"^---- ([\w-]+): pass \((\d+) instances, worst (\S+)\)$", out, re.M)
        assert [name for name, _, _ in groups] == [
            "mst-equivalence", "scan-equivalence", "gradients-vision", "gradients-language",
            "chain-reduction", "training-chain"]
        worst = {name: float(w) for name, _, w in groups}
        assert worst["scan-equivalence"] < 1e-9
        assert max(worst[g] for g in ("gradients-vision", "gradients-language",
                                      "training-chain")) < 1e-4
        assert "language wide-grid L=16384" in out and "vision wide-grid L=16384" in out
        # every deep instance line names the band height of its walks
        deep = re.findall(r"^ok   (?:scan-equivalence|gradients-\w+) +seed=\d+ "
                          r"(chain|causal|smooth-grid|near-one|wide-grid) L=.* band height=(\d+) ",
                          out, re.M)
        assert len(deep) == 9
        for shape, height in deep:
            assert (int(height) > 1) == (shape in ("chain", "causal", "near-one"))

    def test_negative_control_exits_one(self, selfcheck_runs):
        code, out = selfcheck_runs["negative-control"]
        assert code == 1
        assert "FAIL" in out
        # the injected 1e-6 shows as the failing group's worst error
        match = re.search(r"^---- scan-equivalence: FAIL \(45 instances, worst (\S+)\)$", out, re.M)
        assert match and 1e-6 <= float(match.group(1)) < 2e-6


@pytest.mark.parametrize("command", ["selfcheck", "bench"])
def test_negative_seed_named(tmp_path, capsys, command):
    flags = ["--sizes", "4,8", "--out", str(tmp_path / "r.json")] if command == "bench" else []
    assert main([command, *flags, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {command} --seed")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("out", ["missing/r.json", "."])
def test_bench_out_checked_before_any_instance(tmp_path, capsys, monkeypatch, out):
    """An ``--out`` in a missing directory, or a directory, exits 2 with one
    line naming ``--out``, before the benchmark builds anything."""
    monkeypatch.setattr("treescan.cli.run_benchmark", lambda *a, **k: pytest.fail("benchmark ran"))
    assert main(["bench", "--sizes", "4,8", "--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: bench --out")


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
FILE_KEYS = {
    "x.json": ("shape", "dtype", "layout"),
    "tree.json": ("parent", "edge_weight_to_parent"),
    "params.json": ("a", "b", "c_out", "d", "delta"),
}
ARRAY_FILES = st.sampled_from([(name, key) for name in ("tree.json", "params.json")
                               for key in FILE_KEYS[name]])
MUTATIONS = st.one_of(
    st.tuples(st.just("replace"), st.sampled_from([(n, k) for n in FILE_KEYS for k in FILE_KEYS[n]]),
              st.sampled_from([None, "shape", "dtype", "data"]), JSON_VALUES),
    st.tuples(st.just("truncate"), ARRAY_FILES, st.integers(0, 40)),
    st.tuples(st.just("garble-header"), ARRAY_FILES, st.integers(0, 200), st.characters()),
    st.tuples(st.just("garble-payload"), ARRAY_FILES, st.integers(0, 40), st.integers(0, 255)),
    st.tuples(st.just("bytes"), st.sampled_from(["x.json", "x.bin", "tree.json", "params.json"]),
              st.binary(max_size=64)),
    st.tuples(st.just("bytes"), st.sampled_from(list(FILE_KEYS)),
              JSON_VALUES.map(lambda v: json.dumps(v).encode())),
)


def mutate(tmp_path, mutation):
    kind, target, *rest = mutation
    if kind == "bytes":
        (tmp_path / target).write_bytes(rest[0])
        return
    name, key = target
    path = tmp_path / name
    if name == "x.json":
        obj = json.loads(path.read_text())
        payloads = None
    else:
        obj, payloads = split_file(path.read_bytes())
    if kind == "replace":
        sub, value = rest
        if sub is not None and isinstance(obj[key], dict):
            obj[key][sub] = value
        else:
            obj[key] = value
    elif kind == "truncate":
        payloads[key] = payloads[key][: rest[0] % len(payloads[key])]
    elif kind == "garble-payload":
        i = rest[0] % len(payloads[key])
        payloads[key] = payloads[key][:i] + bytes([rest[1]]) + payloads[key][i + 1:]
    else:  # garble-header: one character of the header line replaced
        raw = join_file(obj, payloads)
        i = rest[0] % raw.index(b"\n")
        path.write_bytes(raw[:i] + rest[1].encode("utf-8", "surrogatepass") + raw[i + 1:])
        return
    path.write_bytes(json.dumps(obj).encode() if payloads is None else join_file(obj, payloads))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=MUTATIONS)
def test_fuzz_readers_and_cli(tmp_path, mutation):
    """Whatever the files hold, the CLI exits 0 or 2 with at most one
    ``error:`` line on stderr, and no exception escapes."""
    scan = write_scan_inputs(tmp_path)
    affinity = ["affinity", "--tree", str(tmp_path / "tree.json"), "--params",
                str(tmp_path / "params.json"), "--anchor", "1", "--height", "2",
                "--width", "2", "--out", str(tmp_path / "a.pgm")]
    mutate(tmp_path, mutation)
    for argv in (scan, affinity):
        stderr = StringIO()
        with redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 2)
        assert err == "" or (len(err.splitlines()) == 1 and err.startswith("error:"))


def _set_item(path, key, index, value):
    def edit(obj):
        obj[key][index] = value
    edit_file(path, edit)


def _scan_case(corrupt):
    """A valid ``scan`` call whose files ``corrupt`` then edits."""
    def argv(d):
        scan = write_scan_inputs(d)
        corrupt(d)
        return scan
    return argv


def _tree_case(corrupt, *flags):
    """A valid ``tree`` call on a 2x2 image, with ``flags``, whose files
    ``corrupt`` then edits."""
    def argv(d):
        write_scan_inputs(d)
        corrupt(d)
        return ["tree", "--input", str(d / "x.json"), "--height", "2", "--width", "2",
                "--out", str(d / "t.json"), *flags]
    return argv


def _bench_case(sizes):
    return lambda d: ["bench", f"--sizes={sizes}", "--repeat", "1", "--out", str(d / "r.json")]


def _affinity_case(*flags):
    """An ``affinity --from-weights`` call on a 16-vertex chain tree, with ``flags``."""
    def argv(d):
        write_scan_inputs(d, length=16)
        return ["affinity", "--tree", str(d / "tree.json"), "--from-weights", "--anchor", "0",
                "--out", str(d / "a.pgm"), *flags]
    return argv


# malformed inputs for ``python -m treescan``: each builds the argv of a call
# in a fresh directory
SUBPROCESS_CASES = {
    "non-finite-params": _scan_case(lambda d: _set_item(d / "params.json", "b", 2, np.nan)),
    "infinite-features": _tree_case(lambda d: io.write_tensor(d / "x", np.array([[1.0], [np.inf],
                                                                                 [0.0], [1.0]]))),
    "overflowing-distance": _tree_case(lambda d: io.write_tensor(d / "x", np.array(
        [[1e308], [-1e308], [0.0], [1.0]])), "--metric", "euclidean"),
    "bad-tree-field": _scan_case(lambda d: edit_file(d / "tree.json", lambda o: o.update(parent="x"))),
    "parent-out-of-range": _scan_case(lambda d: _set_item(d / "tree.json", "parent", 3, 9)),
    "truncated-payload": _scan_case(lambda d: (d / "x.bin").write_bytes((d / "x.bin").read_bytes()[:5])),
    "truncated-json": _scan_case(lambda d: (d / "params.json").write_text('{"a": {"shape": [1, ')),
    "old-base64-tree": _scan_case(lambda d: write_old_format(d / "tree.json")),
    "old-three-array-tree": _scan_case(lambda d: write_three_array_tree(d / "tree.json")),
    "selfcheck-negative-seed": lambda d: ["selfcheck", "--seed", "-1"],
    "bench-negative-seed": lambda d: [*_bench_case("4,8")(d), "--seed", "-1"],
    "bench-size-zero": _bench_case("0,4"),
    "bench-size-negative": _bench_case("-5,4"),
    # 1e16 tokens of 4 float64 features need 3.2e17 bytes, beyond the 2^57-byte
    # virtual address space of the largest 64-bit machines: it fails at once
    "bench-size-unallocatable": _bench_case("4,10000000000000000"),
    "bench-size-beyond-int64": _bench_case("4,99999999999999999999"),
    "bench-out-missing-dir": lambda d: _bench_case("4,8")(d / "missing"),
    "affinity-negative-size": _affinity_case("--height", "-4", "--width", "-4"),
    "affinity-negative-delta": _affinity_case("--height", "4", "--width", "4", "--delta", "-1"),
    "affinity-nan-delta": _affinity_case("--height", "4", "--width", "4", "--delta", "nan"),
}


@pytest.mark.parametrize("case", sorted(SUBPROCESS_CASES))
def test_malformed_inputs_outside_pytest(tmp_path, case):
    """A real ``python -m treescan`` on a malformed input exits 2 and prints
    exactly one ``error:`` line, with no numpy warning besides it."""
    argv = SUBPROCESS_CASES[case](tmp_path)
    assert_one_error_line_outside_pytest(argv)


def test_underflowing_transitions_scan_outside_pytest(tmp_path):
    """a = -1 and delta = 800 round every a_bar to exactly 0, i.e. every
    edge cut: a valid scan that exits 0 with nothing on stderr, h = b_bar * x."""
    argv = write_scan_inputs(tmp_path)
    io.write_params(tmp_path / "params.json", ContinuousScanParams(
        a=np.array([[-1.0]]), b=np.full((4, 1), 3.0), c_out=np.ones((4, 1)), d=np.zeros(1),
        delta=np.full((4, 1), 800.0),
    ))
    proc = run_python(["-m", "treescan", *argv])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    np.testing.assert_array_equal(io.read_tensor(tmp_path / "h.json").ravel(), 2400.0)
