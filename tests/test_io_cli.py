import json

import numpy as np
import pytest

from treescan import io
from treescan.cli import main
from treescan.mst import SpanningTree, root_tree
from treescan.scan import ContinuousScanParams
from treescan.selfcheck import random_tree


def rng():
    return np.random.default_rng(99)


class TestTensorFile:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_round_trip_bitwise(self, tmp_path, dtype):
        arr = rng().standard_normal((3, 4, 2)).astype(dtype)
        io.write_tensor(tmp_path / "t.json", arr)
        back = io.read_tensor(tmp_path / "t.json")
        assert back.dtype == dtype
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
        np.testing.assert_array_equal(back.bfs_order, tree.bfs_order)
        np.testing.assert_array_equal(back.edge_weight_to_parent, tree.edge_weight_to_parent)

    def test_corrupt_parent_rejected(self, tmp_path):
        tree = random_tree(rng(), 8)
        io.write_tree(tmp_path / "t.json", tree)
        obj = json.loads((tmp_path / "t.json").read_text())
        obj["parent"][obj["root"]] = (obj["root"] + 1) % 8
        (tmp_path / "t.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="parent"):
            io.read_tree(tmp_path / "t.json")

    def test_bad_bfs_order_rejected(self, tmp_path):
        tree = random_tree(rng(), 8)
        io.write_tree(tmp_path / "t.json", tree)
        obj = json.loads((tmp_path / "t.json").read_text())
        obj["bfs_order"] = list(reversed(obj["bfs_order"]))
        (tmp_path / "t.json").write_text(json.dumps(obj))
        with pytest.raises(ValueError, match="bfs_order"):
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
            outs.append((tmp_path / name).read_text())
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

    @pytest.mark.parametrize("case", ["x-rows", "tree-vertices", "3-d-input", "dfs-tree"])
    def test_rejected_inputs_exit_2(self, tmp_path, capsys, case):
        length = 4
        write_simple_params(tmp_path, length)
        x_shape = {"x-rows": (length + 1, 1), "3-d-input": (length, 1, 1)}.get(case, (length, 1))
        io.write_tensor(tmp_path / "x", np.ones(x_shape))
        if case == "dfs-tree":  # parents before children, but depth-first
            tree = SpanningTree(4, 0, np.array([0, 0, 0, 1]), np.array([0, 1, 3, 2]), np.zeros(4))
        else:
            n = length + (case == "tree-vertices")
            tree = root_tree(np.stack([np.arange(n - 1), np.arange(1, n)], axis=1),
                             np.zeros(n - 1), n, 0)
        io.write_tree(tmp_path / "tree.json", tree)
        code = main([
            "scan", "--input", str(tmp_path / "x.json"), "--tree", str(tmp_path / "tree.json"),
            "--params", str(tmp_path / "params.json"), "--mode", "vision",
            "--out", str(tmp_path / "h"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")

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

    @pytest.mark.parametrize("field,value", [("num_vertices", [3]), ("root", "0"),
                                             ("num_vertices", 2.5), ("root", None)])
    def test_malformed_tree_field_exit_2(self, tmp_path, capsys, field, value):
        self.build_tree(tmp_path, 2, 2)
        obj = json.loads((tmp_path / "tree.json").read_text())
        obj[field] = value
        (tmp_path / "tree.json").write_text(json.dumps(obj))
        code = main([
            "affinity", "--tree", str(tmp_path / "tree.json"), "--from-weights",
            "--anchor", "0", "--height", "2", "--width", "2",
            "--out", str(tmp_path / "a.pgm"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:") and field in err

    def test_params_xor_from_weights(self, tmp_path):
        self.build_tree(tmp_path, 2, 2)
        with pytest.raises(SystemExit) as exc:
            main([
                "affinity", "--tree", str(tmp_path / "tree.json"),
                "--anchor", "0", "--height", "2", "--width", "2",
                "--out", str(tmp_path / "a.pgm"),
            ])
        assert exc.value.code == 2


class TestCmdBench:
    def test_report_structure_and_quadratic_growth(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["bench", "--sizes", "64,128", "--repeat", "3", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["sizes"] == [64, 128]
        assert len(report["dp_ratios"]) == 1
        assert report["entries"][0]["naive_median_s"] is not None

    def test_repeat_zero_usage_error(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "16,32", "--repeat", "0", "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_single_size_usage_error(self, tmp_path):
        code = main(["bench", "--sizes", "64", "--repeat", "1", "--out", str(tmp_path / "r.json")])
        assert code == 2


class TestCmdSelfcheck:
    def test_clean_build_exits_zero(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "seed=" in out

    def test_negative_control_exits_one(self, capsys):
        assert main(["selfcheck", "--negative-control"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
