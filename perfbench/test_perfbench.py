"""Tests of the benchmark itself, on tiny instances of every workload.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import self_times  # noqa: E402
from treescan import scan  # noqa: E402

TINY = {
    "cli-grid": lambda: workloads.CliGrid(side=8),
    "grid-train": lambda: workloads.GridTrain(side=6, channels=4, states=2),
    "causal-train": lambda: workloads.CausalTrain(tokens=40, channels=3, states=2),
}


def perturb_forward(monkeypatch, wl) -> None:
    """Shift the forward scan's hidden states by 1e-6, as selfcheck's negative control does."""
    name = {"scan.vision_forward": "tree_scan_vision_forward",
            "scan.language_forward": "tree_scan_language_forward"}[wl.forward_span]
    kernel = getattr(scan, name)

    def shifted(*args):
        out = kernel(*args)
        if isinstance(out, tuple):
            return (out[0] + 1e-6,) + out[1:]
        return out + 1e-6

    monkeypatch.setattr(scan, name, shifted)


def make_run(wl, tmp_path, trace=False) -> run.Run:
    return run.Run(wl, seed=7, seconds=0.3, trace=trace, workdir=tmp_path)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_and_reports_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "COLD_SETUPS", 1)  # fresh interpreters would set up the full-size workload
    args = SimpleNamespace(seed=7, seconds=0.3, trace=trace, setup_only=False)
    result, metrics = run.run_one(TINY[name](), args, import_s=0.0)
    assert result.problems == []
    assert result.attempted >= 1 and result.failed == 0
    assert set(metrics) == set(run.PER_LAYER if trace else run.END_TO_END)
    assert all(np.isfinite(value) for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_kernel_perturbed_after_setup_counts_failed_steps(name, tmp_path, monkeypatch):
    r = make_run(TINY[name](), tmp_path)
    r.setup()
    assert r.verify()
    perturb_forward(monkeypatch, r.wl)
    r.measure()
    assert r.attempted >= 1 and r.failed == r.attempted


@pytest.mark.parametrize("name", sorted(TINY))
def test_kernel_perturbed_from_the_start_fails_verification(name, tmp_path, monkeypatch):
    perturb_forward(monkeypatch, TINY[name]())
    r = make_run(TINY[name](), tmp_path)
    r.setup()
    assert not r.verify()
    assert r.failed == r.attempted == workloads.POOL_SIZE
    assert any("naive_tree_scan" in p for p in r.problems)


def test_tree_shape_counts_repeat_for_a_seed(tmp_path):
    first, second = (make_run(TINY["grid-train"](), tmp_path, trace=True) for _ in range(2))
    counts = []
    for r in (first, second):
        r.setup()
        assert r.verify()
        r.measure()
        m = r.per_layer()
        counts.append({k: m[k] for k in ("mst.depth", "mst.max_fanout", "lattice.edges")})
    assert counts[0] == counts[1]


def test_cold_setup_runs_in_a_fresh_interpreter():
    assert 0 < run.cold_setup_s("causal-train", seed=1) < 60


def test_self_time_subtracts_what_children_cover():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 3.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 6.0},
        {"id": 3, "parent": 1, "start": 1.5, "end": 2.0},
    ]
    assert self_times(spans) == {0: 7.0, 1: 1.5, 2: 1.0, 3: 0.5}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
