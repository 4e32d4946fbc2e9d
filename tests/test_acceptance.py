"""End-to-end acceptance suite.

One test per criterion, each printing a single pass/fail line (run with -s to
see them live).  Tolerances are fixed here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from treescan import (
    DiscreteScanParams,
    FeatureMap,
    FiniteDifferenceConfig,
    boruvka_mst,
    discretize,
    finite_diff_gradients,
    kruskal_mst,
    naive_tree_scan,
    sequential_selective_scan,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
)
from treescan import io as tio
from treescan.cli import main
from treescan.scan import ContinuousScanParams
from treescan.scenarios import chain_tree, random_connected_graph, random_scan_instance
from treescan.selfcheck import align_chain_params, relative_gradient_error

BASE_SEED = 777


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _biased_size(rng, low, high):
    """Mostly small sizes with a tail up to ``high`` (quadratic bias)."""
    u = rng.random()
    return int(low + np.floor((high - low) * u * u))


@pytest.fixture(scope="module")
def oracle_suite_stats():
    """Shared loop for the equivalence and identity criteria: >= 1000 random
    instances, recording the worst deviation of each kind plus wall time."""
    rng = np.random.default_rng(BASE_SEED)
    t0 = time.perf_counter()
    max_diff = 0.0
    max_identity = 0.0
    count = 0
    for k in range(1000):
        if k < 950:
            n = _biased_size(rng, 2, 64)
            c = int(rng.integers(1, 3))
            s = int(rng.integers(1, 3))
        elif k < 990:
            n = _biased_size(rng, 65, 256)
            c = int(rng.integers(1, 5))
            s = int(rng.integers(1, 5))
        else:
            n, c, s = 256, 4, 4
        x, p, tree = random_scan_instance(rng, n, c, s, a_range=(0.01, 0.99))
        h, xi = tree_scan_vision_forward(x, p, tree)
        ref = naive_tree_scan(x, p, tree)
        max_diff = max(max_diff, float(np.max(np.abs(h - ref))))
        nonroot = np.flatnonzero(np.arange(n) != tree.root)
        if nonroot.size:
            a = p.a_bar[nonroot]
            viol = np.abs(h[nonroot] - (a * h[tree.parent[nonroot]] + (1.0 - a * a) * xi[nonroot]))
            max_identity = max(max_identity, float(np.max(viol)))
        count += 1
    elapsed = time.perf_counter() - t0
    return {"max_diff": max_diff, "max_identity": max_identity, "count": count, "elapsed": elapsed}


def test_oracle_equivalence_all_roots_aggregation(oracle_suite_stats):
    s = oracle_suite_stats
    ok = s["count"] >= 1000 and s["max_diff"] < 1e-9 and s["elapsed"] < 60.0
    _report(
        "oracle-equivalence",
        ok,
        f"{s['count']} instances, max abs diff {s['max_diff']:.2e} < 1e-9, {s['elapsed']:.1f}s < 60s",
    )


def test_two_traversal_identity(oracle_suite_stats):
    s = oracle_suite_stats
    ok = s["max_identity"] < 1e-12
    _report(
        "two-traversal-identity",
        ok,
        f"worst pointwise violation {s['max_identity']:.2e} < 1e-12 over {s['count']} instances",
    )


def test_gradient_correctness_both_modes():
    rng = np.random.default_rng(BASE_SEED + 1)
    cfg = FiniteDifferenceConfig()
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for k in range(220):
        n = _biased_size(rng, 2, 64)
        c = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        language = k % 2 == 1
        root = n - 1 if language else None
        x, p, tree = random_scan_instance(rng, n, c, s, root=root)
        w = rng.standard_normal(p.shape)
        if language:
            h = tree_scan_language_forward(x, p, tree)
            analytic = tree_scan_language_backward(x, p, tree, h, w)

            def forward(xa, aa, ba, tree=tree):
                return tree_scan_language_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)

        else:
            h, xi = tree_scan_vision_forward(x, p, tree)
            analytic = tree_scan_vision_backward(x, p, tree, xi, h, w)

            def forward(xa, aa, ba, tree=tree):
                hh, _ = tree_scan_vision_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)
                return hh

        ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, w)
        worst = max(worst, relative_gradient_error(analytic, ref))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 200 and worst < cfg.relative_tolerance and elapsed < 120.0
    _report(
        "gradient-correctness",
        ok,
        f"{count} instances (both modes), worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 120s",
    )


def test_causal_chain_reduction():
    rng = np.random.default_rng(BASE_SEED + 2)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        c = int(rng.integers(1, 4))
        s = int(rng.integers(1, 4))
        p = DiscreteScanParams(
            rng.uniform(0.01, 0.99, (n, c, s)), rng.standard_normal((n, c, s))
        )
        x = FeatureMap(rng.standard_normal((n, c)))
        h_seq = sequential_selective_scan(x, p)
        # the chain tree keys each edge by its child (the earlier token); the
        # sequential baseline keys the same edge by the receiving token, so the
        # shared per-edge multipliers sit one slot apart
        h_tree = tree_scan_language_forward(x, align_chain_params(p), chain_tree(n))
        worst = max(worst, float(np.max(np.abs(h_seq - h_tree))))
    ok = worst <= 1e-12
    _report("causal-chain-reduction", ok, f"100 chains, worst diff {worst:.2e} <= 1e-12")


def test_mst_optimality():
    rng = np.random.default_rng(BASE_SEED + 3)
    count = 0
    for k in range(500):
        if k < 20:
            n = 1024
        else:
            n = _biased_size(rng, 2, 1024)
        distinct = k % 2 == 0
        if k % 25 == 7:
            g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 2 * n)))
            g.weights[:] = 1.0  # every edge ties; the shared rule must still agree
        else:
            g = random_connected_graph(
                rng, n, extra_edges=int(rng.integers(0, 2 * n)), distinct=distinct
            )
        be, bw = boruvka_mst(g)
        ke, kw = kruskal_mst(g)
        assert abs(float(bw.sum()) - float(kw.sum())) <= 1e-9, f"graph {k}: totals differ"
        assert be.tolist() == ke.tolist(), f"graph {k}: edge sets differ"
        count += 1
    _report("mst-optimality", count >= 500, f"{count} graphs up to 1024 vertices, totals and edge sets agree")


def test_linear_complexity_via_bench(tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "bench", "--sizes", "256,512,16384,32768,65536", "--repeat", "10",
        "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    dp_ratio_a = report["dp_ratios"][2]  # 16384 -> 32768
    dp_ratio_b = report["dp_ratios"][3]  # 32768 -> 65536
    naive_ratio = report["naive_ratios"][0]  # 256 -> 512
    ok = dp_ratio_a < 2.5 and dp_ratio_b < 2.5 and naive_ratio > 3.4
    _report(
        "linear-complexity",
        ok,
        f"dp ratios {dp_ratio_a:.2f}, {dp_ratio_b:.2f} < 2.5; naive ratio {naive_ratio:.2f} > 3.4",
    )


def test_affinity_two_region_contrast(tmp_path):
    h, w = 8, 8
    data = np.zeros((h * w, 2))
    for i in range(h * w):
        data[i] = [1.0, 0.0] if (i % w) < w // 2 else [0.0, 1.0]
    tio.write_tensor(tmp_path / "x", data)
    assert main([
        "tree", "--input", str(tmp_path / "x.json"), "--height", str(h),
        "--width", str(w), "--metric", "cosine", "--out", str(tmp_path / "t.json"),
    ]) == 0
    assert main([
        "affinity", "--tree", str(tmp_path / "t.json"), "--from-weights",
        "--anchor", "0", "--height", str(h), "--width", str(w),
        "--out", str(tmp_path / "a.pgm"),
    ]) == 0
    img = tio.read_pgm(tmp_path / "a.pgm").astype(float)
    inside = img[:, : w // 2].mean()
    outside = img[:, w // 2 :].mean()
    ok = inside >= 2.0 * outside and img[0, 0] == 255
    _report(
        "affinity-structure",
        ok,
        f"anchor-region mean {inside:.1f} vs opposite {outside:.1f}, factor {inside / outside:.2f} >= 2",
    )


def test_discretization_identities():
    rng = np.random.default_rng(BASE_SEED + 4)
    worst = 0.0
    for _ in range(1000):
        a = -float(rng.uniform(0.01, 5.0))
        b = float(rng.standard_normal())
        delta = float(rng.uniform(1e-4, 2.0))
        p = ContinuousScanParams(
            a=np.array([[a]]),
            b=np.array([[b]]),
            c_out=np.array([[1.0]]),
            d=np.array([0.0]),
            delta=np.array([[delta]]),
        )
        d = discretize(p)
        worst = max(worst, abs(d.a_bar[0, 0, 0] - np.exp(delta * a)))
        worst = max(worst, abs(d.b_bar[0, 0, 0] - delta * b))
    # shrinking time-scale drives the transition to identity and the input to zero
    gaps = []
    for k in range(1, 13):
        p = ContinuousScanParams(
            a=np.array([[-1.3]]),
            b=np.array([[0.7]]),
            c_out=np.array([[1.0]]),
            d=np.array([0.0]),
            delta=np.array([[10.0 ** -k]]),
        )
        d = discretize(p)
        gaps.append(abs(d.a_bar[0, 0, 0] - 1.0) + abs(d.b_bar[0, 0, 0]))
    limit_ok = all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:])) and gaps[-1] < 1e-11
    ok = worst <= 1e-12 and limit_ok
    _report(
        "discretization-identities",
        ok,
        f"1000 triples, worst dev {worst:.2e} <= 1e-12; vanishing-delta gap {gaps[-1]:.1e}",
    )


def test_selfcheck_exit_codes(selfcheck_runs):
    clean, clean_out = selfcheck_runs["clean"]
    perturbed, perturbed_out = selfcheck_runs["negative-control"]
    out = clean_out + perturbed_out
    ok = clean == 0 and perturbed == 1 and "seed=" in out
    _report("selfcheck-exit-codes", ok, f"clean exit {clean} == 0, negative control exit {perturbed} == 1")
