"""The end-to-end consistency suite: each check draws an instance from one
integer seed, mostly with the builders of ``scenarios``, and compares the
fast kernels against the brute-force references.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .lattice import FeatureMap, WeightedGraph
from .mst import boruvka_mst
from .oracle import (FiniteDifferenceConfig, finite_diff_gradients, kruskal_mst,
                     sequential_selective_scan)
from .scan import (
    ContinuousScanParams,
    DiscreteScanParams,
    GradBundle,
    discretization_backward,
    discretize,
    naive_tree_scan,
    output_projection,
    output_projection_backward,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
)
from .scenarios import (chain_tree, random_connected_graph, random_scan_instance, random_tree,
                        scan_equivalence_instance)

# Components below this magnitude are measured against it instead of their own
# size, i.e. they must agree within rtol * GRAD_DENOM_FLOOR = 1e-8 absolutely.
# Central differences at epsilon = 1e-5 carry ~|loss| * ulp / (2 epsilon) of
# intrinsic rounding noise (~1e-9 at desk scale), so a pure relative test on
# near-zero components would fail against an exact analytic gradient.
GRAD_DENOM_FLOOR = 1e-4


def align_chain_params(p: DiscreteScanParams) -> DiscreteScanParams:
    """Re-key sequential-scan transitions onto the chain tree's edges.

    The sequential recurrence attaches a_bar[i] to the edge between tokens
    i-1 and i (the receiving token keys it); the tree keys the same edge by
    its child, token i-1, once the chain is rooted at the last token.  Both
    views carry one multiplier per edge, offset by one slot.
    """
    a = np.empty_like(p.a_bar)
    a[:-1] = p.a_bar[1:]
    a[-1] = 1.0  # root slot, never read
    return DiscreteScanParams(a, p.b_bar)


def directional_error(loss, base, grads, rng: np.random.Generator) -> float:
    """Relative error of the gradients' inner product with one random
    direction d in the arrays ``base`` against the central difference of
    ``loss(*arrays)`` at base +- epsilon * d; scales to any L, unlike a full
    sweep."""
    eps = FiniteDifferenceConfig.epsilon
    direction = [rng.standard_normal(arr.shape) for arr in base]

    def at(sign):
        return loss(*[arr + sign * eps * d for arr, d in zip(base, direction)])

    numeric = (at(1.0) - at(-1.0)) / (2.0 * eps)
    exact = sum(float(np.sum(g * d)) for g, d in zip(grads, direction))
    return abs(numeric - exact) / max(abs(numeric), abs(exact), GRAD_DENOM_FLOOR)


def relative_gradient_error(analytic: GradBundle, reference: GradBundle) -> float:
    """Worst componentwise |a - r| / max(|a|, |r|, GRAD_DENOM_FLOOR)."""
    worst = 0.0
    for a, r in (
        (analytic.d_x, reference.d_x),
        (analytic.d_a_bar, reference.d_a_bar),
        (analytic.d_b_bar, reference.d_b_bar),
    ):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), GRAD_DENOM_FLOOR)
        worst = max(worst, float(np.max(np.abs(a - r) / denom)))
    return worst


# ---------------------------------------------------------------------------
# individual checks; each returns (ok, detail, error), error the number
# compared with the check's bound

def check_mst(seed: int, tie_levels: int = 0) -> tuple[bool, str, float]:
    """Boruvka against Kruskal on a random graph with distinct weights, or,
    with ``tie_levels`` k > 0, with weights drawn from {0, ..., k - 1}: the
    shared (weight, u, v) tie order makes the edges and weights equal."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 257))
    graph = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3 * n)),
                                   distinct=not tie_levels)
    if tie_levels:
        graph = WeightedGraph(n, graph.edges, rng.integers(0, tie_levels, graph.num_edges))
    be, bw = boruvka_mst(graph)
    ke, kw = kruskal_mst(graph)
    total_b, total_k = float(bw.sum()), float(kw.sum())
    gap = abs(total_b - total_k)
    if gap > 1e-9:
        return False, f"totals differ: {total_b} vs {total_k}", gap
    if not (np.array_equal(be, ke) and np.array_equal(bw, kw)):
        return False, "edges or weights differ", gap
    ties = f" weight levels={tie_levels}" if tie_levels else ""
    return True, f"n={n}{ties} total={total_b:.6f}", gap


def check_scan_equivalence(
    seed: int, perturb: bool = False, shape: str = "random"
) -> tuple[bool, str, float]:
    """Vision forward against ``naive_tree_scan`` (1e-9) and the two-traversal
    identity (1e-12): at every vertex of a random tree, and at the root, the
    deepest vertex and three random ones of a deep tree."""
    rng = np.random.default_rng(seed)
    x, p, tree = scan_equivalence_instance(rng, shape)
    n, c, s = p.shape
    h, xi = tree_scan_vision_forward(x, p, tree)
    if perturb:
        h = h + 1e-6
    if shape == "random":
        at = np.arange(n)
    else:
        at = np.unique([tree.root, tree.walk.order[-1], *rng.integers(0, n, 3)])
    ref = naive_tree_scan(x, p, tree, roots=at, force=True)
    diff = float(np.max(np.abs(h[at] - ref)))
    if diff >= 1e-9:
        return False, f"max abs diff {diff:.3e} >= 1e-9", diff
    nonroot = np.flatnonzero(np.arange(n) != tree.root)
    a = p.a_bar[nonroot]
    ident = np.max(
        np.abs(h[nonroot] - (a * h[tree.parent[nonroot]] + (1.0 - a * a) * xi[nonroot])),
        initial=0.0,
    )
    if ident >= 1e-12:
        return False, f"two-traversal identity violated by {ident:.3e}", ident
    return True, (f"{shape} L={n} C={c} N={s} levels={len(tree.walk.bounds) - 1} "
                  f"band height={tree.walk.height} diff={diff:.1e}"), diff


def check_gradients(seed: int, shape: str = "random",
                    causal: bool = False) -> tuple[bool, str, float]:
    """Analytic gradients of the language (``causal``) or vision scan against
    finite differences: all of them on a random tree of 1 to 20 vertices, or
    one random directional derivative on a deep instance ("causal", whose
    walks take bands, or "wide-grid")."""
    rng = np.random.default_rng(seed)
    if shape == "random":
        n = int(rng.integers(1, 21))
        c = int(rng.integers(1, 3))
        s = int(rng.integers(1, 3))
        x, p, tree = random_scan_instance(rng, n, c, s, root=n - 1 if causal else None)
    else:
        x, p, tree = scan_equivalence_instance(rng, shape)
    w = rng.standard_normal(p.shape)
    if causal:
        h = tree_scan_language_forward(x, p, tree)
        analytic = tree_scan_language_backward(x, p, tree, h, w)
    else:
        h, xi = tree_scan_vision_forward(x, p, tree)
        analytic = tree_scan_vision_backward(x, p, tree, xi, h, w)

    def forward(xa, aa, ba):
        fx, fp = FeatureMap(xa), DiscreteScanParams(aa, ba)
        if causal:
            return tree_scan_language_forward(fx, fp, tree)
        return tree_scan_vision_forward(fx, fp, tree)[0]

    tol = FiniteDifferenceConfig.relative_tolerance
    n, c, s = p.shape
    if shape == "random":
        ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, w)
        err = relative_gradient_error(analytic, ref)
        return err < tol, f"L={n} rel_err={err:.2e}", err
    err = directional_error(lambda *moved: float(np.sum(w * forward(*moved))),
                            (x.data, p.a_bar, p.b_bar),
                            (analytic.d_x, analytic.d_a_bar, analytic.d_b_bar), rng)
    return err < tol, (
        f"{shape} L={n} C={c} N={s} band height={tree.walk.height} "
        f"directional rel_err={err:.2e}"), err


def check_training_chain(seed: int, shape: str = "random",
                         causal: bool = False) -> tuple[bool, str, float]:
    """The whole training chain, discretize -> scan -> output_projection:
    one central-difference directional derivative of loss = sum(d_y * y) in
    (x, a, b, c_out, d, delta), tree held fixed, against the analytic chain
    (``output_projection_backward``, the scan backward,
    ``discretization_backward``), on a random tree of 1 to 20 vertices or
    on the "wide-grid" instance."""
    rng = np.random.default_rng(seed)
    if shape == "random":
        n = int(rng.integers(1, 21))
        tree = random_tree(rng, n, root=n - 1 if causal else None)
        c, s = (int(v) for v in rng.integers(1, 4, size=2))
    else:
        _, p, tree = scan_equivalence_instance(rng, shape)
        n, c, s = p.shape
    base = (rng.standard_normal((n, c)), -rng.uniform(0.5, 2.0, (c, s)),
            rng.standard_normal((n, s)), rng.standard_normal((n, s)), rng.standard_normal(c),
            rng.uniform(0.05, 0.5, (n, c)))
    d_y = rng.standard_normal((n, c))

    def forward(x, params):
        """(disc, h, xi), xi None in the language mode."""
        disc = discretize(params)
        if causal:
            return disc, tree_scan_language_forward(x, disc, tree), None
        return (disc, *tree_scan_vision_forward(x, disc, tree))

    def loss(xa, *moved):
        x, params = FeatureMap(xa), ContinuousScanParams(*moved)
        return float(np.sum(d_y * output_projection(forward(x, params)[1], params, x).data))

    x, params = FeatureMap(base[0]), ContinuousScanParams(*base[1:])
    disc, h, xi = forward(x, params)
    d_h, d_c_out, d_d, d_x = output_projection_backward(h, params, x, d_y)
    g = (tree_scan_language_backward(x, disc, tree, h, d_h) if causal
         else tree_scan_vision_backward(x, disc, tree, xi, h, d_h))
    d_a, d_b, d_delta = discretization_backward(params, disc, g.d_a_bar, g.d_b_bar)
    err = directional_error(loss, base, (d_x + g.d_x, d_a, d_b, d_c_out, d_d, d_delta), rng)
    mode = "language" if causal else "vision"
    return err < FiniteDifferenceConfig.relative_tolerance, (
        f"{mode} {shape} L={n} C={c} N={s} directional rel_err={err:.2e}"), err


def check_chain_reduction(seed: int) -> tuple[bool, str, float]:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 129))
    c = int(rng.integers(1, 4))
    s = int(rng.integers(1, 4))
    a_bar = rng.uniform(0.05, 0.95, size=(n, c, s))
    b_bar = rng.standard_normal((n, c, s))
    x = FeatureMap(rng.standard_normal((n, c)))
    p = DiscreteScanParams(a_bar, b_bar)
    h_seq = sequential_selective_scan(x, p)
    h_tree = tree_scan_language_forward(x, align_chain_params(p), chain_tree(n))
    diff = float(np.max(np.abs(h_seq - h_tree)))
    return diff <= 1e-12, f"L={n} diff={diff:.1e}", diff


_SUITE = (
    ("mst-equivalence", [check_mst] * 25
     + [partial(check_mst, tie_levels=k) for k in (1, 2, 4) for _ in range(4)]),
    ("scan-equivalence", [check_scan_equivalence] * 40
     + [partial(check_scan_equivalence, shape=s)
        for s in ("chain", "causal", "smooth-grid", "near-one", "wide-grid")]),
    ("gradients-vision", [check_gradients] * 8
     + [partial(check_gradients, shape=s) for s in ("causal", "wide-grid")]),
    ("gradients-language", [partial(check_gradients, causal=True)] * 8
     + [partial(check_gradients, shape=s, causal=True) for s in ("causal", "wide-grid")]),
    ("chain-reduction", [check_chain_reduction] * 12),
    ("training-chain", [partial(check_training_chain, shape=s, causal=m)
                        for s, k in (("random", 4), ("wide-grid", 1))
                        for m in (False, True) for _ in range(k)]),
)


def run_selfcheck(base_seed: int = 20240601, perturb: bool = False) -> bool:
    """Run every check group; prints one line per instance and a summary
    to stdout.

    ``perturb`` injects a deliberate error into the scan outputs (negative
    control for the harness itself).  Returns True iff everything passed.
    """
    all_ok = True
    for group, (name, checks) in enumerate(_SUITE):
        group_ok, worst = True, 0.0
        for k, fn in enumerate(checks):
            seed = base_seed + 100000 * group + k
            if name == "scan-equivalence":
                ok, detail, err = fn(seed, perturb=perturb)
            else:
                ok, detail, err = fn(seed)
            print(f"{'ok  ' if ok else 'FAIL'} {name:<20} seed={seed} {detail}")
            group_ok &= ok
            worst = max(worst, err)
        print(f"---- {name}: {'pass' if group_ok else 'FAIL'} "
              f"({len(checks)} instances, worst {worst:.1e})")
        all_ok &= group_ok
    print(f"self-check: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return all_ok
