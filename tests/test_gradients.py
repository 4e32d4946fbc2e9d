"""Analytic backward passes against central finite differences."""

import numpy as np
import pytest

from treescan import (
    DiscreteScanParams,
    FeatureMap,
    FiniteDifferenceConfig,
    discretization_backward,
    discretize,
    finite_diff_gradients,
    output_projection,
    output_projection_backward,
    path_product,
    root_tree,
    sequential_selective_scan,
    tree_scan_language_backward,
    tree_scan_language_forward,
    tree_scan_vision_backward,
    tree_scan_vision_forward,
    walk,
)
from treescan import selfcheck
from treescan.scenarios import (chain_tree, lane_inputs, make_continuous, random_scan_instance,
                                scan_equivalence_instance)
from treescan.selfcheck import (
    align_chain_params,
    check_training_chain,
    directional_error,
    relative_gradient_error,
)

from test_scan import STRESS_TREES, broom, spider, stress_instance


def vision_backward_of(x, p, tree, d_h):
    h, xi = tree_scan_vision_forward(x, p, tree)
    return tree_scan_vision_backward(x, p, tree, xi, h, d_h)


class TestVisionBackward:
    def test_zero_upstream_gives_zero(self):
        rng = np.random.default_rng(0)
        x, p, tree = random_scan_instance(rng, 15, 2, 2)
        g = vision_backward_of(x, p, tree, np.zeros(p.shape))
        assert not g.d_x.any() and not g.d_a_bar.any() and not g.d_b_bar.any()

    def test_single_vertex_closed_form(self):
        x = FeatureMap(np.array([[2.0]]))
        p = DiscreteScanParams(np.array([[[0.7]]]), np.array([[[3.0]]]))
        d_h = np.array([[[5.0]]])
        g = vision_backward_of(x, p, chain_tree(1), d_h)
        assert g.d_x[0, 0] == 15.0  # d_h * b_bar
        assert g.d_b_bar[0, 0, 0] == 10.0  # d_h * x
        assert g.d_a_bar[0, 0, 0] == 0.0

    def test_root_transition_gradient_is_zero(self):
        rng = np.random.default_rng(1)
        x, p, tree = random_scan_instance(rng, 20, 2, 2)
        g = vision_backward_of(x, p, tree, rng.standard_normal(p.shape))
        assert np.all(g.d_a_bar[tree.root] == 0.0)

    def test_chain_single_output_matches_fd_tightly(self, chain3_vision):
        x, p, tree = chain3_vision
        d_h = np.zeros(p.shape)
        d_h[0] = 1.0
        analytic = vision_backward_of(x, p, tree, d_h)

        def forward(xa, aa, ba):
            h, _ = tree_scan_vision_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)
            return h

        ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, d_h)
        assert relative_gradient_error(analytic, ref) < 1e-6

    def test_random_instances_match_fd(self):
        rng = np.random.default_rng(2)
        cfg = FiniteDifferenceConfig()
        for _ in range(15):
            n = int(rng.integers(2, 33))
            x, p, tree = random_scan_instance(rng, n, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
            w = rng.standard_normal(p.shape)
            analytic = vision_backward_of(x, p, tree, w)

            def forward(xa, aa, ba, tree=tree):
                h, _ = tree_scan_vision_forward(
                    FeatureMap(xa), DiscreteScanParams(aa, ba), tree
                )
                return h

            ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, w)
            assert relative_gradient_error(analytic, ref) < cfg.relative_tolerance

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        x, p, tree = random_scan_instance(rng, 5, 1, 1)
        h, xi = tree_scan_vision_forward(x, p, tree)
        with pytest.raises(ValueError):
            tree_scan_vision_backward(x, p, tree, xi, h, np.zeros((4, 1, 1)))


class TestLanguageBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(4)
        n = 12
        x, p, tree = random_scan_instance(rng, n, 2, 2, root=n - 1)
        h = tree_scan_language_forward(x, p, tree)
        g = tree_scan_language_backward(x, p, tree, h, np.zeros(p.shape))
        assert not g.d_x.any() and not g.d_a_bar.any() and not g.d_b_bar.any()

    def test_root_only_upstream_is_path_product_rule(self):
        rng = np.random.default_rng(5)
        n = 18
        x, p, tree = random_scan_instance(rng, n, 2, 2, root=n - 1)
        h = tree_scan_language_forward(x, p, tree)
        d_h = np.zeros(p.shape)
        g_root = rng.standard_normal(p.shape[1:])
        d_h[n - 1] = g_root
        g = tree_scan_language_backward(x, p, tree, h, d_h)
        for j in range(n):
            s = path_product(tree, p, n - 1, j)
            np.testing.assert_allclose(
                g.d_x[j], np.sum(s * p.b_bar[j] * g_root, axis=-1), atol=1e-12
            )

    def test_chain_matches_fd_of_sequential_scan(self):
        rng = np.random.default_rng(6)
        n, c, s = 12, 2, 2
        p = DiscreteScanParams(rng.uniform(0.1, 0.9, (n, c, s)), rng.standard_normal((n, c, s)))
        x = FeatureMap(rng.standard_normal((n, c)))
        w = rng.standard_normal((n, c, s))
        tree = chain_tree(n)
        aligned = align_chain_params(p)
        h = tree_scan_language_forward(x, aligned, tree)
        analytic = tree_scan_language_backward(x, aligned, tree, h, w)

        def seq_forward(xa, aa, ba):
            return sequential_selective_scan(FeatureMap(xa), DiscreteScanParams(aa, ba))

        ref = finite_diff_gradients(seq_forward, x.data, p.a_bar, p.b_bar, w)
        # d_x / d_b_bar line up slot for slot; d_a_bar is offset by the edge
        # keying (tree slot i carries the sequential slot i+1 transition)
        np.testing.assert_allclose(analytic.d_x, ref.d_x, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(analytic.d_b_bar, ref.d_b_bar, rtol=1e-4, atol=1e-8)
        np.testing.assert_allclose(analytic.d_a_bar[:-1], ref.d_a_bar[1:], rtol=1e-4, atol=1e-8)
        assert np.all(ref.d_a_bar[0] < 1e-8)  # first sequential transition is unused

    def test_random_instances_match_fd(self):
        rng = np.random.default_rng(7)
        cfg = FiniteDifferenceConfig()
        for _ in range(15):
            n = int(rng.integers(2, 33))
            x, p, tree = random_scan_instance(
                rng, n, int(rng.integers(1, 3)), int(rng.integers(1, 3)), root=n - 1
            )
            w = rng.standard_normal(p.shape)
            h = tree_scan_language_forward(x, p, tree)
            analytic = tree_scan_language_backward(x, p, tree, h, w)

            def forward(xa, aa, ba, tree=tree):
                return tree_scan_language_forward(
                    FeatureMap(xa), DiscreteScanParams(aa, ba), tree
                )

            ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, w)
            assert relative_gradient_error(analytic, ref) < cfg.relative_tolerance

    def test_wrong_root_rejected(self):
        rng = np.random.default_rng(8)
        x, p, tree = random_scan_instance(rng, 10, 1, 1, root=0)
        with pytest.raises(ValueError, match="last token"):
            tree_scan_language_backward(x, p, tree, np.zeros(p.shape), np.zeros(p.shape))


class TestLayoutStress:
    @pytest.mark.parametrize("a_kind", ["random", "near-one"])
    @pytest.mark.parametrize("tree_name", STRESS_TREES)
    def test_backward_kernels_match_fd(self, tree_name, a_kind):
        x, p, tree = stress_instance(tree_name, a_kind)
        rng = np.random.default_rng(2)
        w = rng.standard_normal(p.shape)
        cfg = FiniteDifferenceConfig()

        def vision(xa, aa, ba):
            return tree_scan_vision_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)[0]

        def language(xa, aa, ba):
            return tree_scan_language_forward(FeatureMap(xa), DiscreteScanParams(aa, ba), tree)

        h, xi = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        cases = (
            (vision, lambda: tree_scan_vision_backward(x, p, tree, xi, h, w)),
            (language, lambda: tree_scan_language_backward(x, p, tree, h_lang, w)),
        )
        for forward, backward in cases:
            g = backward()
            if tree.num_vertices <= 64:
                ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, w)
                assert relative_gradient_error(g, ref) < cfg.relative_tolerance
            err = directional_error(lambda *moved: float(np.sum(w * forward(*moved))),
                                    (x.data, p.a_bar, p.b_bar), (g.d_x, g.d_a_bar, g.d_b_bar), rng)
            assert err < cfg.relative_tolerance
            assert np.all(g.d_a_bar[tree.root] == 0.0)
            again = backward()
            for first, second in ((g.d_x, again.d_x), (g.d_a_bar, again.d_a_bar),
                                  (g.d_b_bar, again.d_b_bar)):
                assert first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("tree_name", ["chain-20", "chain-51", "spider", "broom"])
    def test_banded_trees_match_fd(self, tree_name):
        """Every gradient of both backward passes on small trees whose walks
        take bands, against central differences: bands of 4 levels on a
        20-chain, of 7 with a one-level last band on a 51-chain, 3 level-1
        band tops on a spider, and a broom just below the banding cut."""
        tree = {"chain-20": lambda: chain_tree(20), "chain-51": lambda: chain_tree(51),
                "spider": lambda: spider(3, 6), "broom": lambda: broom(16, walk.BAND_ROWS_MAX * 16 - 1 - 16)}[
            tree_name]()
        assert tree.walk.bands is not None
        rng = np.random.default_rng(12)
        x, p = lane_inputs(rng, tree.num_vertices, 2, 1, "random")
        w = rng.standard_normal(p.shape)
        h, xi = tree_scan_vision_forward(x, p, tree)
        h_lang = tree_scan_language_forward(x, p, tree)
        cases = (
            (lambda xa, aa, ba: tree_scan_vision_forward(
                FeatureMap(xa), DiscreteScanParams(aa, ba), tree)[0],
             tree_scan_vision_backward(x, p, tree, xi, h, w)),
            (lambda xa, aa, ba: tree_scan_language_forward(
                FeatureMap(xa), DiscreteScanParams(aa, ba), tree),
             tree_scan_language_backward(x, p, tree, h_lang, w)),
        )
        for forward, g in cases:
            ref = finite_diff_gradients(forward, x.data, p.a_bar, p.b_bar, w)
            assert relative_gradient_error(g, ref) < FiniteDifferenceConfig.relative_tolerance

    @pytest.mark.parametrize("causal", [False, True], ids=["vision", "language"])
    @pytest.mark.parametrize("shape", ["chain", "causal", "near-one"])
    def test_deep_banded_directional(self, shape, causal):
        """``selfcheck.check_gradients`` on its deep instances whose walks
        take bands (a 2000-chain, a causal tree of ~2000 levels, and the
        2000-chain at a_bar = 1 - 1e-12)."""
        ok, detail, _ = selfcheck.check_gradients(11, shape=shape, causal=causal)
        assert ok, detail
        assert scan_equivalence_instance(np.random.default_rng(11), shape)[2].walk.height > 1

    @pytest.mark.parametrize("instance", ["wide-grid", "causal-2000", "L1", "L2",
                                          (1000, 64, 4), (777, 3, 1), (5000, 16, 4)],
                             ids=lambda v: v if isinstance(v, str) else "x".join(map(str, v)))
    def test_row_blocks_give_identical_gradients(self, instance, monkeypatch):
        """One row per block, 13 rows per block (a ragged last block on every
        instance here) and a single block, in the walks and in the
        elementwise tails, give the same vision-backward and
        ``output_projection_backward`` bytes as the default blocks; one
        token of h is at 1e-170, so the projection rescales it."""
        rng = np.random.default_rng(5)
        if isinstance(instance, str):
            x, p, tree = stress_instance(instance, "random")
        else:
            x, p, tree = random_scan_instance(rng, *instance)
        n, c, s = p.shape
        params = make_continuous(rng, n, c, s)
        w = rng.standard_normal(p.shape)
        d_y = rng.standard_normal((n, c))

        def outputs():
            h, xi = tree_scan_vision_forward(x, p, tree)
            g = tree_scan_vision_backward(x, p, tree, xi, h, w)
            h[n // 2] *= 1e-170
            return [a.tobytes() for a in (g.d_x, g.d_a_bar, g.d_b_bar,
                                          *output_projection_backward(h, params, x, d_y))]

        default = outputs()
        for block_bytes in (1, 13 * c * s * 8 + 5, 2**62):
            monkeypatch.setattr(walk, "ROW_BLOCK_BYTES", block_bytes)
            assert outputs() == default


class TestParameterChainRule:
    def test_discretization_backward_matches_fd(self):
        rng = np.random.default_rng(9)
        length, c, n = 5, 2, 2
        p = make_continuous(rng, length, c, n)
        d_a_bar = rng.standard_normal((length, c, n))
        d_b_bar = rng.standard_normal((length, c, n))
        disc = discretize(p)
        d_a, d_b, d_delta = discretization_backward(p, disc, d_a_bar, d_b_bar)

        def loss_of(a, b, delta):
            q = discretize(type(p)(a=a, b=b, c_out=p.c_out, d=p.d, delta=delta))
            return float(np.sum(d_a_bar * q.a_bar) + np.sum(d_b_bar * q.b_bar))

        eps = 1e-6
        for arr, grad in ((p.a, d_a), (p.b, d_b), (p.delta, d_delta)):
            fd = np.zeros_like(arr)
            flat, gflat = arr.reshape(-1), fd.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = loss_of(p.a, p.b, p.delta)
                flat[k] = orig - eps
                lo = loss_of(p.a, p.b, p.delta)
                flat[k] = orig
                gflat[k] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_output_projection_backward_matches_fd(self):
        rng = np.random.default_rng(10)
        length, c, n = 4, 2, 3
        p = make_continuous(rng, length, c, n)
        x = FeatureMap(rng.standard_normal((length, c)))
        h = rng.standard_normal((length, c, n))
        d_y = rng.standard_normal((length, c))
        d_h, d_c_out, d_d, d_x = output_projection_backward(h, p, x, d_y)

        def loss(h_arr, c_arr, d_arr, x_arr):
            q = type(p)(a=p.a, b=p.b, c_out=c_arr, d=d_arr, delta=p.delta)
            y = output_projection(h_arr, q, FeatureMap(x_arr))
            return float(np.sum(d_y * y.data))

        eps = 1e-6
        for arr, grad in ((h, d_h), (p.c_out, d_c_out), (p.d, d_d), (x.data, d_x)):
            fd = np.zeros_like(arr)
            flat, gflat = arr.reshape(-1), fd.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = loss(h, p.c_out, p.d, x.data)
                flat[k] = orig - eps
                lo = loss(h, p.c_out, p.d, x.data)
                flat[k] = orig
                gflat[k] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(grad, fd, rtol=1e-4, atol=1e-7)

    @pytest.mark.parametrize("h_shape,x_shape", [((4, 2, 1), (4, 2)), ((4, 1, 3), (4, 2)),
                                                 ((4, 2, 3), (4, 1))])
    def test_output_projection_rejects_mismatched_shapes(self, h_shape, x_shape):
        """h of shape (L, C, 1) or (L, 1, N), or x of shape (L, 1), against
        (L, C, N) params: an error, not a broadcast."""
        rng = np.random.default_rng(11)
        p = make_continuous(rng, 4, 2, 3)
        x = FeatureMap(rng.standard_normal(x_shape))
        h = rng.standard_normal(h_shape)
        with pytest.raises(ValueError, match="does not match params"):
            output_projection_backward(h, p, x, np.ones(x_shape))
        with pytest.raises(ValueError, match="does not match params"):
            output_projection(h, p, x)

    def test_discretization_backward_rejects_mismatched_disc(self):
        rng = np.random.default_rng(12)
        p = make_continuous(rng, 5, 2, 2)
        disc = DiscreteScanParams(np.full((5, 2, 1), 0.5), np.ones((5, 2, 1)))
        with pytest.raises(ValueError, match="disc shape"):
            discretization_backward(p, disc, np.ones((5, 2, 2)), np.ones((5, 2, 2)))


class TestTrainingChain:
    """``selfcheck.check_training_chain``: discretize -> scan -> projection."""

    @pytest.mark.parametrize("causal", [False, True])
    def test_passes_on_random_trees(self, causal):
        for seed in range(6):
            ok, detail, err = check_training_chain(seed, causal=causal)
            assert ok and err < FiniteDifferenceConfig().relative_tolerance, detail

    @pytest.mark.parametrize("stage,which", [
        ("output_projection_backward", 0),  # d_h
        ("output_projection_backward", 1),  # d_c_out
        ("discretization_backward", 2),  # d_delta
        ("discretization_backward", 0),  # d_a
    ])
    @pytest.mark.parametrize("causal", [False, True])
    def test_catches_a_wrong_gradient(self, monkeypatch, stage, which, causal):
        """A 1 % error in one analytic gradient of the chain fails the check."""
        exact = getattr(selfcheck, stage)

        def wrong(*args):
            out = list(exact(*args))
            out[which] = out[which] * 1.01
            return tuple(out)

        monkeypatch.setattr(selfcheck, stage, wrong)
        results = [check_training_chain(seed, causal=causal) for seed in range(4)]
        assert not all(ok for ok, _, _ in results)
