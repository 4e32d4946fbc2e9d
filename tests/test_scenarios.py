"""``treescan.scenarios``: one instance per builder pinned by its bytes, and the
documented shape of each tree.  Every other test draws its instances there,
so a change that moves a draw fails here first.  The digests were recorded
from the builders as they were before they moved into ``scenarios``."""

import dataclasses
import hashlib

import numpy as np
import pytest

from treescan import scenarios as S

PINNED = {  # name: (digest at seed 2024, build(rng))
    "random_connected_graph": ("199eaf6c6b6694da3457e9215f888eb5",
                               lambda r: S.random_connected_graph(r, 40, extra_edges=30)),
    "random_connected_graph-distinct": (
        "22395b02d902bd7ca2e95074ece28c4a",
        lambda r: S.random_connected_graph(r, 40, extra_edges=30, distinct=True)),
    "causal_graph": ("ce1f794817e6c3adc913deacb1d30354", lambda r: S.causal_graph(r, 50, m=2)),
    "random_tree": ("e775886d920391613448a228fbbe868f", lambda r: S.random_tree(r, 30)),
    "chain_tree": ("b76018f5001d14b8636d243e617ecfa6", lambda r: S.chain_tree(10)),
    "star_tree": ("ef81ff2baedf8f9e2050316e4536320b", lambda r: S.star_tree(9)),
    "causal_tree": ("e53288ade89af7a58571109c7e1f8fab", lambda r: S.causal_tree(r, 50)),
    "noise_grid": ("8ab063e83b465c4dee38df360667e3d8",
                   lambda r: S.noise_grid(r, 24, 3, "euclidean")),
    "smooth_grid_tree": ("f01b66245a27b1f8295c4c4759aa0b62",
                         lambda r: S.smooth_grid_tree(r, root_last=True)),
    **{f"lane_inputs-{kind}": (digest, lambda r, kind=kind: S.lane_inputs(r, 12, 2, 3, kind))
       for kind, digest in (("random", "17c213cb0412b0e12ce24e235d4fe1fd"),
                            ("near-one", "845d47167c7d569f77a5a699f0c71850"),
                            ("zeros", "39fd95468222777cca578932828d1bc5"),
                            ("small", "f0ce0a875b7ab9ce03d9d8041da90245"))},
    "random_scan_instance": ("20e9cb69b6d19c7a165a0e6ec16cc57b",
                             lambda r: S.random_scan_instance(r, 15, 2, 2)),
    "scan_equivalence_instance": ("2506effe68669bea82b66b842e623ed3",
                                  lambda r: S.scan_equivalence_instance(r, "wide-grid")),
    "make_continuous": ("74925f82e7cb1b31e6463feb52783eca",
                        lambda r: S.make_continuous(r, 6, 3, 2)),
}


def arrays(value):
    """Every array in ``value``, in tuples and dataclasses, depth first."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays(getattr(value, field.name))


@pytest.mark.parametrize("name", PINNED)
def test_pinned_instance(name):
    """The blake2b digest of the instance's arrays, then of the generator's
    next draw, which pins how many draws the builder took."""
    expected, build = PINNED[name]
    rng = np.random.default_rng(2024)
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays(build(rng)):
        h.update(arr.tobytes())
    h.update(np.float64(rng.random()).tobytes())
    assert h.hexdigest() == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_causal_tree_is_rooted_at_the_last_token(m):
    assert S.causal_tree(np.random.default_rng(m), 60, m).root == 59


@pytest.mark.parametrize("leaves", [1, 9, 1023])
def test_star_is_one_level_of_leaves(leaves):
    tree = S.star_tree(leaves)
    assert tree.root == 0 and [len(level) for level in tree.levels] == [1, leaves]


@pytest.mark.parametrize("n", [1, 2, 50])
def test_chain_depth_is_one_less_than_its_length(n):
    tree = S.chain_tree(n)
    assert tree.root == n - 1 == tree.depths.max() == len(tree.levels) - 1
