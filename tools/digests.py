"""Digests of every pipeline output, to show that a refactor changes no byte.

Run from the root of a checkout, once with each source tree on PYTHONPATH,
and compare the two outputs line by line:

    PYTHONPATH=src python3 tools/digests.py > new.txt
    PYTHONPATH=../other-checkout/src python3 tools/digests.py > old.txt
    diff old.txt new.txt

For every perfbench workload it steps each input of the pools of seeds 1-3
and prints the workload's own digest, then a blake2b digest of every array
that the step returns (and, for cli-grid, of the tree and h files that the
step writes), and digests of the integers of the step's tree's walk: its
rows, parent rows and level bounds, and every field of its band plan (the
passes' row layout first) at its own height and at heights 2 and 3.  Then
it prints digests of ``treescan selfcheck``'s stdout and of
``affinity_map`` on the first cli-grid tree at three anchors, of every
array of ``bench.build_instance`` at the sizes and seed of
``test_linear_complexity_via_bench``, and of ``root_tree``'s parents, depths
and weights on a random tree above 2^16 vertices, its edges shuffled and
flipped.  It reads only public names of ``treescan`` and of its walks and
takes no options.
"""

import os

# One BLAS thread, as the benchmark runs, before numpy is imported.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402
from treescan import affinity_map, bench, cli, root_tree  # noqa: E402

SEEDS = (1, 2, 3)
# the sizes and seed of tests/test_acceptance.py::test_linear_complexity_via_bench
BENCH_SIZES, BENCH_SEED = (256, 512, 16384, 32768, 65536), 5
# a random tree whose arc tails pass 2^16, so rooting sorts them by comparison
ROOTED_SIZE, ROOTED_SEED = 70000, 7


def blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def arrays(name: str, value):
    """(name, array) for every array in a step's output: in dicts and
    dataclasses, depth first, in their own order."""
    if isinstance(value, np.ndarray):
        yield name, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from arrays(f"{name}.{key}", item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from arrays(f"{name}.{field.name}", getattr(value, field.name))


def ints(value) -> bytes:
    """The bytes of an integer array, or of a list of them (or of lists of
    ints, or None) with each item's length before it."""
    if value is None:
        return b""
    if isinstance(value, list) and value and not isinstance(value[0], int):
        return b"".join(len(ints(item)).to_bytes(8, "little") + ints(item) for item in value)
    return np.asarray(value, dtype=np.int64).tobytes()


def walk_lines(walk):
    """Digests of a walk's integers, then of every field of its band plan at
    its own height and at heights 2 and 3."""
    yield f"walk height={walk.height} " + " ".join(
        f"{name} {blake(ints(getattr(walk, name)))}" for name in ("pos", "ppos", "bounds"))
    for height in (walk.height, 2, 3):
        plan = dataclasses.replace(walk, height=height).bands
        if plan is not None:
            yield f"bands height={height} " + " ".join(
                f"{field.name} {blake(ints(getattr(plan, field.name)))}"
                for field in dataclasses.fields(plan))


def main() -> None:
    anchored = None  # the first cli-grid tree and its scan scalars
    with tempfile.TemporaryDirectory() as tmp:
        for wl in workloads.WORKLOADS.values():
            for seed in SEEDS:
                workdir = Path(tmp) / f"{wl.name}-{seed}"
                workdir.mkdir()
                for k, inp in enumerate(wl.make_pool(np.random.default_rng(seed), workdir)):
                    out = wl.step(NullTracer(), inp)
                    print(f"{wl.name} seed={seed} input={k} digest={wl.digest(inp, out)}")
                    for name, arr in arrays("", out):
                        print(f"  {name[1:]} {arr.dtype}{list(arr.shape)} {blake(arr.tobytes())}")
                    for line in walk_lines(out["tree"].walk):
                        print(f"  {line}")
                    if wl.name == "cli-grid":
                        for path in wl.outputs(inp):
                            print(f"  file {path.name} {blake(path.read_bytes())}")
                        anchored = anchored or (out["tree"], out["disc"])
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["selfcheck"])
    print(f"selfcheck exit={code} stdout={blake(stdout.getvalue().encode())}")
    tree, disc = anchored
    for anchor in (0, tree.num_vertices // 2, tree.num_vertices - 1):
        print(f"affinity_map anchor={anchor} {blake(affinity_map(tree, disc, anchor).tobytes())}")
    for size in BENCH_SIZES:
        print(f"bench.build_instance size={size} seed={BENCH_SEED}")
        instance = dict(zip(("x", "params", "tree"), bench.build_instance(size, seed=BENCH_SEED)))
        for name, arr in arrays("", instance):
            print(f"  {name[1:]} {arr.dtype}{list(arr.shape)} {blake(arr.tobytes())}")
    n, rng = ROOTED_SIZE, np.random.default_rng(ROOTED_SEED)
    edges = np.stack([np.arange(1, n), rng.integers(0, np.arange(1, n))], axis=1)
    flip = rng.random(n - 1) < 0.5
    edges[flip] = edges[flip][:, ::-1]
    tree = root_tree(edges[rng.permutation(n - 1)], rng.random(n - 1), n, int(rng.integers(0, n)))
    print(f"root_tree size={n} seed={ROOTED_SEED} " + " ".join(
        f"{name} {blake(getattr(tree, name).tobytes())}"
        for name in ("parent", "depths", "edge_weight_to_parent")))


if __name__ == "__main__":
    main()
