"""End-to-end benchmark of the treescan pipeline: feature graph, Boruvka MST,
rooting, tree scan (forward, and backward when training) and file io.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, each in a fresh process

One run generates a pool of inputs from ``--seed`` and sets up (import,
pool, one warm-up step), verifies each input's first result against the
references in ``treescan.oracle`` and the CLI, then repeats pipeline steps
for ``--seconds`` seconds (default: ``run_seconds`` of ``BENCHMARK.json``),
comparing every step's output digest with the verified one. Set-up time is
the median of cold set-ups: this process's own and two more, each in a
fresh interpreter.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from spans around every call into the library (traced
and untraced steps alternate, one pool cycle each, to measure the tracing
overhead). Spans are written to ``perfbench/out/``.

Exit codes: 0 success, 1 a correctness check failed, 2 bad arguments or the
program under test (``src/treescan`` of this checkout) cannot be imported.
"""

import os

# The benchmark is one single-threaded process. numpy's OpenBLAS would start
# a thread per core, so the pin must be set before numpy is imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"
COLD_SETUPS = 3  # this process's own set-up and two in fresh interpreters

END_TO_END = {
    "tokens_per_s": "tokens/s",
    "step_s.p50": "s",
    "step_s.p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "lattice.build_graph",
    "mst.boruvka_mst",
    "mst.root_tree",
    "mst.levels",
    "scan.discretize",
    "scan.vision_forward",
    "scan.vision_backward",
    "scan.language_forward",
    "scan.language_backward",
    "scan.output_projection",
    "scan.output_projection_backward",
    "scan.discretization_backward",
    "io.read_tensor",
    "io.write_tree",
    "io.read_tree",
    "io.read_params",
    "io.write_tensor",
    "cli.tree",
    "cli.scan",
)
LAYER_COUNTS = {
    "lattice.edges": "count",
    "mst.depth": "count",
    "mst.max_fanout": "count",
    "mst.vertices_per_level": "count",
    "io.tree_json_bytes": "B",
    "scan.forward_bytes_computed": "B",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **LAYER_COUNTS,
    "scan.forward_us_per_level": "us",
    "scan.forward_gbps_computed": "GB/s",
    "trace.overhead_frac": "ratio",
}


def import_program() -> None:
    """Import treescan from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import treescan

    if SRC not in Path(treescan.__file__).resolve().parents:
        raise ImportError(f"treescan was imported from {treescan.__file__}, not from {SRC}")


def environment(args, pool_size: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_size": pool_size,
    }


class Run:
    """One workload, one seed: set-up, verification and the measured loop."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.setup_s = 0.0
        self.cold_setups: list[float] = []
        self.pool: list = []
        self.reference: list[str] = []
        self.problems: list[str] = []
        self.verify_s = 0.0
        self.step_s = {False: [], True: []}  # keyed by "traced"
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def setup(self) -> None:
        """Generate the pool and run one warm-up step."""
        t0 = time.perf_counter()
        self.pool = self.wl.make_pool(np.random.default_rng(self.seed), self.workdir)
        self.wl.step(NullTracer(), self.pool[0])
        self.setup_s = time.perf_counter() - t0

    def verify(self) -> bool:
        """Check each pool input's first result against the references and
        keep its digest; untimed."""
        t0 = time.perf_counter()
        rng = np.random.default_rng([self.seed, 1])
        for k, inp in enumerate(self.pool):
            try:
                out = self.wl.step(NullTracer(), inp)
                found = self.wl.verify(inp, out, rng)
                self.reference.append(self.wl.digest(inp, out))
            except Exception:
                found = [traceback.format_exc()]
            self.problems += [f"input {k}: {p}" for p in found]
            self.failed += bool(found)
        self.verify_s = time.perf_counter() - t0
        if self.problems:
            # Nothing is measured then; each input counts as one attempt.
            self.attempted = len(self.pool)
        return not self.problems

    def measure(self) -> None:
        """Steps for ``seconds``, and at least two pool cycles so that a
        traced run has both traced and untraced steps."""
        null = NullTracer()
        self.tracer = Tracer() if self.trace else None
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < 2 * len(self.pool) or time.perf_counter() < deadline:
            k = i % len(self.pool)
            traced = self.trace and (i // len(self.pool)) % 2 == 0
            tr = self.tracer if traced else null
            tr.step = i
            t0 = time.perf_counter()
            try:
                with tr.span("step"):
                    out = self.wl.step(tr, self.pool[k])
                dt = time.perf_counter() - t0
                tr.flush_counts()
                ok = self.wl.digest(self.pool[k], out) == self.reference[k]
                error = None if ok else "its output differs from the verified result"
            except Exception:
                dt = time.perf_counter() - t0
                error = traceback.format_exc()
            if error and not self.failed:
                print(f"step {i} (input {k}) failed: {error}", file=sys.stderr)
            self.attempted += 1
            self.failed += error is not None
            self.step_s[traced].append(dt)
            i += 1

    def end_to_end(self, cold_setups: list[float]) -> dict:
        times = self.step_s[False]
        length = self.wl.shape[0]
        return {
            "tokens_per_s": length * len(times) / sum(times),
            "step_s.p50": statistics.median(times),
            "step_s.p90": statistics.quantiles(times, n=10)[8],
            "setup_s": statistics.median(cold_setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        own = self_times(spans)
        by_step: dict[int, dict[str, float]] = {}
        counts_by_input: dict[int, dict[str, float]] = {}
        for rec in spans:
            step = by_step.setdefault(rec["step"], {})
            step[rec["name"]] = step.get(rec["name"], 0.0) + own[rec["id"]]
            counts_by_input.setdefault(rec["step"] % len(self.pool), {}).update(rec["counts"])
        steps = list(by_step.values())

        def median_of(name: str) -> float:
            return statistics.median(s.get(name, 0.0) for s in steps)

        metrics = {f"{name}_s": median_of(name) for name in LAYER_TIMES}
        # Counts repeat exactly for a given input, so the pool mean is exact too.
        for name in LAYER_COUNTS:
            metrics[name] = statistics.fmean(c.get(name, 0) for c in counts_by_input.values())
        per_level, gbps = [], []
        for rec in spans:
            if rec["name"] == self.wl.forward_span:
                t = own[rec["id"]]
                depth = counts_by_input[rec["step"] % len(self.pool)]["mst.depth"]
                per_level.append(1e6 * t / depth)
                gbps.append(rec["counts"]["scan.forward_bytes_computed"] / t / 1e9)
        metrics["scan.forward_us_per_level"] = statistics.median(per_level)
        metrics["scan.forward_gbps_computed"] = statistics.median(gbps)
        untraced = statistics.median(self.step_s[False])
        metrics["trace.overhead_frac"] = (statistics.median(self.step_s[True]) - untraced) / untraced
        return metrics


def cold_setup_s(workload_name: str, seed: int) -> float:
    """Set-up time in a fresh interpreter, as a new ``treescan`` process pays it:
    import, pool generation and one warm-up step."""
    cmd = [sys.executable, __file__, "--workload", workload_name, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_one(workload, args, import_s: float) -> tuple[Run, dict]:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = Run(workload, args.seed, args.seconds, bool(args.trace), workdir)
        run.setup()
        if args.setup_only:
            return run, {"setup_s": (import_s + run.setup_s, "s")}
        if not run.verify():
            return run, {}
        run.measure()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        run.tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
        return run, {name: (value, PER_LAYER[name]) for name, value in run.per_layer().items()}
    run.cold_setups = [import_s + run.setup_s]
    run.cold_setups += [cold_setup_s(workload.name, args.seed) for _ in range(COLD_SETUPS - 1)]
    return run, {name: (value, END_TO_END[name]) for name, value in run.end_to_end(run.cold_setups).items()}


def run_all(args) -> int:
    """Each workload in a fresh process, so that peak memory, set-up time and
    heap state are that workload's own; the final lines are merged."""
    import workloads

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: {' '.join(cmd)} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{key}": entry for key, entry in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    run_seconds = json.loads((CHECKOUT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    import workloads

    import_s = time.perf_counter() - T_START
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        _, values = run_one(wl, args, import_s)
        print(values["setup_s"][0])
        return 0

    print("env " + json.dumps(environment(args, workloads.POOL_SIZE)))
    run, values = run_one(wl, args, import_s)
    length, channels, states = wl.shape
    print(f"workload {wl.name}  L={length} C={channels} N={states} metric={wl.graph_metric}  "
          f"steps={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / max(run.attempted, 1):.4g}  "
          f"cold_setups_s={[round(t, 3) for t in run.cold_setups]} verify_s={run.verify_s:.3f}")
    for problem in run.problems:
        print(f"  FAILED CHECK {problem}")
    for name, (value, unit) in values.items():
        note = f"  (n={len(run.step_s[False])})" if name.startswith("step_s.") else ""
        print(f"  {name:<36} {value:.6g} {unit}{note}")
    correct = not run.problems and run.failed == 0
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
