"""Repeat ``run.py`` over several seeds and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Runs every workload in ``BENCHMARK.json`` once per seed, seeds 1..10, for
``run_seconds`` each, one process at a time, untraced and then traced. For
each metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (Q3 - Q1) / median,
which must stay below the metric's bound in ``BENCHMARK.json``. With ``--compare`` it also checks that every end-to-end
median is within its bound of an earlier summary's, and exits 1 if not:

    python3 perfbench/baseline.py --out perfbench/BASELINE-repeat.json --compare perfbench/BASELINE.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUNS = 10  # seeds per workload, the number of runs the benchmark's bounds are judged on


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed with exit code {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    env = json.loads(lines[0].removeprefix("env "))
    for per_run in ("seed", "trace"):
        env.pop(per_run)
    return json.loads(lines[-1])["metrics"], env


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def compare(report: dict, previous: dict, spec: dict) -> bool:
    """Print each end-to-end median against the same metric's median in an
    earlier report; True if every one differs by at most its bound."""
    agree = True
    print("\nagainst the earlier baseline (median now / median then - 1):")
    for name in report["workloads"]:
        for metric in spec["end_to_end"]:
            now = report["workloads"][name][metric["name"]]["median"]
            then = previous["workloads"][name][metric["name"]]["median"]
            change = now / then - 1
            within = abs(change) <= metric["bound"]
            agree &= within
            print(f"{name:<13} {metric['name']:<13} {then:.6g} -> {now:.6g}  {change:+.3f}  "
                  f"bound {metric['bound']}{'' if within else '  OUTSIDE'}")
    return agree


def main() -> int:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the summary as JSON here")
    parser.add_argument("--compare", help="an earlier summary whose end-to-end medians this one must match")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"runs": RUNS, "seeds": list(range(1, RUNS + 1)), "seconds": seconds, "env": None, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            samples: dict[str, list[float]] = {}
            for seed in report["seeds"]:
                metrics, report["env"] = run_once(name, seed, seconds, trace)
                for metric, entry in metrics.items():
                    samples.setdefault(metric, []).append(entry["value"])
            summary = {metric: summarise(values) for metric, values in samples.items()}
            report["workloads"].setdefault(name, {}).update(summary)
            for metric, s in summary.items():
                bound = bounds.get(metric)
                flag = "" if bound is None or s["spread"] is None or s["spread"] < bound / 3 else "  WIDE"
                print(f"{name:<13} {metric:<36} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                      f"{'' if bound is None else f'  bound {bound}'}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    if args.compare:
        return 0 if compare(report, json.loads(Path(args.compare).read_text()), spec) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
