"""Wall-clock scaling: the two-pass scan is linear, the direct one quadratic.

Doubling the token count should at most double the two-pass scan time
(ratio ~2, plus noise) while the direct aggregation quadruples (~4).
Uses moderate sizes so the demo finishes in seconds; the `treescan bench`
command runs the same measurement at any size.
"""

from treescan.bench import run_benchmark

report = run_benchmark([64, 128, 256, 512], repeat=3, seed=1)

print(f"{'tokens':>8} {'two-pass (ms)':>14} {'direct (ms)':>12}")
for entry in report["entries"]:
    naive = f"{1e3 * entry['naive_median_s']:.1f}" if entry["naive_median_s"] else "-"
    print(f"{entry['size']:>8} {1e3 * entry['dp_median_s']:>14.3f} {naive:>12}")

print("\ngrowth per doubling:")
for k, (dp, nv) in enumerate(zip(report["dp_ratios"], report["naive_ratios"])):
    sizes = f"{report['sizes'][k]} -> {report['sizes'][k + 1]}"
    print(f"  {sizes:>14}: two-pass x{dp:.2f}   direct x{nv:.2f}")
