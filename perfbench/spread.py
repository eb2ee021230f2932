"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --seeds 10 [--workloads wide deep ...]

Runs ``run.py`` once per (seed, workload), one run at a time and
interleaved across workloads, so that a drift in machine speed spreads
over every workload instead of biasing one.  For each workload and
metric it prints the median and the distance between the first and
third quartile as a share of the median (``statistics.quantiles`` with
n=4), next to a third of the metric's bound from ``BENCHMARK.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    values = {w: {} for w in args.workloads}
    failures = 0
    for seed in range(1, args.seeds + 1):
        for workload in args.workloads:
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                failures += 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print(f"\n{'workload':<9} {'metric':<16} {'median':>10} {'iqr/med':>8} {'bound/3':>8}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- wide"
            print(f"{workload:<9} {name:<16} {med:>10.4g} {spread:>8.3f} {bounds[name] / 3:>8.3f}{flag}")
    print(f"\nfailed scenarios or runs: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
