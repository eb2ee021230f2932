"""The blockforcing benchmark.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
its ``src/`` directory, never from an installed copy.  One caller, no
threads: passes run one at a time, each in a fresh child process, until
``--seconds`` have passed (and at least two passes ran).  Passes
alternate ``PYTHONHASHSEED`` between 0 and 1, and a scenario whose report
digest or output-derived counts differ between passes counts as failed.

With ``--trace 0`` every pass is untraced and the last line of standard
output carries the end-to-end metrics.  With ``--trace 1`` passes
alternate untraced and traced, and the last line carries the per-layer
metrics of the traced passes together with the tracing overhead measured
against the untraced ones.  Lines before it print every metric by name
with its unit, the output-derived counts, and the environment.

``--size tiny`` shrinks every workload for the self-test.  See
``perfbench/README.md`` for what each metric should move.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# The whole run, set-up included, has to end well inside 180 s.
DEADLINE_S = 165.0
MIN_PASSES = 2
HASH_SEEDS = ("0", "1")

END_TO_END = (
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_s", "s"),
    ("scenario_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("report_mb", "MB"),
)

# Per-layer metrics: (name, unit, where the value comes from).  "self"
# is a span's self time, "calls" a span count, "counter" a hot-call
# counter, "count" an output-derived count of the pass (a sum over its
# scenarios, or a maximum for the two maxima).  All are per pass.
PER_LAYER = (
    ("harness.build_goals_s", "s", "self", "harness.build_goals"),
    ("harness.goals", "count", "count", "harness.goals"),
    ("harness.order_audit_s", "s", "self", "harness.order_audit"),
    ("harness.order_pairs_witnessed", "count", "count", "harness.order_pairs_witnessed"),
    ("harness.coverage_audit_s", "s", "self", "harness.coverage_audit"),
    ("harness.coverage_blocks_scanned", "count", "count", "harness.coverage_blocks_scanned"),
    ("harness.load_scenario_s", "s", "self", "harness.load_scenario"),
    ("harness.render_s", "s", "self", "harness.render"),
    ("harness.run_scenario_s", "s", "self", "harness.run_scenario"),
    ("cli.overhead_s", "s", "self", "cli.main"),
    ("engine.build_generic_s", "s", "self", "engine.build_generic"),
    ("engine.steps", "count", "count", "engine.steps"),
    ("engine.goal_yield", "ratio", "yield", None),
    ("conditions.condition_of_s", "s", "self", "conditions.condition_of"),
    ("conditions.condition_of_calls", "count", "calls", "conditions.condition_of"),
    ("conditions.snapshot_values", "count", "count", "conditions.snapshot_values"),
    ("conditions.leq_check_s", "s", "self", "conditions.leq_check"),
    ("conditions.leq_check_calls", "count", "calls", "conditions.leq_check"),
    ("conditions.fresh_gaps_checked", "count", "count", "conditions.fresh_gaps_checked"),
    ("conditions.restrict_s", "s", "self", "conditions.restrict"),
    ("conditions.violations", "count", "count", "conditions.violations"),
    ("resolution.cascade_s", "s", "self", "resolution.cascade"),
    ("resolution.cascade_calls", "count", "calls", "resolution.cascade"),
    ("resolution.values_appended", "count", "count", "resolution.values_appended"),
    ("resolution.append_t_calls", "count", "counter", "resolution.append_t_calls"),
    ("resolution.max_t_value", "count", "count", "resolution.max_t_value"),
    ("resolution.cohen_bits", "count", "count", "resolution.cohen_bits"),
    ("resolution.next_block_calls", "count", "counter", "resolution.next_block_calls"),
    ("names.max_merge_depth", "count", "count", "names.max_merge_depth"),
    ("names.merge_nodes", "count", "count", "names.merge_nodes"),
    ("blocks.non_subset_witness_s", "s", "self", "blocks.non_subset_witness"),
    ("blocks.e_member_s", "s", "self", "blocks.e_member"),
    ("blocks.refines_at_s", "s", "self", "blocks.refines_at"),
    ("blocks.incseq_values", "count", "counter", "blocks.incseq_values"),
    ("patterns.bit_calls", "count", "counter", "patterns.bit_calls"),
    ("poset.compute_ranks_s", "s", "self", "poset.compute_ranks"),
    ("poset.restricted_linear_order_calls", "count", "counter", "poset.restricted_linear_order_calls"),
    ("trace.wall_s", "s", "wall", None),
    ("trace.unattributed_s", "s", "unattributed", None),
    ("trace.overhead", "ratio", "overhead", None),
    ("fail_ratio", "ratio", "fail_ratio", None),
)

# The output-derived counts printed by every run, traced or not.
EXACT_COUNTS = (
    "engine.steps",
    "resolution.values_appended",
    "resolution.max_t_value",
    "resolution.cohen_bits",
    "conditions.snapshot_values",
    "names.max_merge_depth",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description="blockforcing benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    return parser.parse_args(argv)


def _pass_in_child(args, index, traced, workdir, spans_path, timeout):
    """Run one pass in a fresh interpreter; returns its result dict."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = HASH_SEEDS[index % len(HASH_SEEDS)]
    cmd = [
        sys.executable, os.path.join(HERE, "passes.py"),
        args.workload, str(args.seed), args.size, "1" if traced else "0", workdir, spans_path or "",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"pass {index} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["hash_seed"] = env["PYTHONHASHSEED"]
    result["traced"] = traced
    return result


def run_passes(args, out_dir):
    """Passes until --seconds elapsed; in trace mode odd passes are traced."""
    started = time.perf_counter()
    results = []
    while True:
        elapsed = time.perf_counter() - started
        if len(results) >= MIN_PASSES and elapsed >= args.seconds:
            break
        longest = max((r["wall_s"] for r in results), default=0.0)
        if len(results) >= MIN_PASSES and elapsed + longest > DEADLINE_S:
            break
        index = len(results)
        traced = bool(args.trace) and index % 2 == 1
        workdir = tempfile.mkdtemp(prefix=f"pass{index}-", dir=out_dir)
        spans_path = None
        if traced:
            spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl")
        t0 = time.perf_counter()
        try:
            result = _pass_in_child(
                args, index, traced, workdir, spans_path, max(5.0, DEADLINE_S - elapsed)
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        result["wall_s"] = time.perf_counter() - t0
        results.append(result)
    return results


def mark_unrepeatable(results):
    """Fail every run of a scenario whose digest or counts vary across passes."""
    seen = {}
    for result in results:
        for entry in result["scenarios"]:
            if entry["error"] is None:
                key = (entry.get("digest"), json.dumps(entry.get("counts"), sort_keys=True))
                seen.setdefault(entry["sid"], set()).add(key)
    for result in results:
        for entry in result["scenarios"]:
            if entry["error"] is None and len(seen[entry["sid"]]) > 1:
                entry["error"] = "report digest or counts differ across passes or hash seeds"


MAXIMA = ("resolution.max_t_value", "names.max_merge_depth")


def _pass_counts(result):
    """Output-derived counts of one pass: sums, with maxima where named."""
    total = {}
    for entry in result["scenarios"]:
        for key, value in entry.get("counts", {}).items():
            if key in MAXIMA:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def end_to_end(results):
    """End-to-end metrics from the untraced passes.

    Throughput and latency percentiles are computed pass by pass, and the
    run reports its slowest pass.  The machine the bounds were set on has
    a steady speed and erratic fast spells that last about a minute: one
    antichain of 10 took 1.84-1.95 s when steady and 1.0-1.8 s in a
    spell.  The slowest pass reads the steady speed whenever any pass of
    the run sees it; over 25 s windows of a recorded series its spread
    (interquartile range over median) was 0.06, against 0.32 for the
    median of all samples, which reads how much of the run a spell took.
    """
    plain = [r for r in results if not r["traced"]]
    rates, p50s, p90s = [], [], []
    for r in plain:
        times = [e["seconds"] for e in r["scenarios"]]
        done = sum(e["error"] is None for e in r["scenarios"])
        rates.append(done / sum(times))
        p50, p90 = _percentiles(times)
        p50s.append(p50)
        p90s.append(p90)
    return {
        "scenarios_per_s": min(rates),
        "scenario_p50_s": max(p50s),
        "scenario_p90_s": max(p90s),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "report_mb": statistics.median(
            sum(e.get("report_bytes", 0) for e in r["scenarios"]) for r in plain
        )
        / 1e6,
    }, (len(plain[0]["scenarios"]), len(plain))


def _percentiles(values):
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return statistics.median(values), cuts[8]


def per_layer(results, attempted, failed):
    """Per-layer metrics: means over the traced passes, plus the overhead."""
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    n = len(traced)
    self_s, calls, counters = {}, {}, {}
    wall = unattributed = 0.0
    for r in traced:
        t = r["trace"]
        for src, dst in ((t["self_s"], self_s), (t["calls"], calls), (t["counters"], counters)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value / n
        wall += t["wall_s"] / n
        unattributed += t["unattributed_s"] / n
    counts = _pass_counts(traced[0])
    untraced_wall = statistics.median(sum(e["seconds"] for e in r["scenarios"]) for r in plain)
    derived = {
        "yield": counts.get("engine.goals_met", 0) / max(counts.get("engine.steps", 0), 1),
        "wall": wall,
        "unattributed": unattributed,
        "overhead": wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0,
        "fail_ratio": failed / attempted,
    }
    out = {}
    for name, unit, kind, key in PER_LAYER:
        if kind == "self":
            value = self_s.get(key, 0.0)
        elif kind == "calls":
            value = calls.get(key, 0)
        elif kind == "counter":
            value = counters.get(key, 0)
        elif kind == "count":
            value = counts.get(key, 0)
        else:
            value = derived[kind]
        if unit == "count":
            value = round(value)  # a mean over traced passes of identical counts
        out[name] = (value, unit)
    return out, self_s


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    head = "unknown (not a git checkout)"
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        head = ref
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_head": head,
        "hash_seeds": ",".join(HASH_SEEDS),
    }


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "blockforcing", "__init__.py")):
        print(f"error: no blockforcing sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    try:
        results = run_passes(args, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    mark_unrepeatable(results)
    attempted = sum(len(r["scenarios"]) for r in results)
    failed = sum(e["error"] is not None for r in results for e in r["scenarios"])
    env = environment()
    print(f"# blockforcing benchmark: workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace} passes={len(results)}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for r in results:
        bad = [e for e in r["scenarios"] if e["error"] is not None]
        print(f"# pass hash_seed={r['hash_seed']} traced={int(r['traced'])} "
              f"wall={r['wall_s']:.3f}s scenarios={len(r['scenarios'])} failed={len(bad)}")
        for e in bad[:5]:
            print(f"#   FAILED {e['sid']}: {e['error']}")

    e2e, (scenarios, passes) = end_to_end(results)
    print(f"# latency samples: {scenarios} scenarios per pass; the slowest of {passes} untraced passes")
    for name, unit in END_TO_END:
        print(f"metric {name} = {e2e[name]:.6g} {unit}")
    print(f"metric fail_ratio = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    first = next(r for r in results if not r["traced"])
    counts = _pass_counts(first)
    for name in EXACT_COUNTS:
        print(f"count {name} = {counts.get(name, 0)} count")

    if args.trace:
        layers, self_s = per_layer(results, attempted, failed)
        for name, (value, unit) in layers.items():
            print(f"layer {name} = {value:.6g} {unit}")
        for name in sorted(self_s):
            print(f"# span self time {name} = {self_s[name]:.6g} s")
        print(f"# traced wall {layers['trace.wall_s'][0]:.6g} s = span self times "
              f"{sum(self_s.values()):.6g} s + unattributed {layers['trace.unattributed_s'][0]:.6g} s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
