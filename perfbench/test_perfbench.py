"""Tests for the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Tiny-size smoke runs of every workload, traced and untraced, must print
every metric named in BENCHMARK.json with its unit; a forced failure
must be counted rather than crash the run; and a directory holding only
the benchmark must make it exit non-zero without a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import passes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

LINE = re.compile(r"^(?:metric|layer|count) (\S+) = (\S+) (\S+)")


def _bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _printed(stdout):
    out = {}
    for line in stdout.splitlines():
        m = LINE.match(line)
        if m:
            out[m.group(1)] = m.group(3)
    return out


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _kind, _key in run.PER_LAYER
    ]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = _printed(proc.stdout)
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert printed[m["name"]] == m["unit"], m["name"]
    for m in SPEC["end_to_end"]:
        assert printed[m["name"]] == m["unit"]
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0
    assert printed["fail_ratio"] == "ratio"
    for name in run.EXACT_COUNTS:
        assert printed[name] == "count"


def test_same_seed_same_inputs_and_counts():
    assert workloads.scenarios("corpus", 5) == workloads.scenarios("corpus", 5)
    assert workloads.scenarios("corpus", 5) != workloads.scenarios("corpus", 6)
    with tempfile.TemporaryDirectory(dir=_scratch()) as workdir:
        first = passes.run_pass("deep", 4, "tiny", False, workdir)
        second = passes.run_pass("deep", 4, "tiny", True, workdir)
    for a, b in zip(first["scenarios"], second["scenarios"]):
        assert a["digest"] == b["digest"] and a["counts"] == b["counts"]


def _scratch():
    path = os.path.join(ROOT, ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path


def test_forced_failure_is_counted_not_raised():
    sid, sc = workloads.scenarios("wide", 1, "tiny")[0]
    starved = dict(sc, resolution=1)
    with tempfile.TemporaryDirectory(dir=_scratch()) as workdir:
        result = passes.run_pass("wide", 1, "tiny", False, workdir, pairs=[("starved", starved), (sid, sc)])
    result.update(traced=False, hash_seed="0")
    errors = {e["sid"]: e["error"] for e in result["scenarios"]}
    assert errors["starved"].startswith("ResolutionExhausted")
    assert errors[sid] is None
    e2e, samples = run.end_to_end([result])
    assert samples == (2, 1) and e2e["scenarios_per_s"] > 0


def test_unrepeatable_digest_is_a_failure():
    results = [
        {"scenarios": [{"sid": "x", "error": None, "digest": "a", "counts": {}}]},
        {"scenarios": [{"sid": "x", "error": None, "digest": "b", "counts": {}}]},
    ]
    run.mark_unrepeatable(results)
    assert all(r["scenarios"][0]["error"] for r in results)


def test_exits_nonzero_without_sources():
    bare = tempfile.mkdtemp(prefix="bare-", dir=_scratch())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "wide", "--seed", "1",
                      "--seconds", "1", "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare)
