"""Seeded slow suite: the referees run over more and larger inputs than tier-1.

    PYTHONPATH=src python -m pytest -q slow --durations=5

It sits outside tier-1's ``testpaths`` and takes under a minute.  Every
run here must pass both audits and ``assert_chain_sound``:

- seeded random posets of up to 10 elements with zero to four pattern
  kinds, once with every element cofinal and once with only the maximal
  elements, which puts comparable pairs at one rank (no benchmark
  workload sets a cofinal set, so these are the runs that exercise the
  cascade's same-rank guard);
- larger shapes (chain 16, star 24, antichain 20, random 16) with all
  four pattern kinds;
- reports written by ``blockforcing run`` must match pinned sha256
  digests and be byte-identical under two hash seeds and under
  ``python -O``;
- and the reports of every benchmark workload's ``--seed 1`` scenarios
  and of the V demo must match one pinned table digest.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

# bounded_growth is autouse: importing it applies the tier-1 growth guard here too.
from conftest import assert_chain_sound, bounded_growth, random_poset  # noqa: E402,F401

from blockforcing import Poset, Scenario, compute_ranks, load_scenario  # noqa: E402
from blockforcing import render_report, run_scenario  # noqa: E402
from blockforcing.poset import dump_poset  # noqa: E402

RESOLUTION = 10**6
# The growth guard's bound here; star 24 reaches about 13,300.
MAX_T_VALUE = 10**5
KINDS = ("zeros", "ones", "periodic", "seeded-random")


def _patterns(rng, kinds):
    """One pattern spec per kind, its parameters drawn from rng."""
    out = []
    for kind in kinds:
        if kind == "periodic":
            out.append("periodic:" + "".join(rng.choice("01") for _ in range(rng.randint(2, 4))))
        elif kind == "seeded-random":
            out.append(f"seeded-random:{rng.randrange(10)}")
        else:
            out.append(kind)
    return tuple(out)


def _random_case(seed):
    """A seeded poset of up to 10 elements and zero to four pattern kinds."""
    rng = random.Random(f"slow:{seed}")
    poset = random_poset(seed, max_elements=10, edge_chance=rng.choice((0.2, 0.4, 0.6)))
    kinds = rng.sample(KINDS, rng.randint(0, len(KINDS)))
    return poset, _patterns(rng, kinds)


def _run_sound(poset, cofinal, reals, seed):
    sc = Scenario(
        poset=poset, cofinal=cofinal, resolution=RESOLUTION, seed=seed, ground_reals=reals
    )
    run, iso, cov = run_scenario(sc)
    assert iso.ok, [
        (a, b, cell["evidence"]) for a, row in iso.cells.items() for b, cell in row.items()
        if cell["verdict"] == "undetermined"
    ]
    assert cov.ok, [e for e in cov.entries if e.misses]
    assert_chain_sound(run)


@pytest.mark.parametrize("cofinal", ["all", "maximal"])
@pytest.mark.parametrize("seed", range(60))
def test_random_posets_pass_every_referee(seed, cofinal):
    poset, reals = _random_case(seed)
    cof = poset.maximal_elements() if cofinal == "maximal" else frozenset(poset.elements)
    _run_sound(poset, cof, reals, seed)


def test_maximal_cofinal_sets_reach_same_rank_pairs():
    # The maximal-cofinal cases are only a same-rank check if enough of
    # them tie comparable elements at one rank.
    tied = 0
    for seed in range(60):
        poset, _ = _random_case(seed)
        tied += bool(compute_ranks(poset, poset.maximal_elements()).same_rank_pairs)
    assert tied >= 20, tied


def _chain(n):
    names = [f"c{i:02d}" for i in range(n)]
    return Poset(names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)])


def _star(n):
    leaves = [f"l{i:02d}" for i in range(n)]
    return Poset(leaves + ["top"], [(x, "top") for x in leaves])


def _antichain(n):
    return Poset([f"a{i:02d}" for i in range(n)])


SHAPES = {
    "chain-16": lambda: _chain(16),
    "star-24": lambda: _star(24),
    "antichain-20": lambda: _antichain(20),
    "random-16": lambda: random_poset(16, max_elements=16, edge_chance=0.3),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_larger_shapes_with_every_pattern_kind(shape):
    poset = SHAPES[shape]()
    reals = _patterns(random.Random(f"slow:{shape}"), KINDS)
    _run_sound(poset, frozenset(poset.elements), reals, seed=7)


def _scenario_files(directory, count=10):
    """Seeded scenarios with one to four patterns, written as JSON files."""
    paths = []
    for seed in range(count):
        rng = random.Random(f"slow-bytes:{seed}")
        poset = random_poset(100 + seed, max_elements=7)
        cofinal = poset.maximal_elements() if seed % 2 else None
        obj = {
            "poset": dump_poset(poset, cofinal),
            "seed": seed,
            "ground_reals": list(_patterns(rng, rng.sample(KINDS, rng.randint(1, len(KINDS))))),
        }
        path = os.path.join(directory, f"scenario-{seed}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        paths.append(path)
    return paths


# The base report of each scenario that ``_scenario_files`` writes, pinned:
# tier-1's frozen reports carry few patterns and no maximal cofinal set.
REPORT_SHA256 = {
    "scenario-0.json": "c519e770a2115979a8239a41c20f3720165063c52a8776c6ba868a72b5074319",
    "scenario-1.json": "b65cf4140299b7c8e2b73f8104950fd6fad7c0af8e0ca92de3ec08ded966a3f8",
    "scenario-2.json": "11ad8ed0bc21b2dd5e58c6b7a938435b73cd579f37d767dfd25ae6c1e0e28373",
    "scenario-3.json": "18c1c11b5854357e9bc598399af1fc8f711dd0edb668282196045d48f468437d",
    "scenario-4.json": "d267c03f8711ea6e31fb2405dccd0834e51f9ef6b9710318fc1e17443c86914c",
    "scenario-5.json": "663c4460ebb4d95976fb10cd7868a308601e94b54dfd48d085717b1bf08ca376",
    "scenario-6.json": "1c9298bece3ae9caa5354a95fab1ffb9871f369f5c395afc16e122a2b17b305a",
    "scenario-7.json": "6ffc6d37de140f6a6cf51d447eacba404fb59a8b01cf7eda786999fa3c07f498",
    "scenario-8.json": "c32311ea6c5467b2f391be7566128708850cb4695b84cbba402aa256c0992b85",
    "scenario-9.json": "29b39af3437be3e7b6970845ebe0826840f3a621557e44d911173b5f73701f7d",
}


def _report(scenario, out, hash_seed, *flags):
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.path.join(ROOT, "src")}
    cmd = [sys.executable, *flags, "-m", "blockforcing.cli", "run", scenario, "--out", out]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    with open(out, "rb") as fh:
        return fh.read()


def test_reports_identical_across_hash_seeds_and_optimize(tmp_path):
    for path in _scenario_files(str(tmp_path)):
        base = _report(path, str(tmp_path / "hash0.json"), "0")
        assert json.loads(base)["matrix_ok"], path
        assert hashlib.sha256(base).hexdigest() == REPORT_SHA256[os.path.basename(path)], path
        assert _report(path, str(tmp_path / "hash1.json"), "1") == base, path
        assert _report(path, str(tmp_path / "optimized.json"), "0", "-O") == base, path


# sha256 of the report table the test below builds.  A change to the
# benchmark's workloads re-pins it and lists the new table, line by line,
# in a record named here.
REPORT_TABLE_SHA256 = "f74968cb9f385c4709f45946931b4841758e22aceba2a5e94546818e7c9fbd2e"
REPORT_TABLE_RECORD = "BENCH_bytes_words.json"


def _workloads():
    """perfbench/workloads.py, loaded from its file without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report_digest(sc):
    return hashlib.sha256(render_report(*run_scenario(sc), sc).encode()).hexdigest()


def test_benchmark_reports_match_the_pinned_table():
    # One line "<workload> <sid> <report sha256>" per --seed 1 scenario, in
    # generation order, and the V demo's last.
    workloads = _workloads()
    table = [
        f"{name} {sid} {_report_digest(Scenario.from_json(obj))}"
        for name in workloads.WORKLOADS
        for sid, obj in workloads.scenarios(name, 1)
    ]
    demo = load_scenario(os.path.join(ROOT, "demos", "data", "v_scenario.json"))
    table.append(f"demo v_scenario {_report_digest(demo)}")
    digest = hashlib.sha256("".join(line + "\n" for line in table).encode()).hexdigest()
    if digest != REPORT_TABLE_SHA256:
        with open(os.path.join(ROOT, REPORT_TABLE_RECORD)) as fh:
            pinned = json.load(fh)["seed1_reports"]["table"]
        differ = [(got, want) for got, want in zip(table, pinned) if got != want]
        first = differ[0] if differ else (f"{len(table)} lines", f"{len(pinned)} lines")
        pytest.fail(f"table digest {digest}; first difference {first[0]!r}, pinned {first[1]!r}")
