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
- and reports written by ``blockforcing run`` must be byte-identical
  under two hash seeds and under ``python -O``.
"""

import json
import os
import random
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from conftest import assert_chain_sound, random_poset  # noqa: E402

from blockforcing import Poset, Scenario, compute_ranks, run_scenario  # noqa: E402
from blockforcing.poset import dump_poset  # noqa: E402
from blockforcing.resolution import Workspace  # noqa: E402

RESOLUTION = 10**6
KINDS = ("zeros", "ones", "periodic", "seeded-random")
# Growth is polynomial: no run here writes a t-value above about 13,300
# (star 24).  A run that grows past this bound fails at once rather than
# filling memory first.
MAX_T_VALUE = 10**5


@pytest.fixture(autouse=True)
def bounded_growth(monkeypatch):
    append = Workspace.append_t

    def checked(self, b, value):
        if value > MAX_T_VALUE:
            pytest.fail(f"t at {b!r} reached {value}, past the growth bound {MAX_T_VALUE}")
        append(self, b, value)

    monkeypatch.setattr(Workspace, "append_t", checked)


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
        assert _report(path, str(tmp_path / "hash1.json"), "1") == base, path
        assert _report(path, str(tmp_path / "optimized.json"), "0", "-O") == base, path
