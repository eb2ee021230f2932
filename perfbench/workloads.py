"""Seeded inputs for the four benchmark workloads.

Every workload is a list of scenarios built from the run's ``--seed``;
the same seed gives the same scenarios.  The shapes themselves (poset
structure, label order, which patterns a scenario carries) come from
fixed structure seeds, and ``--seed`` draws what does not change the
amount of work by much: the label strings and the scenario seeds (which
key the ``seeded-random`` pattern bits).  Labels are handed out in
sorted order along each
structure's index order, so every label-driven tie-break (goal order,
linear extensions) is the same for every seed.  Without that, two seeds
of the same shape did different work (the reaudit random poset's build
ranged over 3.2-5.1 s across five seeds) and run-to-run spread measured
the inputs instead of the program.

Sizes (``full``, the benchmarked size, and ``tiny``, for the self-test):

- ``wide``: three antichains of 10 (three label sets), default plan, no
  patterns.  The 2^n - 1 same-rank cascade, per-link snapshots and the
  witness audit dominate; no merge names exist, so a merge-name change
  reads no change.
- ``deep``: three chains of 8, default plan, no patterns.  One element
  per rank, so the cascade is a single append; nested merge names and
  the per-link ``leq_check`` dominate.  A cascade-schedule change reads
  no change.
- ``corpus``: 120 small scenarios run through ``blockforcing run`` on
  files written at set-up: the four fixed shapes, V with five patterns
  and seeded posets of up to six elements, each with 0-3 seeded ground
  reals.  Per-scenario fixed costs (parsing, ranks, goals, name walks,
  pattern bits, coverage, rendering) dominate.
- ``reaudit``: finished runs of a chain of 8, a random poset of 10 at
  edge chance 0.3 and seven V scenarios with five patterns (the
  corpus's patterned shape), built at set-up and then re-verified link
  by link, per coordinate, and by both audits.

Wide and deep repeat one size rather than mixing two (the sizes the
ROADMAP names are 10-11 and 8-10) so that their latency samples come
from one population: with two sizes, p50 fell between them and moved
with the noise in both.  In reaudit the seven V runs put p50 on the
middle one, and p90 falls between the chain and the random poset.
"""

import json
import os
import random

WORKLOADS = ("wide", "deep", "corpus", "reaudit")

SIZES = {
    "full": {
        "wide": (10, 10, 10),
        "deep": (8, 8, 8),
        "corpus": 120,
        "reaudit": {"chain": 8, "random": 10, "join_five": 7},
    },
    "tiny": {
        "wide": (3,),
        "deep": (3,),
        "corpus": 6,
        "reaudit": {"chain": 3, "random": 4, "join_five": 1},
    },
}

# The engine's step budget for the grown shapes; generous enough that no
# benchmarked scenario comes near it (the largest chain is under 400 links).
BIG_RESOLUTION = 10**6
FIVE_REALS = ("zeros", "ones", "periodic:01", "periodic:0110", "seeded-random:1")
RANDOM_EDGE_CHANCE = 0.3
# The reaudit random poset's structure, as in the ROADMAP's baseline table.
RANDOM_STRUCTURE_SEED = 1
# Everything else about the shapes (corpus posets, pattern counts).
SHAPE_SEED = "perfbench-shapes"


def _labels(rng, n):
    """n distinct seeded two-letter element names, in sorted order."""
    picks = sorted(rng.sample(range(26 * 26), n))
    return [chr(97 + k // 26) + chr(97 + k % 26) for k in picks]


def _poset_json(elements, relations):
    return {
        "elements": list(elements),
        "relations": [[a, b] for a, b in relations],
    }


def antichain(rng, n):
    return _poset_json(_labels(rng, n), ())


def chain(rng, n):
    names = _labels(rng, n)
    return _poset_json(names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)])


def random_poset(structure_rng, label_rng, n, edge_chance):
    """Edges follow index order, so the relation is acyclic by construction."""
    names = _labels(label_rng, n)
    relations = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if structure_rng.random() < edge_chance
    ]
    return _poset_json(names, relations)


def _ground_real(shapes):
    kind = shapes.randrange(4)
    if kind == 0:
        return "zeros"
    if kind == 1:
        return "ones"
    if kind == 2:
        return "periodic:" + "".join(shapes.choice("01") for _ in range(shapes.randint(2, 4)))
    return f"seeded-random:{shapes.randrange(10)}"


def _scenario(poset, seed, reals=(), resolution=None):
    out = {"poset": poset, "seed": seed, "ground_reals": list(reals)}
    if resolution is not None:
        out["resolution"] = resolution
    return out


_JOIN = _poset_json(["a", "b", "c"], [("a", "c"), ("b", "c")])
_FIXED_SHAPES = (
    ("singleton", _poset_json(["a"], ())),
    ("two-chain", _poset_json(["a", "b"], [("a", "b")])),
    ("two-antichain", _poset_json(["a", "b"], ())),
    ("join", _JOIN),
)


def _small_posets(rng, count):
    """Seeded small posets, up to six elements at edge chance 0.4, with 0-3
    ground reals each; shapes and pattern kinds come from the shape seed."""
    shapes = random.Random(SHAPE_SEED)
    out = []
    for k in range(count):
        poset = random_poset(shapes, rng, shapes.randint(1, 6), 0.4)
        reals = [_ground_real(shapes) for _ in range(shapes.randint(0, 3))]
        out.append((f"random-{k}", _scenario(poset, rng.randrange(1000), reals)))
    return out


def _corpus_scenarios(rng, count):
    """The fixed shapes, V with five patterns, then seeded small posets."""
    shapes = random.Random(SHAPE_SEED + ":fixed")
    out = []
    for label, poset in _FIXED_SHAPES:
        reals = [_ground_real(shapes) for _ in range(shapes.randint(0, 3))]
        out.append((label, _scenario(poset, rng.randrange(1000), reals)))
    out.append(("join-five", _scenario(_JOIN, rng.randrange(1000), FIVE_REALS)))
    out.extend(_small_posets(rng, count - len(out)))
    return out[:count]


def scenarios(workload, seed, size="full"):
    """(sid, scenario JSON) pairs for one pass of the workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "wide":
        return [
            (f"antichain-{n}-{i}", _scenario(antichain(rng, n), rng.randrange(1000), resolution=BIG_RESOLUTION))
            for i, n in enumerate(sizes)
        ]
    if workload == "deep":
        return [
            (f"chain-{n}-{i}", _scenario(chain(rng, n), rng.randrange(1000), resolution=BIG_RESOLUTION))
            for i, n in enumerate(sizes)
        ]
    if workload == "corpus":
        return _corpus_scenarios(rng, sizes)
    structure = random.Random(RANDOM_STRUCTURE_SEED)
    out = [
        (f"chain-{sizes['chain']}", _scenario(chain(rng, sizes["chain"]), rng.randrange(1000), resolution=BIG_RESOLUTION)),
        (
            f"random-{sizes['random']}",
            _scenario(
                random_poset(structure, rng, sizes["random"], RANDOM_EDGE_CHANCE),
                rng.randrange(1000),
                resolution=BIG_RESOLUTION,
            ),
        ),
    ]
    for i in range(sizes["join_five"]):
        names = _labels(rng, 3)
        v = _poset_json(names, [(names[0], names[2]), (names[1], names[2])])
        out.append((f"join-five-{i}", _scenario(v, rng.randrange(1000), FIVE_REALS)))
    return out


def write_scenarios(pairs, directory):
    """Write each scenario to ``<directory>/<sid>.json``; returns the paths."""
    paths = []
    for sid, sc in pairs:
        path = os.path.join(directory, f"{sid}.json")
        with open(path, "w") as fh:
            json.dump(sc, fh, sort_keys=True)
        paths.append(path)
    return paths
