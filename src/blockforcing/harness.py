"""Scenario running: goal plans, the embedding matrix, and coverage checks.

A scenario bundles a poset, a cofinal set, comparison patterns, and a
goal plan.  Running it builds the goal list, drives the engine, then
audits the result from the outside: the derived sequences must realize
the input order exactly (subset certificates along the order, recorded
gaps plus an explicit witness against it), and the derived Cohen words
must disagree with every registered pattern inside every late block of
every maximal coordinate.  The audits only use the finite combinatorics
layer, never the engine's own bookkeeping, so they would catch it lying.
"""

import json
import os
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from itertools import product

from .blocks import BitSeq, Window, e_member, non_subset_witness, refines_at
from .engine import (
    CohenDisagreeGoal,
    DominateGoal,
    IncomparableGoal,
    LengthGoal,
    build_generic,
    goal_descriptor,
)
from .errors import InsufficientViolations, LengthTooShort, SpecError
from .names import CoordinateName, DiagonalName
from .patterns import GroundReal
from .poset import Poset, compute_ranks, dump_poset, load_poset


@dataclass(frozen=True)
class GoalPlan:
    """How many of each goal kind a scenario asks for."""

    min_t_length: int = 12
    disagreements_per_real: int = 1
    violations_per_incomparable_pair: int = 3
    dominate_pairs: int = 1

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise SpecError(f"{f.name} must be a positive integer, got {v!r}")


_SCENARIO_KEYS = {"poset", "resolution", "seed", "ground_reals", "plan", "question_variant"}
_PLAN_KEYS = {f.name for f in fields(GoalPlan)}


def _require_int(obj, key, default, minimum):
    v = obj.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < minimum:
        raise SpecError(f'"{key}" must be an integer >= {minimum}, got {v!r}')
    return v


@dataclass(frozen=True)
class Scenario:
    poset: Poset
    cofinal: frozenset
    resolution: int = 4096
    seed: int = 0
    ground_reals: tuple = ()
    plan: GoalPlan = field(default_factory=GoalPlan)
    question_variant: bool = False

    @classmethod
    def from_json(cls, obj, base_dir=None):
        if not isinstance(obj, dict):
            raise SpecError("scenario must be a JSON object")
        unknown = set(obj) - _SCENARIO_KEYS
        if unknown:
            raise SpecError(f"unknown scenario keys {sorted(unknown)}")

        raw_poset = obj.get("poset")
        if isinstance(raw_poset, str):
            path = raw_poset if base_dir is None else os.path.join(base_dir, raw_poset)
            try:
                with open(path) as fh:
                    raw_poset = json.load(fh)
            except OSError as err:
                raise SpecError(f"cannot read poset file {path!r}: {err}") from err
            except json.JSONDecodeError as err:
                raise SpecError(f"poset file {path!r} is not valid JSON: {err}") from err
        if not isinstance(raw_poset, dict):
            raise SpecError('"poset" must be an inline object or a file path')
        poset, cofinal = load_poset(raw_poset)

        resolution = _require_int(obj, "resolution", 4096, 1)
        seed = obj.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError(f'"seed" must be an integer, got {seed!r}')

        raw_reals = obj.get("ground_reals", [])
        if not isinstance(raw_reals, list) or not all(isinstance(s, str) for s in raw_reals):
            raise SpecError('"ground_reals" must be a list of pattern strings')
        for spec in raw_reals:
            GroundReal(spec)  # raises SpecError on a bad pattern

        raw_plan = obj.get("plan", {})
        if not isinstance(raw_plan, dict):
            raise SpecError('"plan" must be an object')
        unknown = set(raw_plan) - _PLAN_KEYS
        if unknown:
            raise SpecError(f"unknown plan keys {sorted(unknown)}")
        plan = GoalPlan(**raw_plan)

        variant = obj.get("question_variant", False)
        if not isinstance(variant, bool):
            raise SpecError('"question_variant" must be a boolean')

        return cls(
            poset=poset,
            cofinal=cofinal,
            resolution=resolution,
            seed=seed,
            ground_reals=tuple(raw_reals),
            plan=plan,
            question_variant=variant,
        )


def load_scenario(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as err:
        raise SpecError(f"cannot read scenario file {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise SpecError(f"scenario file {path!r} is not valid JSON: {err}") from err
    return Scenario.from_json(obj, base_dir=os.path.dirname(os.path.abspath(path)))


def build_goals(rp, reals, plan):
    """The scenario's dense sets, in the order the engine serves them.

    Domination swaps come first so their block thresholds stay small,
    lengths afterwards stretch every sequence past the swaps, and the
    separating gaps come last, landing in fully grown sequences.
    """
    elements = sorted(rp.poset.elements)
    goals = []
    for b in elements:
        for a in elements:
            if rp.ll(a, b):
                goals.extend(
                    DominateGoal(b, CoordinateName(a)) for _ in range(plan.dominate_pairs)
                )
    for real in reals:
        for b in elements:
            goals.append(DominateGoal(b, DiagonalName(real, rp.ranks[b])))
    for rank in sorted(set(rp.ranks.values())):
        for real in reals:
            goals.extend(
                CohenDisagreeGoal(rank, real, 0) for _ in range(plan.disagreements_per_real)
            )
    goals.extend(LengthGoal(a, plan.min_t_length) for a in elements)
    for a in elements:
        for b in elements:
            if a != b and not rp.poset.leq(a, b):
                goals.extend(
                    IncomparableGoal(a, b, 0)
                    for _ in range(plan.violations_per_incomparable_pair)
                )
    return tuple(goals)


@dataclass(frozen=True)
class IsomorphismReport:
    """Per-pair verdicts on whether the derived sequences realize the order."""

    cells: dict
    ok: bool
    variant_undetermined: tuple

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class CoverageEntry:
    real: str
    element: str
    rank: int
    block_threshold: int
    misses: tuple
    note: str


@dataclass(frozen=True)
class CoverageReport:
    entries: tuple
    ok: bool

    def __bool__(self):
        return self.ok


def _met_entries(run):
    return {entry.goal_index: entry for entry in run.ledger}


def _dominate_thresholds(run):
    # (elem, coordinate read) -> smallest certified block threshold
    out = {}
    met = _met_entries(run)
    for idx, goal in enumerate(run.goals):
        if not isinstance(goal, DominateGoal) or not isinstance(goal.target, CoordinateName):
            continue
        entry = met.get(idx)
        if entry is None:
            continue
        key = (goal.elem, goal.target.element)
        thr = entry.info["block_threshold"]
        out[key] = min(out.get(key, thr), thr)
    return out


def _recorded_gaps(run):
    out = {}
    met = _met_entries(run)
    for idx, goal in enumerate(run.goals):
        if not isinstance(goal, IncomparableGoal):
            continue
        entry = met.get(idx)
        if entry is None:
            continue
        out.setdefault((goal.a, goal.b), []).append(
            (entry.info["index"], tuple(entry.info["block"]))
        )
    return out


def _padded(bits, length):
    word = tuple(bits)
    if len(word) >= length:
        return word
    return word + (0,) * (length - len(word))


def _gap_is_clean(d_a, d_b, index, block):
    lo, hi = block
    if index + 1 >= len(d_b) or d_b[index] != lo or d_b[index + 1] != hi:
        return False
    i = bisect_right(d_a.values, lo)
    return i == len(d_a) or d_a[i] >= hi


def _witness_evidence(run, a, b, d_a, d_b):
    """Build and re-check an explicit separating word for the pair."""
    rp = run.rp
    limit = max(d_a.last, d_b.last)
    w = Window(0, limit)
    x = _padded(run.derived.cohen[rp.ranks[a]], limit)
    y = _padded(run.derived.cohen[rp.ranks[b]], limit)
    try:
        z = non_subset_witness(x, y, d_a, d_b, w)
    except (InsufficientViolations, LengthTooShort) as err:
        return {"witness_valid": False, "witness_note": str(err)}
    agreeing = sum(
        1
        for lo, hi in d_b.blocks()
        if all(z[j] == y[j] for j in range(lo, hi))
    )
    valid = e_member(z, x, d_a, 0, w) and agreeing >= 2
    return {"witness_valid": bool(valid), "witness_agreeing_blocks": agreeing}


def check_isomorphism(run, question_variant=False):
    """Audit every ordered pair of coordinates against the input order.

    Certification only ever runs in the expected direction, so a cell is
    either certified to match the order or left undetermined; ``ok``
    means no cell is undetermined.
    """
    rp = run.rp
    elements = sorted(rp.poset.elements)
    dom = {b: run.derived.dominating[b] for b in elements}
    thresholds = _dominate_thresholds(run)
    gaps = _recorded_gaps(run)
    cells = {}
    ok = True
    variant = []

    for a in elements:
        row = {}
        for b in elements:
            if a == b:
                row[b] = {
                    "verdict": "subset-certified",
                    "evidence": {"route": "reflexive"},
                }
                continue
            d_a, d_b = dom[a], dom[b]
            if rp.poset.lt(a, b):
                if rp.ranks[a] == rp.ranks[b]:
                    violations = refines_at(d_a, d_b, Window(0, d_b.last))
                    verdict = "subset-certified" if not violations else "undetermined"
                    evidence = {
                        "route": "same-rank-refines",
                        "violations": sorted(violations),
                    }
                    if question_variant:
                        variant.append((a, b))
                else:
                    thr = thresholds.get((b, a))
                    if thr is None:
                        verdict = "undetermined"
                        evidence = {
                            "route": "dominates",
                            "note": "no met domination goal for this pair",
                        }
                    else:
                        violations = refines_at(d_a, d_b, Window(thr, d_b.last))
                        verdict = "subset-certified" if not violations else "undetermined"
                        evidence = {
                            "route": "dominates",
                            "block_threshold": thr,
                            "violations": sorted(violations),
                        }
            else:
                recorded = gaps.get((a, b), [])
                audited = [
                    {
                        "index": index,
                        "block": list(block),
                        "clean": _gap_is_clean(d_a, d_b, index, block),
                    }
                    for index, block in recorded
                ]
                evidence = {"route": "recorded-blocks", "gaps": audited}
                if any(g["clean"] for g in audited):
                    verdict = "non-subset-certified"
                    evidence.update(_witness_evidence(run, a, b, d_a, d_b))
                else:
                    verdict = "undetermined"
                    if not recorded:
                        evidence["note"] = "no separating goal was met for this pair"
            if verdict == "undetermined":
                ok = False
            elif (verdict == "subset-certified") != rp.poset.leq(a, b):
                ok = False
            row[b] = {"verdict": verdict, "evidence": evidence}
        cells[a] = row

    return IsomorphismReport(cells=cells, ok=ok, variant_undetermined=tuple(variant))


def check_coverage(run, sc):
    """Scan late blocks of every maximal coordinate for pattern disagreements.

    A block is a miss when the Cohen word at that coordinate's rank
    agrees with the pattern throughout it.  Blocks before the recorded
    swap threshold are not judged; with no met swap goal the whole
    sequence is scanned and a note says so.
    """
    rp = run.rp
    met = _met_entries(run)
    thresholds = {}
    for idx, goal in enumerate(run.goals):
        if not isinstance(goal, DominateGoal) or not isinstance(goal.target, DiagonalName):
            continue
        entry = met.get(idx)
        if entry is None:
            continue
        key = (goal.elem, goal.target.pattern)
        thr = entry.info["block_threshold"]
        thresholds[key] = min(thresholds.get(key, thr), thr)

    entries = []
    for spec in sc.ground_reals:
        real = GroundReal(spec, sc.seed)
        for a in sorted(rp.poset.maximal_elements()):
            cohen = run.derived.cohen[rp.ranks[a]]
            d = run.derived.dominating[a]
            thr = thresholds.get((a, real))
            note = ""
            if thr is None:
                thr = 0
                note = "no met domination goal for this pattern; scanning every block"
            misses = tuple(
                n
                for n in range(thr, len(d) - 1)
                if not any(
                    cohen[j] != real.bit(j) for j in range(d[n], min(d[n + 1], len(cohen)))
                )
            )
            entries.append(
                CoverageEntry(
                    real=spec,
                    element=a,
                    rank=rp.ranks[a],
                    block_threshold=thr,
                    misses=misses,
                    note=note,
                )
            )
    return CoverageReport(tuple(entries), all(not e.misses for e in entries))


def run_scenario(sc):
    rp = compute_ranks(sc.poset, sc.cofinal)
    reals = tuple(GroundReal(spec, sc.seed) for spec in sc.ground_reals)
    goals = build_goals(rp, reals, sc.plan)
    run = build_generic(rp, goals, sc.resolution, seed=sc.seed)
    iso = check_isomorphism(run, question_variant=sc.question_variant)
    cov = check_coverage(run, sc)
    return run, iso, cov


def tiny_subset_check(x, f, g, w):
    """Exhaustively test block-membership transfer on short words.

    Enumerates every word of length max(f.last, g.last) and returns the
    ones inside the f-side set but outside the g-side set; empty means
    the transfer holds.  Bounded to length 16.
    """
    n = max(f.last, g.last)
    if n > 16:
        raise SpecError(f"exhaustive check is bounded to length 16, got {n}")
    if len(x) < n:
        raise LengthTooShort(f"reference word must cover positions below {n}")
    bad = []
    for word in product((0, 1), repeat=n):
        if e_member(word, x, f, 0, w) and not e_member(word, x, g, 0, w):
            bad.append(BitSeq(word))
    return tuple(bad)


def report_json(run, iso, cov, sc):
    """Everything an external reader needs to re-audit the run."""
    rp = run.rp
    met = _met_entries(run)
    goals = []
    for idx, goal in enumerate(run.goals):
        entry = met.get(idx)
        goals.append(
            {
                "goal": goal_descriptor(goal),
                "met_at": None if entry is None else entry.met_at,
                "info": {} if entry is None else dict(entry.info),
            }
        )
    return {
        "elements": sorted(rp.poset.elements),
        "relations": dump_poset(rp.poset)["relations"],
        "ranks": {a: rp.ranks[a] for a in sorted(rp.ranks)},
        "top_rank": rp.top_rank,
        "cofinal": sorted(rp.cofinal),
        "seed": sc.seed,
        "resolution": sc.resolution,
        "question_variant": sc.question_variant,
        "chain_length": len(run.chain),
        "goals": goals,
        "matrix": iso.cells,
        "matrix_ok": iso.ok,
        "variant_undetermined": [list(pair) for pair in iso.variant_undetermined],
        "coverage": [
            {
                "real": e.real,
                "element": e.element,
                "rank": e.rank,
                "block_threshold": e.block_threshold,
                "misses": list(e.misses),
                "note": e.note,
            }
            for e in cov.entries
        ],
        "coverage_ok": cov.ok,
        "derived": {
            "cohen": {str(r): BitSeq(bits).to01() for r, bits in sorted(run.derived.cohen.items())},
            "dominating": {b: list(t) for b, t in sorted(run.derived.dominating.items())},
        },
    }


def render_report(run, iso, cov, sc):
    return json.dumps(report_json(run, iso, cov, sc), sort_keys=True, indent=2) + "\n"
