"""Scenario running: goal plans, the embedding matrix, and coverage checks.

A scenario bundles a poset, a cofinal set, comparison patterns, and a
goal plan.  Running it builds the goal list, drives the engine, then
audits the result from the outside: the derived sequences must realize
the input order exactly (subset certificates along the order, recorded
gaps plus an explicit witness against it), and the derived Cohen words
must disagree with every registered pattern inside every late block of
every maximal coordinate.  The audits take the engine's ledger (its
domination thresholds and recorded gaps) as claims only, and re-check
each one with the finite combinatorics layer, so they would catch the
engine lying.  The order audit compares whole blocks as tuple slices.
A separated cell needs a clean recorded gap and a witness word that
re-checks (``witness_valid: false`` leaves it undetermined): the word
must disagree with x in every judged block of t_a and copy y on two
blocks of t_b.  Each rank's Cohen word is padded once, for every witness.
"""

import json
import os
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
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
from .errors import CannotAdvance, InsufficientViolations, LengthTooShort
from .errors import ResolutionExhausted, SpecError
from .names import CoordinateName, DiagonalName
from .patterns import GroundReal
from .poset import Poset, compute_ranks, dump_poset, load_poset
from .resolution import _MAX_NAME_DEPTH


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
            raw_poset = read_json(path, "poset file")
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


def read_json(path, what):
    """The parsed JSON file at path; failing to read or parse it is a SpecError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise SpecError(f"cannot read {what} {path!r}: {err}") from err
    except (ValueError, RecursionError) as err:  # bad UTF-8 or JSON, or nesting too deep
        raise SpecError(f"{what} {path!r} is not valid JSON: {err}") from err


def load_scenario(path):
    obj = read_json(path, "scenario file")
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


def _paid_goal_count(rp, reals, plan):
    """How many goals ``build_goals`` makes that cost a step each, counted
    without building them.

    Every goal but a length goal is met by exactly one step, so a budget
    below this count cannot be met whatever the engine does.  The terms
    follow ``build_goals``: dominations by a coordinate below in both order
    and rank, dominations by a pattern, Cohen disagreements, separations.
    """
    n = len(rp.poset.elements)
    pairs = rp.poset.pairs
    strictly_below = sum(rp.ranks[a] < rp.ranks[b] for a, b in pairs)
    ranks = len(set(rp.ranks.values()))
    return (
        strictly_below * plan.dominate_pairs
        + len(reals) * n
        + ranks * len(reals) * plan.disagreements_per_real
        + (n * (n - 1) - len(pairs)) * plan.violations_per_incomparable_pair
    )


@dataclass(frozen=True)
class IsomorphismReport:
    """Per-pair verdicts on whether the derived sequences realize the order."""

    cells: dict
    ok: bool
    variant_undetermined: tuple


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


def _ledger_evidence(run):
    """The met goals the audits re-check, read in one pass over the ledger.

    Returns the smallest block threshold per (element, coordinate read),
    the smallest per (element, pattern), and the recorded gaps per
    incomparable pair in goal order.
    """
    coord_thresholds, pattern_thresholds, gaps = {}, {}, {}
    for entry in sorted(run.ledger, key=lambda e: e.goal_index):
        goal = run.goals[entry.goal_index]
        if isinstance(goal, IncomparableGoal):
            gaps.setdefault((goal.a, goal.b), []).append(
                (entry.info["index"], tuple(entry.info["block"]))
            )
        elif isinstance(goal, DominateGoal):
            if isinstance(goal.target, CoordinateName):
                table, key = coord_thresholds, (goal.elem, goal.target.element)
            elif isinstance(goal.target, DiagonalName):
                table, key = pattern_thresholds, (goal.elem, goal.target.pattern)
            else:
                continue
            thr = entry.info["block_threshold"]
            table[key] = min(table.get(key, thr), thr)
    return coord_thresholds, pattern_thresholds, gaps


def _gap_is_clean(d_a, d_b, index, block):
    lo, hi = block
    av, bv = d_a.values, d_b.values
    if index + 1 >= len(bv) or bv[index] != lo or bv[index + 1] != hi:
        return False
    i = bisect_right(av, lo)
    return i == len(av) or av[i] >= hi


def _witness_evidence(x, y, d_a, d_b, w):
    """Build and re-check a separating word from rank words padded to cover w."""
    try:
        z = non_subset_witness(x, y, d_a, d_b, w)
    except InsufficientViolations as err:
        return {"witness_valid": False, "witness_note": str(err)}
    zv, bv = z.bits, d_b.values
    agreeing = sum(zv[lo:hi] == y[lo:hi] for lo, hi in zip(bv, bv[1:]))
    valid = e_member(z, x, d_a, 0, w) and agreeing >= 2
    return {"witness_valid": bool(valid), "witness_agreeing_blocks": agreeing}


def check_isomorphism(run, question_variant=False):
    """Audit every ordered pair of coordinates against the input order.

    Certification only ever runs in the expected direction, so a cell is
    either certified to match the order or left undetermined; ``ok``
    means no cell is undetermined.  A separated cell needs a clean gap
    and a witness that re-checks.  Witnesses share one window and each
    rank's word, padded to it once; each reads nothing past its pair's
    larger last value, so a pair judges the blocks its own window would.
    """
    rp = run.rp
    elements = sorted(rp.poset.elements)
    dom = {b: run.derived.dominating[b] for b in elements}
    thresholds, _, gaps = _ledger_evidence(run)
    limit = max((d.last for d in dom.values() if len(d)), default=0)
    w = Window(0, limit)
    words = {r: bits.bits + (0,) * (limit - len(bits)) for r, bits in run.derived.cohen.items()}
    cells = {}
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
                # Same-rank inclusions ride the cascade from block 0 on;
                # the others hold past the swap that made b dominate a.
                same_rank = rp.ranks[a] == rp.ranks[b]
                thr = 0 if same_rank else thresholds.get((b, a))
                if thr is None:
                    verdict = "undetermined"
                    evidence = {
                        "route": "dominates",
                        "note": "no met domination goal for this pair",
                    }
                else:
                    violations = refines_at(d_a, d_b, Window(thr, d_b.last))
                    verdict = "subset-certified" if not violations else "undetermined"
                    if same_rank:
                        evidence = {"route": "same-rank-refines"}
                        if question_variant:
                            variant.append((a, b))
                    else:
                        evidence = {"route": "dominates", "block_threshold": thr}
                    evidence["violations"] = sorted(violations)
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
                verdict = "undetermined"
                if any(g["clean"] for g in audited):
                    x, y = words[rp.ranks[a]], words[rp.ranks[b]]
                    evidence.update(_witness_evidence(x, y, d_a, d_b, w))
                    if evidence["witness_valid"]:
                        verdict = "non-subset-certified"
                elif not recorded:
                    evidence["note"] = "no separating goal was met for this pair"
            row[b] = {"verdict": verdict, "evidence": evidence}
        cells[a] = row

    ok = all(c["verdict"] != "undetermined" for row in cells.values() for c in row.values())
    return IsomorphismReport(cells=cells, ok=ok, variant_undetermined=tuple(variant))


def check_coverage(run, sc):
    """Scan late blocks of every maximal coordinate for pattern disagreements.

    A block is a miss when the Cohen word at that coordinate's rank
    agrees with the pattern throughout it.  Blocks before the recorded
    swap threshold are not judged; with no met swap goal the whole
    sequence is scanned and a note says so.
    """
    rp = run.rp
    _, thresholds, _ = _ledger_evidence(run)
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
    paid = _paid_goal_count(rp, reals, sc.plan)
    if paid > sc.resolution:
        raise ResolutionExhausted(
            f"the plan has {paid} goals that take a step each, "
            f"over the budget of {sc.resolution} steps"
        )
    for b in sorted(rp.poset.elements):
        merges = len(rp.below[b]) * sc.plan.dominate_pairs + len(reals)
        if merges > _MAX_NAME_DEPTH:
            raise CannotAdvance(
                f"the plan nests {merges} merges in the name at {b!r} (dominate_pairs "
                f"{sc.plan.dominate_pairs}), past the depth bound of {_MAX_NAME_DEPTH}"
            )
    goals = build_goals(rp, reals, sc.plan)
    run = build_generic(rp, goals, sc.resolution)
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
    met = {entry.goal_index: entry for entry in run.ledger}
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
        "coverage": [{**asdict(e), "misses": list(e.misses)} for e in cov.entries],
        "coverage_ok": cov.ok,
        "derived": {
            "cohen": {str(r): bits.to01() for r, bits in sorted(run.derived.cohen.items())},
            "dominating": {b: list(t) for b, t in sorted(run.derived.dominating.items())},
        },
    }


def render_report(run, iso, cov, sc):
    return json.dumps(report_json(run, iso, cov, sc), sort_keys=True, indent=2) + "\n"
