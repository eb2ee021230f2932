"""Scenario running: goal plans, the embedding matrix, and coverage checks.

A scenario bundles a poset, a cofinal set, comparison patterns, and a
goal plan; it checks itself however it was made and builds its patterns
once.  The plan is one list of ``(goal, times)`` runs, which the goal
list repeats and the up-front refusals sum.  Running a scenario builds
the goal list, drives the engine, then audits the result from outside:
the derived sequences must realize the input order exactly (subset
certificates along the order, recorded gaps plus an explicit witness
against it), and the derived Cohen words must disagree with every
registered pattern inside every late block of every maximal
coordinate.  The audits take the engine's ledger (its
domination thresholds and recorded gaps) as claims only, and re-check
each one with the finite combinatorics layer, so they would catch the
engine lying.  The order audit compares whole blocks as ``bytes`` slices.
A comparable cell needs at least one judged block with no violation.
A separated cell needs a clean recorded gap and a witness word that
re-checks (``witness_valid: false`` leaves it undetermined): the word
must disagree with x in every judged block of t_a and copy y on two
blocks of t_b.  Each rank's Cohen word is padded once, and every
witness is built by the public ``non_subset_witness`` from the padded
words, then re-checked block by block, over every judged block of t_a
and every block of t_b.  The report's bytes are those of
``json.dumps(obj, sort_keys=True, indent=2)``, written by a small writer
of its own.
"""

import json
import os
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, fields
from itertools import product
from json.encoder import encode_basestring_ascii

from .blocks import BitSeq, Window, e_member, non_subset_witness, refines_at
from .blocks import _judged_refine_indices, _word
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


def _is_int(value):
    # JSON true/false arrive as bool, a subclass of int; neither they nor
    # floats or numeric strings count as integers, so nothing is coerced.
    return isinstance(value, int) and not isinstance(value, bool)


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
            if not _is_int(v) or v < 1:
                raise SpecError(f"{f.name} must be a positive integer, got {v!r}")


_SCENARIO_KEYS = {"poset", "resolution", "seed", "ground_reals", "plan", "question_variant"}
_PLAN_KEYS = {f.name for f in fields(GoalPlan)}


@dataclass(frozen=True)
class Scenario:
    """A poset, its cofinal set, patterns and goal plan, checked however made."""

    poset: Poset
    cofinal: frozenset
    resolution: int = 4096
    seed: int = 0
    ground_reals: tuple = ()
    plan: GoalPlan = field(default_factory=GoalPlan)
    question_variant: bool = False
    # One GroundReal per spec in ground_reals, keyed by seed.
    reals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.poset, Poset):
            raise SpecError(f'"poset" must be a Poset, got {self.poset!r}')
        cof = self.cofinal
        # A string would read as its characters, and a list would leave the scenario unhashable.
        if not isinstance(cof, (set, frozenset, list, tuple)) or not all(
            isinstance(e, str) and e in self.poset.elements for e in cof
        ):
            raise SpecError(f'"cofinal" must be a set of elements of the poset, got {cof!r}')
        object.__setattr__(self, "cofinal", frozenset(cof))
        if not isinstance(self.plan, GoalPlan):
            raise SpecError(f'"plan" must be a GoalPlan, got {self.plan!r}')
        if not _is_int(self.resolution) or self.resolution < 1:
            raise SpecError(f'"resolution" must be an integer >= 1, got {self.resolution!r}')
        if not _is_int(self.seed):
            raise SpecError(f'"seed" must be an integer, got {self.seed!r}')
        if not isinstance(self.question_variant, bool):
            raise SpecError('"question_variant" must be a boolean')
        reals = tuple(GroundReal(spec, self.seed) for spec in self.ground_reals)
        object.__setattr__(self, "reals", reals)

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

        raw_reals = obj.get("ground_reals", [])
        if not isinstance(raw_reals, list) or not all(isinstance(s, str) for s in raw_reals):
            raise SpecError('"ground_reals" must be a list of pattern strings')

        raw_plan = obj.get("plan", {})
        if not isinstance(raw_plan, dict):
            raise SpecError('"plan" must be an object')
        unknown = set(raw_plan) - _PLAN_KEYS
        if unknown:
            raise SpecError(f"unknown plan keys {sorted(unknown)}")

        return cls(
            poset=poset,
            cofinal=cofinal,
            ground_reals=tuple(raw_reals),
            plan=GoalPlan(**raw_plan),
            **{key: obj[key] for key in ("resolution", "seed", "question_variant") if key in obj},
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


def _goal_runs(rp, reals, plan):
    """The plan's dense sets as ``(goal, times)`` runs, in serving order.

    Domination swaps come first so their block thresholds stay small,
    lengths afterwards stretch every sequence past the swaps, and the
    separating gaps come last, landing in fully grown sequences.
    """
    elements = sorted(rp.poset.elements)
    for b in elements:
        for a in sorted(rp.below[b]):
            yield DominateGoal(b, CoordinateName(a)), plan.dominate_pairs
    for real in reals:
        for b in elements:
            yield DominateGoal(b, DiagonalName(real, rp.ranks[b])), 1
    for rank in sorted(set(rp.ranks.values())):
        for real in reals:
            yield CohenDisagreeGoal(rank, real, 0), plan.disagreements_per_real
    for a in elements:
        yield LengthGoal(a, plan.min_t_length), 1
    for a in elements:
        for b in elements:
            if a != b and not rp.poset.leq(a, b):
                yield IncomparableGoal(a, b, 0), plan.violations_per_incomparable_pair


def build_goals(rp, reals, plan):
    """The scenario's goal list: each run of ``_goal_runs`` repeated in place."""
    return tuple(goal for goal, times in _goal_runs(rp, reals, plan) for _ in range(times))


def _plan_counts(rp, reals, plan):
    """``(merges, paid)`` for the goals ``build_goals`` would make, summed
    over the runs without building the repeats.

    ``merges[b]`` is the number of domination goals at b, one merge each
    in b's name.  Every goal but a length goal is met by exactly one
    step, so ``paid`` (the merges, Cohen disagreements and separations)
    is a budget below which the plan cannot be met whatever the engine does.
    """
    merges = dict.fromkeys(rp.poset.elements, 0)
    paid = 0
    for goal, times in _goal_runs(rp, reals, plan):
        if isinstance(goal, DominateGoal):
            merges[goal.elem] += times
        if not isinstance(goal, LengthGoal):
            paid += times
    return merges, paid


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
    """Build a separating word with ``non_subset_witness`` and re-check it against x and y.

    Both words are padded to cover w.  The re-checks judge every block of
    t_a and count the agreeing blocks of t_b over the built word as bytes,
    whatever type the builder handed back.
    """
    try:
        zv = _word(non_subset_witness(x, y, d_a, d_b, w))
    except InsufficientViolations as err:
        return {"witness_valid": False, "witness_note": str(err)}
    bv = d_b.values
    agreeing = sum(zv[lo:hi] == y[lo:hi] for lo, hi in zip(bv, bv[1:]))
    valid = e_member(zv, x, d_a, 0, w) and agreeing >= 2
    return {"witness_valid": bool(valid), "witness_agreeing_blocks": agreeing}


def check_isomorphism(run, question_variant=False):
    """Audit every ordered pair of coordinates against the input order.

    Certification only ever runs in the expected direction, so a cell is
    either certified to match the order or left undetermined; ``ok``
    means no cell is undetermined.  A separated cell needs a clean gap
    and a witness that re-checks.  Witnesses share one window and each
    rank's word, padded to it once; ``non_subset_witness`` reads nothing
    past its pair's larger last value, so a pair judges the blocks its
    own window would.
    """
    rp = run.rp
    elements = sorted(rp.poset.elements)
    dom = {b: run.derived.dominating[b] for b in elements}
    thresholds, _, gaps = _ledger_evidence(run)
    limit = max((d.last for d in dom.values() if len(d)), default=0)
    w = Window(0, limit)
    words = {r: bits.bits.ljust(limit, b"\0") for r, bits in run.derived.cohen.items()}
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
                    if same_rank:
                        evidence = {"route": "same-rank-refines"}
                        if question_variant:
                            variant.append((a, b))
                    else:
                        evidence = {"route": "dominates", "block_threshold": thr}
                    # A cell with no judged block would be certified on no evidence.
                    w_ab = Window(thr, d_b.last) if len(d_a) and len(d_b) else None
                    if w_ab and _judged_refine_indices(d_a.values, d_b.values, w_ab):
                        violations = refines_at(d_a, d_b, w_ab)
                        verdict = "subset-certified" if not violations else "undetermined"
                        evidence["violations"] = sorted(violations)
                    else:
                        verdict = "undetermined"
                        evidence["note"] = "no block of the upper sequence is judged"
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
    for real in sc.reals:
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
                    real=real.spec,
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
    merges, paid = _plan_counts(rp, sc.reals, sc.plan)
    if paid > sc.resolution:
        raise ResolutionExhausted(
            f"the plan has {paid} goals that take a step each, "
            f"over the budget of {sc.resolution} steps"
        )
    for b in sorted(merges):
        if merges[b] > _MAX_NAME_DEPTH:
            raise CannotAdvance(
                f"the plan nests {merges[b]} merges in the name at {b!r} (dominate_pairs "
                f"{sc.plan.dominate_pairs}), past the depth bound of {_MAX_NAME_DEPTH}"
            )
    goals = build_goals(rp, sc.reals, sc.plan)
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


_WORDS = {True: "true", False: "false", None: "null"}
# Each leaf's JSON text, by exact type: a bool is not written as an int.
_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: _WORDS.__getitem__,
    type(None): _WORDS.__getitem__,
}


def _write(o, out, nl):
    """Append the pieces of o's JSON text to out; nl is a newline plus o's indent."""
    t = type(o)
    leaf = _LEAVES.get(t)
    if leaf is not None:
        out.append(leaf(o))
    elif t is dict:
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            # encode_basestring_ascii refuses a key that is not a str
            out.append(sep + encode_basestring_ascii(k) + ": ")
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"a report holds no {t.__name__}")


def _dumps(obj):
    """The text of ``json.dumps(obj, sort_keys=True, indent=2)``, written
    without the stdlib's per-container generators.

    obj is a tree of dicts with str keys, lists, tuples, str, int, bool
    and None; any other type raises TypeError.
    """
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def render_report(run, iso, cov, sc):
    return _dumps(report_json(run, iso, cov, sc)) + "\n"
