"""Dense-goal scheduling: grow a verified descending chain of conditions.

Genericity is replaced by an explicit goal list.  Each goal names one
dense set from the construction: a t-sequence reaching a length, a Cohen
prefix disagreeing with a registered pattern, a coordinate's name
absorbing a domination target, or a recorded gap separating an
incomparable pair.  Goals are served in order under a step budget, and
every emitted link is checked against the extension order before it
joins the chain, so a run that finishes is sound by construction.
Each distinct merge a domination goal asks for is built once, and the
run's merges are its clause 3a certificates.
"""

from dataclasses import dataclass

from .blocks import BitSeq, IncSeq
from .conditions import Condition, condition_of, leq_check
from .errors import BlockForcingError, NotIncomparable, ResolutionExhausted
from .names import (
    GroundName,
    MergeName,
    coordinate_elements,
    descriptor,
    diagonal_ranks,
)
# Not called here: perfbench/tracing.py counts calls through this name, so it stays bound.
from .poset import restricted_linear_order
from .resolution import CoordPart, Workspace


@dataclass(frozen=True)
class LengthGoal:
    """t at elem reaches n values."""

    elem: str
    n: int


@dataclass(frozen=True)
class CohenDisagreeGoal:
    """The Cohen prefix at rank gains a disagreement with real past beyond."""

    rank: int
    real: object
    beyond: int


@dataclass(frozen=True)
class DominateGoal:
    """The name at elem absorbs target, so new t-gaps carry target blocks."""

    elem: str
    target: object


@dataclass(frozen=True)
class IncomparableGoal:
    """t at b gains a recorded gap past beyond that t at a never enters."""

    a: str
    b: str
    beyond: int


@dataclass(frozen=True)
class LedgerEntry:
    goal_index: int
    met_at: int
    info: dict


@dataclass(frozen=True)
class DerivedReals:
    cohen: dict
    dominating: dict


@dataclass(frozen=True)
class GenericRun:
    rp: object
    chain: tuple
    certificates: frozenset
    goals: tuple
    ledger: tuple
    derived: DerivedReals


def goal_descriptor(goal):
    if isinstance(goal, LengthGoal):
        return {"kind": "length", "elem": goal.elem, "n": goal.n}
    if isinstance(goal, CohenDisagreeGoal):
        return {
            "kind": "cohen-disagree",
            "rank": goal.rank,
            "real": goal.real.spec,
            "beyond": goal.beyond,
        }
    if isinstance(goal, DominateGoal):
        return {"kind": "dominate", "elem": goal.elem, "target": descriptor(goal.target)}
    if isinstance(goal, IncomparableGoal):
        return {"kind": "incomparable", "a": goal.a, "b": goal.b, "beyond": goal.beyond}
    raise ValueError(f"unknown goal {goal!r}")


def start_condition(rp):
    """Everything installed up front: full support, empty data, unit names."""
    elements = sorted(rp.poset.elements)
    ranks = sorted({rp.ranks[x] for x in elements})
    return Condition(
        cohen={r: b"" for r in ranks},
        coords=dict.fromkeys(elements, CoordPart((), GroundName(0, 1))),
    )


def _ladder(ws, up_to=None):
    """Cascade every rank up to ``up_to`` (all of them by default).

    Lower ranks go first, mirroring the inductive structure: a name at a
    higher rank may read (and further extend) what lower cascades wrote.
    """
    for rank in sorted({ws.rp.ranks[y] for y in ws.coords}):
        if up_to is None or rank <= up_to:
            ws.cascade(rank)


def _separate(ws, a, b, floor_n):
    """Record a gap in t_b that t_a can never meet again.

    Phase one grows t_b (through its same-rank down-set), floored above
    t_a's last value, until gap number max(floor_n, current length) is
    exposed: a new gap wholly above t_a.  t_a stays untouched: a in that
    down-set, or below anything it reads, would be below b.  Phase
    two runs a's cascade, floored past the gap's right end: t_a gains
    one value there, and every later value of t_a is larger still.  The
    gap stays clean.  ``_validate_goals`` has checked that a is not at or below b.
    """
    t_a, t_b = ws.coords[a].t, ws.coords[b].t
    gap_index = max(floor_n, len(t_b))
    above_a = t_a[-1] + 1 if t_a else 0
    while len(t_b) < gap_index + 2:
        ws.cascade(ws.rp.rank_of(b), top=b, floor=above_a)
    gap = (t_b[gap_index], t_b[gap_index + 1])
    ws.cascade(ws.rp.rank_of(a), top=a, floor=gap[1] + 1)
    return gap_index, gap


def _validate_goals(rp, goals):
    used_ranks = set(rp.ranks.values())
    for goal in goals:
        if isinstance(goal, LengthGoal):
            rp.rank_of(goal.elem)
            if goal.n < 0:
                raise ValueError(f"negative length target in {goal!r}")
        elif isinstance(goal, CohenDisagreeGoal):
            if goal.rank not in used_ranks:
                raise ValueError(f"rank {goal.rank} is not used by any element")
            if goal.beyond < 0:
                raise ValueError(f"negative position bound in {goal!r}")
        elif isinstance(goal, DominateGoal):
            rank = rp.rank_of(goal.elem)
            stray = diagonal_ranks(goal.target) - {rank}
            if stray:
                raise ValueError(
                    f"domination target for {goal.elem!r} carries foreign rank tags {sorted(stray)}"
                )
            for child in coordinate_elements(goal.target):
                rp.rank_of(child)
                if child not in rp.below[goal.elem]:
                    raise ValueError(
                        f"coordinate {child!r} in a domination target must sit strictly "
                        f"below {goal.elem!r} in both order and rank"
                    )
        elif isinstance(goal, IncomparableGoal):
            rp.rank_of(goal.a)
            rp.rank_of(goal.b)
            if goal.beyond < 0:
                raise ValueError(f"negative gap index bound in {goal!r}")
            if rp.poset.leq(goal.a, goal.b):
                raise NotIncomparable(f"{goal.a!r} <= {goal.b!r} in goal {goal!r}")
        else:
            raise ValueError(f"unknown goal {goal!r}")


def build_generic(rp, goals, resolution):
    """Serve every goal within the step budget, verifying each link.

    Goals are served from a cursor at the first unmet goal; goals before
    it are all met.  A served length goal only ladders: before each step
    the unmet length goals (their own index list) are recorded, in goal
    order, once long enough, so the ledger is what a full rescan gives.

    Each step adds one link, so the budget bounds the chain's length.
    Raises ResolutionExhausted (listing unmet goal indices) when the
    budget runs out first.  Fully deterministic.
    """
    goals = tuple(goals)
    _validate_goals(rp, goals)
    if resolution < 1:
        raise ValueError(f"step budget must be at least 1, got {resolution}")

    chain = [start_condition(rp)]
    ws = Workspace(rp, chain[0].cohen, chain[0].coords)
    certs = {}
    ledger = []
    met = [False] * len(goals)
    lengths = [i for i, goal in enumerate(goals) if isinstance(goal, LengthGoal)]
    cursor = 0
    check_cache = {}

    while True:
        # The one place a length goal is recorded: a served one is the cursor,
        # the smallest unmet length goal, so this scan records it first.
        lengths = [i for i in lengths if not met[i]]
        for i in lengths:
            have = len(ws.coords[goals[i].elem].t)
            if have >= goals[i].n:
                met[i] = True
                ledger.append(LedgerEntry(i, len(chain) - 1, {"length": have}))
        while cursor < len(goals) and met[cursor]:
            cursor += 1
        if cursor == len(goals):
            break
        if len(chain) > resolution:
            unmet = tuple(i for i in range(cursor, len(goals)) if not met[i])
            raise ResolutionExhausted(
                f"budget of {resolution} steps spent with {len(unmet)} goals unmet",
                unmet=unmet,
            )
        i = cursor
        goal = goals[i]

        if isinstance(goal, LengthGoal):
            _ladder(ws)
            info = None
        elif isinstance(goal, CohenDisagreeGoal):
            bits = ws.cohen[goal.rank]
            position = max(goal.beyond, len(bits))
            bits.extend(1 - goal.real.bit(j) for j in range(len(bits), position + 1))
            info = {"position": position, "bit": bits[position]}
        elif isinstance(goal, DominateGoal):
            vals, name = ws.coords[goal.elem]
            merged = MergeName(name, goal.target)
            ws.coords[goal.elem] = CoordPart(vals, certs.setdefault(merged, merged))
            swap_length = len(vals)
            _ladder(ws, up_to=rp.ranks[goal.elem])
            info = {
                "swap_length": swap_length,
                "block_threshold": max(0, swap_length - 1),
            }
        else:
            gap_index, gap = _separate(ws, goal.a, goal.b, goal.beyond)
            info = {"index": gap_index, "block": list(gap)}

        p = condition_of(ws, chain[-1])
        report = leq_check(p, chain[-1], rp, certs, cache=check_cache)
        if not report:
            raise BlockForcingError(
                f"engine emitted an invalid link for goal {i}: {report.violations}"
            )
        chain.append(p)
        if info is not None:
            met[i] = True
            ledger.append(LedgerEntry(i, len(chain) - 1, info))

    return GenericRun(
        rp=rp,
        chain=tuple(chain),
        certificates=frozenset(certs),
        goals=goals,
        ledger=tuple(ledger),
        derived=extract_reals_from(chain[-1]),
    )


def extract_reals_from(cond):
    """The derived reals of a run's final condition, validated once.

    This is the one place a run's data becomes :class:`BitSeq` and
    :class:`IncSeq`, so every bit and every t-value is checked here and
    nowhere else.  That covers the whole chain: clauses 2 and 3 of the
    per-link ``leq_check`` make every link's Cohen prefixes and
    t-sequences prefixes of the next link's, hence of the final data.
    """
    return DerivedReals(
        cohen={r: BitSeq(cond.cohen[r]) for r in sorted(cond.cohen)},
        dominating={b: IncSeq(cond.coords[b].t) for b in sorted(cond.coords)},
    )
