"""Forcing conditions and the four-clause extension order.

A condition is a finite support, one Cohen bit prefix per rank occurring
in the support, and per-coordinate data (an increasing t-sequence plus a
name).  Strengthening means: keep the support (clause 1), extend every
Cohen prefix (clause 2), extend every t-sequence while only coarsening
its name through an explicit certificate (clause 3a) and certifying a
block of the old name inside every newly opened t-gap (clause 3b), and
nest same-rank comparable coordinates (clause 4).

Conditions hold plain tuples: each Cohen prefix is a tuple of bits and
each t-sequence a tuple of ints.  The engine copies them off its
workspace once per link; the derived reals validate them once, at the
end of a run (see ``engine.extract_reals_from``).

Clause 3b is a forced statement, so it is decided from determined data
only: the restricted condition plus the stronger side's Cohen prefix at
the coordinate's rank, evaluated by a non-extending workspace.
"""

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CannotAdvance
from .names import MergeName
from .resolution import Workspace


class CoordPart(NamedTuple):
    t: tuple
    name: object


@dataclass(frozen=True)
class Condition:
    """One forcing condition; treat as immutable after construction.

    ``cohen`` maps each rank to a tuple of bits; ``coords`` maps each
    support element to a :class:`CoordPart`.
    """

    support: frozenset
    cohen: dict
    coords: dict


@dataclass(frozen=True)
class RefinementCertificate:
    """Evidence that new_name only coarsens old_name.

    new_name is a merge whose left child is old_name, so every resolved
    merge block contains an old block.
    """

    old_name: object
    new_name: object

    def __post_init__(self):
        if not isinstance(self.new_name, MergeName) or self.new_name.left != self.old_name:
            raise ValueError("merge-coarsening certificate must wrap the old name as left child")


@dataclass(frozen=True)
class Violation:
    clause: str
    subject: object
    detail: str


@dataclass(frozen=True)
class LeqReport:
    ok: bool
    violations: tuple

    def __bool__(self):
        return self.ok


def restrict(p, b, rp):
    """The part of p visible strictly below b (in order and rank)."""
    down = rp.down_set(b)
    support = p.support & down
    ranks = {rp.ranks[x] for x in support}
    return Condition(
        support=support,
        cohen={r: bits for r, bits in p.cohen.items() if r in ranks},
        coords={x: part for x, part in p.coords.items() if x in support},
    )


def workspace_of(cond, rp, extend=True, caches=None):
    return Workspace(
        rp,
        cond.cohen,
        {b: part.t for b, part in cond.coords.items()},
        {b: part.name for b, part in cond.coords.items()},
        extend=extend,
        caches=caches,
    )


def condition_of(ws, rp):
    support = frozenset(ws.support)
    ranks = {rp.ranks[x] for x in support}
    return Condition(
        support=support,
        cohen={r: tuple(ws.cohen.get(r, ())) for r in sorted(ranks)},
        coords={b: CoordPart(tuple(ws.t[b]), ws.names[b]) for b in sorted(support)},
    )


def _restricted_view(p, b, rp, cache):
    # The decision context of clause 3b: p below b, plus p's own Cohen
    # prefix at b's rank riding alongside (b itself is never in its cone).
    caches = cache.setdefault(b, {}) if cache is not None else None
    view = workspace_of(restrict(p, b, rp), rp, extend=False, caches=caches)
    rb = rp.ranks[b]
    view.cohen[rb] = list(p.cohen.get(rb, ()))
    return view


def _names_linked(old, new, certs):
    if old == new:
        return True
    frontier = [old]
    seen = set()
    while frontier:
        cur = frontier.pop()
        if cur == new:
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for cert in certs:
            if cert.old_name == cur:
                frontier.append(cert.new_name)
    return False


def leq_check(p, q, rp, certs=frozenset(), cache=None):
    """Whether p extends q, with one violation record per failing clause.

    ``cache`` may be threaded through successive calls along one
    descending chain; the determined data only grows link to link, so
    the per-coordinate walk caches stay valid and the whole chain
    verifies in one pass over the data.
    """
    violations = []

    missing = q.support - p.support
    if missing:
        violations.append(Violation("1", tuple(sorted(missing)), "support was dropped"))

    for rank in sorted(q.cohen):
        old = q.cohen[rank]
        new = p.cohen.get(rank, ())
        if new[: len(old)] != old:
            violations.append(Violation("2", rank, "Cohen prefix not extended"))

    for b in sorted(q.support & p.support):
        old_vals, name_old = q.coords[b]
        new_vals, name_new = p.coords[b]
        if new_vals[: len(old_vals)] != old_vals:
            violations.append(Violation("3", b, "t-sequence not extended"))
            continue
        if not _names_linked(name_old, name_new, certs):
            violations.append(
                Violation("3a", b, "names differ and no certificate chain connects them")
            )
        fresh = range(max(len(old_vals), 1), len(new_vals))
        if fresh:
            view = _restricted_view(p, b, rp, cache)
            for n in fresh:
                lo, hi = new_vals[n - 1], new_vals[n]
                try:
                    found = view.has_block_within(name_old, lo, hi)
                except CannotAdvance as err:
                    found = False
                    detail = f"old name undecidable on [{lo}, {hi}): {err}"
                else:
                    detail = f"no determined block of the old name inside [{lo}, {hi})"
                if not found:
                    violations.append(Violation("3b", b, f"index {n}: {detail}"))

    shared = sorted(q.support & p.support)
    for c in shared:
        for b in shared:
            if b == c or rp.ranks[b] != rp.ranks[c] or not rp.poset.lt(b, c):
                continue
            old_len = len(q.coords[c].t)
            new_c = p.coords[c].t
            t_b = p.coords[b].t
            for n in range(max(old_len, 1), len(new_c)):
                lo, hi = new_c[n - 1], new_c[n]
                k = bisect_left(t_b, lo)
                if k + 1 >= len(t_b) or t_b[k + 1] > hi:
                    violations.append(
                        Violation(
                            "4",
                            (b, c),
                            f"index {n}: no whole block of {b!r} inside [{lo}, {hi})",
                        )
                    )

    return LeqReport(not violations, tuple(violations))

