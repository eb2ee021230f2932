"""Forcing conditions and the four-clause extension order.

A condition is a finite support, one Cohen bit prefix per rank occurring
in the support, and per-coordinate data (an increasing t-sequence plus a
name).  Strengthening means: keep the support (clause 1), extend every
Cohen prefix (clause 2), extend every t-sequence while only coarsening
its name through merges the run made over it (clause 3a) and certifying
a block of the old name inside every newly opened t-gap (clause 3b), and
nest same-rank comparable coordinates (clause 4).  A merge's blocks each
contain a block of its left child, the name it replaced.

Conditions hold plain tuples: each Cohen prefix is a tuple of bits and
each t-sequence a tuple of ints.  A link freezes what grew since the
previous link and shares the rest: a coordinate with the same name
object and t-length keeps the previous part, a Cohen prefix of the same
length its tuple.  Run state grows only at its ends, so equal length
means equal data; and the per-link order check still compares data, so
a piece edited in place fails clause 2 or 3 when it next grows.  The
derived reals validate the data once, at the end of a run (see
``engine.extract_reals_from``).

Clause 3b is a forced statement, decided from determined data only.  The
name at b ranges over the part of Q below b: its old name may read only
coordinates strictly below b that p holds, and Cohen prefixes at their
ranks or at b's own.  Any other name gets no determined block, as on p
restricted below b, where what it reads is missing.  A name that passes
is read off p in place by one non-extending workspace.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .errors import CannotAdvance
from .names import MergeName, coordinate_elements, diagonal_ranks
from .resolution import CoordPart, Workspace


@dataclass(frozen=True)
class Condition:
    """One forcing condition; treat as immutable after construction.

    ``cohen`` maps each rank to a tuple of bits; ``coords`` maps each
    support element to a :class:`CoordPart`.
    """

    cohen: dict
    coords: dict

    @property
    def support(self):
        return self.coords.keys()


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
    rp.rank_of(b)  # an unknown b raises UnknownElement
    support = p.support & rp.below[b]
    ranks = {rp.ranks[x] for x in support}
    return Condition(
        cohen={r: bits for r, bits in p.cohen.items() if r in ranks},
        coords={x: part for x, part in p.coords.items() if x in support},
    )


def condition_of(ws, prev):
    """ws frozen, at ws.rp's ranks, sharing with prev every piece that did not grow."""
    coords = {}
    for b, (vals, name) in sorted(ws.coords.items()):
        old = prev.coords.get(b)
        grew = old is None or old.name is not name or len(old.t) != len(vals)
        coords[b] = CoordPart(tuple(vals), name) if grew else old
    cohen = {}
    for r in sorted({ws.rp.ranks[x] for x in coords}):
        bits, old = ws.cohen.get(r, ()), prev.cohen.get(r)
        cohen[r] = tuple(bits) if old is None or len(old) != len(bits) else old
    return Condition(cohen, coords)


def _reads_below(nm, b, p, rp):
    """Whether nm reads only what p holds below b (the clause 3b context)."""
    cone = rp.below[b] & p.coords.keys()
    ranks = {rp.ranks[x] for x in cone} | {rp.rank_of(b)}
    return coordinate_elements(nm) <= cone and diagonal_ranks(nm) <= ranks


def _names_linked(old, new, certs):
    # Each certificate is a merge the run made over the name it replaced, its left
    # child, so a certified path runs down new's left spine; identity is tested first.
    cur = new
    while cur is not old:
        certified = isinstance(cur, MergeName) and cur in certs
        if (certified and cur.left is old) or cur == old:
            return True
        if not certified:
            return False
        cur = cur.left
    return True


def leq_check(p, q, rp, certs=frozenset(), cache=None):
    """Whether p extends q, with one violation record per failing clause.

    ``certs`` holds the clause 3a certificates: the merges the run made.

    ``cache`` may be threaded through successive calls along one
    descending chain.  It holds one non-extending workspace, pointed at
    each link's p in turn, whose walk caches every coordinate shares: all
    of them read the same p, and the determined data only grows link to
    link, so the caches stay valid and the whole chain verifies in one
    pass over the data.  It also keeps, per support, each b's 3b reads-below verdict.
    """
    cache = {} if cache is None else cache
    if "view" not in cache:
        cache["view"] = Workspace(rp, {}, {}, extend=False)
    view = cache["view"]
    if cache.get("support") != p.coords.keys():
        cache["support"], cache["reads_below"] = set(p.coords), {}
    reads_below = cache["reads_below"]
    # A non-extending view never writes, so p's own maps serve as its data.
    view.cohen, view.coords = p.cohen, p.coords
    violations = []

    missing = q.support - p.support
    if missing:
        violations.append(Violation("1", tuple(sorted(missing)), "support was dropped"))

    for rank in sorted(q.cohen):
        old = q.cohen[rank]
        new = p.cohen.get(rank, ())
        if new[: len(old)] != old:
            violations.append(Violation("2", rank, "Cohen prefix not extended"))

    shared = q.support & p.support
    for b in sorted(shared):
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
        if fresh and reads_below.get(b, (None,))[0] is not name_old:
            reads_below[b] = (name_old, _reads_below(name_old, b, p, rp))
        readable = bool(fresh) and reads_below[b][1]
        for n in fresh:
            lo, hi = new_vals[n - 1], new_vals[n]
            try:
                blk = view.next_block(name_old, lo) if readable else None
            except CannotAdvance as err:
                blk = None
                detail = f"old name undecidable on [{lo}, {hi}): {err}"
            else:
                detail = f"no determined block of the old name inside [{lo}, {hi})"
            if blk is None or blk[1] > hi:
                violations.append(Violation("3b", b, f"index {n}: {detail}"))

    for c, b in rp.same_rank_pairs:
        if c not in shared or b not in shared:
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

