"""The shared state a run advances, and how names read blocks off it.

A workspace holds run state in a condition's own shape: ``cohen`` maps
each rank to its Cohen prefix, and ``coords`` maps each coordinate to a
:class:`CoordPart`, its t-sequence and its name.  In an extending
workspace each prefix is a ``bytearray`` (one byte per bit, as a
condition's ``bytes``) and each t-sequence a list, and both grow only at
their ends (``append_t`` and the Cohen extends are the only writes),
and a name is replaced, never edited.  The support is the set of
coordinates in ``coords``; no query adds one, so a coordinate name
outside it reads None.  With ``extend=True`` a block query may grow
the state (append Cohen bits, cascade lower coordinates), and whatever
it grows is kept, so the block it certifies stays determined.  With
``extend=False`` queries answer from present data only and return None
rather than speculate; the order check runs in that mode, since a
statement is only forced when the data already decides it.  Such a
view never writes, so the order check points one at each link's own
maps in turn.

A workspace compiles each name it is asked about once, into a tree of
walks linked as the name is: ground (arithmetic), coordinate, diagonal
and merge.  The others read an increasing boundary list (t_a, or one the
walk owns), a block being two consecutive entries, and grow it one
boundary at a time when a query runs past its end.  A merge asks its
child walks directly; a diagonal reads each bit once and records each
flip it writes as a boundary.  Walks hold no workspace: each query
passes it in.  All block queries are prefix-stable: growing the state
never changes an answer already given, it only turns None into a block,
so the walks stay valid across a whole run and across the links of a
descending chain, whose data only grows.

Same-rank coordinates grow together through the cascade, the one place
that decides which coordinates grow and by what value.  It grows a
rank's whole support slice, or one member and the members below it
there, by one value they all share: the largest of the caller's floor
and each member's next name-block end.  So a cascade costs one value
per selected member, whatever the order inside the slice.  Freshness is
local: the value clears what its own selection holds, or a floor its
caller sets, never the whole state, so a coordinate read inside a
nested merge walk does not overshoot the ranks around it.
"""

from bisect import bisect_left
from typing import NamedTuple

from .errors import CannotAdvance
from .names import CoordinateName, DiagonalName, GroundName, MergeName
# Not called here: perfbench/tracing.py counts calls through this name, so it stays bound.
from .poset import restricted_linear_order

# Two stack frames per merge level to walk, one to compile: fits the default stack.
_MAX_NAME_DEPTH = 256


def _last(vals):
    return vals[-1] if vals else -1


class _Walk:
    """Reads a boundary list by bisection; ``grow`` extends it, or returns False if it cannot."""

    __slots__ = ("nm",)

    def __init__(self, nm):
        self.nm = nm

    def boundaries(self, ws):
        return self.hs

    def block(self, ws, lo):
        hs = self.boundaries(ws)
        while True:
            i = bisect_left(hs, lo)
            if i + 1 < len(hs):
                return hs[i], hs[i + 1]
            if not self.grow(ws, hs, lo):
                return None


class _Ground(_Walk):
    __slots__ = ()

    def block(self, ws, lo):
        start, step = self.nm.start, self.nm.step
        b = start + (max(lo, start) - start + step - 1) // step * step
        return b, b + step


class _Coordinate(_Walk):
    __slots__ = ()

    def boundaries(self, ws):
        part = ws.coords.get(self.nm.element)
        return part.t if part else ()

    def grow(self, ws, hs, lo):
        # a's cascade floored at lo (each round gives t_a a value >= lo); none outside the support.
        if not ws.extend or self.nm.element not in ws.coords:
            return False
        ws.cascade(ws.rp.ranks[self.nm.element], top=self.nm.element, floor=lo)
        return True


class _Diagonal(_Walk):
    __slots__ = ("hs",)

    def __init__(self, nm):
        self.nm, self.hs = nm, []

    def grow(self, ws, hs, lo):
        # The next disagreement with the pattern past the last boundary; past the
        # word's end an extending workspace writes flips up to lo (or one), each a boundary.
        bit = self.nm.pattern.bit
        v = ws.cohen.get(self.nm.rank, b"")
        for j in range(hs[-1] + 1 if hs else 0, len(v)):
            if v[j] != bit(j):
                hs.append(j)
                return True
        if not ws.extend:
            return False
        v = ws.cohen.setdefault(self.nm.rank, bytearray())
        flips = range(len(v), max(lo, len(v) + 1))
        v.extend(1 - bit(j) for j in flips)
        hs.extend(flips)
        return True


class _Merge(_Walk):
    __slots__ = ("left", "right", "hs")

    def __init__(self, nm, left, right):
        self.nm, self.left, self.right, self.hs = nm, left, right, []

    def grow(self, ws, hs, lo):
        # First the earlier child start; then, from the last boundary, the further child end.
        here = hs[-1] if hs else 0
        block_left = self.left.block(ws, here)
        block_right = self.right.block(ws, here)
        if block_left is None or block_right is None:
            return False
        if hs:
            hs.append(max(block_left[1], block_right[1]))
        else:
            hs.append(min(block_left[0], block_right[0]))
        return True


_LEAF_WALKS = {GroundName: _Ground, CoordinateName: _Coordinate, DiagonalName: _Diagonal}


class CoordPart(NamedTuple):
    """A coordinate's t-sequence (a list in a workspace, a tuple in a condition) and name."""

    t: tuple
    name: object


class Workspace:
    def __init__(self, rp, cohen, coords, extend=True):
        self.rp = rp
        self.cohen = {rank: bytearray(bits) for rank, bits in cohen.items()}
        self.coords = {b: CoordPart(list(part.t), part.name) for b, part in coords.items()}
        self.extend = extend
        self._walks = {}

    # -- block queries --

    def next_block(self, nm, lo):
        """The first block [B, E) of nm with B >= lo, or None if undetermined.

        Blocks of one name come in increasing order, so if this block does
        not fit below some bound, no later block will.  A name nested past
        the depth bound, or a walk too deep for the stack, raises CannotAdvance.
        """
        try:
            walk = self._walks.get(nm) or self._compile(nm)
            return walk.block(self, lo)
        except RecursionError as err:
            # Coordinate reads nest walks in walks; no name depth caps that.
            raise CannotAdvance("name walk exceeds the interpreter's stack") from err

    def _compile(self, nm):
        """nm's walk, linked to its children's; each name's is built once."""
        walk = self._walks.get(nm)
        if walk is None:
            if isinstance(nm, MergeName):
                # Checked before any walk is built: a name past the bound never gets one.
                if nm.depth > _MAX_NAME_DEPTH:
                    raise CannotAdvance("name nesting exceeds the depth bound")
                walk = _Merge(nm, self._compile(nm.left), self._compile(nm.right))
            elif type(nm) in _LEAF_WALKS:
                walk = _LEAF_WALKS[type(nm)](nm)
            else:
                raise CannotAdvance(f"unusable name {nm!r}")
            self._walks[nm] = walk
        return walk

    # -- state growth --

    def append_t(self, b, value):
        """Append value to t_b: the one write to a t-sequence."""
        self.coords[b].t.append(value)

    def cascade(self, rank, top=None, floor=0):
        """Grow the support at rank by one value its selection shares.

        Every member at rank grows, or with top given only top and the
        members below it there.  Raises ValueError, before writing
        anything, when that selects nothing (no support member at rank,
        or top not among them) or when a selected b < c ends before c.

        The value v is the largest of floor and each selected member's
        first name-block end past its own last value, so every new gap
        holds a block of its member's name (clause 3b).  Clause 4: take
        b < c at rank, c grown.  The selection is downward closed at
        rank, so b grows with c, to the same v.  c's new gap [c_last, v]
        holds b's block [b_last, v] exactly when b_last >= c_last.  The
        engine keeps that from its empty start on, since b grows
        whenever c does; a workspace built from any other condition may
        not, and is refused.
        """
        rp, coords = self.rp, self.coords
        if top is None:
            members = rp.at_rank.get(rank, ())
        elif rp.ranks.get(top) == rank and top in coords:
            members = rp.same_rank_down[top]
        else:
            members = ()  # top is at another rank, or outside the support
        chosen = [x for x in members if x in coords]
        if not chosen:
            raise ValueError(f"nothing to cascade at rank {rank} under {top!r}")
        if len(chosen) > 1 and rp.same_rank_pairs:
            selected = set(chosen)
            for c, b in rp.same_rank_pairs:
                if c in selected and b in selected and _last(coords[b].t) < _last(coords[c].t):
                    raise ValueError(
                        f"{b!r} < {c!r} at rank {rank}, but t at {b!r} ends before t at {c!r}"
                    )
        value = floor
        for x in chosen:
            vals, nm = self.coords[x]
            lo = vals[-1] if vals else 0
            blk = self.next_block(nm, lo)
            if blk is None:
                raise CannotAdvance(f"name at {x!r} yields no block past {lo}")
            value = max(value, blk[1])
        for x in chosen:
            self.append_t(x, value)
