"""The shared state a run advances, and how names read blocks off it.

A workspace is mutable scratch: one bit list per rank (Cohen prefixes),
one value list per coordinate (the t-sequences) and a name per
coordinate.  The support is the set of coordinates t holds; no query
adds one, so a coordinate name outside it reads None.  A workspace
comes in two modes.  With ``extend=True`` a block query is allowed to
grow the state (append Cohen bits, cascade lower coordinates) and
whatever it grows is kept, so the block it certifies stays determined
from then on.  With ``extend=False`` queries answer from present data
only and return None rather than speculate; that is the mode the order
check runs in, since a statement is only forced when the data already
decides it.  Such a view never writes, so the order check points one
at each link's own tuples in turn.

Every name that reads the state reads one increasing list of block
boundaries: t_a itself for a coordinate name, and a walk the workspace
caches for a diagonal or merge name.  A block is two consecutive
boundaries, and a walk grows one boundary at a time, only when a query
runs past its end.  A diagonal walk compares a bit with its pattern once,
where it reads it; a flip it writes is recorded as a boundary where it
is written, never rescanned.  All block queries are prefix-stable:
growing the state never changes an answer already given, it only turns
None into a block.  That is what makes the walks safe to keep across a
whole run, and across the links of a descending chain, whose data only
grows.

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

from .errors import CannotAdvance
from .names import CoordinateName, DiagonalName, GroundName, MergeName
# Not called here: perfbench/tracing.py counts calls through this name, so it stays bound.
from .poset import restricted_linear_order

# Two stack frames per merge level: this fits the interpreter's default stack.
_MAX_NAME_DEPTH = 256


def _last(vals):
    return vals[-1] if vals else -1


class Workspace:
    def __init__(self, rp, cohen, t, names, extend=True):
        self.rp = rp
        self.cohen = {rank: list(bits) for rank, bits in cohen.items()}
        self.t = {b: list(vals) for b, vals in t.items()}
        self.names = dict(names)
        self.extend = extend
        self._walks = {}

    @property
    def support(self):
        """The coordinates present: the keys of t."""
        return self.t.keys()

    # -- block queries --

    def next_block(self, nm, lo):
        """The first block [B, E) of nm with B >= lo, or None if undetermined.

        A ground name's blocks are arithmetic.  Any other name's are two
        consecutive entries of its boundary list (t_a, or the name's
        walk); when the list runs out before lo is passed, ``_grow``
        extends it, and None means it cannot.  Blocks of one name come in
        increasing order, so if this block does not fit below some bound,
        no later block will.  A walk nested too deep for the interpreter's
        stack raises CannotAdvance.
        """
        try:
            if isinstance(nm, GroundName):
                if lo <= nm.start:
                    return nm.start, nm.start + nm.step
                b = nm.start + (lo - nm.start + nm.step - 1) // nm.step * nm.step
                return b, b + nm.step
            if isinstance(nm, CoordinateName):
                hs = self.t.get(nm.element)
                if hs is None:
                    return None
            elif isinstance(nm, (DiagonalName, MergeName)):
                hs = self._walks.get(nm)
                if hs is None:
                    # Checked once per walk: a name past the bound never gets one.
                    if isinstance(nm, MergeName) and nm.depth > _MAX_NAME_DEPTH:
                        raise CannotAdvance("name nesting exceeds the depth bound")
                    hs = self._walks[nm] = []
            else:
                raise CannotAdvance(f"unusable name {nm!r}")
            while True:
                i = bisect_left(hs, lo)
                if i + 1 < len(hs):
                    return hs[i], hs[i + 1]
                if not self._grow(nm, hs, lo):
                    return None
        except RecursionError as err:
            # Coordinate reads nest walks in walks; no name depth caps that.
            raise CannotAdvance("name walk exceeds the interpreter's stack") from err

    def _grow(self, nm, hs, lo):
        """Add to nm's boundary list hs; False when the data cannot decide how.

        - Coordinate a: a's cascade floored at lo.  Each round gives t_a
          one value at or above lo, so two rounds pass any lo.
        - Diagonal: the word's next disagreement with the pattern, scanned
          from one past the last boundary.  Past the word's end an
          extending workspace writes the pattern's flip, up to lo or one
          bit if the word reaches lo already, and records each flip as a
          boundary as it writes it.
        - Merge: at first, the earlier of the children's first block
          starts; then the further of the ends of the children's first
          blocks from the last boundary on.  So the span between two
          boundaries holds a whole block of each child, which is the
          merge's defining property.
        """
        if isinstance(nm, CoordinateName):
            if not self.extend:
                return False
            self.cascade(self.rp.ranks[nm.element], top=nm.element, floor=lo)
            return True
        if isinstance(nm, DiagonalName):
            bit = nm.pattern.bit
            v = self.cohen.get(nm.rank, ())
            for j in range(hs[-1] + 1 if hs else 0, len(v)):
                if v[j] != bit(j):
                    hs.append(j)
                    return True
            if not self.extend:
                return False
            v = self.cohen.setdefault(nm.rank, [])
            flips = range(len(v), max(lo, len(v) + 1))
            v.extend(1 - bit(j) for j in flips)
            hs.extend(flips)
            return True
        here = hs[-1] if hs else 0
        block_left = self.next_block(nm.left, here)
        block_right = self.next_block(nm.right, here)
        if block_left is None or block_right is None:
            return False
        if hs:
            hs.append(max(block_left[1], block_right[1]))
        else:
            hs.append(min(block_left[0], block_right[0]))
        return True

    # -- state growth --

    def append_t(self, b, value):
        """Append value to t_b: the one write to a t-sequence."""
        self.t[b].append(value)

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
        pairs = self.rp.poset.pairs
        chosen = [
            x
            for x in self.rp.at_rank.get(rank, ())
            if x in self.t and (top is None or x == top or (x, top) in pairs)
        ]
        if not chosen or top is not None and top not in chosen:
            raise ValueError(f"nothing to cascade at rank {rank} under {top!r}")
        if len(chosen) > 1 and self.rp.same_rank_pairs:
            selected = set(chosen)
            for c, b in self.rp.same_rank_pairs:
                if c in selected and b in selected and _last(self.t[b]) < _last(self.t[c]):
                    raise ValueError(
                        f"{b!r} < {c!r} at rank {rank}, but t at {b!r} ends before t at {c!r}"
                    )
        value = floor
        for x in chosen:
            vals = self.t[x]
            lo = vals[-1] if vals else 0
            blk = self.next_block(self.names[x], lo)
            if blk is None:
                raise CannotAdvance(f"name at {x!r} yields no block past {lo}")
            value = max(value, blk[1])
        for x in chosen:
            self.append_t(x, value)
