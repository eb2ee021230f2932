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

All block queries are prefix-stable: growing the state never changes an
answer already given, it only turns None into a block.  That is what
makes the per-name walk caches safe to keep across a whole run, and
across the links of a descending chain, whose data only grows.

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

_NO_BITS = ()


class Workspace:
    def __init__(self, rp, cohen, t, names, extend=True):
        self.rp = rp
        self.cohen = {rank: list(bits) for rank, bits in cohen.items()}
        self.t = {b: list(vals) for b, vals in t.items()}
        self.names = dict(names)
        self.extend = extend
        self._merge_walks = {}
        self._diag = {}

    @property
    def support(self):
        """The coordinates present: the keys of t."""
        return self.t.keys()

    # -- primitive state access --

    def _cohen_list(self, rank):
        if self.extend:
            return self.cohen.setdefault(rank, [])
        return self.cohen.get(rank, _NO_BITS)

    def _disagreements(self, rank, pattern):
        # Incremental scan; positions only ever gain entries at the end.
        v = self._cohen_list(rank)
        entry = self._diag.setdefault((rank, pattern), [0, []])
        scanned, positions = entry
        for j in range(scanned, len(v)):
            if v[j] != pattern.bit(j):
                positions.append(j)
        entry[0] = len(v)
        return positions

    # -- block queries --

    def next_block(self, nm, lo):
        """The first block [B, E) of nm with B >= lo, or None if undetermined.

        Blocks of one name come in increasing order, so if this block does
        not fit below some bound, no later block will.  A walk nested too
        deep for the interpreter's stack raises CannotAdvance.
        """
        try:
            if isinstance(nm, GroundName):
                return self._next_ground(nm, lo)
            if isinstance(nm, CoordinateName):
                return self._next_coordinate(nm, lo)
            if isinstance(nm, DiagonalName):
                return self._next_diagonal(nm, lo)
            if isinstance(nm, MergeName):
                return self._next_merge(nm, lo)
        except RecursionError as err:
            # Coordinate reads nest walks in walks; no name depth caps that.
            raise CannotAdvance("name walk exceeds the interpreter's stack") from err
        raise CannotAdvance(f"unusable name {nm!r}")

    def _next_ground(self, nm, lo):
        if lo <= nm.start:
            b = nm.start
        else:
            k = (lo - nm.start + nm.step - 1) // nm.step
            b = nm.start + k * nm.step
        return b, b + nm.step

    def _next_coordinate(self, nm, lo):
        """The gap of t_a at or past lo, grown by a's cascade floored at lo.

        Each round of a's cascade gives t_a one value at or above lo, so
        two rounds pass any lo.
        """
        a = nm.element
        if a not in self.t:
            return None
        while True:
            vals = self.t[a]
            i = bisect_left(vals, lo)
            if i + 1 < len(vals):
                return vals[i], vals[i + 1]
            if not self.extend:
                return None
            self.cascade(self.rp.ranks[a], top=a, floor=lo)

    def _next_diagonal(self, nm, lo):
        while True:
            positions = self._disagreements(nm.rank, nm.pattern)
            i = bisect_left(positions, lo)
            if i + 1 < len(positions):
                return positions[i], positions[i + 1]
            if not self.extend:
                return None
            v = self._cohen_list(nm.rank)
            # Fill up to lo, or one bit if v reaches it already; every
            # written bit flips the pattern, so each is a disagreement.
            v.extend(1 - nm.pattern.bit(j) for j in range(len(v), max(lo, len(v) + 1)))

    def _next_merge(self, nm, lo):
        hs = self._merge_walks.get(nm)
        if hs is None:
            # Checked once per walk: a name past the bound never gets one.
            if nm.depth > _MAX_NAME_DEPTH:
                raise CannotAdvance("name nesting exceeds the depth bound")
            hs = self._merge_walks[nm] = []
        while True:
            i = bisect_left(hs, lo)
            if i + 1 < len(hs):
                return hs[i], hs[i + 1]
            if not hs:
                first_left = self.next_block(nm.left, 0)
                first_right = self.next_block(nm.right, 0)
                if first_left is None or first_right is None:
                    return None
                hs.append(min(first_left[0], first_right[0]))
            else:
                here = hs[-1]
                block_left = self.next_block(nm.left, here)
                block_right = self.next_block(nm.right, here)
                if block_left is None or block_right is None:
                    return None
                # The span [here, max of ends) then holds one whole block
                # of each child, which is the merge's defining property.
                hs.append(max(block_left[1], block_right[1]))

    # -- state growth --

    def append_t(self, b, value):
        """Append value to t_b: the one write to a t-sequence."""
        self.t[b].append(value)

    def cascade(self, rank, top=None, floor=0):
        """Grow the support at rank by one value its selection shares.

        Every member at rank grows, or with top given only top and the
        members below it there.  Raises ValueError when that selects
        nothing: no support member at rank, or top not among them.

        The value v is the largest of floor and each selected member's
        first name-block end past its own last value, so every new gap
        holds a block of its member's name (clause 3b).  Clause 4: take
        b < c at rank, c grown.  The selection is downward closed at
        rank, so b grows with c, to the same v, and t_b's last value
        never falls below t_c's (both start empty).  c's new gap
        [c_last, v] then holds b's block [b_last, v].
        """
        pairs = self.rp.poset.pairs
        chosen = [
            x
            for x in self.rp.at_rank.get(rank, ())
            if x in self.t and (top is None or x == top or (x, top) in pairs)
        ]
        if not chosen or top is not None and top not in chosen:
            raise ValueError(f"nothing to cascade at rank {rank} under {top!r}")
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
