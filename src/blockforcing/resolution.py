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
that decides which coordinates grow and in what order.  It grows a
rank's whole support slice, or one member and the members below it
there, running the binary carry schedule over height levels, so its
cost follows the longest chain inside the slice: a same-rank antichain
gains one value per member.  A rank's levels depend only on the order,
so each workspace works them out once, on that rank's first cascade.
Freshness is local: a new value clears what its own cascade holds, or
a floor its caller sets, never the whole state, so a coordinate read
inside a nested merge walk does not overshoot the levels around it.
"""

from bisect import bisect_left

from .errors import CannotAdvance
from .names import CoordinateName, DiagonalName, GroundName, MergeName
from .poset import restricted_linear_order

# Two stack frames per merge level: this fits the interpreter's default stack.
_MAX_NAME_DEPTH = 256

_NO_BITS = ()


def cascade_schedule(n):
    """Append order for n height levels, earliest first.

    Level k enters only after level k-1 produced two fresh values, the
    same carry pattern binary counting follows: schedule(3) is
    [0, 0, 1, 0, 0, 1, 2].  Level k fires 2^(n-1-k) times.
    """
    if n < 1:
        raise ValueError(f"need at least one coordinate, got {n}")
    sched = [0]
    for k in range(1, n):
        sched = sched + sched + [k]
    return sched


class Workspace:
    def __init__(self, rp, cohen, t, names, extend=True):
        self.rp = rp
        self.cohen = {rank: list(bits) for rank, bits in cohen.items()}
        self.t = {b: list(vals) for b, vals in t.items()}
        self.names = dict(names)
        self.extend = extend
        self._merge_walks = {}
        self._diag = {}
        self._levels = {}

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

        a, alone on the top level of its down-set, gains one value at or
        above lo per round, so two rounds pass any lo.
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

    def has_block_within(self, nm, lo, hi):
        blk = self.next_block(nm, lo)
        return blk is not None and blk[1] <= hi

    # -- state growth --

    def append_t(self, b, floor=0):
        """Append one value to t_b, certifying a name block in the new gap.

        The value is the end of the name's first block at or past t_b's
        last value, or floor if larger: the new gap holds that block and
        t_b increases.  Anything else it must clear, the caller floors.
        """
        vals = self.t[b]
        lo = vals[-1] if vals else 0
        blk = self.next_block(self.names[b], lo)
        if blk is None:
            raise CannotAdvance(f"name at {b!r} yields no block past {lo}")
        value = max(blk[1], floor)
        vals.append(value)
        return value

    def cascade(self, rank, top=None, floor=0):
        """Grow the support at rank following the carry schedule.

        Every member at rank grows, or with top given only top and the
        members below it there.  Raises ValueError when that selects
        nothing: no support member at rank, or top not among them.

        The schedule runs over height levels: a member is at level 0 when
        no member lies below it, else one above the highest level below
        it.  A selection under top is downward closed, so its members
        keep their levels in the slice.  When a level's turn comes, each
        of its selected members appends once, in sorted order.  A running
        mark hi starts at the larger of floor - 1 and the largest last
        value the selection holds, and each append is floored at hi + 1,
        so it lands above everything the selection holds (and floor).
        That is clause 4 of the extension order: take b < c at rank, c
        grown, so b is selected too and its level is lower than c's.
        Before a level's first turn, and between two of its turns, every
        lower level appends at least twice, each time above c's last
        value.  So each new gap of t_c, including the one opened from a
        value written by an earlier call, holds two fresh values of t_b,
        a whole block of b.  Incomparable members need nothing of each
        other, and share a level's turn; members not selected gain no gap.
        """
        table = self._levels.get(rank)
        if table is None:
            table = self._levels[rank] = self._level_table(rank)
        levels = table.get(top)
        if levels is None:
            raise ValueError(f"nothing to cascade at rank {rank} under {top!r}")
        hi = max([floor - 1] + [self.t[x][-1] for lv in levels for x in lv if self.t[x]])
        for idx in cascade_schedule(len(levels)):
            for x in levels[idx]:
                hi = self.append_t(x, hi + 1)

    def _level_table(self, rank):
        """The sorted height levels of the support at rank.

        Keyed None for the whole slice, and by each member for its
        down-set there.
        """
        poset = self.rp.poset
        members = [y for y in self.t if self.rp.ranks[y] == rank]
        # A linear extension lists everything below x before x, so one
        # pass settles every level.
        level, levels = {}, []
        for x in restricted_linear_order(poset, members):
            k = level[x] = max([level[y] + 1 for y in level if poset.lt(y, x)], default=0)
            if k == len(levels):
                levels.append([])
            levels[k].append(x)
        table = {None: [sorted(lv) for lv in levels]} if members else {}
        for top in members:
            table[top] = [
                sorted(y for y in lv if y == top or poset.lt(y, top))
                for lv in levels[: level[top] + 1]
            ]
        return table
