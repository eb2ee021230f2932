"""The shared state a run advances, and how names read blocks off it.

A workspace is mutable scratch: one bit list per rank (Cohen prefixes),
one value list per coordinate (the t-sequences), a name per coordinate,
and the high-water mark over all written t-values.  It comes in two
modes.  With ``extend=True`` a block query is allowed to grow the state
(append Cohen bits, cascade lower coordinates) and whatever it grows is
kept, so the block it certifies stays determined from then on.  With
``extend=False`` queries answer from present data only and return None
rather than speculate; that is the mode the order check runs in, since
a statement is only forced when the data already decides it.

All block queries are prefix-stable: growing the state never changes an
answer already given, it only turns None into a block.  That is what
makes the per-name walk caches safe to keep across a whole run.

Same-rank coordinates grow together through the cascade.  It groups a
downward-closed same-rank set into height levels and runs the binary
carry schedule over the levels, so its cost follows the longest chain
inside the set: a same-rank antichain gains one value per member.
"""

from bisect import bisect_left

from .errors import CannotAdvance
from .names import CoordinateName, DiagonalName, GroundName, MergeName
from .poset import restricted_linear_order

_MAX_NAME_DEPTH = 64

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
    def __init__(self, rp, support, cohen, t, names, extend=True, caches=None):
        self.rp = rp
        self.support = set(support)
        self.cohen = {rank: list(bits) for rank, bits in cohen.items()}
        self.t = {b: list(vals) for b, vals in t.items()}
        self.names = dict(names)
        self.extend = extend
        self.max_value = max((vs[-1] for vs in self.t.values() if vs), default=-1)
        caches = caches if caches is not None else {}
        self._merge_walks = caches.setdefault("merge", {})
        self._diag = caches.setdefault("diag", {})
        self._depth = 0

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

    def ensure_coordinate(self, a):
        """Install a with an empty sequence and the unit ground name."""
        if a not in self.t:
            self.t[a] = []
            self.names.setdefault(a, GroundName(0, 1))
            self.support.add(a)
            self.cohen.setdefault(self.rp.ranks[a], [])

    def same_rank_group(self, a):
        """a together with everything at its rank below it in the support."""
        poset = self.rp.poset
        ra = self.rp.ranks[a]
        return {
            y
            for y in self.support
            if self.rp.ranks[y] == ra and (y == a or poset.lt(y, a))
        }

    # -- block queries --

    def next_block(self, nm, lo):
        """The first block [B, E) of nm with B >= lo, or None if undetermined.

        Blocks of one name come in increasing order, so if this block does
        not fit below some bound, no later block will.
        """
        self._depth += 1
        try:
            if self._depth > _MAX_NAME_DEPTH:
                raise CannotAdvance("name nesting exceeds the depth bound")
            if isinstance(nm, GroundName):
                return self._next_ground(nm, lo)
            if isinstance(nm, CoordinateName):
                return self._next_coordinate(nm, lo)
            if isinstance(nm, DiagonalName):
                return self._next_diagonal(nm, lo)
            if isinstance(nm, MergeName):
                return self._next_merge(nm, lo)
            raise CannotAdvance(f"unusable name {nm!r}")
        finally:
            # Undo only this frame's increment, so an overflow leaves the
            # counter where the outermost call found it.
            self._depth -= 1

    def _next_ground(self, nm, lo):
        if lo <= nm.start:
            b = nm.start
        else:
            k = (lo - nm.start + nm.step - 1) // nm.step
            b = nm.start + k * nm.step
        return b, b + nm.step

    def _next_coordinate(self, nm, lo):
        a = nm.element
        if a not in self.t:
            if not self.extend:
                return None
            self.ensure_coordinate(a)
        while True:
            vals = self.t[a]
            i = bisect_left(vals, lo)
            if i + 1 < len(vals):
                return vals[i], vals[i + 1]
            if not self.extend:
                return None
            # Fresh values land above every written value, so two rounds
            # of the group cascade are enough to pass any lo.
            self.cascade(self.same_rank_group(a))

    def _next_diagonal(self, nm, lo):
        while True:
            positions = self._disagreements(nm.rank, nm.pattern)
            i = bisect_left(positions, lo)
            if i + 1 < len(positions):
                return positions[i], positions[i + 1]
            if not self.extend:
                return None
            v = self._cohen_list(nm.rank)
            if len(v) < lo:
                # Bulk-fill the gap; every written bit flips the pattern,
                # so each position past here is a disagreement.
                v.extend(1 - nm.pattern.bit(j) for j in range(len(v), lo))
            else:
                v.append(1 - nm.pattern.bit(len(v)))

    def _next_merge(self, nm, lo):
        hs = self._merge_walks.setdefault(nm, [])
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

        The value strictly exceeds everything written so far in any t,
        which is what keeps previously recorded gaps clean.
        """
        vals = self.t[b]
        lo = vals[-1] if vals else 0
        blk = self.next_block(self.names[b], lo)
        if blk is None:
            raise CannotAdvance(f"name at {b!r} yields no block past {lo}")
        value = max(self.max_value + 1, blk[1], floor)
        vals.append(value)
        self.max_value = value
        return value

    def cascade(self, coords, floor=0):
        """Extend every coordinate in coords following the carry schedule.

        coords must lie in the support, share one rank, and be downward
        closed among that rank's support elements.  Raises ValueError
        otherwise.

        The schedule runs over height levels: a member is at level 0 when
        no member lies below it, else one above the highest level below
        it.  When a level's turn comes, each of its members appends once,
        in sorted order.  That is clause 4 of the extension order: take
        b < c in coords, so b's level is lower than c's.  Before a level's
        first turn, and between two of its turns, every lower level
        appends at least twice; each append lands above every value
        written so far.  So each new gap of t_c, including the one opened
        from a value written by an earlier call, holds two fresh values
        of t_b, a whole block of b.  Incomparable members need nothing of
        each other, and share a level's turn.
        """
        coords = set(coords)
        if not coords or not coords <= self.support:
            raise ValueError(f"cascade set is empty or leaves the support: {sorted(coords)}")
        ranks = {self.rp.ranks[c] for c in coords}
        if len(ranks) != 1:
            raise ValueError(f"mixed ranks in cascade: {sorted(coords)}")
        rank = next(iter(ranks))
        poset = self.rp.poset
        for y in self.support:
            if self.rp.ranks[y] == rank and y not in coords:
                if any(poset.lt(y, c) for c in coords):
                    raise ValueError(f"{y!r} sits below the cascade set but is not in it")
        # A linear extension lists everything below x before x, so one
        # pass settles every level.
        level, levels = {}, []
        for x in restricted_linear_order(poset, coords):
            k = level[x] = max([level[y] + 1 for y in level if poset.lt(y, x)], default=0)
            if k == len(levels):
                levels.append([])
            levels[k].append(x)
        for members in levels:
            members.sort()
        for idx in cascade_schedule(len(levels)):
            for x in levels[idx]:
                self.append_t(x, floor)
