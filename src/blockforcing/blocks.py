"""Finite-resolution block combinatorics over increasing sequences.

An increasing sequence f carves the naturals into blocks [f(n), f(n+1)).
The relations here compare two sequences block-wise (refinement), value
by value (pointwise domination), or through a 0/1 word's disagreements
with a reference word inside each block.  Cofinite statements are cut
down to a :class:`Window`: a threshold where judging starts and a limit
beyond which nothing is judged.  Every comparison returns the set of
violating indices instead of a bare boolean, so a caller can tell a
violation before the threshold from one inside the judged range.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    EmptySequence,
    InsufficientViolations,
    LengthTooShort,
    SearchExhausted,
    SpecError,
)


@dataclass(frozen=True, init=False)
class IncSeq:
    """A finite, strictly increasing sequence of naturals."""

    values: tuple

    def __init__(self, values=()):
        vals = tuple(int(v) for v in values)
        for i, v in enumerate(vals):
            if v < 0:
                raise ValueError(f"negative entry {v} at index {i}")
            if i and vals[i - 1] >= v:
                raise ValueError(f"not strictly increasing at index {i}: {vals[i - 1]} >= {v}")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __iter__(self):
        return iter(self.values)

    @property
    def last(self):
        if not self.values:
            raise EmptySequence("sequence has no entries")
        return self.values[-1]

    def blocks(self):
        """Iterate the half-open blocks [values[i], values[i+1))."""
        for i in range(len(self.values) - 1):
            yield self.values[i], self.values[i + 1]


@dataclass(frozen=True, init=False)
class BitSeq:
    """A finite word over {0, 1}."""

    bits: tuple

    def __init__(self, bits=()):
        vals = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in vals):
            raise ValueError("bits must be 0 or 1")
        object.__setattr__(self, "bits", vals)

    @classmethod
    def from01(cls, text):
        return cls(int(ch) for ch in text)

    def to01(self):
        return "".join(str(b) for b in self.bits)

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def __iter__(self):
        return iter(self.bits)


@dataclass(frozen=True)
class Window:
    """Judging range: indices from ``start``, values (or indices) up to ``limit``."""

    start: int
    limit: int

    def __post_init__(self):
        if not 0 <= self.start <= self.limit:
            raise ValueError(f"need 0 <= start <= limit, got ({self.start}, {self.limit})")


def _judged_refine_indices(f, g, w):
    # g-block n is judged when it lies past the index threshold and its
    # right endpoint is covered by both the window and f's range.
    if len(f) == 0 or len(g) == 0:
        raise EmptySequence("refinement needs nonempty sequences")
    cap = min(w.limit, f.last)
    out = []
    for n in range(w.start, len(g) - 1):
        if g[n + 1] > cap:
            break
        out.append(n)
    return out


def refines_at(f, g, w):
    """Judged g-blocks that contain no whole f-block.

    Empty result means f block-refines g on the window: every judged
    block [g(n), g(n+1)) contains some [f(k), f(k+1)).
    """
    out = set()
    for n in _judged_refine_indices(f, g, w):
        k = bisect_left(f.values, g[n])
        if k + 1 >= len(f) or f[k + 1] > g[n + 1]:
            out.add(n)
    return out


def star_dominates_at(f, g, w):
    """Indices in the window where f exceeds g pointwise.

    Empty result means f(n) <= g(n) throughout [start, limit).  Accepts
    any integer sequences, not just increasing ones.
    """
    fv = tuple(f)
    gv = tuple(g)
    if len(fv) < w.limit or len(gv) < w.limit:
        raise LengthTooShort(f"need length >= {w.limit}, got {len(fv)} and {len(gv)}")
    return {n for n in range(w.start, w.limit) if fv[n] > gv[n]}


def e_member(z, x, f, m, w):
    """Whether z disagrees with x somewhere inside every f-block from index m on.

    The window supplies only the value limit; the threshold is the
    explicit ``m``.  Requires f to fit under the limit and both words to
    cover f's range.  Vacuously true when no block is judged.
    """
    if len(f) == 0:
        raise EmptySequence("membership needs a nonempty block sequence")
    if f.last > w.limit:
        raise LengthTooShort(f"blocks reach {f.last}, past the window limit {w.limit}")
    if len(z) < f.last or len(x) < f.last:
        raise LengthTooShort(f"words must cover positions below {f.last}")
    for n in range(m, len(f) - 1):
        if all(z[j] == x[j] for j in range(f[n], f[n + 1])):
            return False
    return True


def non_subset_witness(x, y, f, g, w):
    """A word that disagrees with x in every f-block yet copies y on two g-blocks.

    Violating g-blocks are thinned greedily to a pairwise non-adjacent
    selection A'; the word is y on the selected blocks and the flip of x
    everywhere else.  Non-adjacency matters: no f-block can span from one
    selected block to another without crossing an unselected gap, where
    the flip forces a disagreement.  Raises InsufficientViolations when
    fewer than two non-adjacent violations exist.
    """
    chosen = []
    for n in sorted(refines_at(f, g, w)):
        if chosen and n == chosen[-1] + 1:
            continue
        chosen.append(n)
    if len(chosen) < 2:
        raise InsufficientViolations(
            f"need 2 non-adjacent violating blocks, found {len(chosen)}"
        )
    need = max(f.last, g.last)
    if len(x) < need or len(y) < need:
        raise LengthTooShort(f"reference words must cover positions below {need}")
    z = [1 - x[j] for j in range(need)]
    for n in chosen:
        for j in range(g[n], g[n + 1]):
            z[j] = y[j]
    return BitSeq(z)


def remark_counterexamples(bound):
    """Search for the two pairs separating pointwise domination from refinement.

    Returns ((f1, g1), (f2, g2)) where f1 stays pointwise below g1 yet
    fails to refine it, and f2 refines g2 while exceeding it at some
    judged index.  The search enumerates equal-length increasing
    sequences under an ascending value cap, so the certificates are as
    small as they can be; both are re-checked before being returned.
    """
    if bound < 16:
        raise SpecError(f"search bound must be at least 16, got {bound}")
    pointwise_only = None
    refining_only = None
    for cap in range(2, bound + 1):
        for length in (3, 4, 5):
            for fv in combinations(range(cap + 1), length):
                f = IncSeq(fv)
                for gv in combinations(range(cap + 1), length):
                    g = IncSeq(gv)
                    star = star_dominates_at(fv, gv, Window(0, length))
                    w_ref = Window(0, g.last)
                    violations = refines_at(f, g, w_ref)
                    if pointwise_only is None and not star and violations:
                        pointwise_only = (f, g)
                    if (
                        refining_only is None
                        and not violations
                        and star
                        and _judged_refine_indices(f, g, w_ref)
                    ):
                        refining_only = (f, g)
                    if pointwise_only and refining_only:
                        return pointwise_only, refining_only
    raise SearchExhausted(f"no certificate pair below value cap {bound}")
