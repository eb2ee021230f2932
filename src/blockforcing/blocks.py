"""Finite-resolution block combinatorics over increasing sequences.

An increasing sequence f carves the naturals into blocks [f(n), f(n+1)).
The relations here compare two sequences block-wise (refinement), value
by value (pointwise domination), or through a 0/1 word's disagreements
with a reference word inside each block.  Cofinite statements are cut
down to a :class:`Window`: a threshold where judging starts and a limit
beyond which nothing is judged.  Every comparison returns the set of
violating indices instead of a bare boolean, so a caller can tell a
violation before the threshold from one inside the judged range.

Sequences are read as plain tuples (``IncSeq.values``, or a caller's
list or tuple converted once).  A 0/1 word is ``bytes`` (``BitSeq.bits``
already is; ``_word`` converts anything else once), and a block is
compared as one slice, ``z[lo:hi] == x[lo:hi]``, instead of bit by bit.
Every word passes through ``_word`` before it is sliced, so a tuple or
list never meets ``bytes`` in a comparison, where it would never be equal.
Whole-word steps are single ``bytes`` calls: ``BitSeq`` checks a word
with one ``translate`` and ``non_subset_witness`` flips x with another.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from operator import index, lt

from .errors import (
    EmptySequence,
    InsufficientViolations,
    LengthTooShort,
    SearchExhausted,
    SpecError,
)


# Swaps 0 and 1 in a word held as bytes.
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
_TO01 = bytes.maketrans(b"\x00\x01", b"01")


def _integers(values):
    """values as a tuple of ints: a bool becomes 0 or 1, a float or string is rejected."""
    vals = tuple(values)
    try:
        return tuple(map(index, vals))
    except TypeError as err:
        raise ValueError(f"entries must be integers: {err}") from None


def _tuple(seq):
    """The entries of seq as a tuple; IncSeq hands over its own."""
    if isinstance(seq, IncSeq):
        return seq.values
    return tuple(seq)


def _word(bits):
    """The word bits as bytes; BitSeq hands over its own, and bytes is kept as it is."""
    if isinstance(bits, BitSeq):
        return bits.bits
    return bytes(bits)


@dataclass(frozen=True, init=False)
class IncSeq:
    """A finite, strictly increasing sequence of naturals."""

    values: tuple

    def __init__(self, values=()):
        vals = _integers(values)
        if vals and (vals[0] < 0 or not all(map(lt, vals, vals[1:]))):
            # Only a rejected sequence pays for finding its first offender.
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
    """A finite word over {0, 1}, held as ``bytes`` and validated once, when built:
    any container of integers becomes ``bytes``, and one ``translate`` checks it."""

    bits: bytes

    def __init__(self, bits=b""):
        vals = bits if isinstance(bits, (bytes, bytearray)) else _integers(bits)
        try:
            word = bytes(vals)
            if word.translate(None, b"\x00\x01"):
                raise ValueError
        except ValueError:  # a byte other than 0 or 1, or an entry outside range(256)
            raise ValueError("bits must be 0 or 1") from None
        object.__setattr__(self, "bits", word)

    @classmethod
    def from01(cls, text):
        return cls(int(ch) for ch in text)

    def to01(self):
        return self.bits.translate(_TO01).decode("ascii")

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


def _judged_refine_indices(fv, gv, w):
    # g-block n is judged when it lies past the index threshold and its
    # right endpoint is covered by both the window and f's range; g
    # increases, so the judged blocks are one run of indices.
    if not fv or not gv:
        raise EmptySequence("refinement needs nonempty sequences")
    cap = min(w.limit, fv[-1])
    return range(w.start, bisect_right(gv, cap) - 1)


def refines_at(f, g, w):
    """Judged g-blocks that contain no whole f-block.

    Empty result means f block-refines g on the window: every judged
    block [g(n), g(n+1)) contains some [f(k), f(k+1)).
    """
    fv, gv = _tuple(f), _tuple(g)
    out = set()
    for n in _judged_refine_indices(fv, gv, w):
        k = bisect_left(fv, gv[n])
        if k + 1 >= len(fv) or fv[k + 1] > gv[n + 1]:
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
    explicit ``m >= 0``.  Requires f to fit under the limit and both words to
    cover f's range.  Vacuously true when no block is judged.
    """
    if m < 0:
        raise ValueError(f"threshold must be a natural number, got {m}")
    fv = _tuple(f)
    if not fv:
        raise EmptySequence("membership needs a nonempty block sequence")
    last = fv[-1]
    if last > w.limit:
        raise LengthTooShort(f"blocks reach {last}, past the window limit {w.limit}")
    zv, xv = _word(z), _word(x)
    if len(zv) < last or len(xv) < last:
        raise LengthTooShort(f"words must cover positions below {last}")
    for n in range(m, len(fv) - 1):
        lo, hi = fv[n], fv[n + 1]
        if zv[lo:hi] == xv[lo:hi]:
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
    fv, gv = _tuple(f), _tuple(g)
    chosen = []
    for n in sorted(refines_at(fv, gv, w)):
        if chosen and n == chosen[-1] + 1:
            continue
        chosen.append(n)
    if len(chosen) < 2:
        raise InsufficientViolations(
            f"need 2 non-adjacent violating blocks, found {len(chosen)}"
        )
    need = max(fv[-1], gv[-1])
    xv, yv = _word(x), _word(y)
    if len(xv) < need or len(yv) < need:
        raise LengthTooShort(f"reference words must cover positions below {need}")
    z = bytearray(xv[:need].translate(_FLIP))
    for n in chosen:
        lo, hi = gv[n], gv[n + 1]
        z[lo:hi] = yv[lo:hi]
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
                        and _judged_refine_indices(fv, gv, w_ref)
                    ):
                        refining_only = (f, g)
                    if pointwise_only and refining_only:
                        return pointwise_only, refining_only
    raise SearchExhausted(f"no certificate pair below value cap {bound}")
