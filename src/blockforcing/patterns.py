"""Ground-model bit patterns used as comparison targets.

A :class:`GroundReal` is an infinite 0/1 sequence described by a short
string so scenarios can put one in a JSON file.  Four kinds exist:

``zeros``
    the constant 0 sequence
``ones``
    the constant 1 sequence
``periodic:<word>``
    the word over ``{0,1}`` repeated forever, e.g. ``periodic:0110``
``seeded-random:<n>``
    bits drawn from a counter-mode mixer keyed by ``(seed, n)``

The seeded kind is deliberately not backed by :mod:`random`: each bit is
a pure function of ``(seed, n, j)``, so prefixes agree across platforms
and across calls regardless of evaluation order.
"""

from dataclasses import dataclass

from .errors import SpecError

_MASK = (1 << 64) - 1


def _splitmix64(z):
    # Standard finalizer; full 64-bit avalanche, good enough for test bits.
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class GroundReal:
    """An infinite bit sequence named by a spec string."""

    spec: str
    seed: int = 0

    def __post_init__(self):
        kind = self.spec
        if kind in ("zeros", "ones"):
            return
        if kind.startswith("periodic:"):
            word = kind[len("periodic:"):]
            if not word or any(ch not in "01" for ch in word):
                raise SpecError(f"periodic word must be a nonempty 0/1 string, got {word!r}")
            return
        if kind.startswith("seeded-random:"):
            tag = kind[len("seeded-random:"):]
            # str.isdigit also admits superscripts and non-ASCII digits
            if not (tag.isascii() and tag.isdigit()):
                raise SpecError(f"seeded-random tag must be a number, got {tag!r}")
            return
        raise SpecError(f"unknown pattern spec {self.spec!r}")

    def bit(self, j):
        """The bit at position ``j`` (``j >= 0``)."""
        if j < 0:
            raise IndexError(f"negative position {j}")
        if self.spec == "zeros":
            return 0
        if self.spec == "ones":
            return 1
        if self.spec.startswith("periodic:"):
            word = self.spec[len("periodic:"):]
            return int(word[j % len(word)])
        tag = int(self.spec[len("seeded-random:"):])
        mixed = _splitmix64(_splitmix64(self.seed & _MASK) ^ _splitmix64((tag << 32) ^ j))
        return mixed & 1
