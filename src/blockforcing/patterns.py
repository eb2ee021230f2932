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

from dataclasses import dataclass, field

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
    """An infinite bit sequence named by a spec string.

    The spec is parsed once, here: a constant or periodic kind becomes its
    repeating word of bits, a seeded kind its mixed seed and tag, so
    ``bit`` reads no string.
    """

    spec: str
    seed: int = 0
    # One period of bits, or None for the seeded kind, which mixes _mix instead.
    _word: tuple = field(init=False, repr=False, compare=False)
    _mix: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = self.spec
        if not isinstance(kind, str):
            raise SpecError(f"pattern spec must be a string, got {kind!r}")
        word, mix = None, None
        if kind in ("zeros", "ones"):
            word = (int(kind == "ones"),)
        elif kind.startswith("periodic:"):
            text = kind[len("periodic:"):]
            if not text or any(ch not in "01" for ch in text):
                raise SpecError(f"periodic word must be a nonempty 0/1 string, got {text!r}")
            word = tuple(int(ch) for ch in text)
        elif kind.startswith("seeded-random:"):
            text = kind[len("seeded-random:"):]
            # str.isdigit also admits superscripts and non-ASCII digits
            if not (text.isascii() and text.isdigit()):
                raise SpecError(f"seeded-random tag must be a number, got {text!r}")
            mix = (_splitmix64(self.seed & _MASK), int(text) << 32)
        else:
            raise SpecError(f"unknown pattern spec {self.spec!r}")
        object.__setattr__(self, "_word", word)
        object.__setattr__(self, "_mix", mix)

    def bit(self, j):
        """The bit at position ``j`` (``j >= 0``)."""
        if j < 0:
            raise IndexError(f"negative position {j}")
        word = self._word
        if word is not None:
            return word[j % len(word)]
        key, tag = self._mix
        return _splitmix64(key ^ _splitmix64(tag ^ j)) & 1
