"""Name families: deferred descriptions of increasing sequences.

A name does not hold its sequence; it says how to read one off the
shared state (Cohen bit prefixes and per-coordinate t-sequences) that a
workspace carries.  Four families cover everything the engine needs:

- ground(start, step): the fixed arithmetic sequence, independent of state
- coordinate(a): whatever t_a currently is
- diagonal(pattern, rank): the positions where the Cohen prefix at that
  rank disagrees with the pattern
- merge(left, right): the coarsest sequence each of whose blocks contains
  a whole block of each child

A merge records what it reads (coordinates and diagonal ranks) when it is
built, from its children's records, so no query walks a name's leaves.
"""

from dataclasses import dataclass, field

from .patterns import GroundReal


@dataclass(frozen=True)
class GroundName:
    start: int
    step: int = 1

    def __post_init__(self):
        if self.start < 0 or self.step < 1:
            raise ValueError(f"need start >= 0 and step >= 1, got ({self.start}, {self.step})")


@dataclass(frozen=True)
class CoordinateName:
    element: str


@dataclass(frozen=True)
class DiagonalName:
    pattern: GroundReal
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"rank must be a natural number, got {self.rank}")


@dataclass(frozen=True)
class MergeName:
    left: object
    right: object
    # Walk caches key on merge names, and nested merges would otherwise
    # rehash their whole tree on every lookup.
    _hash: int = field(init=False, repr=False, compare=False)
    # Merge levels from here down to the deepest leaf; walks bound it.
    depth: int = field(init=False, repr=False, compare=False)
    # The coordinates and diagonal rank tags the name reads.
    elements: frozenset = field(init=False, repr=False, compare=False)
    ranks: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        left, right = self.left, self.right
        object.__setattr__(self, "_hash", hash((left, right)))
        object.__setattr__(self, "depth", 1 + max(getattr(left, "depth", 0), getattr(right, "depth", 0)))
        object.__setattr__(self, "elements", coordinate_elements(left) | coordinate_elements(right))
        object.__setattr__(self, "ranks", diagonal_ranks(left) | diagonal_ranks(right))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # Cached hash and depth part most unequal names; the rest walks a stack, any depth.
        if not isinstance(other, MergeName):
            return NotImplemented
        if self._hash != other._hash or self.depth != other.depth:
            return False
        pending = [(self, other)]
        while pending:
            x, y = pending.pop()
            if isinstance(x, MergeName) and isinstance(y, MergeName):
                if x is not y:
                    pending += ((x.right, y.right), (x.left, y.left))
            elif x != y:
                return False
        return True


def descriptor(nm):
    """A JSON-ready structural tag for a name."""
    if isinstance(nm, GroundName):
        return {"kind": "ground", "start": nm.start, "step": nm.step}
    if isinstance(nm, CoordinateName):
        return {"kind": "coordinate", "element": nm.element}
    if isinstance(nm, DiagonalName):
        return {
            "kind": "diagonal",
            "pattern": nm.pattern.spec,
            "seed": nm.pattern.seed,
            "rank": nm.rank,
        }
    if isinstance(nm, MergeName):
        return {"kind": "merge", "left": descriptor(nm.left), "right": descriptor(nm.right)}
    raise ValueError(f"unknown name {nm!r}")


# What a name that reads nothing of the kind reads: one set for every such leaf.
_NOTHING = frozenset()


def diagonal_ranks(nm):
    """All rank tags of diagonal names inside nm."""
    if isinstance(nm, MergeName):
        return nm.ranks
    return frozenset((nm.rank,)) if isinstance(nm, DiagonalName) else _NOTHING


def coordinate_elements(nm):
    """All coordinates whose t-sequences nm reads."""
    if isinstance(nm, MergeName):
        return nm.elements
    return frozenset((nm.element,)) if isinstance(nm, CoordinateName) else _NOTHING
