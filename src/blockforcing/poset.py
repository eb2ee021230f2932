"""Finite strict posets, cofinal ranks, and the induced strict-below order.

Members of the cofinal set are ranked by their height inside that set,
every other element borrows the smallest rank found strictly above it,
and ``top_rank`` is one past the highest rank.  The derived relation
``x << y`` (strictly below in both order and rank) is what the
condition and engine layers consume.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import CycleError, NotCofinal, SpecError, UnknownElement


@dataclass(frozen=True, init=False)
class Poset:
    """A finite set of string identifiers with a strict partial order.

    The constructor accepts any relation whose transitive closure is
    irreflexive and stores the closure, so ``lt`` answers in O(1).
    """

    elements: frozenset
    pairs: frozenset

    def __init__(self, elements, relations=()):
        elems = frozenset(elements)
        succ = {x: set() for x in elems}
        for pair in relations:
            a, b = pair
            if a not in elems or b not in elems:
                raise UnknownElement(f"relation {pair!r} mentions an element not in {sorted(elems)}")
            succ[a].add(b)

        closed = set()
        for x in elems:
            seen = set()
            stack = list(succ[x])
            while stack:
                y = stack.pop()
                if y in seen:
                    continue
                seen.add(y)
                stack.extend(succ[y])
            if x in seen:
                raise CycleError(f"element {x!r} is reachable from itself")
            closed.update((x, y) for y in seen)

        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "pairs", frozenset(closed))

    def _check(self, x):
        if x not in self.elements:
            raise UnknownElement(f"{x!r} is not an element of this poset")

    def lt(self, x, y):
        """Strict order: ``x < y``."""
        self._check(x)
        self._check(y)
        return (x, y) in self.pairs

    def leq(self, x, y):
        self._check(x)
        self._check(y)
        return x == y or (x, y) in self.pairs

    def maximal_elements(self):
        """Elements with nothing strictly above them."""
        tops = set(self.elements)
        for x, _y in self.pairs:
            tops.discard(x)
        return frozenset(tops)


@dataclass(frozen=True, eq=False)
class RankedPoset:
    """A poset together with a cofinal set and the rank it induces."""

    poset: Poset
    cofinal: frozenset
    ranks: dict
    top_rank: int

    def rank_of(self, x):
        if x not in self.ranks:
            raise UnknownElement(f"{x!r} has no rank here")
        return self.ranks[x]

    def ll(self, x, y):
        """Whether ``x`` sits strictly below ``y`` in both order and rank."""
        return self.poset.lt(x, y) and self.ranks[x] < self.ranks[y]

    @cached_property
    def below(self):
        """Each element's down-set: everything strictly below it in both senses."""
        elements = self.poset.elements
        return {y: frozenset(x for x in elements if self.ll(x, y)) for y in elements}

    @cached_property
    def at_rank(self):
        """Each rank's elements, sorted."""
        return {r: sorted(x for x in self.ranks if self.ranks[x] == r) for r in set(self.ranks.values())}

    @cached_property
    def same_rank_pairs(self):
        """Every pair ``(c, b)`` with ``b < c`` at one rank, sorted."""
        return tuple(sorted((c, b) for b, c in self.poset.pairs if self.ranks[b] == self.ranks[c]))


def compute_ranks(poset, cofinal=None):
    """Rank every element against a cofinal set.

    Cofinal members get their height inside the set; anything else gets
    the least rank occurring strictly above it.  Raises
    :class:`NotCofinal` when some element has no bound in the set.
    """
    cof = frozenset(poset.elements) if cofinal is None else frozenset(cofinal)
    for r in cof:
        poset._check(r)

    heights = {}

    def height(r):
        if r not in heights:
            below = [height(s) for s in cof if poset.lt(s, r)]
            heights[r] = 1 + max(below) if below else 0
        return heights[r]

    for r in cof:
        height(r)

    ranks = dict(heights)
    for q in poset.elements - cof:
        above = [heights[r] for r in cof if poset.lt(q, r)]
        if not above:
            raise NotCofinal(f"{q!r} has no bound in the cofinal set {sorted(cof)}")
        ranks[q] = min(above)

    top_rank = 1 + max(heights.values()) if heights else 0
    return RankedPoset(poset=poset, cofinal=cof, ranks=ranks, top_rank=top_rank)


def restricted_linear_order(poset, coords):
    """Order ``coords`` compatibly with the poset, smallest name first."""
    todo = set(coords)
    for x in todo:
        poset._check(x)
    out = []
    while todo:
        ready = [x for x in todo if not any(poset.lt(y, x) for y in todo)]
        pick = min(ready)
        out.append(pick)
        todo.remove(pick)
    return out


def load_poset(obj):
    """Build ``(Poset, cofinal_set)`` from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise SpecError("poset JSON must be an object")
    elements = obj.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise SpecError('"elements" must be a list of strings')
    relations = obj.get("relations", [])
    if not isinstance(relations, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(e, str) for e in p)
        for p in relations
    ):
        raise SpecError('"relations" must be a list of [a, b] pairs')
    poset = Poset(elements, [tuple(p) for p in relations])
    cof_raw = obj.get("cofinal_set", elements)
    if not isinstance(cof_raw, list) or not all(isinstance(e, str) for e in cof_raw):
        raise SpecError('"cofinal_set" must be a list of strings')
    stray = frozenset(cof_raw) - poset.elements
    if stray:
        raise SpecError(f"cofinal_set mentions unknown elements {sorted(stray)}")
    return poset, frozenset(cof_raw)


def dump_poset(poset, cofinal=None):
    obj = {
        "elements": sorted(poset.elements),
        "relations": sorted([a, b] for a, b in poset.pairs),
    }
    if cofinal is not None:
        obj["cofinal_set"] = sorted(cofinal)
    return obj
