"""Names, certificates, and the four-clause extension order."""

import gc
import random
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockforcing import (
    CannotAdvance,
    CoordinateName,
    DiagonalName,
    GoalPlan,
    GroundName,
    GroundReal,
    IncSeq,
    MergeName,
    Poset,
    Window,
    build_generic,
    build_goals,
    compute_ranks,
    leq_check,
    refines_at,
    restrict,
)
from blockforcing.conditions import (
    Condition,
    CoordPart,
    condition_of,
)
from blockforcing.engine import start_condition
from blockforcing.names import coordinate_elements, descriptor, diagonal_ranks
from blockforcing.resolution import Workspace
from conftest import random_poset


V_RP = compute_ranks(Poset(["a", "b", "c"], [("a", "c"), ("b", "c")]))
POINT_RP = compute_ranks(Poset(["b"]))
ZEROS = GroundReal("zeros")
EMPTY = Condition({}, {})


def _plain(support, cohen01, tvals, names=None):
    """Assemble a condition from terse literals."""
    names = names or {}
    return Condition(
        cohen={r: tuple(int(ch) for ch in s) for r, s in cohen01.items()},
        coords={b: CoordPart(tuple(tvals[b]), names.get(b, GroundName(0, 1))) for b in support},
    )


# -- names --


def test_name_constructors_validate():
    with pytest.raises(ValueError):
        GroundName(-1)
    with pytest.raises(ValueError):
        GroundName(0, 0)
    with pytest.raises(ValueError):
        DiagonalName(ZEROS, -1)


def test_merge_names_compare_by_structure():
    def build():
        return MergeName(MergeName(GroundName(0, 2), CoordinateName("a")), GroundName(1, 3))

    nm, twin = build(), build()
    assert nm == twin and hash(nm) == hash(twin) and repr(nm) == repr(twin)
    assert "_hash" not in repr(nm)
    assert {nm: 1}[twin] == 1
    assert nm != MergeName(GroundName(1, 3), nm.left)


def _spine(depth, side, deepest=GroundName(0, 1)):
    """A merge nested depth levels down its left or right children, over deepest."""
    nm = deepest
    for k in range(depth):
        nm = MergeName(nm, GroundName(k, 1)) if side == "left" else MergeName(GroundName(k, 1), nm)
    return nm


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("depth", [1, 63, 64, 65, 70])
def test_merge_equality_agrees_with_the_structure(depth, side):
    # short and long spines, nested left or right, compare as their structure does
    nm = _spine(depth, side)
    twin, odd = _spine(depth, side), _spine(depth, side, deepest=GroundName(0, 2))
    for other, same in ((twin, True), (odd, False)):
        assert other is not nm
        assert (descriptor(nm) == descriptor(other)) is same
        assert (nm == other) is same and (nm != other) is not same
        assert (hash(nm) == hash(other)) is same
        assert ({nm: "found"}.get(other) == "found") is same
    # with the cached hash forced alike, only the walk down the tree parts them
    object.__setattr__(odd, "_hash", hash(nm))
    assert nm != odd and odd != nm


def test_descriptor_tags():
    nm = MergeName(GroundName(2, 3), CoordinateName("a"))
    assert descriptor(nm) == {
        "kind": "merge",
        "left": {"kind": "ground", "start": 2, "step": 3},
        "right": {"kind": "coordinate", "element": "a"},
    }
    assert descriptor(DiagonalName(GroundReal("ones", 7), 1)) == {
        "kind": "diagonal",
        "pattern": "ones",
        "seed": 7,
        "rank": 1,
    }
    with pytest.raises(ValueError):
        descriptor(object())


def test_name_introspection():
    nm = MergeName(DiagonalName(ZEROS, 2), MergeName(CoordinateName("a"), CoordinateName("b")))
    assert diagonal_ranks(nm) == {2}
    assert coordinate_elements(nm) == {"a", "b"}
    assert diagonal_ranks(GroundName(0)) == set()
    assert coordinate_elements(GroundName(0)) == set()


# -- restrict --


def test_restrict_cuts_to_the_lower_cone():
    p = _plain({"a", "b", "c"}, {0: "01", 1: "1"}, {"a": (1,), "b": (2,), "c": (3,)})
    below_c = restrict(p, "c", V_RP)
    assert below_c.support == {"a", "b"}
    assert set(below_c.cohen) == {0}
    assert set(below_c.coords) == {"a", "b"}
    assert restrict(p, "a", V_RP) == EMPTY


# -- the extension order, clause by clause --


def test_leq_reflexive_and_empty():
    p = _plain({"a", "b"}, {0: "10"}, {"a": (1, 4), "b": (2,)})
    assert leq_check(p, p, V_RP)
    assert leq_check(p, EMPTY, V_RP)
    report = leq_check(EMPTY, p, V_RP)
    assert not report
    assert {v.clause for v in report.violations} == {"1", "2"}


def test_clause_1_dropped_support():
    q = _plain({"a"}, {0: ""}, {"a": ()})
    p = _plain({"b"}, {0: ""}, {"b": ()})
    report = leq_check(p, q, V_RP)
    assert [v.clause for v in report.violations] == ["1"]
    assert report.violations[0].subject == ("a",)


def test_clause_2_cohen_prefix():
    q = _plain({"a"}, {0: "01"}, {"a": ()})
    good = _plain({"a"}, {0: "010"}, {"a": ()})
    bad = _plain({"a"}, {0: "00"}, {"a": ()})
    assert leq_check(good, q, V_RP)
    report = leq_check(bad, q, V_RP)
    assert [(v.clause, v.subject) for v in report.violations] == [("2", 0)]


def test_clause_3_t_prefix():
    q = _plain({"b"}, {0: ""}, {"b": (1, 2)})
    p = _plain({"b"}, {0: ""}, {"b": (1,)})
    report = leq_check(p, q, POINT_RP)
    assert [(v.clause, v.subject) for v in report.violations] == [("3", "b")]


def test_clause_3a_uncertified_name_change():
    old = GroundName(0, 1)
    new = MergeName(old, GroundName(0, 2))
    q = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": old})
    p = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": new})
    report = leq_check(p, q, POINT_RP)
    assert [(v.clause, v.subject) for v in report.violations] == [("3a", "b")]
    assert leq_check(p, q, POINT_RP, frozenset({new}))


def test_clause_3a_certificates_chain():
    g1 = GroundName(0, 1)
    m1 = MergeName(g1, GroundName(0, 2))
    m2 = MergeName(m1, GroundName(0, 3))
    q = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": g1})
    p = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": m2})
    assert leq_check(p, q, POINT_RP, frozenset({m1, m2}))
    report = leq_check(p, q, POINT_RP, frozenset({m2}))
    assert [v.clause for v in report.violations] == ["3a"]


def test_clause_3b_forced_block_in_new_gaps():
    # The gap below the first value carries no obligation; gaps between
    # values must hold a whole determined block of the old name.
    q = _plain({"b"}, {0: ""}, {"b": ()}, {"b": GroundName(0, 100)})
    p = _plain({"b"}, {0: ""}, {"b": (5, 8)}, {"b": GroundName(0, 100)})
    report = leq_check(p, q, POINT_RP)
    assert [(v.clause, v.subject) for v in report.violations] == [("3b", "b")]
    assert "index 1" in report.violations[0].detail

    q_fine = _plain({"b"}, {0: ""}, {"b": ()}, {"b": GroundName(0, 1)})
    p_fine = _plain({"b"}, {0: ""}, {"b": (5, 8)}, {"b": GroundName(0, 1)})
    assert leq_check(p_fine, q_fine, POINT_RP)


def test_clause_3b_reads_the_cohen_prefix():
    # A diagonal name is decided by the bits riding along at its rank:
    # "0111" against all-zeros pins the disagreement blocks (1,2), (2,3).
    nm = DiagonalName(ZEROS, 0)
    q = _plain({"b"}, {0: "0111"}, {"b": ()}, {"b": nm})
    decided = _plain({"b"}, {0: "0111"}, {"b": (2, 3)}, {"b": nm})
    assert leq_check(decided, q, POINT_RP)
    undecided = _plain({"b"}, {0: "0111"}, {"b": (3, 9)}, {"b": nm})
    report = leq_check(undecided, q, POINT_RP)
    assert [(v.clause, v.subject) for v in report.violations] == [("3b", "b")]


def _deep_merge(depth):
    nm = GroundName(0, 1)
    for _ in range(depth):
        nm = MergeName(nm, GroundName(0, 1))
    return nm


@pytest.mark.parametrize(
    "rp, cohen01, old_t, new_t, name",
    [
        # t_b holds whole blocks inside [1, 5), but b is not below a
        (V_RP, {0: ""}, {"a": (1,), "b": (1, 2, 3, 4)}, {"a": (1, 5)}, CoordinateName("b")),
        # the rank-1 bits disagree inside [1, 3), but rank 1 is c's, not a's
        (V_RP, {0: "", 1: "1111"}, {"a": (1,)}, {"a": (1, 3)}, DiagonalName(ZEROS, 1)),
        # nested far past the walk bound: undecidable, not a RecursionError
        (compute_ranks(Poset(["a"])), {0: ""}, {"a": (1,)}, {"a": (1, 2)}, _deep_merge(5000)),
    ],
    ids=["coordinate-beside", "diagonal-above", "deep-merge"],
)
def test_clause_3b_judges_only_what_lies_below(rp, cohen01, old_t, new_t, name):
    support = set(old_t)
    q = _plain(support, cohen01, old_t, {"a": name})
    p = _plain(support, cohen01, {**old_t, **new_t}, {"a": name})
    report = leq_check(p, q, rp)
    assert [(v.clause, v.subject) for v in report.violations] == [("3b", "a")]


def test_equal_deep_names_link_without_recursion():
    # equal names nested 5,000 deep that share no node
    old, new = _deep_merge(5000), _deep_merge(5000)
    assert old is not new and old == new
    assert old != _deep_merge(4999) and MergeName(old, GroundName(0, 2)) != new
    # merges nested on the right compare without recursion too
    right = [GroundName(0, 1), GroundName(0, 1)]
    for _ in range(5000):
        right = [MergeName(GroundName(0, 1), nm) for nm in right]
    assert right[0] == right[1] and right[0] != MergeName(GroundName(0, 2), right[1].right)

    class Tie:  # every instance hashes alike: only the structure parts them
        def __hash__(self):
            return 0

    assert MergeName(old, Tie()) != MergeName(new, Tie())

    q = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": old})
    assert leq_check(_plain({"b"}, {0: ""}, {"b": (1,)}, {"b": new}), q, POINT_RP)
    # a certificate built over yet another copy still links old to the merge
    merged = MergeName(new, GroundName(0, 2))
    cert = MergeName(_deep_merge(5000), GroundName(0, 2))
    p = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": merged})
    assert leq_check(p, q, POINT_RP, {cert})
    assert not leq_check(p, q, POINT_RP)


def test_one_cache_serves_a_whole_chain():
    # c's name merges t_a with the rank-1 disagreements.  The second link
    # opens a gap at c that the data does not yet decide; the third link
    # grows the data and decides it.
    names = {"a": DiagonalName(ZEROS, 0), "c": MergeName(CoordinateName("a"), DiagonalName(ZEROS, 1))}
    support = {"a", "b", "c"}
    chain = [
        _plain(support, {0: "", 1: ""}, {"a": (), "b": (), "c": ()}, names),
        _plain(support, {0: "1111111", 1: "11"}, {"a": (1, 2, 3), "b": (1,), "c": (0, 2)}, names),
        _plain(support, {0: "1111111", 1: "11"}, {"a": (1, 2, 3), "b": (1,), "c": (0, 2, 3)}, names),
        _plain(
            support, {0: "1111111", 1: "11111"}, {"a": (1, 2, 3, 4, 5), "b": (1, 2), "c": (0, 2, 3, 5)}, names
        ),
    ]
    views = [lambda cond: cond] + [
        lambda cond, b=b: restrict(cond, b, V_RP) for b in sorted(support)
    ]
    for view in views:
        cache = {}
        for q, p in zip(chain, chain[1:]):
            threaded = leq_check(view(p), view(q), V_RP, cache=cache)
            assert threaded == leq_check(view(p), view(q), V_RP)
    reports = [leq_check(p, q, V_RP) for q, p in zip(chain, chain[1:])]
    assert [[(v.clause, v.subject) for v in r.violations] for r in reports] == [
        [],
        [("3b", "c")],
        [],
    ]


def _cut(cond, support, rp):
    """cond on the coordinates in support and the ranks they occupy."""
    ranks = {rp.ranks[x] for x in support}
    return Condition(
        cohen={r: bits for r, bits in cond.cohen.items() if r in ranks},
        coords={x: part for x, part in cond.coords.items() if x in support},
    )


def test_threaded_cache_matches_no_cache_as_the_support_moves():
    # Engine chains cut to a support that grows link by link, checked with
    # one cache along the chain and with a second one that also takes links
    # restricted below some coordinate in between: whatever a cache
    # remembers must follow each new support.
    reals = (GroundReal("seeded-random:1"), GroundReal("periodic:01"))
    verdicts = set()
    for seed in range(20):
        rng = random.Random(seed)
        rp = compute_ranks(random_poset(seed, max_elements=5))
        run = build_generic(rp, build_goals(rp, reals, GoalPlan()), 10**6)
        certs = run.certificates
        elements = sorted(rp.poset.elements)
        support = set(rng.sample(elements, rng.randint(0, len(elements))))
        plain, mixed = {}, {}
        q = _cut(run.chain[0], support, rp)
        for link in run.chain[1:]:
            support |= {x for x in elements if rng.random() < 0.05}
            p = _cut(link, support, rp)
            expected = leq_check(p, q, rp, certs)
            assert leq_check(p, q, rp, certs, cache=plain) == expected
            assert leq_check(p, q, rp, certs, cache=mixed) == expected
            verdicts.add(tuple(sorted({v.clause for v in expected.violations})))
            if rng.random() < 0.3:
                b = rng.choice(elements)
                below_p, below_q = restrict(p, b, rp), restrict(q, b, rp)
                expected = leq_check(below_p, below_q, rp, certs)
                assert leq_check(below_p, below_q, rp, certs, cache=mixed) == expected
            q = p
    # Both sound links and clause 3b failures occur, so the check has teeth.
    assert () in verdicts and ("3b",) in verdicts


def test_threaded_cache_follows_a_new_old_name():
    # The same support throughout, but a's old name changes to one that
    # reads b, which is not below a: its fresh gap must fail clause 3b
    # with a threaded cache as without one, though t_b decides a block.
    reads_b = MergeName(GroundName(0, 1), CoordinateName("b"))
    support = {"a", "b", "c"}
    chain = [
        _plain(support, {0: ""}, {"a": (), "b": (), "c": ()}),
        _plain(support, {0: ""}, {"a": (0, 1), "b": (), "c": ()}, {"a": reads_b}),
        _plain(support, {0: ""}, {"a": (0, 1, 5), "b": (0, 2, 4), "c": ()}, {"a": reads_b}),
    ]
    cache = {}
    reports = [leq_check(p, q, V_RP, cache=cache) for q, p in zip(chain, chain[1:])]
    assert reports == [leq_check(p, q, V_RP) for q, p in zip(chain, chain[1:])]
    assert [(v.clause, v.subject) for v in reports[1].violations] == [("3b", "a")]


def test_dropped_workspaces_free_without_the_cycle_collector():
    # Walks hold no workspace, so neither an extending workspace nor the
    # order check's cached view is kept alive by a reference cycle.
    run = build_generic(V_RP, build_goals(V_RP, (ZEROS,), GoalPlan()), 10**6)
    last = run.chain[-1]
    ws = Workspace(V_RP, last.cohen, last.coords)
    ws.next_block(ws.coords["c"].name, ws.coords["c"].t[-1])
    cache = {}
    for q, p in zip(run.chain, run.chain[1:]):
        assert leq_check(p, q, V_RP, run.certificates, cache=cache)
    kinds = {GroundName, CoordinateName, DiagonalName, MergeName}
    assert {type(nm) for nm in ws._walks} == kinds
    assert {type(nm) for nm in cache["view"]._walks} == kinds
    refs = [weakref.ref(ws), weakref.ref(cache["view"])]
    gc.disable()
    try:
        del ws, cache
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_clause_4_same_rank_nesting():
    chain_rp = compute_ranks(Poset(["a", "b"], [("a", "b")]), {"b"})
    assert chain_rp.ranks == {"a": 0, "b": 0}
    q = _plain({"a", "b"}, {0: ""}, {"a": (0,), "b": (1,)})
    bad = _plain({"a", "b"}, {0: ""}, {"a": (0,), "b": (1, 5)})
    report = leq_check(bad, q, chain_rp)
    assert [(v.clause, v.subject) for v in report.violations] == [("4", ("a", "b"))]
    assert "index 1" in report.violations[0].detail

    good = _plain({"a", "b"}, {0: ""}, {"a": (0, 2, 4), "b": (1, 5)})
    assert leq_check(good, q, chain_rp)


def test_clause_4_violations_in_pair_order():
    # one rank: only w is cofinal, so the whole diamond ties at rank 0
    diamond = compute_ranks(
        Poset(["w", "x", "y", "z"], [("x", "y"), ("x", "z"), ("y", "w"), ("z", "w")]), {"w"}
    )
    support = {"w", "x", "y", "z"}
    q = _plain(support, {0: ""}, {b: () for b in support})
    # y's gap [5, 6) misses x, w's gap [10, 20) misses y; the rest nest
    tvals = {"w": (10, 20), "x": (11, 12, 13, 14, 15), "y": (5, 6), "z": (14, 15)}
    report = leq_check(_plain(support, {0: ""}, tvals), q, diamond)
    # ordered by the upper coordinate, then the lower one
    assert [(v.clause, v.subject) for v in report.violations] == [
        ("4", ("y", "w")),
        ("4", ("x", "y")),
    ]


def test_leq_ignores_unrelated_growth():
    # New coordinates and new ranks on the stronger side carry no clauses.
    q = _plain({"a"}, {0: "1"}, {"a": (1,)})
    p = _plain({"a", "b", "c"}, {0: "10", 1: "0"}, {"a": (1, 2), "b": (3,), "c": (4,)})
    assert leq_check(p, q, V_RP)


# -- walking names off a workspace --


def _walk(ws, nm, target_len):
    """The first target_len values of nm's sequence, read block by block."""
    block = ws.next_block(nm, 0)
    prefix = [block[0], block[1]]
    while len(prefix) < target_len:
        block = ws.next_block(nm, prefix[-1])
        if block[0] == prefix[-1]:
            prefix.append(block[1])
        else:
            prefix.extend(block)
    return prefix


def _empty_ws(rp=POINT_RP):
    return Workspace(rp, {}, {})


def test_resolve_ground_is_pure():
    ws = _empty_ws()
    assert _walk(ws, GroundName(0, 1), 5) == [0, 1, 2, 3, 4]
    assert condition_of(ws, EMPTY) == EMPTY
    assert ws.cohen == {}


def test_resolve_diagonal_flips_the_pattern():
    ws = _empty_ws()
    assert _walk(ws, DiagonalName(ZEROS, 0), 3) == [0, 1, 2]
    assert ws.cohen == {0: [1, 1, 1]}
    assert ws.coords == {}


def test_resolve_merge_covers_both_children():
    left, right = GroundName(0, 2), GroundName(0, 3)
    prefix = IncSeq(_walk(_empty_ws(), MergeName(left, right), 3))
    assert tuple(prefix) == (0, 3, 6)
    w = Window(0, prefix.last)
    assert refines_at(IncSeq((0, 2, 4, 6)), prefix, w) == set()
    assert refines_at(IncSeq((0, 3, 6)), prefix, w) == set()


def test_resolve_coordinate_ladders_the_condition():
    rp = compute_ranks(Poset(["a"]))
    q = start_condition(rp)
    ws = Workspace(rp, q.cohen, q.coords)
    assert _walk(ws, CoordinateName("a"), 3) == [1, 2, 3]
    assert condition_of(ws, EMPTY).coords["a"].t == (1, 2, 3)


def test_resolve_prefix_stability():
    for nm in (GroundName(2, 3), MergeName(GroundName(0, 2), GroundName(1, 4)),
               DiagonalName(GroundReal("periodic:01"), 0)):
        short = _walk(_empty_ws(), nm, 4)
        long = _walk(_empty_ws(), nm, 9)
        assert long[: len(short)] == short


def test_name_depth_guard_holds_after_overflow():
    # A name nested far past the bound fails on every call, not just the
    # first, and before any of its walk is built.
    nm = _deep_merge(1000)
    assert nm.depth == 1000
    ws = _empty_ws()
    for _ in range(2):
        with pytest.raises(CannotAdvance):
            ws.next_block(nm, 0)
    assert ws._walks == {}


def _disagreement_oracle(word, pattern, lo):
    """The first two positions at or past lo where word differs from pattern."""
    found = [j for j in range(lo, len(word)) if word[j] != pattern.bit(j)][:2]
    return tuple(found) if len(found) == 2 else None


_PATTERN_SPECS = ("zeros", "ones", "periodic:0110") + tuple(
    f"seeded-random:{n}" for n in (1, 2, 3)
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=40),
    st.lists(st.sampled_from(_PATTERN_SPECS), min_size=1, max_size=3, unique=True),
    st.integers(0, 100),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 60)), min_size=1, max_size=8),
)
def test_diagonal_walks_match_a_brute_force_scan(word, specs, seed, queries):
    names = [DiagonalName(GroundReal(spec, seed), 0) for spec in specs]
    # Every name's first block first, then the drawn queries in their order.
    queries = [(nm, 0) for nm in names] + [(names[k % len(names)], lo) for k, lo in queries]

    # A shared view answers as a fresh one would, in any query order.
    shared = Workspace(POINT_RP, {0: word}, {}, extend=False)
    for nm, lo in queries:
        fresh = Workspace(POINT_RP, {0: word}, {}, extend=False)
        expected = _disagreement_oracle(word, nm.pattern, lo)
        assert shared.next_block(nm, lo) == fresh.next_block(nm, lo) == expected
    assert shared.cohen[0] == word

    # An extending workspace grows the word only by flips of the pattern
    # it reads, and only up to one past the block it returns.
    ws = Workspace(POINT_RP, {0: word}, {})
    for nm, lo in queries:
        old = list(ws.cohen[0])
        block = ws.next_block(nm, lo)
        new = ws.cohen[0]
        assert block == _disagreement_oracle(new, nm.pattern, lo)
        assert new[: len(old)] == old
        if len(new) > len(old):
            assert all(new[j] != nm.pattern.bit(j) for j in range(len(old), len(new)))
            assert len(new) == block[1] + 1


PAIR_RP = compute_ranks(Poset(["a", "b"]))
_LEAF_NAMES = st.one_of(
    st.builds(GroundName, st.integers(0, 6), st.integers(1, 4)),
    st.sampled_from([CoordinateName("a"), CoordinateName("b")]),
    st.builds(
        DiagonalName,
        st.builds(GroundReal, st.sampled_from(_PATTERN_SPECS), st.integers(0, 3)),
        st.integers(0, 1),
    ),
)


def _nested_names(levels):
    if levels == 0:
        return _LEAF_NAMES
    below = _nested_names(levels - 1)
    return st.one_of(below, st.builds(MergeName, below, below))


def _first_block(bounds, lo):
    return next(((x, y) for x, y in zip(bounds, bounds[1:]) if x >= lo), None)


def _brute_force_bounds(nm, cohen, t, limit=400):
    """nm's whole boundary list on fixed data, ground lists cut at limit."""
    if isinstance(nm, GroundName):
        return list(range(nm.start, limit, nm.step))
    if isinstance(nm, CoordinateName):
        return list(t.get(nm.element, ()))
    if isinstance(nm, DiagonalName):
        word = cohen.get(nm.rank, ())
        return [j for j in range(len(word)) if word[j] != nm.pattern.bit(j)]
    left = _brute_force_bounds(nm.left, cohen, t, limit)
    right = _brute_force_bounds(nm.right, cohen, t, limit)
    bounds = []
    while True:
        here = bounds[-1] if bounds else 0
        block_left, block_right = _first_block(left, here), _first_block(right, here)
        if block_left is None or block_right is None:
            return bounds
        if bounds:
            bounds.append(max(block_left[1], block_right[1]))
        else:
            bounds.append(min(block_left[0], block_right[0]))


def _state(ws):
    cohen = {r: list(v) for r, v in ws.cohen.items()}
    return cohen, {b: list(part.t) for b, part in ws.coords.items()}


def _coords(t, names):
    return {b: CoordPart(vals, names[b]) for b, vals in t.items()}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_nested_names(3), min_size=1, max_size=3),
    st.fixed_dictionaries({rank: st.lists(st.integers(0, 1), max_size=30) for rank in (0, 1)}),
    st.dictionaries(
        st.sampled_from(["a", "b"]), st.lists(st.integers(0, 60), unique=True).map(sorted)
    ),
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 60)), min_size=1, max_size=8),
    st.booleans(),
)
def test_merge_walks_match_a_brute_force_merge(names, cohen, t, queries, extend):
    # A shared workspace answers every query as a fresh one built from the
    # same data does, and both give the merge rule's answer on the data the
    # query leaves: the first boundary is the earlier child start, each later
    # one the further child block end.
    own = {"a": GroundName(0, 2), "b": GroundName(1, 3)}
    shared = Workspace(PAIR_RP, cohen, _coords(t, own), extend=extend)
    queries = [(names[k % len(names)], lo) for k, lo in queries]
    for nm, lo in queries:
        before = _state(shared)
        fresh = Workspace(PAIR_RP, before[0], _coords(before[1], own), extend=extend)
        block = shared.next_block(nm, lo)
        assert fresh.next_block(nm, lo) == block
        assert _state(fresh) == _state(shared)
        cohen_now, t_now = _state(shared)
        assert block == _first_block(_brute_force_bounds(nm, cohen_now, t_now), lo)
        if not extend:
            assert (cohen_now, t_now) == before
        for old, now in zip(before, (cohen_now, t_now)):
            assert all(now[key][: len(vals)] == vals for key, vals in old.items())


@pytest.mark.parametrize(
    "spec, seed, bits",
    [
        ("zeros", 0, "0" * 64),
        ("zeros", 7, "0" * 64),
        ("ones", 0, "1" * 64),
        ("ones", 7, "1" * 64),
        ("periodic:0110", 0, "0110" * 16),
        ("periodic:0110", 7, "0110" * 16),
        ("seeded-random:1", 0, "0100101001011110111000101001011011101100000000110001110011001011"),
        ("seeded-random:1", 7, "1110111001100011001011001111100111010101010001011101000011000111"),
        ("seeded-random:3", 0, "1010010101011010101000000000001000011101000111000100010100001111"),
        ("seeded-random:3", 7, "0101011111010111011000001000110111011001110110111101011101100001"),
    ],
)
def test_pattern_bits_frozen(spec, seed, bits):
    real = GroundReal(spec, seed)
    assert "".join(str(real.bit(j)) for j in range(64)) == bits


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_walk_deeper_than_the_stack_cannot_advance():
    # Within the depth bound, but deeper than the interpreter's stack
    # allows: the walk ends in CannotAdvance, never in RecursionError.
    nm = _deep_merge(200)
    ws = _empty_ws()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 150)
    try:
        for _ in range(2):
            with pytest.raises(CannotAdvance):
                ws.next_block(nm, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert ws.next_block(_deep_merge(3), 0) == (0, 1)


# -- serialization --


def test_workspace_round_trip():
    q = start_condition(V_RP)
    assert condition_of(Workspace(V_RP, q.cohen, q.coords), EMPTY) == q

