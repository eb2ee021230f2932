"""Names, certificates, and the four-clause extension order."""

import sys

import pytest

from blockforcing import (
    CannotAdvance,
    CoordinateName,
    DiagonalName,
    GroundName,
    GroundReal,
    IncSeq,
    MergeName,
    Poset,
    Window,
    compute_ranks,
    leq_check,
    refines_at,
    restrict,
)
from blockforcing.conditions import (
    Condition,
    CoordPart,
    RefinementCertificate,
    condition_of,
    workspace_of,
)
from blockforcing.engine import start_condition
from blockforcing.names import coordinate_elements, descriptor, diagonal_ranks
from blockforcing.resolution import Workspace


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


# -- certificates --


def test_certificates():
    old = GroundName(0, 1)
    RefinementCertificate(old, MergeName(old, GroundName(0, 2)))
    with pytest.raises(ValueError):
        # the old name must ride along as the left child
        RefinementCertificate(old, MergeName(GroundName(0, 2), old))
    with pytest.raises(ValueError):
        RefinementCertificate(old, old)


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
    cert = RefinementCertificate(old, new)
    assert leq_check(p, q, POINT_RP, frozenset({cert}))


def test_clause_3a_certificates_chain():
    g1 = GroundName(0, 1)
    m1 = MergeName(g1, GroundName(0, 2))
    m2 = MergeName(m1, GroundName(0, 3))
    q = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": g1})
    p = _plain({"b"}, {0: ""}, {"b": (1,)}, {"b": m2})
    c1 = RefinementCertificate(g1, m1)
    c2 = RefinementCertificate(m1, m2)
    assert leq_check(p, q, POINT_RP, frozenset({c1, c2}))
    report = leq_check(p, q, POINT_RP, frozenset({c2}))
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
    # a certificate holding yet another copy still links old to the merge
    merged = MergeName(new, GroundName(0, 2))
    cert = RefinementCertificate(_deep_merge(5000), merged)
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
    return Workspace(rp, {}, {}, {})


def test_resolve_ground_is_pure():
    ws = _empty_ws()
    assert _walk(ws, GroundName(0, 1), 5) == [0, 1, 2, 3, 4]
    assert condition_of(ws, POINT_RP) == EMPTY
    assert ws.cohen == {}


def test_resolve_diagonal_flips_the_pattern():
    ws = _empty_ws()
    assert _walk(ws, DiagonalName(ZEROS, 0), 3) == [0, 1, 2]
    assert ws.cohen == {0: [1, 1, 1]}
    assert ws.t == {} and ws.support == set()


def test_resolve_merge_covers_both_children():
    left, right = GroundName(0, 2), GroundName(0, 3)
    prefix = IncSeq(_walk(_empty_ws(), MergeName(left, right), 3))
    assert tuple(prefix) == (0, 3, 6)
    w = Window(0, prefix.last)
    assert refines_at(IncSeq((0, 2, 4, 6)), prefix, w) == set()
    assert refines_at(IncSeq((0, 3, 6)), prefix, w) == set()


def test_resolve_coordinate_ladders_the_condition():
    rp = compute_ranks(Poset(["a"]))
    ws = workspace_of(start_condition(rp), rp)
    assert _walk(ws, CoordinateName("a"), 3) == [1, 2, 3]
    assert condition_of(ws, rp).coords["a"].t == (1, 2, 3)


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
    assert ws._merge_walks == {}


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
    assert condition_of(workspace_of(q, V_RP), V_RP) == q

