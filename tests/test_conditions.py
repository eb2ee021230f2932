"""Names, certificates, and the four-clause extension order."""

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
EMPTY = Condition(frozenset(), {}, {})


def _plain(support, cohen01, tvals, names=None):
    """Assemble a condition from terse literals."""
    names = names or {}
    return Condition(
        support=frozenset(support),
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
    # Every call past the bound must fail, not just the first: an
    # overflow may not leave the depth counter below where it started.
    nm = GroundName(0, 1)
    for _ in range(65):
        nm = MergeName(nm, GroundName(0, 1))
    ws = _empty_ws()
    for _ in range(2):
        with pytest.raises(CannotAdvance):
            ws.next_block(nm, 0)


# -- serialization --


def test_workspace_round_trip():
    q = start_condition(V_RP)
    assert condition_of(workspace_of(q, V_RP), V_RP) == q

