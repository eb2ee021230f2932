"""The goal-driven engine: cascades, separations, verified chains."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockforcing import (
    CohenDisagreeGoal,
    CoordinateName,
    DiagonalName,
    DominateGoal,
    GoalPlan,
    GroundName,
    GroundReal,
    IncomparableGoal,
    LengthGoal,
    MergeName,
    NotIncomparable,
    Poset,
    ResolutionExhausted,
    Scenario,
    UnknownElement,
    build_generic,
    build_goals,
    compute_ranks,
    goal_descriptor,
    leq_check,
    run_scenario,
)
from blockforcing.conditions import Condition, CoordPart, condition_of
from blockforcing.engine import (
    _ladder,
    _separate,
    extract_reals_from,
    start_condition,
)
from blockforcing.resolution import Workspace
from conftest import assert_chain_sound, random_poset


ANTI_2 = compute_ranks(Poset(["a", "b"]))
ANTI_3 = compute_ranks(Poset(["x", "y", "z"]))
CHAIN_2 = compute_ranks(Poset(["a", "b"], [("a", "b")]))
TIED_CHAIN = compute_ranks(Poset(["a", "b"], [("a", "b")]), {"b"})
V_RP = compute_ranks(Poset(["a", "b", "c"], [("a", "c"), ("b", "c")]))
POINT = compute_ranks(Poset(["a"]))
# one rank: only w is cofinal, so the whole diamond ties at rank 0
DIAMOND = compute_ranks(
    Poset(["w", "x", "y", "z"], [("x", "y"), ("x", "z"), ("y", "w"), ("z", "w")]), {"w"}
)
EMPTY = Condition({}, {})


def _t(ws):
    return {b: part.t for b, part in ws.coords.items()}


def test_single_cascade_frozen_values():
    ws = _start_ws(ANTI_3)
    ws.cascade(0)
    # one round: each member's first ground block ends at 1, and all share it
    assert _t(ws) == {"x": [1], "y": [1], "z": [1]}


def test_cascade_over_diamond_levels():
    q = start_condition(DIAMOND)
    ws = Workspace(DIAMOND, q.cohen, q.coords)
    links = [q]
    for top in (None, "w", "y", "w"):
        ws.cascade(0, top=top)
        links.append(condition_of(ws, links[-1]))
        assert leq_check(links[-1], links[-2], DIAMOND)
    # rounds: all at 1; all at 2 (w's first gap [1, 2] shares its ends with
    # x's, y's and z's blocks); x, y at 3 (z and w untouched); all at 4
    assert _t(ws) == {"x": [1, 2, 3, 4], "y": [1, 2, 3, 4], "z": [1, 2, 4], "w": [1, 2, 4]}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 5), st.integers(0, 40))
def test_level_cascade_property(seed, top_index, floor):
    poset = random_poset(seed)
    rp = compute_ranks(poset, poset.maximal_elements())
    elements = sorted(poset.elements)
    top = elements[top_index % len(elements)]
    # three ladders of whole slices, then top's same-rank down-set twice
    rounds = [(r, None) for r in sorted(set(rp.ranks.values()))] * 3 + [(rp.ranks[top], top)] * 2
    prev = start_condition(rp)
    ws = Workspace(rp, prev.cohen, prev.coords)
    for rank, sel in rounds:
        chosen = [
            x for x in elements if rp.ranks[x] == rank and (sel is None or poset.leq(x, sel))
        ]
        before = {b: list(v) for b, v in _t(ws).items()}
        ws.cascade(rank, top=sel, floor=floor)
        for x in elements:
            assert ws.coords[x].t[: len(before[x])] == before[x]
            assert len(ws.coords[x].t) - len(before[x]) == (1 if x in chosen else 0)
        (value,) = {ws.coords[x].t[-1] for x in chosen}
        assert value >= floor
        assert all(value > last for x in chosen for last in before[x])
        p = condition_of(ws, prev)
        report = leq_check(p, prev, rp)
        assert report.ok, report.violations
        prev = p


def _antichain_max_t(n, min_length=12, repeats=3):
    # Each ladder round gives the whole antichain one shared value, so
    # every e_i ends the ladder at min_length.  Separating (a, b) opens
    # its gap at g, one past the larger of their last values: t_b gains
    # g and g + 1, then t_a gains g + 2.
    last = [min_length] * n
    for a in range(n):
        for b in range(n):
            for _ in range(repeats if a != b else 0):
                g = max(last[a], last[b]) + 1
                last[b], last[a] = g + 1, g + 2
    return max(last)


def test_antichain_growth_is_polynomial():
    tops = []
    for n in range(2, 9):
        sc = Scenario.from_json({"poset": {"elements": [f"e{i}" for i in range(n)]}})
        run, iso, cov = run_scenario(sc)
        assert iso.ok and cov.ok
        tops.append(max(seq.values[-1] for seq in run.derived.dominating.values()))
        assert tops[-1] == _antichain_max_t(n)
        # the start, 12 ladder links, then 3 separations per ordered pair
        assert len(run.chain) == 3 * n * (n - 1) + 13
    assert tops == [30, 65, 110, 172, 244, 333, 432]


def test_chain_growth_is_quadratic():
    # each element dominates everything below it, so the top's name nests
    # n - 1 merges; a new value clears only its own cascade, not the state
    for n in range(2, 11):
        elements = [f"e{i}" for i in range(n)]
        relations = [[x, y] for i, x in enumerate(elements) for y in elements[i + 1:]]
        sc = Scenario.from_json({"poset": {"elements": elements, "relations": relations}})
        run, iso, cov = run_scenario(sc)
        assert iso.ok and cov.ok
        top = max(seq.values[-1] for seq in run.derived.dominating.values())
        assert top == 5 * n * n - 7 * n + 16


def test_same_rank_chain_growth_is_quadratic():
    # only the top is cofinal, so the whole chain ties at rank 0 and every
    # cascade is one round over a same-rank chain
    for n in range(2, 11):
        elements = [f"e{i}" for i in range(n)]
        relations = [[x, y] for i, x in enumerate(elements) for y in elements[i + 1:]]
        poset = {"elements": elements, "relations": relations, "cofinal_set": [elements[-1]]}
        run, iso, cov = run_scenario(Scenario.from_json({"poset": poset}))
        assert iso.ok and cov.ok
        top = max(seq.values[-1] for seq in run.derived.dominating.values())
        assert top == 9 * n * (n - 1) // 2 + 12


def test_cascade_rejects_empty_selection():
    ws = _start_ws(V_RP)
    with pytest.raises(ValueError):
        ws.cascade(2)  # no support member at that rank
    with pytest.raises(ValueError):
        ws.cascade(0, top="c")  # c sits at rank 1
    with pytest.raises(ValueError):
        ws.cascade(0, top="ghost")
    assert _t(ws) == {"a": [], "b": [], "c": []}


def test_cascade_refuses_a_lower_member_that_ends_first():
    # a < b tie at rank 0, but t_a ends below t_b: one shared value would
    # give b the gap [5, 6), which holds no whole block of t_a (clause 4)
    q = Condition(
        cohen={0: ()},
        coords={"a": CoordPart((1,), GroundName(0, 1)), "b": CoordPart((5,), GroundName(0, 1))},
    )
    ws = Workspace(TIED_CHAIN, q.cohen, q.coords)
    with pytest.raises(ValueError):
        ws.cascade(0, top="b")
    with pytest.raises(ValueError):
        ws.cascade(0)
    assert _t(ws) == {"a": [1], "b": [5]}
    # a alone is no pair, so it still grows; once it has caught up, so does b
    ws.cascade(0, top="a", floor=5)
    ws.cascade(0, top="b")
    assert _t(ws) == {"a": [1, 5, 6], "b": [5, 6]}
    assert leq_check(condition_of(ws, EMPTY), q, TIED_CHAIN)


def _start_ws(rp):
    q = start_condition(rp)
    return Workspace(rp, q.cohen, q.coords)


def test_ladder_extend_single_coordinate():
    q = start_condition(POINT)
    ws = Workspace(POINT, q.cohen, q.coords)
    _ladder(ws, up_to=0)
    assert ws.coords["a"].t == [1]
    _ladder(ws, up_to=0)
    assert ws.coords["a"].t == [1, 2]
    assert leq_check(condition_of(ws, EMPTY), q, POINT)


def test_ladder_runs_lower_ranks_first():
    ws = _start_ws(V_RP)
    _ladder(ws, up_to=1)
    # a and b share rank 0's one value; c's cascade selects c alone
    assert _t(ws) == {"a": [1], "b": [1], "c": [1]}


def test_ladder_extend_random_posets():
    for seed in range(12):
        rp = compute_ranks(random_poset(seed))
        q = start_condition(rp)
        ws = Workspace(rp, q.cohen, q.coords)
        prev = q
        for rank in sorted(set(rp.ranks.values())):
            _ladder(ws, up_to=rank)
            p = condition_of(ws, prev)
            assert leq_check(p, prev, rp)
            prev = p
        assert leq_check(prev, q, rp)


def test_separation_frozen_two_antichain():
    q = start_condition(ANTI_2)
    ws = Workspace(ANTI_2, q.cohen, q.coords)
    assert _separate(ws, "a", "b", 0) == (0, (1, 2))
    assert _t(ws) == {"a": [3], "b": [1, 2]}
    assert leq_check(condition_of(ws, EMPTY), q, ANTI_2)


def test_separation_honors_floor():
    ws = _start_ws(ANTI_2)
    _separate(ws, "a", "b", 3)
    assert _t(ws) == {"a": [6], "b": [1, 2, 3, 4, 5]}


def test_separation_rejects_comparable():
    with pytest.raises(NotIncomparable):
        _separate(_start_ws(V_RP), "a", "c", 0)
    with pytest.raises(NotIncomparable):
        _separate(_start_ws(V_RP), "a", "a", 0)


def test_chained_separations_frozen():
    goals = [IncomparableGoal("a", "b", 0)] * 3
    run = build_generic(ANTI_2, goals, 64)
    infos = [entry.info for entry in run.ledger]
    assert infos == [
        {"index": 0, "block": [1, 2]},
        {"index": 2, "block": [4, 5]},
        {"index": 4, "block": [7, 8]},
    ]
    last = run.chain[-1]
    assert tuple(last.coords["a"].t) == (3, 6, 9)
    assert tuple(last.coords["b"].t) == (1, 2, 4, 5, 7, 8)
    assert_chain_sound(run)


def test_separation_above_same_rank_comparable():
    # b exceeds a in the order but ties in rank; separating b from a
    # must cascade through a on the way up without touching the gap.
    run = build_generic(TIED_CHAIN, [IncomparableGoal("b", "a", 0)], 64)
    assert run.ledger[0].info == {"index": 0, "block": [1, 2]}
    last = run.chain[-1]
    # b's cascade selects a too: both take the floor 3, past the gap
    assert tuple(last.coords["a"].t) == (1, 2, 3)
    assert tuple(last.coords["b"].t) == (3,)
    assert_chain_sound(run)


def test_dominate_swaps_name_and_certifies():
    goal = DominateGoal("b", CoordinateName("a"))
    run = build_generic(CHAIN_2, [goal], 64)
    final_name = run.chain[-1].coords["b"].name
    assert final_name == MergeName(GroundName(0, 1), CoordinateName("a"))
    # the one certificate is the final name itself, over the unit name it replaced
    (cert,) = run.certificates
    assert cert is final_name and cert.left is run.chain[0].coords["b"].name
    assert run.ledger[0].info == {"swap_length": 0, "block_threshold": 0}
    # b's first merge block [0, 2) asks a's cascade for a second value
    assert tuple(run.chain[-1].coords["a"].t) == (1, 2)
    assert tuple(run.chain[-1].coords["b"].t) == (2,)
    assert_chain_sound(run)


def test_each_merge_name_is_made_once():
    # c and d share their down-set {a}, so they ask for equal merges
    rp = compute_ranks(Poset(["a", "c", "d"], [("a", "c"), ("a", "d")]))
    run = build_generic(rp, build_goals(rp, (GroundReal("ones"),), GoalPlan()), 10**6)
    last = run.chain[-1]
    assert isinstance(last.coords["c"].name, MergeName)
    assert last.coords["c"].name is last.coords["d"].name
    certified = {id(nm) for nm in run.certificates}
    for link in run.chain:
        for part in link.coords.values():
            nm = part.name
            while isinstance(nm, MergeName):
                assert id(nm) in certified
                nm = nm.left
    # a merge the run did not make is no certificate
    stray = MergeName(last.coords["c"].name, GroundName(0, 2))
    p = Condition(last.cohen, {**last.coords, "c": CoordPart(last.coords["c"].t, stray)})
    report = leq_check(p, last, rp, run.certificates)
    assert [(v.clause, v.subject) for v in report.violations] == [("3a", "c")]


def test_star_nests_past_the_old_depth_bound():
    # the top dominates 65 leaves, so its name nests 65 merges
    leaves = [f"l{i:02d}" for i in range(65)]
    rp = compute_ranks(Poset(leaves + ["top"], [(x, "top") for x in leaves]))
    goals = [DominateGoal("top", CoordinateName(x)) for x in leaves] + [LengthGoal("top", 2)]
    run = build_generic(rp, goals, 256)
    top = run.chain[-1].coords["top"]
    assert top.name.depth == 65 and len(top.t) >= 2


def test_links_share_what_did_not_grow():
    # A coordinate whose name and t-length a step left alone is the
    # previous link's own part, and so is a Cohen word of the same length.
    leaves = [f"l{i}" for i in range(6)]
    rp = compute_ranks(Poset(leaves + ["top"], [(x, "top") for x in leaves]))
    run = build_generic(rp, build_goals(rp, (), GoalPlan()), 10**6)
    grown = []
    for q, p in zip(run.chain, run.chain[1:]):
        moved = set()
        for b, part in p.coords.items():
            old = q.coords[b]
            if part.name is old.name and len(part.t) == len(old.t):
                assert part is old
            else:
                moved.add(b)
        for r, bits in p.cohen.items():
            if len(bits) == len(q.cohen[r]):
                assert bits is q.cohen[r]
        grown.append(moved)
    separations = [
        grown[entry.met_at - 1]
        for entry in run.ledger
        if isinstance(run.goals[entry.goal_index], IncomparableGoal)
    ]
    assert any(len(moved) == 2 for moved in separations)


def test_frozen_links_do_not_move():
    # Links stay as they were frozen while the workspace grows on, and the
    # workspace never writes into the condition it was built from.
    q = start_condition(V_RP)
    start = copy.deepcopy(q)
    ws = Workspace(V_RP, q.cohen, q.coords)
    links, frozen = [q], [start]

    def freeze():
        links.append(condition_of(ws, links[-1]))
        frozen.append(copy.deepcopy(links[-1]))

    _ladder(ws)
    freeze()
    t_c, name_c = ws.coords["c"]
    ws.coords["c"] = CoordPart(t_c, MergeName(name_c, DiagonalName(GroundReal("zeros"), 1)))
    freeze()
    _ladder(ws)
    freeze()
    _separate(ws, "a", "b", 0)
    freeze()
    _ladder(ws)
    assert len(ws.cohen[1]) > len(links[-1].cohen[1]) > 0
    assert links == frozen
    assert q == start


def test_cohen_disagree_goals():
    ones = GroundReal("ones")
    goals = [CohenDisagreeGoal(0, ones, 0), CohenDisagreeGoal(0, ones, 3)]
    run = build_generic(POINT, goals, 64)
    assert run.ledger[0].info == {"position": 0, "bit": 0}
    assert run.ledger[1].info == {"position": 3, "bit": 0}
    assert run.derived.cohen[0].to01() == "0000"
    assert_chain_sound(run)


def test_length_goals_can_come_for_free():
    goals = [LengthGoal("x", 2), LengthGoal("y", 1)]
    run = build_generic(ANTI_3, goals, 64)
    # the first ladder step met y's goal on the way to x's second value
    assert len(run.chain) == 3
    assert [(e.goal_index, e.met_at) for e in run.ledger] == [(1, 1), (0, 2)]
    assert run.ledger[0].info == {"length": 1}


def test_budget_exhaustion_lists_unmet_goals():
    with pytest.raises(ResolutionExhausted) as exc:
        build_generic(POINT, [LengthGoal("a", 50)], 1)
    assert exc.value.unmet == (0,)
    run = build_generic(POINT, [LengthGoal("a", 50)], 64)
    assert len(run.derived.dominating["a"]) == 50
    with pytest.raises(ValueError):
        build_generic(POINT, [], 0)


def _interleaved_goals():
    return [
        DominateGoal("c", CoordinateName("a")),
        LengthGoal("b", 1),
        IncomparableGoal("a", "b", 0),
        LengthGoal("a", 7),
        LengthGoal("c", 2),
        IncomparableGoal("b", "a", 1),
        LengthGoal("a", 0),
        DominateGoal("c", CoordinateName("b")),
        LengthGoal("b", 5),
        LengthGoal("c", 6),
        IncomparableGoal("a", "b", 4),
    ]


def test_ledger_follows_goal_order_past_free_length_goals():
    # Goal 6 is met before any step, behind five unmet goals.  Goals 4
    # and 8 come for free while goal 3, before them, is served by ladder
    # steps (links 3 to 6), and 8 is met ahead of the unmet 5 and 7.
    # Goal 9 comes for free from goal 7's swap ladder.
    run = build_generic(V_RP, _interleaved_goals(), 64)
    assert [(e.goal_index, e.met_at, e.info) for e in run.ledger] == [
        (6, 0, {"length": 0}),
        (0, 1, {"swap_length": 0, "block_threshold": 0}),
        (1, 1, {"length": 1}),
        (2, 2, {"index": 1, "block": [3, 4]}),
        (4, 3, {"length": 2}),
        (8, 4, {"length": 5}),
        (3, 6, {"length": 7}),
        (5, 7, {"index": 7, "block": [10, 11]}),
        (7, 8, {"swap_length": 5, "block_threshold": 4}),
        (9, 8, {"length": 6}),
        (10, 9, {"index": 9, "block": [14, 15]}),
    ]
    assert_chain_sound(run)


def test_budget_exhaustion_mid_list_lists_unmet_goals():
    # four steps: goal 3 is being served, goal 8 past it is met for free,
    # and the unmet goals on both sides of 8 are listed in goal order
    with pytest.raises(ResolutionExhausted) as exc:
        build_generic(V_RP, _interleaved_goals(), 4)
    assert exc.value.unmet == (3, 5, 7, 9, 10)


def test_runs_are_deterministic():
    goals = [
        LengthGoal("a", 6),
        IncomparableGoal("a", "b", 1),
        DominateGoal("c", CoordinateName("a")),
    ]
    first = build_generic(V_RP, goals, 256)
    second = build_generic(V_RP, goals, 256)
    assert first.chain == second.chain
    assert first.ledger == second.ledger
    assert first.derived == second.derived
    assert extract_reals_from(first.chain[-1]) == first.derived
    assert_chain_sound(first)


def test_goal_validation():
    zeros = GroundReal("zeros")
    with pytest.raises(UnknownElement):
        build_generic(POINT, [LengthGoal("ghost", 3)], 8)
    with pytest.raises(ValueError):
        build_generic(POINT, [LengthGoal("a", -1)], 8)
    with pytest.raises(ValueError):
        build_generic(POINT, [CohenDisagreeGoal(7, zeros, 0)], 8)
    with pytest.raises(ValueError):
        build_generic(POINT, [CohenDisagreeGoal(0, zeros, -2)], 8)
    with pytest.raises(ValueError):
        # diagonal tag at a rank other than the coordinate's own
        build_generic(POINT, [DominateGoal("a", DiagonalName(zeros, 1))], 8)
    with pytest.raises(ValueError):
        # target coordinate not strictly below in order and rank
        build_generic(ANTI_2, [DominateGoal("a", CoordinateName("b"))], 8)
    with pytest.raises(NotIncomparable):
        build_generic(V_RP, [IncomparableGoal("a", "c", 0)], 8)
    with pytest.raises(ValueError):
        build_generic(POINT, [object()], 8)


def test_goal_descriptors():
    ones = GroundReal("ones")
    assert goal_descriptor(LengthGoal("a", 4)) == {"kind": "length", "elem": "a", "n": 4}
    assert goal_descriptor(CohenDisagreeGoal(1, ones, 2)) == {
        "kind": "cohen-disagree",
        "rank": 1,
        "real": "ones",
        "beyond": 2,
    }
    assert goal_descriptor(DominateGoal("b", GroundName(0, 2))) == {
        "kind": "dominate",
        "elem": "b",
        "target": {"kind": "ground", "start": 0, "step": 2},
    }
    assert goal_descriptor(IncomparableGoal("a", "b", 1)) == {
        "kind": "incomparable",
        "a": "a",
        "b": "b",
        "beyond": 1,
    }
    with pytest.raises(ValueError):
        goal_descriptor("not a goal")
