"""Scenario plumbing, the order matrix, coverage audits, and the CLI."""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import pytest

from blockforcing import (
    BitSeq,
    CannotAdvance,
    CohenDisagreeGoal,
    CoordinateName,
    CycleError,
    DiagonalName,
    DominateGoal,
    GoalPlan,
    GroundReal,
    IncomparableGoal,
    IncSeq,
    LengthGoal,
    LengthTooShort,
    Poset,
    ResolutionExhausted,
    Scenario,
    SpecError,
    Window,
    build_generic,
    build_goals,
    check_coverage,
    check_isomorphism,
    compute_ranks,
    load_scenario,
    remark_counterexamples,
    render_report,
    run_scenario,
    tiny_subset_check,
)
from blockforcing import cli, harness
from blockforcing.cli import main
from blockforcing.harness import _paid_goal_count, report_json
from conftest import assert_chain_sound, random_poset


V_POSET = Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
V_JSON = {"elements": ["a", "b", "c"], "relations": [["a", "c"], ["b", "c"]]}
TIED_JSON = {"elements": ["a", "b"], "relations": [["a", "b"]], "cofinal_set": ["b"]}
DEMO_SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "data" / "v_scenario.json"


def _scenario(obj):
    return Scenario.from_json(obj)


# -- goal plans and scenario parsing --


def test_goal_plan_validates():
    GoalPlan()
    with pytest.raises(SpecError):
        GoalPlan(min_t_length=0)
    with pytest.raises(SpecError):
        GoalPlan(dominate_pairs=True)
    with pytest.raises(SpecError):
        GoalPlan(disagreements_per_real="2")


@pytest.mark.parametrize(
    "obj",
    [
        "not an object",
        {"poset": V_JSON, "mystery": 1},
        {},
        {"poset": 7},
        {"poset": V_JSON, "resolution": 0},
        {"poset": V_JSON, "resolution": True},
        {"poset": V_JSON, "seed": "zero"},
        {"poset": V_JSON, "ground_reals": "zeros"},
        {"poset": V_JSON, "ground_reals": [3]},
        {"poset": V_JSON, "ground_reals": ["mystery-noise"]},
        {"poset": V_JSON, "plan": [1, 2]},
        {"poset": V_JSON, "plan": {"mystery": 1}},
        {"poset": V_JSON, "plan": {"min_t_length": 0}},
        {"poset": V_JSON, "question_variant": 1},
    ],
)
def test_scenario_rejects_malformed(obj):
    with pytest.raises(SpecError):
        _scenario(obj)


def test_scenario_surfaces_order_errors():
    with pytest.raises(CycleError):
        _scenario({"poset": {"elements": ["a"], "relations": [["a", "a"]]}})


def test_scenario_defaults():
    sc = _scenario({"poset": V_JSON})
    assert sc.resolution == 4096 and sc.seed == 0
    assert sc.ground_reals == () and sc.plan == GoalPlan()
    assert not sc.question_variant
    assert sc.cofinal == {"a", "b", "c"}


def test_load_scenario_resolves_poset_path(tmp_path):
    (tmp_path / "shape.json").write_text(json.dumps(V_JSON))
    sc_path = tmp_path / "scenario.json"
    sc_path.write_text(json.dumps({"poset": "shape.json", "ground_reals": ["zeros"]}))
    sc = load_scenario(str(sc_path))
    assert sc.poset == V_POSET
    with pytest.raises(SpecError):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SpecError):
        load_scenario(str(bad))
    gone = tmp_path / "dangling.json"
    gone.write_text(json.dumps({"poset": "nowhere.json"}))
    with pytest.raises(SpecError):
        load_scenario(str(gone))


# -- goal building --


def test_build_goals_frozen_order():
    rp = compute_ranks(V_POSET)
    real = GroundReal("zeros")
    goals = build_goals(rp, (real,), GoalPlan())
    assert goals == (
        DominateGoal("c", CoordinateName("a")),
        DominateGoal("c", CoordinateName("b")),
        DominateGoal("a", DiagonalName(real, 0)),
        DominateGoal("b", DiagonalName(real, 0)),
        DominateGoal("c", DiagonalName(real, 1)),
        CohenDisagreeGoal(0, real, 0),
        CohenDisagreeGoal(1, real, 0),
        LengthGoal("a", 12),
        LengthGoal("b", 12),
        LengthGoal("c", 12),
        IncomparableGoal("a", "b", 0),
        IncomparableGoal("a", "b", 0),
        IncomparableGoal("a", "b", 0),
        IncomparableGoal("b", "a", 0),
        IncomparableGoal("b", "a", 0),
        IncomparableGoal("b", "a", 0),
        IncomparableGoal("c", "a", 0),
        IncomparableGoal("c", "a", 0),
        IncomparableGoal("c", "a", 0),
        IncomparableGoal("c", "b", 0),
        IncomparableGoal("c", "b", 0),
        IncomparableGoal("c", "b", 0),
    )


def test_build_goals_scales_with_plan():
    rp = compute_ranks(V_POSET)
    plan = GoalPlan(min_t_length=4, disagreements_per_real=2, violations_per_incomparable_pair=1, dominate_pairs=2)
    goals = build_goals(rp, (), plan)
    assert sum(isinstance(g, DominateGoal) for g in goals) == 4
    assert sum(isinstance(g, IncomparableGoal) for g in goals) == 4
    assert all(g.n == 4 for g in goals if isinstance(g, LengthGoal))


# -- scenario runs and audits --


def test_singleton_scenario():
    run, iso, cov = run_scenario(_scenario({"poset": {"elements": ["p"]}, "ground_reals": ["ones"]}))
    assert iso.ok and cov.ok
    assert iso.cells["p"]["p"]["verdict"] == "subset-certified"
    assert len(run.derived.dominating["p"]) >= 12
    assert_chain_sound(run)


def test_tied_chain_routes_and_variant():
    sc = _scenario({"poset": TIED_JSON, "ground_reals": ["zeros"], "question_variant": True})
    run, iso, cov = run_scenario(sc)
    assert iso.ok and cov.ok
    below = iso.cells["a"]["b"]
    assert below["verdict"] == "subset-certified"
    assert below["evidence"]["route"] == "same-rank-refines"
    assert below["evidence"]["violations"] == []
    above = iso.cells["b"]["a"]
    assert above["verdict"] == "non-subset-certified"
    assert above["evidence"]["route"] == "recorded-blocks"
    assert iso.variant_undetermined == (("a", "b"),)
    assert_chain_sound(run)


def test_same_rank_comparabilities_end_to_end():
    # cofinal = maximal elements puts comparable pairs at one rank, so
    # their inclusions ride the cascade rather than a name swap
    for seed in range(20):
        poset = random_poset(seed)
        sc = Scenario(
            poset=poset,
            cofinal=poset.maximal_elements(),
            seed=seed,
            ground_reals=("zeros", "seeded-random:1"),
        )
        run, iso, cov = run_scenario(sc)
        assert iso.ok and cov.ok, seed
        assert_chain_sound(run)


def test_antichain_matrix_and_shared_cohen():
    sc = _scenario({"poset": {"elements": ["x", "y"]}, "ground_reals": ["periodic:01"]})
    run, iso, cov = run_scenario(sc)
    assert iso.ok and cov.ok
    for a, b in (("x", "y"), ("y", "x")):
        cell = iso.cells[a][b]
        assert cell["verdict"] == "non-subset-certified"
        assert cell["evidence"]["witness_valid"] is True
        assert cell["evidence"]["witness_agreeing_blocks"] >= 2
        assert len(cell["evidence"]["gaps"]) == 3
        assert all(g["clean"] for g in cell["evidence"]["gaps"])
    # one rank, one Cohen word, scanned for both coordinates
    assert set(run.derived.cohen) == {0}
    assert {e.element for e in cov.entries} == {"x", "y"}


def test_v_scenario_matrix_routes():
    run, iso, cov = run_scenario(_scenario({"poset": V_JSON, "ground_reals": ["zeros", "ones"]}))
    assert iso.ok and cov.ok
    up = iso.cells["a"]["c"]
    assert up["verdict"] == "subset-certified"
    assert up["evidence"]["route"] == "dominates"
    assert up["evidence"]["violations"] == []
    assert up["evidence"]["block_threshold"] >= 0
    down = iso.cells["c"]["a"]
    assert down["verdict"] == "non-subset-certified"
    sideways = iso.cells["a"]["b"]
    assert sideways["verdict"] == "non-subset-certified"
    # coverage judges maximal coordinates only
    assert {e.element for e in cov.entries} == {"c"}
    assert {e.real for e in cov.entries} == {"zeros", "ones"}
    assert all(e.block_threshold > 0 for e in cov.entries)
    assert_chain_sound(run)


def test_isomorphism_undetermined_without_goals():
    rp = compute_ranks(V_POSET)
    run = build_generic(rp, [LengthGoal(a, 6) for a in "abc"], 256)
    iso = check_isomorphism(run)
    assert not iso.ok
    assert iso.cells["a"]["c"]["verdict"] == "undetermined"
    assert "no met domination goal" in iso.cells["a"]["c"]["evidence"]["note"]
    assert iso.cells["a"]["b"]["verdict"] == "undetermined"
    assert "no separating goal" in iso.cells["a"]["b"]["evidence"]["note"]
    # same-rank comparable pairs certify from the cascade alone
    tied = compute_ranks(Poset(["a", "b"], [("a", "b")]), {"b"})
    tied_run = build_generic(tied, [LengthGoal("a", 6), LengthGoal("b", 6)], 256)
    tied_iso = check_isomorphism(tied_run)
    assert tied_iso.cells["a"]["b"]["verdict"] == "subset-certified"


def test_separated_cell_needs_a_witness_that_rechecks(tmp_path, capsys):
    # One recorded gap per pair is clean, but leaves one violating block:
    # too few for a witness, so neither cell may read as separated.
    obj = {"poset": {"elements": ["x", "y"]}, "plan": {"violations_per_incomparable_pair": 1}}
    sc = _scenario(obj)
    run, iso, cov = run_scenario(sc)
    assert cov.ok and not iso.ok
    for a, b in (("x", "y"), ("y", "x")):
        cell = iso.cells[a][b]
        assert cell["verdict"] == "undetermined"
        assert any(g["clean"] for g in cell["evidence"]["gaps"])
        assert cell["evidence"]["witness_valid"] is False
    assert report_json(run, iso, cov, sc)["matrix_ok"] is False
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(obj))
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 1
    assert "failed: order audit" in capsys.readouterr().err


def test_order_audit_tolerates_empty_sequences():
    # Only a Cohen goal: every t stays empty, so no cell can be decided.
    rp = compute_ranks(V_POSET)
    run = build_generic(rp, [CohenDisagreeGoal(0, GroundReal("zeros"), 0)], 8)
    assert all(len(t) == 0 for t in run.derived.dominating.values())
    iso = check_isomorphism(run)
    assert not iso.ok
    for a, row in iso.cells.items():
        for b, cell in row.items():
            assert cell["verdict"] == ("subset-certified" if a == b else "undetermined")


def test_coverage_flags_unregistered_pattern():
    # the run only chased 'ones'; judging it against 'zeros' must fail,
    # because the Cohen word built against 'ones' agrees with 'zeros'
    rp = compute_ranks(V_POSET)
    ones = GroundReal("ones", 5)
    run = build_generic(rp, build_goals(rp, (ones,), GoalPlan()), 4096)
    sc = Scenario(
        poset=V_POSET,
        cofinal=frozenset({"a", "b", "c"}),
        seed=5,
        ground_reals=("zeros", "ones"),
    )
    cov = check_coverage(run, sc)
    assert not cov.ok
    by_real = {e.real: e for e in cov.entries}
    assert by_real["ones"].misses == ()
    assert by_real["ones"].note == ""
    zeros_entry = by_real["zeros"]
    assert zeros_entry.misses
    assert zeros_entry.block_threshold == 0
    assert "scanning every block" in zeros_entry.note


# -- the exhaustive short-word check --


def test_tiny_subset_check_frozen():
    x = BitSeq.from01("0000")
    w = Window(0, 4)
    leaks = tiny_subset_check(x, IncSeq((0, 2, 4)), IncSeq((0, 1, 4)), w)
    assert sorted(z.to01() for z in leaks) == ["0101", "0110", "0111"]
    assert tiny_subset_check(x, IncSeq((0, 2, 4)), IncSeq((0, 4)), w) == ()


def test_tiny_subset_check_bounds():
    with pytest.raises(SpecError):
        tiny_subset_check(BitSeq((0,) * 20), IncSeq((0, 17)), IncSeq((0, 17)), Window(0, 17))
    with pytest.raises(LengthTooShort):
        tiny_subset_check(BitSeq((0, 0)), IncSeq((0, 2, 4)), IncSeq((0, 4)), Window(0, 4))


# -- reports --


def test_report_shape_and_determinism():
    sc = _scenario({"poset": TIED_JSON, "ground_reals": ["seeded-random:1"], "seed": 9})
    first = run_scenario(sc)
    second = run_scenario(sc)
    obj = report_json(*first, sc)
    assert set(obj) == {
        "elements",
        "relations",
        "ranks",
        "top_rank",
        "cofinal",
        "seed",
        "resolution",
        "question_variant",
        "chain_length",
        "goals",
        "matrix",
        "matrix_ok",
        "variant_undetermined",
        "coverage",
        "coverage_ok",
        "derived",
    }
    assert obj["seed"] == 9 and obj["cofinal"] == ["b"]
    assert all(g["met_at"] is not None for g in obj["goals"])
    assert obj["matrix_ok"] is True and obj["coverage_ok"] is True
    assert json.loads(render_report(*first, sc)) == obj
    assert render_report(*first, sc) == render_report(*second, sc)


CHAIN_4 = ["a", "b", "c", "d"]
STAR_5 = ["l0", "l1", "l2", "l3", "l4"]
FROZEN_REPORTS = {
    "v-demo": (
        None,
        "0a7e4a1f96dcbd008a2513a8df57bafdf9accb9e204cf98e3a1da5e0984dbafb",
    ),
    "chain-4": (
        {
            "poset": {
                "elements": CHAIN_4,
                "relations": [[x, y] for i, x in enumerate(CHAIN_4) for y in CHAIN_4[i + 1:]],
            },
            "ground_reals": ["ones"],
        },
        "24294e14fb9caa5819c368973bc3b23df57ceab9e95e27e5913a607a5d3768ef",
    ),
    "antichain-4": (
        {"poset": {"elements": CHAIN_4}, "ground_reals": ["periodic:01"]},
        "166cb129362596eca1cfcc173b5af2c2f983addcf4ece7e5018b8b052c091af9",
    ),
    "tied-variant": (
        {"poset": TIED_JSON, "ground_reals": ["zeros"], "question_variant": True},
        "59e6f954da2853c1ee2b3c62d7b7093b2555d46885886a8cf01dd1341c08ca84",
    ),
    "star-5": (
        {
            "poset": {
                "elements": STAR_5 + ["top"],
                "relations": [[x, "top"] for x in STAR_5],
            },
            "ground_reals": ["zeros", "seeded-random:1"],
        },
        "fa1c0ce41f4d451d0292cbb29a8587ac48ef152f243800ff6ca51438306a741b",
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_REPORTS))
def test_report_bytes_frozen(case):
    # Refactors of the engine or the audits must leave reports
    # byte-identical.  Between them these shapes reach the reflexive,
    # same-rank, dominates and recorded-blocks routes, pattern coverage
    # and the variant list.  In the star most links leave most
    # coordinates as they were, and Cohen words grow inside nested
    # diagonal walks.
    obj, digest = FROZEN_REPORTS[case]
    sc = load_scenario(DEMO_SCENARIO) if obj is None else _scenario(obj)
    report = render_report(*run_scenario(sc), sc)
    assert hashlib.sha256(report.encode()).hexdigest() == digest


# -- command line --


@pytest.fixture
def v_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps({"poset": V_JSON, "ground_reals": ["zeros", "periodic:01"], "seed": 2})
    )
    return path


def test_cli_run_reports(v_scenario_file, tmp_path, capsys):
    assert main(["run", str(v_scenario_file)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matrix_ok"] and obj["coverage_ok"]
    assert obj["seed"] == 2

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["run", str(v_scenario_file), "--out", str(out_a)]) == 0
    assert main(["run", str(v_scenario_file), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    assert main(["run", str(v_scenario_file), "--seed", "3", "--out", str(out_b)]) == 0
    assert json.loads(out_b.read_text())["seed"] == 3
    assert out_a.read_bytes() != out_b.read_bytes()


def test_cli_run_budget_exhaustion(v_scenario_file, capsys):
    assert main(["run", str(v_scenario_file), "--resolution", "1"]) == 1
    err = capsys.readouterr().err
    assert "budget exhausted" in err and "unmet goal indices" in err
    assert main(["run", str(v_scenario_file), "--resolution", "0"]) == 2


def _refuse_goal_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("the goal list was built")

    monkeypatch.setattr(harness, "build_goals", refuse)


@pytest.mark.parametrize(
    "scenario, paid",
    [
        # 120 * 119 ordered pairs, three separation goals each
        ({"poset": {"elements": [f"x{i:03d}" for i in range(120)]}}, 42_840),
        # a million domination goals for each of a << c and b << c, and
        # three separation goals for each of the four incomparable pairs
        ({"poset": V_JSON, "plan": {"dominate_pairs": 1_000_000}}, 2_000_012),
    ],
    ids=["antichain-120", "v-million-dominations"],
)
def test_cli_run_refuses_a_budget_below_the_paid_goals(
    scenario, paid, tmp_path, monkeypatch, capsys
):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    _refuse_goal_building(monkeypatch)
    start = time.perf_counter()
    assert main(["run", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("budget exhausted: ")
    assert f"the plan has {paid} goals" in err and "budget of 4096 steps" in err


def test_paid_goal_count_matches_the_built_goals():
    for seed in range(40):
        rp = compute_ranks(random_poset(seed))
        reals = tuple(GroundReal(spec) for spec in ("zeros", "ones")[: seed % 3])
        plan = GoalPlan(
            dominate_pairs=1 + seed % 2,
            disagreements_per_real=1 + seed % 3,
            violations_per_incomparable_pair=1 + seed % 4,
        )
        goals = build_goals(rp, reals, plan)
        paid = sum(not isinstance(goal, LengthGoal) for goal in goals)
        assert _paid_goal_count(rp, reals, plan) == paid


def test_budget_equal_to_the_paid_goals_is_not_refused_up_front(monkeypatch):
    sc = _scenario({"poset": V_JSON, "ground_reals": ["zeros"]})
    rp = compute_ranks(sc.poset, sc.cofinal)
    paid = _paid_goal_count(rp, (GroundReal("zeros"),), sc.plan)
    # The length goals still need steps here, so the engine, having built
    # the goals, runs out and lists the unmet ones.
    with pytest.raises(ResolutionExhausted) as info:
        run_scenario(dataclasses.replace(sc, resolution=paid))
    assert info.value.unmet
    _refuse_goal_building(monkeypatch)
    with pytest.raises(ResolutionExhausted) as info:
        run_scenario(dataclasses.replace(sc, resolution=paid - 1))
    assert info.value.unmet == ()


def _demo_with_dominate_pairs(tmp_path, pairs):
    obj = json.loads(DEMO_SCENARIO.read_text())
    obj["poset"] = str(DEMO_SCENARIO.parent / obj["poset"])
    obj["resolution"] = 1_000_000
    obj["plan"] = {**obj.get("plan", {}), "dominate_pairs": pairs}
    path = tmp_path / f"v-{pairs}.json"
    path.write_text(json.dumps(obj))
    return path


def test_cli_run_refuses_names_nested_past_the_depth_bound(tmp_path, monkeypatch, capsys):
    # In the V demo a and b sit below c in order and rank, and three
    # patterns each add a domination, so c's name nests 2 * pairs + 3 merges.
    path = _demo_with_dominate_pairs(tmp_path, 127)
    _refuse_goal_building(monkeypatch)
    start = time.perf_counter()
    assert main(["run", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "cannot advance: the plan nests 257 merges in the name at 'c' "
        "(dominate_pairs 127), past the depth bound of 256\n"
    )


def test_cli_run_names_within_the_depth_bound_are_not_refused(tmp_path, capsys):
    path = _demo_with_dominate_pairs(tmp_path, 126)
    assert main(["run", str(path), "--out", str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["matrix_ok"] and report["coverage_ok"]


@pytest.mark.parametrize("reals, refused", [((), False), (("zeros",), True)])
def test_name_depth_check_is_exact_at_the_bound(reals, refused, monkeypatch):
    # 2 * 128 dominations by a and b put c's name exactly at the bound;
    # one pattern more puts it past.
    sc = _scenario(
        {"poset": V_JSON, "ground_reals": list(reals), "plan": {"dominate_pairs": 128}}
    )
    _refuse_goal_building(monkeypatch)
    expected = CannotAdvance if refused else AssertionError
    with pytest.raises(expected):
        run_scenario(sc)


def test_cli_run_cannot_advance(v_scenario_file, monkeypatch, capsys):
    # a valid scenario the engine cannot finish is an honest failure
    def stuck(sc):
        raise CannotAdvance("name nesting exceeds the depth bound")

    monkeypatch.setattr(cli, "run_scenario", stuck)
    assert main(["run", str(v_scenario_file)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "cannot advance: name nesting exceeds the depth bound\n"


def test_cli_rejects_malformed_input(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad)]) == 2
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"poset": V_JSON, "mystery": True}))
    assert main(["run", str(odd)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("entry", ["run", "check-poset", "oracle", "scenario-poset-path"])
def test_cli_rejects_unparsable_json(entry, content, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    if entry == "oracle":
        argv = ["oracle", "refines_at", str(bad)]
    elif entry == "scenario-poset-path":
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({"poset": "bad.json"}))
        argv = ["run", str(scenario)]
    else:
        argv = [entry, str(bad)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_run_out_to_missing_directory(v_scenario_file, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["run", str(v_scenario_file), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "spec", ["seeded-random:\u00b2", "seeded-random:\u0663"], ids=["superscript", "arabic-indic"]
)
def test_cli_run_rejects_non_ascii_seed_tag(spec, tmp_path, capsys):
    # str.isdigit admits both tags; int() then fails on the first and
    # silently reads the second as 3
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"poset": {"elements": ["a"]}, "ground_reals": [spec]}))
    assert main(["run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_check_poset(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(V_JSON))
    assert main(["check-poset", str(path)]) == 0
    assert capsys.readouterr().out == "rank(a) = 0\nrank(b) = 0\nrank(c) = 1\ntop rank = 2\n"

    cyclic = tmp_path / "cyclic.json"
    cyclic.write_text(json.dumps({"elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}))
    assert main(["check-poset", str(cyclic)]) == 2

    thin = tmp_path / "thin.json"
    thin.write_text(json.dumps({"elements": ["a", "b"], "cofinal_set": ["b"]}))
    assert main(["check-poset", str(thin)]) == 2


@pytest.mark.parametrize(
    "entry, obj",
    [
        ("run", {"poset": {"elements": ["a", "a"]}}),
        ("check-poset", {"elements": ["a", "b", "a"]}),
    ],
)
def test_cli_refuses_duplicate_elements(entry, obj, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    assert main([entry, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: \"elements\" lists ['a'] more than once\n"


@pytest.mark.parametrize(
    "op, payload",
    [
        ("refines_at", {"f": [0, 2.7, 4], "g": [0, 1, 4], "window": [0, 4]}),
        ("refines_at", {"f": [0, 2, 4], "g": [0, "1", 4], "window": [0, 4]}),
        ("refines_at", {"f": [0, 2, 4], "g": [0, 1, 4], "window": [True, "4"]}),
        ("refines_at", {"f": [0, 2, 4], "g": [0, 1, 4], "window": {"start": 0, "limit": 4.0}}),
        ("e_member", {"z": [0, True], "x": "00", "f": [0, 2], "m": 0, "window": [0, 2]}),
        ("e_member", {"z": "01", "x": [0, 1.0], "f": [0, 2], "m": 0, "window": [0, 2]}),
    ],
    ids=["seq-float", "seq-string", "window-list", "window-object", "bits-bool", "bits-float"],
)
def test_cli_oracle_rejects_coercible_operands(op, payload, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    assert main(["oracle", op, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_oracle_ops(tmp_path, capsys):
    def call(op, payload):
        path = tmp_path / f"{op}.json"
        path.write_text(json.dumps(payload))
        rc = main(["oracle", op, str(path)])
        captured = capsys.readouterr()
        return rc, captured

    rc, captured = call("refines_at", {"f": [0, 2, 4], "g": [0, 1, 4], "window": [0, 4]})
    assert rc == 0 and json.loads(captured.out) == {"violations": [0]}

    rc, captured = call(
        "e_member",
        {"z": "0100", "x": [0, 0, 0, 1], "f": [0, 2, 4], "m": 0, "window": {"start": 0, "limit": 4}},
    )
    assert rc == 0 and json.loads(captured.out) == {"member": True}

    rc, captured = call(
        "non_subset_witness",
        {"x": "0" * 16, "y": "0" * 16, "f": [0, 2, 4, 6, 8, 10, 12, 14, 16],
         "g": list(range(17)), "window": [0, 16]},
    )
    assert rc == 0 and json.loads(captured.out) == {"witness": "0101010101010101"}

    # no violating block at all: an honest "nothing found", not bad input
    rc, captured = call(
        "non_subset_witness",
        {"x": "0000", "y": "0000", "f": [0, 2, 4], "g": [0, 2, 4], "window": [0, 4]},
    )
    assert rc == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1

    rc, captured = call("remark_counterexamples", {"bound": 64})
    assert rc == 0
    obj = json.loads(captured.out)
    pointwise, refining = remark_counterexamples(64)
    assert obj == {
        "pointwise_only": [list(pointwise[0]), list(pointwise[1])],
        "refining_only": [list(refining[0]), list(refining[1])],
    }

    rc, _ = call("remark_counterexamples", {"bound": 15})
    assert rc == 2
    rc, _ = call("e_member", {"z": "01", "x": "00", "f": [0, 2], "m": -1, "window": [0, 2]})
    assert rc == 2
    rc, _ = call("refines_at", {"f": [2, 1], "g": [0, 1], "window": [0, 2]})
    assert rc == 2
