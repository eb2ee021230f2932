"""Acceptance gate: seven criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value here is either computed by an independent oracle
in this file or asserted directly against the public audit functions.
"""

import random
import time
from contextlib import contextmanager

import pytest

from blockforcing import (
    BitSeq,
    GoalPlan,
    GroundReal,
    IncSeq,
    Poset,
    Scenario,
    Window,
    build_generic,
    build_goals,
    check_coverage,
    compute_ranks,
    e_member,
    non_subset_witness,
    refines_at,
    remark_counterexamples,
    render_report,
    run_scenario,
    star_dominates_at,
    tiny_subset_check,
)
from blockforcing.errors import InsufficientViolations
from conftest import assert_chain_sound, random_poset


V_POSET = Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])
FIXED_POSETS = (
    ("singleton", Poset(["a"])),
    ("two-chain", Poset(["a", "b"], [("a", "b")])),
    ("two-antichain", Poset(["a", "b"])),
    ("join", V_POSET),
)
FIVE_REALS = ("zeros", "ones", "periodic:01", "periodic:0110", "seeded-random:1")


@contextmanager
def _criterion(n, claim):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {n}] FAIL - {claim}")
        raise
    print(f"\n[criterion {n}] PASS - {claim}")


@pytest.fixture(scope="module")
def matrix_runs():
    """Criterion 3 corpus: 4 fixed shapes plus 50 seeded posets, defaults."""
    shapes = list(FIXED_POSETS) + [(f"random-{s}", random_poset(s)) for s in range(50)]
    started = time.perf_counter()
    bundle = []
    for label, poset in shapes:
        sc = Scenario(poset=poset, cofinal=frozenset(poset.elements))
        run, iso, cov = run_scenario(sc)
        bundle.append((label, run, iso, cov))
    return bundle, time.perf_counter() - started


@pytest.fixture(scope="module")
def coverage_bundle():
    """Criterion 4 runs: the five-pattern scenario and its adversarial twin."""
    sc = Scenario(
        poset=V_POSET,
        cofinal=frozenset({"a", "b", "c"}),
        ground_reals=FIVE_REALS,
    )
    run, iso, cov = run_scenario(sc)

    # Adversarial twin: the run only ever chased 'ones', yet the audit
    # judges 'zeros' too, whose bits the built Cohen word copies exactly.
    rp = compute_ranks(V_POSET)
    chased = GroundReal("ones", 3)
    adv_run = build_generic(rp, build_goals(rp, (chased,), GoalPlan()), 4096)
    adv_sc = Scenario(
        poset=V_POSET,
        cofinal=frozenset({"a", "b", "c"}),
        seed=3,
        ground_reals=("zeros", "ones"),
    )
    adv_cov = check_coverage(adv_run, adv_sc)
    return sc, run, iso, cov, adv_run, adv_cov


def _refining_pair(rng):
    """A seeded (f, g) with g's values drawn from f's, sharing endpoints."""
    n = rng.randint(6, 12)
    size = rng.randint(3, min(8, n))
    interior = sorted(rng.sample(range(1, n), size - 2))
    keep = [v for v in interior if rng.random() < 0.5]
    return IncSeq([0] + interior + [n]), IncSeq([0] + keep + [n]), n


def test_block_disagreement_transfer():
    claim = "everywhere-disagreement transfers from finer to coarser blocks"
    with _criterion(1, claim):
        started = time.perf_counter()
        leaks = 0
        largest = 0
        for seed in range(50):
            f, g, n = _refining_pair(random.Random(seed))
            w = Window(0, n)
            assert refines_at(f, g, w) == set()
            assert len(g) >= 2
            largest = max(largest, n)
            leaks += len(tiny_subset_check(BitSeq((0,) * n), f, g, w))
        elapsed = time.perf_counter() - started
        assert leaks == 0
        assert largest == 12  # the exhaustive bound is actually reached
        assert elapsed < 30.0
        print(f"\n  50 pairs, words up to 2^12, {leaks} leaks, {elapsed:.2f}s")


def _witness_instance(rng):
    limit = 64
    while True:
        f_vals = [0] + sorted(rng.sample(range(1, limit), rng.randint(10, 24))) + [limit]
        g_vals = [0] + sorted(rng.sample(range(1, limit), rng.randint(36, 52))) + [limit]
        x = BitSeq(rng.randrange(2) for _ in range(limit))
        y = BitSeq(rng.randrange(2) for _ in range(limit))
        f, g = IncSeq(f_vals), IncSeq(g_vals)
        w = Window(0, limit)
        try:
            z = non_subset_witness(x, y, f, g, w)
        except InsufficientViolations:
            continue
        return x, y, f, g, w, z


def test_witness_construction():
    claim = "separating words pass the finer-side test and copy two whole blocks"
    with _criterion(2, claim):
        started = time.perf_counter()
        failures = 0
        for seed in range(200):
            x, y, f, g, w, z = _witness_instance(random.Random(seed))
            inside = e_member(z, x, f, 0, w)
            agreeing = sum(
                1
                for lo, hi in g.blocks()
                if all(z[j] == y[j] for j in range(lo, hi))
            )
            if not inside or agreeing < 2:
                failures += 1
        elapsed = time.perf_counter() - started
        assert failures == 0
        assert elapsed < 10.0

        # the same construction without thinning demonstrably fails:
        # copying two adjacent unit blocks leaves a whole fine block agreeing
        f = IncSeq(range(0, 18, 2))
        g = IncSeq(range(17))
        x = y = BitSeq((0,) * 17)
        w = Window(0, 16)
        assert refines_at(f, g, w) == set(range(16))
        z_adjacent = [1 - x[j] for j in range(16)]
        for n in (0, 1):
            for j in range(g[n], g[n + 1]):
                z_adjacent[j] = y[j]
        assert not e_member(z_adjacent, x, f, 0, w)
        print(f"\n  200 witnesses, 0 failures, {elapsed:.2f}s; adjacent copy fails as required")


def test_order_matrix(matrix_runs):
    claim = "derived sequences realize the input order on every judged poset"
    with _criterion(3, claim):
        bundle, elapsed = matrix_runs
        assert len(bundle) == 54
        undetermined = 0
        for label, run, iso, cov in bundle:
            assert iso.ok, f"{label}: order audit failed"
            poset = run.rp.poset
            for a in sorted(poset.elements):
                for b in sorted(poset.elements):
                    verdict = iso.cells[a][b]["verdict"]
                    if verdict == "undetermined":
                        undetermined += 1
                    expected = "subset-certified" if poset.leq(a, b) else "non-subset-certified"
                    assert verdict == expected, (label, a, b, verdict)
        assert undetermined == 0
        assert elapsed < 60.0
        print(f"\n  54 posets, 0 undetermined cells, {elapsed:.2f}s")


def test_pattern_coverage(coverage_bundle):
    claim = "late blocks of maximal coordinates always meet pattern disagreements"
    with _criterion(4, claim):
        _, run, iso, cov, adv_run, adv_cov = coverage_bundle
        assert iso.ok
        assert cov.ok
        assert {e.real for e in cov.entries} == set(FIVE_REALS)
        for entry in cov.entries:
            assert entry.misses == ()
            assert entry.note == ""  # every pattern had a met goal
        assert not adv_cov.ok
        adv_missed = [e for e in adv_cov.entries if e.misses]
        assert adv_missed and {e.real for e in adv_missed} == {"zeros"}
        print(
            f"\n  5 patterns clean past thresholds "
            f"{sorted(e.block_threshold for e in cov.entries)}; "
            f"adversarial run misses {len(adv_missed[0].misses)} blocks"
        )


def test_chain_soundness(matrix_runs, coverage_bundle):
    claim = "every emitted chain link verifies under the four-clause order"
    with _criterion(5, claim):
        bundle, _ = matrix_runs
        _, run, _, _, adv_run, _ = coverage_bundle
        links = 0
        for label, chained, _, _ in bundle:
            assert_chain_sound(chained)
            links += len(chained.chain) - 1
        for chained in (run, adv_run):
            assert_chain_sound(chained)
            links += len(chained.chain) - 1
        print(f"\n  56 runs, {links} adjacent links verified, plus sampled long jumps")


def test_search_certificates():
    claim = "the two domination-vs-refinement separating pairs re-validate"
    with _criterion(6, claim):
        pointwise_only, refining_only = remark_counterexamples(64)

        f1, g1 = pointwise_only
        w1 = Window(0, len(f1))
        assert star_dominates_at(f1, g1, w1) == set()  # f1 never exceeds g1
        assert refines_at(f1, g1, Window(0, g1.last)) != set()

        f2, g2 = refining_only
        w2 = Window(0, len(f2))
        assert refines_at(f2, g2, Window(0, g2.last)) == set()
        assert star_dominates_at(f2, g2, w2) != set()  # yet f2 exceeds g2 somewhere
        print(
            f"\n  pointwise-only pair {tuple(f1)} vs {tuple(g1)}; "
            f"refining-only pair {tuple(f2)} vs {tuple(g2)}"
        )


def test_report_determinism(coverage_bundle):
    claim = "fixed seeds reproduce reports byte for byte"
    with _criterion(7, claim):
        sc = coverage_bundle[0]
        first = render_report(*run_scenario(sc), sc)
        second = render_report(*run_scenario(sc), sc)
        assert first == second

        rnd_sc = Scenario(
            poset=random_poset(7),
            cofinal=frozenset(random_poset(7).elements),
            seed=7,
            ground_reals=("seeded-random:4",),
        )
        assert render_report(*run_scenario(rnd_sc), rnd_sc) == render_report(
            *run_scenario(rnd_sc), rnd_sc
        )
        print("\n  two scenarios, two fresh reruns each, byte-identical reports")
