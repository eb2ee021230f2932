"""Poset construction, cofinal ranks, and the derived orders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from blockforcing import (
    CycleError,
    NotCofinal,
    Poset,
    SpecError,
    UnknownElement,
    compute_ranks,
    load_poset,
)
from blockforcing.poset import dump_poset, restricted_linear_order
from conftest import random_poset


V = Poset(["a", "b", "c"], [("a", "c"), ("b", "c")])


def test_poset_closure_and_relations():
    chain = Poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert chain.lt("x", "z")  # transitive closure is stored
    assert chain.leq("x", "x") and not chain.lt("x", "x")
    assert V.maximal_elements() == {"c"}
    assert Poset(["p", "q"]).maximal_elements() == {"p", "q"}


def test_poset_rejects_bad_input():
    with pytest.raises(CycleError):
        Poset(["x", "y"], [("x", "y"), ("y", "x")])
    with pytest.raises(CycleError):
        Poset(["x"], [("x", "x")])
    with pytest.raises(UnknownElement):
        Poset(["x"], [("x", "ghost")])
    with pytest.raises(UnknownElement):
        V.lt("a", "ghost")


def test_ranks_whole_poset_cofinal():
    rp = compute_ranks(V)
    assert rp.ranks == {"a": 0, "b": 0, "c": 1}
    assert rp.top_rank == 2


def test_ranks_proper_cofinal_subset():
    chain = Poset(["a", "b"], [("a", "b")])
    rp = compute_ranks(chain, {"b"})
    # a borrows the least rank strictly above it inside the cofinal set
    assert rp.ranks == {"a": 0, "b": 0}
    assert rp.top_rank == 1


def test_ranks_not_cofinal():
    two = Poset(["a", "b"])
    with pytest.raises(NotCofinal):
        compute_ranks(two, {"b"})


def test_rank_never_decreases_upward():
    for seed in range(80):
        poset = random_poset(seed)
        rp = compute_ranks(poset)
        for x in poset.elements:
            for y in poset.elements:
                if poset.lt(x, y):
                    assert rp.ranks[x] <= rp.ranks[y]


def test_strictly_below_relation():
    rp = compute_ranks(V)
    assert rp.below == {"a": set(), "b": set(), "c": {"a", "b"}}
    chain_rp = compute_ranks(Poset(["a", "b"], [("a", "b")]), {"b"})
    assert chain_rp.below["b"] == set()  # tied rank, so not strictly below
    with pytest.raises(UnknownElement):
        rp.rank_of("ghost")


def test_relabeling_invariance():
    for seed in range(40):
        poset = random_poset(seed)
        rp = compute_ranks(poset)
        relabel = {x: f"n_{x}" for x in poset.elements}
        mirrored = Poset(
            [relabel[x] for x in poset.elements],
            [(relabel[x], relabel[y]) for x, y in poset.pairs],
        )
        rp2 = compute_ranks(mirrored)
        assert rp2.ranks == {relabel[x]: r for x, r in rp.ranks.items()}
        assert rp2.top_rank == rp.top_rank


def test_restricted_linear_order():
    assert restricted_linear_order(V, {"c", "b", "a"}) == ["a", "b", "c"]
    for seed in range(40):
        poset = random_poset(seed)
        order = restricted_linear_order(poset, poset.elements)
        pos = {x: i for i, x in enumerate(order)}
        for x, y in poset.pairs:
            assert pos[x] < pos[y]
        # dropping a suffix never changes the prefix ordering
        for cut in range(1, len(order)):
            assert restricted_linear_order(poset, order[:cut]) == order[:cut]


def test_poset_json_round_trip():
    obj = dump_poset(V, {"a", "c"})
    assert obj == {
        "elements": ["a", "b", "c"],
        "relations": [["a", "c"], ["b", "c"]],
        "cofinal_set": ["a", "c"],
    }
    poset, cof = load_poset(obj)
    assert poset == V
    assert cof == {"a", "c"}
    # cofinal defaults to every element
    _, cof_all = load_poset(dump_poset(V))
    assert cof_all == {"a", "b", "c"}


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {"elements": "abc"},
        {"elements": ["a"], "relations": [["a"]]},
        {"elements": ["a"], "relations": [["a", 3]]},
        {"elements": ["a"], "cofinal_set": ["ghost"]},
        {"elements": ["a"], "cofinal_set": "a"},
    ],
)
def test_load_poset_rejects_malformed(obj):
    with pytest.raises(SpecError):
        load_poset(obj)


@given(st.integers(0, 10_000))
def test_random_posets_are_valid(seed):
    poset = random_poset(seed)
    rp = compute_ranks(poset)
    assert set(rp.ranks) == poset.elements
    assert all(rank < rp.top_rank for rank in rp.ranks.values())
