"""Finite block combinatorics against independent brute-force oracles."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockforcing import (
    BitSeq,
    EmptySequence,
    IncSeq,
    InsufficientViolations,
    LengthTooShort,
    SearchExhausted,
    SpecError,
    Window,
    e_member,
    non_subset_witness,
    refines_at,
    remark_counterexamples,
    star_dominates_at,
)


# -- oracles: independent recomputations by double loop --


def oracle_refine_violations(f, g, w):
    if len(f) == 0 or len(g) == 0:
        raise EmptySequence
    cap = min(w.limit, f.values[-1])
    out = set()
    for n in range(w.start, len(g) - 1):
        if g[n + 1] > cap:
            break
        whole = any(
            g[n] <= f[k] and f[k + 1] <= g[n + 1] for k in range(len(f) - 1)
        )
        if not whole:
            out.add(n)
    return out


def oracle_e_member(z, x, f, m):
    for n in range(m, len(f) - 1):
        if all(z[j] == x[j] for j in range(f[n], f[n + 1])):
            return False
    return True


inc_seqs = st.lists(
    st.integers(min_value=0, max_value=40), min_size=2, max_size=10, unique=True
).map(lambda vs: IncSeq(sorted(vs)))

windows = st.tuples(st.integers(0, 6), st.integers(0, 45)).map(
    lambda p: Window(p[0], p[0] + p[1])
)


# -- sequence containers --


def test_inc_seq_validation():
    assert tuple(IncSeq([0, 2, 5])) == (0, 2, 5)
    with pytest.raises(ValueError):
        IncSeq([3, 3])
    with pytest.raises(ValueError):
        IncSeq([2, 1])
    with pytest.raises(ValueError):
        IncSeq([-1, 4])
    with pytest.raises(EmptySequence):
        IncSeq().last
    assert IncSeq([1, 4]).last == 4
    assert list(IncSeq([0, 2, 5]).blocks()) == [(0, 2), (2, 5)]


def test_bit_seq_validation():
    assert BitSeq.from01("0110").to01() == "0110"
    assert len(BitSeq([1, 0])) == 2
    for bad in (2, 255, 300, -1):
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            BitSeq([0, bad, 1])


@pytest.mark.parametrize(
    "make, entries",
    [
        (BitSeq, [0.7, 1.2]),
        (BitSeq, ["1", "0"]),
        (IncSeq, [1.5, 2.9]),
        (IncSeq, ["3", "10"]),
    ],
)
def test_containers_reject_non_integer_entries(make, entries):
    # no truncation and no parsing: a float or a string is not an entry
    with pytest.raises(ValueError):
        make(entries)


@given(st.lists(st.one_of(st.integers(-1, 300), st.booleans()), max_size=12))
def test_bit_seq_checks_every_container_alike(entries):
    # A list, a tuple and (when every entry fits in a byte) bytes and a
    # bytearray give the same word, or fail with the same message.
    def outcome(form):
        try:
            return BitSeq(form).bits
        except ValueError as err:
            return str(err)

    forms = [list(entries), tuple(entries)]
    if all(0 <= v <= 255 for v in entries):
        forms += [bytes(entries), bytearray(entries)]
    outcomes = {outcome(form) for form in forms}
    good = all(v in (0, 1) for v in entries)
    assert outcomes == {bytes(entries) if good else "bits must be 0 or 1"}


def test_containers_convert_bools():
    assert list(BitSeq([True, False]).bits) == [1, 0]
    assert IncSeq([False, True, 4]).values == (0, 1, 4)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(3, 2)
    with pytest.raises(ValueError):
        Window(-1, 5)


# Callers hand the block functions lists, tuples or the package's own
# containers; block slices must compare equal whatever they came in.
def _container(kind, entries):
    if kind == "list":
        return list(entries)
    if kind == "tuple":
        return tuple(entries)
    return BitSeq(entries) if kind == "bits" else IncSeq(entries)


word_kinds = st.sampled_from(["list", "tuple", "bits"])
seq_kinds = st.sampled_from(["list", "tuple", "inc"])


# -- refinement --


def test_refines_frozen_examples():
    # coarse g over a fine f: everything judged is fine
    assert refines_at(IncSeq([0, 1, 2, 3, 4]), IncSeq([0, 2, 4]), Window(0, 4)) == set()
    # unit g-blocks can never contain a width-2 f-block: all judged indices fail
    assert refines_at(
        IncSeq([0, 2, 4, 6, 8]), IncSeq(range(9)), Window(0, 8)
    ) == {0, 1, 2, 3, 4, 5, 6, 7}
    # threshold cuts judging: same pair judged from index 5 on
    assert refines_at(
        IncSeq([0, 2, 4, 6, 8]), IncSeq(range(9)), Window(5, 8)
    ) == {5, 6, 7}
    # limit cuts judging by value, not index
    assert refines_at(
        IncSeq([0, 2, 4, 6, 8]), IncSeq(range(9)), Window(0, 3)
    ) == {0, 1, 2}
    with pytest.raises(EmptySequence):
        refines_at(IncSeq(), IncSeq([0, 1]), Window(0, 4))


@given(inc_seqs, inc_seqs, windows, seq_kinds)
def test_refines_matches_oracle(f, g, w, g_kind):
    assert refines_at(f, _container(g_kind, g), w) == oracle_refine_violations(f, g, w)


@given(inc_seqs, st.data())
def test_refines_on_boundary_subsequence_is_empty(f, data):
    # g drawn from f's own values: every judged g-block spans whole f-blocks
    sub = data.draw(
        st.lists(st.sampled_from(f.values), min_size=2, max_size=len(f), unique=True)
    )
    g = IncSeq(sorted(sub))
    assert refines_at(f, g, Window(0, g.last)) == set()


def test_refines_transitive_on_matched_windows():
    rng = random.Random(31337)
    for _ in range(200):
        base = sorted(rng.sample(range(41), rng.randint(4, 12)))
        mid = sorted(rng.sample(base, rng.randint(3, len(base))))
        top = sorted(rng.sample(mid, rng.randint(2, len(mid))))
        f, g, h = IncSeq(base), IncSeq(mid), IncSeq(top)
        limit = min(f.last, g.last, h.last)
        w = Window(0, limit)
        assert refines_at(f, g, w) == set()
        assert refines_at(g, h, w) == set()
        assert refines_at(f, h, w) == set()


# -- pointwise domination --


def test_star_dominates_frozen():
    assert star_dominates_at((5, 1, 7), (4, 2, 7), Window(0, 3)) == {0}
    assert star_dominates_at((0, 1), (1, 2), Window(0, 2)) == set()
    with pytest.raises(LengthTooShort):
        star_dominates_at((1,), (1, 2), Window(0, 2))


@given(
    st.lists(st.integers(0, 9), min_size=5, max_size=5),
    st.lists(st.integers(0, 9), min_size=5, max_size=5),
    st.integers(0, 4),
)
def test_star_dominates_matches_definition(fv, gv, start):
    w = Window(start, 5)
    assert star_dominates_at(fv, gv, w) == {
        n for n in range(start, 5) if fv[n] > gv[n]
    }


# -- disagreement-set membership --


def test_e_member_frozen():
    f = IncSeq([0, 2, 4])
    w = Window(0, 4)
    # z disagrees with x inside both blocks
    assert e_member(BitSeq.from01("0100"), BitSeq.from01("0001"), f, 0, w)
    # block [2, 4) agrees throughout
    assert not e_member(BitSeq.from01("0100"), BitSeq.from01("0100"), f, 0, w)
    # raising the start index drops the failing block
    assert e_member(BitSeq.from01("1000"), BitSeq.from01("0000"), f, 1, w) is False
    assert e_member(BitSeq.from01("0010"), BitSeq.from01("0000"), f, 1, w) is True
    with pytest.raises(LengthTooShort):
        e_member(BitSeq.from01("01"), BitSeq.from01("01"), f, 0, w)
    with pytest.raises(LengthTooShort):
        e_member(BitSeq.from01("0101"), BitSeq.from01("0101"), f, 0, Window(0, 3))
    with pytest.raises(EmptySequence):
        e_member(BitSeq.from01("01"), BitSeq.from01("10"), IncSeq(), 0, w)


def test_e_member_refuses_a_negative_threshold():
    # Index -1 would read the block [4, 0): an empty slice that "agrees".
    z, x, f, w = (0, 1, 0, 1), (0, 0, 0, 0), (0, 2, 4), Window(0, 4)
    assert e_member(z, x, f, 0, w)
    with pytest.raises(ValueError, match="natural number"):
        e_member(z, x, f, -1, w)


@given(
    st.lists(st.integers(0, 1), min_size=12, max_size=12),
    st.lists(st.integers(0, 1), min_size=12, max_size=12),
    st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True),
    st.integers(0, 4),
    word_kinds,
    word_kinds,
)
def test_e_member_matches_oracle(z, x, fv, m, z_kind, x_kind):
    f = IncSeq(sorted(fv))
    got = e_member(_container(z_kind, z), _container(x_kind, x), f, m, Window(0, 12))
    assert got == oracle_e_member(z, x, f, m)


@given(
    st.lists(st.integers(0, 1), min_size=12, max_size=12),
    st.lists(st.integers(0, 1), min_size=12, max_size=12),
    st.lists(st.integers(0, 12), min_size=2, max_size=6, unique=True),
    st.integers(0, 4),
)
def test_e_member_monotone_in_start(z, x, fv, m):
    # membership only asks for disagreement from the start index on, so
    # moving the start later never turns a member into a non-member
    f = IncSeq(sorted(fv))
    w = Window(0, 12)
    if e_member(z, x, f, m, w):
        assert e_member(z, x, f, m + 1, w)


# -- membership transfer under refinement --


def test_subset_implied_exhaustive():
    # x is all zeros without loss: membership reads only z XOR x, and as z
    # runs over every word so does the XOR
    f = IncSeq([0, 2, 4, 6, 8])
    g = IncSeq([0, 4, 8])
    w = Window(0, 8)
    assert refines_at(f, g, w) == set()
    x = [0] * 8
    for z in product((0, 1), repeat=8):
        if e_member(z, x, f, 0, w):
            assert e_member(z, x, g, 0, w)
    # and the transfer claim really needs refinement: a non-refining pair
    # admits a word inside the f-side set but outside the g-side one
    g_bad = IncSeq([0, 1, 8])
    assert refines_at(f, g_bad, w) != set()
    leak = [z for z in product((0, 1), repeat=8)
            if e_member(z, x, f, 0, w) and not e_member(z, x, g_bad, 0, w)]
    assert leak


# -- explicit non-subset witnesses --


def _greedy_non_adjacent(violations):
    chosen = []
    for n in sorted(violations):
        if chosen and n == chosen[-1] + 1:
            continue
        chosen.append(n)
    return chosen


def test_witness_frozen_unit_block_instance():
    # f has width-2 blocks, g unit blocks: every index violates, thinning
    # keeps the even ones, and the witness alternates
    f = IncSeq(range(0, 17, 2))
    g = IncSeq(range(17))
    w = Window(0, 16)
    x = BitSeq([0] * 16)
    y = BitSeq([0] * 16)
    z = non_subset_witness(x, y, f, g, w)
    assert z.to01() == "0101010101010101"
    assert e_member(z, x, f, 0, w)
    agreeing = [n for n in range(len(g) - 1) if all(z[j] == y[j] for j in range(g[n], g[n + 1]))]
    assert len(agreeing) >= 2
    assert set(_greedy_non_adjacent(refines_at(f, g, w))) <= set(agreeing)


def test_unthinned_adjacent_choice_fails():
    # copying y across two adjacent violating unit blocks lets one f-block
    # span both, where the word then agrees with x throughout: the whole
    # reason the construction thins to non-adjacent blocks
    f = IncSeq(range(0, 17, 2))
    g = IncSeq(range(17))
    w = Window(0, 16)
    x = [0] * 16
    y = [0] * 16
    z = [1 - x[j] for j in range(16)]
    for n in (0, 1):  # adjacent, deliberately not thinned
        for j in range(g[n], g[n + 1]):
            z[j] = y[j]
    assert not e_member(z, x, f, 0, w)


def test_witness_requires_two_nonadjacent_violations():
    f = IncSeq([0, 2, 4])
    g = IncSeq([0, 1, 4])  # single violating block
    with pytest.raises(InsufficientViolations):
        non_subset_witness([0] * 4, [0] * 4, f, g, Window(0, 4))
    with pytest.raises(LengthTooShort):
        non_subset_witness(
            [0] * 4, [0] * 4, IncSeq(range(0, 17, 2)), IncSeq(range(17)), Window(0, 16)
        )


def test_witness_random_instances():
    rng = random.Random(90210)
    built = 0
    while built < 120:
        fv = sorted(rng.sample(range(33), rng.randint(4, 10)))
        gv = sorted(rng.sample(range(33), rng.randint(4, 10)))
        f, g = IncSeq(fv), IncSeq(gv)
        w = Window(0, 32)
        if len(_greedy_non_adjacent(refines_at(f, g, w))) < 2:
            continue
        need = max(f.last, g.last)
        x = [rng.randint(0, 1) for _ in range(need)]
        y = [rng.randint(0, 1) for _ in range(need)]
        z = non_subset_witness(x, y, f, g, w)
        assert e_member(z, x, f, 0, w)
        agreeing = sum(
            1 for lo, hi in g.blocks() if all(z[j] == y[j] for j in range(lo, hi))
        )
        assert agreeing >= 2
        built += 1


@given(inc_seqs, inc_seqs, word_kinds, word_kinds, seq_kinds, st.data())
def test_witness_checked_by_oracles_on_any_container(f, g, x_kind, y_kind, fg_kind, data):
    w = Window(0, 40)
    need = max(f.last, g.last)
    bits = st.lists(st.integers(0, 1), min_size=need, max_size=need)
    x, y = data.draw(bits), data.draw(bits)
    chosen = _greedy_non_adjacent(oracle_refine_violations(f, g, w))
    args = (
        _container(x_kind, x),
        _container(y_kind, y),
        _container(fg_kind, f),
        _container(fg_kind, g),
        w,
    )
    if len(chosen) < 2:
        with pytest.raises(InsufficientViolations):
            non_subset_witness(*args)
        return
    z = non_subset_witness(*args)
    assert len(z) == need
    # disagrees with x inside every f-block ...
    assert oracle_e_member(z, x, f, 0)
    # ... and equals y throughout two g-blocks with a gap between them
    agreeing = [
        n for n in range(len(g) - 1) if all(z[j] == y[j] for j in range(g[n], g[n + 1]))
    ]
    assert any(later > first + 1 for first in agreeing for later in agreeing)


@settings(max_examples=300, deadline=None)
@given(inc_seqs, inc_seqs, st.integers(0, 4), st.data())
def test_word_functions_read_every_container_alike(f, g, m, data):
    # Words are compared only after one conversion to bytes, so a tuple, a
    # list, bytes and a BitSeq, in any mix, give the same answer or the same exception.
    w = Window(0, 40)
    need = max(f.last, g.last)
    bits = st.lists(st.integers(0, 1), min_size=max(need - 2, 0), max_size=need + 2)
    z, x, y = data.draw(bits), data.draw(bits), data.draw(bits)
    kinds = st.sampled_from([tuple, list, bytes, BitSeq])
    kz, kx, ky = (data.draw(kinds) for _ in range(3))

    def outcome(call):
        try:
            return call()
        except (InsufficientViolations, LengthTooShort) as err:
            return type(err), str(err)

    def outcomes(kz, kx, ky):
        return (
            outcome(lambda: e_member(kz(z), kx(x), f, m, w)),
            outcome(lambda: non_subset_witness(kx(x), ky(y), f, g, w)),
        )

    assert outcomes(kz, kx, ky) == outcomes(BitSeq, BitSeq, BitSeq)


# -- the separating certificate search --


def test_remark_counterexamples_frozen():
    (f1, g1), (f2, g2) = remark_counterexamples(64)
    assert (tuple(f1), tuple(g1)) == ((0, 1, 3), (0, 2, 3))
    assert (tuple(f2), tuple(g2)) == ((1, 2, 3), (0, 2, 3))


def test_remark_counterexamples_revalidate():
    (f1, g1), (f2, g2) = remark_counterexamples(64)
    # first pair: pointwise below everywhere, yet fails to refine
    assert star_dominates_at(tuple(f1), tuple(g1), Window(0, len(f1))) == set()
    assert refines_at(f1, g1, Window(0, g1.last)) != set()
    # second pair: refines, yet pointwise above somewhere in the window
    assert refines_at(f2, g2, Window(0, g2.last)) == set()
    assert star_dominates_at(tuple(f2), tuple(g2), Window(0, len(f2))) != set()


def test_remark_counterexamples_deterministic_and_bounded():
    assert remark_counterexamples(64) == remark_counterexamples(16)
    with pytest.raises(SpecError):
        remark_counterexamples(15)
