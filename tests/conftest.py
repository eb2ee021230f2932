"""Shared test helpers: seeded poset generation, chain auditing, and a growth bound."""

import random

import pytest

from blockforcing import Poset, leq_check, restrict
from blockforcing.resolution import Workspace

# Growth is polynomial: no tier-1 test writes a t-value above about 450.
# A run that grows past this bound fails at once rather than hanging or
# filling memory first.  A test module may set its own MAX_T_VALUE: the
# slow suite, which imports this guard, reaches about 13,300 (star 24).
MAX_T_VALUE = 10**4


@pytest.fixture(autouse=True)
def bounded_growth(request, monkeypatch):
    append = Workspace.append_t
    bound = getattr(request.module, "MAX_T_VALUE", MAX_T_VALUE)

    def checked(self, b, value):
        if value > bound:
            pytest.fail(f"t at {b!r} reached {value}, past the growth bound {bound}")
        append(self, b, value)

    monkeypatch.setattr(Workspace, "append_t", checked)


def random_poset(seed, max_elements=6, edge_chance=0.4):
    """A small random poset, acyclic by construction (edges follow index order)."""
    rng = random.Random(seed)
    n = rng.randint(1, max_elements)
    names = [f"e{i}" for i in range(n)]
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_chance:
                relations.append((names[i], names[j]))
    return Poset(names, relations)


def assert_chain_sound(run, jumps=(2, 7)):
    """Audit a finished run's chain from outside the engine.

    Adjacent links must satisfy the full four-clause order; restricting
    both sides at any coordinate must preserve it; and non-adjacent
    samples spot-check that the verified links compose.
    """
    rp = run.rp
    certs = run.certificates
    chain = run.chain

    cache = {}
    for q, p in zip(chain, chain[1:]):
        report = leq_check(p, q, rp, certs, cache=cache)
        assert report.ok, f"adjacent link failed: {report.violations}"

    for b in sorted(rp.poset.elements):
        bcache = {}
        for q, p in zip(chain, chain[1:]):
            report = leq_check(restrict(p, b, rp), restrict(q, b, rp), rp, certs, cache=bcache)
            assert report.ok, f"restriction at {b!r} broke a link: {report.violations}"

    n = len(chain)
    for jump in jumps:
        if n <= jump:
            continue
        step = max(1, (n - jump) // 3)
        for i in range(0, n - jump, step):
            report = leq_check(chain[i + jump], chain[i], rp, certs)
            assert report.ok, f"links {i + jump} <= {i} failed: {report.violations}"
