"""Block-refinement orders, stratified conditions, and goal-driven runs.

The package splits into a finite combinatorics layer (block refinement,
pointwise domination, disagreement-set membership, explicit witnesses),
a poset layer (cofinal ranks and the strict-below relation), a condition
layer (the four-clause extension order with checkable certificates), an
engine (grow a verified descending chain until every goal is met), and a
harness (scenario files, the embedding matrix, coverage audits).

Quick use::

    from blockforcing import Scenario, load_poset, run_scenario

    sc = Scenario.from_json({
        "poset": {"elements": ["a", "b", "c"], "relations": [["a", "c"], ["b", "c"]]},
        "ground_reals": ["zeros", "periodic:01"],
    })
    run, order_report, coverage = run_scenario(sc)
    assert order_report.ok and coverage.ok
"""

from .blocks import (
    BitSeq,
    IncSeq,
    Window,
    e_member,
    non_subset_witness,
    refines_at,
    remark_counterexamples,
    star_dominates_at,
)
from .conditions import leq_check, restrict
from .engine import (
    CohenDisagreeGoal,
    DominateGoal,
    IncomparableGoal,
    LengthGoal,
    build_generic,
    goal_descriptor,
)
from .errors import (
    BlockForcingError,
    CannotAdvance,
    CycleError,
    EmptySequence,
    InsufficientViolations,
    LengthTooShort,
    NotCofinal,
    NotIncomparable,
    ResolutionExhausted,
    SearchExhausted,
    SpecError,
    UnknownElement,
)
from .harness import (
    GoalPlan,
    Scenario,
    build_goals,
    check_coverage,
    check_isomorphism,
    load_scenario,
    render_report,
    run_scenario,
    tiny_subset_check,
)
from .names import CoordinateName, DiagonalName, GroundName, MergeName
from .patterns import GroundReal
from .poset import Poset, compute_ranks, load_poset

__version__ = "0.1.0"

__all__ = [
    "BitSeq",
    "BlockForcingError",
    "CannotAdvance",
    "CohenDisagreeGoal",
    "CoordinateName",
    "CycleError",
    "DiagonalName",
    "DominateGoal",
    "EmptySequence",
    "GoalPlan",
    "GroundName",
    "GroundReal",
    "IncSeq",
    "IncomparableGoal",
    "InsufficientViolations",
    "LengthGoal",
    "LengthTooShort",
    "MergeName",
    "NotCofinal",
    "NotIncomparable",
    "Poset",
    "ResolutionExhausted",
    "Scenario",
    "SearchExhausted",
    "SpecError",
    "UnknownElement",
    "Window",
    "build_generic",
    "build_goals",
    "check_coverage",
    "check_isomorphism",
    "compute_ranks",
    "e_member",
    "goal_descriptor",
    "leq_check",
    "load_poset",
    "load_scenario",
    "non_subset_witness",
    "refines_at",
    "remark_counterexamples",
    "render_report",
    "restrict",
    "run_scenario",
    "star_dominates_at",
    "tiny_subset_check",
]
