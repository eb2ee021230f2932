"""Command line front end.

Three subcommands: ``run`` executes a scenario file and emits the audit
report, ``check-poset`` ranks a poset file, and ``oracle`` exposes the
finite block comparisons for one-off use.  Exit codes are uniform:
0 success, 1 honest failure (audit failed, budget exhausted, a name
cannot advance, search found nothing), 2 malformed input or an unwritable report path.
"""

import argparse
import dataclasses
import json
import sys

from .blocks import (
    BitSeq,
    IncSeq,
    Window,
    e_member,
    non_subset_witness,
    refines_at,
    remark_counterexamples,
)
from .errors import (
    BlockForcingError,
    CannotAdvance,
    InsufficientViolations,
    ResolutionExhausted,
    SearchExhausted,
    SpecError,
)
from .harness import _is_int, load_scenario, read_json, render_report, run_scenario
from .poset import compute_ranks, load_poset


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blockforcing",
        description="Block-refinement runs over finite posets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and print its report")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.add_argument("--seed", type=int, help="override the scenario seed")
    p_run.add_argument("--resolution", type=int, help="override the step budget")

    p_check = sub.add_parser("check-poset", help="rank a poset file against its cofinal set")
    p_check.add_argument("poset", help="path to a poset JSON file")

    p_oracle = sub.add_parser("oracle", help="run one finite block comparison")
    p_oracle.add_argument(
        "op",
        choices=["refines_at", "e_member", "non_subset_witness", "remark_counterexamples"],
    )
    p_oracle.add_argument("input", help="path to a JSON file with the operands")

    return parser


def _require_ints(values, key):
    for v in values:
        if not _is_int(v):
            raise SpecError(f'"{key}" must hold only integers, got {v!r}')


def _bits(value, key):
    if isinstance(value, str):
        if any(ch not in "01" for ch in value):
            raise SpecError(f'"{key}" must be a 0/1 string or list, got {value!r}')
        return BitSeq.from01(value)
    if isinstance(value, list):
        _require_ints(value, key)
        try:
            return BitSeq(value)
        except ValueError as err:
            raise SpecError(f'"{key}" must hold only 0/1 entries: {err}') from err
    raise SpecError(f'"{key}" must be a 0/1 string or list, got {value!r}')


def _seq(value, key):
    if not isinstance(value, list):
        raise SpecError(f'"{key}" must be a list of naturals, got {value!r}')
    _require_ints(value, key)
    try:
        return IncSeq(value)
    except ValueError as err:
        raise SpecError(f'"{key}" must be strictly increasing naturals: {err}') from err


def _window(value):
    if isinstance(value, list) and len(value) == 2:
        start, limit = value
    elif isinstance(value, dict) and set(value) == {"start", "limit"}:
        start, limit = value["start"], value["limit"]
    else:
        raise SpecError(f'"window" must be [start, limit], got {value!r}')
    _require_ints((start, limit), "window")
    try:
        return Window(start, limit)
    except ValueError as err:
        raise SpecError(f"bad window: {err}") from err


def _field(obj, key):
    if not isinstance(obj, dict) or key not in obj:
        raise SpecError(f'input must be an object with a "{key}" field')
    return obj[key]


def _cmd_run(args):
    sc = load_scenario(args.scenario)
    if args.seed is not None:
        sc = dataclasses.replace(sc, seed=args.seed)
    if args.resolution is not None:
        sc = dataclasses.replace(sc, resolution=args.resolution)

    try:
        run, iso, cov = run_scenario(sc)
    except ResolutionExhausted as err:
        # A budget refused before the goals were built has no indices to list.
        unmet = list(err.unmet) if err.unmet else "not listed"
        print(f"budget exhausted: {err} (unmet goal indices {unmet})", file=sys.stderr)
        return 1
    except CannotAdvance as err:
        print(f"cannot advance: {err}", file=sys.stderr)
        return 1

    text = render_report(run, iso, cov, sc)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise SpecError(f"cannot write report {args.out!r}: {err}") from err
    else:
        sys.stdout.write(text)

    failed = []
    if not iso.ok:
        failed.append("order audit")
    if not cov.ok:
        failed.append("coverage audit")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def _cmd_check_poset(args):
    poset, cofinal = load_poset(read_json(args.poset, "poset file"))
    rp = compute_ranks(poset, cofinal)
    for x in sorted(poset.elements):
        print(f"rank({x}) = {rp.ranks[x]}")
    print(f"top rank = {rp.top_rank}")
    return 0


def _cmd_oracle(args):
    obj = read_json(args.input, "input file")
    if args.op == "refines_at":
        out = refines_at(
            _seq(_field(obj, "f"), "f"),
            _seq(_field(obj, "g"), "g"),
            _window(_field(obj, "window")),
        )
        print(json.dumps({"violations": sorted(out)}))
    elif args.op == "e_member":
        m = _field(obj, "m")
        if not _is_int(m) or m < 0:
            raise SpecError(f'"m" must be a natural number, got {m!r}')
        out = e_member(
            _bits(_field(obj, "z"), "z"),
            _bits(_field(obj, "x"), "x"),
            _seq(_field(obj, "f"), "f"),
            m,
            _window(_field(obj, "window")),
        )
        print(json.dumps({"member": bool(out)}))
    elif args.op == "non_subset_witness":
        try:
            out = non_subset_witness(
                _bits(_field(obj, "x"), "x"),
                _bits(_field(obj, "y"), "y"),
                _seq(_field(obj, "f"), "f"),
                _seq(_field(obj, "g"), "g"),
                _window(_field(obj, "window")),
            )
        except InsufficientViolations as err:
            print(f"no witness: {err}", file=sys.stderr)
            return 1
        print(json.dumps({"witness": out.to01()}))
    else:
        bound = _field(obj, "bound")
        if not _is_int(bound):
            raise SpecError(f'"bound" must be an integer, got {bound!r}')
        try:
            pointwise_only, refining_only = remark_counterexamples(bound)
        except SearchExhausted as err:
            print(f"search exhausted: {err}", file=sys.stderr)
            return 1
        print(
            json.dumps(
                {
                    "pointwise_only": [list(pointwise_only[0]), list(pointwise_only[1])],
                    "refining_only": [list(refining_only[0]), list(refining_only[1])],
                }
            )
        )
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check-poset":
            return _cmd_check_poset(args)
        return _cmd_oracle(args)
    except BlockForcingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
