"""Outside-in tracing: spans and counters around the package's own seams.

Nothing under ``src/`` changes.  ``install`` rebinds the public functions
one module imports from another (``condition_of`` and ``leq_check`` as
the engine imported them, ``build_generic`` as the harness imported it,
``Workspace.cascade`` on its class, and so on) to wrappers defined here,
and returns a function that puts the originals back.

A span records its name, start, end, parent span and scenario id; spans
stay in memory until the pass ends.  A layer's self time is the summed
duration of its spans minus the time their child spans cover.  Hot inner
calls (``next_block``, ``append_t``, ``GroundReal.bit``, ``IncSeq``
construction, ``restricted_linear_order``) get counters, not spans.
"""

import json
import time
from collections import Counter

ROOT = "bench.scenario"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, scenario id]
        self.counters = Counter()
        self._stack = []
        self._sid = None

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._sid]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        return traced

    def count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def scenario(self, sid, fn, *args):
        """Run fn(*args) as the root span of scenario sid."""
        self._sid = sid
        try:
            return self.wrap(ROOT, fn)(*args)
        finally:
            self._sid = None

    def summary(self):
        """Self seconds and span count per name, plus the root totals."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _sid in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = Counter()
        calls = Counter()
        wall = 0.0
        for (name, start, end, parent, _sid), child in zip(self.spans, covered):
            self_s[name] += (end - start) - child
            calls[name] += 1
            if parent < 0:
                wall += end - start
        unattributed = self_s.pop(ROOT, 0.0)
        calls.pop(ROOT, None)
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "wall_s": wall,
            "unattributed_s": unattributed,
        }

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, sid in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "scenario": sid}
                    )
                    + "\n"
                )


def _seams():
    """(owner, attribute, span name) for every rebound call site."""
    import blockforcing
    from blockforcing import cli, engine, harness, resolution

    ws = resolution.Workspace
    return [
        (cli, "main", "cli.main"),
        (cli, "load_scenario", "harness.load_scenario"),
        (cli, "run_scenario", "harness.run_scenario"),
        (cli, "render_report", "harness.render"),
        (blockforcing, "run_scenario", "harness.run_scenario"),
        (blockforcing, "render_report", "harness.render"),
        (harness, "compute_ranks", "poset.compute_ranks"),
        (harness, "build_goals", "harness.build_goals"),
        (harness, "build_generic", "engine.build_generic"),
        (harness, "check_isomorphism", "harness.order_audit"),
        (harness, "check_coverage", "harness.coverage_audit"),
        (blockforcing, "check_isomorphism", "harness.order_audit"),
        (blockforcing, "check_coverage", "harness.coverage_audit"),
        (harness, "refines_at", "blocks.refines_at"),
        (harness, "non_subset_witness", "blocks.non_subset_witness"),
        (harness, "e_member", "blocks.e_member"),
        (engine, "condition_of", "conditions.condition_of"),
        (engine, "leq_check", "conditions.leq_check"),
        (blockforcing, "leq_check", "conditions.leq_check"),
        (blockforcing, "restrict", "conditions.restrict"),
        (ws, "cascade", "resolution.cascade"),
    ]


def _counted():
    """(owner, attribute, counter name) for the hot inner calls."""
    from blockforcing import engine, patterns, resolution

    ws = resolution.Workspace
    return [
        (ws, "next_block", "resolution.next_block_calls"),
        (ws, "append_t", "resolution.append_t_calls"),
        (patterns.GroundReal, "bit", "patterns.bit_calls"),
        (engine, "restricted_linear_order", "poset.restricted_linear_order_calls"),
        (resolution, "restricted_linear_order", "poset.restricted_linear_order_calls"),
    ]


def install(tracer):
    """Rebind every seam to tracer's wrappers; returns the undo function."""
    from blockforcing.blocks import IncSeq

    saved = []
    for owner, attr, name in _seams():
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    for owner, attr, name in _counted():
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.count(name, getattr(owner, attr)))

    init = IncSeq.__init__
    counters = tracer.counters

    def counted_init(self, values=()):
        init(self, values)
        counters["blocks.incseq_values"] += len(self.values)

    saved.append((IncSeq, "__init__", init))
    IncSeq.__init__ = counted_init

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
