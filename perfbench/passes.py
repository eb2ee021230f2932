"""One pass of a workload: set up, run every scenario once, check, count.

``run.py`` starts each pass in a fresh child process, so that import,
set-up and peak memory are those of a cold process.  A pass is a closed
loop with one caller: the next scenario starts when the previous report
is done.  Every scenario is checked here: a ``BlockForcingError`` (or
any other exception), a failed audit or a link that fails
re-verification marks it failed, and its report digest goes back to the
parent, which compares it across passes and hash seeds.

The counts recorded per scenario are read off the outputs (the chain,
the final condition, the report), so they are exact and cost nothing to
the timed region.
"""

import hashlib
import json
import os
import resource
import sys
import time

import tracing
import workloads


def _merge_depth(nm, merge_type):
    depth = 0
    while isinstance(nm, merge_type):
        depth += 1
        nm = nm.left
    return depth


def _merge_nodes(nm, merge_type):
    if not isinstance(nm, merge_type):
        return 0
    return 1 + _merge_nodes(nm.left, merge_type) + _merge_nodes(nm.right, merge_type)


def run_counts(run, iso, cov):
    """Exact, output-derived work counts of one finished, audited run."""
    from blockforcing import MergeName

    chain = run.chain
    final = chain[-1]
    fresh = 0
    for q, p in zip(chain, chain[1:]):
        for b in q.support & p.support:
            fresh += max(0, len(p.coords[b].t) - max(len(q.coords[b].t), 1))
    names = [part.name for part in final.coords.values()]
    return {
        "engine.steps": len(chain) - 1,
        "engine.goals_met": len(run.ledger),
        "harness.goals": len(run.goals),
        "harness.order_pairs_witnessed": sum(
            "witness_valid" in cell["evidence"] for row in iso.cells.values() for cell in row.values()
        ),
        "harness.coverage_blocks_scanned": sum(
            max(0, len(run.derived.dominating[e.element]) - 1 - e.block_threshold)
            for e in cov.entries
        ),
        "conditions.snapshot_values": sum(
            sum(len(part.t) for part in c.coords.values()) + sum(len(bits) for bits in c.cohen.values())
            for c in chain
        ),
        "conditions.fresh_gaps_checked": fresh,
        "resolution.values_appended": sum(len(part.t) for part in final.coords.values()),
        "resolution.max_t_value": max((part.t[-1] for part in final.coords.values() if len(part.t)), default=0),
        "resolution.cohen_bits": sum(len(bits) for bits in final.cohen.values()),
        "names.max_merge_depth": max((_merge_depth(nm, MergeName) for nm in names), default=0),
        "names.merge_nodes": sum(_merge_nodes(nm, MergeName) for nm in names),
    }


def _reverify(bf, sc, run):
    """Re-check every link, every link restricted to each coordinate, and
    both audits; returns (violations, iso, cov, report text)."""
    rp, certs, chain = run.rp, run.certificates, run.chain
    violations = 0
    cache = {}
    for q, p in zip(chain, chain[1:]):
        violations += len(bf.leq_check(p, q, rp, certs, cache=cache).violations)
    for b in sorted(rp.poset.elements):
        cache = {}
        for q, p in zip(chain, chain[1:]):
            report = bf.leq_check(bf.restrict(p, b, rp), bf.restrict(q, b, rp), rp, certs, cache=cache)
            violations += len(report.violations)
    iso = bf.check_isomorphism(run, question_variant=sc.question_variant)
    cov = bf.check_coverage(run, sc)
    return violations, iso, cov, bf.render_report(run, iso, cov, sc)


class _Captured:
    """Stands in for ``run_scenario`` as the CLI imported it and keeps the
    last result, so output-derived counts exist for CLI runs too."""

    def __init__(self, fn):
        self.fn = fn
        self.last = None

    def __call__(self, sc):
        self.last = self.fn(sc)
        return self.last


def _prepare(bf, workload, pairs, workdir):
    """Turn scenario JSON into what the timed loop consumes."""
    if workload == "corpus":
        return list(zip((sid for sid, _ in pairs), workloads.write_scenarios(pairs, workdir)))
    prepared = []
    for sid, obj in pairs:
        sc = bf.Scenario.from_json(obj)
        if workload == "reaudit":
            try:
                sc = (sc, bf.run_scenario(sc)[0])
            except bf.BlockForcingError as err:
                sc = err
        prepared.append((sid, sc))
    return prepared


def _execute(bf, cli, captured, workload, payload, workdir):
    """Run one scenario; returns a dict of what the checks need.

    Keys: ``error``, ``run``, ``iso``, ``cov``, ``violations``, and the
    report as ``text`` or, for CLI runs, the ``report_path`` it went to.
    """
    if isinstance(payload, Exception):
        return {"error": f"set-up failed: {type(payload).__name__}: {payload}"}
    if workload == "corpus":
        out = os.path.join(workdir, os.path.basename(payload) + ".report")
        code = cli.main(["run", payload, "--out", out])
        if captured.last is None:
            return {"error": f"exit code {code}, no run"}
        run, iso, cov = captured.last
        captured.last = None
        error = None if code == 0 else f"exit code {code}"
        return {"error": error, "run": run, "iso": iso, "cov": cov, "report_path": out}
    if workload == "reaudit":
        sc, run = payload
        violations, iso, cov, text = _reverify(bf, sc, run)
        return {"run": run, "iso": iso, "cov": cov, "violations": violations, "text": text}
    run, iso, cov = bf.run_scenario(payload)
    return {"run": run, "iso": iso, "cov": cov, "text": bf.render_report(run, iso, cov, payload)}


def _check(outcome):
    """The scenario's result entry: its error (None when it passed every
    check), counts, and report digest and size."""
    entry = {"error": outcome.get("error")}
    text = outcome.get("text")
    if os.path.exists(outcome.get("report_path", "")):
        with open(outcome["report_path"]) as fh:
            text = fh.read()
    run = outcome.get("run")
    if run is not None:
        iso, cov = outcome["iso"], outcome["cov"]
        violations = outcome.get("violations", 0)
        entry["counts"] = dict(run_counts(run, iso, cov), **{"conditions.violations": violations})
        if entry["error"] is None and not (iso.ok and cov.ok and violations == 0):
            entry["error"] = (
                f"audit failed: matrix_ok={iso.ok} coverage_ok={cov.ok} link violations={violations}"
            )
    if text is not None:
        report = json.loads(text)
        if entry["error"] is None and not (report["matrix_ok"] and report["coverage_ok"]):
            entry["error"] = "report says an audit failed"
        data = text.encode()
        entry["digest"] = hashlib.sha256(data).hexdigest()
        entry["report_bytes"] = len(data)
    return entry


def run_pass(workload, seed, size, trace, workdir, spans_path=None, pairs=None):
    """One pass; returns a JSON-ready dict of set-up, scenarios and trace.

    ``pairs`` replaces the workload's generated scenarios (the self-test
    uses it to force a failure).
    """
    started = time.perf_counter()
    import blockforcing as bf
    from blockforcing import cli

    if pairs is None:
        pairs = workloads.scenarios(workload, seed, size)
    items = _prepare(bf, workload, pairs, workdir)
    setup_s = time.perf_counter() - started

    captured = _Captured(cli.run_scenario)
    cli.run_scenario = captured
    tracer = tracing.Tracer() if trace else None
    undo = tracing.install(tracer) if tracer else (lambda: None)
    results = []
    try:
        for sid, payload in items:
            t0 = time.perf_counter()
            try:
                if tracer:
                    outcome = tracer.scenario(sid, _execute, bf, cli, captured, workload, payload, workdir)
                else:
                    outcome = _execute(bf, cli, captured, workload, payload, workdir)
            except Exception as err:  # noqa: BLE001 - any crash is a failed scenario
                outcome = {"error": f"{type(err).__name__}: {err}"}
            seconds = time.perf_counter() - t0
            results.append(dict(_check(outcome), sid=sid, seconds=seconds))
            del outcome
    finally:
        undo()
        cli.run_scenario = captured.fn

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scenarios": results,
        "trace": None,
    }
    if tracer:
        out["trace"] = tracer.summary()
        if spans_path:
            tracer.write(spans_path)
    return out


def main(argv):
    workload, seed, size, trace, workdir, spans_path = argv
    result = run_pass(workload, int(seed), size, trace == "1", workdir, spans_path or None)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
