"""One workload process: set up, run timed passes, trace, check, report.

Started by ``run.py`` in a fresh interpreter, so import cost and peak memory
belong to the workload.  One client sends queries in a closed loop: each
``cglogic.cli.main([... "--json", ...])`` call starts only after the previous
reply, in one thread.  The query phase runs whole passes over the seeded
query list until ``--seconds`` have passed and at least ``MIN_QUERIES``
replies are in.  With ``--trace 1`` one further pass runs under the tracer.
Replies are checked after the timed passes.  The last line of standard
output is one JSON record for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_QUERIES = 100
FAILURES_SHOWN = 5


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it.  Only a percentile with at least
    ten values beyond it is reported, so p90 needs 100 values."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    if len(ordered) - rank < 10 or rank < 1:
        raise ValueError(f"p{pct:g} of {len(ordered)} values has fewer than 10 beyond it")
    return ordered[rank - 1]


def import_package():
    """Import cglogic from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "cglogic" / "__init__.py").is_file():
        raise SystemExit(f"error: no cglogic sources under {src}")
    sys.path.insert(0, str(src))
    import cglogic
    from cglogic import cli

    if Path(cglogic.__file__).resolve().parent != (src / "cglogic").resolve():
        raise SystemExit(f"error: imported cglogic from {cglogic.__file__}, not {src}")
    return cli


def run_pass(cli, queries, pass_no, replies, tracer=None) -> float:
    """Send every query once, in order; returns the pass's wall seconds."""
    from checks import Reply

    started = time.perf_counter()
    for index, query in enumerate(queries):
        argv = query.argv_for(pass_no)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.query_id = index
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a traceback is a failed query, not a crashed run
                code = None
                err.write(traceback.format_exc(limit=4))
            seconds = time.perf_counter() - t0
        replies.append(Reply(index, pass_no, code, out.getvalue(), err.getvalue(), seconds))
    return time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", help="file for the traced pass's spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_package()
    import inputs

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    queries = inputs.build(args.workload, args.seed, workdir)
    ready_at = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    replies: list = []
    pass_seconds: list[float] = []
    while sum(pass_seconds) < args.seconds or len(replies) < MIN_QUERIES:
        pass_seconds.append(run_pass(cli, queries, len(pass_seconds), replies))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    latencies_ms = [r.seconds * 1000 for r in replies]
    result = {
        "ready_at": ready_at,
        "queries_per_pass": len(queries),
        "passes": len(pass_seconds),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "samples": len(latencies_ms),
        "throughput_qps": len(replies) / sum(pass_seconds),
        "peak_rss_mb": peak_rss_mb,
    }

    if args.trace:
        mean_pass = sum(pass_seconds) / len(pass_seconds)
        result["layers"] = traced_pass(cli, queries, len(pass_seconds), replies, mean_pass, args.spans_out)

    from checks import Checker, outputs_digest

    checker = Checker(queries)
    failures = []
    for reply in replies:
        reason = checker.check(reply)
        if reason is not None:
            failures.append(f"{queries[reply.query].group} (query {reply.query}, pass "
                            f"{reply.pass_no}): {reason}")
    states = checker.model_states
    result.update(
        attempted=len(replies),
        failed=len(failures),
        failures=failures[:FAILURES_SHOWN],
        countermodel_states_mean=sum(states) / len(states) if states else 0.0,
        models_written=len(states),
        digest=outputs_digest(queries, replies, workdir),
    )
    print(json.dumps(result))
    return 0


def traced_pass(cli, queries, pass_no, replies, untraced_pass_s, spans_out) -> dict:
    """One more pass with the tracer installed; per-layer totals for it."""
    from tracer import SELF_TIME_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        wall = run_pass(cli, queries, pass_no, replies, tracer)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    layers = layer_metrics(totals, tracer.counts)
    wall_ms = wall * 1000
    covered_ms = totals.get("cli.main", {}).get("total_ns", 0) / 1e6
    layers["trace.overhead_frac"] = wall / untraced_pass_s - 1
    layers["trace.wall_ms"] = wall_ms
    layers["trace.self_sum_ms"] = sum(layers[name] for name in SELF_TIME_METRICS)
    layers["trace.uncovered_ms"] = wall_ms - covered_ms
    layers["trace.spans"] = len(tracer.start)
    if spans_out:
        tracer.write(spans_out)
    layers["_missing"] = tracer.missing + sorted(tracer.broken_counters)
    return layers


if __name__ == "__main__":
    sys.exit(main())
