"""Benchmark entry point for cglogic.

    python3 bench/run.py --workload decide-mix --seed 1 --seconds 15 --trace 0

Run from the repository root.  Workloads: decide-mix, synth-loop,
mcheck-large (see inputs.py and README.md).  Each workload runs in fresh
interpreters started by this script: ``SETUP_RUNS`` of them only set up, to
time set-up, and one more sets up, measures and checks.  Set-up time runs
from starting the interpreter to the first query and is reported as the
median over all of them.

The last line of standard output is one JSON record: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before it
print every metric by name with its unit, the failure fraction, the first
failures and the digest of the outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide-mix", "synth-loop", "mcheck-large")
SETUP_RUNS = 6
DEADLINE_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def start_child(extra, workdir: Path, started: float):
    """Run workload.py in a fresh interpreter; returns (t0, its JSON record)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    command = [sys.executable, str(HERE / "workload.py"), "--workdir", str(workdir), *extra]
    t0 = time.perf_counter()
    proc = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, DEADLINE_S - (t0 - started)),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t0, json.loads(lines[-1])


def digest_note(workload: str, seed: int, digest: str) -> str:
    recorded = json.loads((HERE / "data" / "digests.json").read_text(encoding="utf-8"))
    known = recorded.get(workload, {}).get(str(seed))
    if known is None:
        return f"outputs digest {digest[:16]} (none recorded for seed {seed})"
    if known == digest:
        return f"outputs digest {digest[:16]} matches the recorded digest"
    return (f"outputs digest {digest[:16]} DIFFERS from the recorded {known[:16]}: "
            "the outputs changed (reported, not counted as a failure)")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="cglogic benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cglogic" / "__init__.py").is_file():
        return fail(f"no cglogic sources under {ROOT / 'src'}; run from a repository checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")

    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = HERE / "_work" / run_id
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    try:
        for n in range(SETUP_RUNS):
            t0, record = start_child(base + ["--setup-only"], work / f"setup{n}", started)
            setups.append(record["ready_at"] - t0)
        measure = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans-out", str(out_dir / f"spans-{args.workload}-{args.seed}.tsv.gz")]
        t0, record = start_child(measure, work / "run", started)
        setups.append(record["ready_at"] - t0)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["setup_s"] = statistics.median(setups)
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {record['passes']} passes of "
          f"{record['queries_per_pass']} queries, one client, closed loop")
    if args.trace:
        units = per_layer_units()
        layers = record["layers"]
        metrics = {
            name: {"value": layers.get(name, record.get(name, 0)), "unit": unit}
            for name, unit in units.items()
        }
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  layer self times sum to {layers['trace.self_sum_ms']:.1f} ms of the "
              f"{layers['trace.wall_ms']:.1f} ms traced pass; {layers['trace.uncovered_ms']:.1f} ms "
              "lies outside every span (benchmark loop)")
        if layers["_missing"]:
            print(f"  not traced (absent in this version): {', '.join(layers['_missing'])}")
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(f"  latency samples = {record['samples']}; set-up samples = {len(setups)}")
        states = record["countermodel_states_mean"]
        if record["models_written"]:
            print(f"  countermodel_states_mean = {states:.6g} states "
                  f"over {record['models_written']} written models")
    print(f"  failed_frac = {failed / attempted:.6g} ({failed} of {attempted} replies)")
    for line in record["failures"]:
        print(f"  FAILED {line}")
    print(f"  {digest_note(args.workload, args.seed, record['digest'])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
