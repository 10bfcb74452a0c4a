#!/usr/bin/env python3
"""Benchmark of the kinematica package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload elements --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the same checkout; without it the
runner exits with code 2.  One process and one thread drive a closed loop:
each operation starts when the previous one has finished.  A workload's
round of operations is built from the seed, and a run repeats the round a
number of times fixed by ``--seconds``, so two runs of the same arguments
attempt the same operations.  Every answer is checked (see workloads.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats the
untraced run as a reference, then runs one round with every public
function of the package wrapped by the tracer and reports the per-layer
metrics.  Each metric is printed as ``name value unit``; the last line is
one JSON object with the keys correct, attempted, failed and metrics.  A
record of the run (seed, input digest, versions, thread pinning, tail
percentile, failures) is written to ``perfbench/results/``, with the spans
of a traced round beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
# BLAS reads its thread count when numpy is first imported, which the
# gauge does; set-up children inherit the setting.
os.environ.update({var: PINNED_THREADS for var in THREAD_VARS})

import gauge  # noqa: E402
import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

LAYERS = ("matcore", "isotypic", "classify", "groups", "affine", "verify", "cli")
# Seconds one round of each workload takes at the baseline on a 2-core
# x86 container.  A run makes round(seconds / this) rounds, at least one,
# so the operations a run attempts do not depend on how fast they go.
ROUND_SECONDS = {"elements": 1.2, "algebras": 1.8, "pipeline": 1.25}

# Set-up is timed in this many fresh interpreters and the median reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print their digest and exit")
    return p.parse_args(argv)


class Tally:
    """Latencies, one list per round, and failures of the operations run.
    ``rounds`` holds latencies at the gauge's reference speed and
    ``raw_rounds`` the wall-clock ones."""

    def __init__(self):
        self.rounds = []
        self.raw_rounds = []
        self.factors = []
        self.attempted = 0
        self.failed = 0
        self.unexcused = 0
        self.wrong = Counter()
        self.examples = []

    def add(self, label, outcome, factor):
        self.rounds[-1].append(outcome.seconds * factor)
        self.raw_rounds[-1].append(outcome.seconds)
        self.factors.append(factor)
        self.attempted += 1
        if not outcome.problems:
            return
        self.failed += 1
        for where, message, excused in outcome.problems:
            self.wrong[where] += 1
            self.unexcused += not excused
            if len(self.examples) < 20 or not excused:
                self.examples.append({"op": label, "where": where, "message": message,
                                      "excused": excused})


def _run(workloads, meter, ops, rounds, tracer=None) -> Tally:
    tally = Tally()
    for _ in range(rounds):
        tally.rounds.append([])
        tally.raw_rounds.append([])
        for index, op in enumerate(ops):
            factor = meter.refresh()
            if tracer is not None:
                tracer.op = index
            outcome = workloads.Outcome()
            op.run(outcome)
            if outcome.seconds > gauge.EVERY_S:
                # A long operation spans more than one gauge reading: use
                # the mean of the readings before and after it.
                factor = 0.5 * (factor + meter.refresh(force=True))
            tally.add(op.label, outcome, factor)
    return tally


def traced_round(kinematica, workloads, meter, ops):
    """Run one round with every layer's public functions traced; returns
    the tracer, holding the spans, and the round's tally."""
    tracer = Tracer(namers=metrics.NAMERS)
    layers = {layer: getattr(kinematica, layer) for layer in LAYERS}
    tracer.install(layers, [kinematica, *layers.values()])
    try:
        return tracer, _run(workloads, meter, ops, 1, tracer)
    finally:
        tracer.uninstall()


def _warm_up(workloads, ops):
    """Run the first operation of each label once, untimed, so lazy
    imports and first-call costs in numpy are paid before measuring.  Then
    freeze what is alive, so the collector does not walk the imported
    modules and the inputs again during the timed loop."""
    seen = set()
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            op.run(workloads.Outcome())
    gc.collect()
    gc.freeze()


def _setup_seconds(args, meter, digest: str) -> tuple[list, list]:
    """Wall time of fresh interpreters that start, import the package and
    build this run's inputs, each checked to build the same inputs; at the
    gauge's reference speed and as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times, raw = [], []
    for _ in range(SETUP_REPEATS):
        factor = meter.refresh(force=True)
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        times.append(raw[-1] * factor)
        if done.returncode != 0 or done.stdout.strip() != digest:
            raise RuntimeError(f"set-up child disagreed: exit {done.returncode}, "
                               f"{done.stdout.strip()!r}, {done.stderr.strip()[-500:]}")
    return times, raw


def _environment(np) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "pinned_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _write_spans(path: Path, spans, labels):
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\top\tlabel\n")
        for name, start, end, parent, op in spans:
            fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\t{op}\t{labels[op]}\n")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "kinematica" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import kinematica
    if Path(kinematica.__file__).resolve().parent != SRC / "kinematica":
        print(f"error: imported kinematica from {kinematica.__file__}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.build(args.workload, args.seed, work)
        if args.setup_only:
            print(workload.digest)
            return 0
        return _measure(args, np, kinematica, workloads, gauge.Gauge(), workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, np, kinematica, workloads, meter, workload) -> int:
    setup_times, raw_setup_times = _setup_seconds(args, meter, workload.digest)
    ops = workload.ops
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    _warm_up(workloads, ops)

    start = time.perf_counter()
    tally = _run(workloads, meter, ops, rounds)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "ops_per_round": len(ops),
        "input_digest": workload.digest, "environment": _environment(np),
        "setup_times_s": setup_times, "raw_setup_times_s": raw_setup_times,
        "timed_loop_wall_s": wall_s,
        "gauge": {"reference_s": gauge.REFERENCE_S, "factor_median": statistics.median(tally.factors),
                  "factor_min": min(tally.factors), "factor_max": max(tally.factors)},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(parents=True, exist_ok=True)

    if args.trace:
        untraced_round_s = sum(metrics.typical_latencies(tally.rounds))
        tracer, traced = traced_round(kinematica, workloads, meter, ops)
        values = metrics.per_layer(tracer.spans, traced.wrong, untraced_round_s,
                                   sum(traced.rounds[0]), statistics.median(traced.factors))
        spec = metrics.per_layer_spec()
        spans_path = RESULTS / f"{stem}-spans.tsv"
        _write_spans(spans_path, tracer.spans, [op.label for op in ops])
        record["spans_file"] = spans_path.name
        result_tally = traced
    else:
        correct_share = 1.0 - tally.failed / tally.attempted
        values = metrics.end_to_end(tally.rounds, correct_share,
                                    statistics.median(setup_times), peak_rss_mb)
        record["raw_metrics"] = metrics.end_to_end(
            tally.raw_rounds, correct_share, statistics.median(raw_setup_times), peak_rss_mb)
        spec = list(metrics.END_TO_END)
        _, percentile, samples = metrics.tail(metrics.typical_latencies(tally.rounds))
        record["latency_tail"] = {"percentile": percentile, "samples": samples,
                                  "beyond": metrics.TAIL_BEYOND}
        result_tally = tally

    ok = tally.unexcused == 0 and result_tally.unexcused == 0
    record.update({
        "correct": ok, "attempted": result_tally.attempted, "failed": result_tally.failed,
        "failed_share": result_tally.failed / result_tally.attempted,
        "wrong_by_function": dict(result_tally.wrong), "failure_examples": result_tally.examples,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in spec},
    })
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2))

    print(f"# {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"inputs {workload.digest[:16]}, record {RESULTS.name}/{stem}.json")
    if not args.trace:
        tail = record["latency_tail"]
        print(f"# latency tail at p{tail['percentile']:.3f} of {tail['samples']} samples")
    for name, unit, _ in spec:
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": ok,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
