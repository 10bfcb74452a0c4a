"""Metric definitions and arithmetic of the benchmark.

End-to-end metrics come from an untraced run, per-layer metrics from a
traced round; the names here are the ones BENCHMARK.json lists.
"""

from __future__ import annotations

import statistics

from tracer import summarize

TAIL_BEYOND = 10

END_TO_END = (
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("correct_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

CASES = ("lorentz", "orthogonal", "galilei", "carroll", "aristotle")
SUBCOMMANDS = ("generate", "decompose", "classify", "verify")
ALGEBRA_DIMS = (2, 3, 10, 20)

# Functions reported with .calls and .self_ms.  Span names split by an
# argument (membership by case, cli.main by subcommand) are listed split;
# classify_algebra spans are split by n and summed back here.
TIMED = (
    "matcore.as_square", "matcore.op_norm", "matcore.bracket", "matcore.mat_exp",
    "matcore.mat_log_positive", "matcore.dagger", "matcore.block_split",
    "matcore.block_join",
    "isotypic.split",
    "classify.classify_algebra", "classify.sigma_from_m3", "classify.rotation_generators",
    "groups.random_element", "groups.boost_closed_form", "groups.k_element", "groups.in_K",
    "groups.random_orthogonal", "groups.in_normalizer", "groups.cartan_decompose",
    *(f"groups.membership.{case}" for case in CASES),
    "affine.act", "affine.transform_worldline", "affine.compose", "affine.inverse",
    *(f"cli.main.{sub}" for sub in SUBCOMMANDS),
    "cli.load_matrix_file", "cli.dump_matrix_file",
    "verify.run_suite",
)

# Deciding functions: .wrong counts verdicts the oracle found wrong.
DECIDING = (
    "classify.classify_algebra", "groups.in_normalizer", "groups.cartan_decompose",
    *(f"groups.membership.{case}" for case in CASES),
    *(f"cli.main.{sub}" for sub in SUBCOMMANDS),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for fn in TIMED:
        out += [(f"{fn}.calls", "count", "lower"), (f"{fn}.self_ms", "ms", "lower")]
    out += [(f"{fn}.wrong", "count", "lower") for fn in DECIDING]
    out += [(f"classify.classify_algebra.n{n}.mean_ms", "ms", "lower") for n in ALGEBRA_DIMS]
    out += [("classify.brackets_per_set", "count", "lower"),
            ("trace.spans", "count", "lower"),
            ("trace.overhead_share", "share", "lower")]
    return out


def _label(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _case_name(args, kwargs):
    case = _label(args, kwargs, 1, "case")
    return str(getattr(case, "value", case)).lower()


def _subcommand(args, kwargs):
    argv = _label(args, kwargs, 0, "argv")
    return argv[0] if argv else "none"


def _dimension(args, kwargs):
    gens = _label(args, kwargs, 0, "generators")
    try:
        return f"n{len(gens[0]) - 1}"
    except (TypeError, IndexError, KeyError):
        return "n?"


NAMERS = {
    "groups.membership": _case_name,
    "cli.main": _subcommand,
    "classify.classify_algebra": _dimension,
}


def tail(values) -> tuple[float, float, int]:
    """Value at the highest percentile that leaves at least TAIL_BEYOND
    samples above it, with that percentile and the sample count.  With
    TAIL_BEYOND samples or fewer no percentile qualifies and the maximum is
    returned at percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def typical_latencies(rounds) -> list[float]:
    """Latency of each operation of a round: its median over the rounds.

    A round repeats the same operations, so the median keeps what an
    input costs and drops the seconds-long slow spells that a shared
    machine adds to some rounds and not others."""
    return [statistics.median(column) for column in zip(*rounds)]


def end_to_end(rounds, correct_share: float, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metric values from per-round operation latencies in
    seconds: throughput of a typical round, and the median and tail of the
    typical latency of each operation."""
    latencies = typical_latencies(rounds)
    value, _, _ = tail(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * value,
        "correct_share": correct_share,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(spans, wrong: dict, untraced_s: float, traced_s: float,
              scale: float = 1.0) -> dict:
    """Per-layer metric values for one traced round.

    ``wrong`` maps a deciding function to its count of wrong verdicts; the
    two times are the package time of one round without and with the
    tracer, and ``scale`` turns span times into times at the reference
    speed."""
    calls = {}
    for name, (count, own) in summarize(spans).items():
        if name.startswith("classify.classify_algebra."):
            name = "classify.classify_algebra"
        entry = calls.setdefault(name, [0, 0.0])
        entry[0] += count
        entry[1] += own
    values = {}
    for fn in TIMED:
        count, own = calls.get(fn, (0, 0.0))
        values[f"{fn}.calls"] = count
        values[f"{fn}.self_ms"] = 1e3 * scale * own
    for fn in DECIDING:
        values[f"{fn}.wrong"] = wrong.get(fn, 0)
    for n in ALGEBRA_DIMS:
        spans_n = [end - start for name, start, end, _, _ in spans
                   if name == f"classify.classify_algebra.n{n}"]
        values[f"classify.classify_algebra.n{n}.mean_ms"] = (
            1e3 * scale * statistics.fmean(spans_n) if spans_n else 0.0)
    sets = values["classify.classify_algebra.calls"]
    values["classify.brackets_per_set"] = (
        values["matcore.bracket.calls"] / sets if sets else 0.0)
    values["trace.spans"] = len(spans)
    values["trace.overhead_share"] = 1.0 - untraced_s / traced_s
    return values
