"""Tests of the benchmark's own arithmetic, tracing and checks.

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import sys
import types
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import kinematica  # noqa: E402
import numpy as np  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gauge import Gauge  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_calls():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    leaf = t.wrap("m.leaf", leaf)

    def inner():
        clock.now += 2.0
        leaf()
        clock.now += 0.5

    inner = t.wrap("m.inner", inner)

    def outer():
        clock.now += 3.0
        inner()
        inner()
        clock.now += 4.0

    t.wrap("m.outer", outer)()
    assert tracer.summarize(t.spans) == {
        "m.outer": (1, 7.0), "m.inner": (2, 5.0), "m.leaf": (2, 2.0)}
    names = [span[0] for span in t.spans]
    parents = [names[span[3]] if span[3] >= 0 else None for span in t.spans]
    assert parents == [None, "m.outer", "m.inner", "m.outer", "m.inner"]


def _module(name, source, **env):
    module = types.ModuleType(name)
    module.__dict__.update(env)
    exec(source, module.__dict__)
    return module


def test_install_catches_calls_between_modules_and_uninstalls():
    a = _module("fake.a", "__all__ = ['f']\ndef f(x):\n    return x + 1\n")
    b = _module("fake.b", "__all__ = ['g', 'f']\ndef g(x):\n    return 2 * f(x)\n", f=a.f)
    original = a.f
    t = tracer.Tracer()
    assert t.install({"a": a, "b": b}, [a, b]) == ["a.f", "b.g"]
    assert b.g(1) == 4
    assert [(name, parent) for name, _, _, parent, _ in t.spans] == [("b.g", -1), ("a.f", 0)]
    t.uninstall()
    assert a.f is original and b.f is original


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert metrics.tail(range(1, 101)) == (90, 90.0, 100)
    assert metrics.tail(range(1, 1001)) == (990, 99.0, 1000)
    value, percentile, samples = metrics.tail(range(11))
    assert (value, samples) == (0, 11) and abs(percentile - 100 / 11) < 1e-12
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_typical_latency_is_the_median_over_rounds():
    rounds = [[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]]
    assert metrics.typical_latencies(rounds) == [1.0, 2.0]
    values = metrics.end_to_end(rounds, 0.5, 0.25, 40.0)
    assert values["ops_per_s"] == 2 / 3.0
    assert values["latency_p50_ms"] == 1.5e3
    assert values["correct_share"] == 0.5


def _ops(workload, label):
    return [op for op in workload.ops if op.label == label]


def test_failed_share_counts_a_planted_wrong_verdict(monkeypatch):
    ops = _ops(workloads.build_elements(3), "aristotle/sNone/n3")[:4]
    clean = run._run(workloads, Gauge(), ops, 1)
    assert (clean.attempted, clean.failed, clean.unexcused) == (4, 0, 0)

    # A membership test that accepts everything passes the true members
    # and accepts the perturbed copies.
    monkeypatch.setattr(workloads.groups, "membership", lambda *args: True)
    planted = run._run(workloads, Gauge(), ops, 1)
    assert (planted.attempted, planted.failed, planted.unexcused) == (4, 4, 4)
    assert planted.wrong == Counter({"groups.membership.aristotle": 4})
    values = metrics.end_to_end(planted.rounds, 1 - planted.failed / planted.attempted, 0.1, 1.0)
    assert values["correct_share"] == 0.0


def test_known_defects_are_failures_but_excused():
    high = [op for op in _ops(workloads.build_elements(3), "lorentz/s1.0/n3")]
    tally = run._run(workloads, Gauge(), high, 1)
    assert tally.failed > 0
    assert tally.unexcused == 0


def _rapidity_six_op(monkeypatch):
    """A Lorentz element op whose member is a boost of rapidity 6, where
    eps * cond is far below the ROUNDOFF envelope."""
    b = 6.0 * np.array([0.6, 0.0, 0.8])
    g = workloads._boost(b, 1.0)
    assert workloads.EPS * np.linalg.cond(g) < workloads.ROUNDOFF_ONSET / 2
    monkeypatch.setattr(workloads.groups, "random_element", lambda *args: g)
    rng = np.random.default_rng(0)
    u = np.array([1.0, 0.0, 0.0])
    return workloads._element_op(workloads.CaseLabel.LORENTZ, 1.0, 3, 6.0, 0, 1.0,
                                 rng.standard_normal(4), rng.standard_normal(4), u)


def test_wrong_verdict_below_the_roundoff_envelope_is_not_excused(monkeypatch):
    op = _rapidity_six_op(monkeypatch)
    clean = workloads.Outcome()
    op(clean)
    assert not [p for p in clean.problems if not p[2]]

    # A membership test that rejects everything rejects the true member.
    monkeypatch.setattr(workloads.groups, "membership", lambda *args: False)
    planted = workloads.Outcome()
    op(planted)
    assert ("groups.membership.lorentz", "member rejected: False", False) in planted.problems


def test_wrong_sigma_below_the_large_sigma_envelope_is_not_excused(monkeypatch):
    sigma = workloads.LARGE_SIGMA_ONSET / 2
    gens = workloads._boost_set(np.random.default_rng(0), 3, sigma)
    wrong = types.SimpleNamespace(outcome=workloads.classify.OUTCOME_KINEMATICAL,
                                  sigma=types.SimpleNamespace(value=sigma * (1 + 1e-5)),
                                  reason=None)
    monkeypatch.setattr(workloads.classify, "classify_algebra", lambda gens: wrong)
    out = workloads.Outcome()
    workloads._algebra_op(gens, sigma)(out)
    assert [p[2] for p in out.problems] == [False]


def test_traced_calls_repeat_exactly_and_idle_layers_stay_zero():
    ops = workloads.build_elements(5).ops[::7]
    counts = []
    for _ in range(2):
        t, tally = run.traced_round(kinematica, workloads, Gauge(), ops)
        values = metrics.per_layer(t.spans, tally.wrong, 1.0, 1.0)
        counts.append({name: value for name, value in values.items()
                       if name.endswith((".calls", ".wrong")) or name == "trace.spans"})
    assert counts[0] == counts[1]
    assert counts[0]["groups.random_element.calls"] == len(ops)
    assert counts[0]["matcore.op_norm.calls"] > 0
    for name in ("classify.classify_algebra.calls", "isotypic.split.calls",
                 "matcore.bracket.calls", "cli.main.verify.calls", "verify.run_suite.calls"):
        assert counts[0][name] == 0
    assert kinematica.groups.membership.__module__ == "kinematica.groups"
    assert not hasattr(kinematica.groups.membership, "__wrapped__")


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        metrics.per_layer_spec())
    assert [w["name"] for w in spec["workloads"]] == list(run.ROUND_SECONDS)


def test_runner_refuses_a_checkout_without_the_package(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "elements", "--seed", "1"]) == 2
