import json
import math
import re

import numpy as np
import pytest

from kinematica import groups, matcore, verify
from kinematica.classify import CaseLabel
from kinematica.matcore import bracket
from kinematica.verify import (
    SuiteConfig,
    SuiteReport,
    nonalgebra_witness,
    run_suite,
    wraparound_demo,
)

FAST = dict(n_values=(2,), trials=3, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(n_values=())
    with pytest.raises(ValueError):
        SuiteConfig(n_values=(1,))
    with pytest.raises(ValueError):
        SuiteConfig(sigma_values=())
    with pytest.raises(ValueError):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError):
        SuiteConfig(tol=0.0)
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1)


def test_config_takes_integers_only():
    # A float is refused at construction rather than rounded (n = 2.7 ran
    # n = 2) or left to fail every property; numpy integers are integers.
    for bad in (dict(seed=2.5), dict(trials=2.5), dict(n_values=(2.7,)), dict(n_values=(2, 3.0))):
        with pytest.raises(ValueError, match="integers"):
            SuiteConfig(**bad)
    cfg = SuiteConfig(n_values=np.arange(2, 4), trials=np.int64(3), seed=np.uint8(7))
    assert (cfg.n_values, cfg.trials, cfg.seed) == ((2, 3), 3, 7)
    assert all(type(x) is int for x in (*cfg.n_values, cfg.trials, cfg.seed))


def test_config_refuses_a_string_of_sigma_values():
    # A string is a sequence too: "12" would run sigma 1 and 2.
    for bad in ("12", b"12"):
        with pytest.raises(ValueError, match="not a string"):
            SuiteConfig(sigma_values=bad)


def test_config_sigma_filters():
    cfg = SuiteConfig(sigma_values=(1.0, -2.0, 0.0, math.inf))
    finite_nonzero = verify._sigmas(cfg, CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL)
    assert [s.value for s in finite_nonzero] == [1.0, -2.0]
    assert [s.value for s in verify._sigmas(cfg, CaseLabel.LORENTZ)] == [1.0]
    assert [s.value for s in verify._sigmas(cfg, CaseLabel.ORTHOGONAL)] == [-2.0]
    assert cfg.to_json_dict()["sigma_values"] == [1.0, -2.0, 0.0, "inf"]


def test_suite_passes_on_a_correct_build():
    report = run_suite(SuiteConfig(**FAST))
    assert report.passed
    assert set(report.results) == {f"P{i}" for i in range(1, 11)} | {"wraparound"}
    for pid, res in report.results.items():
        assert res.passed, pid
        assert res.worst_residual <= report.config.tol
        assert res.counterexample is None
        assert report.descriptions[pid]


def test_suite_passes_at_large_sigma():
    # The boosts are bounded in rapidity, so members stay within what
    # membership resolves however large sigma is.
    for n in (2, 3):
        report = run_suite(SuiteConfig(n_values=(n,), sigma_values=(10.0, 1e3),
                                       trials=10, seed=0))
        assert report.passed, [pid for pid, r in report.results.items() if not r.passed]


def test_suite_reaches_sigma_1e12_of_either_sign():
    # Verdicts, classification and the residuals of P5 and wraparound are
    # judged in the balanced time unit, so every property holds however far
    # sigma is from 1.
    sigmas = tuple(sign * 10.0 ** e for sign in (1, -1) for e in (4, -4, 8, -8, 12, -12))
    for seed in range(3):
        report = run_suite(SuiteConfig(n_values=(2, 3), sigma_values=sigmas, trials=5,
                                       seed=seed))
        assert report.passed, [pid for pid, res in report.results.items() if not res.passed]


def test_affine_property_holds_where_the_invariant_speed_passes_1e12():
    # P9 maps its lines in the balanced time unit of sigma, where the invariant speed is
    # near 1; in sigma's own unit a line at 1e12 or faster reads as general, with no speed.
    for sigma in (1e-24, 1e-300, 5e-324):
        cfg = SuiteConfig(sigma_values=(sigma,), trials=5)
        result = verify._run(verify._prop_affine, cfg, np.random.default_rng(0))
        assert result.passed and result.worst_residual < 1e-13, sigma


def test_suite_draws_its_members_in_stacks(monkeypatch):
    real = groups.random_element
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("kinematica.groups.random_element", counted)
    assert run_suite().passed
    # one call per property, dimension and case
    assert 0 < len(calls) <= 50


def test_suite_judges_each_stack_in_whole_array_calls(monkeypatch):
    counts = {"mat_exp": 0}
    in_K_stacks = []
    real_exp, real_in_K = matcore.mat_exp, groups.in_K

    def counted_exp(Z):
        counts["mat_exp"] += 1
        return real_exp(Z)

    def counted_in_K(a, tol=1e-9):
        in_K_stacks.append(np.shape(a))
        return real_in_K(a, tol)

    monkeypatch.setattr("kinematica.matcore.mat_exp", counted_exp)
    assert run_suite().passed
    assert 0 < counts["mat_exp"] <= 8  # two per P5 stack
    monkeypatch.setattr("kinematica.groups.in_K", counted_in_K)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_pure_rotations, cfg, np.random.default_rng(0)).passed
    stacks = [(cfg.trials, n + 1, n + 1) for n in cfg.n_values for _ in verify._cases(cfg)]
    assert in_K_stacks == stacks


def test_classification_property_classifies_each_stack_in_one_call(monkeypatch):
    # One call per (n, sigma) stack of trials sets, and one for the rotations
    # alone per n; a call per set would be 1 + 5 * 25 = 126 per n.
    from kinematica import classify
    real = classify.classify_algebra
    shapes = []

    def counted(generators, tol=1e-9):
        shapes.append(np.shape(generators))
        return real(generators, tol)

    monkeypatch.setattr("kinematica.classify.classify_algebra", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_classification, cfg, np.random.default_rng(0)).passed
    assert len(shapes) <= len(cfg.n_values) * (1 + len(cfg.sigma_values))
    for n in cfg.n_values:
        m = n * (n - 1) // 2 + n
        assert shapes.count((cfg.trials, m, n + 1, n + 1)) == len(cfg.sigma_values)


def test_collinearity_property_takes_one_defect_call_per_stack(monkeypatch):
    # Two calls per (n, sigma), each on a stack of trials pairs; a call per
    # pair would be 2 * 25 = 50 per (n, sigma).
    from kinematica import classify
    real = classify.collinearity_defect
    shapes = []

    def counted(b, c):
        shapes.append(np.shape(b))
        return real(b, c)

    monkeypatch.setattr("kinematica.classify.collinearity_defect", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_collinearity, cfg, np.random.default_rng(0)).passed
    assert len(shapes) == 2 * len(cfg.n_values) * len(cfg.sigma_values)
    for n in cfg.n_values:
        assert shapes.count((cfg.trials, n)) == 2 * len(cfg.sigma_values)


def test_isotypic_property_takes_one_block_rotation_call_per_n(monkeypatch):
    # One call per n on a stack of trials R, eps and Z; a call per trial would be 25 per n.
    from kinematica import isotypic
    real = isotypic.ad_rotation
    shapes = []

    def counted(R, eps, Z):
        shapes.append((np.shape(R), np.shape(eps), np.shape(Z)))
        return real(R, eps, Z)

    monkeypatch.setattr("kinematica.isotypic.ad_rotation", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_isotypic, cfg, np.random.default_rng(0)).passed
    assert shapes == [((cfg.trials, n, n), (cfg.trials,), (cfg.trials, n + 1, n + 1))
                      for n in cfg.n_values]


def test_affine_and_wraparound_properties_call_once_per_stack(monkeypatch):
    # Each (n, sigma) stack is judged in a fixed number of calls, whatever the
    # number of trials: P9 composes six times per n and maps one stack of lines
    # per (n, sigma > 0); wrap-around makes one demo and two boosts per (n, sigma < 0).
    from kinematica import affine
    counts = {}

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in ((affine, "compose"), (affine, "transform_worldline"),
                         (verify, "wraparound_demo"), (groups, "boost_closed_form")):
        count(module, name)
    for trials in (3, 25):
        cfg = SuiteConfig(sigma_values=(1.0, 0.5, -1.0, -0.25, 0.0, math.inf), trials=trials)
        counts.clear()
        assert verify._run(verify._prop_affine, cfg, np.random.default_rng(0)).passed
        assert counts["compose"] == 6 * len(cfg.n_values)
        lorentz = verify._sigmas(cfg, CaseLabel.LORENTZ)
        assert counts["transform_worldline"] == len(cfg.n_values) * len(lorentz)
        counts.clear()
        assert verify._run(verify._prop_wraparound, cfg, np.random.default_rng(0)).passed
        assert counts == {"wraparound_demo": 2 * len(cfg.n_values),
                          "boost_closed_form": 4 * len(cfg.n_values)}


def test_default_suite_check_counts():
    # The number of residual and flag values each property judges: stacking
    # the properties must drop none of them.
    data = json.loads(run_suite().to_json())
    counts = {pid: entry["checks"] for pid, entry in data["properties"].items()}
    assert counts == {"P1": 50, "P2": 500, "P3": 502, "P4": 600, "P5": 100, "P6": 300,
                      "P7": 600, "P8": 250, "P9": 250, "P10": 12, "wraparound": 100}
    assert sum(counts.values()) == 3264


def test_check_keeps_the_worst_failing_value_and_counts_every_value():
    check = verify._Check(0.5)
    check.residual(0.1, {"first": True})
    check.residual(np.array([0.2, 3.0, 0.7, 3.0]), {"index": np.arange(4)})
    check.flag(np.array([True, False]), {"flag": np.arange(2)})
    result = check.result()
    assert not result.passed and result.worst_residual == 3.0
    assert result.counterexample == {"index": 1} and result.checks == 7
    check.residual(np.array([]), {"empty": np.array([])})  # judges nothing
    assert check.result() == verify.PropertyResult(False, 3.0, {"index": 1}, 7)
    check.residual(np.array([0.0, math.nan]), {"nan": np.arange(2)})
    assert check.result().worst_residual == math.inf
    assert check.result().counterexample == {"nan": 1}


def test_wraparound_entry_only_with_negative_sigma():
    cfg = SuiteConfig(n_values=(2,), sigma_values=(1.0, 0.0, math.inf),
                      trials=2, seed=0)
    report = run_suite(cfg)
    assert "wraparound" not in report.results
    assert report.passed


def test_suite_report_is_deterministic():
    a = run_suite(SuiteConfig(**FAST)).to_json()
    b = run_suite(SuiteConfig(**FAST)).to_json()
    assert a == b


def test_report_json_shape():
    report = run_suite(SuiteConfig(n_values=(2,), sigma_values=(1.0,),
                                   trials=2, seed=4))
    data = json.loads(report.to_json())
    assert data["pass"] is True
    assert data["config"]["trials"] == 2
    for entry in data["properties"].values():
        assert set(entry) >= {"pass", "worst_residual", "description"}


def test_impossible_tolerance_fails_with_counterexamples():
    report = run_suite(SuiteConfig(n_values=(2,), sigma_values=(1.0,),
                                   trials=2, seed=2, tol=1e-16))
    assert not report.passed
    failing = [r for r in report.results.values() if not r.passed]
    assert failing
    assert any(r.counterexample is not None for r in failing)
    json.dumps(report.to_json_dict())  # payloads stay serializable


def test_property_exceptions_become_report_entries(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("kinematica.groups.random_element", boom)
    report = run_suite(SuiteConfig(**FAST))
    assert not report.passed
    broken = report.results["P4"]
    assert not broken.passed
    assert broken.worst_residual == math.inf
    assert "RuntimeError" in broken.counterexample["error"]


def test_suite_detects_a_corrupted_adjoint(monkeypatch):
    # same route the command-line mutation checks use: a sign error in the
    # metric adjoint must take down the normalizer and Cartan properties
    real = matcore.dagger

    def flipped(Z, sigma):
        return -real(Z, sigma)

    monkeypatch.setattr("kinematica.matcore.dagger", flipped)
    report = run_suite(SuiteConfig(**FAST))
    assert not report.passed
    assert not report.results["P4"].passed
    assert not report.results["P5"].passed


def test_wraparound_demo_reflection_structure():
    M = wraparound_demo(1.0, np.array([1.0, 0.0]))
    np.testing.assert_allclose(M, np.diag([-1.0, 1.0, -1.0]), atol=1e-12)

    rng = np.random.default_rng(43)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    M = wraparound_demo(2.0, u)
    A = M[:3, :3]
    assert M[3, 3] == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.det(A) == pytest.approx(-1.0, abs=1e-10)
    np.testing.assert_allclose(A @ u, -u, atol=1e-10)
    w = np.array([u[1], -u[0], 0.0])
    w -= (w @ u) * u
    np.testing.assert_allclose(A @ w, w, atol=1e-10)


def test_wraparound_demo_validation():
    with pytest.raises(ValueError):
        wraparound_demo(0.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        wraparound_demo(1.0, np.array([2.0, 0.0]))


def test_wraparound_demo_refuses_a_period_scale_whose_sigma_is_not_a_normal_float():
    # 1/C^2 past the float range, or in or below the subnormal range, where a Galilei
    # shear (sigma = -0.0) or a rounded sigma would fail the block test instead.
    for C in (1e-300, 5e-324, 1e154, 1e300, math.inf):
        with pytest.raises(ValueError, match="^" + re.escape(f"C = {C!r} gives sigma")):
            wraparound_demo(C, np.array([1.0, 0.0]))
    M = wraparound_demo(1e-150, np.array([1.0, 0.0]))  # sigma = -1e300
    assert M[2, 2] == -1.0


def test_wraparound_property_skips_the_sigmas_the_demo_refuses():
    both, alone, none = (run_suite(SuiteConfig(n_values=(2,), sigma_values=s, trials=2)).results
                         for s in ((-1.0, -1e-320), (-1.0,), (-1e-320,)))  # -1/C^2 subnormal
    assert both["wraparound"] == alone["wraparound"] and "wraparound" not in none


def test_nonalgebra_witness_corner_is_two():
    for n in (2, 3, 4):
        Z, A, corner = nonalgebra_witness(n)
        assert corner == 2.0
        assert bracket(Z, bracket(Z, A))[n, n] == 2.0
    with pytest.raises(ValueError):
        nonalgebra_witness(1)


def test_collinear_control_has_zero_corner():
    # the same nested bracket with b parallel to c stays inside the span
    n = 2
    Z = np.zeros((n + 1, n + 1))
    Z[0, n] = 1.0
    Z[n, 0] = 1.0
    A = np.zeros((n + 1, n + 1))  # the bracket-spawned rotation vanishes
    assert bracket(Z, bracket(Z, A))[n, n] == 0.0


def test_report_dataclass_passed_property():
    report = SuiteReport(config=SuiteConfig(**FAST))
    assert report.passed  # vacuously, no results yet
    report.results["P1"] = verify.PropertyResult(False, 1.0)
    assert not report.passed


@pytest.mark.parametrize("sigma", [1e200, -1e200, 1e300, -1e300, 1e308, -1e308])
def test_collinearity_and_invariants_hold_at_huge_sigma(sigma):
    # P2 and P8 are judged in the balanced time unit of sigma, where neither sigma * b
    # nor a^T g a passes the float range; warnings are errors here.
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=(sigma,), trials=5)
    for pnum, prop in ((2, verify._prop_collinearity), (8, verify._prop_invariants)):
        result = verify._run(prop, cfg, np.random.default_rng([cfg.seed, pnum]))
        assert result.passed and result.counterexample is None, (pnum, result)
        assert result.checks > 0
