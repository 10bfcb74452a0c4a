import inspect
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kinematica import affine, groups, matcore, verify
from kinematica.matcore import bracket
from kinematica.verify import (
    SuiteConfig,
    SuiteReport,
    nonalgebra_witness,
    run_suite,
)

FAST = dict(n_values=(2,), trials=3, seed=1)
PROPERTY_IDS = ["algebra", "group", "kinematics"]


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
    # an infinite tol passes every property and is not strict JSON
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            SuiteConfig(tol=tol)
    with pytest.raises(ValueError):
        SuiteConfig(seed=-1)
    # tol is stored as a float, so the report stays JSON; a bool is no tolerance
    cfg = SuiteConfig(n_values=(2,), sigma_values=(1.0,), trials=2, tol=np.float32(1e-6))
    assert type(cfg.tol) is float and cfg.tol == float(np.float32(1e-6))
    assert json.loads(run_suite(cfg).to_json())["config"]["tol"] == cfg.tol
    for tol in (True, np.True_, "1e-9", None):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            SuiteConfig(tol=tol)


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


def test_config_json_spells_an_infinite_sigma():
    cfg = SuiteConfig(sigma_values=(1.0, -2.0, 0.0, math.inf))
    assert cfg.to_json_dict()["sigma_values"] == [1.0, -2.0, 0.0, "inf"]


def test_suite_passes_on_a_correct_build():
    report = run_suite(SuiteConfig(**FAST))
    assert report.passed
    assert list(report.results) == PROPERTY_IDS
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
    # Verdicts, classification and the residuals of group and kinematics are
    # judged in the balanced time unit, so every property holds however far
    # sigma is from 1.
    sigmas = tuple(sign * 10.0 ** e for sign in (1, -1) for e in (4, -4, 8, -8, 12, -12))
    for seed in range(3):
        report = run_suite(SuiteConfig(n_values=(2, 3), sigma_values=sigmas, trials=5,
                                       seed=seed))
        assert report.passed, [pid for pid, res in report.results.items() if not res.passed]


def test_kinematics_property_holds_where_the_invariant_speed_passes_1e12():
    # kinematics maps its lines in the balanced time unit of sigma, where the invariant speed
    # is near 1; in sigma's own unit a line at 1e12 or faster reads as general, with no speed.
    for sigma in (1e-24, 1e-300, 5e-324):
        cfg = SuiteConfig(sigma_values=(sigma,), trials=5)
        result = verify._run(verify._prop_kinematics, cfg, np.random.default_rng(0))
        assert result.passed and result.worst_residual < 1e-13, sigma


def test_suite_draws_its_members_in_stacks(monkeypatch):
    real = groups.random_element
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr("kinematica.groups.random_element", counted)
    assert run_suite().passed
    # one call per property and dimension, whatever the number of cases
    assert len(calls) == 3 * len(SuiteConfig().n_values)


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
    # group builds its members in closed form, and rebuilds every sigma's factors in one call
    # per n through mat_exp
    assert counts["mat_exp"] == len(SuiteConfig().n_values)
    monkeypatch.setattr("kinematica.groups.in_K", counted_in_K)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_group, cfg, np.random.default_rng(0)).passed
    stacks = [(3 * len(verify._cases(cfg)) * cfg.trials, n + 1, n + 1) for n in cfg.n_values]
    # one call per n on every case's rotations: their products, inverses and perturbed copies
    assert in_K_stacks == stacks


def test_algebra_property_classifies_in_two_calls_per_n(monkeypatch):
    # Per n, one call to classify's whole-array core on every sigma's stack of trials sets and,
    # after them, the four controls (the rotations alone, and the m0, m2 and mixed-sigma sets) of
    # m generators each; a call per set would be 5 * 25 + 4 = 129 per n, a call per sigma and
    # control 9, and a call for the sets and one for the controls 2.
    from kinematica import classify
    real = classify._verdicts
    shapes = []

    def counted(stack, tol):
        shapes.append(np.shape(stack))
        return real(stack, tol)

    monkeypatch.setattr("kinematica.classify._verdicts", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_algebra, cfg, np.random.default_rng(0)).passed
    expected = []
    for n in cfg.n_values:
        m = n * (n - 1) // 2 + n
        expected += [(len(cfg.sigma_values) * cfg.trials + 4, m, n + 1, n + 1)]
    assert shapes == expected
    for sigmas in ((1.0,), (1.0, 0.5, -1.0, -0.25, 0.0, math.inf)):
        shapes.clear()
        cfg = SuiteConfig(sigma_values=sigmas)
        assert verify._run(verify._prop_algebra, cfg, np.random.default_rng(0)).passed
        assert len(shapes) == len(cfg.n_values)  # a sigma more adds no call


def test_algebra_property_keeps_its_peak_under_the_budget():
    # Merged without a limit, the n = 10 sets of every sigma would sit in one call, about
    # three copies of 5 * 1.33 M floats (153 MiB traced).  The budget keeps one sigma a
    # call there: the peak stays within 5% of a call per sigma (31.0 MiB).  Classification
    # runs first, so the arrays of the other checks do not add to it.
    cfg = SuiteConfig(n_values=(2, 3, 10), trials=200)
    verify._run(verify._prop_algebra, SuiteConfig(), np.random.default_rng(0))  # warm
    tracemalloc.start()
    try:
        result = verify._run(verify._prop_algebra, cfg, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 1.05 * 31.0 * 2 ** 20


def test_algebra_property_takes_one_defect_and_one_commutator_call_per_n(monkeypatch):
    # One defect call per n on every sigma's trials collinear pairs, the witness (e1, e2) and
    # as many general pairs, and one doubled-commutator call on the witness and the general
    # pairs; a call per pair would be 2 * 5 * 25 + 1 = 251 per n.
    from kinematica import classify
    real, real_commutator = classify.collinearity_defect, verify._doubled_commutator
    shapes, commutators = [], []

    def counted(b, c):
        shapes.append(np.shape(b))
        return real(b, c)

    def counted_commutator(b, c):
        commutators.append(np.shape(b))
        return real_commutator(b, c)

    monkeypatch.setattr("kinematica.classify.collinearity_defect", counted)
    monkeypatch.setattr(verify, "_doubled_commutator", counted_commutator)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_algebra, cfg, np.random.default_rng(0)).passed
    pairs = len(cfg.sigma_values) * cfg.trials
    assert shapes == [(2 * pairs + 1, n) for n in cfg.n_values]
    assert commutators == [(pairs + 1, n) for n in cfg.n_values]


def test_algebra_property_takes_one_coordinate_call_per_n(monkeypatch):
    # One call per n on the trials and their conjugates, stacked as (trials, 2, n+1, n+1),
    # after the one that classify's core makes on the generated sets and the controls.
    from kinematica import isotypic
    real = isotypic._coordinates
    shapes = []

    def counted(Z):
        shapes.append(Z.shape)
        return real(Z)

    monkeypatch.setattr("kinematica.isotypic._coordinates", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_algebra, cfg, np.random.default_rng(0)).passed
    expected = []
    for n in cfg.n_values:
        m = n * (n - 1) // 2 + n
        expected += [(len(cfg.sigma_values) * cfg.trials + 4, m, n + 1, n + 1),
                     (cfg.trials, 2, n + 1, n + 1)]
    assert shapes == expected


def judge_each_check(monkeypatch) -> dict:
    """Wrap _Check.residual and _Check.flag so that every value is also judged by a _Check of its
    own "check" name: the returned dict holds them by name.  A failing flag judges through
    residual, which then judges as it is, so that no value is judged twice."""
    checks, depth = {}, []

    def wrap(real):
        def judged(self, values, payload=None):
            if depth:
                return real(self, values, payload)
            depth.append(True)
            try:
                real(checks.setdefault(payload["check"], verify._Check(self.tol)), values,
                     payload)
                real(self, values, payload)
            finally:
                depth.pop()
        return judged

    for name in ("residual", "flag"):
        monkeypatch.setattr(verify._Check, name, wrap(getattr(verify._Check, name)))
    return checks


def test_coordinate_residuals_stay_near_the_float_epsilon(monkeypatch):
    # Every residual is a relative float error: a few ulps at n = 2, 3 and 10, far under tol.
    checks = judge_each_check(monkeypatch)
    cfg = SuiteConfig(n_values=(2, 3, 10))
    assert verify._run(verify._prop_algebra, cfg, np.random.default_rng(cfg.seed)).passed
    result = checks["coordinates"].result()
    assert result.passed and result.checks == 3 * cfg.trials
    assert result.worst_residual <= 1e-14


def drop_m2(lam, rows, n, j):
    rows[..., 2:j] = 0.0


def drop_the_sqrt_n_of_lam(lam, rows, n, j):
    rows[..., 0] = lam


def read_c_in_place_of_b(lam, rows, n, j):
    rows[..., j:j + n] = rows[..., j + n:]


def reverse_b(lam, rows, n, j):  # keeps every norm: only equivariance is broken
    rows[..., j:j + n] = rows[..., j:j + n][..., ::-1].copy()


@pytest.mark.parametrize("fault", [drop_m2, drop_the_sqrt_n_of_lam, read_c_in_place_of_b,
                                   reverse_b], ids=lambda fault: fault.__name__)
def test_algebra_property_fails_on_a_faulty_coordinate_pass(monkeypatch, fault):
    # A fault planted in the rows that the coordinate pass returns fails the coordinates check.
    from kinematica import isotypic
    real = isotypic._coordinates
    checks = judge_each_check(monkeypatch)

    def faulty(Z):
        lam, rows = real(Z)
        n = Z.shape[-1] - 1
        fault(lam, rows, n, 2 + n * n)
        return lam, rows

    monkeypatch.setattr("kinematica.isotypic._coordinates", faulty)
    cfg = SuiteConfig()
    algebra = verify._run(verify._prop_algebra, cfg, np.random.default_rng(cfg.seed))
    assert not algebra.passed and "coordinates" in algebra.failed_checks
    result = checks["coordinates"].result()
    assert not result.passed and result.checks == len(cfg.n_values) * cfg.trials
    assert 1e-3 < result.worst_residual < math.inf
    assert set(result.counterexample) >= {"Z", "R", "eps"}


def count_calls(monkeypatch, *targets) -> dict:
    """Wrap each (module, name) of targets to count its calls in the returned dict, by name."""
    counts = {}
    for module, name in targets:
        def counted(*args, real=getattr(module, name), name=name, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_kinematics_property_calls_once_per_stack(monkeypatch):
    # Each n is judged in a fixed number of calls, whatever the number of trials and sigmas:
    # kinematics composes six times per n and maps one stack of lines per n, every sigma > 0 in
    # it.  It draws every sigma's rotations in one random_element call per n, and makes one
    # boost call per n, each row at its own sigma, whose rows for sigma < 0 also make the half
    # and full periods.
    from kinematica import affine
    counts = count_calls(monkeypatch, (affine, "compose"), (affine, "transform_worldline"),
                         (groups, "boost_closed_form"), (groups, "random_element"))
    for trials in (3, 25):
        cfg = SuiteConfig(sigma_values=(1.0, 0.5, -1.0, -0.25, 0.0, math.inf), trials=trials)
        counts.clear()
        assert verify._run(verify._prop_kinematics, cfg, np.random.default_rng(0)).passed
        assert counts == {"compose": 6 * len(cfg.n_values),
                          "transform_worldline": len(cfg.n_values),
                          "boost_closed_form": len(cfg.n_values),
                          "random_element": len(cfg.n_values)}


def test_group_property_draws_once_per_n(monkeypatch):
    # Per n, one random_element call draws every case's rotations, one boost call builds every
    # case's members, each row at its own sigma, and one membership call per case (both
    # Lorentz sigmas in one) judges the products, inverses and perturbed copies; one
    # in_normalizer call judges every sigma != 0, inf's members, scaled members and their
    # copies, and one cartan_decompose call (with its own boost call) factors every sigma > 0's.
    # Per n, one in_K call takes every case's rotations, through one more membership call
    # (Aristotle's), one inv call inverts every case's members and rotations, and no SVD scales
    # E.
    counts = count_calls(monkeypatch, *((groups, name) for name in (
        "random_element", "boost_closed_form", "membership", "in_normalizer",
        "cartan_decompose", "in_K")), (np.linalg, "inv"), (np.linalg, "svd"))
    for trials in (3, 25):
        cfg = SuiteConfig(sigma_values=(1.0, 0.5, -1.0, -0.25, 0.0, math.inf), trials=trials)
        counts.clear()
        assert verify._run(verify._prop_group, cfg, np.random.default_rng(0)).passed
        n = len(cfg.n_values)
        assert counts == {"random_element": n, "boost_closed_form": 2 * n,
                          "membership": (4 + 1) * n, "in_normalizer": n,
                          "cartan_decompose": n, "in_K": n, "inv": n}


def test_sigma_free_calls_do_not_grow_with_the_sigmas(monkeypatch):
    # algebra, group and kinematics judge every sigma's stacks in one call per n to each function
    # under test that takes no case, each row at its own sigma, so six sigmas cost those
    # functions no more calls than one.
    from kinematica import affine, classify
    counts = count_calls(monkeypatch, (classify, "collinearity_defect"),
                         (verify, "_doubled_commutator"), (groups, "in_K"),
                         (affine, "transform_worldline"), (matcore, "mat_exp"),
                         (groups, "random_element"), (groups, "boost_closed_form"),
                         (groups, "in_normalizer"), (groups, "cartan_decompose"),
                         (groups, "p_generator"), (classify, "_verdicts"))

    def calls(sigmas):
        counts.clear()
        cfg = SuiteConfig(sigma_values=sigmas, trials=3)
        for prop in (verify._prop_algebra, verify._prop_group, verify._prop_kinematics):
            assert verify._run(prop, cfg, np.random.default_rng(0)).passed
        return dict(counts)

    one = calls((1.0,))
    n = len(SuiteConfig().n_values)
    # p_generator: per n, one call in _generated_bases on every sigma's sets, one on the
    # controls' and two on their mixed sigmas, two on the non-closing span, and group's and
    # cartan_decompose's; boost_closed_form: group's, cartan_decompose's and kinematics'
    assert one == dict.fromkeys(("collinearity_defect", "_doubled_commutator", "in_K",
                                 "transform_worldline", "mat_exp", "in_normalizer",
                                 "cartan_decompose", "_verdicts"), n) | {
        "random_element": 3 * n, "boost_closed_form": 3 * n, "p_generator": 8 * n}
    assert calls((1.0, 0.5, -1.0, -0.25, 0.0, math.inf)) == one


def test_default_suite_check_counts():
    # The number of residual and flag values each property judges: stacking
    # the properties must drop none of them.
    data = json.loads(run_suite().to_json())
    counts = {pid: entry["checks"] for pid, entry in data["properties"].items()}
    # algebra, per n: the classified sets' case and sigma (2 x 5 x 25), the four controls, the
    # non-closing span's two flags, the coordinate pass (25), the collinear pairs (5 x 25), and
    # the commutator of the witness and the general pairs (1 + 5 x 25); P1, P2, P3 and P10 had
    # 50, 500, 502 and 12.  group: per n and case, closure, the rotations' products and
    # inverses, and the refused copies of members and rotations (5 cases x 4 x 25); per
    # sigma != 0, inf the normalizer's four values and the refused copies (3 x 5 x 25); per
    # sigma > 0 the Cartan factors (2 x 25).  kinematics: per n the affine axioms (25), per
    # sigma the invariants (5 x 25), per sigma > 0 two speeds and the world line (2 x 3 x 25),
    # per sigma < 0 two periods (50).
    assert counts == {"algebra": 1064, "group": 1850, "kinematics": 700}
    assert sum(counts.values()) == 3614


def test_default_suite_judges_in_a_fixed_number_of_calls(monkeypatch):
    # Each check is judged in one flag or residual call per n, over every sigma and case: per n,
    # algebra makes 4 residual and 3 flag calls (one flag and one residual on its one
    # classification chunk), group 3 and 7 and kinematics 5 and 1; a call per case or sigma
    # would make 48 and 52 in all.  A flag whose verdicts all hold is counted without a
    # residual call.  No check loops per sigma, case or set.
    counts = count_calls(monkeypatch, (verify._Check, "residual"), (verify._Check, "flag"))
    assert run_suite().passed
    assert counts == {"residual": 24, "flag": 22}


def test_suite_builds_no_classification_result(monkeypatch):
    # The classification and controls checks read classify's verdicts as arrays.
    from kinematica import classify
    real, built = classify.ClassificationResult.__init__, []

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(classify.ClassificationResult, "__init__", counted)
    assert classify.classify_algebra(classify.rotation_generators(2)).outcome == "AristotleOnly"
    assert len(built) == 1  # the count sees a construction
    built.clear()
    assert run_suite().passed
    assert built == []


def test_check_keeps_the_worst_failing_value_and_counts_every_value():
    check = verify._Check(0.5)
    check.residual(0.1, {"check": "a"})
    check.residual(np.array([0.2, 3.0, 0.7, 3.0]), {"check": "b", "index": np.arange(4)})
    check.flag(np.array([True, True]), {"check": "c", "flag": np.arange(2)})
    result = check.result()
    assert not result.passed and result.worst_residual == 3.0
    assert result.counterexample == {"check": "b", "index": 1} and result.checks == 7
    check.residual(np.array([]), {"check": "d", "empty": np.array([])})  # judges nothing
    assert check.result() == verify.PropertyResult(False, 3.0, {"check": "b", "index": 1}, 7,
                                                   ["b"])
    check.residual(np.array([0.0, math.nan]), {"check": "e", "nan": np.arange(2)})
    assert check.result().worst_residual == math.inf
    assert check.result().counterexample == {"check": "e", "nan": 1}
    check.residual(5.0, {"check": "b"})
    assert check.result().failed_checks == ["b", "e"]  # each failing check once, first first


def test_a_failed_flag_fails_at_every_tol(monkeypatch):
    # A False is judged as inf, not as a residual of 1 that a tol >= 1 would pass: a verdict
    # that accepts everything fails group at tol 10.
    check = verify._Check(10.0)
    check.flag(np.array([True, False]), {"check": "a", "flag": np.arange(2)})
    assert check.result() == verify.PropertyResult(False, math.inf, {"check": "a", "flag": 1},
                                                   2, ["a"])
    monkeypatch.setattr(groups, "membership", always_true)
    report = run_suite(SuiteConfig(**FAST, tol=10.0))
    assert not report.passed and "perturbed member" in report.results["group"].failed_checks


@pytest.mark.parametrize("sigmas", [(1.0, 0.0, math.inf), (-1.0,), (0.0,), (math.inf,)])
def test_the_suite_reports_the_same_properties_at_every_sigma_list(sigmas):
    report = run_suite(SuiteConfig(n_values=(2,), sigma_values=sigmas, trials=2, seed=0))
    assert list(report.results) == PROPERTY_IDS
    assert report.passed


def test_the_suite_across_the_sigma_axis():
    # +-10^j over the whole float range, plus Galilei and Carroll.  At |sigma| >= 1e100 the
    # generated sets fall under classify's Carroll guard, |b| <= (n+1) eps |c|, and read back
    # as Carroll; at the float max sigma b passes the float range and no set is drawn; at
    # 5e-324 sigma b rounds to 0.  Algebra's classification check fails there, and only it.
    grid = [sign * 10.0 ** j for j in (-300, -100, -24, -12, -8, -4, 0, 4, 8, 12, 100, 300)
            for sign in (1.0, -1.0)] + [0.0, math.inf]
    misread = (1e100, -1e100, 1e300, -1e300)
    within = [s for s in grid if s not in misread]
    assert len(within) == 22 and run_suite(SuiteConfig(sigma_values=within)).passed
    for s in misread + (1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -5e-324):
        results = run_suite(SuiteConfig(sigma_values=(s,))).results
        assert [pid for pid, r in results.items() if not r.passed] == ["algebra"], s
        assert results["algebra"].failed_checks == ["classification"], s


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
    broken = report.results["group"]
    assert not broken.passed
    assert broken.worst_residual == math.inf
    assert "RuntimeError" in broken.counterexample["error"]


def test_suite_detects_a_corrupted_adjoint(monkeypatch):
    # same route the command-line mutation checks use: a sign error in the metric adjoint
    # must fail the normalizer and the Cartan checks, two routes, and take down group alone
    real = matcore.dagger

    def flipped(Z, sigma):
        return -real(Z, sigma)

    monkeypatch.setattr("kinematica.matcore.dagger", flipped)
    report = run_suite(SuiteConfig(**FAST))
    assert [pid for pid, r in report.results.items() if not r.passed] == ["group"]
    assert {"normalizer", "cartan"} <= set(report.results["group"].failed_checks)


@pytest.mark.parametrize("tol", [3e-12, 1e-3, 1e-2])
def test_the_suite_passes_across_the_tol_range(tol):
    # Closure judges products up to rapidity 4, whose lam membership resolves from tol 3e-12
    # (at 1e-12 some seeds fail there, and in classify's m0 gate), and the perturbed copies
    # scale with tol, so they are refused up to tol 1e-2.
    for seed in range(20):
        report = run_suite(SuiteConfig(tol=tol, seed=seed))
        assert report.passed, [pid for pid, r in report.results.items() if not r.passed]


def always_true(a, *args, **kwargs):
    ok = np.ones(np.shape(a)[:-2], dtype=bool)
    return ok if ok.ndim else True


@pytest.mark.parametrize("tol", [1e-9, 1e-2])
@pytest.mark.parametrize("verdict, check", [("membership", "perturbed member"),
                                            ("in_K", "perturbed rotation"),
                                            ("in_normalizer", "perturbed normalizer")])
def test_group_fails_on_a_verdict_that_accepts_everything(monkeypatch, verdict, check, tol):
    # Each verdict must refuse the copies x (I + E) of its inputs, ||E||_F = max(1e-4, 1e3 tol).
    real = getattr(groups, verdict)
    fake = always_true if verdict != "in_normalizer" else (
        lambda a, sigma, tol: (always_true(a), real(a, sigma, tol)[1]))
    monkeypatch.setattr(groups, verdict, fake)
    report = run_suite(SuiteConfig(**FAST, tol=tol))
    assert [pid for pid, r in report.results.items() if not r.passed] == ["group"]
    assert report.results["group"].counterexample["check"] == check


def unchanged_line(g, line):
    return line


def origin_only(g, line):
    return affine.WorldLine(affine.act(g, line.origin), direction=line.direction)


@pytest.mark.parametrize("fault", [unchanged_line, origin_only], ids=lambda f: f.__name__)
def test_kinematics_fails_on_a_line_map_that_skips_the_map(monkeypatch, fault):
    # The null line keeps speed c and the slow line stays slow whether or not the line is
    # mapped; the line's events, mapped by act, tell.
    monkeypatch.setattr(affine, "transform_worldline", fault)
    report = run_suite(SuiteConfig(**FAST))
    assert [pid for pid, r in report.results.items() if not r.passed] == ["kinematics"]
    assert report.results["kinematics"].counterexample["check"] == "worldline"


def test_kinematics_judges_the_periods_at_every_negative_sigma(monkeypatch):
    # subnormal sigmas, the least normal one and the most negative float are each judged
    sigmas = (-5e-324, -1e-320, -2.2250738585072014e-308, -1.7976931348623157e308)
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=sigmas, trials=3)
    real, shapes = groups.boost_closed_form, []

    def counted(b, sigma):
        shapes.append((np.shape(b)[:-1], np.shape(sigma)))
        return real(b, sigma)

    monkeypatch.setattr(groups, "boost_closed_form", counted)
    result = verify._run(verify._prop_kinematics, cfg, np.random.default_rng(0))
    # one call per n: the 4 sigmas' members, then their half and full periods, a row each
    assert shapes == [((3 * 4, cfg.trials), (3 * 4, 1))] * 2
    # 2 n x 4 sigmas x 3 trials x (2 periods + 1 invariant), and 2 n x 3 affine maps
    assert result.passed and result.checks == 72 + 6
    report = run_suite(SuiteConfig(n_values=(2,), sigma_values=(-1e-320,), trials=2))
    assert report.passed and report.results["kinematics"].passed


@pytest.mark.parametrize("sigma", [0.0, math.inf], ids=["galilei", "carroll"])
def test_kinematics_fails_on_a_defect_in_a_degenerate_form(monkeypatch, sigma):
    # A 1e-8 defect in the Galilei boost's last row, or in the Carroll boost's last column,
    # moves the form diag(0, ..., 0, 1) or diag(-I, 0) that the case preserves.
    real = groups.boost_closed_form

    def planted(b, s):
        out = real(b, s)
        n = out.shape[-1] - 1
        edge = out[..., n, :n] if s == 0.0 else out[..., :n, n]
        edge += 1e-8  # a view: out moves with it
        return out

    monkeypatch.setattr(groups, "boost_closed_form", planted)
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=(sigma,), trials=5)
    result = verify._run(verify._prop_kinematics, cfg, np.random.default_rng(0))
    assert "invariants" in result.failed_checks


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
    report.results["algebra"] = verify.PropertyResult(False, 1.0)
    assert not report.passed


@pytest.mark.parametrize("sigma", [1e200, -1e200, 1e300, -1e300, 1e308, -1e308])
def test_collinearity_and_invariants_hold_at_huge_sigma(monkeypatch, sigma):
    # The collinear pairs and kinematics are judged in the balanced time unit of sigma, where
    # neither sigma * b nor a^T g a passes the float range; warnings are errors here.
    checks = judge_each_check(monkeypatch)
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=(sigma,), trials=5)
    algebra = verify._run(verify._prop_algebra, cfg, np.random.default_rng([cfg.seed, 1]))
    assert not {"collinear", "commutator"} & set(algebra.failed_checks)
    result = verify._run(verify._prop_kinematics, cfg, np.random.default_rng([cfg.seed, 3]))
    for result in (checks["collinear"].result(), checks["commutator"].result(), result):
        assert result.passed and result.counterexample is None, result
        assert result.checks > 0


def readme_property_table() -> list[list[str]]:
    """The rows of README's property table under "## The property suite", as lists of cells."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## The property suite"):]
    section = section[:section.index("\n## ")]
    return [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")]


@pytest.mark.parametrize("sigmas", [None, (1.0, 0.0, math.inf), (-1.0,)])
def test_readme_maps_exactly_the_reported_properties_and_checks(sigmas):
    # The table lists each property run_suite reports, at the default config and at configs
    # with and without a negative sigma, and each check name that the properties give.
    cfg = SuiteConfig() if sigmas is None else SuiteConfig(n_values=(2,), sigma_values=sigmas,
                                                           trials=2)
    rows = readme_property_table()
    assert {row[0].strip("`") for row in rows} == set(run_suite(cfg).results)
    names = {name for row in rows for name in re.findall(r"`([^`]+)`", row[3])}
    assert names == set(re.findall(r'"check": "([^"]+)"', inspect.getsource(verify)))
