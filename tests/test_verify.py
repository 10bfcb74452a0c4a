import json
import math
import tracemalloc

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
    # an infinite tol passes every property and is not strict JSON
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            SuiteConfig(tol=tol)
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
    assert finite_nonzero == [1.0, -2.0]
    assert verify._sigmas(cfg, CaseLabel.LORENTZ) == [1.0]
    assert verify._sigmas(cfg, CaseLabel.ORTHOGONAL) == [-2.0]
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
    # P5 rebuilds every sigma's members in one call per n, and their factors in one more
    assert counts["mat_exp"] == 2 * len(SuiteConfig().n_values)
    monkeypatch.setattr("kinematica.groups.in_K", counted_in_K)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_pure_rotations, cfg, np.random.default_rng(0)).passed
    stacks = [(len(verify._cases(cfg)) * cfg.trials, n + 1, n + 1) for n in cfg.n_values]
    assert in_K_stacks == stacks  # one call per n on every case's stack


def test_classification_property_classifies_each_stack_in_one_call(monkeypatch):
    # Per n, one call for the rotations alone and one on every sigma's stack of trials sets
    # at once; a call per set would be 1 + 5 * 25 = 126 per n, a call per sigma 6.
    from kinematica import classify
    real = classify.classify_algebra
    shapes = []

    def counted(generators, tol=1e-9):
        shapes.append(np.shape(generators))
        return real(generators, tol)

    monkeypatch.setattr("kinematica.classify.classify_algebra", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_classification, cfg, np.random.default_rng(0)).passed
    expected = []
    for n in cfg.n_values:
        m = n * (n - 1) // 2 + n
        expected += [(m - n, n + 1, n + 1),
                     (len(cfg.sigma_values) * cfg.trials, m, n + 1, n + 1)]
    assert shapes == expected
    for sigmas in ((1.0,), (1.0, 0.5, -1.0, -0.25, 0.0, math.inf)):
        shapes.clear()
        cfg = SuiteConfig(sigma_values=sigmas)
        assert verify._run(verify._prop_classification, cfg, np.random.default_rng(0)).passed
        assert len(shapes) == 2 * len(cfg.n_values)  # a sigma more adds no call


def test_classification_property_keeps_its_peak_under_the_budget():
    # Merged without a limit, the n = 10 sets of every sigma would sit in one call, about
    # three copies of 5 * 1.33 M floats (153 MiB traced).  The budget keeps one sigma a
    # call there: the peak stays within 5% of a call per sigma (31.0 MiB).
    cfg = SuiteConfig(n_values=(2, 3, 10), trials=200)
    verify._run(verify._prop_classification, SuiteConfig(), np.random.default_rng(0))  # warm
    tracemalloc.start()
    try:
        result = verify._run(verify._prop_classification, cfg, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak <= 1.05 * 31.0 * 2 ** 20


def test_collinearity_property_takes_one_defect_call_per_stack(monkeypatch):
    # One call per n on every sigma's two stacks of trials pairs; a call per
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
    assert shapes == [(2 * len(cfg.sigma_values) * cfg.trials, n) for n in cfg.n_values]


def test_isotypic_property_takes_one_coordinate_call_per_n(monkeypatch):
    # One call per n on the trials and their conjugates, stacked as (trials, 2, n+1, n+1).
    from kinematica import isotypic
    real = isotypic._coordinates
    shapes = []

    def counted(Z):
        shapes.append(Z.shape)
        return real(Z)

    monkeypatch.setattr("kinematica.isotypic._coordinates", counted)
    cfg = SuiteConfig()
    assert verify._run(verify._prop_isotypic, cfg, np.random.default_rng(0)).passed
    assert shapes == [(cfg.trials, 2, n + 1, n + 1) for n in cfg.n_values]


def test_isotypic_property_residuals_stay_near_the_float_epsilon():
    # Every residual is a relative float error: a few ulps at n = 2, 3 and 10, far under tol.
    cfg = SuiteConfig(n_values=(2, 3, 10))
    result = verify._run(verify._prop_isotypic, cfg, np.random.default_rng(cfg.seed))
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
def test_isotypic_property_fails_on_a_faulty_coordinate_pass(monkeypatch, fault):
    # A fault planted in the rows that the coordinate pass returns fails P1's checks.
    from kinematica import isotypic
    real = isotypic._coordinates

    def faulty(Z):
        lam, rows = real(Z)
        n = Z.shape[-1] - 1
        fault(lam, rows, n, 2 + n * n)
        return lam, rows

    monkeypatch.setattr("kinematica.isotypic._coordinates", faulty)
    cfg = SuiteConfig()
    result = verify._run(verify._prop_isotypic, cfg, np.random.default_rng(cfg.seed))
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


def test_affine_and_wraparound_properties_call_once_per_stack(monkeypatch):
    # Each (n, sigma) stack is judged in a fixed number of calls, whatever the
    # number of trials: P9 composes six times per n and maps one stack of lines
    # per n, every sigma > 0 in it; wrap-around makes one boost call per (n, sigma < 0),
    # on the stack of half and full periods.
    from kinematica import affine
    counts = count_calls(monkeypatch, (affine, "compose"), (affine, "transform_worldline"),
                         (groups, "boost_closed_form"))
    for trials in (3, 25):
        cfg = SuiteConfig(sigma_values=(1.0, 0.5, -1.0, -0.25, 0.0, math.inf), trials=trials)
        counts.clear()
        assert verify._run(verify._prop_affine, cfg, np.random.default_rng(0)).passed
        assert counts["compose"] == 6 * len(cfg.n_values)
        assert counts["transform_worldline"] == len(cfg.n_values)
        counts.clear()
        assert verify._run(verify._prop_wraparound, cfg, np.random.default_rng(0)).passed
        assert counts == {"boost_closed_form": 2 * len(cfg.n_values)}


def test_sigma_free_calls_do_not_grow_with_the_sigmas(monkeypatch):
    # P2, P7 and P9 judge every sigma's stacks in one call per n to each function under test
    # that takes no sigma and no case, so six sigmas cost those functions no more calls than one.
    from kinematica import affine, classify
    counts = count_calls(monkeypatch, (classify, "collinearity_defect"),
                         (verify, "_doubled_commutator"), (groups, "in_K"),
                         (affine, "transform_worldline"))

    def calls(sigmas):
        counts.clear()
        cfg = SuiteConfig(sigma_values=sigmas, trials=3)
        for prop in (verify._prop_collinearity, verify._prop_pure_rotations, verify._prop_affine):
            assert verify._run(prop, cfg, np.random.default_rng(0)).passed
        return dict(counts)

    one = calls((1.0,))
    assert one == dict.fromkeys(("collinearity_defect", "_doubled_commutator", "in_K",
                                 "transform_worldline"), len(SuiteConfig().n_values))
    assert calls((1.0, 0.5, -1.0, -0.25, 0.0, math.inf)) == one


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


def test_the_suite_across_the_sigma_axis():
    # +-10^j over the whole float range, plus Galilei and Carroll.  At |sigma| >= 1e100 the
    # generated sets fall under classify's Carroll guard, |b| <= (n+1) eps |c|, and read back
    # as Carroll: P3 fails there, and only P3.
    grid = [sign * 10.0 ** j for j in (-300, -100, -24, -12, -8, -4, 0, 4, 8, 12, 100, 300)
            for sign in (1.0, -1.0)] + [0.0, math.inf]
    fails_in_p3 = (1e100, -1e100, 1e300, -1e300)
    within = [s for s in grid if s not in fails_in_p3]
    assert len(within) == 22 and run_suite(SuiteConfig(sigma_values=within)).passed
    for s in fails_in_p3:
        results = run_suite(SuiteConfig(sigma_values=(s,))).results
        assert [pid for pid, r in results.items() if not r.passed] == ["P3"], s


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


def test_wraparound_property_judges_every_negative_sigma():
    # subnormal sigmas, the least normal one and the most negative float are each judged
    sigmas = (-5e-324, -1e-320, -2.2250738585072014e-308, -1.7976931348623157e308)
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=sigmas, trials=3)
    result = verify._run(verify._prop_wraparound, cfg, np.random.default_rng(0))
    assert result.passed and result.checks == 48  # 2 n x 4 sigmas x 3 trials x 2 periods
    report = run_suite(SuiteConfig(n_values=(2,), sigma_values=(-1e-320,), trials=2))
    assert report.passed and report.results["wraparound"].passed


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
