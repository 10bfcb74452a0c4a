import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from kinematica import affine, classify, groups, isotypic, matcore, verify
from kinematica.matcore import bracket
from kinematica.verify import SuiteConfig, SuiteReport, run_suite

FAST = dict(n_values=(2,), trials=3, seed=1)
PROPERTY_IDS = ["algebra", "group", "kinematics"]


def test_config_validation():
    with pytest.raises(ValueError, match="n_values must contain integers >= 2"):
        SuiteConfig(n_values=())
    with pytest.raises(ValueError, match="n_values must contain integers >= 2"):
        SuiteConfig(n_values=(1,))
    with pytest.raises(ValueError, match="sigma_values must not be empty"):
        SuiteConfig(sigma_values=())
    with pytest.raises(ValueError, match="trials must be at least 1"):
        SuiteConfig(trials=0)
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        SuiteConfig(tol=0.0)
    # an infinite tol passes every property and is not strict JSON
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            SuiteConfig(tol=tol)
    with pytest.raises(ValueError, match="seed must be nonnegative"):
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
        assert report.to_json_dict()["properties"][pid]["description"]


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


SIX = (1.0, 0.5, -1.0, -0.25, 0.0, math.inf)
NEGATIVE = (-5e-324, -1e-320, -2.2250738585072014e-308, -1.7976931348623157e308)
TRACED = [(groups, "random_element"), (groups, "_draw"), (groups, "boost_closed_form"),
          (groups, "p_generator"), (groups, "membership"), (groups, "in_normalizer"),
          (groups, "cartan_decompose"), (groups, "in_K"), (np.linalg, "inv"), (np.linalg, "svd"),
          (matcore, "mat_exp"), (affine, "compose"), (affine, "transform_worldline"),
          (classify, "collinearity_defect"), (classify, "_verdicts"),
          (verify, "_doubled_commutator"), (isotypic, "_coordinates"),
          (verify._Check, "residual"), (verify._Check, "flag"),
          (classify.ClassificationResult, "__init__", "ClassificationResult")]
# Per n, kinematics composes six times and maps one stack of lines, every sigma > 0 in it; it
# draws every sigma's factors in one call, and makes one boost call, each row at its own
# sigma, whose rows for sigma < 0 also make the half and full periods.
KINEMATICS = {"kinematics.compose": 12, "kinematics.transform_worldline": 2,
              "kinematics.boost_closed_form": 2, "kinematics._draw": 2,
              "kinematics.random_element": 0}
# Per n, group draws every case's factors in one call and builds every case's members in one
# boost call; one membership call per case (both Lorentz sigmas in one) and one more in in_K,
# one in_normalizer call on every sigma != 0, inf and one cartan_decompose call (with its own
# boost call) on every sigma > 0 judge them; one inv call inverts every case's members and
# rotations, and no SVD scales E.
GROUP = {"group._draw": 2, "group.random_element": 0, "group.boost_closed_form": 4,
         "group.membership": 10, "group.in_normalizer": 2, "group.cartan_decompose": 2,
         "group.in_K": 2, "group.inv": 2, "group.svd": 0}
# Each function under test that takes no case is called once per n over every sigma's stacks,
# each row at its own sigma, so six sigmas cost no more calls than one.  p_generator: per n,
# one call on every sigma's sets, one on the controls', two on their mixed sigmas, two on the
# non-closing span, and group's and cartan_decompose's; boost_closed_form: group's,
# cartan_decompose's and kinematics'; the draw: one per property, algebra's through
# random_element.
SIGMA_FREE = dict.fromkeys(("collinearity_defect", "_doubled_commutator", "in_K",
                            "transform_worldline", "mat_exp", "in_normalizer", "cartan_decompose",
                            "_verdicts"), 2) | {"random_element": 2, "_draw": 6,
                                                "boost_closed_form": 6, "p_generator": 16}
CALLS = {  # configuration (n = 2 and 3) -> the calls run_suite makes, "property.name" in one
    "default": ({}, {
        "random_element": 2, "_draw": 6, "mat_exp": 2, "ClassificationResult": 0,
        # one flag or residual call per check and n, over every sigma and case: a call per
        # case or sigma would make 38 and 52; a flag whose verdicts all hold takes no residual
        "residual": 22, "flag": 22,
        # in_K on every case's rotations: their products, inverses and perturbed copies
        "group.in_K": [((375, 3, 3),), ((375, 4, 4),)],
        # classify's core on every sigma's 25 sets and the four controls, one call per n (a
        # call per set would make 129); one coordinate call more on the trials and their
        # conjugates; one defect call and one doubled-commutator call on the witness and the
        # general pairs, as many as the classified sets
        "algebra._verdicts": [((129, 3, 3, 3),), ((129, 6, 4, 4),)],
        "algebra._coordinates": [((129, 3, 3, 3),), ((25, 2, 3, 3),), ((129, 6, 4, 4),),
                                 ((25, 2, 4, 4),)],
        "algebra.collinearity_defect": [((126, 2), (126, 2)), ((126, 3), (126, 3))],
        "algebra._doubled_commutator": [((126, 2), (126, 2)), ((126, 3), (126, 3))]}),
    "one sigma": ({"sigma_values": (1.0,)}, {"algebra._verdicts": 2}),
    "six sigmas": ({"sigma_values": SIX}, {"algebra._verdicts": 2} | KINEMATICS | GROUP),
    "one sigma, 3 trials": ({"sigma_values": (1.0,), "trials": 3}, SIGMA_FREE),
    "six sigmas, 3 trials": ({"sigma_values": SIX, "trials": 3}, KINEMATICS | GROUP | SIGMA_FREE),
    # the members of the four sigmas, then their half and full periods, a row each
    "negative extremes": ({"sigma_values": NEGATIVE, "trials": 3}, {
        "kinematics.boost_closed_form": [((12, 3, 2), (12, 1)), ((12, 3, 3), (12, 1))]}),
}


def assert_calls(tracer, monkeypatch, config: dict, expected: dict, plant=lambda: None):
    """Run the suite at config with TRACED watched (then plant run), and assert that each
    property that a key of expected names (all, for a key of no property) passed and that the
    calls are those of expected."""
    for target in TRACED:
        tracer.watch(*target)
    plant()
    run = verify._run

    def scoped(fn, cfg, rng):
        tracer.scope = fn.__name__.removeprefix("_prop_") + "."
        return run(fn, cfg, rng)

    monkeypatch.setattr(verify, "_run", scoped)
    report = run_suite(SuiteConfig(**config))
    pinned = {key.split(".")[0] if "." in key else pid for key in expected
              for pid in report.results}
    assert not [pid for pid in pinned if not report.results[pid].passed]
    got = tracer.table(expected)
    assert got == expected, f"calls differ at {[key for key in got if got[key] != expected[key]]}"


@pytest.mark.parametrize("name", CALLS)
def test_the_suite_makes_the_calls_of_the_table(tracer, monkeypatch, name):
    assert_calls(tracer, monkeypatch, *CALLS[name])


def split_calls(real, sections):
    """real called once per section of its first argument, split at sections, as one call."""
    def planted(x, tol):
        parts = [real(part, tol) for part in np.split(x, sections)]
        return type(parts[0])(*map(np.concatenate, zip(*parts))) if isinstance(
            parts[0], tuple) else np.concatenate(parts)
    return planted


PLANTED = {  # a change that makes more calls, which the table must report by name
    "group.in_K": (groups, "in_K", lambda real: split_calls(real, 5)),  # once per case
    "algebra._verdicts": (classify, "_verdicts",  # once per sigma, the controls with the last
                          lambda real: split_calls(real, [25, 50, 75, 100])),
    "ClassificationResult": (verify, "_doubled_commutator", lambda real: lambda b, c: (
        classify.classify_algebra(classify.rotation_generators(2)) and real(b, c))),
}


@pytest.mark.parametrize("name", PLANTED)
def test_the_call_table_reports_a_planted_extra_call(tracer, monkeypatch, name):
    owner, attr, plant = PLANTED[name]
    with pytest.raises(AssertionError, match=re.escape(f"'{name}'")):
        assert_calls(tracer, monkeypatch, *CALLS["default"], lambda: monkeypatch.setattr(
            owner, attr, plant(getattr(owner, attr))))


def test_algebra_property_keeps_its_peak_under_the_budget(traced_peak):
    # Merged without a limit, the n = 10 sets of every sigma would sit in one call, about
    # three copies of 5 * 1.33 M floats (153 MiB traced).  The budget keeps one sigma a
    # call there: the peak stays within 5% of a call per sigma (31.0 MiB).  Classification
    # runs first, so the arrays of the other checks do not add to it.
    cfg = SuiteConfig(n_values=(2, 3, 10), trials=200)
    verify._run(verify._prop_algebra, SuiteConfig(), np.random.default_rng(0))  # warm
    result, peak = traced_peak(verify._run, verify._prop_algebra, cfg, np.random.default_rng(0))
    assert result.passed
    assert peak <= 1.05 * 31.0 * 2 ** 20


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


def test_default_suite_check_counts():
    # The number of residual and flag values each property judges: stacking
    # the properties must drop none of them.
    data = json.loads(run_suite().to_json())
    counts = {pid: entry["checks"] for pid, entry in data["properties"].items()}
    # algebra, per n: the classified sets' case and sigma (2 x 5 x 25), the four controls, the
    # non-closing span's two flags, the coordinate pass (25), and the commutator of the witness
    # and the general pairs (1 + 5 x 25); P1, P2, P3 and P10 had 50, 500, 502 and 12.  group:
    # per n and case, closure, the rotations' products and inverses, and the refused copies of
    # members and rotations (5 cases x 4 x 25); per sigma != 0, inf the normalizer's four values
    # and the refused copies (3 x 5 x 25); per sigma > 0 the Cartan factors (2 x 25).
    # kinematics: per n the affine axioms (25), per sigma the invariants (5 x 25), per sigma > 0
    # two speeds and the world line (2 x 3 x 25), per sigma < 0 two periods (50).
    assert counts == {"algebra": 814, "group": 1850, "kinematics": 700}
    assert sum(counts.values()) == 3364


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

    monkeypatch.setattr("kinematica.groups._draw", boom)
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


def test_kinematics_judges_the_periods_at_every_negative_sigma():
    # subnormal sigmas, the least normal one and the most negative float are each judged
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=NEGATIVE, trials=3)
    result = verify._run(verify._prop_kinematics, cfg, np.random.default_rng(0))
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
    # Kinematics is judged in the balanced time unit of sigma, where a^T g a does not pass the
    # float range, and algebra's commutator reads no sigma; warnings are errors here.
    checks = judge_each_check(monkeypatch)
    cfg = SuiteConfig(n_values=(2, 3), sigma_values=(sigma,), trials=5)
    algebra = verify._run(verify._prop_algebra, cfg, np.random.default_rng([cfg.seed, 1]))
    assert "commutator" not in algebra.failed_checks
    result = verify._run(verify._prop_kinematics, cfg, np.random.default_rng([cfg.seed, 3]))
    for result in (checks["commutator"].result(), result):
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
