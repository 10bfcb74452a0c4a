import json
import math

import numpy as np
import pytest

from kinematica import matcore, verify
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


def test_config_sigma_filters():
    cfg = SuiteConfig(sigma_values=(1.0, -2.0, 0.0, math.inf))
    assert [s.value for s in cfg.finite_nonzero()] == [1.0, -2.0]
    assert [s.value for s in cfg.positive()] == [1.0]
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
