from dataclasses import replace

import numpy as np
import pytest

from kinematica import isotypic


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


def test_split_requires_two_space_dimensions():
    with pytest.raises(ValueError):
        isotypic.split(np.eye(2))


def test_split_near_the_float_max_stays_silent():
    # A - A^T would be -2e308; A is halved first (warnings are errors here).
    Z = np.array([[0.0, 1e308, 0.0], [-1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
    parts = isotypic.split(Z)
    np.testing.assert_array_equal(parts.m1, Z[:2, :2])
    assert not parts.m2.any()
    np.testing.assert_array_equal(isotypic.merge(parts), Z)


def test_split_of_a_trace_past_the_float_max_stays_silent():
    # 1e308 + 1e308 overflows; such a trace is read over a power of two (warnings are
    # errors here), and every other trace of a stack keeps its bits.
    Z = np.diag([1e308, 1e308, 0.0])
    parts = isotypic.split(Z)
    assert parts.lam == 1e308 and not parts.m2.any()
    np.testing.assert_array_equal(isotypic.merge(parts), Z)
    rng = np.random.default_rng(5)
    stack = np.stack([np.diag([2.0**1023] * 10 + [0.0]), rng.standard_normal((11, 11))])
    parts = isotypic.split(stack)
    assert parts.lam[0] == 2.0**1023
    assert parts.lam[1] == np.trace(stack[1, :10, :10]) / 10
    np.testing.assert_array_equal(isotypic.merge(parts)[0], stack[0])


def test_split_of_worked_example():
    M = np.zeros((3, 3))
    M[:2, :2] = [[1.0, 2.0], [0.0, 1.0]]
    M[2, 2] = 5.0
    s = isotypic.split(M)
    assert s.lam == 1.0
    assert s.mu == 5.0
    np.testing.assert_array_equal(s.m1, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(s.m2, [[0.0, 1.0], [1.0, 0.0]])
    assert np.all(s.b == 0.0) and np.all(s.c == 0.0)


def test_split_of_rotation_generator():
    J = np.zeros((4, 4))
    J[0, 1], J[1, 0] = -1.0, 1.0
    s = isotypic.split(J)
    np.testing.assert_array_equal(s.m1, J[:3, :3])
    assert s.lam == 0.0 and s.mu == 0.0
    assert op_norm(s.m2) == 0.0
    assert np.all(s.b == 0.0) and np.all(s.c == 0.0)


def test_split_of_boost_pair():
    Z = np.zeros((3, 3))
    Z[:2, 2] = [1.0, 2.0]
    Z[2, :2] = [2.0, 4.0]
    s = isotypic.split(Z)
    np.testing.assert_array_equal(s.b, [1.0, 2.0])
    np.testing.assert_array_equal(s.c, [2.0, 4.0])
    assert s.lam == 0.0 and s.mu == 0.0


COMPONENTS = ("m0", "m1", "m2", "m3")


def component_matrix(s, component):
    """One component embedded as a matrix: merge with the other three zeroed."""
    zeroed = {
        "m0": {"lam": 0.0, "mu": 0.0},
        "m1": {"m1": np.zeros_like(s.m1)},
        "m2": {"m2": np.zeros_like(s.m2)},
        "m3": {"b": np.zeros_like(s.b), "c": np.zeros_like(s.c)},
    }
    fields = {key: value for other, values in zeroed.items() if other != component
              for key, value in values.items()}
    return isotypic.merge(replace(s, **fields))


def test_component_matrices_sum_back():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5):
        M = rng.standard_normal((n + 1, n + 1))
        s = isotypic.split(M)
        total = sum(component_matrix(s, k) for k in COMPONENTS)
        np.testing.assert_allclose(total, M, atol=1e-14)


def test_merge_round_trip():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 4))
    np.testing.assert_allclose(isotypic.merge(isotypic.split(M)), M, atol=1e-14)


def test_m1_skew_and_m2_traceless_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(25):
        s = isotypic.split(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(s.m1, -s.m1.T, atol=1e-14)
        np.testing.assert_allclose(s.m2, s.m2.T, atol=1e-14)
        assert abs(np.trace(s.m2)) <= 1e-13


def test_components_are_orthogonal():
    # distinct components of distinct matrices have zero Frobenius pairing
    rng = np.random.default_rng(13)
    X = isotypic.split(rng.standard_normal((4, 4)))
    Y = isotypic.split(rng.standard_normal((4, 4)))
    for i in COMPONENTS:
        for j in COMPONENTS:
            if i != j:
                assert abs(np.sum(component_matrix(X, i) * component_matrix(Y, j))) <= 1e-12


def test_ad_rotation_matches_conjugation():
    # oracle: conjugate by the assembled block rotation directly
    rng = np.random.default_rng(15)
    for n in (2, 3):
        for eps in (1, -1):
            theta = rng.uniform(0.0, 2 * np.pi)
            R = np.eye(n)
            R[:2, :2] = [[np.cos(theta), -np.sin(theta)],
                         [np.sin(theta), np.cos(theta)]]
            K = np.zeros((n + 1, n + 1))
            K[:n, :n] = R
            K[n, n] = eps
            M = rng.standard_normal((n + 1, n + 1))
            oracle = K @ M @ np.linalg.inv(K)
            np.testing.assert_allclose(isotypic.ad_rotation(R, eps, M),
                                       oracle, atol=1e-11)


def test_ad_rotation_preserves_component_norms():
    rng = np.random.default_rng(16)
    M = rng.standard_normal((4, 4))
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    before = isotypic.split(M)
    after = isotypic.split(isotypic.ad_rotation(Q, -1, M))
    for key in ("m0", "m1", "m2", "m3"):
        assert np.linalg.norm(component_matrix(after, key)) == pytest.approx(
            np.linalg.norm(component_matrix(before, key)), abs=1e-11)


def test_ad_rotation_fixes_scalar_parts():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((4, 4))
    s = isotypic.split(M)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    out = isotypic.split(isotypic.ad_rotation(Q, 1, M))
    assert out.lam == pytest.approx(s.lam)
    assert out.mu == pytest.approx(s.mu)


def test_ad_rotation_validates_input():
    Z = np.zeros((3, 3))
    with pytest.raises(ValueError):
        isotypic.ad_rotation(np.array([[1.0, 1.0], [0.0, 1.0]]), 1, Z)
    with pytest.raises(ValueError):
        isotypic.ad_rotation(np.eye(2), 2, Z)
    with pytest.raises(ValueError):
        isotypic.ad_rotation(np.eye(3), 1, Z)
    # NaN entries would pass the orthogonality bound, since NaN > bound is False
    with pytest.raises(ValueError, match="finite"):
        isotypic.ad_rotation(np.full((2, 2), np.nan), 1, Z)


def test_split_reads_blocks_consistently():
    rng = np.random.default_rng(18)
    M = rng.standard_normal((5, 5))
    s = isotypic.split(M)
    np.testing.assert_array_equal(s.b, M[:4, 4])
    np.testing.assert_array_equal(s.c, M[4, :4])
    assert s.mu == M[4, 4]
    np.testing.assert_allclose(s.lam, np.trace(M[:4, :4]) / 4.0)


def _stacks(rng, n):
    d = n + 1
    return [rng.standard_normal((5, d, d)), rng.standard_normal((2, 3, d, d))]


def test_merge_of_split_round_trips_a_stack():
    rng = np.random.default_rng(20)
    for n in (2, 3, 10):
        for stack in _stacks(rng, n):
            merged = isotypic.merge(isotypic.split(stack))
            assert merged.shape == stack.shape
            np.testing.assert_allclose(merged, stack, atol=1e-14)
