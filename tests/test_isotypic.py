import numpy as np
import pytest

from kinematica import isotypic
from kinematica.matcore import block_join, block_split


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


def test_split_requires_two_space_dimensions():
    with pytest.raises(ValueError):
        isotypic.split(np.eye(2))


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


def test_component_matrices_sum_back():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5):
        M = rng.standard_normal((n + 1, n + 1))
        s = isotypic.split(M)
        total = s.m0_matrix() + s.m1_matrix() + s.m2_matrix() + s.m3_matrix()
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
    parts_x = [X.m0_matrix(), X.m1_matrix(), X.m2_matrix(), X.m3_matrix()]
    parts_y = [Y.m0_matrix(), Y.m1_matrix(), Y.m2_matrix(), Y.m3_matrix()]
    for i, P in enumerate(parts_x):
        for j, Q in enumerate(parts_y):
            if i != j:
                assert abs(np.sum(P * Q)) <= 1e-12


def test_component_norms_derive_from_parts():
    rng = np.random.default_rng(14)
    M = rng.standard_normal((4, 4))
    s = isotypic.split(M)
    norms = s.norms()
    assert norms["m0"] == pytest.approx(np.sqrt(3 * s.lam**2 + s.mu**2))
    assert norms["m1"] == pytest.approx(np.linalg.norm(s.m1))
    assert norms["m2"] == pytest.approx(np.linalg.norm(s.m2))
    assert norms["m3"] == pytest.approx(
        np.sqrt(s.b @ s.b + s.c @ s.c))
    total = sum(v**2 for v in norms.values())
    assert total == pytest.approx(np.sum(M * M))


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
    before = isotypic.split(M).norms()
    after = isotypic.split(isotypic.ad_rotation(Q, -1, M)).norms()
    for key in before:
        assert after[key] == pytest.approx(before[key], abs=1e-11)


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


def test_split_reads_blocks_consistently():
    rng = np.random.default_rng(18)
    M = rng.standard_normal((5, 5))
    s = isotypic.split(M)
    blocks = block_split(M)
    np.testing.assert_array_equal(s.b, blocks.b)
    np.testing.assert_array_equal(s.c, blocks.c)
    assert s.mu == blocks.d
    np.testing.assert_allclose(s.lam, np.trace(blocks.A) / 4.0)
    reassembled = block_join(blocks)
    np.testing.assert_array_equal(reassembled, M)
