"""The coordinate pass of kinematica.isotypic, which classify_algebra reads every generator
through: the slot each coordinate takes, rebuilding Z from the coordinates and the skew part,
the four pieces as orthogonal projections, and the block rotations of groups.k_element acting
on them."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from kinematica import isotypic
from kinematica.groups import k_element


def pieces(Z) -> SimpleNamespace:
    """The coordinate pass on a float copy of Z, one matrix or a stack, which it halves in place:
    lam, its coordinates, and the pieces read off them, m1 being the halved block's skew part."""
    Z = np.array(Z, dtype=float)
    n = Z.shape[-1] - 1
    lam, rows = isotypic._coordinates(Z)
    half, j = Z[..., :n, :n], 2 + n * n
    return SimpleNamespace(lam=lam, rows=rows, scalar=rows[..., 0], mu=rows[..., 1],
                           m1=half - half.mT, m2=rows[..., 2:j].reshape(half.shape),
                           b=rows[..., j:j + n], c=rows[..., j + n:])


def rebuild(p) -> np.ndarray:
    """Z again from its lam, coordinates and skew part."""
    n = p.m1.shape[-1]
    Z = np.empty(p.mu.shape + (n + 1, n + 1))
    Z[..., :n, :n] = p.m1 + p.m2 + np.asarray(p.lam)[..., None, None] * np.eye(n)
    Z[..., :n, n], Z[..., n, :n], Z[..., n, n] = p.b, p.c, p.mu
    return Z


def test_the_pass_near_the_float_max_stays_silent():
    # A - A^T would be -2e308; A is halved first (warnings are errors here).
    Z = np.array([[0.0, 1e308, 0.0], [-1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
    p = pieces(Z)
    np.testing.assert_array_equal(p.m1, Z[:2, :2])
    assert not p.m2.any()
    np.testing.assert_array_equal(rebuild(p), Z)


def test_a_trace_past_the_float_max_is_read_over_a_power_of_two():
    # 1e308 + 1e308 overflows; such a trace is read over a power of two (warnings are
    # errors here), and every other trace of a stack keeps its bits.
    Z = np.diag([1e308, 1e308, 0.0])
    p = pieces(Z)
    assert p.lam == 1e308 and p.scalar == math.sqrt(2) * 1e308 and not p.m2.any()
    np.testing.assert_array_equal(rebuild(p), Z)
    rng = np.random.default_rng(5)
    stack = np.stack([np.diag([2.0**1023] * 10 + [0.0]), rng.standard_normal((11, 11))])
    with np.errstate(over="ignore"):  # only the first sqrt(10) lam, past the float max
        p = pieces(stack)
    assert p.lam[0] == 2.0**1023 and p.scalar[0] == math.inf
    assert p.lam[1] == np.trace(stack[1, :10, :10]) / 10
    np.testing.assert_array_equal(rebuild(p)[0], stack[0])


def test_coordinates_of_worked_example():
    M = np.zeros((3, 3))
    M[:2, :2] = [[1.0, 2.0], [0.0, 1.0]]
    M[2, 2] = 5.0
    p = pieces(M)
    assert p.lam == 1.0 and p.scalar == math.sqrt(2)
    assert p.mu == 5.0
    np.testing.assert_array_equal(p.m1, [[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(p.m2, [[0.0, 1.0], [1.0, 0.0]])
    assert np.all(p.b == 0.0) and np.all(p.c == 0.0)


def test_coordinates_of_rotation_generator():
    J = np.zeros((4, 4))
    J[0, 1], J[1, 0] = -1.0, 1.0
    p = pieces(J)
    np.testing.assert_array_equal(p.m1, J[:3, :3])
    assert not p.rows.any()


def test_coordinates_of_boost_pair():
    Z = np.zeros((3, 3))
    Z[:2, 2] = [1.0, 2.0]
    Z[2, :2] = [2.0, 4.0]
    p = pieces(Z)
    np.testing.assert_array_equal(p.b, [1.0, 2.0])
    np.testing.assert_array_equal(p.c, [2.0, 4.0])
    assert p.lam == 0.0 and not p.rows[:-4].any() and not p.m1.any()


def test_the_pass_reads_blocks_consistently():
    rng = np.random.default_rng(18)
    M = rng.standard_normal((5, 5))
    p = pieces(M)
    np.testing.assert_array_equal(p.b, M[:4, 4])
    np.testing.assert_array_equal(p.c, M[4, :4])
    assert p.mu == M[4, 4]
    np.testing.assert_allclose(p.lam, np.trace(M[:4, :4]) / 4.0)
    assert p.scalar == 2.0 * p.lam


def test_m1_skew_and_m2_traceless_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(25):
        p = pieces(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(p.m1, -p.m1.T, atol=1e-14)
        np.testing.assert_allclose(p.m2, p.m2.T, atol=1e-14)
        assert abs(np.trace(p.m2)) <= 1e-13


def test_z_is_rebuilt_from_its_coordinates_and_skew_part():
    # And the coordinates with the skew part keep the Frobenius norm: the pieces are orthogonal.
    rng = np.random.default_rng(20)
    for n in (2, 3, 10):
        d = n + 1
        for Z in (rng.standard_normal((d, d)), rng.standard_normal((5, d, d)),
                  rng.standard_normal((2, 3, d, d))):
            p = pieces(Z)
            assert rebuild(p).shape == Z.shape
            np.testing.assert_allclose(rebuild(p), Z, atol=1e-14)
            np.testing.assert_allclose(np.vecdot(p.rows, p.rows) + np.sum(p.m1**2, (-2, -1)),
                                       np.sum(Z**2, (-2, -1)), rtol=1e-14)


def piece_matrices(p) -> dict:
    """Each of the four pieces m0 to m3 of p as a matrix: Z rebuilt with the other three zeroed."""
    owned = {"m0": ("lam", "mu"), "m1": ("m1",), "m2": ("m2",), "m3": ("b", "c")}
    zero = {key: np.zeros_like(getattr(p, key)) for keys in owned.values() for key in keys}
    return {piece: rebuild(SimpleNamespace(**{**zero, **{key: getattr(p, key) for key in keys}}))
            for piece, keys in owned.items()}


def test_the_pass_of_a_piece_returns_that_piece_alone():
    # Each piece is a projection: read again, its matrix has no part in the other three.
    rng = np.random.default_rng(10)
    for n in (2, 3, 5):
        for piece, P in piece_matrices(pieces(rng.standard_normal((n + 1, n + 1)))).items():
            again = piece_matrices(pieces(P))
            for other, Q in again.items():
                np.testing.assert_allclose(Q, P if other == piece else 0.0, atol=1e-14)


def test_the_pieces_are_orthogonal():
    # distinct pieces of distinct matrices have zero Frobenius pairing
    rng = np.random.default_rng(13)
    X = piece_matrices(pieces(rng.standard_normal((4, 4))))
    Y = piece_matrices(pieces(rng.standard_normal((4, 4))))
    for i in X:
        for j in Y:
            if i != j:
                assert abs(np.sum(X[i] * Y[j])) <= 1e-12


def test_the_pass_halves_the_spatial_rows_in_place():
    # The first n rows of Z are halved exactly, the corner row kept; the rows are a new array.
    rng = np.random.default_rng(19)
    Z = rng.standard_normal((2, 4, 4))
    before = Z.copy()
    lam, rows = isotypic._coordinates(Z)
    np.testing.assert_array_equal(Z[:, :3], before[:, :3] / 2)
    np.testing.assert_array_equal(Z[:, 3], before[:, 3])
    assert lam.shape == (2,) and rows.shape == (2, 2 + 9 + 6)
    assert not np.shares_memory(rows, Z)


def block_rotations(seed):
    """(n, eps, M, R, K M K^T) for random M and orthogonal R at n = 2, 3 and either eps."""
    rng = np.random.default_rng(seed)
    for n in (2, 3):
        for eps in (1, -1):
            M = rng.standard_normal((n + 1, n + 1))
            R = np.linalg.qr(rng.standard_normal((n, n)))[0]
            K = k_element(R, eps)
            yield n, eps, M, R, K @ M @ K.T


def test_a_block_rotation_fixes_the_scalars():
    for _, _, M, _, moved in block_rotations(17):
        before, after = pieces(M), pieces(moved)
        assert after.lam == pytest.approx(before.lam)
        assert after.mu == pytest.approx(before.mu)
        assert after.scalar == pytest.approx(before.scalar)


def test_a_block_rotation_keeps_each_piece_norm():
    for _, _, M, _, moved in block_rotations(16):
        before, after = pieces(M), pieces(moved)
        for key in ("m1", "m2", "b", "c"):
            assert np.linalg.norm(getattr(after, key)) == pytest.approx(
                np.linalg.norm(getattr(before, key)), abs=1e-12)


def test_a_block_rotation_moves_each_piece_equivariantly():
    # diag(R, eps) takes m1 and m2 to R m R^T, and b and c to eps R b and eps R c.
    for _, eps, M, R, moved in block_rotations(15):
        before, after = pieces(M), pieces(moved)
        np.testing.assert_allclose(after.m1, R @ before.m1 @ R.T, atol=1e-12)
        np.testing.assert_allclose(after.m2, R @ before.m2 @ R.T, atol=1e-12)
        np.testing.assert_allclose(after.b, eps * R @ before.b, atol=1e-12)
        np.testing.assert_allclose(after.c, eps * R @ before.c, atol=1e-12)
