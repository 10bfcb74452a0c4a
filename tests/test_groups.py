import hashlib
import math
import sys

import numpy as np
import pytest

from kinematica import affine, matcore
from kinematica.classify import CaseLabel
from kinematica.groups import (
    CartanFactors,
    LogarithmFailure,
    NonPositiveLambda,
    NotInNormalizer,
    boost_closed_form,
    cartan_decompose,
    in_K,
    in_normalizer,
    k_element,
    membership,
    p_generator,
    random_element,
)
from kinematica.matcore import dagger, mat_exp


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


def random_orthogonal(n, rng):
    """Haar orthogonal matrix with a random determinant sign, drawn from
    rng as random_element draws its rotation block."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if rng.random() < 0.5:
        Q[:, 0] = -Q[:, 0]
    return Q


ALL_SIGMAS = [1.0, 0.5, 2.0, -1.0, -0.25, 0.0, math.inf]


def rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def test_k_element_shape():
    K = k_element(rotation(0.3), -1)
    assert K.shape == (3, 3)
    assert K[2, 2] == -1.0
    assert np.all(K[:2, 2] == 0.0) and np.all(K[2, :2] == 0.0)


def test_k_element_validation():
    with pytest.raises(ValueError):
        k_element(np.array([[1.0, 0.5], [0.0, 1.0]]), 1)
    with pytest.raises(ValueError):
        k_element(rotation(0.1), 0)
    with pytest.raises(ValueError):
        k_element(np.ones((2, 3)), 1)
    # NaN entries would pass the orthogonality bound, since NaN > bound is False
    with pytest.raises(ValueError, match="finite"):
        k_element(np.full((2, 2), np.nan), 1)
    # orthogonal within DEFAULT_TOL, as in_K judges it: R = Q (I + d diag(1, -1, 1/2)) has
    # |R^T R - I| = 3 d to first order, 9e-10 accepted and 9e-9 refused
    Q = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    for d, orthogonal in ((3e-10, True), (3e-9, False)):
        R = Q @ (np.eye(3) + d * np.diag([1.0, -1.0, 0.5]))
        K = np.eye(4)
        K[:3, :3] = R
        assert in_K(K) is orthogonal and membership(K, CaseLabel.ARISTOTLE) is orthogonal
        if orthogonal:
            assert np.array_equal(k_element(R, 1), K)
        else:
            with pytest.raises(ValueError, match="R must be orthogonal$"):
                k_element(R, 1)


def test_k_element_refuses_entries_whose_gram_matrix_overflows_without_a_warning():
    # R^T R of these passes the float range (inf, or inf - inf = NaN); warnings are errors here
    for R in (np.full((2, 2), 1e200), np.array([[1e200, -1e200], [1e200, 1e200]]),
              np.full((2, 2), 1e100)):
        with pytest.raises(ValueError, match="R must be orthogonal$"):
            k_element(R, 1)


def test_an_unknown_case_is_refused():
    # The case is a CaseLabel, not its name.
    with pytest.raises(ValueError, match="unknown case 'lorentz'"):
        membership(np.eye(3), "lorentz", 1.0)
    with pytest.raises(ValueError, match="unknown case 'galilei'"):
        random_element("galilei")


def test_cartan_decompose_refuses_sigma_that_is_not_finite_and_positive():
    for sigma in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="needs a finite sigma > 0"):
            cartan_decompose(np.eye(3), sigma)


def test_p_generator_finite():
    Z = p_generator(np.array([1.0, 2.0]), 3.0)
    expected = np.zeros((3, 3))
    expected[:2, 2] = [1.0, 2.0]
    expected[2, :2] = [3.0, 6.0]
    np.testing.assert_array_equal(Z, expected)


def test_p_generator_carroll():
    Z = p_generator(np.array([1.0, 2.0]), math.inf)
    expected = np.zeros((3, 3))
    expected[2, :2] = [1.0, 2.0]
    np.testing.assert_array_equal(Z, expected)


def test_p_generator_rejects_empty():
    with pytest.raises(ValueError):
        p_generator(np.zeros(0), 1.0)
    # a (2, 2) array is a stack of two vectors, one generator per row
    np.testing.assert_array_equal(p_generator(np.eye(2), 1.0),
                                  [p_generator([1.0, 0.0], 1.0), p_generator([0.0, 1.0], 1.0)])


def test_p_generator_refuses_a_row_past_the_float_range():
    # sigma * b overflowing is refused with no warning (warnings fail the tests)
    for b, sigma in (([2.0, 0.0], 1.7e308), ([2.0, 0.0], -1.7e308),
                     ([[0.5, 0.0], [0.0, -1e10]], 1e300)):
        with pytest.raises(ValueError, match=r"sigma \* b passes the float range"):
            p_generator(b, sigma)
    Z = p_generator([1.0, -1.0], -1.7e308)  # the largest row that fits
    np.testing.assert_array_equal(Z[2, :2], [-1.7e308, 1.7e308])
    np.testing.assert_array_equal(p_generator([1e300, 0.0], 1e-300)[2, :2], [1.0, 0.0])


def test_galilei_generator_keeps_a_positive_zero_row():
    # 0.0 * b would write -0.0 under each negative entry; the shear boost
    # I + p_generator(b, 0) keeps the +0.0 row the boost always had.
    Z = p_generator([-1.0, 2.0, -3.0], 0.0)
    assert not np.signbit(Z[3]).any()
    assert not np.signbit(boost_closed_form([[-1.0, 2.0, -3.0]], 0.0)[0, 3]).any()


def test_boost_of_zero_vector():
    for sigma in ALL_SIGMAS:
        np.testing.assert_array_equal(boost_closed_form(np.zeros(3), sigma),
                                      np.eye(4))


def test_non_finite_boost_vectors_are_refused():
    for bad in (math.nan, math.inf, -math.inf):
        for sigma in ALL_SIGMAS:
            with pytest.raises(ValueError, match="finite"):
                p_generator([bad, 1.0], sigma)
            with pytest.raises(ValueError, match="finite"):
                boost_closed_form([[0.0, 0.0], [bad, 0.0]], sigma)


def test_boost_overflow_names_the_rapidity():
    with pytest.raises(ValueError, match="rapidity"):
        boost_closed_form(np.array([1e4, 0.0]), 1.0)
    assert np.isfinite(boost_closed_form(np.array([700.0, 0.0]), 1.0)).all()


def test_boost_overflow_is_judged_on_sinh_times_the_time_unit():
    # The mixing entries are sinh(w) sqrt(sigma) and sinh(w) / sqrt(sigma),
    # which leave the float range before cosh(w) does when sigma is far
    # from 1: every entry is finite below the limit and refused above it.
    for sigma in (1e-300, 1e-12, 1.0, 1e12, 1e300):
        root = math.sqrt(sigma)
        limit = math.log(sys.float_info.max / max(root, 1.0 / root))
        for w in (0.999 * limit, limit):
            a = boost_closed_form(np.array([w / root, 0.0, 0.0]), sigma)
            assert np.isfinite(a).all(), (sigma, w)
        with pytest.raises(ValueError, match="rapidity"):
            boost_closed_form(np.array([1.001 * limit / root, 0.0, 0.0]), sigma)
    for sigma, w in ((1e-12, 700.0), (1e12, 700.0), (1e-300, 400.0), (1e300, 400.0)):
        with pytest.raises(ValueError, match="overflows"):
            boost_closed_form(np.array([0.0, w / math.sqrt(sigma)]), sigma)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boost_whose_rapidity_product_overflows_is_refused_without_a_warning():
    # |b| sqrt(sigma) is past the float range itself: the range check must not
    # form it, or an overflow warning comes before the documented error.
    for rows in ([1e300, 0.0], [[0.1, 0.0], [1e300, 1e300]]):
        with pytest.raises(ValueError, match="rapidity inf overflows"):
            boost_closed_form(rows, 1e300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boost_whose_angle_overflows_is_refused_without_a_warning():
    # sigma < 0: cos(w) and sin(w) of an infinite angle w = |b| sqrt(-sigma) would be NaN.
    # The angle is refused past half the float range, before the product is formed.
    for rows, sigma in (([1e300, 0.0], -1e300), ([[0.1, 0.0], [1e300, 1e300]], -1e300),
                        ([1e308, 0.0], -4.0)):
        with pytest.raises(ValueError, match="rapidity .* overflows cos or sin"):
            boost_closed_form(rows, sigma)
    for rows, sigma in (([8e307, 0.0], -1.0), ([1e308, 0.0], -0.25), ([1e200, 0.0], -1e-300)):
        assert np.isfinite(boost_closed_form(rows, sigma)).all()


def test_boost_of_a_vector_longer_than_the_float_max_is_refused_without_a_warning():
    # |b| itself passes the float range: the rapidity is judged on each row over a
    # power of two, before |b| is formed.
    for sigma in (0.25, -0.25):
        with pytest.raises(ValueError, match="rapidity .* overflows"):
            boost_closed_form([1.5e308, 1.5e308], sigma)


def test_boost_of_a_vector_whose_square_underflows():
    # |b|^2 = 1e-600 is below the float range, the rapidity 1e-150 is not: the
    # boost is not the identity, and its last row is (sinh(w) sqrt(sigma), cosh(w)).
    a = boost_closed_form([1e-300, 0.0, 0.0], 1e300)
    np.testing.assert_array_equal(a[3], [1.0, 0.0, 0.0, 1.0])
    assert a[0, 3] == 1e-300 and a[0, 0] == 1.0
    rows = np.array([[0.0, 3e-300, 4e-300], [3e-150, -1e-150, 2e-150]])  # a normal |b|^2 beside
    stack = boost_closed_form(rows, 1e300)
    assert stack[0, 3].tolist() == pytest.approx([0.0, 3.0, 4.0, 1.0], rel=1e-15)
    assert stack[1].tobytes() == boost_closed_form(rows[1], 1e300).tobytes()


def test_boost_commutes_with_the_time_unit_across_the_float_range():
    # D B(b, sigma) D^-1 = B(b / 2^j, 4^j sigma) bit for bit, D = diag(1, ..., 1, 2^j),
    # wherever 4^j sigma is a normal float: |b| is read on each row over a power of
    # two, so neither a square past the float max nor one below its normal range is
    # formed.  Rapidities 1e-3 to 20; n = 2 and 3.
    rng = np.random.default_rng(34)
    steps = sorted(set(range(-540, 541, 45)) | {-540, -520, -510, -500, 500, 510, 520, 540})
    for sigma in (1.0, -1.0, 3.7, -0.01, 1e300, -1e300, 1e-300, -1e-300):
        for n in (2, 3):
            for w in (1e-3, 0.5, 20.0):
                u = rng.standard_normal(n)
                b = w * u / np.linalg.norm(u) / math.sqrt(abs(sigma))
                a = boost_closed_form(b, sigma)
                for j in steps:
                    if not -1021 <= math.frexp(sigma)[1] + 2 * j <= 1024:
                        continue  # 4^j sigma is not a normal float
                    got = boost_closed_form(np.ldexp(b, -j), math.ldexp(sigma, 2 * j))
                    assert got.tobytes() == rescaled(a, j).tobytes(), (sigma, n, w, j)


def test_boost_of_a_stack_is_the_boost_of_each_row():
    rng = np.random.default_rng(31)
    for sigma in ALL_SIGMAS:
        for n in (2, 3, 10):
            rows = rng.standard_normal((6, n)) * rng.uniform(0.0, 3.0, (6, 1))
            stack = boost_closed_form(rows, sigma)
            assert stack.shape == (6, n + 1, n + 1)
            deep = boost_closed_form(rows.reshape(2, 3, n), sigma)
            assert deep.shape == (2, 3, n + 1, n + 1)
            for i, b in enumerate(rows):
                np.testing.assert_array_equal(stack[i], boost_closed_form(b, sigma))
                np.testing.assert_array_equal(deep[i // 3, i % 3], stack[i])


def test_boost_of_a_zero_row_in_a_stack_is_the_identity():
    rows = np.array([[0.4, -0.3, 0.1], [0.0, 0.0, 0.0], [-2.0, 0.5, 1.0]])
    for sigma in ALL_SIGMAS:
        np.testing.assert_array_equal(boost_closed_form(rows, sigma)[1], np.eye(4))


def test_boost_overflow_anywhere_in_a_stack_is_an_error():
    for where in range(3):
        rows = np.full((3, 2), 0.1)
        rows[where, 0] = 1e4
        with pytest.raises(ValueError, match="rapidity"):
            boost_closed_form(rows, 1.0)
    with pytest.raises(ValueError):
        boost_closed_form(np.zeros((3, 0)), 1.0)


def test_boost_of_a_vector_whose_square_overflows():
    # |b|^2 is past the float range and the rapidity is not: the row is
    # scaled, not refused, and ordinary rows beside it keep their bits.
    root = math.sqrt(1e-310)
    w = 2e154 * root
    a = boost_closed_form([2e154, 0.0], 1e-310)
    assert a[0, 0] == a[2, 2] == pytest.approx(math.cosh(w), rel=1e-15)
    assert a[0, 2] == pytest.approx(math.sinh(w) / root, rel=1e-15)
    assert a[2, 0] == pytest.approx(math.sinh(w) * root, rel=1e-15)
    rows = np.array([[2e154, 0.0], [0.3, -0.1]])
    np.testing.assert_array_equal(boost_closed_form(rows, 1e-310)[0], a)
    assert boost_closed_form(rows, 1e-310)[1].tobytes() == boost_closed_form(
        rows[1], 1e-310).tobytes()
    # sigma < 0: a rotation by the angle 1e50, finite and metric preserving
    a = boost_closed_form([1e200, 0.0], -1e-300)
    assert np.isfinite(a).all()
    gram = np.diag([1e-300, 1e-300, 1.0])
    assert op_norm(a.T @ gram @ a - gram) <= 1e-12
    assert membership(a, CaseLabel.ORTHOGONAL, -1e-300)


def test_boost_matches_series_exponential():
    # dual route: the closed form against the generic matrix exponential
    rng = np.random.default_rng(30)
    for n in (2, 3):
        for sigma in ALL_SIGMAS:
            cap = 5.0 if abs(sigma) <= 1.0 or sigma == math.inf else 2.5
            for norm in (0.1, 1.0, cap):
                u = rng.standard_normal(n)
                b = u / np.linalg.norm(u) * norm
                closed = boost_closed_form(b, sigma)
                series = mat_exp(p_generator(b, sigma))
                assert op_norm(closed - series) <= 1e-10


def test_boost_shear_regimes_are_affine_exact():
    b = np.array([0.7, -0.2])
    for sigma in (0.0, math.inf):
        np.testing.assert_array_equal(boost_closed_form(b, sigma),
                                      np.eye(3) + p_generator(b, sigma))


def test_boost_wraps_to_spatial_reflection():
    # norm pi at sigma = -1: time reverses and the boost axis flips
    got = boost_closed_form(np.array([math.pi, 0.0]), -1.0)
    np.testing.assert_allclose(got, np.diag([-1.0, 1.0, -1.0]), atol=1e-15)
    assert in_K(got)
    # and along a random axis u at n = 3, C = 2: a reflection through the plane normal to u
    u = np.random.default_rng(43).standard_normal(3)
    u /= np.linalg.norm(u)
    C = 2.0
    got = boost_closed_form(math.pi * C * u, -1.0 / C**2)
    A = got[:3, :3]
    assert got[3, 3] == pytest.approx(-1.0, abs=1e-12)
    assert np.linalg.det(A) == pytest.approx(-1.0, abs=1e-10)
    np.testing.assert_allclose(A @ u, -u, atol=1e-10)
    w = np.array([u[1], -u[0], 0.0])
    w -= (w @ u) * u
    np.testing.assert_allclose(A @ w, w, atol=1e-10)


def test_boost_period_is_two_pi():
    got = boost_closed_form(np.array([0.0, 2.0 * math.pi]), -1.0)
    np.testing.assert_allclose(got, np.eye(3), atol=1e-15)


def test_boost_quarter_period():
    got = boost_closed_form(np.array([math.pi / 2.0, 0.0]), -1.0)
    assert got[2, 2] == pytest.approx(0.0, abs=1e-15)
    assert got[0, 2] == pytest.approx(1.0)
    assert got[2, 0] == pytest.approx(-1.0)


def test_boost_rotation_scale_sets_the_period():
    sigma = -0.25
    b = 2.0 * math.pi / math.sqrt(-sigma) * np.array([1.0, 0.0])
    np.testing.assert_allclose(boost_closed_form(b, sigma), np.eye(3), atol=1e-14)


def test_in_K_accepts_block_rotations():
    assert in_K(np.eye(4))
    assert in_K(k_element(rotation(1.2), 1))
    assert in_K(k_element(rotation(-0.4), -1))


def test_in_K_rejects_boosts_and_shears():
    assert not in_K(boost_closed_form(np.array([0.5, 0.0]), 1.0))
    M = np.eye(3)
    M[0, 1] = 1e-6
    assert not in_K(M)
    assert in_K(M, tol=1e-3)


def test_in_K_matches_double_isometry_characterization():
    # oracle: fixed points of both daggers are exactly the block rotations
    rng = np.random.default_rng(31)
    sigma = 1.7
    samples = [
        k_element(random_orthogonal(2, rng), -1),
        k_element(random_orthogonal(2, rng), 1),
        boost_closed_form(np.array([0.8, 0.1]), sigma),
        np.eye(3) + 0.3 * np.eye(3),
    ]
    for a in samples:
        both = (op_norm(dagger(a, sigma) @ a - np.eye(3)) <= 1e-9
                and op_norm(dagger(a, -sigma) @ a - np.eye(3)) <= 1e-9)
        assert in_K(a) == both


def test_in_normalizer_scalar_multiples():
    ok, lam = in_normalizer(2.0 * np.eye(3), 1.0)
    assert ok and lam == pytest.approx(4.0, abs=1e-12)
    a = 3.0 * boost_closed_form(np.array([0.3, -0.1]), -1.0)
    ok, lam = in_normalizer(a, -1.0)
    assert ok and lam == pytest.approx(9.0, abs=1e-10)


def test_in_normalizer_group_members():
    rng = np.random.default_rng(32)
    a = k_element(random_orthogonal(2, rng), -1) @ boost_closed_form(
        np.array([0.9, 0.4]), 0.5)
    ok, lam = in_normalizer(a, 0.5)
    assert ok and lam == pytest.approx(1.0, abs=1e-10)


def test_in_normalizer_rejects_shears():
    a = np.eye(3)
    a[0, 1] = 0.5
    ok, lam = in_normalizer(a, 1.0)
    assert not ok
    assert isinstance(lam, float)


def test_in_normalizer_validation():
    assert in_normalizer(np.zeros((3, 3)), 1.0) == (False, 0.0)
    for sigma in (0.0, math.inf):
        with pytest.raises(ValueError, match="^in_normalizer needs a finite nonzero sigma"):
            in_normalizer(np.eye(3), sigma)


def test_cartan_of_scaled_identity():
    f = cartan_decompose(2.0 * np.eye(3), 1.0)
    assert f.lam == pytest.approx(4.0, abs=1e-12)
    np.testing.assert_allclose(f.k, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(f.Z, np.zeros((3, 3)), atol=1e-12)


def test_cartan_round_trip_recovers_factors():
    rng = np.random.default_rng(33)
    for n in (2, 3):
        for sigma in (1.0, 0.5, 2.0):
            for _ in range(10):
                lam = rng.uniform(0.1, 10.0)
                k = k_element(random_orthogonal(n, rng),
                              1 if rng.random() < 0.5 else -1)
                b = rng.standard_normal(n)
                b *= rng.uniform(0.0, 2.0) / np.linalg.norm(b)
                Z = p_generator(b, sigma)
                a = math.sqrt(lam) * k @ mat_exp(Z)
                f = cartan_decompose(a, sigma)
                assert f.lam == pytest.approx(lam, rel=1e-10)
                assert op_norm(f.k - k) <= 1e-9
                assert op_norm(f.Z - Z) <= 1e-9
                assert op_norm(f.reconstruct() - a) <= 1e-9 * (1.0 + op_norm(a))


def test_cartan_factor_shapes():
    # k lands in the rotation block and Z in the boost space
    sigma = 0.5
    a = k_element(rotation(0.7), -1) @ boost_closed_form(np.array([1.1, -0.3]),
                                                         sigma)
    f = cartan_decompose(a, sigma)
    assert in_K(f.k)
    assert op_norm(f.Z[:2, :2]) <= 1e-12
    assert abs(f.Z[2, 2]) <= 1e-12
    np.testing.assert_allclose(f.Z[2, :2], sigma * f.Z[:2, 2], atol=1e-12)


def test_cartan_is_deterministic():
    a = 1.3 * k_element(rotation(0.2), 1) @ boost_closed_form(
        np.array([0.4, 0.5]), 1.0)
    f1 = cartan_decompose(a, 1.0)
    f2 = cartan_decompose(a, 1.0)
    assert f1.lam == f2.lam
    np.testing.assert_array_equal(f1.k, f2.k)
    np.testing.assert_array_equal(f1.Z, f2.Z)


def test_cartan_rejects_non_members():
    a = np.eye(3)
    a[0, 1] = 0.5
    with pytest.raises(NotInNormalizer):
        cartan_decompose(a, 1.0)


def test_cartan_validation():
    with pytest.raises(ValueError):
        cartan_decompose(np.eye(3), -1.0)
    with pytest.raises(ValueError):
        cartan_decompose(np.eye(3), 0.0)
    with pytest.raises(NonPositiveLambda):
        cartan_decompose(np.zeros((3, 3)), 1.0)


def test_cartan_factors_lose_accuracy_only_like_cond(monkeypatch):
    # Members sqrt(lam) k B(b) up to rapidity 6: the closed-form factors
    # stay within 8 eps cond(a) of the constructed ones, where a logarithm
    # of a^dagger a would lose accuracy like cond(a)^2.
    def boom(*args, **kwargs):
        raise AssertionError("the Cartan factors must not take an exponential")

    monkeypatch.setattr(matcore, "mat_exp", boom)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(41)
    for n in (2, 3, 10):
        for sigma in (0.25, 1.0, 4.0):
            for _ in range(30):
                lam = 10.0 ** rng.uniform(-1.0, 1.0)
                k = k_element(random_orthogonal(n, rng),
                              1 if rng.random() < 0.5 else -1)
                u = rng.standard_normal(n)
                b = u / np.linalg.norm(u) * rng.uniform(0.0, 6.0) / math.sqrt(sigma)
                Z = p_generator(b, sigma)
                a = math.sqrt(lam) * k @ boost_closed_form(b, sigma)
                f = cartan_decompose(a, sigma)
                bound = 8.0 * eps * np.linalg.cond(a)
                assert op_norm(f.k - k) <= bound
                assert op_norm(f.Z - Z) <= bound * (1.0 + op_norm(Z))
                assert abs(f.lam - lam) <= bound * lam


def test_cartan_factors_reconstruct():
    f = CartanFactors(lam=4.0, k=np.eye(3), Z=np.zeros((3, 3)))
    np.testing.assert_allclose(f.reconstruct(), 2.0 * np.eye(3), atol=1e-15)


def test_shape_verdicts_past_the_square_range_stay_silent():
    # Squaring entries past about 1e154 overflows; the verdicts are still
    # given, without a warning (which the test settings turn into errors).
    galilei = random_element(CaseLabel.GALILEI, 0.0, 3, 1.0, seed=1)
    free_b = galilei.copy()
    free_b[:3, 3] = (1e200, 0.0, 0.0)
    assert membership(free_b, CaseLabel.GALILEI)
    carroll = random_element(CaseLabel.CARROLL, None, 3, 1.0, seed=1)
    carroll[3, :3] = (1e200, 0.0, 0.0)
    assert membership(carroll, CaseLabel.CARROLL)
    assert not membership(2.0 ** 600 * galilei, CaseLabel.GALILEI)
    assert not in_K(2.0 ** 600 * np.eye(4))
    # the relative test still bites, and the spatial block is still judged
    tied = free_b.copy()
    tied[3, :3] = (1e200, 0.0, 0.0)
    squeezed = free_b.copy()
    squeezed[:3, :3] *= 0.5
    stack = np.stack([free_b, tied, squeezed, 2.0 ** 600 * galilei, galilei])
    assert membership(stack, CaseLabel.GALILEI).tolist() == [True, False, False, False, True]
    assert in_K(np.stack([np.eye(4), 2.0 ** 600 * np.eye(4)])).tolist() == [True, False]
    # From 1e77 up, the squares of the entries of A^T A would pass the float max.
    for scale in (1e77, 1e100, 1e150):
        assert not in_K(np.full((3, 3), scale))
    spread = np.logspace(77.0, 150.0, 9).reshape(3, 3)  # entries from 1e77 to 1e150
    for case in (CaseLabel.GALILEI, CaseLabel.CARROLL, CaseLabel.ARISTOTLE):
        member = random_element(case, None, 3, 1.0, seed=2)
        for block in (spread, 1e77 * member[:3, :3], 1e100 * member[:3, :3],
                      1e150 * member[:3, :3]):
            a = member.copy()
            a[:3, :3] = block
            assert not membership(a, case)
            assert membership(np.stack([member, a]), case).tolist() == [True, False]


def test_membership_of_constructed_members():
    rng = np.random.default_rng(34)
    cases = [
        (CaseLabel.LORENTZ, 1.0),
        (CaseLabel.GALILEI, None),
        (CaseLabel.ORTHOGONAL, -1.0),
        (CaseLabel.CARROLL, None),
        (CaseLabel.ARISTOTLE, None),
    ]
    for n in (2, 3):
        for case, sigma in cases:
            k = k_element(random_orthogonal(n, rng), -1)
            if case is CaseLabel.ARISTOTLE:
                a = k
            else:
                s = sigma if sigma is not None else (
                    0.0 if case is CaseLabel.GALILEI else math.inf)
                a = k @ boost_closed_form(0.7 * rng.standard_normal(n), s)
            assert membership(a, case, sigma)
            assert membership(np.linalg.inv(a), case, sigma)
            assert membership(a @ a, case, sigma)


@pytest.mark.parametrize("case, sigma", [
    (CaseLabel.LORENTZ, 1.0), (CaseLabel.ORTHOGONAL, -1.0), (CaseLabel.GALILEI, None),
    (CaseLabel.CARROLL, None), (CaseLabel.ARISTOTLE, None)])
def test_verdicts_are_python_bools(case, sigma):
    # a numpy comparison on a matrix entry gives np.True_, which fails "is True"
    a = random_element(case, sigma, 3, 1.0, seed=41)
    off_corner = a.copy()
    off_corner[3, 3] *= 2.0
    assert membership(a, case, sigma) is True
    assert membership(off_corner, case, sigma) is False
    verdicts = [in_K(a), in_K(off_corner), in_K(k_element(np.eye(3), -1))]
    if sigma is not None:
        verdicts += [in_normalizer(a, sigma)[0], in_normalizer(off_corner, sigma)[0]]
    assert all(type(v) is bool for v in verdicts)


def test_membership_scaled_member_fails():
    a = 1.001 * boost_closed_form(np.array([0.4, 0.0]), 1.0)
    assert not membership(a, CaseLabel.LORENTZ, 1.0)


def test_membership_cross_case_rejections():
    lorentz_boost = boost_closed_form(np.array([0.8, 0.0]), 1.0)
    galilei_boost = boost_closed_form(np.array([0.8, 0.0]), 0.0)
    carroll_boost = boost_closed_form(np.array([0.8, 0.0]), math.inf)
    assert not membership(lorentz_boost, CaseLabel.GALILEI)
    assert not membership(lorentz_boost, CaseLabel.CARROLL)
    assert not membership(lorentz_boost, CaseLabel.ARISTOTLE)
    assert not membership(galilei_boost, CaseLabel.LORENTZ, 1.0)
    assert not membership(galilei_boost, CaseLabel.CARROLL)
    assert not membership(carroll_boost, CaseLabel.GALILEI)
    assert not membership(galilei_boost, CaseLabel.ORTHOGONAL, -1.0)


def test_membership_singular_matrix_is_rejected():
    assert not membership(np.zeros((3, 3)), CaseLabel.LORENTZ, 1.0)


def test_membership_pairing_validation():
    a = np.eye(3)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.LORENTZ)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.LORENTZ, -1.0)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.ORTHOGONAL, 1.0)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.ORTHOGONAL)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.GALILEI, 1.0)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.CARROLL, 2.0)
    with pytest.raises(ValueError):
        membership(a, CaseLabel.ARISTOTLE, 1.0)
    # tolerant spellings of the implied sigma are fine
    assert membership(a, CaseLabel.GALILEI, 0.0)
    assert membership(a, CaseLabel.CARROLL, math.inf)


def test_membership_accepts_plain_floats_for_sigma():
    a = boost_closed_form(np.array([0.2, 0.1]), 0.5)
    assert membership(a, CaseLabel.LORENTZ, 0.5)
    assert membership(a, CaseLabel.LORENTZ, np.float64(0.5))


def bump_largest(a, rel):
    """Copy of a with its largest entry (in modulus) changed by rel relative."""
    out = a.copy()
    out[np.unravel_index(np.argmax(np.abs(a)), a.shape)] *= 1.0 + rel
    return out


def lorentz_members(max_rapidity, count=6):
    """Random Lorentz members with rapidity up to max_rapidity."""
    for n in (2, 3, 10):
        for sigma in (0.25, 1.0, 4.0):
            for seed in range(count):
                bound = max_rapidity / math.sqrt(sigma)
                yield random_element(CaseLabel.LORENTZ, sigma, n, bound, seed), sigma


def test_lorentz_membership_needs_no_logarithm_or_exponential(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("Lorentz membership must not take a log or exp")

    monkeypatch.setattr(matcore, "mat_exp", boom)
    for g, sigma in lorentz_members(3.0):
        assert membership(g, CaseLabel.LORENTZ, sigma)
        assert not membership(bump_largest(g, 1e-6), CaseLabel.LORENTZ, sigma)


def test_lorentz_membership_matches_the_cartan_definition():
    def by_cartan(a, sigma):
        try:
            lam = cartan_decompose(a, sigma).lam
        except (NotInNormalizer, NonPositiveLambda, LogarithmFailure):
            return False
        return abs(lam - 1.0) <= 1e-9

    for g, sigma in lorentz_members(5.0):
        assert by_cartan(g, sigma)
        for a in (g, bump_largest(g, 1e-6), 1.001 * g):
            assert membership(a, CaseLabel.LORENTZ, sigma) == by_cartan(a, sigma)


@pytest.mark.parametrize("case, sigmas", [
    (CaseLabel.LORENTZ, (0.25, 1.0, 4.0)),
    (CaseLabel.ORTHOGONAL, (-0.25, -1.0, -4.0)),
])
def test_membership_frobenius_scale_still_rejects_small_perturbations(case, sigmas):
    # The Frobenius scale can loosen a threshold by at most sqrt(n + 1) < 10
    # for n <= 10, so a change of 10 tol relative must still be rejected.
    for n in (2, 3, 10):
        for sigma in sigmas:
            for seed in range(6):
                bound = 3.0 / math.sqrt(abs(sigma))
                g = random_element(case, sigma, n, bound, seed)
                assert membership(g, case, sigma)
                assert not membership(bump_largest(g, 1e-8), case, sigma)


ENVELOPE_SIGMAS = (0.25, 1.0, 4.0, -0.25, -1.0, -4.0)


def envelope_members(max_rapidity=30.0, max_angle_norm=5.0, min_rapidity=0.0):
    """(case, sigma, w, member) for n = 2, 3, 10 and sigma = +-0.25, +-1,
    +-4: a random block rotation times a boost of rapidity w from
    min_rapidity to max_rapidity (sigma > 0), or of norm up to
    max_angle_norm and angle w (sigma < 0)."""
    rng = np.random.default_rng(53)
    for n in (2, 3, 10):
        for sigma in ENVELOPE_SIGMAS:
            case = CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL
            lo, hi = ((min_rapidity, max_rapidity) if sigma > 0
                      else (0.0, max_angle_norm * math.sqrt(-sigma)))
            for w in np.linspace(lo, hi, 7):
                k = k_element(random_orthogonal(n, rng), 1 if rng.random() < 0.5 else -1)
                u = rng.standard_normal(n)
                b = u / np.linalg.norm(u) * w / math.sqrt(abs(sigma))
                yield case, sigma, float(w), k @ boost_closed_form(b, sigma)


def test_membership_envelope_ends_at_rapidity_7():
    for case, sigma, _, g in envelope_members(max_rapidity=7.0):
        assert membership(g, case, sigma)
    # Just beyond, the trace of some members still lands within tol of 1,
    # but it cannot resolve lam to tol, so every member is refused.
    for case, sigma, w, g in envelope_members(min_rapidity=7.5, max_rapidity=9.0):
        assert sigma < 0 or not membership(g, case, sigma), (sigma, w)


def test_refusals_up_to_rapidity_30():
    # Beyond rapidity about 7 the trace cannot resolve lam to tol, and
    # beyond about 16 a^dagger a is lost in rounding: both are refused, so
    # no scaled or bumped copy passes anywhere in the range.
    for case, sigma, w, g in envelope_members():
        for factor in (0.5, 1.0 + 1e-6, 2.0):
            assert not membership(factor * g, case, sigma), (sigma, w, factor)
        for rel in (1e-8, 1e-6):
            assert not membership(bump_largest(g, rel), case, sigma)
            assert not in_normalizer(bump_largest(g, rel), sigma)[0]
        if w >= 17.0:
            assert not membership(g, case, sigma)
            assert not in_normalizer(g, sigma)[0]
            with pytest.raises((NotInNormalizer, NonPositiveLambda)):
                cartan_decompose(g, sigma)


def test_a_rank_one_matrix_with_a_nearly_lightlike_column_is_refused():
    # a^dagger a is tiny next to |a^dagger| |a| here, so a residual bound
    # in |a^dagger| |a| alone would let this singular matrix pass.
    a = np.zeros((3, 3))
    a[0, 2], a[2, 2] = 1.0, 1.0 + 2.0**-34
    lam = in_normalizer(a, 1.0)[1]
    for b in (a, a / math.sqrt(lam)):
        assert not in_normalizer(b, 1.0)[0]
        assert not membership(b, CaseLabel.LORENTZ, 1.0)
        with pytest.raises(NotInNormalizer):
            cartan_decompose(b, 1.0)


def test_in_normalizer_envelope_over_lam_from_1e_minus_8_to_1e8():
    eps = np.finfo(float).eps
    for _, sigma, _, g in envelope_members(max_rapidity=15.0):
        slack = 64 * eps * np.linalg.cond(g)
        for lam in 10.0 ** np.arange(-8.0, 9.0, 2.0):
            ok, got = in_normalizer(math.sqrt(lam) * g, sigma)
            assert ok and abs(got - lam) <= slack * lam, (sigma, lam, got)


def test_in_normalizer_rejects_gaussian_matrices_at_any_scale():
    rng = np.random.default_rng(54)
    for n in (2, 3, 10):
        for sigma in ENVELOPE_SIGMAS:
            case = CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL
            for scale in 10.0 ** np.arange(-8.0, 5.0):
                a = scale * rng.standard_normal((n + 1, n + 1))
                assert not in_normalizer(a, sigma)[0]
                assert not membership(a, case, sigma)


def rescaled(a, j):
    """D a D^-1 with D = diag(1, ..., 1, 2^j), exactly: it maps the group of
    sigma onto the group of 4^j sigma, as a change of the unit of time."""
    out = np.array(a, dtype=float)
    out[-1] *= 2.0 ** j
    out[:, -1] /= 2.0 ** j
    return out


UNIT_EXPONENTS = (1, -1, 5, -5, 20, -20, 40, -40)


def unit_inputs(sigmas, max_rapidity, steps):
    """(case, sigma, a) for members, 2x members and (1 + 1e-6)x members of
    rapidity (or angle) 0.5 to max_rapidity, n = 2, 3 and 10."""
    rng = np.random.default_rng(61)
    for sigma in sigmas:
        case = CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL
        for n in (2, 3, 10):
            for w in np.linspace(0.5, max_rapidity, steps):
                k = k_element(random_orthogonal(n, rng), 1 if rng.random() < 0.5 else -1)
                u = rng.standard_normal(n)
                g = k @ boost_closed_form(u / np.linalg.norm(u) * w / math.sqrt(abs(sigma)), sigma)
                for a in (g, 2.0 * g, (1.0 + 1e-6) * g):
                    yield case, sigma, a


def test_verdicts_do_not_depend_on_the_time_unit():
    for case, sigma, a in unit_inputs((1.0, -1.0, 0.7, -1.3), 8.0, 10):
        verdict = membership(a, case, sigma)
        ok, lam = in_normalizer(a, sigma)
        for j in UNIT_EXPONENTS:
            b, s = rescaled(a, j), 4.0 ** j * sigma
            assert membership(b, case, s) is verdict, (sigma, j)
            ok_b, lam_b = in_normalizer(b, s)
            assert ok_b is ok and lam_b.hex() == lam.hex(), (sigma, j)


def decomposed(a, sigma):
    try:
        return cartan_decompose(a, sigma)
    except (NotInNormalizer, NonPositiveLambda) as exc:
        return type(exc)


def test_cartan_factors_do_not_depend_on_the_time_unit():
    # The same lam and exception in every unit; k is unchanged and Z maps
    # to D Z D^-1, bit for bit.
    for _, sigma, a in unit_inputs((1.0, 0.7), 17.0, 15):
        f = decomposed(a, sigma)
        for j in UNIT_EXPONENTS:
            g = decomposed(rescaled(a, j), 4.0 ** j * sigma)
            if isinstance(f, type) or isinstance(g, type):
                assert g is f, (sigma, j)
                continue
            assert g.lam.hex() == f.lam.hex()
            np.testing.assert_array_equal(g.k, f.k)
            np.testing.assert_array_equal(g.Z, rescaled(f.Z, j))


def test_reconstruct_is_accurate_far_from_sigma_one():
    # The product k exp(Z) is formed in the balanced unit, where k was read,
    # so its error stays within a few eps cond(a) there at every sigma.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(42)
    for sigma in (1e12, 1e-12, 1e100, 1e-100, 1e300, 1e-300):
        for n in (2, 3, 10):
            for _ in range(10):
                lam = 10.0 ** rng.uniform(-1.0, 1.0)
                k = k_element(random_orthogonal(n, rng), 1 if rng.random() < 0.5 else -1)
                u = rng.standard_normal(n)
                b = u / np.linalg.norm(u) * rng.uniform(0.0, 4.0) / math.sqrt(sigma)
                a = math.sqrt(lam) * k @ boost_closed_form(b, sigma)
                error = cartan_decompose(a, sigma).reconstruct() - a
                j = -(math.frexp(sigma)[1] // 2)  # 4^j sigma in [1/2, 2)
                error, a = rescaled(error, j), rescaled(a, j)
                assert op_norm(error) <= 8.0 * eps * np.linalg.cond(a) * op_norm(a), (sigma, n)


def first_refused_rapidity(n, sigma, seed):
    rng = np.random.default_rng(seed)
    k = k_element(random_orthogonal(n, rng), 1 if rng.random() < 0.5 else -1)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    for w in np.arange(0.25, 12.01, 0.25):
        g = k @ boost_closed_form(u * w / math.sqrt(sigma), sigma)
        if not membership(g, CaseLabel.LORENTZ, sigma):
            return w
    return math.inf


def test_lorentz_members_are_refused_from_one_rapidity_at_every_sigma():
    for n in (2, 3, 10):
        for seed in range(2):
            at_one = first_refused_rapidity(n, 1.0, seed)
            assert 7.0 <= at_one <= 8.0
            for e in range(-12, 13):
                assert abs(first_refused_rapidity(n, 10.0 ** e, seed) - at_one) <= 0.25, (n, e)


def test_orthogonal_members_are_accepted_at_sigma_far_from_one():
    rng = np.random.default_rng(62)
    for sigma in (-1e-12, -1e12):
        for n in (2, 3, 10):
            for w in np.linspace(0.0, 2.0 * math.pi, 27):
                k = k_element(random_orthogonal(n, rng), 1 if rng.random() < 0.5 else -1)
                u = rng.standard_normal(n)
                g = k @ boost_closed_form(u / np.linalg.norm(u) * w / math.sqrt(-sigma), sigma)
                assert membership(g, CaseLabel.ORTHOGONAL, sigma), (sigma, n, w)


EXTREME_SIGMAS = (1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324, 1.7e308, -1.7e308)


def test_verdicts_at_the_ends_of_the_float_range():
    # Every warning is an error in this suite, so each verdict below is
    # reached without an overflow or underflow warning.
    for n in (2, 3):
        for case, own in ((CaseLabel.LORENTZ, 1.0), (CaseLabel.ORTHOGONAL, -1.0),
                          (CaseLabel.GALILEI, None), (CaseLabel.CARROLL, None)):
            g = random_element(case, own, n, 1.0, seed=n)
            for sigma in EXTREME_SIGMAS + (1.0, 0.25):
                tested = CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL
                verdict = membership(g, tested, sigma)
                ok = in_normalizer(g, sigma)[0]
                if sigma > 0:
                    assert isinstance(decomposed(g, sigma), CartanFactors) is ok
                # By the contraction of sigma to 0 or infinity, a Carroll
                # member lies within about 1e-150 relative of a member of
                # the group of sigma >= 1e300, and a Galilei member of one
                # of |sigma| <= 1e-300.
                if (case is CaseLabel.CARROLL and sigma >= 1e300
                        or case is CaseLabel.GALILEI and abs(sigma) <= 1e-300):
                    assert verdict and ok, (case, sigma)
                # lam of 2^600 g is beyond the float range: a refusal
                big = 2.0 ** 600 * g
                assert not membership(big, tested, sigma)
                assert not in_normalizer(big, sigma)[0]
                if sigma > 0:
                    assert decomposed(big, sigma) is NotInNormalizer


def test_a_lam_beyond_the_float_range_is_a_refusal():
    for scale, lam in ((1e160, math.inf), (1e-200, 0.0)):
        a = scale * np.eye(3)
        assert in_normalizer(a, 1.0) == (False, lam)
        assert not membership(a, CaseLabel.LORENTZ, 1.0)
        with pytest.raises(NotInNormalizer):
            cartan_decompose(a, 1.0)
    # lam <= 0 in exact terms is NonPositiveLambda in any unit and at any
    # scale: the zero matrix, an anti-member (a^dagger a = -I) at n = 1, and
    # a matrix whose columns are all one lightlike vector (a^dagger a = 0)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    lightlike = 2.0 ** 600 * np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert in_normalizer(lightlike, 1.0) == (False, 0.0)
    for j in (0, 20, -20):
        for a in (swap, np.zeros((3, 3)), lightlike):
            with pytest.raises(NonPositiveLambda):
                cartan_decompose(rescaled(a, j), 4.0 ** j)


def test_random_element_is_deterministic():
    a = random_element(CaseLabel.LORENTZ, 1.0, n=3, boost_bound=2.0, seed=7)
    b = random_element(CaseLabel.LORENTZ, 1.0, n=3, boost_bound=2.0, seed=7)
    np.testing.assert_array_equal(a, b)
    c = random_element(CaseLabel.LORENTZ, 1.0, n=3, boost_bound=2.0, seed=8)
    assert not np.array_equal(a, c)


RANDOM_SPECS = [
    (CaseLabel.LORENTZ, 0.5),
    (CaseLabel.ORTHOGONAL, -2.0),
    (CaseLabel.GALILEI, None),
    (CaseLabel.CARROLL, None),
    (CaseLabel.ARISTOTLE, None),
]


def test_random_element_membership():
    for n in (2, 3):
        for seed in range(5):
            for case, sigma in RANDOM_SPECS:
                a = random_element(case, sigma, n=n, boost_bound=1.5, seed=seed)
                assert membership(a, case, sigma, tol=1e-8)


@pytest.mark.parametrize("case, sigma", RANDOM_SPECS)
def test_an_int_seed_draws_like_its_generator(case, sigma):
    # An int seed S is np.random.default_rng(S), for one member and for a stack.
    for n in (2, 3, 10):
        for seed in (4, 0, 2**70, 2**32 + 5):
            for size in (None, 1, 5):
                drawn = random_element(case, sigma, n, 1.5, seed, size=size)
                assert drawn.shape == (() if size is None else (size,)) + (n + 1, n + 1)
                assert drawn.tobytes() == random_element(
                    case, sigma, n, 1.5, np.random.default_rng(seed), size=size).tobytes()
    assert random_element(case, sigma, 3, 1.5, 0, size=0).shape == (0, 4, 4)


def test_sequence_seeds_are_refused():
    # default_rng would read a sequence as one entropy pool and return one member.
    for seed in ([1, 2, 3], [], range(3), np.array([3]), (4,), 1.5, None):
        for size in (None, 2):
            with pytest.raises(ValueError, match="seed must be an int or a numpy Generator"):
                random_element(CaseLabel.LORENTZ, 0.5, 3, 1.5, seed, size=size)


def test_generator_draws_are_members_of_every_case():
    rng = np.random.default_rng(14)
    for n in (2, 3, 10):
        for case, sigma in RANDOM_SPECS:
            stack = random_element(case, sigma, n, 1.5, rng, size=20)
            assert stack.shape == (20, n + 1, n + 1)
            assert all(membership(a, case, sigma, tol=1e-8) for a in stack)
            assert len({a.tobytes() for a in stack}) == 20


def test_generator_draws_repeat_from_the_same_state():
    one = random_element(CaseLabel.LORENTZ, 0.5, 3, 1.5, np.random.default_rng(3))
    assert one.shape == (4, 4)
    first = random_element(CaseLabel.LORENTZ, 0.5, 3, 1.5, np.random.default_rng(3), size=6)
    again = random_element(CaseLabel.LORENTZ, 0.5, 3, 1.5, np.random.default_rng(3), size=6)
    assert first.tobytes() == again.tobytes()
    rng = np.random.default_rng(3)
    random_element(CaseLabel.LORENTZ, 0.5, 3, 1.5, rng, size=6)
    assert random_element(CaseLabel.LORENTZ, 0.5, 3, 1.5, rng, size=6).tobytes() != first.tobytes()


def one_seed_reference(case, sigma, n, bound, seed):
    """A member drawn seed by seed with math's cosh and sinh, the way
    random_element drew them before it took stacks of seeds."""
    rng = np.random.default_rng(seed)
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if rng.random() < 0.5:
        Q[:, 0] = -Q[:, 0]
    k = np.zeros((n + 1, n + 1))
    k[:n, :n], k[n, n] = Q, (1.0 if rng.random() < 0.5 else -1.0)
    if case is CaseLabel.ARISTOTLE or bound == 0.0:
        return k
    direction = rng.standard_normal(n)
    b = direction / np.linalg.norm(direction) * (bound * rng.random())
    boost = np.eye(n + 1)
    if case is CaseLabel.CARROLL:
        boost[n, :n] = b
    elif case is CaseLabel.GALILEI:
        boost[:n, n] = b
    else:
        beta, root = np.linalg.norm(b), math.sqrt(abs(sigma))
        u, w = b / beta, beta * root
        ch, sh = (math.cosh(w), math.sinh(w)) if sigma > 0 else (math.cos(w), math.sin(w))
        boost[:n, :n] += (ch - 1.0) * np.outer(u, u)
        boost[:n, n] = sh / root * u
        boost[n, :n] = (sh * root if sigma > 0 else -sh * root) * u
        boost[n, n] = ch
    return k @ boost


@pytest.mark.parametrize("case, sigma", RANDOM_SPECS)
def test_random_element_matches_the_one_seed_reference(case, sigma):
    # numpy's cosh and sinh may differ from math's in the last bit or two.
    eps = np.finfo(float).eps
    for n in (2, 3, 10):
        for bound in (0.0, 1.5, 5.0):
            for seed in range(20):
                want = one_seed_reference(case, sigma, n, bound, seed)
                got = random_element(case, sigma, n, bound, seed)
                assert np.abs(got - want).max() <= 8 * eps * np.abs(want).max()


def test_random_element_zero_bound_is_rotational():
    a = random_element(CaseLabel.LORENTZ, 1.0, n=2, boost_bound=0.0, seed=5)
    assert in_K(a)


def test_random_element_validation():
    with pytest.raises(ValueError):
        random_element(CaseLabel.LORENTZ, 1.0, n=1)
    for bound in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="boost_bound"):
            random_element(CaseLabel.LORENTZ, 1.0, boost_bound=bound)
    with pytest.raises(ValueError):
        random_element(CaseLabel.ARISTOTLE, 1.0)


STACK_SIGMAS = tuple(sign * 10.0 ** e for sign in (1.0, -1.0) for e in (-12, -6, 0, 6, 12))


def mixed_stack(n, sigma, rng, count=4):
    """Members of each group at n, the metric one at sigma and of rapidity or
    angle up to 2, then the same scaled by sqrt(lam) with lam from 1e-8 to
    1e8, copies of those with every entry moved by 1e-6 relative, the zero
    matrix and Gaussian non-members: an (m, n+1, n+1) stack."""
    metric = CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL
    seed = int(rng.integers(2**32))
    members = np.concatenate(
        [random_element(metric, sigma, n, 2.0 / math.sqrt(abs(sigma)), seed, size=count)]
        + [random_element(case, None, n, 2.0, seed, size=count)
           for case in (CaseLabel.GALILEI, CaseLabel.CARROLL, CaseLabel.ARISTOTLE)])
    scaled = np.sqrt(10.0 ** rng.uniform(-8.0, 8.0, len(members)))[:, None, None] * members
    moved = scaled * (1.0 + 1e-6 * rng.choice((-1.0, 1.0), scaled.shape))
    return np.concatenate([members, scaled, moved, np.zeros((1, n + 1, n + 1)),
                           rng.standard_normal((count, n + 1, n + 1))])


def same_bits(stacked, singles):
    return np.asarray(stacked).tobytes() == np.array(singles).tobytes()


@pytest.mark.parametrize("n", [2, 3, 10])
def test_a_stack_gets_the_verdicts_of_its_matrices_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for sigma in STACK_SIGMAS:
        stack = mixed_stack(n, sigma, rng)
        ok, lam = in_normalizer(stack, sigma)
        singles = [in_normalizer(a, sigma) for a in stack]
        assert ok.shape == lam.shape == (len(stack),)
        assert ok.tolist() == [one[0] for one in singles]
        assert same_bits(lam, [one[1] for one in singles])
        assert in_K(stack).tolist() == [in_K(a) for a in stack]
        for case, s in ((CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL, sigma),
                        (CaseLabel.GALILEI, None), (CaseLabel.CARROLL, None),
                        (CaseLabel.ARISTOTLE, None)):
            verdicts = membership(stack, case, s)
            assert verdicts.tolist() == [membership(a, case, s) for a in stack], (case, sigma)
            assert verdicts.any() and not verdicts.all()
        if sigma > 0:
            factors = cartan_decompose(stack, sigma)
            assert factors.k.shape == factors.Z.shape == stack.shape
            for i, a in enumerate(stack):
                one = decomposed(a, sigma)
                if isinstance(one, CartanFactors):
                    assert factors.refused[i] is None
                    assert same_bits(factors.lam[i], one.lam)
                    assert same_bits(factors.k[i], one.k)
                    assert same_bits(factors.Z[i], one.Z)
                else:
                    assert factors.refused[i] is one
                    assert not factors.k[i].any() and not factors.Z[i].any()
            assert set(factors.refused.tolist()) == {None, NotInNormalizer, NonPositiveLambda}


def test_a_stack_of_stacks_keeps_its_shape():
    rng = np.random.default_rng(5)
    stack = mixed_stack(3, 1.0, rng, count=3)
    deep = stack.reshape(5, 8, 4, 4)
    ok, lam = in_normalizer(deep, 1.0)
    assert same_bits(lam, in_normalizer(stack, 1.0)[1]) and lam.shape == (5, 8)
    assert same_bits(ok, in_normalizer(stack, 1.0)[0])
    assert same_bits(membership(deep, CaseLabel.LORENTZ, 1.0),
                     membership(stack, CaseLabel.LORENTZ, 1.0))
    factors, flat = cartan_decompose(deep, 1.0), cartan_decompose(stack, 1.0)
    assert factors.refused.shape == (5, 8) and factors.k.shape == deep.shape
    assert same_bits(factors.k.reshape(stack.shape), flat.k)
    assert same_bits(factors.Z.reshape(stack.shape), flat.Z)


def test_a_stack_with_lam_past_the_float_range_matches_its_matrices():
    # 2^600 g and 2^-600 g take lam past the float range: the whole stack is
    # then rescaled by ldexp, which must give each matrix its own answer.
    g = random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, 0, size=4)
    stack = np.concatenate([g, 2.0 ** 600 * g[:2], 2.0 ** -600 * g[2:]])
    ok, lam = in_normalizer(stack, 1.0)
    assert ok.tolist() == [True] * 4 + [False] * 4
    assert same_bits(lam, [in_normalizer(a, 1.0)[1] for a in stack])
    assert lam[4:6].tolist() == [math.inf] * 2 and lam[6:].tolist() == [0.0] * 2
    verdicts = membership(stack, CaseLabel.LORENTZ, 1.0)
    assert verdicts.tolist() == [membership(a, CaseLabel.LORENTZ, 1.0) for a in stack]
    factors = cartan_decompose(stack, 1.0)
    assert factors.refused.tolist() == [None] * 4 + [NotInNormalizer] * 4
    assert same_bits(factors.k[:4], [cartan_decompose(a, 1.0).k for a in g])


# The (case, sigma) pairs of the benchmark's elements workload.
ONE_MATRIX_CASES = [(CaseLabel.LORENTZ, 1.0), (CaseLabel.LORENTZ, 0.25),
                    (CaseLabel.ORTHOGONAL, -1.0), (CaseLabel.ORTHOGONAL, -4.0),
                    (CaseLabel.GALILEI, 0.0), (CaseLabel.CARROLL, math.inf),
                    (CaseLabel.ARISTOTLE, None)]


def one_matrix_answers():
    """Every answer of the one-matrix path, in order: draws, verdicts, lams, Cartan factors,
    affine maps and line speeds, with each refusal as its type and message.  An answer's
    type is part of it (a Python bool is not a numpy bool).  Past the elements workload's
    range, a last draw boosts to rapidity 30, and the scales 2^260, 1e-310 and 1e305 reach
    the scaled branches of the verdicts."""
    def answer(fn, *args):
        try:
            return fn(*args)
        except ValueError as exc:
            return (type(exc).__name__, str(exc))

    rng = np.random.default_rng(36)
    for case, sigma in ONE_MATRIX_CASES:
        unit = 1.0 if sigma is None or sigma in (0.0, math.inf) else math.sqrt(abs(sigma))
        for n in (3, 10):
            for seed, rapidity in [(0, 12.0), (1, 12.0), (2, 12.0), (3, 12.0), (1, 30.0)]:
                g = random_element(case, sigma, n, 0.0 if sigma is None else rapidity / unit, seed)
                bumped = g.copy()
                bumped[0, 0] += 1e-6
                yield g, membership(g, case, sigma), membership(bumped, case, sigma)
                yield membership(2.0 ** 260 * g, case, sigma)
                for lam in [*10.0 ** np.linspace(-3.0, 3.0, 7), 1e-310, 1e305]:
                    a = math.sqrt(lam) * g
                    if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
                        yield answer(in_normalizer, a, sigma)
                    if case is CaseLabel.LORENTZ:
                        got = answer(cartan_decompose, a, sigma)
                        yield (got.lam, got.k, got.Z, got.refused) if isinstance(
                            got, CartanFactors) else got
                gmap = affine.AffineElement(g, rng.standard_normal(n + 1))
                x = affine.Event(rng.standard_normal(n), rng.standard_normal())
                back = affine.inverse(gmap)
                both = affine.compose(gmap, gmap)
                yield affine.act(gmap, x).vector(), back.linear, back.translation
                yield both.linear, both.translation
                u = rng.standard_normal(n)
                speeds = [0.5, 1.0 / math.sqrt(sigma)] if case is CaseLabel.LORENTZ else [0.5]
                for v in speeds:
                    line = affine.transform_worldline(gmap, affine.WorldLine(x, v * u))
                    yield line.origin.vector(), line.direction, answer(line.speed)


def answers_digest(answers) -> str:
    h = hashlib.sha256()
    for item in answers:
        for part in item if isinstance(item, tuple) else (item,):
            if isinstance(part, np.ndarray):
                h.update(repr((part.dtype, part.shape)).encode() + part.tobytes())
            else:
                h.update(f"{type(part).__name__}:{part!r}".encode())
    return h.hexdigest()


def test_one_matrix_answers_keep_their_bytes():
    # Every answer of the one-matrix path is pinned: each bit, each refusal and each type.
    # A change that moves an answer on purpose updates the digest.
    assert answers_digest(one_matrix_answers()) == (
        "93d1730ae64f9c07e4f0a754a85afdde55abefe2b35f1363e6ae180e20d28af1")
