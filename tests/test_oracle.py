"""boost_closed_form against a 50-digit reference.

The reference is exp(Z) of the generator of the rounded inputs b and sigma, taken exactly:
in the balanced time unit of sigma (matcore.sigma_unit), b' = b 2^k and z = sigma' |b'|^2,
exp(Z) = I + S Z + (C2 z) diag(u u^T, 1) with S = sinh(w) / w, C2 z = cosh(w) - 1 and
w = sqrt(z) (sin and cos - 1 of sqrt(-z) for z < 0), all in mpmath at 50 digits.  That form
is checked against mpmath.expm where the latter converges.  The error of a boost is its
Frobenius distance from the reference over the reference's norm, both in the balanced unit,
and it is bounded by C eps max(1, w): w is the condition number of cosh(w) and of a rotation
by the angle w.  The shears of sigma = 0 and inf are I + Z, exact.
"""

import math
import sys

import mpmath
import numpy as np
import pytest

from kinematica import matcore
from kinematica.groups import boost_closed_form, p_generator

EPS = sys.float_info.epsilon
# The envelope's constant.  The largest error read over ten draws per sigma, rapidity and
# n = 2 or 3 was 0.89 eps max(1, w), with and without the one-formula boost.
C = 2.0
DRAWS = 4
SIGMAS = (1.0, -1.0, 1e12, -1e12, 1e-12, -1e-12, 1e300, -1e300, 1e-300, -1e-300)


def hyperbolic_limit(sigma: float) -> float:
    """The documented refusal for sigma > 0: log(float max / max(sqrt(sigma), 1 / sqrt(sigma)))."""
    root = math.sqrt(sigma)
    return math.log(sys.float_info.max / max(root, 1.0 / root))


def rapidities(sigma: float) -> list[float]:
    """0.5 up to just below the documented refusal: the hyperbolic limit for sigma > 0, half
    the float max for sigma < 0, or the angle of a |b| of half the float max if smaller."""
    if sigma > 0.0:
        top = hyperbolic_limit(sigma)
        return [0.5, 5.0, 50.0, 0.5 * top, 0.999 * top]
    top = sys.float_info.max / 2.0 * min(1.0, math.sqrt(-sigma))
    return [0.5, 5.0, 50.0, 1e4, 1e100, 0.999 * top]


def generator(b: np.ndarray, sigma: float) -> tuple[mpmath.matrix, list, float, float]:
    """Z of b and sigma in the balanced unit, exactly: b' = b 2^k in the last column and
    sigma' b' in the last row (b' in the last row alone for Carroll); with b', and the
    column and row factors."""
    k, unit = matcore.sigma_unit(sigma)
    column, row = (0.0, 1.0) if sigma == math.inf else (1.0, unit)
    n = len(b)
    with mpmath.workdps(50):
        bb = [mpmath.ldexp(mpmath.mpf(float(v)), k) for v in b]
        Z = mpmath.zeros(n + 1)
        for i in range(n):
            Z[i, n], Z[n, i] = column * bb[i], row * bb[i]
        return Z, bb, column, row


def reference(b: np.ndarray, sigma: float) -> tuple[mpmath.matrix, float]:
    """exp(Z) of the generator of b, sigma in the balanced unit, at 50 digits, and w."""
    Z, bb, column, row = generator(b, sigma)
    n = len(b)
    with mpmath.workdps(50):
        beta2 = mpmath.fsum(v * v for v in bb)
        z = mpmath.mpf(column * row) * beta2
        w = mpmath.sqrt(abs(z))
        if z > 0:
            s, c = mpmath.sinh(w) / w, mpmath.cosh(w) - 1
        elif z < 0:
            s, c = mpmath.sin(w) / w, mpmath.cos(w) - 1
        else:
            s, c = mpmath.mpf(1), mpmath.mpf(0)
        out = mpmath.eye(n + 1) + s * Z
        for i in range(n):
            for j in range(n):
                out[i, j] += c * bb[i] * bb[j] / beta2
        out[n, n] += c
        return out, float(w)


def relative_error(got: np.ndarray, ref: mpmath.matrix) -> float:
    with mpmath.workdps(50):
        size = ref.rows
        gap = mpmath.sqrt(mpmath.fsum((mpmath.mpf(float(got[i, j])) - ref[i, j]) ** 2
                                      for i in range(size) for j in range(size)))
        return float(gap / mpmath.mnorm(ref, "f"))


def draw(rng, n: int, w: float, sigma: float) -> np.ndarray:
    u = rng.standard_normal(n)
    return u / np.linalg.norm(u) * (w / math.sqrt(abs(sigma)))


def test_the_reference_is_the_exponential():
    # The closed form at 50 digits against mpmath's own series exponential, where it converges.
    rng = np.random.default_rng(40)
    for sigma in (1.0, -1.0, 1e12, -1e-12):
        for w in (0.5, 5.0):
            b = draw(rng, 3, w, sigma)
            ref, _ = reference(b, sigma)
            with mpmath.workdps(50):
                gap = mpmath.mnorm(mpmath.expm(generator(b, sigma)[0]) - ref, "f")
                assert gap <= mpmath.mpf(10) ** -40 * mpmath.mnorm(ref, "f")


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_boosts_are_within_c_eps_w_of_the_reference(sigma, n):
    rng = np.random.default_rng([n, SIGMAS.index(sigma)])
    k = matcore.sigma_unit(sigma)[0]
    worst = 0.0
    for w in rapidities(sigma):
        for _ in range(DRAWS):
            b = draw(rng, n, w, sigma)
            got = matcore.balance(boost_closed_form(b, sigma), k)
            ref, exact_w = reference(b, sigma)
            ratio = relative_error(got, ref) / (EPS * max(1.0, exact_w))
            worst = max(worst, ratio)
            assert ratio <= C, (sigma, n, w, ratio)
    assert worst > 0.0  # the draws do reach the rounding


@pytest.mark.parametrize("sigma", [0.0, math.inf])
def test_shears_are_exact(sigma):
    rng = np.random.default_rng(41)
    for n in (2, 3):
        for size in (0.5, 5.0, 1e10, 1e300):
            b = draw(rng, n, size, 1.0)
            got = boost_closed_form(b, sigma)
            assert got.tobytes() == (np.eye(n + 1) + p_generator(b, sigma)).tobytes()
            ref, w = reference(b, sigma)
            assert w == 0.0 and relative_error(got, ref) == 0.0
