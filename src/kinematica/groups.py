"""Group elements of the five kinematical groups and their factorizations.

Elements are plain (n+1) x (n+1) arrays.  The building blocks are block
rotations diag(R, eps) and one-parameter boosts exp of a mixing generator,
for which closed forms exist in every sigma regime, and so does the
polar-style Cartan decomposition a = sqrt(lam) * k * exp(Z) for sigma > 0.
Lorentz and Orthogonal membership is the normalizer test a^dagger a = I;
the remaining cases reduce to block-triangular shape checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .classify import CaseLabel, SIGMA_INF, Sigma, as_sigma
from .matcore import Metric, as_square, block_split, op_norm

__all__ = [
    "CartanFactors",
    "LogarithmFailure",
    "NonPositiveLambda",
    "NotInNormalizer",
    "boost_closed_form",
    "cartan_decompose",
    "in_K",
    "in_normalizer",
    "k_element",
    "membership",
    "p_generator",
    "random_element",
    "random_orthogonal",
]

DEFAULT_TOL = 1e-9


class NotInNormalizer(ValueError):
    """The matrix is not a positive multiple of a group element."""


class NonPositiveLambda(ValueError):
    """The scalar part of a^dagger a came out non-positive."""


class LogarithmFailure(ValueError):
    """No longer raised: the Cartan factors take no logarithm.  Kept for callers."""


def k_element(R, eps: int) -> np.ndarray:
    """Block rotation diag(R, eps) with R orthogonal and eps = +1 or -1."""
    R = np.array(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be a square matrix")
    n = R.shape[0]
    if op_norm(R.T @ R - np.eye(n)) > 1e-10:
        raise ValueError("R must be orthogonal")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = R
    out[n, n] = float(eps)
    return out


def p_generator(b, sigma) -> np.ndarray:
    """Boost generator for the given sigma.

    Finite sigma places b in the last column and sigma * b in the last
    row; infinite sigma (Carroll) places b in the last row only.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("b must be a nonempty vector")
    s = as_sigma(sigma)
    n = b.size
    Z = np.zeros((n + 1, n + 1))
    if s.is_infinite:
        Z[n, :n] = b
    else:
        Z[:n, n] = b
        Z[n, :n] = s.value * b
    return Z


def boost_closed_form(b, sigma) -> np.ndarray:
    """Exponential of the boost generator for b, in closed form.

    sigma > 0 gives the familiar cosh/sinh boost along b, sigma < 0 a
    rotation mixing b with time (periodic in |b|), and sigma = 0 or
    infinity a shear (the generator squares to zero).  b = 0 returns the
    identity.  Raises ValueError when the rapidity |b| sqrt(sigma) is too
    large for cosh to be represented.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("b must be a nonempty vector")
    s = as_sigma(sigma)
    n = b.size
    if s.is_infinite or s.value == 0.0:
        return np.eye(n + 1) + p_generator(b, s)
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.eye(n + 1)
    u = b / beta
    out = np.eye(n + 1)
    uu = np.outer(u, u)
    if s.value > 0.0:
        w = beta * math.sqrt(s.value)
        try:
            ch, sh = math.cosh(w), math.sinh(w)
        except OverflowError:
            raise ValueError(f"boost rapidity {w:.6g} overflows cosh") from None
        out[:n, :n] += (ch - 1.0) * uu
        out[:n, n] = sh / math.sqrt(s.value) * u
        out[n, :n] = sh * math.sqrt(s.value) * u
        out[n, n] = ch
    else:
        theta = beta * math.sqrt(-s.value)
        out[:n, :n] += (math.cos(theta) - 1.0) * uu
        out[:n, n] = math.sin(theta) / math.sqrt(-s.value) * u
        out[n, :n] = -math.sin(theta) * math.sqrt(-s.value) * u
        out[n, n] = math.cos(theta)
    return out


def in_K(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether a is a block rotation: off blocks zero, orthogonal spatial
    block, corner of modulus one, each within tol."""
    a = as_square(a)
    blocks = block_split(a)
    return (float(np.linalg.norm(blocks.b)) <= tol and float(np.linalg.norm(blocks.c)) <= tol
            and _is_rotation_block(blocks, tol))


def _is_rotation_block(blocks, tol: float) -> bool:
    """Whether the spatial block is orthogonal and the corner is +-1, within tol."""
    return (op_norm(blocks.A.T @ blocks.A - np.eye(blocks.n)) <= tol
            and abs(abs(blocks.d) - 1.0) <= tol)


def _scalar_part(a: np.ndarray, sigma: Sigma) -> tuple[float, float, float]:
    """lam = trace(a^dagger a) / (n+1) for the spacetime metric, the
    residual |a^dagger a - lam I| and the unit eps |a^dagger| |a| (Frobenius
    norms), which grows like cond(a): to first order, rounding moves the
    computed a^dagger a by at most (n+3) units and lam by about 2."""
    n = a.shape[0] - 1
    adj = matcore.dagger(a, Metric(sigma.value, n))
    q = adj @ a
    lam = float(np.trace(q)) / (n + 1)
    resid = op_norm(q - lam * np.eye(n + 1))
    return lam, resid, math.ulp(1.0) * op_norm(adj) * op_norm(a)


def in_normalizer(a, sigma, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Test whether a^dagger a is a positive multiple of the identity.

    Returns (ok, lam) with lam the mean diagonal of a^dagger a.  ok requires
    the residual to be at most tol * lam plus the rounding bound of
    a^dagger a, and that bound to be below lam / 4, so the exact a^dagger a
    is within (tol + 1/2) lam of lam * I and a is invertible.  Members
    beyond rapidity about 16 are refused.  Needs a finite nonzero sigma.
    """
    a = as_square(a)
    lam, resid, unit = _scalar_part(a, as_sigma(sigma))
    noise = (a.shape[0] + 2) * unit
    return resid <= tol * lam + noise and lam > 4.0 * noise, lam


@dataclass
class CartanFactors:
    """Factors of a = sqrt(lam) * k * exp(Z) with k a block rotation and Z
    a boost generator."""

    lam: float
    k: np.ndarray
    Z: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return math.sqrt(self.lam) * self.k @ matcore.mat_exp(self.Z)


def cartan_decompose(a, sigma, tol: float = DEFAULT_TOL) -> CartanFactors:
    """Factor a normalizer element as sqrt(lam) * k * exp(Z), sigma > 0.

    lam is read off a^dagger a (spacetime metric).  The boost exp(Z) is
    read off the last row eps * (sinh(w) sqrt(sigma) u, cosh(w)) of
    a / sqrt(lam), and k = a exp(-Z) / sqrt(lam) with the closed-form boost,
    so no logarithm or exponential is taken and the factors lose accuracy
    only like eps * cond(a).  They are unique: a chart for the Lorentz case.

    Raises ValueError unless sigma is finite and positive, NonPositiveLambda
    when a^dagger a is a multiple lam <= 0 of I (the zero matrix), and
    NotInNormalizer whenever else :func:`in_normalizer` refuses a.
    """
    a = as_square(a)
    s = as_sigma(sigma)
    if not (s.is_finite and s.value > 0.0):
        raise ValueError("Cartan decomposition needs sigma > 0")
    n = a.shape[0] - 1
    lam, resid, unit = _scalar_part(a, s)
    noise = (n + 3) * unit
    if resid > tol * abs(lam) + noise or 0.0 < lam <= 4.0 * noise:
        raise NotInNormalizer(f"a^dagger a is not a resolvable multiple of the identity "
                              f"(residual {resid:.3e}, rounding bound {noise:.3e})")
    if lam <= 0.0:
        raise NonPositiveLambda(f"scalar part is not positive: {lam:.3e}")
    a = a / math.sqrt(lam)
    c = a[n, :n]
    root = math.sqrt(s.value)
    beta = float(np.linalg.norm(c))
    step = 0.0 if beta == 0.0 else math.asinh(beta / root) / (root * beta)
    b = math.copysign(step, a[n, n]) * c
    return CartanFactors(lam=lam, k=a @ boost_closed_form(-b, s), Z=p_generator(b, s))


def _check_pairing(case: CaseLabel, sigma) -> Sigma | None:
    """Validate the case/sigma pairing, returning the effective sigma."""
    s = None if sigma is None else as_sigma(sigma)
    if case is CaseLabel.ARISTOTLE:
        if s is not None:
            raise ValueError("the Aristotle case takes no sigma")
        return None
    if case is CaseLabel.LORENTZ:
        if s is None or not (s.is_finite and s.value > 0):
            raise ValueError("the Lorentz case needs a finite sigma > 0")
        return s
    if case is CaseLabel.ORTHOGONAL:
        if s is None or not (s.is_finite and s.value < 0):
            raise ValueError("the Orthogonal case needs a finite sigma < 0")
        return s
    if case is CaseLabel.GALILEI:
        if s is not None and (s.is_infinite or s.value != 0.0):
            raise ValueError("the Galilei case needs sigma = 0")
        return Sigma(0.0)
    if case is CaseLabel.CARROLL:
        if s is not None and s.is_finite:
            raise ValueError("the Carroll case needs an infinite sigma")
        return SIGMA_INF
    raise ValueError(f"unknown case {case!r}")


def membership(a, case: CaseLabel, sigma=None, tol: float = DEFAULT_TOL) -> bool:
    """Whether a belongs to the kinematical group of the given case.

    For Lorentz and Orthogonal the test is a^dagger a = lam * I with the
    residual as in :func:`in_normalizer` and lam = 1 within tol; a whose
    lam rounding, about 2 eps |a^dagger| |a|, exceeds tol is refused, which
    caps the rapidity near 7.5 at sigma = 1 and lower away from it (1.25 at
    sigma = 1e-6 or 1e6).  Galilei and Carroll are block-triangular
    shape tests and Aristotle is :func:`in_K`.
    sigma must match the case; Galilei, Carroll and Aristotle may omit it.
    """
    a = as_square(a)
    s = _check_pairing(case, sigma)

    if case is CaseLabel.ARISTOTLE:
        return in_K(a, tol)

    if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
        lam, resid, unit = _scalar_part(a, s)
        return (resid <= tol * abs(lam) + (a.shape[0] + 2) * unit
                and abs(lam - 1.0) <= tol and 2.0 * unit <= tol)

    blocks = block_split(a)
    tied = blocks.c if case is CaseLabel.GALILEI else blocks.b  # Carroll frees c
    return (float(np.linalg.norm(tied)) <= tol * (1.0 + op_norm(a))
            and _is_rotation_block(blocks, tol))


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an orthogonal matrix: orthonormalize a Gaussian sample, then
    randomize the sign of the determinant."""
    M = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(M)
    Q = Q * np.sign(np.diag(R))
    if rng.random() < 0.5:
        Q = Q.copy()
        Q[:, 0] = -Q[:, 0]
    return Q


def random_element(case: CaseLabel, sigma=None, n: int = 2,
                   boost_bound: float = 1.0, seed: int = 0) -> np.ndarray:
    """Deterministic random member of the given group: a random block
    rotation times a boost of norm at most ``boost_bound``.

    The same arguments always produce the same element.
    """
    if n < 2:
        raise ValueError("need at least two space dimensions")
    if boost_bound < 0:
        raise ValueError("boost_bound must be nonnegative")
    s = _check_pairing(case, sigma)
    rng = np.random.default_rng(seed)
    R = random_orthogonal(n, rng)
    eps = 1 if rng.random() < 0.5 else -1
    k = k_element(R, eps)
    if case is CaseLabel.ARISTOTLE:
        return k
    direction = rng.standard_normal(n)
    norm = float(np.linalg.norm(direction))
    if norm == 0.0 or boost_bound == 0.0:
        return k
    b = direction / norm * (boost_bound * rng.random())
    return k @ boost_closed_form(b, s)
