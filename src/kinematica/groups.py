"""Group elements of the five kinematical groups and their factorizations.

Elements are plain (n+1) x (n+1) arrays; boosts and random members also
come as (m, n+1, n+1) stacks, one per row or seed.  The building blocks
are block rotations diag(R, eps) and one-parameter boosts exp of a mixing
generator, for which closed forms exist in every sigma regime, and so does the
polar-style Cartan decomposition a = sqrt(lam) * k * exp(Z) for sigma > 0.
Lorentz and Orthogonal membership is the normalizer test a^dagger a = I;
the remaining cases reduce to block-triangular shape checks.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import matcore
from .classify import DEFAULT_TOL, CaseLabel, SIGMA_INF, Sigma, as_sigma
from .matcore import as_square, op_norm

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

_MAX_RAPIDITY = math.acosh(sys.float_info.max)  # the largest with a finite cosh


class NotInNormalizer(ValueError):
    """The matrix is not a positive multiple of a group element."""


class NonPositiveLambda(ValueError):
    """The scalar part of a^dagger a came out non-positive."""


class LogarithmFailure(ValueError):
    """No longer raised: the Cartan factors take no logarithm.  Kept for callers."""


def k_element(R, eps: int) -> np.ndarray:
    """Block rotation diag(R, eps) with R orthogonal and eps = +1 or -1."""
    R = as_square(R)
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
    identity.  b may be one vector of shape (n,) or a stack of shape
    (..., n); the result has shape (n+1, n+1) or (..., n+1, n+1), and each
    matrix of a stack is the boost of its own row.  Raises ValueError when
    a rapidity |b| sqrt(sigma) is too large for cosh to be represented.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 1 or b.shape[-1] < 1:
        raise ValueError("b must be a nonempty vector or a stack of them")
    s = as_sigma(sigma)
    n = b.shape[-1]
    out = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    flat = out.reshape(b.shape[:-1] + ((n + 1) ** 2,))
    if s.is_infinite or s.value == 0.0:
        flat[..., ::n + 2] = 1.0
        if s.is_infinite:
            out[..., n, :n] = b
        else:
            out[..., :n, n] = b
        return out
    beta = np.sqrt(np.vecdot(b, b))  # np.linalg.norm of one vector, bit for bit
    root = math.sqrt(abs(s.value))
    w = beta * root
    if s.value > 0.0:
        if (w > _MAX_RAPIDITY).any():
            raise ValueError(f"boost rapidity {w.max():.6g} overflows cosh")
        ch, sh, lift = np.cosh(w), np.sinh(w), root
    else:
        ch, sh, lift = np.cos(w), np.sin(w), -root
    # Transposed, the stack axes come last, so the per-row scalars broadcast
    # as they are (plain numpy scalars for one b).  A zero row gives u = 0
    # and so the identity.
    t = out.T
    u = b.T / (beta + (beta == 0.0)).T
    np.multiply((ch - 1.0).T * u[:, None], u[None, :], out=t[:n, :n])
    flat[..., :n * (n + 2):n + 2] += 1.0
    np.multiply((sh / root).T, u, out=t[n, :n])
    np.multiply((sh * lift).T, u, out=t[:n, n])
    t[n, n] = ch.T
    return out


def in_K(a, tol: float = DEFAULT_TOL) -> bool:
    """Whether a is a block rotation: off blocks zero, orthogonal spatial
    block, corner of modulus one, each within tol."""
    a = as_square(a)
    n = a.shape[0] - 1
    return (float(np.linalg.norm(a[:n, n])) <= tol and float(np.linalg.norm(a[n, :n])) <= tol
            and _is_rotation_block(a, tol))


def _is_rotation_block(a: np.ndarray, tol: float) -> bool:
    """Whether the spatial block of a is orthogonal and the corner is +-1, within tol."""
    n = a.shape[0] - 1
    A = a[:n, :n]
    return op_norm(A.T @ A - np.eye(n)) <= tol and abs(abs(float(a[n, n])) - 1.0) <= tol


def _scalar_part(a: np.ndarray, sigma: Sigma) -> tuple[float, float, float]:
    """lam = trace(a^dagger a) / (n+1) for the spacetime metric, the
    residual |a^dagger a - lam I| and the unit eps |a^dagger| |a| (Frobenius
    norms), which grows like cond(a): to first order, rounding moves the
    computed a^dagger a by at most (n+3) units and lam by about 2."""
    n = a.shape[0] - 1
    adj = matcore.dagger(a, sigma.value)
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

    n = a.shape[0] - 1
    tied = a[n, :n] if case is CaseLabel.GALILEI else a[:n, n]  # Carroll frees c
    return (float(np.linalg.norm(tied)) <= tol * (1.0 + op_norm(a))
            and _is_rotation_block(a, tol))


def _haar(M: np.ndarray, flip) -> np.ndarray:
    """Orthonormalize each matrix of the stack M by QR, with the signs that
    make the draw Haar distributed, times flip (+-1) on the first column."""
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[..., 0] *= flip
    return Q * signs[..., None, :]


def random_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an orthogonal matrix: orthonormalize a Gaussian sample, then
    randomize the sign of the determinant."""
    return _haar(rng.standard_normal((n, n)), -1.0 if rng.random() < 0.5 else 1.0)


def random_element(case: CaseLabel, sigma=None, n: int = 2,
                   boost_bound: float = 1.0, seed=0) -> np.ndarray:
    """Deterministic random member of the given group: a random block
    rotation diag(Q, +-1) times a boost of norm at most ``boost_bound``
    (none for Aristotle).

    ``seed`` is an int, giving one (n+1) x (n+1) member, or a sequence of
    m ints, giving an (m, n+1, n+1) stack whose i-th matrix is the member
    for ``seed[i]``, bit for bit.  The same arguments always produce the
    same element.
    """
    if n < 2:
        raise ValueError("need at least two space dimensions")
    if not 0.0 <= boost_bound < math.inf:
        raise ValueError("boost_bound must be finite and nonnegative")
    s = _check_pairing(case, sigma)
    single = isinstance(seed, (int, np.integer))
    seeds = [seed] if single else list(seed)
    stack = () if single else (len(seeds),)
    # Per seed, in the order drawn: the Gaussian sample for Q, the sign of
    # Q's first column, eps, the boost direction and the boost size.  One
    # seed takes the same steps on arrays without the stack axis.
    gauss = np.empty(stack + (n + 1, n))
    draws = np.empty(stack + (3,))
    for one, g, d in zip(seeds, gauss.reshape(-1, n + 1, n), draws.reshape(-1, 3)):
        rng = np.random.default_rng(one)
        rng.standard_normal(out=g[:n])
        d[0] = -1.0 if rng.random() < 0.5 else 1.0
        d[1] = 1.0 if rng.random() < 0.5 else -1.0
        if s is not None:
            rng.standard_normal(out=g[n])
            d[2] = rng.random()
    k = np.zeros(stack + (n + 1, n + 1))
    k[..., :n, :n] = _haar(gauss[..., :n, :], draws[..., 0])
    k[..., n, n] = draws[..., 1]
    if s is None or boost_bound == 0.0:  # Aristotle, or no boost asked for
        return k
    direction = gauss[..., n, :]
    b = (direction / np.sqrt(np.vecdot(direction, direction))[..., None]
         * (boost_bound * draws[..., 2])[..., None])
    return k @ boost_closed_form(b, s)
