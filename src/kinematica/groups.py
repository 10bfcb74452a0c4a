"""Group elements of the five kinematical groups and their factorizations.

Elements are plain (n+1) x (n+1) arrays; boosts, random members and verdicts
also come as (..., n+1, n+1) stacks, one per row, draw or matrix.  The building
blocks are block rotations diag(R, eps) and one-parameter boosts exp of a mixing
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

from . import isotypic, matcore
from .classify import DEFAULT_TOL, CaseLabel, SIGMA_INF, Sigma, as_sigma, case_of_sigma
from .matcore import as_square_stack, op_norm

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
]

# 2^500, 2^250 and 1 as 0-d arrays, which a ufunc takes faster than Python floats.  No entry
# below 2^500 squares, nor does a sum of n of its squares, past the float range; below 2^250
# neither do the entries of an n x n A^T A nor, for n < 64, the sum of their squares.
_WIDE, _GRAM, _ONE = np.array(2.0 ** 500), np.array(2.0 ** 250), np.array(1.0)


class NotInNormalizer(ValueError):
    """The matrix is not a positive multiple of a group element."""


class NonPositiveLambda(ValueError):
    """The scalar part of a^dagger a came out non-positive."""


class LogarithmFailure(ValueError):
    """No longer raised: the Cartan factors take no logarithm.  Kept for callers."""


def k_element(R, eps) -> np.ndarray:
    """Block rotation diag(R, eps) with R orthogonal and eps = +1 or -1, or a stack of them
    for stacks of R and eps that broadcast: :func:`isotypic.block_rotation`."""
    return isotypic.block_rotation(R, eps)


def p_generator(b, sigma) -> np.ndarray:
    """Boost generator for the given sigma.

    Finite sigma places b in the last column and sigma * b in the last
    row; infinite sigma (Carroll) places b in the last row only.  b is one
    vector (n,) or a stack (..., n), one generator per row; it must be
    finite, and so must sigma * b (else ValueError, with no overflow).
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 1 or b.shape[-1] < 1:
        raise ValueError("b must be a nonempty vector or a stack of them")
    if np.count_nonzero(np.isfinite(b)) != b.size:
        raise ValueError("b must have finite entries")
    s = as_sigma(sigma)
    n = b.shape[-1]
    Z = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    if s.is_infinite:
        Z[..., n, :n] = b
    else:
        Z[..., :n, n] = b
        if abs(s.value) > 1.0 and abs(s.value) * float(abs(b).max(initial=0.0)) == math.inf:
            raise ValueError(f"sigma * b passes the float range at sigma = {s.value!r}")
        if s.value != 0.0:  # at sigma = 0 the row stays +0.0, where 0.0 * b may be -0.0
            np.multiply(b, s.value, out=Z[..., n, :n])
    return Z


def boost_closed_form(b, sigma) -> np.ndarray:
    """Exponential of the boost generator for b, in closed form.

    sigma > 0 gives the familiar cosh/sinh boost along b, sigma < 0 a rotation mixing b with
    time (periodic in |b|), and sigma = 0 or infinity a shear (the generator squares to zero).
    b = 0 returns the identity.  b is one vector (n,) or a stack (..., n), one boost per row.
    Raises ValueError when an entry of b is not finite, or a rapidity w = |b| sqrt(|sigma|) is
    so large that cosh(w), sinh(w) sqrt(sigma) or sinh(w) / sqrt(sigma) could overflow: past
    log(float max / max(sqrt(sigma), 1 / sqrt(sigma))), or, for sigma < 0, past half the float
    max.
    """
    s = as_sigma(sigma)
    if s.is_infinite or s.value == 0.0:  # a shear, I + p_generator(b, s)
        out = p_generator(b, s)
        out.reshape(out.shape[:-2] + (out.shape[-1] ** 2,))[..., ::out.shape[-1] + 1] = 1.0
        return out
    b = np.ascontiguousarray(b, dtype=float)  # |b| sums each row in one order, strided or not
    if b.ndim < 1 or b.shape[-1] < 1:
        raise ValueError("b must be a nonempty vector or a stack of them")
    wide = np.count_nonzero(abs(b) < _WIDE) != b.size  # else no |b|^2 overflows
    if wide and np.count_nonzero(np.isfinite(b)) != b.size:  # faster than .all() when small
        raise ValueError("b must have finite entries")
    if not wide:
        beta = np.sqrt(np.vecdot(b, b))  # np.linalg.norm of one vector, bit for bit
        tiny = beta < 2.0 ** -500  # |b|^2 may have lost bits to underflow
        wide = tiny.any() if tiny.ndim else tiny  # any() of a numpy scalar is slow, hence ndim
    if wide:  # |b| read on each row over 2^e, e the exponent of its largest entry: exact
        x, e = matcore.scaled(b, -1)
        with np.errstate(over="ignore"):  # a |b| past the float max reads inf: refused below
            beta = np.ldexp(op_norm(x, 1), e)
    root = math.sqrt(abs(s.value))
    # Below limit, w is finite for cos and sin, and cosh(w), sinh(w) root^+-1 < e^w for sigma > 0
    limit, trig = ((math.log(sys.float_info.max / max(root, 1.0 / root)), "cosh or sinh")
                   if s.value > 0.0 else (sys.float_info.max / 2.0, "cos or sin"))
    big = beta > min(limit / root, sys.float_info.max)  # judged before w = beta * root
    if big.any() if big.ndim else big:
        raise ValueError(f"boost rapidity {float(beta.max()) * root:.6g} overflows {trig}: "
                         f"> {limit:.4g}")
    n = b.shape[-1]
    out = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    flat = out.reshape(b.shape[:-1] + ((n + 1) ** 2,))
    w = beta * root
    ch, sh, lift = ((np.cosh(w), np.sinh(w), root) if s.value > 0.0
                    else (np.cos(w), np.sin(w), -root))
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


def _verdict(ok):
    """A Python bool for one matrix, a bool array for a stack."""
    return ok if ok.ndim else bool(ok)


def in_K(a, tol: float = DEFAULT_TOL):
    """Whether a is a block rotation: off blocks zero, orthogonal spatial
    block, corner of modulus one, each within tol."""
    return _verdict(_shape_test(as_square_stack(a), CaseLabel.ARISTOTLE, tol))


def _shape_test(a: np.ndarray, case: CaseLabel, tol: float):
    """Whether the spatial block is orthogonal and the corner +-1, within tol, and the off
    blocks zero (Aristotle), within tol, or the one the case ties (Galilei, Carroll), within
    tol (1 + |a|).

    Nothing is squared that could overflow.  A spatial block with an entry past 2^250 is
    no rotation (|A^T A - I| > 2^499) and is not formed: below it, neither a Gram entry of
    A^T A nor its square passes the float range.  A matrix with an entry past 2^500 has
    its off blocks judged on matcore.scaled(a), against the bounds scaled alike: exact."""
    n = a.shape[-1] - 1
    x, A, s, fits = a, a[..., :n, :n], 1.0, True
    if np.count_nonzero(abs(a) < _GRAM) != a.size:  # faster than .all() when small
        x, top = matcore.scaled(a, (-2, -1))
        t = top > 500  # only matrices with such an entry are scaled
        x, s = np.where(t[..., None, None], x, a), np.ldexp(1.0, -top * t)  # 1 where not t
        fits = np.count_nonzero(abs(A) < _GRAM, axis=(-2, -1)) == n * n
        A = A * fits[..., None, None]
    gram = (A.mT @ A).reshape(A.shape[:-2] + (n * n,))
    gram[..., ::n + 1] -= _ONE  # A^T A - I
    if case is CaseLabel.ARISTOTLE:
        off = (op_norm(x[..., :n, n], 1) <= tol * s) & (op_norm(x[..., n, :n], 1) <= tol * s)
    else:
        tied = x[..., n, :n] if case is CaseLabel.GALILEI else x[..., :n, n]  # Carroll frees c
        off = op_norm(tied, 1) <= tol * (s + op_norm(x, 2))
    # One matrix gives Python bools up to the corner, a numpy scalar: combined first, faster.
    return off & (op_norm(gram, 1) <= tol) & fits & (abs(abs(a[..., n, n][()]) - 1.0) <= tol)


def _metric_test(a: np.ndarray, s: Sigma, tol: float):
    """(ok, resolved, lam, u), of a's stack shape, for a^dagger a = lam I, lam = trace / (n+1),
    tested on a in sigma's balanced time unit (matcore.sigma_unit).  u = eps |a^dagger| |a|
    grows like cond(a).  ok: |a^dagger a - lam I| <= tol |lam| + (n+3) u, lam zero or
    normal.  resolved: ok and lam > 4 (n+3) u, the normalizer's gate."""
    n = a.shape[-1] - 1
    k, unit = matcore.sigma_unit(s.value)
    t = np.zeros(n + 1, dtype=int)  # matcore.balance(a, k) is D a D^-1, D = diag(2^t): it
    t[n] = -k  # adds t_i - t_j to the binary exponent of entry (i, j)
    # b, balanced a / 2^top, has its largest entry in [1/2, 1): nothing overflows.  adj^T, b
    # and q = adj b - lam I share one buffer, whose three norms one op_norm call takes.
    work = np.empty((3,) + a.shape)
    adj_t, b, q = work[0], work[1], work[2]
    b[...], top = matcore.scaled(a, (-2, -1), t[:, None] - t if k else None)
    np.copyto(adj_t, matcore.dagger(b, unit).mT)
    np.matmul(adj_t.mT, b, out=q)
    flat = work.reshape(work.shape[:-2] + ((n + 1) ** 2,))  # one row per matrix
    diagonal = flat[2, ..., ::n + 2].T  # stack axes last: lam broadcasts as it is
    lam = np.add.reduce(diagonal, 0).T / (n + 1)
    diagonal -= lam.T
    norms = op_norm(flat, 1)
    u = math.ulp(1.0) * norms[0] * norms[1]
    ok = norms[2] <= tol * abs(lam) + (n + 3) * u
    zero = lam == 0.0
    with np.errstate(over="ignore"):  # lam or u may pass the float range, to inf (refused)
        lam, u = np.ldexp(lam, 2 * top), np.ldexp(u, 2 * top)
    ok &= zero | ((abs(lam) >= sys.float_info.min) & (abs(lam) < math.inf))
    return ok, ok & (lam * (0.25 / (n + 3)) > u), lam, u


def in_normalizer(a, sigma, tol: float = DEFAULT_TOL):
    """Test whether a^dagger a is a positive multiple of the identity.

    Returns (ok, lam) with lam the mean diagonal of a^dagger a.  ok requires
    the residual to be at most tol * lam plus the rounding bound of
    a^dagger a, and that bound to be below lam / 4, so the exact a^dagger a
    is within (tol + 1/2) lam of lam * I and a is invertible, all in the
    balanced time unit.  Members beyond rapidity about 16 are refused, and
    so is a lam beyond the float range.  Needs a finite nonzero sigma.
    """
    _, resolved, lam, _ = _metric_test(as_square_stack(a), as_sigma(sigma), tol)
    return _verdict(resolved), lam


@dataclass
class CartanFactors:
    """Factors of a = sqrt(lam) * k * exp(Z), k a block rotation and Z a boost generator, per
    matrix; refused is the error each matrix alone raises, or None (if raised, k = Z = 0)."""

    lam: float | np.ndarray
    k: np.ndarray
    Z: np.ndarray
    refused: type | np.ndarray | None = None

    def reconstruct(self) -> np.ndarray:
        """sqrt(lam) k mat_exp(Z), per matrix, each formed in the time unit that levels its own
        Z (matcore.unit_exponent) and mapped back; a refused matrix rebuilds to zero.  Raises
        ValueError for a negative lam that is not refused."""
        Z = np.array(self.Z, dtype=float)
        k = matcore.unit_exponent(*matcore.mixing_maxima(Z, -1))[..., None]
        matcore.balance(Z, k)
        lam = np.where(np.equal(self.refused, None), self.lam, 0.0)
        if np.any(lam < 0.0):
            raise ValueError("lam must be nonnegative")
        return matcore.balance(np.sqrt(lam)[..., None, None] * self.k @ matcore.mat_exp(Z), -k)


def cartan_decompose(a, sigma, tol: float = DEFAULT_TOL) -> CartanFactors:
    """Factor a normalizer element as sqrt(lam) * k * exp(Z), sigma > 0.

    lam is read off a^dagger a (spacetime metric).  The boost exp(Z) is
    read off the last row eps * (sinh(w) sqrt(sigma) u, cosh(w)) of
    a / sqrt(lam), and k = a exp(-Z) / sqrt(lam) with the closed-form boost,
    so no logarithm or exponential is taken and the factors lose accuracy
    only like eps * cond(a).  They are unique: a chart for the Lorentz case.

    Raises ValueError unless sigma is finite and positive, NonPositiveLambda
    when a^dagger a is a multiple lam <= 0 of I (the zero matrix, or an
    anti-member at n = 1), and NotInNormalizer whenever else
    :func:`in_normalizer` refuses a.  A stack raises neither (see ``refused``).
    """
    s = as_sigma(sigma)
    if not (s.is_finite and s.value > 0.0):
        raise ValueError("Cartan decomposition needs a finite sigma > 0")
    a = as_square_stack(a)
    n = a.shape[-1] - 1
    ok, factored, lam, u = _metric_test(a, s, tol)  # factored: nothing below overflows
    status = np.subtract(ok & (lam <= 0.0), factored, dtype=np.intp)  # -1: factored
    if status.ndim == 0 and status >= 0:  # one matrix raises
        raise _REFUSALS[status](f"a^dagger a is not a resolvable positive multiple of I "
                                f"(lam {lam:.3e}, rounding bound {(n + 3) * float(u):.3e})")
    a = np.divide(a, np.sqrt(abs(lam))[..., None, None], out=np.zeros(a.shape),
                  where=factored[..., None, None])  # a refused matrix, and its factors, are 0
    k, balanced_sigma = matcore.sigma_unit(s.value)
    root = math.sqrt(balanced_sigma)
    matcore.balance(a, k)  # read in the balanced unit of _metric_test
    beta = op_norm(a[..., n, :n], 1)
    step = np.arcsinh(beta / root) / (root * (beta + (beta == 0.0)))  # 0 for beta = 0
    b = a[..., n, :n] * np.copysign(step, a[..., n, n])[..., None]
    return CartanFactors(lam=lam, k=a @ boost_closed_form(-b, balanced_sigma),
                         Z=p_generator(np.ldexp(b, -k), s), refused=_REFUSALS[status])


_REFUSALS = np.array([NotInNormalizer, NonPositiveLambda, None])  # by cartan_decompose status
_NEEDS = {CaseLabel.LORENTZ: "a finite sigma > 0", CaseLabel.ORTHOGONAL: "a finite sigma < 0",
          CaseLabel.GALILEI: "sigma = 0", CaseLabel.CARROLL: "an infinite sigma"}
_OMITTED = {CaseLabel.GALILEI: Sigma(0.0), CaseLabel.CARROLL: SIGMA_INF}


def _check_pairing(case: CaseLabel, sigma) -> Sigma | None:
    """Validate the case/sigma pairing, returning the effective sigma: the
    case of sigma must be the given one, Galilei and Carroll may omit it,
    and Aristotle takes none."""
    s = None if sigma is None else as_sigma(sigma)
    if case is CaseLabel.ARISTOTLE:
        if s is not None:
            raise ValueError("the Aristotle case takes no sigma")
        return None
    if not isinstance(case, CaseLabel):
        raise ValueError(f"unknown case {case!r}")
    if s is None and case in _OMITTED:
        return _OMITTED[case]
    if s is None or case_of_sigma(s) is not case:
        raise ValueError(f"the {case.value} case needs {_NEEDS[case]}")
    return s


def membership(a, case: CaseLabel, sigma=None, tol: float = DEFAULT_TOL):
    """Whether a belongs to the kinematical group of the given case.

    For Lorentz and Orthogonal the test is a^dagger a = lam * I as in
    :func:`in_normalizer`, with lam = 1 within tol; a whose lam rounding,
    about 2 eps |a^dagger| |a|, exceeds tol is refused, which caps the
    rapidity near 7.5 at every sigma.  Galilei and Carroll are
    block-triangular shape tests and Aristotle is :func:`in_K`.
    sigma must match the case; Galilei, Carroll and Aristotle may omit it.
    """
    a = as_square_stack(a)
    s = _check_pairing(case, sigma)

    if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
        ok, _, lam, u = _metric_test(a, s, tol)
        return _verdict(ok & (abs(lam - 1.0) <= tol) & (u <= 0.5 * tol))

    return _verdict(_shape_test(a, case, tol))


def _haar(M: np.ndarray, flip) -> np.ndarray:
    """Orthonormalize each matrix of the stack M by QR, with the signs that
    make the draw Haar distributed, times flip (+-1) on the first column."""
    Q, R = np.linalg.qr(M)
    signs = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    signs[..., 0] *= flip
    return Q * signs[..., None, :]


def random_element(case: CaseLabel, sigma=None, n: int = 2, boost_bound: float = 1.0,
                   seed=0, size=None) -> np.ndarray:
    """Deterministic random member of the given group: a random block
    rotation diag(Q, +-1) times a boost of norm at most ``boost_bound``
    (none for Aristotle).

    ``seed`` is a nonnegative int or a numpy Generator; an int draws through
    ``np.random.default_rng(seed)``, so the same arguments always produce the
    same members, and a Generator is advanced by the draws.  ``size=None``
    gives one (n+1) x (n+1) member, ``size`` = m an (m, n+1, n+1) stack drawn
    in whole-array calls.  Any other seed, a sequence included, raises
    ValueError.
    """
    if n < 2:
        raise ValueError("need at least two space dimensions")
    if not 0.0 <= boost_bound < math.inf:
        raise ValueError("boost_bound must be finite and nonnegative")
    s = _check_pairing(case, sigma)
    if not isinstance(seed, (int, np.integer, np.random.Generator)):
        raise ValueError(f"seed must be an int or a numpy Generator, not {type(seed).__name__}")
    rng = np.random.default_rng(seed)
    stack = () if size is None else (size,)
    # Drawn in this order: the Gaussian sample for Q, the sign of Q's first
    # column, eps, and then the boost direction and size, even for bound 0.
    k = np.zeros(stack + (n + 1, n + 1))
    gauss = rng.standard_normal(stack + (n, n))
    k[..., :n, :n] = _haar(gauss, np.where(rng.random(stack) < 0.5, -1.0, 1.0))
    k[..., n, n] = np.where(rng.random(stack) < 0.5, 1.0, -1.0)
    if s is None:  # Aristotle
        return k
    direction = rng.standard_normal(stack + (n,))
    scale = boost_bound * rng.random(stack)
    if boost_bound == 0.0:
        return k
    b = direction / np.sqrt(np.vecdot(direction, direction))[..., None] * scale[..., None]
    return k @ boost_closed_form(b, s)
