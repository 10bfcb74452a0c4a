"""Group elements of the five kinematical groups and their factorizations.

Elements are plain (n+1) x (n+1) arrays; boosts, random members and verdicts
also come as (..., n+1, n+1) stacks, one per row, draw or matrix.  The building
blocks are block rotations diag(R, eps) and one-parameter boosts exp(Z) of a mixing
generator, one closed form I + S Z + C2 Z^2 at every sigma, and so is the polar-style
Cartan decomposition a = sqrt(lam) * k * exp(Z) for sigma > 0.
Lorentz and Orthogonal membership is the normalizer test a^dagger a = I;
the remaining cases reduce to block-triangular shape checks.  A sigma array, one
per matrix or row, broadcasts to the stack axes: each row is judged as alone.
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import matcore
from .classify import DEFAULT_TOL, CaseLabel, _check_tol, case_of_sigma
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
_QUIET = contextlib.nullcontext()  # in place of an errstate block where nothing can overflow


class NotInNormalizer(ValueError):
    """The matrix is not a positive multiple of a group element."""


class NonPositiveLambda(ValueError):
    """a^dagger a is a multiple lam of I that is zero, or negative by at least four times its
    rounding bound: the normalizer's gate on a positive lam, mirrored."""


class LogarithmFailure(ValueError):
    """No longer raised: the Cartan factors take no logarithm.  Kept for callers."""


def k_element(R, eps) -> np.ndarray:
    """K = diag(R, eps), or a stack of them for (..., n, n) R and (...) eps that broadcast;
    K Z K^T conjugates a generator Z by it.  Each R must be orthogonal within DEFAULT_TOL,
    as in in_K, and each eps +1 or -1; ValueError names the first entry of a stack that is not."""
    R = as_square_stack(R)
    eps = np.asarray(eps)
    n = R.shape[-1]
    K = np.zeros(np.broadcast_shapes(R.shape[:-2], eps.shape) + (n + 1, n + 1))
    K[..., :n, :n] = R
    K[..., n, n] = 1.0  # R is judged first, by in_K's rule
    matcore.refuse(~_shape_test(K, CaseLabel.ARISTOTLE, DEFAULT_TOL), "R must be orthogonal")
    matcore.refuse((eps != 1) & (eps != -1), "eps must be +1 or -1")
    K[..., n, n] = eps
    return K


def _mixing(sigma) -> tuple[float, float]:  # last column and row of a unit b's generator
    return (1.0, sigma) if matcore._finite_sigma(sigma) else (0.0, 1.0)


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
    n = b.shape[-1]
    Z = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    column, row = matcore._each(_mixing, sigma, b.shape[:-1], (0.0, 0.0))
    if isinstance(row, np.ndarray) or abs(row) > 1.0:  # else sigma * b cannot overflow
        column, row = matcore._widened(column), matcore._widened(row)  # one per row of b
        with np.errstate(over="ignore"):
            matcore.refuse(np.isinf(row * b).any(-1), "sigma * b passes the float range")
    np.multiply(b, column, out=Z[..., :n, n], where=column != 0.0)  # a zero factor leaves
    np.multiply(b, row, out=Z[..., n, :n], where=row != 0.0)  # +0.0, not 0.0 * b, maybe -0.0
    return Z


def _boost_terms(sigma) -> tuple:
    """k, a unit b's weights in sigma's unit, sqrt(|z|) and 2 sgn(z) of z = column row, and the
    largest rapidity: w is finite for sin, and cosh(w), sinh(w) sigma^+-1/2 < e^w for z > 0."""
    k, unit = matcore.sigma_unit(sigma)
    column, row = _mixing(unit)
    limit = (math.log(sys.float_info.max / max(r := math.sqrt(sigma), 1.0 / r))
             if (z := column * row) > 0.0 else sys.float_info.max / 2.0)
    return k, column, row, math.sqrt(abs(z)), math.copysign(2.0, z), limit


def boost_closed_form(b, sigma) -> np.ndarray:
    """exp(Z) of the boost generator Z = p_generator(b, sigma), one formula at every sigma.

    Z^3 = z Z with z = sigma |b|^2, so exp(Z) = I + S Z + C2 Z^2, Z^2 = z diag(u u^T, 1) and
    u = b / |b|: S = sinh(w) / w and C2 z = cosh(w) - 1 for z > 0, sin(w) / w and cos(w) - 1
    for z < 0, w = sqrt(|z|), formed from w and u in sigma's balanced unit.  The Galilei and
    Carroll generators square to zero: z = 0 gives the shear I + Z, exact.  Within 2 eps
    max(1, w) of a 50-digit reference (tests/test_oracle.py).  b is one vector (n,) or a stack
    (..., n), one boost per row.  Raises ValueError for an entry of b that is not finite, or a
    rapidity w = |b| sqrt(|sigma|) past log(float max / max(sqrt(sigma), 1 / sqrt(sigma)))
    (cosh(w), sinh(w) sigma^+-1/2 could overflow), or past half the float max (sigma < 0).
    """
    b = np.ascontiguousarray(b, dtype=float)  # |b| sums each row in one order, strided or not
    if b.ndim < 1 or b.shape[-1] < 1:
        raise ValueError("b must be a nonempty vector or a stack of them")
    # Z in sigma's balanced unit: b' = b 2^k
    k, column, row, root, sign, limit = matcore._each(_boost_terms, sigma, b.shape[:-1],
                                                      (0,) + (0.0,) * 5)
    wide = np.count_nonzero(abs(b) < _WIDE) != b.size  # else no |b|^2 overflows
    if wide and np.count_nonzero(np.isfinite(b)) != b.size:  # faster than .all() when small
        raise ValueError("b must have finite entries")
    # also where |b|^2 may have lost bits to underflow
    wide = wide or np.count_nonzero((square := np.vecdot(b, b)) < 2.0 ** -1000) > 0
    x, e = matcore.scaled(b, -1) if wide else (b, 0)  # |b| = |x| 2^e, exact if wide
    beta = np.sqrt(np.vecdot(x, x) if wide else square)  # np.linalg.norm's bits if not wide
    lorentz = sign * root > 0.0  # z > 0: sinh, else sin, each only where it is used
    if isinstance(lorentz, np.ndarray) and (m := np.count_nonzero(lorentz)) in (0, lorentz.size):
        lorentz = m > 0  # one function for every row
    f = np.sinh if lorentz is True else np.sin if lorentz is False else lambda x: np.sinh(
        x, out=np.sin(x, out=np.empty(x.shape), where=~lorentz), where=lorentz)
    with np.errstate(over="ignore") if wide else _QUIET:  # |b| or w past the float max: refused
        w = np.ldexp(beta * root, e + k)  # |b| sqrt(|sigma|), in either unit
        past = (w > limit) | ((root != 0.0) & np.isinf(np.ldexp(beta, e))) if wide else w > limit
        if past.any() if past.ndim else past:  # any() of a numpy scalar is slow, hence ndim
            shown, lorentz, limit = (x.ravel() for x in np.broadcast_arrays(  # |b| sqrt(|sigma|)
                np.where(past, np.ldexp(beta, e) * np.ldexp(root, k), -1.0), lorentz, limit))
            i = shown.argmax()  # the fastest row refused, inf if its |b| is
            raise ValueError(f"boost rapidity {shown[i]:.6g} overflows "
                             f"{'cosh or sinh' if lorentz[i] else 'cos or sin'}: > {limit[i]:.4g}")
    s = (f(w) + (w == 0.0)) / (w + (w == 0.0))  # S, 1 at w = 0
    c = sign * f(0.5 * w) ** 2  # C2 z: cosh(w) - 1, or cos(w) - 1
    # The stack axes come last in t, so the per-row scalars broadcast as they are.
    n, k = b.shape[-1], matcore._widened(k)
    t = (out := np.empty(b.shape[:-1] + (n + 1, n + 1))).T
    u = x.T / (beta + (beta == 0.0)).T  # a zero row gives u = 0 and the identity
    np.multiply((u * c.T)[:, None], u, out=t[:n, :n])  # C2 Z^2
    t[n, n] = c.T
    b_balanced = np.ldexp(b, k).T
    np.multiply((s * column).T, b_balanced, out=t[n, :n])  # S Z
    np.multiply((s * row).T, b_balanced, out=t[:n, n])
    out += np.eye(n + 1)  # I; each zero becomes +0.0, as in I + Z
    return matcore.balance(out, -k)


def _verdict(ok):  # a Python bool for one matrix, a bool array for a stack
    return ok if ok.ndim else bool(ok)


def in_K(a, tol: float = DEFAULT_TOL):
    """Whether a is a block rotation: off blocks zero, orthogonal spatial block, corner of
    modulus one, each within tol.  The Aristotle case of :func:`membership`."""
    return membership(a, CaseLabel.ARISTOTLE, None, tol)


def _shape_test(a: np.ndarray, case: CaseLabel, tol: float):
    """Whether the spatial block is orthogonal and the corner +-1, within tol, and the off
    blocks zero (Aristotle), within tol, or the one the case ties (Galilei, Carroll), within
    tol (1 + |a|).

    Nothing is squared that could overflow.  A spatial block with an entry past 2^250 is
    no rotation (|A^T A - I| > 2^499) and is not formed: below it, neither a Gram entry of
    A^T A nor its square passes the float range.  A matrix with an entry past 2^500 has
    its off blocks judged on matcore.scaled(a), against the bounds scaled alike: exact."""
    _check_tol(tol)
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


def _metric_test(a: np.ndarray, sigma, tol: float):
    """(ok, resolved, lam, u), of a's stack shape, for a^dagger a = lam I, lam = trace / (n+1),
    tested on a in sigma's balanced time unit (matcore.sigma_unit).  u = eps |a^dagger| |a|
    grows like cond(a).  ok: |a^dagger a - lam I| <= tol |lam| + (n+3) u, lam zero or
    normal.  resolved: ok and lam > 4 (n+3) u, the normalizer's gate."""
    _check_tol(tol)
    n = a.shape[-1] - 1
    k, unit = matcore.sigma_unit(sigma)
    shift = None
    if np.count_nonzero(k) if isinstance(k, np.ndarray) else k:  # balance(a, k) = D a D^-1, D =
        shift = np.zeros(np.shape(k) + (n + 1, n + 1), dtype=int)  # diag(2^t), t = (0, .., -k):
        shift[..., :n, n], shift[..., n, :n] = (k := matcore._widened(k)), -k  # t_i - t_j at i, j
    # b, balanced a / 2^top, has its largest entry in [1/2, 1): nothing overflows.  adj^T, b
    # and q = adj b - lam I share one buffer, whose three norms one op_norm call takes.
    work = np.empty((3,) + a.shape)
    adj_t, b, q = work[0], work[1], work[2]
    top = matcore.scaled(a, (-2, -1), shift, out=b)[1]
    adj_t[...] = matcore.dagger(b, unit).mT
    np.matmul(adj_t.mT, b, out=q)
    flat = work.reshape(work.shape[:-2] + ((n + 1) ** 2,))  # one row per matrix
    diagonal = flat[2, ..., ::n + 2].T  # stack axes last: lam broadcasts as it is
    lam = np.add.reduce(diagonal, 0).T / (n + 1)
    diagonal -= lam.T
    norms = op_norm(flat, 1)
    u = math.ulp(1.0) * norms[0] * norms[1]
    ok = norms[2] <= tol * abs(lam) + (n + 3) * u
    zero = lam == 0.0
    big = top > 500  # only there can lam <= 2 (n+1) or u pass the float range, to inf (refused)
    with np.errstate(over="ignore") if (big.any() if big.ndim else big) else _QUIET:
        lam, u = np.ldexp(lam, 2 * top), np.ldexp(u, 2 * top)
    ok &= zero | ((abs(lam) >= sys.float_info.min) & (abs(lam) < math.inf))
    return ok, ok & (lam * (0.25 / (n + 3)) > u), lam, u


def in_normalizer(a, sigma, tol: float = DEFAULT_TOL):
    """Test whether a^dagger a is a positive multiple of the identity.

    Returns (ok, lam) with lam the mean diagonal of a^dagger a.  ok requires the residual to be
    at most tol * lam plus the rounding bound of a^dagger a, and that bound to be below lam / 4,
    so the exact a^dagger a is within (tol + 1/2) lam of lam * I and a is invertible, all in
    the balanced time unit.  Members beyond rapidity about 16 are refused, and so is a lam
    beyond the float range.  Raises ValueError unless sigma is finite and nonzero.
    """
    a = as_square_stack(a)
    matcore._each(lambda s: () if case_of_sigma(s) in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL)
                  else matcore._refused("in_normalizer needs a finite nonzero sigma"), sigma,
                  a.shape[:-2])
    _, resolved, lam, _ = _metric_test(a, sigma, tol)
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
        ValueError for a negative or NaN lam that is not refused."""
        Z = np.array(self.Z, dtype=float)
        k = matcore.unit_exponent(*matcore.mixing_maxima(Z, -1))[..., None]
        matcore.balance(Z, k)
        lam = np.where(np.equal(self.refused, None), self.lam, 0.0)
        if not np.all(lam >= 0.0):  # NaN too
            raise ValueError("lam must be nonnegative")
        return matcore.balance(np.sqrt(lam)[..., None, None] * self.k @ matcore.mat_exp(Z), -k)


def cartan_decompose(a, sigma, tol: float = DEFAULT_TOL) -> CartanFactors:
    """Factor a normalizer element as sqrt(lam) * k * exp(Z), sigma > 0.

    lam is read off a^dagger a (spacetime metric).  The boost exp(Z) is read off the last row
    eps * (sinh(w) sqrt(sigma) u, cosh(w)) of a / sqrt(lam), and k = a exp(-Z) / sqrt(lam) with
    the closed-form boost, so no logarithm or exponential is taken and the factors lose
    accuracy only like eps * cond(a).  They are unique: a chart for the Lorentz case.

    Raises ValueError unless sigma is finite and positive, NonPositiveLambda when a^dagger a is
    a multiple lam of I, zero or negative beyond four rounding bounds (the zero matrix, or an
    anti-member at n = 1), and NotInNormalizer whenever else :func:`in_normalizer` refuses a,
    a lam that rounding leaves negative included.  A stack raises neither (see ``refused``).
    """
    a = as_square_stack(a)
    matcore._each(lambda s: () if case_of_sigma(s) is CaseLabel.LORENTZ else matcore._refused(
        "Cartan decomposition needs a finite sigma > 0"), sigma, a.shape[:-2])
    n = a.shape[-1] - 1
    ok, factored, lam, u = _metric_test(a, sigma, tol)  # factored: nothing below overflows
    nonpositive = (lam == 0.0) | (lam * (0.25 / (n + 3)) <= -u)  # as resolved: no overflow
    status = np.subtract(ok & nonpositive, factored, dtype=np.intp)  # -1: factored
    if status.ndim == 0 and status >= 0:  # one matrix raises
        raise _REFUSALS[status](f"a^dagger a is not a resolvable positive multiple of I "
                                f"(lam {lam:.3e}, rounding bound {(n + 3) * float(u):.3e})")
    a = np.divide(a, np.sqrt(abs(lam))[..., None, None], out=np.zeros(a.shape),
                  where=factored[..., None, None])  # a refused matrix, and its factors, are 0
    k, balanced_sigma = matcore.sigma_unit(sigma)
    root, k = np.sqrt(balanced_sigma), matcore._widened(k)
    matcore.balance(a, k)  # read in the balanced unit of _metric_test
    beta = op_norm(a[..., n, :n], 1)
    step = np.arcsinh(beta / root) / (root * (beta + (beta == 0.0)))  # 0 for beta = 0
    b = a[..., n, :n] * np.copysign(step, a[..., n, n])[..., None]
    return CartanFactors(lam=lam, k=a @ boost_closed_form(-b, balanced_sigma),
                         Z=p_generator(np.ldexp(b, -k), sigma), refused=_REFUSALS[status])


_REFUSALS = np.array([NotInNormalizer, NonPositiveLambda, None])  # by cartan_decompose status
_NEEDS = {CaseLabel.LORENTZ: "a finite sigma > 0", CaseLabel.ORTHOGONAL: "a finite sigma < 0",
          CaseLabel.GALILEI: "sigma = 0", CaseLabel.CARROLL: "an infinite sigma"}
_OMITTED = {CaseLabel.GALILEI: 0.0, CaseLabel.CARROLL: math.inf}


def _check_pairing(case: CaseLabel, sigma, stack: tuple):
    """Validate the case/sigma pairing, returning the effective sigma: the
    case of sigma (each entry's, of an array that broadcasts to the stack
    axes) must be the given one, Galilei and Carroll may omit it, and
    Aristotle takes none."""
    if case is CaseLabel.ARISTOTLE:
        if sigma is not None:
            raise ValueError("the Aristotle case takes no sigma")
        return None
    if not isinstance(case, CaseLabel):
        raise ValueError(f"unknown case {case!r}")
    if sigma is None and case in _OMITTED:
        return _OMITTED[case]
    if sigma is None or isinstance(sigma, np.ndarray) or case_of_sigma(sigma) is not case:
        needs = f"the {case.value} case needs {_NEEDS[case]}"
        matcore._each(lambda s: () if s is not None and case_of_sigma(s) is case
                      else matcore._refused(needs), sigma, stack)
    return sigma


def membership(a, case: CaseLabel, sigma=None, tol: float = DEFAULT_TOL):
    """Whether a belongs to the kinematical group of the given case.

    For Lorentz and Orthogonal the test is a^dagger a = lam * I as in :func:`in_normalizer`,
    with lam = 1 within tol; a whose lam rounding, about 2 eps |a^dagger| |a|, exceeds tol is
    refused, which caps the rapidity near 7.5 at every sigma.  Galilei and Carroll are
    block-triangular shape tests, Aristotle the block rotations of :func:`in_K`.  sigma must
    match the case; Galilei, Carroll and Aristotle may omit it.
    """
    a = as_square_stack(a)
    s = _check_pairing(case, sigma, a.shape[:-2])

    if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
        ok, _, lam, u = _metric_test(a, s, tol)
        return _verdict(ok & (abs(lam - 1.0) <= tol) & (u <= 0.5 * tol))

    return _verdict(_shape_test(a, case, tol))


def random_element(case: CaseLabel, sigma=None, n: int = 2, boost_bound: float = 1.0,
                   seed=0, size=None) -> np.ndarray:
    """Deterministic random member of the given group: a random block rotation diag(Q, +-1)
    times a boost of norm at most ``boost_bound`` (none for Aristotle).

    ``seed`` is a nonnegative int or a numpy Generator; an int draws through
    ``np.random.default_rng(seed)``, so the same arguments always produce the same members, and
    a Generator is advanced by the draws.  ``size=None`` gives one (n+1) x (n+1) member,
    ``size`` = m an (m, n+1, n+1) stack drawn in whole-array calls.  Any other seed, a sequence
    included, raises ValueError.
    """
    if n < 2:
        raise ValueError("need at least two space dimensions")
    if not 0.0 <= boost_bound < math.inf:
        raise ValueError("boost_bound must be finite and nonnegative")
    s = _check_pairing(case, sigma, ())  # one sigma for the draw
    if not isinstance(seed, (int, np.integer, np.random.Generator)):
        raise ValueError(f"seed must be an int or a numpy Generator, not {type(seed).__name__}")
    rng = np.random.default_rng(seed)
    stack = () if size is None else (size,)
    # Drawn in this order: the Gaussian sample for Q, the sign of Q's first column, eps, and
    # then the boost direction and size, even for bound 0.  Q is orthonormalized by QR with the
    # signs that make the draw Haar distributed (Mezzadri 2007), its first column flipped where
    # a uniform draw is below 1/2, where eps is +1.
    k = np.zeros(stack + (n + 1, n + 1))
    Q, R = np.linalg.qr(rng.standard_normal(stack + (n, n)))
    signs = np.sign(R.diagonal(0, -2, -1))
    signs[..., 0] *= 1.0 - 2.0 * (rng.random(size) < 0.5)
    np.multiply(Q, signs[..., None, :], out=k[..., :n, :n])
    k[..., n, n] = 2.0 * (rng.random(size) < 0.5) - 1.0
    if s is None:  # Aristotle
        return k
    direction = rng.standard_normal(stack + (n,))
    scale = boost_bound * rng.random(size)
    if boost_bound == 0.0:
        return k
    return k @ boost_closed_form((direction.T / op_norm(direction, 1) * scale).T, s)
