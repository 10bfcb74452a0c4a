"""Dense kernel for the small real matrices everything else is built from.

All structured objects in this package reduce to plain ``numpy`` arrays of
shape (n+1, n+1): generators and group elements of the ambient general
linear group acting on n space coordinates plus one time coordinate.  This
module validates such matrices and provides commutator brackets, a
matrix exponential (the generic oracle against which the closed-form
boosts and Cartan factors are checked), the adjoint ("dagger") under the
spacetime form of sigma and the Frobenius norm that scales every
tolerance check.  Two exact rules live here alone: scaled divides by the
power of two of the largest entry, and sigma_unit and balance change the
time unit that every sigma-dependent verdict is judged in.  Blocks are
slices: a[:n, :n], a[:n, n], a[n, :n] and a[n, n].  Functions are pure,
except balance, which rescales the array it is given in place.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_square_stack",
    "balance",
    "bracket",
    "dagger",
    "mat_exp",
    "mixing_maxima",
    "op_norm",
    "refuse",
    "scaled",
    "sigma_unit",
    "unit_exponent",
]

# Degree of the Taylor polynomial used after scaling the argument below 1/2.
# The remainder (1/2)**17 / 17! is far below double precision.
_EXP_DEGREE = 16


def as_square_stack(matrices) -> np.ndarray:
    """Return ``matrices`` as a float array of shape (..., d, d), checking
    that its matrices are square, finite and at least 2 x 2.  A float array
    is returned as it is, anything else is copied into one."""
    M = np.asarray(matrices, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    if M.shape[-1] < 2:
        raise ValueError("matrix dimension must be at least 2")
    if np.count_nonzero(np.isfinite(M)) != M.size:  # faster than .all() on small arrays
        raise ValueError("matrix entries must be finite")
    return M


def refuse(failed, message: str) -> None:
    """Raise ValueError(message) if an entry of the failure mask is true, naming the first
    such index of a stack: " at index i", a tuple for more than one stack axis."""
    if np.count_nonzero(failed):  # no 0-d dispatch of any() for one object
        i = tuple(int(k) for k in np.argwhere(failed)[0])  # () for one value
        raise ValueError(message + (f" at index {i[0] if len(i) == 1 else i}" if i else ""))


def op_norm(matrix, axes: int | None = None):
    """Frobenius norm, an upper bound on the spectral norm; scales every tolerance.  With axes
    = 1 or 2, one per vector or matrix of a stack (a float for one).  np.linalg.norm's formula,
    bit for bit, without its dispatch: no overflow while the sum of squares is in float range."""
    r = np.asarray(matrix, dtype=float)
    if axes is None or axes == r.ndim:  # no stack axes: one dot, a Python float
        if r.ndim != 1:
            r = r.ravel("K")
        return math.sqrt(r.dot(r))
    if axes == 2:  # one row per matrix
        r = r.reshape(r.shape[:-2] + (r.shape[-2] * r.shape[-1],))
    return np.sqrt(np.vecdot(r, r))


def scaled(x: np.ndarray, axes=None, shift=None):
    """(x / 2^e, e), e the binary exponent of x's largest entry over axes, per slice (a numpy
    scalar for one; any e for a zero slice).  With int exponents shift that broadcast against
    x, x 2^shift is scaled instead, read off x's exponents: nothing overflows, one rounding."""
    if shift is None:
        e = np.frexp(abs(x).max(axis=axes, keepdims=True))[1]
        return np.ldexp(x, -e), np.squeeze(e, axes)[()]
    mant, exps = np.frexp(x)
    exps = exps + shift
    e = exps.max(axis=axes, keepdims=True, where=mant != 0.0, initial=-4096)
    return np.ldexp(mant, exps - e), np.squeeze(e, axes)[()]


def sigma_unit(sigma: float) -> tuple[int, float]:
    """The balanced time unit of sigma: k, and sigma' = 4^-k sigma in [1/2, 2) (k = 0 for 0
    and inf).  balance(x, k) maps the group of sigma exactly onto that of sigma'."""
    k = math.frexp(sigma)[1] // 2
    return k, math.ldexp(sigma, -2 * k)


def balance(x: np.ndarray, k) -> np.ndarray:
    """Change the time unit of the float (..., n+1, n+1) stack x in place to D x D^-1 and
    return x, D = diag(1, ..., 1, 2^-k).  -k undoes it; an int array k that broadcasts
    against x.shape[:-2] + (1,) moves each matrix by its own k."""
    n = x.shape[-1] - 1
    if isinstance(k, np.ndarray) or k:  # a no-op on strided views costs more than the test
        np.ldexp(x[..., n, :n], -k, out=x[..., n, :n])
        np.ldexp(x[..., :n, n], k, out=x[..., :n, n])
    return x


def mixing_maxima(Z: np.ndarray, axes=None):
    """The largest |entries| of Z[..., :n, n] and Z[..., n, :n] over axes of those slices."""
    n = Z.shape[-1] - 1
    return abs(Z[..., :n, n]).max(axes), abs(Z[..., n, :n]).max(axes)


def unit_exponent(b, c):
    """balance's k that levels the mixing entries, one for each largest last column entry
    |b| and last row entry |c|: |c| / |b| goes into [1/4, 2), and k = 0 if either is zero."""
    return (np.frexp(c)[1] - np.frexp(b)[1] + 1) // 2 * (np.minimum(b, c) > 0.0)


def bracket(X, Y) -> np.ndarray:
    """Commutator [X, Y] = XY - YX, of two matrices or of each pair of two (..., d, d) stacks
    of one shape; no overflow while op_norm(X) op_norm(Y) is below half the float max."""
    X = as_square_stack(X)
    Y = as_square_stack(Y)
    if X.shape != Y.shape:
        raise ValueError("bracket arguments must have the same shape")
    return X @ Y - Y @ X


def mat_exp(Z) -> np.ndarray:
    """Matrix exponential by scaling and squaring, of one matrix or of each
    matrix of an (..., d, d) stack.

    The argument is halved until its Frobenius norm (an upper bound on the spectral
    norm) is at most 1/2, a fixed-degree Taylor polynomial is evaluated by Horner's
    rule, and the result is squared back up: near machine precision here, each matrix
    by its own count.  Raises ValueError, with no warning and naming the first such
    matrix of a stack, where the result (diag(800, 0, 0)) or the squared norm (a norm
    past 1.3e154) passes the float range.
    """
    Z = as_square_stack(Z)
    d = Z.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past the range: refused
        wide = (norms := op_norm(Z, 2)) == math.inf
        squarings = np.ceil(np.log2(np.where(wide, 0.5, np.maximum(norms, 0.5)) / 0.5)).astype(int)
        X = np.ldexp(Z, -squarings[..., None, None])  # Z / 2^squarings, bit for bit
        E = np.eye(d)
        for k in range(_EXP_DEGREE, 0, -1):
            E = np.eye(d) + (X @ E) / k
        flat, counts = E.reshape(-1, d, d), squarings.reshape(-1)  # views of E and squarings
        for i in range(counts.max(initial=0)):
            more = counts > i
            flat[more] = flat[more] @ flat[more]
    refuse(wide | (np.count_nonzero(np.isfinite(E), axis=(-2, -1)) != d * d),
           "matrix exponential passes the float range")
    return E


def dagger(Z, sigma: float) -> np.ndarray:
    """Adjoint of the (n+1) x (n+1) matrix Z, or of each matrix of an (..., n+1, n+1) stack,
    under the spacetime form diag(-sigma, ..., -sigma, 1): gram^-1 Z^T gram.

    On blocks this sends (A, b, c, d) to (A^T, -c/sigma, -sigma*b, d): Z^T with its last
    column divided by -sigma and its last row multiplied by -sigma, so the spatial block is an
    exact transpose, with no overflow while sigma*b and c/sigma are in the float range.  The
    form of -sigma is the companion of sigma, under which the boost generators of sigma are
    self-adjoint.  It is an involution and reverses products.  Raises ValueError unless sigma
    is finite and nonzero.
    """
    if not math.isfinite(sigma) or sigma == 0.0:
        raise ValueError("dagger needs a finite nonzero sigma")
    adj = as_square_stack(np.array(Z, dtype=float)).mT  # a view of a fresh copy, scaled in place
    column, row = adj[..., :-1, -1], adj[..., -1, :-1]
    np.divide(column, -sigma, out=column)
    np.multiply(row, -sigma, out=row)
    return adj
