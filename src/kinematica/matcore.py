"""Dense kernel for the small real matrices everything else is built from.

All structured objects in this package reduce to plain ``numpy`` arrays of
shape (n+1, n+1): generators and group elements of the ambient general
linear group acting on n space coordinates plus one time coordinate.  This
module validates such matrices and provides commutator brackets, a
matrix exponential (the generic oracle against which the closed-form
boosts and Cartan factors are checked), the adjoint ("dagger") under the
spacetime form of sigma, the Frobenius norm that scales every
tolerance check and the change of time unit that every sigma-dependent
verdict is judged in.  Blocks are read as slices: a[:n, :n], a[:n, n],
a[n, :n] and a[n, n].  Functions are pure and never mutate their inputs,
except balance, which rescales the array it is given in place.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "as_square",
    "as_square_stack",
    "balance",
    "bracket",
    "dagger",
    "mat_exp",
    "op_norm",
    "refuse",
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


def as_square(matrix) -> np.ndarray:
    """Copy ``matrix`` into a float array, checking it is square, finite and
    at least 2 x 2."""
    M = as_square_stack(np.array(matrix, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def refuse(failed, message: str) -> None:
    """Raise ValueError(message) if an entry of the failure mask is true, naming the first
    such index of a stack: " at index i", a tuple for more than one stack axis."""
    failed = np.asarray(failed)
    if failed.any():
        i = tuple(int(k) for k in np.argwhere(failed)[0])  # () for one value
        raise ValueError(message + (f" at index {i[0] if len(i) == 1 else i}" if i else ""))


def op_norm(matrix, axes: int | None = None):
    """Frobenius norm, an upper bound on the spectral norm; scales every tolerance.
    It is np.linalg.norm's formula, bit for bit, without its dispatch; with axes = 1 or 2,
    one per vector or matrix of a stack (a float for one vector or matrix), with the
    same bits."""
    r = np.asarray(matrix, dtype=float)
    if axes is None or axes == r.ndim:  # no stack axes: one dot, a Python float
        if r.ndim != 1:
            r = r.ravel("K")
        return math.sqrt(r.dot(r))
    if axes == 2:  # one row per matrix
        r = r.reshape(r.shape[:-2] + (r.shape[-2] * r.shape[-1],))
    return np.sqrt(np.vecdot(r, r))


def balance(x: np.ndarray, sigma: float | None = None, k: int | None = None) -> int:
    """Change the time unit of x in place to D x D^-1, D = diag(1, ..., 1, 2^-k), and
    return k; D maps the group of sigma exactly onto that of 4^-k sigma.  x is a float
    (..., n+1, n+1) stack, rescaled by ldexp, or the int binary exponents of a matrix,
    shifted.  k is given (-k undoes a balance; an int array broadcasting against x.shape[:-2]
    + (1,) shifts each matrix by its own k; :func:`unit_exponent` levels the mixing entries),
    or else taken from sigma, so that 4^-k sigma is in [1/2, 2)."""
    n = x.shape[-1] - 1
    if k is None:
        k = math.frexp(sigma)[1] // 2
    if isinstance(k, np.ndarray) or k:
        shift = np.ldexp if x.dtype.kind == "f" else np.add  # values or binary exponents
        shift(x[..., n, :n], -k, out=x[..., n, :n])
        shift(x[..., :n, n], k, out=x[..., :n, n])
    return k


def unit_exponent(b, c):
    """balance's k that levels the mixing entries, one for each largest last column entry
    |b| and last row entry |c|: |c| / |b| goes into [1/4, 2), and k = 0 if either is zero."""
    return (np.frexp(c)[1] - np.frexp(b)[1] + 1) // 2 * (np.minimum(b, c) > 0.0)


def bracket(X, Y) -> np.ndarray:
    """Commutator [X, Y] = XY - YX, of two matrices or of each pair of two
    (..., d, d) stacks of one shape."""
    X = as_square_stack(X)
    Y = as_square_stack(Y)
    if X.shape != Y.shape:
        raise ValueError("bracket arguments must have the same shape")
    return X @ Y - Y @ X


def mat_exp(Z) -> np.ndarray:
    """Matrix exponential by scaling and squaring, of one matrix or of each
    matrix of an (..., d, d) stack.

    The argument is halved until its Frobenius norm (an upper bound on the
    spectral norm) is at most 1/2, a fixed-degree Taylor polynomial is
    evaluated by Horner's rule, and the result is squared back up.  For the
    tiny matrices used here this is accurate to near machine precision.
    Each matrix of a stack is halved and squared by its own count, so it
    gets the bits of its one-matrix call.
    """
    Z = as_square_stack(Z)
    d = Z.shape[-1]
    squarings = np.ceil(np.log2(np.maximum(op_norm(Z, 2), 0.5) / 0.5)).astype(int)
    X = Z / (2.0 ** squarings)[..., None, None]
    E = np.eye(d)
    for k in range(_EXP_DEGREE, 0, -1):
        E = np.eye(d) + (X @ E) / k
    flat, counts = E.reshape(-1, d, d), squarings.reshape(-1)  # views of E and squarings
    for i in range(counts.max(initial=0)):
        more = counts > i
        flat[more] = flat[more] @ flat[more]
    return E


def dagger(Z, sigma: float) -> np.ndarray:
    """Adjoint of the (n+1) x (n+1) matrix Z, or of each matrix of an
    (..., n+1, n+1) stack, under the spacetime form
    diag(-sigma, ..., -sigma, 1): gram^-1 Z^T gram.

    On blocks this sends (A, b, c, d) to (A^T, -c/sigma, -sigma*b, d): Z^T
    with its last column divided by -sigma and its last row multiplied by
    -sigma, so the spatial block is an exact transpose.  The form of -sigma
    is the companion of sigma, under which the boost generators of sigma
    are self-adjoint.  It is an involution and reverses products.  Raises
    ValueError unless sigma is finite and nonzero.
    """
    if not math.isfinite(sigma) or sigma == 0.0:
        raise ValueError("dagger needs a finite nonzero sigma")
    adj = as_square_stack(np.array(Z, dtype=float)).mT  # a view of a fresh copy, scaled in place
    column, row = adj[..., :-1, -1], adj[..., -1, :-1]
    np.divide(column, -sigma, out=column)
    np.multiply(row, -sigma, out=row)
    return adj
