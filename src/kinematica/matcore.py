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
]

# Degree of the Taylor polynomial used after scaling the argument below 1/2.
# The remainder (1/2)**17 / 17! is far below double precision.
_EXP_DEGREE = 16


def as_square_stack(matrices) -> np.ndarray:
    """Return ``matrices`` as a float array of shape (..., d, d), checking
    that its matrices are square, finite and at least 2 x 2.  A list or
    tuple must hold m >= 1 matrices of one shape and gives an (m, d, d)
    stack.  A float array is returned as it is, anything else is copied."""
    sequence = isinstance(matrices, (list, tuple))
    if sequence and not matrices:
        raise ValueError("no matrices given")
    if sequence and len({np.shape(M) for M in matrices}) > 1:
        raise ValueError("matrices must share one dimension")
    M = np.asarray(matrices, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2] or (sequence and M.ndim != 3):
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


def op_norm(matrix) -> float:
    """Frobenius norm, an upper bound on the spectral norm; scales every tolerance.
    It is np.linalg.norm's formula, bit for bit, without its dispatch."""
    r = np.asarray(matrix, dtype=float).ravel("K")
    return math.sqrt(r.dot(r))


def balance(x: np.ndarray, sigma: float | None = None, k: int | None = None) -> int:
    """Change the time unit of x in place to D x D^-1, D = diag(1, ..., 1, 2^-k), and
    return k; D maps the group of sigma exactly onto that of 4^-k sigma.  x is a float
    (..., n+1, n+1) stack, rescaled by ldexp, or the int binary exponents of a matrix,
    shifted.  k is given (-k undoes a balance), or taken from sigma, so that 4^-k sigma
    is in [1/2, 2), or else from the largest entries |b| of the last columns and |c| of
    the last rows, so that |c| / |b| is in [1/4, 2), and k = 0 when either is zero."""
    n = x.shape[-1] - 1
    if k is None and sigma is not None:
        k = math.frexp(sigma)[1] // 2
    elif k is None:
        b, c = float(abs(x[..., :n, n]).max()), float(abs(x[..., n, :n]).max())
        k = (math.frexp(c)[1] - math.frexp(b)[1] + 1) // 2 if b and c else 0
    if k:
        shift = np.ldexp if x.dtype.kind == "f" else np.add  # values or binary exponents
        shift(x[..., n, :n], -k, out=x[..., n, :n])
        shift(x[..., :n, n], k, out=x[..., :n, n])
    return k


def bracket(X, Y) -> np.ndarray:
    """Commutator [X, Y] = XY - YX."""
    X = as_square(X)
    Y = as_square(Y)
    if X.shape != Y.shape:
        raise ValueError("bracket arguments must have the same shape")
    return X @ Y - Y @ X


def mat_exp(Z) -> np.ndarray:
    """Matrix exponential by scaling and squaring.

    The argument is halved until its Frobenius norm (an upper bound on the
    spectral norm) is at most 1/2, a fixed-degree Taylor polynomial is
    evaluated by Horner's rule, and the result is squared back up.  For the
    tiny matrices used here this is accurate to near machine precision.
    """
    Z = as_square(Z)
    d = Z.shape[0]
    norm = op_norm(Z)
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    X = Z / (2.0 ** squarings)
    E = np.eye(d)
    for k in range(_EXP_DEGREE, 0, -1):
        E = np.eye(d) + (X @ E) / k
    for _ in range(squarings):
        E = E @ E
    return E


def dagger(Z, sigma: float) -> np.ndarray:
    """Adjoint of the (n+1) x (n+1) matrix Z under the spacetime form
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
    adj = as_square(Z).T  # a view of a fresh copy, so scaling it in place is safe
    adj[:-1, -1] /= -sigma
    adj[-1, :-1] *= -sigma
    return adj
