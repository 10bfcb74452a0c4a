"""Dense kernel for the small real matrices everything else is built from.

All structured objects in this package reduce to plain ``numpy`` arrays of
shape (n+1, n+1): generators and group elements of the ambient general
linear group acting on n space coordinates plus one time coordinate.  This
module provides the block view of such matrices, commutator brackets, a
matrix exponential (the generic oracle against which the closed-form
boosts and Cartan factors are checked), metric adjoints ("dagger") and
the Frobenius norm that scales every tolerance check.  Functions are pure
and never mutate their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockForm",
    "Metric",
    "as_square",
    "block_join",
    "block_split",
    "bracket",
    "dagger",
    "mat_exp",
    "op_norm",
]

# Degree of the Taylor polynomial used after scaling the argument below 1/2.
# The remainder (1/2)**17 / 17! is far below double precision.
_EXP_DEGREE = 16


def as_square(matrix) -> np.ndarray:
    """Copy ``matrix`` into a float array, checking it is square, finite and
    at least 2 x 2."""
    M = np.array(matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if M.shape[0] < 2:
        raise ValueError("matrix dimension must be at least 2")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def op_norm(matrix) -> float:
    """Frobenius norm, an upper bound on the spectral norm; scales every tolerance."""
    return float(np.linalg.norm(matrix))


@dataclass
class BlockForm:
    """Blocks (A, b, c, d) of an (n+1) x (n+1) matrix.

    A is the n x n spatial block, b the last column above the corner, c the
    last row left of the corner (stored as a vector), d the scalar corner.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: float

    @property
    def n(self) -> int:
        return self.A.shape[0]


def block_split(matrix) -> BlockForm:
    """Split a square matrix into its (A, b, c, d) blocks.

    The pieces are copies, so editing them does not touch the input.
    """
    M = as_square(matrix)
    n = M.shape[0] - 1
    return BlockForm(
        A=M[:n, :n].copy(),
        b=M[:n, n].copy(),
        c=M[n, :n].copy(),
        d=float(M[n, n]),
    )


def block_join(blocks: BlockForm) -> np.ndarray:
    """Reassemble a matrix from its blocks.  Inverse of :func:`block_split`
    bit for bit: no arithmetic is performed."""
    A = np.asarray(blocks.A, dtype=float)
    b = np.asarray(blocks.b, dtype=float)
    c = np.asarray(blocks.c, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"block A must be square, got shape {A.shape}")
    n = A.shape[0]
    if b.shape != (n,) or c.shape != (n,):
        raise ValueError("blocks b and c must be vectors of length n")
    M = np.empty((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = b
    M[n, :n] = c
    M[n, n] = blocks.d
    return M


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


@dataclass(frozen=True)
class Metric:
    """Diagonal bilinear form on R^(n+1) used to define adjoints.

    The gram matrix is diag(-sigma, ..., -sigma, 1), the spacetime form:
    indefinite for sigma > 0 and positive definite for sigma < 0.
    Metric(-sigma, n) is the companion form of sigma, under which the
    boost generators of sigma are self-adjoint.
    """

    sigma: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma == 0.0:
            raise ValueError("metric needs a finite nonzero sigma")
        if self.n < 1:
            raise ValueError("metric needs n >= 1")

    @property
    def gram_diag(self) -> np.ndarray:
        g = np.full(self.n + 1, -self.sigma)
        g[self.n] = 1.0
        return g

    @property
    def gram(self) -> np.ndarray:
        return np.diag(self.gram_diag)


def dagger(Z, metric: Metric) -> np.ndarray:
    """Adjoint of Z with respect to ``metric``: gram^-1 Z^T gram.

    On blocks this sends (A, b, c, d) to (A^T, -c/sigma, -sigma*b, d).  It
    is an involution and reverses products.
    """
    Z = as_square(Z)
    if Z.shape[0] != metric.n + 1:
        raise ValueError(
            f"matrix dimension {Z.shape[0]} does not match metric n={metric.n}"
        )
    g = metric.gram_diag
    return (Z.T * g[np.newaxis, :]) / g[:, np.newaxis]
