"""Isotypic decomposition of generators under the rotation action.

Conjugation by block rotations diag(R, eps) splits the space of
(n+1) x (n+1) matrices into four invariant pieces, and this split is the
engine behind classification:

* m0: scalar multiples of the identity on the spatial block together with
  the corner entry (two invariant lines),
* m1: skew-symmetric spatial blocks, the rotation generators themselves,
* m2: traceless symmetric spatial blocks,
* m3: the mixing piece, a column vector b over a row vector c.

Requires n >= 2: with a single space dimension the pieces above collapse
and the split is no longer meaningful.

Each function takes one (n+1) x (n+1) matrix or a (..., n+1, n+1) stack
and runs the same array code on either, reading the blocks as slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore

__all__ = ["IsotypicSplit", "ad_rotation", "merge", "split"]


@dataclass
class IsotypicSplit:
    """Components of a generator: scalars (lam, mu), skew part m1,
    traceless symmetric part m2, and mixing vectors (b, c).

    For a (..., n+1, n+1) stack the fields are arrays over the stack axes:
    lam and mu of shape (...), m1 and m2 of shape (..., n, n), b and c of
    shape (..., n).  For one matrix lam and mu are scalars.
    """

    lam: float | np.ndarray
    mu: float | np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n(self) -> int:
        return self.m1.shape[-1]


def split(Z) -> IsotypicSplit:
    """Decompose Z, one matrix or a stack, into its four isotypic
    components.

    The spatial block A contributes trace(A)/n to the scalar part,
    (A - A^T)/2 to the skew part and the traceless remainder of
    (A + A^T)/2 to the symmetric part; the off blocks pass through as
    (b, c) and the corner as mu.  Z is left as it is: the coordinate pass
    runs on a copy, and all components but m1 are views of its one new
    array of rows.
    """
    Z = matcore.as_square_stack(np.array(Z, dtype=float))  # a copy, which the pass halves
    n = Z.shape[-1] - 1
    if n < 2:
        raise ValueError("isotypic split needs at least two space dimensions")
    with np.errstate(over="ignore"):  # only the sqrt(n) lam coordinate, not kept, can overflow
        lam, rows = _coordinates(Z)
    half, j = Z[..., :n, :n], 2 + n * n
    return IsotypicSplit(lam=lam, mu=rows[..., 1][()], m1=half - half.mT,
                         m2=rows[..., 2:j].reshape(half.shape), b=rows[..., j:j + n],
                         c=rows[..., j + n:])


def _coordinates(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam, and the coordinates [sqrt(n) lam, mu, m2, b, c] of m0 + m2 + m3, isometric to the
    Frobenius norm, of each matrix of the float (..., n+1, n+1) stack Z, as the rows of one new
    (..., 2 + n^2 + 2n) array.  Halves the first n rows of Z in place, after b is read, so that
    no sum or difference overflows: m1 is then the spatial block minus its transpose."""
    n = Z.shape[-1] - 1
    A, j = Z[..., :n, :n], 2 + n * n
    scale = 2.0 ** n.bit_length()  # over 2^k > n no sum of n entries overflows; exact if normal
    lam = np.add.reduce(np.diagonal(A, 0, -2, -1) / scale, -1) / n * scale
    rows = np.empty(Z.shape[:-2] + (j + 2 * n,))
    rows[..., j:j + n] = Z[..., :n, n]
    np.multiply(Z[..., :n, :], 0.5, out=Z[..., :n, :])  # contiguous rows: faster than A alone
    np.add(A, A.mT, out=rows[..., 2:j].reshape(A.shape))  # m2, a view of the rows
    rows[..., 2:j:n + 1] -= lam[..., np.newaxis]  # the diagonal of m2
    np.multiply(lam, math.sqrt(n), out=rows[..., 0])
    rows[..., 1] = Z[..., n, n]
    rows[..., j + n:] = Z[..., n, :n]
    return lam, rows


def merge(parts: IsotypicSplit) -> np.ndarray:
    """Reassemble a generator, or a stack of them, from its components;
    inverse of :func:`split`."""
    n = parts.n
    Z = np.empty(np.shape(parts.mu) + (n + 1, n + 1))
    np.add(parts.m1, parts.m2, out=Z[..., :n, :n])
    np.einsum("...ii->...i", Z)[..., :n] += np.asarray(parts.lam)[..., np.newaxis]
    Z[..., :n, n] = parts.b
    Z[..., n, :n] = parts.c
    Z[..., n, n] = parts.mu
    return Z


def _block_rotation(R, eps) -> np.ndarray:
    """K = diag(R, eps), or a stack of them, checked: the rule of :func:`groups.k_element`."""
    R = matcore.as_square_stack(R)
    eps = np.asarray(eps)
    n = R.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a defect past the float max: inf or NaN
        defect = matcore.op_norm(R.mT @ R - np.eye(n), 2)
    matcore.refuse(np.logical_not(defect <= matcore.DEFAULT_TOL), "R must be orthogonal")
    matcore.refuse((eps != 1) & (eps != -1), "eps must be +1 or -1")
    K = np.zeros(np.broadcast_shapes(R.shape[:-2], eps.shape) + (n + 1, n + 1))
    K[..., :n, :n] = R
    K[..., n, n] = eps
    return K


def ad_rotation(R, eps, Z) -> np.ndarray:
    """Conjugate Z by the block rotation K = diag(R, eps), which is K Z K^T since K is
    orthogonal; Z, R and eps may be stacks that broadcast (see :func:`groups.k_element`).

    On blocks: A goes to R A R^T, b to eps * R b, c to eps * R c, and the
    corner d is untouched.  R must be orthogonal and eps must be +1 or -1.
    """
    K = _block_rotation(R, eps)
    Z = matcore.as_square_stack(Z)
    if Z.shape[-1] != K.shape[-1]:
        raise ValueError("Z must have one more row than R")
    return K @ Z @ K.mT
