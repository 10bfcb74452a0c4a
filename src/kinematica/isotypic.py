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
    (b, c) and the corner as mu.  The components are new arrays.
    """
    Z = matcore.as_square_stack(np.asarray(Z, dtype=float))
    n = Z.shape[-1] - 1
    if n < 2:
        raise ValueError("isotypic split needs at least two space dimensions")
    A = Z[..., :n, :n]
    At = A.swapaxes(-1, -2)
    lam = np.trace(A, axis1=-2, axis2=-1) / n
    m1 = A - At
    m1 *= 0.5  # in place, so a large stack makes no temporary copy
    m2 = A + At
    m2 *= 0.5
    np.einsum("...ii->...i", m2)[...] -= lam[..., np.newaxis]  # a view of the diagonal
    return IsotypicSplit(lam=lam, mu=Z[..., n, n].copy()[()], m1=m1, m2=m2,
                         b=Z[..., :n, n].copy(), c=Z[..., n, :n].copy())


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


def ad_rotation(R, eps: int, Z) -> np.ndarray:
    """Conjugate Z, one matrix or a stack, by the block rotation
    K = diag(R, eps), which is K Z K^T since K is orthogonal.

    On blocks: A goes to R A R^T, b to eps * R b, c to eps * R c, and the
    corner d is untouched.  R must be orthogonal and eps must be +1 or -1.
    """
    R = matcore.as_square(R)
    if matcore.op_norm(R.T @ R - np.eye(R.shape[0])) > 1e-10:
        raise ValueError("R must be orthogonal")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    Z = matcore.as_square_stack(np.asarray(Z, dtype=float))
    n = R.shape[0]
    if Z.shape[-1] != n + 1:
        raise ValueError("Z must have one more row than R")
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = R
    K[n, n] = eps
    return K @ Z @ K.T
