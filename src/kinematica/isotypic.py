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

__all__ = ["IsotypicSplit", "ad_rotation", "block_rotation", "merge", "split"]


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
    Z = matcore.as_square_stack(Z)
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


def block_rotation(R, eps) -> np.ndarray:
    """K = diag(R, eps), or a stack of them for an (..., n, n) stack of R and a (...) stack
    of eps that broadcast.  Each R must be orthogonal and each eps +1 or -1; ValueError
    names the first entry of a stack that is not."""
    R = matcore.as_square_stack(R)
    eps = np.asarray(eps)
    n = R.shape[-1]
    matcore.refuse(matcore.op_norm(R.mT @ R - np.eye(n), 2) > 1e-10, "R must be orthogonal")
    matcore.refuse((eps != 1) & (eps != -1), "eps must be +1 or -1")
    K = np.zeros(np.broadcast_shapes(R.shape[:-2], eps.shape) + (n + 1, n + 1))
    K[..., :n, :n] = R
    K[..., n, n] = eps
    return K


def ad_rotation(R, eps, Z) -> np.ndarray:
    """Conjugate Z by the block rotation K = diag(R, eps), which is K Z K^T since K is
    orthogonal; Z, R and eps may be stacks that broadcast (see :func:`block_rotation`).

    On blocks: A goes to R A R^T, b to eps * R b, c to eps * R c, and the
    corner d is untouched.  R must be orthogonal and eps must be +1 or -1.
    """
    K = block_rotation(R, eps)
    Z = matcore.as_square_stack(Z)
    if Z.shape[-1] != K.shape[-1]:
        raise ValueError("Z must have one more row than R")
    return K @ Z @ K.mT
