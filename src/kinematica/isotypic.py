"""Isotypic coordinates of generators under the rotation action.

Conjugation by block rotations K = diag(R, eps) (:func:`groups.k_element`) splits the space of
(n+1) x (n+1) matrices into four invariant pieces, and this split is the
engine behind classification:

* m0: scalar multiples of the identity on the spatial block together with
  the corner entry (two invariant lines),
* m1: skew-symmetric spatial blocks, the rotation generators themselves,
* m2: traceless symmetric spatial blocks,
* m3: the mixing piece, a column vector b over a row vector c.

With a single space dimension m1 and m2 vanish and the split is no longer
meaningful; its callers take n >= 2.

The package reads the pieces through one private pass, :func:`_coordinates`, on a float
(..., n+1, n+1) stack, with the blocks read as slices: classify_algebra reads its generators
through it, and verify's `algebra` checks it.  The module has no public names.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = []


def _coordinates(Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lam, and the coordinates [sqrt(n) lam, mu, m2, b, c] of m0 + m2 + m3, isometric to the
    Frobenius norm, of each matrix of the float (..., n+1, n+1) stack Z, as the rows of one new
    (..., 2 + n^2 + 2n) array.  Halves the first n rows of Z in place, after b is read, so that
    no sum or difference overflows: m1 is then the spatial block minus its transpose."""
    n = Z.shape[-1] - 1
    A, j = Z[..., :n, :n], 2 + n * n
    scale = 2.0 ** n.bit_length()  # over 2^k > n no sum of n entries overflows; exact if normal
    lam = np.add.reduce(A.diagonal(0, -2, -1) / scale, -1) / n * scale
    rows = np.empty(Z.shape[:-2] + (j + 2 * n,))
    rows[..., j:j + n] = Z[..., :n, n]
    np.multiply(Z[..., :n, :], 0.5, out=Z[..., :n, :])  # contiguous rows: faster than A alone
    np.add(A, A.mT, out=rows[..., 2:j].reshape(A.shape))  # m2, a view of the rows
    rows[..., 2:j:n + 1] -= lam[..., np.newaxis]  # the diagonal of m2
    np.multiply(lam, math.sqrt(n), out=rows[..., 0])
    rows[..., 1] = Z[..., n, n]
    rows[..., j + n:] = Z[..., n, :n]
    return lam, rows
