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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .matcore import BlockForm, as_square, block_join, block_split

__all__ = ["IsotypicSplit", "ad_rotation", "merge", "split"]


@dataclass
class IsotypicSplit:
    """Components of a generator: scalars (lam, mu), skew part m1,
    traceless symmetric part m2, and mixing vectors (b, c)."""

    lam: float
    mu: float
    m1: np.ndarray
    m2: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def n(self) -> int:
        return self.m1.shape[0]

    def m0_matrix(self) -> np.ndarray:
        n = self.n
        zero = np.zeros(n)
        return block_join(BlockForm(self.lam * np.eye(n), zero, zero, self.mu))

    def m1_matrix(self) -> np.ndarray:
        zero = np.zeros(self.n)
        return block_join(BlockForm(self.m1, zero, zero, 0.0))

    def m2_matrix(self) -> np.ndarray:
        zero = np.zeros(self.n)
        return block_join(BlockForm(self.m2, zero, zero, 0.0))

    def m3_matrix(self) -> np.ndarray:
        n = self.n
        return block_join(BlockForm(np.zeros((n, n)), self.b, self.c, 0.0))

    def norms(self) -> dict[str, float]:
        """Frobenius norm of each embedded component."""
        n = self.n
        return {
            "m0": float(np.sqrt(n * self.lam**2 + self.mu**2)),
            "m1": float(np.linalg.norm(self.m1)),
            "m2": float(np.linalg.norm(self.m2)),
            "m3": float(np.sqrt(self.b @ self.b + self.c @ self.c)),
        }


def split(Z) -> IsotypicSplit:
    """Decompose Z into its four isotypic components.

    The spatial block A contributes trace(A)/n to the scalar part,
    (A - A^T)/2 to the skew part and the traceless remainder of
    (A + A^T)/2 to the symmetric part; the off blocks pass through as
    (b, c) and the corner as mu.
    """
    Z = as_square(Z)
    n = Z.shape[0] - 1
    if n < 2:
        raise ValueError("isotypic split needs at least two space dimensions")
    blocks = block_split(Z)
    lam = float(np.trace(blocks.A)) / n
    m1 = 0.5 * (blocks.A - blocks.A.T)
    m2 = 0.5 * (blocks.A + blocks.A.T) - lam * np.eye(n)
    return IsotypicSplit(lam=lam, mu=blocks.d, m1=m1, m2=m2, b=blocks.b, c=blocks.c)


def merge(parts: IsotypicSplit) -> np.ndarray:
    """Reassemble a generator from its components; inverse of :func:`split`."""
    n = parts.n
    A = parts.lam * np.eye(n) + parts.m1 + parts.m2
    return block_join(BlockForm(A, parts.b, parts.c, parts.mu))


def ad_rotation(R, eps: int, Z) -> np.ndarray:
    """Conjugate Z by the block rotation diag(R, eps).

    On blocks: A goes to R A R^T, b to eps * R b, c to eps * R c, and the
    corner d is untouched.  R must be orthogonal and eps must be +1 or -1.
    """
    R = np.array(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be a square matrix")
    if matcore.op_norm(R.T @ R - np.eye(R.shape[0])) > 1e-10:
        raise ValueError("R must be orthogonal")
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    Z = as_square(Z)
    if Z.shape[0] != R.shape[0] + 1:
        raise ValueError("Z must have one more row than R")
    blocks = block_split(Z)
    return block_join(
        BlockForm(
            A=R @ blocks.A @ R.T,
            b=eps * (R @ blocks.b),
            c=eps * (R @ blocks.c),
            d=blocks.d,
        )
    )
