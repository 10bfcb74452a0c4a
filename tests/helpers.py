"""What the tests share: the norm they measure in, and the reference draw of the rotation
block that random_element draws."""

import numpy as np


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


def random_orthogonal(n, rng):
    """Haar orthogonal matrix with a random determinant sign, drawn from
    rng as random_element draws its rotation block."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if rng.random() < 0.5:
        Q[:, 0] = -Q[:, 0]
    return Q
