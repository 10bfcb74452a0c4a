"""Classification of generator sets into the five kinematical cases.

A set of generators is accepted when, together with the rotations, it
spans one of the classical kinematical Lie algebras.  Since the rotations
are adjoined anyway, only the non-rotation content of the generators can
decide the case, and only it is examined: one SVD of that content gives an
orthonormal basis of the non-rotation span.  Scalar or traceless-symmetric
content in it is fatal, an empty span is the Aristotle case, and the
mixing content must consist of collinear (b, c) pairs sharing a single
ratio sigma.  The sign of sigma then selects the case:

* sigma > 0   Lorentz
* sigma = 0   Galilei
* sigma < 0   Orthogonal (rotations of one more dimension)
* sigma = inf Carroll (the row vector survives, the column dies)

and no mixing content at all is Aristotle.

No bracket-closure check follows the extraction of sigma.  With boosts
K_i = e_i e_n^T + sigma e_n e_i^T the brackets are [J, J] in J, [J, K] in
K and [K_i, K_j] = sigma J_ij (zero for Carroll), so rotations plus the
boosts of one sigma span a Lie algebra for every sigma (Bacry and
Levy-Leblond, "Possible kinematics", J. Math. Phys. 9 (1968) 1605).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import isotypic, matcore

__all__ = [
    "CaseLabel",
    "ClassificationResult",
    "NotCollinear",
    "SIGMA_INF",
    "Sigma",
    "ZeroGenerator",
    "as_sigma",
    "bracket_closure_defect",
    "case_label",
    "case_of_sigma",
    "classify_algebra",
    "collinearity_defect",
    "is_closed_under_bracket",
    "rotation_generators",
    "sigma_from_m3",
]

DEFAULT_TOL = 1e-9


class NotCollinear(ValueError):
    """The two mixing vectors do not point along a common line."""


class ZeroGenerator(ValueError):
    """Both mixing vectors vanish, so no sigma can be extracted."""


@dataclass(frozen=True)
class Sigma:
    """The causality parameter.  A finite value is stored directly; the
    Carroll case is represented by ``math.inf``."""

    value: float

    def __post_init__(self):
        v = float(self.value)
        if math.isnan(v) or v == -math.inf:
            raise ValueError("sigma must be a real number or +inf")
        object.__setattr__(self, "value", v)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    @property
    def is_infinite(self) -> bool:
        return not self.is_finite

    @property
    def invariant_speed(self) -> float:
        """The speed preserved by the group; only defined for sigma > 0."""
        if not (self.is_finite and self.value > 0):
            raise ValueError("invariant speed needs sigma > 0")
        return 1.0 / math.sqrt(self.value)

    @property
    def rotation_scale(self) -> float:
        """Boost period scale for sigma < 0: boosts of norm 2*pi times this
        return to the identity."""
        if not (self.is_finite and self.value < 0):
            raise ValueError("rotation scale needs sigma < 0")
        return 1.0 / math.sqrt(-self.value)

    def __repr__(self) -> str:
        if self.is_infinite:
            return "Sigma(inf)"
        return f"Sigma({self.value!r})"


SIGMA_INF = Sigma(math.inf)


def as_sigma(value) -> Sigma:
    """Coerce a Sigma, float or int into a Sigma."""
    if isinstance(value, Sigma):
        return value
    return Sigma(float(value))


class CaseLabel(Enum):
    LORENTZ = "Lorentz"
    GALILEI = "Galilei"
    ORTHOGONAL = "Orthogonal"
    CARROLL = "Carroll"
    ARISTOTLE = "Aristotle"


def case_of_sigma(sigma) -> CaseLabel:
    """Map a sigma value to its case label (never Aristotle)."""
    s = as_sigma(sigma)
    if s.is_infinite:
        return CaseLabel.CARROLL
    if s.value > 0:
        return CaseLabel.LORENTZ
    if s.value < 0:
        return CaseLabel.ORTHOGONAL
    return CaseLabel.GALILEI


OUTCOME_KINEMATICAL = "Kinematical"
OUTCOME_ARISTOTLE = "AristotleOnly"
OUTCOME_NOT_KINEMATICAL = "NotKinematical"


@dataclass
class ClassificationResult:
    """Outcome of :func:`classify_algebra` plus numeric diagnostics.

    outcome is one of "Kinematical" (sigma set), "AristotleOnly" (only
    rotation content) or "NotKinematical" (reason set).  diagnostics holds
    plain floats: "rank" is the rank of the non-rotation span; "m0", "m2"
    and "m3" are the largest norms of those components over its
    orthonormal basis; "m1" is 0.0, since rotation content is dropped
    before the basis is formed; an accepted set adds "sigma_spread", the
    range of the per-row sigmas.
    """

    outcome: str
    sigma: Sigma | None = None
    reason: str | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_kinematical(self) -> bool:
        return self.outcome == OUTCOME_KINEMATICAL


def case_label(result: ClassificationResult) -> CaseLabel:
    """Case label of a successful classification.

    Raises ValueError when the result is NotKinematical.
    """
    if result.outcome == OUTCOME_ARISTOTLE:
        return CaseLabel.ARISTOTLE
    if result.outcome == OUTCOME_KINEMATICAL:
        return case_of_sigma(result.sigma)
    raise ValueError(f"no case label for a NotKinematical result: {result.reason}")


def collinearity_defect(b, c) -> float:
    """2 * (|b|^2 |c|^2 - (b.c)^2), zero exactly when b and c are parallel.

    This is also the corner entry of the doubled commutator of the mixing
    generator with the rotation it generates, which is how the tests pin
    it down from the algebra side.  Formed on the pair divided by a power
    of two, it is inf only when the defect is beyond the float range.
    Raises ValueError unless b and c are one pair of finite vectors.
    """
    b, c = _finite_pairs(b, c)
    if len(b) != 1:
        raise ValueError(f"collinearity_defect takes one pair of vectors, got shape {b.shape}")
    _, _, _, defect, e = next(_scaled_products(b, c))
    with np.errstate(over="ignore"):
        return float(np.ldexp(defect, 4 * e))


def _finite_pairs(b, c) -> tuple[np.ndarray, np.ndarray]:
    """b and c as (m, n) float arrays, one pair per row (a vector is one row).  Other shapes,
    no rows or columns and non-finite entries (a Carroll pair or NaN defect else) are refused."""
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if b.shape != c.shape or b.ndim != 2 or not b.size:
        raise ValueError(f"b, c must share one nonempty (m, n) shape, got {b.shape} and {c.shape}")
    if not (np.isfinite(b).all() and np.isfinite(c).all()):
        raise ValueError("mixing vectors have non-finite entries")
    return b, c


def _scaled_products(b: np.ndarray, c: np.ndarray):
    """Yield (b.b, c.c, b.c, defect, e) for each row pair of b and c, taken
    after dividing the pair by its own power of two 2**e.  The division is
    exact and keeps |b|^2 |c|^2 from overflowing or underflowing."""
    e = np.frexp(np.maximum(abs(b), abs(c)).max(axis=1, initial=0.0))[1]
    for bi, ci, ei in zip(np.ldexp(b, -e[:, np.newaxis]), np.ldexp(c, -e[:, np.newaxis]),
                          e.tolist()):
        bb, cc, bc = float(bi @ bi), float(ci @ ci), float(bi @ ci)
        yield bb, cc, bc, 2.0 * (bb * cc - bc * bc), ei


def _row_sigmas(b: np.ndarray, c: np.ndarray, tol: float) -> np.ndarray:
    """Sigma of each collinear mixing pair (one pair per row of b and c),
    inf for a Carroll row, where b is negligible against c."""
    # On the scaled pair the bound's absolute term 1 becomes 2**(-4 e),
    # capped at 2**1000 (a scaled defect is at most 2 n^2).
    out = []
    for bb, cc, bc, defect, e in _scaled_products(b, c):
        if bb == 0.0 and cc == 0.0:
            raise ZeroGenerator("mixing vectors are both zero")
        nb, nc = math.sqrt(bb), math.sqrt(cc)
        size = nb * nb * nc * nc
        if defect > tol * (math.ldexp(1.0, min(-4 * e, 1000)) + size):
            raise NotCollinear(f"mixing vectors are not collinear (relative defect "
                               f"{defect / size:.3e})")
        out.append(bc / (nb * nb) if nb > tol * nc else math.inf)
    return np.array(out)


def sigma_from_m3(b, c, tol: float = DEFAULT_TOL) -> Sigma:
    """Extract the one sigma shared by collinear mixing pairs (b, c).

    b and c are vectors, or (m, n) arrays holding one pair per row.  A row
    whose column part b is negligible against c (|b| <= tol |c|) is a
    Carroll generator; when every row is, sigma is infinite.  Otherwise
    every row must be finite, the per-row ratios (b.c)/|b|^2 must lie
    within tol * (1 + |min| + |max|) of each other, and sigma is the
    least-squares fit sum(b.c) / sum(|b|^2) over all rows.  Raises
    ZeroGenerator when both vectors of a row vanish, NotCollinear when
    a row fails the collinearity test or the rows disagree on sigma, and
    ValueError when b and c differ in shape or an entry is not finite.
    """
    return _sigma_and_rows(*_finite_pairs(b, c), tol)[0]


def _sigma_and_rows(b, c, tol: float, k: int = 0) -> tuple[Sigma, np.ndarray]:
    """:func:`sigma_from_m3` together with the per-row sigmas it checked, for (m, n)
    float arrays b and c with finite entries; both are mapped back by 4^k."""
    rows = _row_sigmas(b, c, tol)
    # Finite rows are below n 2^537 (b.b >= 2^-1074) and classify_algebra's Carroll
    # guard keeps 4^k <= 2^52, so mapping back cannot overflow.
    back = np.ldexp(rows, 2 * k)
    finite = np.isfinite(rows)
    if not finite.any():
        return SIGMA_INF, back
    lo, hi = float(rows.min()), float(rows.max())
    if not finite.all() or hi - lo > tol * (1.0 + abs(lo) + abs(hi)):
        raise NotCollinear(f"mixing generators disagree on sigma: "
                           f"{Sigma(float(back.min()))!r} vs {Sigma(float(back.max()))!r}")
    # One power of two for the whole fit: no overflow, rows weighed as given.
    e = math.frexp(max(float(abs(b).max()), float(abs(c).max())))[1]
    b, c = np.ldexp(b, -e), np.ldexp(c, -e)
    return Sigma(math.ldexp(float(np.vdot(b, c)) / float(np.vdot(b, b)), 2 * k)), back


def rotation_generators(n: int) -> list[np.ndarray]:
    """Standard basis of the rotation algebra, embedded in the top block:
    one generator per coordinate plane."""
    if n < 2:
        raise ValueError("need at least two space dimensions")
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            Z = np.zeros((n + 1, n + 1))
            Z[i, j] = 1.0
            Z[j, i] = -1.0
            out.append(Z)
    return out


def _closure_scan(basis, tol: float) -> tuple[bool, float]:
    """Least-squares test that all pairwise brackets stay in the span.

    Returns (closed, worst raw residual), both on the basis balanced by
    :func:`matcore.balance`, an automorphism of the bracket that keeps the
    rotations next to the boosts of any sigma.  The boolean compares each
    residual against tol * (1 + |bracket|); the raw residual is reported
    unnormalized.  All m (m - 1) / 2 brackets are formed at once, so memory
    grows like m^2 (n+1)^2.
    """
    stack = matcore.as_square_stack(list(basis))
    matcore.balance(stack)
    d = stack.shape[-1]
    _, s, vt = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    Q = vt[s > tol * s[0]]
    products = np.einsum("iab,jbc->ijac", stack, stack)
    i, j = np.triu_indices(len(stack), 1)
    w = (products[i, j] - products[j, i]).reshape(len(i), d * d)
    resid = np.linalg.norm(w - (w @ Q.T) @ Q, axis=1)
    closed = bool(np.all(resid <= tol * (1.0 + np.linalg.norm(w, axis=1))))
    return closed, float(resid.max(initial=0.0))


def is_closed_under_bracket(basis, tol: float = DEFAULT_TOL) -> bool:
    """Whether the span of ``basis`` is closed under the bracket.

    Rank-deficient inputs are fine: the span is what is tested.
    """
    closed, _ = _closure_scan(basis, tol)
    return closed


def bracket_closure_defect(basis, tol: float = DEFAULT_TOL) -> float:
    """Largest distance of any pairwise bracket from the span of ``basis``,
    measured in the balanced time unit of :func:`matcore.balance`."""
    _, worst = _closure_scan(basis, tol)
    return worst


def _largest_norm(stack: np.ndarray) -> float:
    """Largest Frobenius norm of the stack; squares out of range are redone on stack / 2^e."""
    flat = stack.reshape(len(stack), -1)
    with np.errstate(over="ignore"):
        scale = math.sqrt(np.vecdot(flat, flat).max())
    if not 2.0 ** -500 < scale < math.inf:
        e = math.frexp(max(flat.max(), -flat.min()))[1]
        flat = np.ldexp(flat, -e)
        scale = math.ldexp(math.sqrt(np.vecdot(flat, flat).max()), e)
    return scale


def classify_algebra(generators, tol: float = DEFAULT_TOL) -> ClassificationResult:
    """Decide which kinematical algebra the generators span together with
    the rotations.

    generators: square matrices of one dimension n+1 >= 3; the rotations
    need not be among them, they are adjoined.  tol: relative tolerance of
    every internal threshold.

    The set is judged in the time unit of :func:`matcore.balance`, and
    sigma is mapped back by 4^k, so the answer does not depend on the unit
    sigma is given in.  A set stays in its own unit when its largest last
    column entry |b| is rounding next to its largest last row entry |c|,
    |b| <= (n+1) eps |c| as in a Carroll set, or when the balanced mixing
    content would fall under the SVD cut below.  Each generator's
    non-rotation part m0 + m2 + m3 becomes one row of coordinates,
    isometric to the Frobenius norm (rotation content is adjoined anyway),
    and zero rows are dropped.  One SVD gives an orthonormal basis of their
    span, keeping singular values above tol times the largest generator
    norm.  Scalar or traceless-symmetric content in it is rejected; the
    rest is mixing content, whose one shared sigma :func:`sigma_from_m3`
    extracts from the basis rows at once.  Rotations plus the boosts of one
    sigma close for every sigma (module docstring), so no closure check is
    run.  No mixing content at all is the Aristotle case.  Failures are a
    result with outcome "NotKinematical", never an exception.
    """
    stack = matcore.as_square_stack(list(generators))
    m, n = len(stack), stack.shape[-1] - 1
    if n < 2:
        raise ValueError("classification needs at least two space dimensions")

    b, c = float(abs(stack[:, :n, n]).max()), float(abs(stack[:, n, :n]).max())
    k = matcore.balance(stack) if b > (n + 1) * math.ulp(1.0) * c else 0
    scale = _largest_norm(stack)
    if k and max(math.ldexp(b, k), math.ldexp(c, -k)) <= tol * scale:
        matcore.balance(stack, k=-k)  # balanced, the mixing content would fall under the cut
        k, scale = 0, _largest_norm(stack)
    parts = isotypic.split(stack)
    rows = np.concatenate((math.sqrt(n) * parts.lam[:, np.newaxis], parts.mu[:, np.newaxis],
                           parts.m2.reshape(m, -1), parts.b, parts.c), axis=1)
    del stack, parts  # free the matrices before the SVD
    rows = rows[rows.any(axis=1)]
    basis = rows[:0]
    if len(rows):
        _, s, vt = np.linalg.svd(rows, full_matrices=False)
        basis = vt[s > tol * scale]
    diagnostics = {"rank": float(len(basis)), "m0": 0.0, "m1": 0.0, "m2": 0.0, "m3": 0.0}
    if not len(basis):
        return ClassificationResult(OUTCOME_ARISTOTLE, diagnostics=diagnostics)
    norms = np.sqrt(np.add.reduceat(basis * basis, [0, 2, 2 + n * n], axis=1).max(axis=0))
    diagnostics.update(zip(("m0", "m2", "m3"), norms.tolist()))

    for key, content in (("m0", "scalar"), ("m2", "traceless symmetric")):
        if diagnostics[key] > tol:
            return ClassificationResult(OUTCOME_NOT_KINEMATICAL, diagnostics=diagnostics, reason=(
                f"{content} ({key}) content present: norm {diagnostics[key]:.3e}"))

    try:
        sigma, rows = _sigma_and_rows(basis[:, -2 * n:-n], basis[:, -n:], tol, k)
    except NotCollinear as exc:
        return ClassificationResult(
            OUTCOME_NOT_KINEMATICAL, reason=str(exc), diagnostics=diagnostics
        )
    finite = rows[np.isfinite(rows)]
    diagnostics["sigma_spread"] = float(np.ptp(finite)) if finite.size else 0.0
    return ClassificationResult(OUTCOME_KINEMATICAL, sigma=sigma, diagnostics=diagnostics)
