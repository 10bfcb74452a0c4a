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


def collinearity_defect(b, c) -> float | np.ndarray:
    """2 * (|b|^2 |c|^2 - (b.c)^2), zero exactly when b and c are parallel.

    This is also the corner entry of the doubled commutator of the mixing
    generator with the rotation it generates, which is how the tests pin
    it down from the algebra side.  Formed on each pair divided by a power
    of two, it is inf only when the defect is beyond the float range.
    Two vectors give a float; (m, n) arrays give an (m,) array, one defect
    per pair of rows, each that pair's own defect bit for bit.  Raises
    ValueError unless b and c are finite and of one of these shapes.
    """
    vectors = np.ndim(b) == np.ndim(c) == 1
    b, c = _finite_pairs(b, c)
    bb, cc, bc, e = _scaled_products(np.stack((b, c), axis=-2))
    with np.errstate(over="ignore"):
        defects = np.ldexp(2.0 * (bb * cc - bc * bc), 4 * e)
    return float(defects[0]) if vectors else defects


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


def _scaled_products(pairs: np.ndarray):
    """(b.b, c.c, b.c, e) of each pair b over c of the (..., 2, n) array pairs, formed on the
    pair divided by its own power of two 2**e: exact, and |b|^2 |c|^2 cannot overflow."""
    e = np.frexp(abs(pairs).max(axis=(-2, -1), initial=0.0))[1]
    pairs = np.ldexp(pairs, -e[..., np.newaxis, np.newaxis])
    squares = np.vecdot(pairs, pairs)
    return squares[..., 0], squares[..., 1], np.vecdot(pairs[..., 0, :], pairs[..., 1, :]), e


def _not_collinear(bb, cc, bc) -> NotCollinear:
    nb, nc = math.sqrt(bb), math.sqrt(cc)
    return NotCollinear(f"mixing vectors are not collinear (relative defect "
                        f"{2.0 * (bb * cc - bc * bc) / (nb * nb * nc * nc):.3e})")


def _row_sigmas(b: np.ndarray, c: np.ndarray, tol: float, products=None) -> np.ndarray:
    """Sigma of each mixing pair b, c (rows of (..., r, n) arrays), inf for a Carroll row (b
    negligible against c).  The first zero or non-collinear row of (r, n) arrays raises; given
    products (b.b, c.c, b.c) of rows of norm at most 1, it is NaN or -inf instead."""
    one, strict = 1.0, products is None  # one: the bound's absolute term
    if strict:
        *products, e = _scaled_products(
            np.concatenate((b, c), axis=-1).reshape(b.shape[:-1] + (2, b.shape[-1])))
        # On the scaled pair the term 1 becomes 2**(-4 e), capped at 2**1000 (a scaled
        # defect is at most 2 n^2).
        one = np.ldexp(1.0, np.minimum(-4 * e, 1000))
    bb, cc, bc = products
    nb, nc = np.sqrt(bb), np.sqrt(cc)
    bad = 2.0 * (bb * cc - bc * bc) > tol * (one + nb * nb * nc * nc)
    zero = bb + cc == 0.0
    if strict and (bad | zero).any():
        i = (bad | zero).argmax()
        raise ZeroGenerator("mixing vectors are both zero") if zero[i] else _not_collinear(
            bb[i], cc[i], bc[i])
    rows = np.divide(bc, nb * nb, out=np.full(bc.shape, np.inf), where=nb > tol * nc)
    rows[bad], rows[zero] = -np.inf, np.nan
    return rows


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
    return Sigma(_sigma_and_rows(np.concatenate(_finite_pairs(b, c), axis=-1), tol)[0][0])


def _sigma_and_rows(pairs, tol: float, k=(0,), unit: bool = False) -> list:
    """:func:`sigma_from_m3` of each set of rows b then c of the (..., r, 2n) array pairs, as
    (sigma, spread of the row sigmas), mapped back by 4^k, one k per set.  With unit, the rows
    have norm at most 1, zero rows are skipped and a failed set's NotCollinear is its sigma."""
    n = pairs.shape[-1] // 2
    fit = pairs  # without unit, divided by a power of two per set: no overflow, rows as given
    if not unit:
        fit = np.ldexp(pairs, -np.frexp(abs(pairs).max(axis=(-2, -1)))[1][..., None, None])
    products = bb, _, bc = [np.vecdot(fit[..., i:i + n], fit[..., j:j + n])
                            for i, j in ((0, 0), (n, n), (0, n))]
    rows = _row_sigmas(pairs[..., :n], pairs[..., n:], tol, products if unit else None)
    out = []
    for i, (lo, hi, fit_bc, fit_bb, k) in enumerate(zip(*(x.reshape(-1).tolist() for x in (
            np.fmin.reduce(rows, axis=-1), np.fmax.reduce(rows, axis=-1),
            bc.sum(axis=-1), bb.sum(axis=-1), np.asarray(k))))):
        # Finite rows are below n 2^537 (b.b >= 2^-1074) and classify_algebra's Carroll
        # guard keeps 4^k <= 2^52, so mapping back cannot overflow.
        back = math.ldexp(lo, 2 * k), math.ldexp(hi, 2 * k)
        if lo == -math.inf:  # a non-collinear row, of which the first is named
            j = (rows[i] == -math.inf).argmax()
            out.append((_not_collinear(*(x[i, j] for x in products)), None))
        elif lo < math.inf and (hi == math.inf or hi - lo > tol * (1.0 + abs(lo) + abs(hi))):
            error = NotCollinear("mixing generators disagree on sigma: "
                                 f"{Sigma(back[0])!r} vs {Sigma(back[1])!r}")
            if not unit:
                raise error
            out.append((error, None))
        else:  # lo is inf for Carroll rows only, NaN for no rows
            out.append((math.ldexp(fit_bc / fit_bb, 2 * k), back[1] - back[0]) if lo < math.inf
                       else (lo, 0.0))
    return out


def rotation_generators(n: int) -> list[np.ndarray]:
    """Standard basis of the rotation algebra, embedded in the top block:
    one generator per coordinate plane."""
    if n < 2:
        raise ValueError("need at least two space dimensions")
    out = [np.zeros((n + 1, n + 1)) for _ in range(n * (n - 1) // 2)]
    for Z, i, j in zip(out, *np.triu_indices(n, 1)):
        Z[i, j], Z[j, i] = 1.0, -1.0
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
    stack = matcore.as_square_stack(np.array(basis, dtype=float))
    d = stack.shape[-1]
    matcore.balance(stack, k=matcore.unit_exponent(abs(stack[..., :d - 1, -1]).max(),
                                                   abs(stack[..., -1, :d - 1]).max()))
    _, s, vt = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    Q = vt[s > tol * s[0]]
    products = np.einsum("iab,jbc->ijac", stack, stack)
    i, j = np.triu_indices(len(stack), 1)
    w = (products[i, j] - products[j, i]).reshape(len(i), d * d)
    resid = np.linalg.norm(w - (w @ Q.T) @ Q, axis=1)
    closed = bool(np.all(resid <= tol * (1.0 + np.linalg.norm(w, axis=1))))
    return closed, float(resid.max(initial=0.0))


def is_closed_under_bracket(basis, tol: float = DEFAULT_TOL) -> bool:
    """Whether the span of ``basis`` is closed under the bracket.  Rank-deficient
    inputs are fine: the span is what is tested."""
    return _closure_scan(basis, tol)[0]


def bracket_closure_defect(basis, tol: float = DEFAULT_TOL) -> float:
    """Largest distance of any pairwise bracket from the span of ``basis``,
    measured in the balanced time unit of :func:`matcore.balance`."""
    return _closure_scan(basis, tol)[1]


def _largest_norm(stack: np.ndarray) -> np.ndarray:
    """Largest Frobenius norm of each (m, d, d) set, redone on each set / 2^e if needed."""
    with np.errstate(over="ignore"):
        scale = matcore.op_norm(stack, 2).max(axis=-1)
    if not all(2.0 ** -500 < q < math.inf for q in scale.reshape(-1).tolist()):
        e = np.frexp(abs(stack).max(axis=(-3, -2, -1)))[1]
        return np.ldexp(matcore.op_norm(np.ldexp(stack, -e[..., None, None, None]), 2).max(-1), e)
    return scale


def classify_algebra(generators, tol: float = DEFAULT_TOL
                     ) -> ClassificationResult | list[ClassificationResult]:
    """Decide which kinematical algebra the generators span together with
    the rotations, which are adjoined.  generators: one set of m >= 1 square
    matrices of one dimension n+1 >= 3 (a list or an (m, n+1, n+1) array),
    giving one result, or a (T, m, n+1, n+1) stack of sets, giving a list of
    T results, each that of its set alone.  tol: the relative tolerance of
    every threshold.  Failures are a result "NotKinematical", not a raise.

    Each set is judged in the time unit matcore.balance picks for it, its
    sigma mapped back, unless its largest last column entry |b| is rounding
    next to its largest last row entry |c| (|b| <= (n+1) eps |c|, as in a
    Carroll set) or its balanced mixing content would fall under the cut.
    The non-rotation parts m0 + m2 + m3 of the generators become rows of
    coordinates, isometric to the Frobenius norm; rows zero in every set
    are dropped.  One stacked SVD keeps an orthonormal basis of each set's
    span above tol times its largest generator norm: scalar or traceless
    symmetric content is rejected, no content is the Aristotle case, and
    :func:`sigma_from_m3` extracts the sigma of the mixing content.  Those
    boosts and the rotations close (module docstring): no closure check.
    """
    stack = matcore.as_square_stack(np.array(generators, dtype=float))
    m, n = stack.shape[-3] if stack.ndim > 2 else 0, stack.shape[-1] - 1
    if stack.ndim > 4 or not m or n < 2:
        raise ValueError("classification takes (m, n+1, n+1) sets, m >= 1 and n >= 2, "
                         f"or a stack of them, got shape {stack.shape}")
    b, c = (abs(x).max(axis=(-2, -1)) for x in (stack[..., :n, n], stack[..., n, :n]))
    k = matcore.unit_exponent(b, c) * (b > (n + 1) * math.ulp(1.0) * c)  # the Carroll guard
    if balanced := np.count_nonzero(k):  # faster than any() on small arrays
        matcore.balance(stack, k=k[..., np.newaxis, np.newaxis])
    scale = _largest_norm(stack)
    # A set whose balanced mixing content would fall under the cut keeps its own unit.
    undo = k * (np.maximum(np.ldexp(b, k), np.ldexp(c, -k)) <= tol * scale) if balanced else k
    if balanced and np.count_nonzero(undo):
        matcore.balance(stack, k=-undo[..., np.newaxis, np.newaxis])
        k, scale = k - undo, _largest_norm(stack)
    p = isotypic.split(stack)
    rows = np.concatenate((math.sqrt(n) * p.lam[..., np.newaxis], p.mu[..., np.newaxis],
                           p.m2.reshape(p.b.shape[:-1] + (n * n,)), p.b, p.c), axis=-1)
    del stack, p  # free the matrices before the SVD
    rows = rows[..., rows.reshape(-1, m, rows.shape[-1]).any(axis=(0, 2)), :]
    rank, norms, outcomes = [0] * k.size, [[0.0, 0.0, 0.0]] * k.size, [(None, None)] * k.size
    if rows.shape[-2]:
        _, s, vt = np.linalg.svd(rows, full_matrices=False)
        live = s > tol * scale[..., np.newaxis]
        basis = vt * live[..., np.newaxis]  # the rows under the cut are zero
        rank = live.sum(axis=-1).reshape(-1).tolist()
        norms = np.sqrt(np.add.reduceat(basis * basis, [0, 2, 2 + n * n], axis=-1)
                        .max(axis=-2)).reshape(-1, 3).tolist()
    if any(r and m0 <= tol and m2 <= tol for r, (m0, m2, _) in zip(rank, norms)):
        outcomes = _sigma_and_rows(basis[..., -2 * n:].reshape(k.size, -1, 2 * n), tol, k, True)
    results = []
    for r, (m0, m2, m3), (sigma, spread) in zip(rank, norms, outcomes):
        result = ClassificationResult(OUTCOME_ARISTOTLE if not r else OUTCOME_NOT_KINEMATICAL,
                                      diagnostics={"rank": float(r), "m0": m0, "m1": 0.0,
                                                   "m2": m2, "m3": m3})
        if r and max(m0, m2) > tol:
            key, content, norm = (("m0", "scalar", m0) if m0 > tol
                                  else ("m2", "traceless symmetric", m2))
            result.reason = f"{content} ({key}) content present: norm {norm:.3e}"
        elif r and isinstance(sigma, ValueError):
            result.reason = str(sigma)
        elif r:
            result.outcome, result.sigma = OUTCOME_KINEMATICAL, Sigma(sigma)
            result.diagnostics["sigma_spread"] = spread
        results.append(result)
    return results if k.ndim else results[0]
