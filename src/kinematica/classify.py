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

:func:`classify_algebra` checks its input and builds one ClassificationResult
per set from the arrays of the private whole-array core ``_verdicts``, which
decides every set of a stack with masks (a loop only writes the reasons of
refused sets) and whose arrays the property suite reads directly.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import isotypic, matcore
from .matcore import DEFAULT_TOL

__all__ = [
    "CaseLabel",
    "ClassificationResult",
    "Sigma",
    "bracket_closure_defect",
    "case_label",
    "case_of_sigma",
    "classify_algebra",
    "closure_scan",
    "collinearity_defect",
    "is_closed_under_bracket",
    "rotation_generators",
]


def _check_tol(tol: float) -> None:
    """Every function that takes a tol reads it here, the one place that refuses a tol that is
    not a positive finite number (ValueError)."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")


@dataclass(frozen=True)
class Sigma:
    """The sigma that :func:`classify_algebra` read, math.inf for Carroll.  Every function
    that takes a sigma takes the number: pass ``result.sigma.value`` on."""

    value: float


class CaseLabel(Enum):
    LORENTZ = "Lorentz"
    GALILEI = "Galilei"
    ORTHOGONAL = "Orthogonal"
    CARROLL = "Carroll"
    ARISTOTLE = "Aristotle"


def case_of_sigma(sigma: float) -> CaseLabel:
    """The case label of a real sigma, math.inf for Carroll (never Aristotle).  Every
    function that takes a sigma reads it here, the one place that refuses NaN, -inf and a
    number past the float range, such as the int 10**400 (ValueError)."""
    if abs(sigma) <= sys.float_info.max:
        return (CaseLabel.LORENTZ if sigma > 0.0 else CaseLabel.ORTHOGONAL if sigma < 0.0
                else CaseLabel.GALILEI)
    if sigma == math.inf:
        return CaseLabel.CARROLL
    raise ValueError("sigma must be a real number within the float range, or +inf")


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
    orthonormal basis, from which rotation content is dropped; an accepted
    set adds "sigma_spread", the range of the per-row sigmas.
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
        return case_of_sigma(result.sigma.value)
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
    b, c = np.asarray(b, dtype=float), np.asarray(c, dtype=float)
    vectors = b.ndim == c.ndim == 1
    b, c = (x[np.newaxis] if x.ndim == 1 else x for x in (b, c))  # a vector is one row
    if b.shape != c.shape or b.ndim != 2 or not b.size:
        raise ValueError(f"b, c must share one nonempty (m, n) shape, got {b.shape} and {c.shape}")
    if not (np.isfinite(b).all() and np.isfinite(c).all()):  # else a NaN defect
        raise ValueError("mixing vectors have non-finite entries")
    pairs, e = matcore.scaled(np.stack((b, c), axis=-2), (-2, -1))
    (bb, cc), bc = np.vecdot(pairs, pairs).T, np.vecdot(pairs[:, 0], pairs[:, 1])
    with np.errstate(over="ignore"):
        defects = np.ldexp(2.0 * (bb * cc - bc * bc), 4 * e)
    return float(defects[0]) if vectors else defects


def _row_sigmas(bb, cc, bc, tol: float) -> np.ndarray:
    """Sigma of each mixing pair of entries at most 1, from its b.b, c.c and b.c: inf for a
    Carroll row (b negligible against c), -inf for a non-collinear one, NaN for a zero one."""
    nb, nc = np.sqrt(bb), np.sqrt(cc)
    nb2 = nb * nb
    bad = 2.0 * (bb * cc - bc * bc) > tol * (1.0 + nb2 * nc * nc)
    rows = np.divide(bc, nb2, out=np.full(bc.shape, np.inf), where=nb > tol * nc)
    rows[bad], rows[bb + cc == 0.0] = -np.inf, np.nan
    return rows


def _time_unit(b, c, n: int):
    """balance's k that levels the largest mixing entries |b| and |c| of (n+1)-dimensional
    sets, but 0 where |b| is rounding next to |c|, |b| <= (n+1) eps |c|: the Carroll guard."""
    return matcore.unit_exponent(b, c) * (b > (n + 1) * math.ulp(1.0) * c)


def _sigma_and_rows(pairs, tol: float, k, judged) -> tuple:
    """The sigma rule of :func:`classify_algebra`, for each set of rows b then c, of entries at
    most 1, of the (..., r, 2n) array pairs, judged in the time unit of its k (one per set).
    Returns, one entry per set, sigma mapped back by 4^k and the spread of the row sigmas (to
    be read where the set passes) and whether the set fails, where judged marks it, and
    {i: reason} for those sets, i the index in the flattened stack.  Masks decide every set;
    only the reasons are written one set at a time.  A row is Carroll when |b| <= tol |c|, and
    collinear when 2 (|b|^2 |c|^2 - (b.c)^2) <= tol (1 + |b|^2 |c|^2).  Both tests are relative
    to the set, which classify_algebra divided by the power of two of its largest entry, so a
    row whose squares underflow there (below about 1e-154 of that entry) is skipped, as a zero
    row is.  Sigma is inf when every row is Carroll; else the row ratios (b.c)/|b|^2 must lie
    within tol (1 + |min| + |max|) of each other, and sigma is the fit sum(b.c) / sum(|b|^2),
    finite up to the Carroll guard of _time_unit (|sigma| about 1 / ((n+1) eps), at least
    3e14)."""
    n = pairs.shape[-1] // 2
    b, c = pairs[..., :n], pairs[..., n:]
    products = bb, _, bc = [np.vecdot(b, b), np.vecdot(c, c), np.vecdot(b, c)]
    rows = _row_sigmas(*products, tol)
    lo, hi, k = np.fmin.reduce(rows, -1), np.fmax.reduce(rows, -1), 2 * k
    fit = lo < math.inf  # lo is inf for Carroll rows only, NaN for no rows
    if not (fits := np.count_nonzero(fit)):  # Carroll sets and sets of no rows alone: none fails
        return lo, np.zeros(lo.shape), fit, {}
    # Finite rows are below n 2^537 (b.b >= 2^-1074) and the Carroll guard of
    # _time_unit keeps 4^k <= 2^52, so mapping back cannot overflow.
    with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf and 0 / 0: sets with no fit
        back = np.ldexp(np.array([np.add.reduce(bc, -1) / np.add.reduce(bb, -1), lo, hi]), k)
        sigma, spread = back[0], back[2] - back[1]
        wide = hi - lo > tol * (1.0 + abs(lo) + abs(hi))
    failed = (lo == -math.inf) | fit & ((hi == math.inf) | wide)
    reasons = {}
    if np.count_nonzero(told := failed & judged):
        values = back[1:].reshape(2, -1).T.tolist()  # lo and hi mapped back, per set
        for i in told.reshape(-1).nonzero()[0].tolist():
            low, high = values[i]
            if low == -math.inf:  # a non-collinear row, of which the first is named
                j = (rows.reshape(-1, rows.shape[-1])[i] == -math.inf).argmax()
                x, y, xy = np.array(products).reshape(3, -1, rows.shape[-1])[:, i, j].tolist()
                reasons[i] = ("mixing vectors are not collinear (relative defect "
                              f"{2.0 * (x * y - xy * xy) / (x * y):.3e})")
            else:
                reasons[i] = f"mixing generators disagree on sigma: {low!r} vs {high!r}"
    if fits < fit.size:  # the Carroll sets, and sets of no rows, read lo
        sigma, spread = np.where(fit, sigma, lo), np.where(fit, spread, 0.0)
    return sigma, spread, told, reasons


def rotation_generators(n: int) -> list[np.ndarray]:
    """Standard basis of the rotation algebra, embedded in the top block:
    one generator per coordinate plane."""
    if n < 2:
        raise ValueError("need at least two space dimensions")
    out = [np.zeros((n + 1, n + 1)) for _ in range(n * (n - 1) // 2)]
    for Z, (i, j) in zip(out, itertools.combinations(range(n), 2)):
        Z[i, j], Z[j, i] = 1.0, -1.0
    return out


def closure_scan(basis, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Least-squares test that all pairwise brackets stay in the span.

    Returns (closed, worst residual), the answers of :func:`is_closed_under_bracket` and
    :func:`bracket_closure_defect` from one scan.  The basis is balanced by the k of
    :func:`matcore.unit_exponent`, an automorphism of the bracket, and each
    generator is divided by the power of two of its largest entry, which
    keeps the span: no time unit or power-of-two scale changes the verdict,
    which compares each residual against tol * (1 + |bracket|).  The worst
    residual is that of the balanced basis (inf past the float range).  All
    m (m - 1) / 2 brackets are formed at once: memory grows like m^2 (n+1)^2.
    """
    _check_tol(tol)
    stack = matcore.as_square_stack(np.array(basis, dtype=float))
    matcore.balance(stack, matcore.unit_exponent(*matcore.mixing_maxima(stack)))
    stack, e = matcore.scaled(stack, (-2, -1))
    _, s, vt = np.linalg.svd(stack.reshape(len(stack), -1), full_matrices=False)
    Q = vt[s > tol * s[0]]
    i, j = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(len(stack)), 2)),
                       np.intp, len(stack) * (len(stack) - 1)).reshape(-1, 2).T  # row-major pairs
    w = matcore.bracket(stack[i], stack[j]).reshape(len(i), stack[0].size)
    resid = np.linalg.norm(w - (w @ Q.T) @ Q, axis=1)
    closed = bool(np.all(resid <= tol * (1.0 + np.linalg.norm(w, axis=1))))
    with np.errstate(over="ignore"):  # [2^e_i X, 2^e_j Y] = 2^(e_i + e_j) [X, Y]
        return closed, float(np.ldexp(resid, e[i] + e[j]).max(initial=0.0))


def is_closed_under_bracket(basis, tol: float = DEFAULT_TOL) -> bool:
    """Whether the span of ``basis`` is closed under the bracket.  Rank-deficient
    inputs are fine: the span is what is tested."""
    return closure_scan(basis, tol)[0]


def bracket_closure_defect(basis, tol: float = DEFAULT_TOL) -> float:
    """Largest distance of any pairwise bracket from the span of ``basis``, in the balanced
    time unit of :func:`closure_scan`: 4^j times as far for 2^j times the basis."""
    return closure_scan(basis, tol)[1]


class _Verdicts(NamedTuple):
    """What :func:`_verdicts` reads of each set, one entry per set of a stack in stack order
    (numpy values of shape () for one set): the outcome strings, sigma and the spread of the
    row sigmas (to be read where the outcome is Kinematical), the rank of the non-rotation
    span, its m0, m2 and m3 norms (see ClassificationResult) and the reason (None unless the
    outcome is NotKinematical)."""

    outcome: np.ndarray
    sigma: np.ndarray
    spread: np.ndarray
    rank: np.ndarray
    m0: np.ndarray
    m2: np.ndarray
    m3: np.ndarray
    reason: np.ndarray


_OUTCOMES = np.array([OUTCOME_KINEMATICAL, OUTCOME_ARISTOTLE, OUTCOME_NOT_KINEMATICAL])


def _verdicts(stack: np.ndarray, tol: float) -> _Verdicts:
    """The verdicts of :func:`classify_algebra` on the float (m, n+1, n+1) set, or on each set of
    the (T, m, n+1, n+1) stack, which it overwrites.  The stack and tol are taken as they come:
    classify_algebra checks them first.  Pass the stack as the only reference to it, so that
    its matrices are freed before the SVD."""
    m, n = stack.shape[-3], stack.shape[-1] - 1
    # Every threshold below is relative, so the scaled sets get the same verdicts.
    matcore.scaled(stack, (-3, -2, -1), out=stack)
    b, c = matcore.mixing_maxima(stack, (-2, -1))
    k = _time_unit(b, c, n)
    if balanced := np.count_nonzero(k):  # faster than any() on small arrays
        matcore.balance(stack, k[..., np.newaxis, np.newaxis])
    scale = np.maximum.reduce(matcore.op_norm(stack, 2), -1)
    # A set whose balanced mixing content would fall under the cut keeps its own unit.
    undo = k * (np.maximum(np.ldexp(b, k), np.ldexp(c, -k)) <= tol * scale) if balanced else k
    if balanced and np.count_nonzero(undo):
        matcore.balance(stack, -undo[..., np.newaxis, np.newaxis])
        k, scale = k - undo, np.maximum.reduce(matcore.op_norm(stack, 2), -1)
    rows = isotypic._coordinates(stack)[1]
    del stack  # free the matrices before the SVD
    rows = rows.compress(rows.reshape(-1, m, rows.shape[-1]).any(axis=(0, 2)), -2)
    reason = np.empty(k.shape, dtype=object)  # None in every set
    if not rows.shape[-2]:  # no set has content beyond the rotations: each is Aristotle's
        rank, zero = np.zeros(k.shape, dtype=int), np.zeros(k.shape)
        return _Verdicts(_OUTCOMES[rank + 1], zero + math.nan, zero + math.nan, rank, zero, zero,
                         zero, reason)
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    live = s > (tol * scale)[..., np.newaxis]
    basis = vt * live[..., np.newaxis]  # the rows under the cut are zero
    rank = np.add.reduce(live, -1)
    norms = np.sqrt(np.maximum.reduce(np.add.reduceat(basis * basis, (0, 2, 2 + n * n), -1), -2))
    m0, m2, m3 = norms[..., 0], norms[..., 1], norms[..., 2]
    refused = (m0 > tol) | (m2 > tol)
    judged = (rank > 0) ^ refused  # a set of no rank has zero norms: never refused here
    for i in refused.reshape(-1).nonzero()[0].tolist():
        x, y, _ = norms.reshape(-1, 3)[i].tolist()
        key, name, norm = ("m0", "scalar", x) if x > tol else ("m2", "traceless symmetric", y)
        reason.reshape(-1)[i] = f"{name} ({key}) content present: norm {norm:.3e}"
    if np.count_nonzero(judged):
        sigma, spread, failed, reasons = _sigma_and_rows(basis[..., -2 * n:], tol, k, judged)
        refused = refused | failed
        for i, text in reasons.items():
            reason.reshape(-1)[i] = text
    else:
        sigma = spread = m3 + math.nan  # NaN in every set
    return _Verdicts(_OUTCOMES[2 * refused.astype(int) + (rank == 0)], sigma, spread, rank, m0,
                     m2, m3, reason)


def _generator_sets(generators, tol: float) -> np.ndarray:
    """generators as a new float (m, n+1, n+1) set or (T, m, n+1, n+1) stack of sets, m >= 1 and
    n >= 2 (else ValueError), once tol is checked."""
    _check_tol(tol)
    stack = matcore.as_square_stack(np.array(generators, dtype=float))
    if stack.ndim not in (3, 4) or not stack.shape[-3] or stack.shape[-1] < 3:
        raise ValueError("classification takes (m, n+1, n+1) sets, m >= 1 and n >= 2, "
                         f"or a stack of them, got shape {stack.shape}")
    return stack


def classify_algebra(generators, tol: float = DEFAULT_TOL
                     ) -> ClassificationResult | list[ClassificationResult]:
    """Decide which kinematical algebra the generators span together with
    the rotations, which are adjoined.  generators: one set of m >= 1 square
    matrices of one dimension n+1 >= 3 (a list or an (m, n+1, n+1) array),
    giving one result, or a (T, m, n+1, n+1) stack of sets, giving a list of
    T results, each that of its set alone.  tol: the relative tolerance of
    every threshold.  Failures are a result "NotKinematical", not a raise.

    Each set is first divided by the power of two that brings its largest
    entry into [1/2, 1), which is exact: 2^j times a set gets that set's
    result bit for bit.  It is judged in the time unit that levels its
    largest |b| and |c| entries, its sigma mapped back, unless |b| <=
    (n+1) eps |c| (a Carroll set) or its balanced mixing content would
    fall under the cut.  The non-rotation parts m0 + m2 + m3 of the
    generators become rows of coordinates, isometric to the Frobenius
    norm; rows zero in every set are dropped.  One stacked SVD keeps an
    orthonormal basis of each set's span above tol times its largest
    generator norm: scalar or traceless symmetric content is rejected, no
    content is the Aristotle case, and the mixing rows (b, c) of the basis
    give sigma: Carroll rows have |b| <= tol |c|, the others must be
    collinear and agree within tol, and sigma is their fit
    sum(b.c) / sum(|b|^2) (the rule in full: ``_sigma_and_rows``).  Those
    boosts and the rotations close (module docstring): no closure check.
    """
    verdicts = _verdicts(_generator_sets(generators, tol), tol)
    if verdicts.outcome.ndim:
        return [_result(*entries) for entries in zip(*(v.tolist() for v in verdicts))]
    outcome, sigma, spread, rank, m0, m2, m3, reason = verdicts
    return _result(str(outcome), float(sigma), float(spread), int(rank), float(m0), float(m2),
                   float(m3), reason[()])


def _result(outcome, sigma, spread, rank, m0, m2, m3, reason) -> ClassificationResult:
    """The ClassificationResult of one set's entries of :func:`_verdicts`."""
    diagnostics = {"rank": float(rank), "m0": m0, "m2": m2, "m3": m3}
    if outcome != OUTCOME_KINEMATICAL:
        return ClassificationResult(outcome, None, reason, diagnostics)
    diagnostics["sigma_spread"] = spread
    return ClassificationResult(outcome, Sigma(sigma), None, diagnostics)
