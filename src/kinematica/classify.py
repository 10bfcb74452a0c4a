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
    function that takes a sigma reads it here, the one place that refuses NaN and -inf
    (ValueError)."""
    if sigma > 0.0:
        return CaseLabel.LORENTZ if sigma < math.inf else CaseLabel.CARROLL
    if sigma < 0.0 and sigma > -math.inf:
        return CaseLabel.ORTHOGONAL
    if sigma == 0.0:
        return CaseLabel.GALILEI
    raise ValueError("sigma must be a real number or +inf")


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
    bad = 2.0 * (bb * cc - bc * bc) > tol * (1.0 + nb * nb * nc * nc)
    rows = np.divide(bc, nb * nb, out=np.full(bc.shape, np.inf), where=nb > tol * nc)
    rows[bad], rows[bb + cc == 0.0] = -np.inf, np.nan
    return rows


def _time_unit(b, c, n: int):
    """balance's k that levels the largest mixing entries |b| and |c| of (n+1)-dimensional
    sets, but 0 where |b| is rounding next to |c|, |b| <= (n+1) eps |c|: the Carroll guard."""
    return matcore.unit_exponent(b, c) * (b > (n + 1) * math.ulp(1.0) * c)


def _sigma_and_rows(pairs, tol: float, k) -> list:
    """The sigma rule of :func:`classify_algebra`, for each set of rows b then c, of entries at
    most 1, of the (..., r, 2n) array pairs, judged in the time unit of its k (one per set):
    (sigma mapped back by 4^k, spread of the row sigmas) for a set that passes, (None, reason)
    for one that fails.  A row is Carroll when |b| <= tol |c|, and collinear when
    2 (|b|^2 |c|^2 - (b.c)^2) <= tol (1 + |b|^2 |c|^2).  Both tests are relative to the set,
    which classify_algebra divided by the power of two of its largest entry, so a row whose
    squares underflow there (below about 1e-154 of that entry) is skipped, as a zero row is.
    Sigma is inf when every row is Carroll; else the row ratios (b.c)/|b|^2 must lie within
    tol (1 + |min| + |max|) of each other, and sigma is the fit sum(b.c) / sum(|b|^2), finite up
    to the Carroll guard of _time_unit (|sigma| about 1 / ((n+1) eps), at least 3e14)."""
    n = pairs.shape[-1] // 2
    products = bb, _, bc = [np.vecdot(pairs[..., i:i + n], pairs[..., j:j + n])
                            for i, j in ((0, 0), (n, n), (0, n))]
    rows = _row_sigmas(*products, tol)
    out = []
    for i, (lo, hi, fit_bc, fit_bb, k) in enumerate(zip(*(x.reshape(-1).tolist() for x in (
            np.fmin.reduce(rows, axis=-1), np.fmax.reduce(rows, axis=-1),
            bc.sum(axis=-1), bb.sum(axis=-1), np.asarray(k))))):
        # Finite rows are below n 2^537 (b.b >= 2^-1074) and the Carroll guard of
        # _time_unit keeps 4^k <= 2^52, so mapping back cannot overflow.
        back = math.ldexp(lo, 2 * k), math.ldexp(hi, 2 * k)
        if lo == -math.inf:  # a non-collinear row, of which the first is named
            x, y, xy = (p[i, (rows[i] == -math.inf).argmax()] for p in products)  # b.b, c.c, b.c
            out.append((None, "mixing vectors are not collinear (relative defect "
                              f"{2.0 * (x * y - xy * xy) / (x * y):.3e})"))
        elif lo < math.inf and (hi == math.inf or hi - lo > tol * (1.0 + abs(lo) + abs(hi))):
            out.append((None, f"mixing generators disagree on sigma: {back[0]!r} vs {back[1]!r}"))
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
    i, j = np.triu_indices(len(stack), 1)
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
    _check_tol(tol)
    stack = matcore.as_square_stack(np.array(generators, dtype=float))
    m, n = stack.shape[-3] if stack.ndim > 2 else 0, stack.shape[-1] - 1
    if stack.ndim > 4 or not m or n < 2:
        raise ValueError("classification takes (m, n+1, n+1) sets, m >= 1 and n >= 2, "
                         f"or a stack of them, got shape {stack.shape}")
    # Every threshold below is relative, so the scaled sets get the same verdicts.
    matcore.scaled(stack, (-3, -2, -1), out=stack)
    b, c = matcore.mixing_maxima(stack, (-2, -1))
    k = _time_unit(b, c, n)
    if balanced := np.count_nonzero(k):  # faster than any() on small arrays
        matcore.balance(stack, k[..., np.newaxis, np.newaxis])
    scale = matcore.op_norm(stack, 2).max(-1)
    # A set whose balanced mixing content would fall under the cut keeps its own unit.
    undo = k * (np.maximum(np.ldexp(b, k), np.ldexp(c, -k)) <= tol * scale) if balanced else k
    if balanced and np.count_nonzero(undo):
        matcore.balance(stack, -undo[..., np.newaxis, np.newaxis])
        k, scale = k - undo, matcore.op_norm(stack, 2).max(-1)
    rows = isotypic._coordinates(stack)[1]
    del stack  # free the matrices before the SVD
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
        outcomes = _sigma_and_rows(basis[..., -2 * n:].reshape(k.size, -1, 2 * n), tol, k)
    results = []
    for r, (m0, m2, m3), (sigma, detail) in zip(rank, norms, outcomes):
        result = ClassificationResult(OUTCOME_ARISTOTLE if not r else OUTCOME_NOT_KINEMATICAL,
                                      diagnostics={"rank": float(r), "m0": m0, "m1": 0.0,
                                                   "m2": m2, "m3": m3})
        if r and max(m0, m2) > tol:
            key, content, norm = (("m0", "scalar", m0) if m0 > tol
                                  else ("m2", "traceless symmetric", m2))
            result.reason = f"{content} ({key}) content present: norm {norm:.3e}"
        elif r and sigma is None:
            result.reason = detail
        elif r:
            result.outcome, result.sigma = OUTCOME_KINEMATICAL, Sigma(sigma)
            result.diagnostics["sigma_spread"] = detail
        results.append(result)
    return results if k.ndim else results[0]
