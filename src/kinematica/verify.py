"""Self-contained property suite over randomized inputs.

Each property draws from one generator seeded by (seed, property number),
takes its group members (P3: generator sets) from that generator in one
stack per dimension and case, judges each stack in whole-array calls where
the functions under test take stacks, accumulates the worst residual it
sees and the number of values it judged, and reports pass/fail against
the configured tolerance.  Failures never raise: they land in the
report, together with a counterexample payload of the matrices involved,
so a corrupted build shows up as a readable report entry and a nonzero
exit from the command line wrapper.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from . import affine, classify, groups, isotypic, matcore
from .classify import DEFAULT_TOL, CaseLabel, SIGMA_INF, Sigma, as_sigma, case_of_sigma

__all__ = [
    "PropertyResult",
    "SuiteConfig",
    "SuiteReport",
    "nonalgebra_witness",
    "run_suite",
    "wraparound_demo",
]

_DEFAULT_SIGMAS = (1.0, 0.5, -1.0, 0.0, math.inf)


@dataclass
class SuiteConfig:
    """Knobs for :func:`run_suite`.

    sigma_values accepts floats (inf included) or Sigma instances; n_values,
    trials and seed integers, numpy ones too.  With the property's number,
    seed (>= 0) seeds one generator per property: a report is reproducible.
    """

    n_values: tuple = (2, 3)
    sigma_values: tuple = _DEFAULT_SIGMAS
    trials: int = 25
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        try:
            self.n_values = tuple(operator.index(n) for n in self.n_values)
            self.trials, self.seed = operator.index(self.trials), operator.index(self.seed)
        except TypeError as error:
            raise ValueError(f"n_values, trials and seed must be integers: {error}") from None
        if not self.n_values or min(self.n_values) < 2:
            raise ValueError("n_values must contain integers >= 2")
        if isinstance(self.sigma_values, (str, bytes)):  # else read one character at a time
            raise ValueError("sigma_values must be a sequence of numbers, not a string")
        self.sigma_values = tuple(as_sigma(s) for s in self.sigma_values)
        if not self.sigma_values:
            raise ValueError("sigma_values must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "sigma_values": [s.json_value() for s in self.sigma_values],
            "trials": self.trials,
            "tol": self.tol,
            "seed": self.seed,
        }


@dataclass
class PropertyResult:
    passed: bool
    worst_residual: float
    counterexample: dict | None = None
    checks: int = 0  # residual and flag values judged


@dataclass
class SuiteReport:
    config: SuiteConfig
    results: dict = field(default_factory=dict)
    descriptions: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_json_dict(self) -> dict:
        props = {}
        for pid, res in self.results.items():
            entry = {
                "pass": res.passed,
                "worst_residual": (res.worst_residual if math.isfinite(res.worst_residual)
                                   else "inf"),  # Infinity is not JSON
                "checks": res.checks,
                "description": self.descriptions.get(pid, ""),
            }
            if res.counterexample is not None:
                entry["counterexample"] = res.counterexample
            props[pid] = entry
        return {
            "pass": self.passed,
            "config": self.config.to_json_dict(),
            "properties": props,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _json_item(value, i: int):
    """A payload entry as JSON holds it: the row i of an ndarray, a Sigma's value."""
    if isinstance(value, np.ndarray):
        return value[i:i + 1].tolist()[0]  # Python scalars and lists, whatever the dtype
    return value.json_value() if isinstance(value, Sigma) else value


class _Check:
    """Accumulates residuals, how many were judged, and the counterexample at
    the worst failure into one PropertyResult."""

    def __init__(self, tol: float):
        self.tol = tol
        self._result = PropertyResult(True, 0.0)

    def residual(self, values, payload: dict | None = None):
        """Judge one value or an array of them; a NaN fails as inf.  payload is the
        counterexample: each ndarray in it holds one row per value judged, and only the
        row of the worst value is read, when that value fails and is the worst yet."""
        values = np.asarray(values, dtype=float).ravel()
        result = self._result
        result.checks += values.size
        if not values.size:
            return
        i = int(values.argmax())  # the first NaN, if there is one
        value = math.inf if math.isnan(values[i]) else float(values[i])
        failing = value > self.tol
        if value > result.worst_residual:
            result.worst_residual = value
            if failing and payload is not None:
                result.counterexample = {key: _json_item(item, i)
                                         for key, item in payload.items()}
        if failing:
            result.passed = False

    def flag(self, ok, payload: dict | None = None):
        self.residual(np.where(ok, 0.0, 1.0), payload)

    def result(self) -> PropertyResult:
        return self._result


def _members(rng: np.random.Generator, case: CaseLabel, s: Sigma | None, n: int,
             bound: float, count: int) -> np.ndarray:
    """A (count, n+1, n+1) stack of random members, drawn in one call.

    For sigma > 0, |b| is bounded by bound / sqrt(sigma), so the rapidity
    |b| sqrt(sigma) is at most bound at every sigma; a bound on |b| alone
    lets it grow like sqrt(sigma), past what membership can resolve."""
    if s is not None and s.is_finite and s.value > 0.0:
        bound /= math.sqrt(s.value)
    return groups.random_element(case, s, n, bound, rng, size=count)


def _units(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A stack of random unit vectors, the last axis of shape."""
    v = rng.standard_normal(shape)
    return v / matcore.op_norm(v, 1)[..., None]


def _sigmas(cfg: SuiteConfig, *cases: CaseLabel) -> list[Sigma]:
    """The sigma values of cfg whose case is one of cases, in cfg's order."""
    return [s for s in cfg.sigma_values if case_of_sigma(s) in cases]


def _cases(cfg: SuiteConfig) -> list[tuple[CaseLabel, Sigma | None]]:
    pairs = dict.fromkeys((case_of_sigma(s), s) for s in cfg.sigma_values)  # first seen first
    return list(pairs) + [(CaseLabel.ARISTOTLE, None)]


def _run(fn, cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    """Run property fn(cfg, rng, check, n) at each n of cfg, drawing from rng, into one check."""
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        fn(cfg, rng, check, n)
    return check.result()


def _prop_isotypic(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    rotations = _members(rng, CaseLabel.ARISTOTLE, None, n, 0.0, cfg.trials)
    Z = rng.standard_normal((cfg.trials, n + 1, n + 1))
    R, eps = rotations[:, :n, :n], rotations[:, n, n].astype(int)
    parts = isotypic.split(Z)
    moved = isotypic.split(isotypic.ad_rotation(R, eps, Z))
    resid = np.max([
        matcore.op_norm(isotypic.merge(parts) - Z, 2),
        abs(moved.lam - parts.lam),
        abs(moved.mu - parts.mu),
        matcore.op_norm(moved.m1 - R @ parts.m1 @ R.mT, 2),
        matcore.op_norm(moved.m2 - R @ parts.m2 @ R.mT, 2),
        matcore.op_norm(moved.b - eps[:, None] * (R @ parts.b[..., None])[..., 0], 1),
        matcore.op_norm(moved.c - eps[:, None] * (R @ parts.c[..., None])[..., 0], 1),
    ], axis=0)
    check.residual(resid, {"Z": Z, "R": R, "eps": eps})


def _prop_collinearity(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in cfg.sigma_values:
        b = rng.standard_normal((cfg.trials, n))  # pairs in the balanced unit of sigma
        bs, cs = (np.zeros_like(b), b) if s.is_infinite else (b, matcore.sigma_unit(s.value)[1] * b)
        defects = classify.collinearity_defect(bs, cs)
        check.residual(abs(defects) / (1.0 + np.vecdot(bs, bs) * np.vecdot(cs, cs)),
                       {"b": bs, "c": cs, "sigma": s})
        # The doubled commutator of a general mixing generator with the
        # rotation it spawns reproduces the defect in its corner.
        b2, c2 = rng.standard_normal((2, cfg.trials, n))
        _, _, corners = _doubled_commutator(b2, c2)
        closed = classify.collinearity_defect(b2, c2)
        check.residual(abs(corners - closed) / (1.0 + abs(closed)), {"b": b2, "c": c2})


def _generated_bases(n: int, s: Sigma, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, m, n+1, n+1) stack of sets drawn in whole arrays: the rotations and n boosts
    of sigma s (p_generator of b) along random b, each scaled by a factor in [1/4, 4]."""
    b = rng.standard_normal((count, n, n)) * rng.uniform(0.25, 4.0, (count, n, 1))
    boosts = groups.p_generator(b, s)
    rotations = classify.rotation_generators(n)
    return np.concatenate((np.broadcast_to(rotations, (count,) + np.shape(rotations)), boosts), 1)


def _prop_classification(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    result = classify.classify_algebra(classify.rotation_generators(n), cfg.tol)
    check.flag(result.outcome == classify.OUTCOME_ARISTOTLE, {"n": n})
    for s in cfg.sigma_values:
        results = classify.classify_algebra(_generated_bases(n, s, rng, cfg.trials), cfg.tol)
        outcome = np.array([r.outcome for r in results])
        reason = np.array([r.reason for r in results], dtype=object)
        check.flag([r.is_kinematical and classify.case_label(r) == case_of_sigma(s)
                    for r in results], {"n": n, "sigma": s, "outcome": outcome, "reason": reason})
        read = [i for i, r in enumerate(results) if r.is_kinematical]
        got = np.array([results[i].sigma.value for i in read])
        err = (np.where(np.isinf(got), 0.0, 1.0) if s.is_infinite
               else abs(got - s.value) / (1.0 + abs(s.value)))
        check.residual(err, {"n": n, "sigma": s, "outcome": outcome[read],
                             "reason": reason[read]})


def _prop_normalizer(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in _sigmas(cfg, CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
        members = _members(rng, case_of_sigma(s), s, n, 2.0, cfg.trials)
        scales = 10.0 ** rng.uniform(-8.0, 8.0, cfg.trials)
        ok, lam = groups.in_normalizer(members, s, cfg.tol)
        ok2, lam2 = groups.in_normalizer(np.sqrt(scales)[:, None, None] * members, s, cfg.tol)
        check.flag(ok, {"a": members, "sigma": s})
        check.residual(abs(lam - 1.0), {"a": members, "sigma": s, "lam": lam})
        check.flag(ok2, {"a": members, "sigma": s, "lam0": scales})
        check.residual(abs(lam2 - scales) / (1.0 + scales),
                       {"a": members, "sigma": s, "lam0": scales, "lam2": lam2})


def _prop_cartan(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in _sigmas(cfg, CaseLabel.LORENTZ):
        k = _members(rng, CaseLabel.ARISTOTLE, None, n, 0.0, cfg.trials)
        lam = rng.uniform(0.1, 10.0, cfg.trials)
        b = _units(rng, (cfg.trials, n)) * rng.uniform(0.0, 4.0 / math.sqrt(s.value),
                                                      (cfg.trials, 1))
        Z = groups.p_generator(b, s)
        a = groups.CartanFactors(lam, k, Z).reconstruct()
        factors = groups.cartan_decompose(a, s, cfg.tol)
        resid = np.max([
            matcore.op_norm(factors.k - k, 2),
            matcore.op_norm(_balanced(factors.Z - Z, s), 2),
            abs(factors.lam - lam) / (1.0 + lam),
            matcore.op_norm(_balanced(factors.reconstruct() - a, s), 2)
            / (1.0 + matcore.op_norm(_balanced(a, s), 2)),
        ], axis=0)
        check.residual(resid, {"a": a, "k": k, "Z": Z, "lam": lam, "sigma": s})


def _balanced(x: np.ndarray, s: Sigma) -> np.ndarray:
    """A copy of x in the balanced time unit of sigma (see matcore.sigma_unit)."""
    return matcore.balance(np.array(x, dtype=float), matcore.sigma_unit(s.value)[0])


def _prop_closure(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for case, s in _cases(cfg):
        members = _members(rng, case, s, n, 2.0, 2 * cfg.trials)
        g1, g2 = members[:cfg.trials], members[cfg.trials:]
        products = groups.membership(g1 @ g2, case, s, cfg.tol)
        inverses = groups.membership(np.linalg.inv(g1), case, s, cfg.tol)
        check.flag(products & inverses, {"g1": g1, "g2": g2, "case": case.value})


def _prop_pure_rotations(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for case, s in _cases(cfg):
        a = _members(rng, case, s, n, 0.0, cfg.trials)
        A = a[:, :n, :n]
        resid = np.max([
            matcore.op_norm(a[:, :n, n], 1),
            matcore.op_norm(a[:, n, :n], 1),
            matcore.op_norm(A.mT @ A - np.eye(n), 2),
            abs(abs(a[:, n, n]) - 1.0),
        ], axis=0)
        check.residual(resid, {"a": a, "case": case.value})
        check.flag(groups.in_K(a, cfg.tol), {"a": a, "case": case.value})


def _prop_invariants(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in cfg.sigma_values:
        a = _members(rng, case_of_sigma(s), s, n, 2.0, cfg.trials)
        if s.is_finite and s.value != 0.0:  # judged in the balanced unit of sigma
            g, x = np.diag(np.r_[np.full(n, -matcore.sigma_unit(s.value)[1]), 1.0]), _balanced(a, s)
            resid = matcore.op_norm(x.mT @ g @ x - g, 2) / (1.0 + matcore.op_norm(g))
            check.residual(resid, {"a": a, "sigma": s})
        elif s.is_finite:
            # Galilei: the last row is (0, ..., 0, +-1) exactly by
            # construction, so time differences change at most sign.
            exact = matcore.op_norm(a[:, n, :n], 1) + abs(abs(a[:, n, n]) - 1.0)
            check.flag(exact == 0.0, {"a": a, "sigma": s})
        else:
            # Carroll: spatial separations are preserved.
            x, y = rng.standard_normal((2, cfg.trials, n + 1, 1))
            before = matcore.op_norm((x - y)[:, :n, 0], 1)
            after = matcore.op_norm((a @ x - a @ y)[:, :n, 0], 1)
            check.residual(abs(after - before) / (1.0 + before), {"a": a, "sigma": s})


def _random_affine(n: int, rng: np.random.Generator, count: int) -> affine.AffineElement:
    """A stack of count affine maps of dimension n + 1, each linear part redrawn until
    |det| > 0.1."""
    L = rng.standard_normal((count, n + 1, n + 1))
    while (redraw := abs(np.linalg.det(L)) <= 0.1).any():
        L[redraw] = rng.standard_normal((np.count_nonzero(redraw), n + 1, n + 1))
    return affine.AffineElement(L, rng.standard_normal((count, n + 1)))


def _prop_affine(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    g, h, w = (_random_affine(n, rng, cfg.trials) for _ in range(3))
    gh_w = affine.compose(affine.compose(g, h), w)
    g_hw = affine.compose(g, affine.compose(h, w))
    ident = affine.compose(g, affine.inverse(g))
    x = affine.Event(rng.standard_normal((cfg.trials, n)), rng.standard_normal(cfg.trials))
    gh_x = affine.act(affine.compose(g, h), x).vector()
    g_hx = affine.act(g, affine.act(h, x)).vector()
    step = rng.standard_normal((cfg.trials, n + 1))
    # x, x + step and x + 2 step as one (3, trials) stack of events, each under its g
    q0, q1, q2 = affine.act(g, affine.Event.from_vector(
        x.vector() + np.multiply.outer([0.0, 1.0, 2.0], step))).vector()
    resid = np.max([
        matcore.op_norm(gh_w.linear - g_hw.linear, 2),
        matcore.op_norm(gh_w.translation - g_hw.translation, 1),
        matcore.op_norm(ident.linear - np.eye(n + 1), 2),
        matcore.op_norm(ident.translation, 1),
        matcore.op_norm(gh_x - g_hx, 1),
        matcore.op_norm((q2 - q0) - 2.0 * (q1 - q0), 1),
    ], axis=0)
    scale = 1.0 + matcore.op_norm(g.linear, 2) * (1.0 + matcore.op_norm(step, 1))
    check.residual(resid / scale, {"g_linear": g.linear, "h_linear": h.linear})
    for s in _sigmas(cfg, CaseLabel.LORENTZ):  # judged in the balanced unit of sigma
        c = 1.0 / math.sqrt(matcore.sigma_unit(s.value)[1])
        members = _members(rng, CaseLabel.LORENTZ, s, n, 3.0, cfg.trials)
        gmap = affine.AffineElement(_balanced(members, s),
                                    rng.standard_normal((cfg.trials, n + 1)))
        # a null and a slow line through random origins, one (2, trials) stack
        origins = affine.Event(rng.standard_normal((2, cfg.trials, n)),
                               rng.standard_normal((2, cfg.trials)))
        velocities = np.array([c, 0.5 * c])[:, None, None] * _units(rng, (2, cfg.trials, n))
        null, slow = affine.transform_worldline(
            gmap, affine.WorldLine(origins, velocity=velocities)).speed()
        check.residual(abs(null - c) / (1.0 + c), {"a": members, "sigma": s})
        check.flag(slow < c, {"a": members, "sigma": s})


def _prop_negative_controls(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # One stack: boosts plus m0, boosts plus m2, two sigmas; zero generators pad them.
    base = _generated_bases(n, Sigma(1.0), rng, 1)[0]
    sets = np.zeros((3, len(base) + 1, n + 1, n + 1))
    sets[:2, :-1] = base
    sets[0, -1] = np.diag(np.r_[np.ones(n), 0.0])
    sets[1, -1] = np.diag(np.r_[1.0, -1.0, np.zeros(n - 1)])
    sets[2, :len(base) - n + 2] = classify.rotation_generators(n) + [
        groups.p_generator(rng.standard_normal(n), s) for s in (1.0, 2.0)]
    for name, r in zip(("m0", "m2", "mixed sigma"), classify.classify_algebra(sets, cfg.tol)):
        check.flag(r.outcome == classify.OUTCOME_NOT_KINEMATICAL,
                   {"n": n, "contaminant": name, "outcome": r.outcome})
    _, _, corner = nonalgebra_witness(n)
    check.residual(abs(corner - 2.0), {"n": n, "corner": corner})
    span = _mixing_span_basis(n)
    check.flag(not classify.is_closed_under_bracket(span, cfg.tol), {"n": n})
    check.flag(classify.bracket_closure_defect(span, cfg.tol) >= 1.0, {"n": n})


def _mixing_span_basis(n: int) -> list[np.ndarray]:
    """Basis of rotations plus the full mixing component, which is not a
    subalgebra."""
    basis = classify.rotation_generators(n)
    for e in np.eye(n):
        basis += [groups.p_generator(e, 0.0), groups.p_generator(e, SIGMA_INF)]
    return basis


def _wrap_sigmas(cfg: SuiteConfig) -> list[Sigma]:
    """The sigmas < 0 of cfg whose period scale wraparound_demo takes (see _wrap_sigma)."""
    return [s for s in _sigmas(cfg, CaseLabel.ORTHOGONAL) if _wrap_sigma(s.rotation_scale)[1]]


def _wrap_sigma(C: float) -> tuple[float, bool]:
    """wraparound_demo's sigma = -1/C^2, and whether it is the normal float the demo needs."""
    r = 1.0 / C  # where C * C would overflow or underflow, r * r may not
    return -(r * r), sys.float_info.min <= r * r < math.inf


def _prop_wraparound(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in _wrap_sigmas(cfg):
        C = s.rotation_scale
        u = _units(rng, (cfg.trials, n))
        M = wraparound_demo(C, u, cfg.tol)
        expected = np.zeros(M.shape)  # the reflection through the plane normal to u
        expected[:, :n, :n] = np.eye(n) - 2.0 * u[:, :, None] * u[:, None, :]
        expected[:, n, n] = -1.0  # and time reversed
        check.residual(matcore.op_norm(_balanced(M - expected, s), 2), {"u": u, "C": C})
        full = groups.boost_closed_form(2.0 * math.pi * C * u, s)
        check.residual(matcore.op_norm(_balanced(full - np.eye(n + 1), s), 2), {"u": u, "C": C})


def wraparound_demo(C: float, u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boost of norm pi * C for sigma = -1/C^2 along the unit vector u, or one such
    boost per row of an (..., n) stack of them.

    The result is a block rotation: the spatial block reflects through the
    plane normal to u (determinant -1) and the corner entry is -1, a time
    reversal.  Raises ValueError if C is not positive or sigma is not a
    normal float, and, naming the first failing row of a stack, if u is not
    a unit vector or the result, in the balanced time unit of sigma, fails
    the block test.
    """
    if not (C > 0):
        raise ValueError("C must be positive")
    sigma, normal = _wrap_sigma(C)
    if not normal:
        raise ValueError(f"C = {C!r} gives sigma = -1/C^2 = {sigma!r}, not a normal float")
    sigma = Sigma(sigma)
    u = np.asarray(u, dtype=float)
    matcore.refuse(abs(matcore.op_norm(u, 1) - 1.0) > 1e-12, "u must be a unit vector")
    n = u.shape[-1]
    M = groups.boost_closed_form(math.pi * C * u, sigma)
    matcore.refuse(np.logical_not(groups.in_K(_balanced(M, sigma), tol)),
                   "wrap-around boost did not land in the rotation block")
    matcore.refuse((abs(M[..., n, n] + 1.0) > tol)
                   | (abs(np.linalg.det(M[..., :n, :n]) + 1.0) > tol),
                   "wrap-around boost has the wrong reflection structure")
    return M


def nonalgebra_witness(n: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Witness that rotations plus the full mixing component do not close.

    Returns (Z, A, corner): a mixing generator Z built from the first two
    coordinate vectors, the rotation A their bracket produces, and the
    corner entry of [Z, [Z, A]], which equals 2 and therefore sticks out
    of the mixing-plus-rotation span.
    """
    if n < 2:
        raise ValueError("need at least two space dimensions")
    e = np.eye(n)
    Z, A, corner = _doubled_commutator(e[0], e[1])
    return Z, A, float(corner)


def _doubled_commutator(b: np.ndarray, c: np.ndarray):
    """The mixing generator Z with column b and row c, the rotation
    A = b c^T - c b^T that the bracket of two such generators spawns, and
    the corner entry of [Z, [Z, A]]; for (..., n) stacks of b and c, one
    of each per pair."""
    n = b.shape[-1]
    Z = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    Z[..., :n, n] = b
    Z[..., n, :n] = c
    A = np.zeros(Z.shape)
    A[..., :n, :n] = b[..., :, None] * c[..., None, :] - c[..., :, None] * b[..., None, :]
    return Z, A, matcore.bracket(Z, matcore.bracket(Z, A))[..., n, n]


_PROPERTIES = [
    ("P1", "isotypic split is complete and equivariant under block rotations",
     _prop_isotypic),
    ("P2", "boost generators are collinear; the doubled-commutator corner "
           "equals the collinearity defect", _prop_collinearity),
    ("P3", "generated algebras classify back to their case and sigma",
     _prop_classification),
    ("P4", "members pass the normalizer test with lam = 1 and scaled members "
           "return the scale", _prop_normalizer),
    ("P5", "Cartan factors are recovered from their product (sigma > 0)",
     _prop_cartan),
    ("P6", "products and inverses of members stay members", _prop_closure),
    ("P7", "members with vanishing mixing blocks are block rotations",
     _prop_pure_rotations),
    ("P8", "each case preserves its invariant structure", _prop_invariants),
    ("P9", "affine maps satisfy the group axioms, keep lines straight and "
           "preserve the invariant speed", _prop_affine),
    ("P10", "contaminated or mixed-sigma inputs are rejected and the "
            "non-closing span is detected", _prop_negative_controls),
]


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    """Run every property and collect a report.

    Failures (including unexpected exceptions inside a property) become
    report entries; this function itself does not raise on them.
    """
    if cfg is None:
        cfg = SuiteConfig()
    report = SuiteReport(config=cfg)
    jobs = list(_PROPERTIES)
    if _wrap_sigmas(cfg):
        jobs.append(("wraparound",
                     "boosts of norm pi times the period scale land in the "
                     "rotation block (sigma < 0)", _prop_wraparound))
    for pnum, (pid, description, fn) in enumerate(jobs, start=1):
        report.descriptions[pid] = description
        try:
            report.results[pid] = _run(fn, cfg, np.random.default_rng([cfg.seed, pnum]))
        except Exception as exc:  # a property must never take the suite down
            report.results[pid] = PropertyResult(
                False, math.inf, {"error": f"{type(exc).__name__}: {exc}"})
    return report
