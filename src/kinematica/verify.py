"""Self-contained property suite over randomized inputs.

Each property draws from one generator seeded by (seed, property number), taking its group
members (P3: generator sets) in one stack per dimension and case or sigma, in a fixed order.
Per dimension, it judges all stacks in one call to each function under test that takes no
sigma and no case (classify_algebra: as many as a memory budget holds) and splits the answers
back, so each check sees what a call on its stack alone gives.  It accumulates the worst
residual and the number of values judged, and reports pass/fail against the configured
tolerance.  Failures never raise: they land in the report, with a counterexample payload of
the matrices involved, so a corrupted build shows up as a readable report entry and a
nonzero exit from the command line wrapper.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import affine, classify, groups, isotypic, matcore
from .classify import DEFAULT_TOL, CaseLabel, _check_tol, case_of_sigma

__all__ = [
    "PropertyResult",
    "SuiteConfig",
    "SuiteReport",
    "nonalgebra_witness",
    "run_suite",
]

_DEFAULT_SIGMAS = (1.0, 0.5, -1.0, 0.0, math.inf)


@dataclass
class SuiteConfig:
    """Knobs for :func:`run_suite`.

    sigma_values takes real numbers, inf for Carroll; n_values, trials and
    seed integers, numpy ones too.  With the property's number,
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
        self.sigma_values = tuple(map(float, self.sigma_values))
        for s in self.sigma_values:
            case_of_sigma(s)  # refuses NaN and -inf
        if not self.sigma_values:
            raise ValueError("sigma_values must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_tol(self.tol)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "sigma_values": [_json_number(s) for s in self.sigma_values],
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
                "worst_residual": _json_number(res.worst_residual),
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


def _json_number(value):
    """value as JSON holds it, at any depth of a list: inf (Carroll's sigma), -inf and NaN
    spelled "inf", "-inf" and "nan", which JSON cannot spell."""
    if isinstance(value, list):
        return [_json_number(v) for v in value]
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _json_item(value, i: int):
    """A payload entry as JSON holds it: row i of an ndarray, else the value, by _json_number."""
    if isinstance(value, np.ndarray):
        value = value[i:i + 1].tolist()[0]  # Python scalars and lists, whatever the dtype
    return _json_number(value)


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


def _members(rng: np.random.Generator, case: CaseLabel, s: float | None, n: int,
             bound: float, count: int) -> np.ndarray:
    """A (count, n+1, n+1) stack of random members, drawn in one call.

    For sigma > 0, |b| is bounded by bound / sqrt(sigma), so the rapidity
    |b| sqrt(sigma) is at most bound at every sigma; a bound on |b| alone
    lets it grow like sqrt(sigma), past what membership can resolve."""
    if s is not None and 0.0 < s < math.inf:
        bound /= math.sqrt(s)
    return groups.random_element(case, s, n, bound, rng, size=count)


def _units(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A stack of random unit vectors, the last axis of shape."""
    v = rng.standard_normal(shape)
    return v / matcore.op_norm(v, 1)[..., None]


def _sigmas(cfg: SuiteConfig, *cases: CaseLabel) -> list[float]:
    """The sigma values of cfg whose case is one of cases, in cfg's order."""
    return [s for s in cfg.sigma_values if case_of_sigma(s) in cases]


def _cases(cfg: SuiteConfig) -> list[tuple[CaseLabel, float | None]]:
    pairs = dict.fromkeys((case_of_sigma(s), s) for s in cfg.sigma_values)  # first seen first
    return list(pairs) + [(CaseLabel.ARISTOTLE, None)]


def _run(fn, cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    """Run property fn(cfg, rng, check, n) at each n of cfg, drawing from rng, into one check."""
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        fn(cfg, rng, check, n)
    return check.result()


def _prop_isotypic(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    K = _members(rng, CaseLabel.ARISTOTLE, None, n, 0.0, cfg.trials)
    Z = rng.standard_normal((cfg.trials, n + 1, n + 1))
    R, eps = K[:, :n, :n], K[:, n, n].astype(int)
    pairs = np.stack((Z, K @ Z @ K.mT), 1)  # a new array, whose spatial rows the pass halves
    sizes = np.sum(pairs * pairs, (-2, -1))
    _, rows = isotypic._coordinates(pairs)
    half, j = pairs[..., :n, :n], 2 + n * n
    m1 = half - half.mT
    m2 = rows[..., 2:j].reshape(m1.shape)
    mixing = rows[..., j:].reshape(rows.shape[:-1] + (2, n))  # b over c
    resid = np.max([  # per trial: complete, scalars invariant, m1, m2, b and c equivariant
        np.max(abs(np.vecdot(rows, rows) + np.sum(m1 * m1, (-2, -1)) - sizes) / sizes, 1),
        np.max(abs(rows[:, 1, :2] - rows[:, 0, :2]), 1),
        matcore.op_norm(m1[:, 1] - R @ m1[:, 0] @ R.mT, 2),
        matcore.op_norm(m2[:, 1] - R @ m2[:, 0] @ R.mT, 2),
        np.max(matcore.op_norm(mixing[:, 1] - eps[:, None, None] * (mixing[:, 0] @ R.mT), 1), 1),
    ], axis=0)
    check.residual(resid, {"Z": Z, "R": R, "eps": eps})


def _prop_collinearity(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    pairs = np.empty((len(cfg.sigma_values), 2, 2, cfg.trials, n))  # per sigma, two (b, c)
    for (collinear, general), s in zip(pairs, cfg.sigma_values):  # in sigma's balanced unit
        b = rng.standard_normal((cfg.trials, n))
        collinear[:] = (np.zeros_like(b), b) if s == math.inf else (
            b, matcore.sigma_unit(s)[1] * b)
        general[:] = rng.standard_normal((2, cfg.trials, n))
    defects = classify.collinearity_defect(pairs[:, :, 0].reshape(-1, n),
                                           pairs[:, :, 1].reshape(-1, n)).reshape(-1, 2, cfg.trials)
    # The doubled commutator corner of a general pair's mixing generator reproduces its defect.
    _, _, corners = _doubled_commutator(pairs[:, 1, 0], pairs[:, 1, 1])
    for s, ((bs, cs), (b2, c2)), (defect, closed), corner in zip(
            cfg.sigma_values, pairs, defects, corners):
        check.residual(abs(defect) / (1.0 + np.vecdot(bs, bs) * np.vecdot(cs, cs)),
                       {"b": bs, "c": cs, "sigma": s})
        check.residual(abs(corner - closed) / (1.0 + abs(closed)), {"b": b2, "c": c2})


def _generated_bases(rotations, s: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, m, n+1, n+1) stack of sets drawn in whole arrays: the rotations of dimension n
    and n boosts of sigma s (p_generator of b) along random b, each scaled by [1/4, 4]."""
    n = len(rotations[0]) - 1
    b = rng.standard_normal((count, n, n)) * rng.uniform(0.25, 4.0, (count, n, 1))
    boosts = groups.p_generator(b, s)
    return np.concatenate((np.broadcast_to(rotations, (count,) + np.shape(rotations)), boosts), 1)


# Floats of generator sets per classify_algebra call in P3.  The call holds about three copies
# of them, so 2^18 (2 MiB) keeps n = 10 at one sigma a call (166,375 floats at 25 trials), the
# peak of a call per sigma, while all five default sigmas share one at n = 2 and 3 (2,400 a sigma).
_CLASSIFY_BUDGET = 2 ** 18


def _prop_classification(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # Consecutive sigmas' sets share a call, within _CLASSIFY_BUDGET, and split back per sigma.
    rotations = classify.rotation_generators(n)
    result = classify.classify_algebra(rotations, cfg.tol)
    check.flag(result.outcome == classify.OUTCOME_ARISTOTLE, {"n": n})
    t = cfg.trials
    step = max(1, _CLASSIFY_BUDGET // (t * (len(rotations) + n) * (n + 1) ** 2))
    for start in range(0, len(cfg.sigma_values), step):
        sigmas = cfg.sigma_values[start:start + step]
        results = classify.classify_algebra(np.concatenate(
            [_generated_bases(rotations, s, rng, t) for s in sigmas]), cfg.tol)
        outcome = np.array([r.outcome for r in results]).reshape(-1, t)
        reason = np.array([r.reason for r in results], dtype=object).reshape(-1, t)
        read = outcome == classify.OUTCOME_KINEMATICAL
        got = np.array([r.sigma.value if r.is_kinematical else 0.0 for r in results]).reshape(-1, t)
        labels = [classify.case_label(r) if r.is_kinematical else None for r in results]
        for i, (s, out, why, ok, g) in enumerate(zip(sigmas, outcome, reason, read, got)):
            case = case_of_sigma(s)
            check.flag([label == case for label in labels[i * t:(i + 1) * t]],
                       {"n": n, "sigma": s, "outcome": out, "reason": why})
            err = np.where(np.isinf(g[ok]), 0.0, 1.0) if s == math.inf else (
                abs(g[ok] - s) / (1.0 + abs(s)))
            check.residual(err, {"n": n, "sigma": s, "outcome": out[ok], "reason": why[ok]})


def _prop_normalizer(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in _sigmas(cfg, CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
        members = _members(rng, case_of_sigma(s), s, n, 2.0, cfg.trials)
        scales = 10.0 ** rng.uniform(-8.0, 8.0, cfg.trials)
        both = np.concatenate((members, np.sqrt(scales)[:, None, None] * members))
        (ok, ok2), (lam, lam2) = (x.reshape(2, -1) for x in groups.in_normalizer(both, s, cfg.tol))
        check.flag(ok, {"a": members, "sigma": s})
        check.residual(abs(lam - 1.0), {"a": members, "sigma": s, "lam": lam})
        check.flag(ok2, {"a": members, "sigma": s, "lam0": scales})
        check.residual(abs(lam2 - scales) / (1.0 + scales),
                       {"a": members, "sigma": s, "lam0": scales, "lam2": lam2})


def _prop_cartan(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    if not (sigmas := _sigmas(cfg, CaseLabel.LORENTZ)):
        return
    lams = np.empty((len(sigmas), cfg.trials))  # per sigma: lam, k and Z, drawn as stacks
    ks, Zs = np.empty((2, len(sigmas), cfg.trials, n + 1, n + 1))
    for s, lam, k, Z in zip(sigmas, lams, ks, Zs):
        k[:] = _members(rng, CaseLabel.ARISTOTLE, None, n, 0.0, cfg.trials)
        lam[:] = rng.uniform(0.1, 10.0, cfg.trials)
        b = _units(rng, (cfg.trials, n)) * rng.uniform(0.0, 4.0 / math.sqrt(s),
                                                      (cfg.trials, 1))
        Z[:] = groups.p_generator(b, s)
    a = groups.CartanFactors(lams, ks, Zs).reconstruct()
    factors = [groups.cartan_decompose(x, s, cfg.tol) for x, s in zip(a, sigmas)]
    rebuilt = groups.CartanFactors(*map(np.stack, zip(*(
        (f.lam, f.k, f.Z, f.refused) for f in factors)))).reconstruct()
    for s, f, x, y, lam, k, Z in zip(sigmas, factors, a, rebuilt, lams, ks, Zs):
        resid = np.max([
            matcore.op_norm(f.k - k, 2),
            matcore.op_norm(_balanced(f.Z - Z, s), 2),
            abs(f.lam - lam) / (1.0 + lam),
            matcore.op_norm(_balanced(y - x, s), 2) / (1.0 + matcore.op_norm(_balanced(x, s), 2)),
        ], axis=0)
        check.residual(resid, {"a": x, "k": k, "Z": Z, "lam": lam, "sigma": s})


def _balanced(x: np.ndarray, s: float) -> np.ndarray:
    """A copy of x in the balanced time unit of sigma (see matcore.sigma_unit)."""
    return matcore.balance(np.array(x, dtype=float), matcore.sigma_unit(s)[0])


def _prop_closure(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    cases = _cases(cfg)
    members = [_members(rng, case, s, n, 2.0, 2 * cfg.trials) for case, s in cases]
    inverses = np.linalg.inv(np.stack([g[:cfg.trials] for g in members]))
    for (case, s), g, inverse in zip(cases, members, inverses):
        g1, g2 = g[:cfg.trials], g[cfg.trials:]  # products judged with inverses in one stack
        ok = groups.membership(np.concatenate((g1 @ g2, inverse)), case, s, cfg.tol)
        check.flag(ok[:cfg.trials] & ok[cfg.trials:], {"g1": g1, "g2": g2, "case": case.value})


def _prop_pure_rotations(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    cases = _cases(cfg)
    members = np.stack([_members(rng, case, s, n, 0.0, cfg.trials) for case, s in cases])
    in_K = groups.in_K(members.reshape(-1, n + 1, n + 1), cfg.tol).reshape(len(cases), -1)
    for (case, s), a, ok in zip(cases, members, in_K):
        A = a[:, :n, :n]
        resid = np.max([
            matcore.op_norm(a[:, :n, n], 1),
            matcore.op_norm(a[:, n, :n], 1),
            matcore.op_norm(A.mT @ A - np.eye(n), 2),
            abs(abs(a[:, n, n]) - 1.0),
        ], axis=0)
        check.residual(resid, {"a": a, "case": case.value})
        check.flag(ok, {"a": a, "case": case.value})


def _prop_invariants(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    for s in cfg.sigma_values:
        a = _members(rng, case_of_sigma(s), s, n, 2.0, cfg.trials)
        if math.isfinite(s) and s != 0.0:  # judged in the balanced unit of sigma
            g, x = np.diag(np.r_[np.full(n, -matcore.sigma_unit(s)[1]), 1.0]), _balanced(a, s)
            resid = matcore.op_norm(x.mT @ g @ x - g, 2) / (1.0 + matcore.op_norm(g))
            check.residual(resid, {"a": a, "sigma": s})
        elif math.isfinite(s):
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
    if not (sigmas := _sigmas(cfg, CaseLabel.LORENTZ)):  # judged in sigma's balanced unit
        return
    speeds = [1.0 / math.sqrt(matcore.sigma_unit(s)[1]) for s in sigmas]
    drawn = []  # per sigma: members, a map, and a null and a slow line through random origins
    for s, c in zip(sigmas, speeds):
        members = _members(rng, CaseLabel.LORENTZ, s, n, 3.0, cfg.trials)
        drawn.append((members, _balanced(members, s), rng.standard_normal((cfg.trials, n + 1)),
                      rng.standard_normal((2, cfg.trials, n)), rng.standard_normal((2, cfg.trials)),
                      np.array([c, 0.5 * c])[:, None, None] * _units(rng, (2, cfg.trials, n))))
    members, linear, shift, r, t, velocities = (  # the lines: (2, sigmas, trials)
        np.stack(x, axis) for x, axis in zip(zip(*drawn), (0, 0, 0, 1, 1, 1)))
    lines = affine.WorldLine(affine.Event(r, t), velocity=velocities)
    null, slow = affine.transform_worldline(affine.AffineElement(linear, shift), lines).speed()
    for s, c, a, v, w in zip(sigmas, speeds, members, null, slow):
        check.residual(abs(v - c) / (1.0 + c), {"a": a, "sigma": s})
        check.flag(w < c, {"a": a, "sigma": s})


def _prop_negative_controls(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # One stack: boosts plus m0, boosts plus m2, two sigmas; zero generators pad them.
    rotations = classify.rotation_generators(n)
    base = _generated_bases(rotations, 1.0, rng, 1)[0]
    sets = np.zeros((3, len(base) + 1, n + 1, n + 1))
    sets[:2, :-1] = base
    sets[0, -1] = np.diag(np.r_[np.ones(n), 0.0])
    sets[1, -1] = np.diag(np.r_[1.0, -1.0, np.zeros(n - 1)])
    sets[2, :len(base) - n + 2] = rotations + [
        groups.p_generator(rng.standard_normal(n), s) for s in (1.0, 2.0)]
    for name, r in zip(("m0", "m2", "mixed sigma"), classify.classify_algebra(sets, cfg.tol)):
        check.flag(r.outcome == classify.OUTCOME_NOT_KINEMATICAL,
                   {"n": n, "contaminant": name, "outcome": r.outcome})
    _, _, corner = nonalgebra_witness(n)
    check.residual(abs(corner - 2.0), {"n": n, "corner": corner})
    closed, defect = classify.closure_scan(_mixing_span_basis(n), cfg.tol)
    check.flag(not closed, {"n": n})
    check.flag(defect >= 1.0, {"n": n})


def _mixing_span_basis(n: int) -> list[np.ndarray]:
    """Basis of rotations plus the full mixing component, which is not a
    subalgebra."""
    basis = classify.rotation_generators(n)
    for e in np.eye(n):
        basis += [groups.p_generator(e, 0.0), groups.p_generator(e, math.inf)]
    return basis


def _prop_wraparound(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # For sigma < 0 boosts are rotations mixing space with time, of period 2 pi / sqrt(-sigma).
    for s in _sigmas(cfg, CaseLabel.ORTHOGONAL):
        u = _units(rng, (cfg.trials, n))
        half, full = groups.boost_closed_form(math.pi / math.sqrt(-s) * np.stack((u, 2.0 * u)), s)
        expected = np.zeros(half.shape)  # the reflection through the plane normal to u
        expected[:, :n, :n] = np.eye(n) - 2.0 * u[:, :, None] * u[:, None, :]
        expected[:, n, n] = -1.0  # and time reversed
        check.residual(matcore.op_norm(_balanced(half - expected, s), 2), {"u": u, "sigma": s})
        check.residual(matcore.op_norm(_balanced(full - np.eye(n + 1), s), 2), {"u": u, "sigma": s})


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
    ("P1", "the coordinate pass is complete and equivariant under block rotations",
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
    if _sigmas(cfg, CaseLabel.ORTHOGONAL):
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
