"""Self-contained property suite over randomized inputs, one property per claim of the paper:
algebra that rotations plus the boosts of one sigma span one of five algebras, group that each
member factors as sqrt(lam) k B(b), and kinematics the invariant structure and speed of each case.

Each property draws from one generator seeded by (seed, its place in the suite), in a fixed
order: algebra its generated sets once per dimension and sigma, group and kinematics each
quantity once per dimension, in one stack over every case or sigma.  Per dimension, it judges
all stacks in one call to each function under test that takes no sigma and no case
(classification: as many calls of classify's whole-array core as a memory budget holds, whose
verdict arrays it judges in one flag and one residual call each), and each case or sigma its
slice in one call to each that takes one, so each check sees what a call on its stack alone
gives.  It reports the worst residual, the number of values judged against the tolerance and
the names of the failing checks.  Failures never raise: they land in the report
with a counterexample naming the failed check under "check", so a corrupted build shows up as a
readable entry and a nonzero exit from the command line wrapper.
"""

from __future__ import annotations

import json
import math
import numbers
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

    sigma_values takes real numbers, inf for Carroll, and tol a positive finite one, a bool
    not; both are stored as floats.  n_values, trials and seed take integers, numpy ones
    too.  With the property's place in the suite, seed (>= 0) seeds one generator per
    property: a report is reproducible.
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
        try:
            self.sigma_values = tuple(map(float, self.sigma_values))
        except OverflowError:  # as case_of_sigma refuses it
            raise ValueError("sigma_values must be within the float range") from None
        for s in self.sigma_values:
            case_of_sigma(s)  # refuses NaN and -inf
        if not self.sigma_values:
            raise ValueError("sigma_values must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValueError("tol must be a positive finite number")
        self.tol = float(self.tol)
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
    failed_checks: list = field(default_factory=list)  # by "check" name, first failed first


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
            if not res.passed:
                entry["failed_checks"] = res.failed_checks
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
    """Accumulates residuals, how many were judged, the names of the failing checks and the
    counterexample at the worst failure into one PropertyResult."""

    def __init__(self, tol: float):
        self.tol = tol
        self._result = PropertyResult(True, 0.0)

    def residual(self, values, payload: dict | None = None):
        """Judge one value or an array of them; a NaN fails as inf.  payload is the counterexample,
        named by its "check": each ndarray in it holds one row per value judged, and only the row
        of the worst value is read, when that value fails and is the worst yet."""
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
            if (name := (payload or {}).get("check")) and name not in result.failed_checks:
                result.failed_checks.append(name)

    def flag(self, ok, payload: dict | None = None):
        """Judge verdicts: a False fails as inf, at every tol.  All true, they are only counted."""
        ok = np.asarray(ok)
        if np.count_nonzero(ok) == ok.size:  # no residuals to build: none can fail
            self._result.checks += ok.size
        else:
            self.residual(np.where(ok, 0.0, math.inf), payload)

    def result(self) -> PropertyResult:
        return self._result


def _factors(rng: np.random.Generator, n: int, shape: tuple):
    """Factors of members k B(b), one per place of a stack of the given shape: block rotations
    k, unit directions u and sizes |b| uniform in [0, 1], drawn in that order, one call each."""
    k = groups.random_element(CaseLabel.ARISTOTLE, None, n, 0.0, rng, size=math.prod(shape))
    return k.reshape(shape + k.shape[1:]), _units(rng, shape + (n,)), rng.random(shape)


def _boosts(s: float | None, size: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Boosts b = size u of sigma s.  For sigma > 0, |b| is divided by sqrt(sigma): the rapidity
    |b| sqrt(sigma) is at most size at every sigma, where a bound on |b| would let it pass what
    membership can resolve."""
    b = size[..., None] * u
    if s is not None and 0.0 < s < math.inf:
        b /= math.sqrt(s)
    return b


def _units(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A stack of random unit vectors, the last axis of shape."""
    v = rng.standard_normal(shape)
    return v / matcore.op_norm(v, 1)[..., None]


def _cases(cfg: SuiteConfig) -> list[tuple[CaseLabel, float | None]]:
    pairs = dict.fromkeys((case_of_sigma(s), s) for s in cfg.sigma_values)  # first seen first
    return list(pairs) + [(CaseLabel.ARISTOTLE, None)]


def _run(fn, cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    """Run property fn(cfg, rng, check, n) at each n of cfg, drawing from rng, into one check."""
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        fn(cfg, rng, check, n)
    return check.result()


def _generated_bases(rotations, sigmas, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (len(sigmas) count, m, n+1, n+1) stack of sets drawn in whole arrays, count per sigma in
    turn: the rotations of dimension n and n boosts of sigma s (p_generator of b) along random
    b, each scaled by [1/4, 4], written into one array."""
    n, r = len(rotations[0]) - 1, len(rotations)
    sets = np.empty((len(sigmas) * count, r + n, n + 1, n + 1))
    sets[:, :r] = rotations
    for i, s in enumerate(sigmas):
        b = rng.standard_normal((count, n, n)) * rng.uniform(0.25, 4.0, (count, n, 1))
        sets[i * count:(i + 1) * count, r:] = groups.p_generator(b, s)
    return sets


def _case_codes(sigma: np.ndarray) -> np.ndarray:
    """The case of each sigma as a number, equal where case_of_sigma is: -1 Orthogonal,
    0 Galilei, 1 Lorentz, 2 Carroll, and NaN, equal to none, for NaN."""
    return np.sign(sigma) + (sigma == math.inf)


# Floats of generator sets per classification call of algebra.  The call holds the sets and their
# coordinate rows, about two copies, so 2^18 (2 MiB) keeps n = 10 at one sigma a call (166,375
# floats at 25 trials), the peak of a call per sigma, while all five default sigmas share one at
# n = 2 and 3 (2,400 a sigma).
_CLASSIFY_BUDGET = 2 ** 18


def _prop_algebra(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # Classification first, so that no other check's arrays are alive during its large calls.
    # Consecutive sigmas' sets share a call, within _CLASSIFY_BUDGET, and are judged together.
    rotations = classify.rotation_generators(n)
    t, m = cfg.trials, len(rotations) + n
    step = max(1, _CLASSIFY_BUDGET // (t * m * (n + 1) ** 2))
    for start in range(0, len(cfg.sigma_values), step):
        sigmas = cfg.sigma_values[start:start + step]
        try:
            sets = _generated_bases(rotations, sigmas, rng, t)
        except ValueError as error:  # sigma * b passes the float range: no set to classify
            check.residual(math.inf, {"check": "classification", "n": n, "error": str(error)})
            continue
        # One flag and one residual call per chunk: a residual is inf only where its set's flag
        # fails, and the flags are judged first, so the worst value reported is the first
        # failing flag in chunk order, as with a flag and a residual call per sigma.
        verdicts = classify._verdicts(sets, cfg.tol)
        outcome, got, reason = verdicts.outcome, verdicts.sigma, verdicts.reason
        want, read = np.repeat(sigmas, t), outcome == classify.OUTCOME_KINEMATICAL
        payload = {"check": "classification", "n": n, "sigma": want}
        check.flag(read & (_case_codes(got) == _case_codes(want)),
                   payload | {"outcome": outcome, "reason": reason})
        got, want = got[read], want[read]
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf, where want is Carroll's
            err = np.where(want == math.inf, np.where(np.isinf(got), 0.0, math.inf),
                           abs(got - want) / (1.0 + abs(want)))
        check.residual(err, payload | {"sigma": want, "outcome": outcome[read],
                                       "reason": reason[read]})
    # One stack of controls, zero generators padding them: the rotations alone, an Aristotle
    # algebra, and boosts plus m0, boosts plus m2 and two sigmas' boosts, none an algebra.
    sets = np.zeros((4, m + 1, n + 1, n + 1))
    sets[0, :len(rotations)] = rotations
    sets[1:3, :-1] = _generated_bases(rotations, (1.0,), rng, 1)
    sets[1, -1] = np.diag(np.r_[np.ones(n), 0.0])
    sets[2, -1] = np.diag(np.r_[1.0, -1.0, np.zeros(n - 1)])
    sets[3, :len(rotations) + 2] = rotations + [
        groups.p_generator(rng.standard_normal(n), s) for s in (1.0, 2.0)]
    outcome = classify._verdicts(sets, cfg.tol).outcome
    check.flag(outcome == [classify.OUTCOME_ARISTOTLE] + [classify.OUTCOME_NOT_KINEMATICAL] * 3,
               {"check": "controls", "n": n, "outcome": outcome,
                "set": np.array(["rotations", "m0", "m2", "mixed sigma"])})
    # Rotations plus the full mixing component span no algebra.
    span = np.concatenate((rotations, groups.p_generator(np.eye(n), 0.0),
                           groups.p_generator(np.eye(n), math.inf)))
    closed, defect = classify.closure_scan(span, cfg.tol)
    check.flag([not closed, defect >= 1.0], {"check": "non-closing span", "n": n, "defect": defect})
    # The coordinate pass is complete and equivariant under block rotations K = diag(R, eps).
    K = groups.random_element(CaseLabel.ARISTOTLE, None, n, 0.0, rng, size=t)
    Z = rng.standard_normal((t, n + 1, n + 1))
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
    check.residual(resid, {"check": "coordinates", "Z": Z, "R": R, "eps": eps})
    # Pairs (b, c): per sigma, collinear ones in sigma's balanced unit; then the witness
    # (e1, e2) and general ones, whose doubled commutator corner reproduces their defect.
    drawn = rng.standard_normal((len(cfg.sigma_values), t, n))
    bs, cs = np.concatenate([(np.zeros_like(b), b) if s == math.inf else (
        b, matcore.sigma_unit(s)[1] * b) for s, b in zip(cfg.sigma_values, drawn)], 1)
    general = np.concatenate((np.eye(n)[:2, None], rng.standard_normal((2, len(bs), n))), 1)
    defects = classify.collinearity_defect(*np.concatenate(((bs, cs), general), 1))
    _, _, corners = _doubled_commutator(*general)
    expected = defects[len(bs):]
    check.residual(abs(defects[:len(bs)]) / (1.0 + np.vecdot(bs, bs) * np.vecdot(cs, cs)),
                   {"check": "collinear", "b": bs, "c": cs,
                    "sigma": np.repeat(cfg.sigma_values, t)})
    check.residual(abs(corners - expected) / (1.0 + abs(expected)),
                   {"check": "commutator", "b": general[0], "c": general[1]})


def _prop_group(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # From factors drawn once for every case, members g = k B(b), b up to 4, and h, b up to 2
    # (rapidity for sigma > 0), lam in 10^[-8, 8] and E of Frobenius norm 1e3 tol, at least
    # 1e-4: of spectral norm at least that over sqrt(n + 1).  membership reads h (products at
    # rapidity up to 4), the other verdicts g; each refuses x (I + E).
    t, cases = cfg.trials, _cases(cfg)
    k, u, size = _factors(rng, n, (len(cases), 2 * t))
    lam = 10.0 ** rng.uniform(-8.0, 8.0, (len(cases), t))
    E = rng.standard_normal((len(cases), t, n + 1, n + 1))
    E *= max(1e-4, 1e3 * cfg.tol) / matcore.op_norm(E, 2)[..., None, None]
    b = [_boosts(s, r, v) for (_, s), r, v in zip(cases, np.repeat([4.0, 2.0], t) * size, u)]
    g, h = np.split(np.stack([x if s is None else x @ groups.boost_closed_form(y, s)
                              for (_, s), x, y in zip(cases, k, b)]), 2, 1)
    h2 = np.roll(h, 1, 1)
    judged = np.concatenate((h @ h2, np.linalg.inv(h), h + h @ E), 1)
    lorentz = []  # judged after the loop: reconstruct takes no sigma
    for i, (case, s) in enumerate(cases):
        ok = groups.membership(judged[i], case, s, cfg.tol).reshape(3, t)
        check.flag(ok[0] & ok[1], {"check": "closure", "case": case.value, "g1": h[i],
                                   "g2": h2[i]})
        check.flag(~ok[2], {"check": "perturbed member", "case": case.value, "a": h[i],
                            "E": E[i]})
        if case not in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
            continue
        a = np.sqrt(lam[i])[:, None, None] * g[i]
        oks, lams = (x.reshape(3, t) for x in groups.in_normalizer(
            np.concatenate((g[i], a, a + a @ E[i])), s, cfg.tol))
        payload = {"check": "normalizer", "a": g[i], "sigma": s}
        check.flag(oks[0], payload)
        check.residual(abs(lams[0] - 1.0), payload | {"lam": lams[0]})
        check.flag(oks[1], payload | {"lam0": lam[i]})
        check.residual(abs(lams[1] - lam[i]) / (1.0 + lam[i]),
                       payload | {"lam0": lam[i], "lam2": lams[1]})
        check.flag(~oks[2], {"check": "perturbed normalizer", "a": a, "E": E[i], "sigma": s})
        if case is CaseLabel.LORENTZ:
            lorentz.append((s, a, groups.cartan_decompose(a, s, cfg.tol), k[i, :t],
                            groups.p_generator(b[i][:t], s), lam[i]))
    k, E = (x.reshape(-1, n + 1, n + 1) for x in (k[:, :t], E))  # in_K takes no case
    ok, perturbed = groups.in_K(np.concatenate((k, k + k @ E)), cfg.tol).reshape(2, -1)
    A = k[:, :n, :n]
    resid = np.max([
        matcore.op_norm(k[:, :n, n], 1),
        matcore.op_norm(k[:, n, :n], 1),
        matcore.op_norm(A.mT @ A - np.eye(n), 2),
        abs(abs(k[:, n, n]) - 1.0),
    ], axis=0)
    check.residual(resid, {"check": "rotations", "a": k})
    check.flag(ok, {"check": "rotations", "a": k})
    check.flag(~perturbed, {"check": "perturbed rotation", "a": k, "E": E})
    if not lorentz:
        return
    # Rebuilt through mat_exp, not the closed form the members were built with.
    rebuilt = groups.CartanFactors(*map(np.stack, zip(*(
        (f.lam, f.k, f.Z, f.refused) for _, _, f, *_ in lorentz)))).reconstruct()
    for (s, x, f, k, Z, lam), y in zip(lorentz, rebuilt):
        resid = np.max([
            matcore.op_norm(f.k - k, 2),
            matcore.op_norm(_balanced(f.Z - Z, s), 2),
            abs(f.lam - lam) / (1.0 + lam),
            matcore.op_norm(_balanced(y - x, s), 2) / (1.0 + matcore.op_norm(_balanced(x, s), 2)),
        ], axis=0)
        check.residual(resid, {"check": "cartan", "a": x, "k": k, "Z": Z, "lam": lam, "sigma": s})


def _balanced(x: np.ndarray, s: float) -> np.ndarray:
    """A copy of x in the balanced time unit of sigma (see matcore.sigma_unit)."""
    return matcore.balance(np.array(x, dtype=float), matcore.sigma_unit(s)[0])


def _random_affine(n: int, rng: np.random.Generator, shape: tuple):
    """The linear parts and translations of a stack of affine maps of dimension n + 1, of the
    given shape, each linear part redrawn until |det| > 0.1."""
    L = rng.standard_normal(shape + (n + 1, n + 1))
    while (redraw := abs(np.linalg.det(L)) <= 0.1).any():
        L[redraw] = rng.standard_normal((np.count_nonzero(redraw), n + 1, n + 1))
    return L, rng.standard_normal(shape + (n + 1,))


def _ends(line: affine.WorldLine) -> np.ndarray:
    """The events at the origin and at origin + direction of each line of a stack, stacked."""
    return line.origin.vector() + np.multiply.outer([0.0, 1.0], line.direction)


def _prop_kinematics(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    t, sigmas = cfg.trials, cfg.sigma_values
    g, h, w = (affine.AffineElement(*x) for x in zip(*_random_affine(n, rng, (3, t))))
    gh_w = affine.compose(affine.compose(g, h), w)
    g_hw = affine.compose(g, affine.compose(h, w))
    ident = affine.compose(g, affine.inverse(g))
    x = affine.Event(rng.standard_normal((t, n)), rng.standard_normal(t))
    gh_x = affine.act(affine.compose(g, h), x).vector()
    g_hx = affine.act(g, affine.act(h, x)).vector()
    step = rng.standard_normal((t, n + 1))
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
    check.residual(resid / scale, {"check": "affine", "g_linear": g.linear, "h_linear": h.linear})
    # Each drawn in one stack: every sigma's members, each Carroll sigma's pairs of events and,
    # per sigma > 0, a translation and a null and a slow line, (2, sigmas > 0, trials).
    cases = [case_of_sigma(s) for s in sigmas]
    fast = [s for s, case in zip(sigmas, cases) if case is CaseLabel.LORENTZ]
    k, u, size = _factors(rng, n, (len(sigmas), t))
    events = iter(zip(*rng.standard_normal((2, cases.count(CaseLabel.CARROLL), t, n + 1, 1))))
    shift = rng.standard_normal((len(fast), t, n + 1))
    r, times = rng.standard_normal((2, len(fast), t, n)), rng.standard_normal((2, len(fast), t))
    directions = _units(rng, (2, len(fast), t, n))
    members = []  # per sigma > 0
    for s, case, ki, ui, bi in zip(sigmas, cases, k, u, 3.0 * size):
        b = _boosts(s, bi, ui)
        if case is CaseLabel.ORTHOGONAL:  # boosts rotate space into time, of period 2 pi/sqrt(-s)
            b = np.concatenate((b, math.pi / math.sqrt(-s) * np.concatenate((ui, 2.0 * ui))))
        boosts = groups.boost_closed_form(b, s)
        a = ki @ boosts[:t]
        payload = {"check": "invariants", "a": a, "sigma": s}
        if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):  # in the balanced unit of sigma
            metric, y = np.diag(np.r_[np.full(n, -matcore.sigma_unit(s)[1]), 1.0]), _balanced(a, s)
            check.residual(matcore.op_norm(y.mT @ metric @ y - metric, 2)
                           / (1.0 + matcore.op_norm(metric)), payload)
        elif case is CaseLabel.GALILEI:
            # the last row is (0, ..., 0, +-1) exactly: time differences change at most sign.
            exact = matcore.op_norm(a[:, n, :n], 1) + abs(abs(a[:, n, n]) - 1.0)
            check.flag(exact == 0.0, payload)
        else:  # Carroll: spatial separations are preserved.
            p, q = next(events)
            before = matcore.op_norm((p - q)[:, :n, 0], 1)
            after = matcore.op_norm((a @ p - a @ q)[:, :n, 0], 1)
            check.residual(abs(after - before) / (1.0 + before), payload)
        if case is CaseLabel.ORTHOGONAL:
            half, full = np.split(boosts[t:], 2)
            expected = np.zeros(half.shape)  # the reflection through the plane normal to u
            expected[:, :n, :n] = np.eye(n) - 2.0 * ui[:, :, None] * ui[:, None, :]
            expected[:, n, n] = -1.0  # and time reversed
            payload = {"check": "period", "u": ui, "sigma": s}
            check.residual(matcore.op_norm(_balanced(half - expected, s), 2), payload)
            check.residual(matcore.op_norm(_balanced(full - np.eye(n + 1), s), 2), payload)
        elif case is CaseLabel.LORENTZ:
            members.append(a)
    if not members:
        return
    # The lines, at speeds c and c/2, mapped in sigma's balanced unit.
    speeds = [1.0 / math.sqrt(matcore.sigma_unit(s)[1]) for s in fast]
    g = affine.AffineElement(np.stack([_balanced(a, s) for s, a in zip(fast, members)]), shift)
    velocities = np.multiply.outer([1.0, 0.5], speeds)[..., None, None] * directions
    lines = affine.WorldLine(affine.Event(r, times), velocity=velocities)
    image = affine.transform_worldline(g, lines)
    # The image passes through act(g, origin) and act(g, origin + direction), at 0 and 1.
    ends = affine.act(g, affine.Event.from_vector(_ends(lines))).vector()
    gaps = np.max(matcore.op_norm(_ends(image) - ends, 1) / (1.0 + matcore.op_norm(ends, 1)),
                  (0, 1))
    null, slow = image.speed()
    for s, c, a, v, w, gap in zip(fast, speeds, members, null, slow, gaps):
        check.residual(abs(v - c) / (1.0 + c), {"check": "speed", "a": a, "sigma": s})
        check.flag(w < c, {"check": "speed", "a": a, "sigma": s})
        check.residual(gap, {"check": "worldline", "a": a, "sigma": s})


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
    ("algebra", "rotations plus the boosts of one sigma span one of five algebras: generated "
                "algebras classify back to their case and sigma, contaminated, mixed-sigma and "
                "non-closing spans are refused, the coordinate pass is complete and "
                "equivariant, boost generators are collinear, and the doubled commutator's "
                "corner equals the collinearity defect", _prop_algebra),
    ("group", "every member factors as sqrt(lam) k B(b): membership (of products and "
              "inverses), in_K, in_normalizer and cartan_decompose give back the drawn "
              "factors, and the verdicts refuse perturbed copies", _prop_group),
    ("kinematics", "the invariant speed follows without light: each case preserves its "
                   "invariant structure, affine maps satisfy the group axioms and map lines "
                   "as they map events, and boosts keep the speed 1/sqrt(sigma) (sigma > 0) "
                   "or have period 2 pi/sqrt(-sigma) (sigma < 0)", _prop_kinematics),
]


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    """Run every property and collect a report.

    Failures (including unexpected exceptions inside a property) become
    report entries; this function itself does not raise on them.
    """
    if cfg is None:
        cfg = SuiteConfig()
    report = SuiteReport(config=cfg)
    for pnum, (pid, description, fn) in enumerate(_PROPERTIES, start=1):
        report.descriptions[pid] = description
        try:
            report.results[pid] = _run(fn, cfg, np.random.default_rng([cfg.seed, pnum]))
        except Exception as exc:  # a property must never take the suite down
            report.results[pid] = PropertyResult(
                False, math.inf, {"error": f"{type(exc).__name__}: {exc}"})
    return report
