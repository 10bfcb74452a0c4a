"""Self-contained property suite over randomized inputs, one property per claim of the paper:
algebra that rotations plus the boosts of one sigma span one of five algebras, group that each
member factors as sqrt(lam) k B(b), and kinematics the invariant structure and speed of each case.

Each property draws from one generator seeded by (seed, its place in the suite), in a fixed
order: algebra its generated sets once per dimension and sigma, group and kinematics each
quantity once per dimension, in one stack over every case or sigma.  Per dimension, it judges
all stacks in one call to each function under test, each row at its own sigma (membership:
one call per case; classification: as many calls of classify's whole-array core as a memory
budget holds, the controls riding the last), and each check in one flag or residual call, each
payload array one row per value judged, so each check sees what a call on its row alone
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

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())

    def to_json_dict(self) -> dict:
        props, descriptions = {}, {pid: text for pid, text, _ in _PROPERTIES}
        for pid, res in self.results.items():
            entry = {
                "pass": res.passed,
                "worst_residual": _json_number(res.worst_residual),
                "checks": res.checks,
                "description": descriptions.get(pid, ""),
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


def _json_item(value, i):
    """A payload entry as JSON holds it, by _json_number: of an ndarray, whose leading axes
    broadcast against the judged values' shape, the entry at their index i, else the value."""
    if isinstance(value, np.ndarray):  # Python scalars and lists, whatever the dtype
        at = tuple(j * (size > 1) for j, size in zip(np.atleast_1d(i), value.shape))
        value = value[at + (None,)].tolist()[0]
    return _json_number(value)


class _Check:
    """Accumulates residuals, how many were judged, the names of the failing checks and the
    counterexample at the worst failure into one PropertyResult."""

    def __init__(self, tol: float):
        self.tol = tol
        self._result = PropertyResult(True, 0.0)

    def residual(self, values, payload: dict | None = None):
        """Judge one value or an array of them; a NaN fails as inf.  payload is the counterexample,
        named by its "check": each ndarray's leading axes broadcast against values', and only the
        entry of the worst value is read, when that value fails and is the worst yet."""
        shape, values = np.shape(values), np.asarray(values, dtype=float).ravel()
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
                result.counterexample = {key: _json_item(item, np.unravel_index(i, shape))
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


def _boosts(sigma: np.ndarray, size: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Boosts b = size u, of the sigma of their row (an array that broadcasts against size).  For
    sigma > 0, |b| is divided by sqrt(sigma): the rapidity |b| sqrt(sigma) is at most size at
    every sigma, where a bound on |b| would let it pass what membership can resolve."""
    b = size[..., None] * u
    b /= np.sqrt(np.where((0.0 < sigma) & (sigma < math.inf), sigma, 1.0))[..., None]
    return b


def _units(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """A stack of random unit vectors, the last axis of shape."""
    v = rng.standard_normal(shape)
    return v / matcore.op_norm(v, 1)[..., None]


def _cases(cfg: SuiteConfig) -> list[tuple[CaseLabel, float]]:
    return list(dict.fromkeys((case_of_sigma(s), s) for s in cfg.sigma_values))  # in order


def _run(fn, cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    """Run property fn(cfg, rng, check, n) at each n of cfg, drawing from rng, into one check."""
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        fn(cfg, rng, check, n)
    return check.result()


def _generated_bases(rotations, sigmas, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (len(sigmas) count, m, n+1, n+1) stack of sets drawn in whole arrays, count per sigma in
    turn: the rotations of dimension n and n boosts of sigma s (p_generator of b) along random
    b, each scaled by [1/4, 4], written into one array by one p_generator call."""
    n, r = len(rotations[0]) - 1, len(rotations)
    sets = np.empty((len(sigmas) * count, r + n, n + 1, n + 1))
    sets[:, :r] = rotations
    b = [rng.standard_normal((count, n, n)) * rng.uniform(0.25, 4.0, (count, n, 1)) for _ in sigmas]
    sets[:, r:] = groups.p_generator(np.array(b), np.array(sigmas)[:, None, None]).reshape(
        sets[:, r:].shape)
    return sets


# Floats of generator sets per classification call of algebra.  The call holds the sets and their
# coordinate rows, about two copies, so 2^18 (2 MiB) keeps n = 10 at one sigma a call (166,375
# floats at 25 trials), the peak of a call per sigma, while all five default sigmas share one at
# n = 2 and 3 (2,400 a sigma).
_CLASSIFY_BUDGET = 2 ** 18


def _prop_algebra(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # Classification first, so that no other check's arrays are alive during its large calls.
    # Consecutive sigmas' sets share a call, within _CLASSIFY_BUDGET, and are judged together.
    rotations = classify.rotation_generators(n)
    t, r, sigmas = cfg.trials, len(rotations), cfg.sigma_values
    step = max(1, _CLASSIFY_BUDGET // (t * (r + n) * (n + 1) ** 2))
    for start in range(0, len(sigmas), step):
        chunk = sigmas[start:start + step]
        try:
            sets = _generated_bases(rotations, chunk, rng, t)
        except ValueError as error:  # sigma * b passes the float range: no set to classify
            check.residual(math.inf, {"check": "classification", "n": n, "error": str(error)})
            sets, chunk = np.empty((0, r + n, n + 1, n + 1)), ()
        if start + step >= len(sigmas):  # the controls ride the last call: the rotations alone
            controls = np.zeros((4, r + n, n + 1, n + 1))  # (Aristotle's algebra), and boosts
            controls[:, :r] = rotations  # with m0 or m2 content or of two sigmas (no algebra)
            controls[1:3] = _generated_bases(rotations, (1.0,), rng, 1)
            controls[1, -1, range(n), range(n)] += 1.0  # diag(1, ..., 1, 0)
            controls[2, -1, [0, 1], [0, 1]] += [1.0, -1.0]
            controls[3, r:r + 2] = [groups.p_generator(b, s) for b, s in zip(
                rng.standard_normal((2, n)), (1.0, 2.0))]
            sets = np.concatenate((sets, controls))
        # One flag and one residual call per chunk: a residual is inf only where its set's flag
        # fails, and the flags are judged first, so the worst value reported is the first
        # failing flag in chunk order, as with a flag and a residual call per sigma.
        verdicts = classify._verdicts(sets, cfg.tol)
        j = len(chunk) * t  # the controls come after
        outcome, got, reason = verdicts.outcome[:j], verdicts.sigma[:j], verdicts.reason[:j]
        want, read = np.repeat(chunk, t), outcome == classify.OUTCOME_KINEMATICAL
        payload = {"check": "classification", "n": n, "sigma": want}
        # the cases, numbered as sign(sigma) + (sigma = inf), agree: a NaN agrees with none
        check.flag(read & (np.sign(got) + (got == math.inf) == np.sign(want) + (want == math.inf)),
                   payload | {"outcome": outcome, "reason": reason})
        got, want = got[read], want[read]
        with np.errstate(invalid="ignore"):  # inf - inf and inf / inf, where want is Carroll's
            err = np.where(want == math.inf, np.where(np.isinf(got), 0.0, math.inf),
                           abs(got - want) / (1.0 + abs(want)))
        check.residual(err, payload | {"sigma": want, "outcome": outcome[read]})
    outcome = verdicts.outcome[j:]
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
    # Pairs (b, c), the witness (e1, e2) and general ones: the corner of their doubled
    # commutator reproduces their collinearity defect, 2 for the witness.
    b, c = np.concatenate((np.eye(n)[:2, None], rng.standard_normal((2, len(sigmas) * t, n))), 1)
    expected = classify.collinearity_defect(b, c)
    check.residual(abs(_doubled_commutator(b, c) - expected) / (1.0 + abs(expected)),
                   {"check": "commutator", "b": b, "c": c})


def _prop_group(cfg: SuiteConfig, rng: np.random.Generator, check: _Check, n: int):
    # From factors drawn once for every case, members g = k B(b), b up to 4, and h, b up to 2
    # (rapidity for sigma > 0), lam in 10^[-8, 8] and E of Frobenius norm 1e3 tol, at least
    # 1e-4: of spectral norm at least that over sqrt(n + 1).  membership reads h (products at
    # rapidity up to 4), in_K the rotations of g, the other verdicts g; each refuses x (I + E).
    # One call to each function under test takes every case's rows (membership: one a case).
    t, cases = cfg.trials, _cases(cfg)
    k, u, size = _factors(rng, n, (len(cases), 2 * t))
    lam = 10.0 ** rng.uniform(-8.0, 8.0, (len(cases), t))
    E = rng.standard_normal((len(cases), t, n + 1, n + 1))
    E *= max(1e-4, 1e3 * cfg.tol) / matcore.op_norm(E, 2)[..., None, None]
    sigma, names = (np.array(x)[:, None] for x in zip(*((s, c.value) for c, s in cases)))
    b = _boosts(sigma, np.repeat([4.0, 2.0], t) * size, u)
    g, h = np.split(k @ groups.boost_closed_form(b, sigma), 2, 1)
    h2 = np.roll(h, 1, 1)
    inverses, k_inverses = np.split(np.linalg.inv(np.concatenate((h, k[:, :t]), 1)), 2, 1)
    judged = np.concatenate((h @ h2, inverses, h + h @ E), 1)
    ok = np.empty(judged.shape[:2], dtype=bool)
    for case in dict.fromkeys(case for case, _ in cases):
        rows = names[:, 0] == case.value
        ok[rows] = groups.membership(judged[rows], case, sigma[rows], cfg.tol)
    ok, at = ok.reshape(len(cases), 3, t), {"case": names, "sigma": sigma}
    check.flag(ok[:, 0] & ok[:, 1], {"check": "closure"} | at | {"g1": h, "g2": h2})
    check.flag(~ok[:, 2], {"check": "perturbed member"} | at | {"a": h, "E": E})
    finite = ((sigma != 0.0) & (sigma < math.inf))[:, 0]  # Lorentz and Orthogonal
    s, x, lam0 = sigma[finite], g[finite], lam[finite]
    a = np.sqrt(lam0)[..., None, None] * x
    oks, lams = (y.reshape(len(s), 3, t) for y in groups.in_normalizer(
        np.concatenate((x, a, a + a @ E[finite]), 1), s, cfg.tol))
    payload = {"check": "normalizer", "a": x, "sigma": s}
    check.flag(oks[:, 0], payload)
    check.residual(abs(lams[:, 0] - 1.0), payload | {"lam": lams[:, 0]})
    check.flag(oks[:, 1], payload | {"lam0": lam0})
    check.residual(abs(lams[:, 1] - lam0) / (1.0 + lam0),
                   payload | {"lam0": lam0, "lam2": lams[:, 1]})
    check.flag(~oks[:, 2], {"check": "perturbed normalizer", "a": a, "E": E[finite], "sigma": s})
    # in_K takes no case: it judges every case's products k k', inverses and perturbed copies.
    rotations, k_inverses, E = (y.reshape(-1, n + 1, n + 1) for y in (k[:, :t], k_inverses, E))
    k2 = np.roll(rotations, 1, 0)
    ok = groups.in_K(np.concatenate((rotations @ k2, k_inverses, rotations + rotations @ E)),
                     cfg.tol).reshape(3, -1)
    check.flag(ok[0] & ok[1], {"check": "rotations", "k1": rotations, "k2": k2})
    check.flag(~ok[2], {"check": "perturbed rotation", "a": rotations, "E": E})
    if not (lorentz := finite & (sigma[:, 0] > 0.0)).any():
        return
    # Rebuilt through mat_exp, not the closed form the members were built with.
    s, x, k, lam0 = sigma[lorentz], a[lorentz[finite]], k[lorentz, :t], lam[lorentz]
    f, Z = groups.cartan_decompose(x, s, cfg.tol), groups.p_generator(b[lorentz, :t], s)
    unit = matcore.sigma_unit(s)[0]
    resid = np.max([
        matcore.op_norm(f.k - k, 2),
        matcore.op_norm(_balanced(f.Z - Z, unit), 2),
        abs(f.lam - lam0) / (1.0 + lam0),
        matcore.op_norm(_balanced(f.reconstruct() - x, unit), 2)
        / (1.0 + matcore.op_norm(_balanced(x, unit), 2)),
    ], axis=0)
    check.residual(resid, {"check": "cartan", "a": x, "k": k, "Z": Z, "lam": lam0, "sigma": s})


def _balanced(x: np.ndarray, k) -> np.ndarray:
    """A copy of x in the balanced time unit of sigma_unit's k, one or an array of one a matrix."""
    return matcore.balance(np.array(x, dtype=float), matcore._widened(k))


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
    # Each drawn in one stack: every sigma's members and, per sigma > 0, a translation and a
    # null and a slow line, (2, sigmas > 0, trials).  One boost call makes the members and,
    # for sigma < 0, of period 2 pi/sqrt(-sigma), the half and whole periods as more rows.
    sigma = np.array(sigmas)[:, None]
    fast, negative = ((0.0 < sigma) & (sigma < math.inf))[:, 0], sigma[:, 0] < 0.0
    k, u, size = _factors(rng, n, (len(sigmas), t))
    shift = rng.standard_normal(((m := np.count_nonzero(fast)), t, n + 1))
    r, times = rng.standard_normal((2, m, t, n)), rng.standard_normal((2, m, t))
    directions = _units(rng, (2, m, t, n))
    period = math.pi / np.sqrt(-sigma[negative])[..., None] * np.stack((u, 2.0 * u))[:, negative]
    boosts = groups.boost_closed_form(np.concatenate((_boosts(sigma, 3.0 * size, u), *period)),
                                      np.concatenate((sigma, sigma[negative], sigma[negative])))
    a = k @ boosts[:len(sigmas)]
    # The form diag(-row I, column) of the generators' weights, in sigma's balanced unit:
    # diag(0, ..., 0, 1) is Galilei's time, diag(-I, 0) Carroll's space.
    unit, balanced = matcore.sigma_unit(sigma)
    column, row = matcore._each(groups._mixing, balanced)
    metric = np.eye(n + 1) * np.concatenate((np.repeat(-row, n, 1), column), 1)[:, None, None]
    y = _balanced(a, unit)
    defect = matcore.op_norm(y.mT @ metric @ y - metric, 2) / (1.0 + matcore.op_norm(metric, 2))
    check.residual(defect, {"check": "invariants", "a": a, "sigma": sigma})
    # The half period is the reflection through the plane normal to u, time reversed.
    half, full = np.split(boosts[len(sigmas):], 2)
    expected = np.zeros(half.shape)
    expected[..., :n, :n] = np.eye(n) - 2.0 * u[negative, :, :, None] * u[negative, :, None, :]
    expected[..., n, n] = -1.0
    check.residual(matcore.op_norm(_balanced(np.stack((half - expected, full - np.eye(n + 1)), 1),
                                             unit[negative, None]), 2),
                   {"check": "period", "u": u[negative, None], "sigma": sigma[negative, None]})
    if not fast.any():
        return
    # The lines, at speeds c and c/2, mapped in sigma's balanced unit.
    s, a, c = sigma[fast], a[fast], 1.0 / np.sqrt(balanced[fast])
    g = affine.AffineElement(_balanced(a, unit[fast]), shift)
    velocities = np.multiply.outer([1.0, 0.5], c)[..., None] * directions
    lines = affine.WorldLine(affine.Event(r, times), velocity=velocities)
    image = affine.transform_worldline(g, lines)
    # The image passes through act(g, origin) and act(g, origin + direction), at 0 and 1.
    ends = affine.act(g, affine.Event.from_vector(_ends(lines))).vector()
    gaps = np.max(matcore.op_norm(_ends(image) - ends, 1) / (1.0 + matcore.op_norm(ends, 1)),
                  (0, 1))
    null, slow = image.speed()
    at = {"a": a, "sigma": s}
    check.residual(abs(null - c) / (1.0 + c), {"check": "speed"} | at)
    check.flag(slow < c, {"check": "speed"} | at)
    check.residual(gaps, {"check": "worldline"} | at)


def _doubled_commutator(b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The corner entry of [Z, [Z, A]], Z the mixing generator with column b and row c and
    A = b c^T - c b^T the rotation that the bracket of two such generators spawns; for
    (..., n) stacks of b and c, one per pair.  For the witness (e1, e2) it is 2: rotations
    plus the full mixing component do not close."""
    n = b.shape[-1]
    Z = np.zeros(b.shape[:-1] + (n + 1, n + 1))
    Z[..., :n, n] = b
    Z[..., n, :n] = c
    A = np.zeros(Z.shape)
    A[..., :n, :n] = b[..., :, None] * c[..., None, :] - c[..., :, None] * b[..., None, :]
    return matcore.bracket(Z, matcore.bracket(Z, A))[..., n, n]


_PROPERTIES = [
    ("algebra", "rotations plus the boosts of one sigma span one of five algebras: generated "
                "algebras classify back to their case and sigma, contaminated, mixed-sigma and "
                "non-closing spans are refused, the coordinate pass is complete and "
                "equivariant, and the doubled commutator's corner equals the collinearity "
                "defect", _prop_algebra),
    ("group", "every member factors as sqrt(lam) k B(b): membership and in_K (of products "
              "and inverses), in_normalizer and cartan_decompose give back the drawn factors, "
              "and the verdicts refuse perturbed copies", _prop_group),
    ("kinematics", "the invariant speed follows without light: each member keeps its "
                   "generators' form diag(-row I, column), affine maps satisfy the group axioms "
                   "and map lines as they map events, and boosts keep the speed 1/sqrt(sigma) "
                   "(sigma > 0) or have period 2 pi/sqrt(-sigma) (sigma < 0)", _prop_kinematics),
]


def run_suite(cfg: SuiteConfig | None = None) -> SuiteReport:
    """Run every property and collect a report.

    Failures (including unexpected exceptions inside a property) become
    report entries; this function itself does not raise on them.
    """
    if cfg is None:
        cfg = SuiteConfig()
    report = SuiteReport(config=cfg)
    for pnum, (pid, _, fn) in enumerate(_PROPERTIES, start=1):
        try:
            report.results[pid] = _run(fn, cfg, np.random.default_rng([cfg.seed, pnum]))
        except Exception as exc:  # a property must never take the suite down
            report.results[pid] = PropertyResult(
                False, math.inf, {"error": f"{type(exc).__name__}: {exc}"})
    return report
