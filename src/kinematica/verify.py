"""Self-contained property suite over randomized inputs.

Each property draws from one generator seeded by (seed, property number),
takes its group members in one stacked random_element call per dimension
and case, accumulates the worst residual it sees and reports pass/fail
against the configured tolerance.  Failures never raise: they land in the
report, together with a counterexample payload of the matrices involved,
so a corrupted build shows up as a readable report entry and a nonzero
exit from the command line wrapper.
"""

from __future__ import annotations

import json
import math
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

    sigma_values accepts floats (inf included) or Sigma instances; seed
    must be a nonnegative integer: with the property's number it seeds
    one generator per property, so a report is reproducible from it.
    """

    n_values: tuple = (2, 3)
    sigma_values: tuple = _DEFAULT_SIGMAS
    trials: int = 25
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self):
        self.n_values = tuple(int(n) for n in self.n_values)
        if not self.n_values or min(self.n_values) < 2:
            raise ValueError("n_values must contain integers >= 2")
        self.sigma_values = tuple(as_sigma(s) for s in self.sigma_values)
        if not self.sigma_values:
            raise ValueError("sigma_values must not be empty")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def finite_nonzero(self) -> list[Sigma]:
        return [s for s in self.sigma_values if s.is_finite and s.value != 0.0]

    def positive(self) -> list[Sigma]:
        return [s for s in self.sigma_values if s.is_finite and s.value > 0.0]

    def to_json_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "sigma_values": ["inf" if s.is_infinite else s.value
                             for s in self.sigma_values],
            "trials": self.trials,
            "tol": self.tol,
            "seed": self.seed,
        }


@dataclass
class PropertyResult:
    passed: bool
    worst_residual: float
    counterexample: dict | None = None


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
                "worst_residual": res.worst_residual,
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


def _listify(payload: dict) -> dict:
    out = {}
    for key, value in payload.items():
        if isinstance(value, np.ndarray):
            out[key] = value.tolist()
        elif isinstance(value, Sigma):
            out[key] = "inf" if value.is_infinite else value.value
        else:
            out[key] = value
    return out


class _Check:
    """Accumulates residuals and the counterexample at the worst failure."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = 0.0
        self.passed = True
        self.counterexample = None

    def residual(self, value: float, payload: dict | None = None):
        value = float(value)
        failing = value > self.tol
        if value > self.worst:
            self.worst = value
            if failing and payload is not None:
                self.counterexample = _listify(payload)
        if failing:
            self.passed = False

    def flag(self, ok: bool, payload: dict | None = None):
        self.residual(0.0 if ok else 1.0, payload)

    def result(self) -> PropertyResult:
        return PropertyResult(self.passed, self.worst, self.counterexample)


def _members(rng: np.random.Generator, case: CaseLabel, s: Sigma | None, n: int,
             bound: float, count: int) -> np.ndarray:
    """A (count, n+1, n+1) stack of random members, drawn in one call.

    For sigma > 0, |b| is bounded by bound / sqrt(sigma), so the rapidity
    |b| sqrt(sigma) is at most bound at every sigma; a bound on |b| alone
    lets it grow like sqrt(sigma), past what membership can resolve."""
    if s is not None and s.is_finite and s.value > 0.0:
        bound /= math.sqrt(s.value)
    return groups.random_element(case, s, n, bound, rng.integers(2**32, size=count))


def _unit(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _cases(cfg: SuiteConfig) -> list[tuple[CaseLabel, Sigma | None]]:
    seen = []
    for s in cfg.sigma_values:
        pair = (case_of_sigma(s), s)
        if pair not in seen:
            seen.append(pair)
    seen.append((CaseLabel.ARISTOTLE, None))
    return seen


def _prop_isotypic(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        rotations = _members(rng, CaseLabel.ARISTOTLE, None, n, 0.0, cfg.trials)
        for Z, k in zip(rng.standard_normal((cfg.trials, n + 1, n + 1)), rotations):
            R, eps = k[:n, :n], int(k[n, n])
            parts = isotypic.split(Z)
            complete = matcore.op_norm(isotypic.merge(parts) - Z)
            moved = isotypic.split(isotypic.ad_rotation(R, eps, Z))
            resid = max(
                complete,
                abs(moved.lam - parts.lam),
                abs(moved.mu - parts.mu),
                matcore.op_norm(moved.m1 - R @ parts.m1 @ R.T),
                matcore.op_norm(moved.m2 - R @ parts.m2 @ R.T),
                float(np.linalg.norm(moved.b - eps * (R @ parts.b))),
                float(np.linalg.norm(moved.c - eps * (R @ parts.c))),
            )
            check.residual(resid, {"Z": Z, "R": R, "eps": eps})
    return check.result()


def _prop_collinearity(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.sigma_values:
            for _ in range(cfg.trials):
                b = rng.standard_normal(n)
                if s.is_infinite:
                    pair = (np.zeros(n), b)
                else:
                    pair = (b, s.value * b)
                defect = classify.collinearity_defect(*pair)
                nb2 = float(pair[0] @ pair[0])
                nc2 = float(pair[1] @ pair[1])
                check.residual(abs(defect) / (1.0 + nb2 * nc2),
                               {"b": pair[0], "c": pair[1], "sigma": s})
                # The doubled commutator of a general mixing generator with
                # the rotation it spawns reproduces the defect in its corner.
                b2, c2 = rng.standard_normal((2, n))
                _, _, corner = _doubled_commutator(b2, c2)
                closed = classify.collinearity_defect(b2, c2)
                check.residual(abs(corner - closed) / (1.0 + abs(closed)),
                               {"b": b2, "c": c2})
    return check.result()


def _generated_basis(n: int, s: Sigma, rng: np.random.Generator) -> list[np.ndarray]:
    basis = classify.rotation_generators(n)
    for _ in range(n):
        b = rng.standard_normal(n)
        scale = rng.uniform(0.25, 4.0)
        basis.append(scale * groups.p_generator(b, s))
    return basis


def _prop_classification(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        result = classify.classify_algebra(classify.rotation_generators(n), cfg.tol)
        check.flag(result.outcome == classify.OUTCOME_ARISTOTLE, {"n": n})
        for s in cfg.sigma_values:
            for _ in range(cfg.trials):
                basis = _generated_basis(n, s, rng)
                result = classify.classify_algebra(basis, cfg.tol)
                payload = {"n": n, "sigma": s, "outcome": result.outcome,
                           "reason": result.reason}
                if not result.is_kinematical:
                    check.flag(False, payload)
                    continue
                check.flag(classify.case_label(result) == case_of_sigma(s), payload)
                if s.is_infinite:
                    check.flag(result.sigma.is_infinite, payload)
                else:
                    err = abs(result.sigma.value - s.value) / (1.0 + abs(s.value))
                    check.residual(err, payload)
    return check.result()


def _prop_normalizer(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.finite_nonzero():
            members = _members(rng, case_of_sigma(s), s, n, 2.0, cfg.trials)
            scales = 10.0 ** rng.uniform(-8.0, 8.0, cfg.trials)
            ok, lam = groups.in_normalizer(members, s, cfg.tol)
            ok2, lam2 = groups.in_normalizer(np.sqrt(scales)[:, None, None] * members, s, cfg.tol)
            for g, lam0, ok_g, lam_g, ok_s, lam_s in zip(members, scales, ok, lam, ok2, lam2):
                check.flag(ok_g, {"a": g, "sigma": s})
                check.residual(abs(lam_g - 1.0), {"a": g, "sigma": s, "lam": lam_g})
                check.flag(ok_s, {"a": g, "sigma": s, "lam0": lam0})
                check.residual(abs(lam_s - lam0) / (1.0 + lam0),
                               {"a": g, "sigma": s, "lam0": lam0, "lam2": lam_s})
    return check.result()


def _prop_cartan(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.positive():
            cases = []
            for k in _members(rng, CaseLabel.ARISTOTLE, None, n, 0.0, cfg.trials):
                lam = float(rng.uniform(0.1, 10.0))
                b = _unit(rng, n) * rng.uniform(0.0, 4.0 / math.sqrt(s.value))
                Z = groups.p_generator(b, s)
                cases.append((groups.CartanFactors(lam, k, Z).reconstruct(), k, Z, lam))
            factors = groups.cartan_decompose(np.array([c[0] for c in cases]), s, cfg.tol)
            for (a, k, Z, lam), lam_f, k_f, Z_f in zip(cases, factors.lam, factors.k, factors.Z):
                resid = max(
                    matcore.op_norm(k_f - k),
                    matcore.op_norm(_balanced(Z_f - Z, s)),
                    abs(lam_f - lam) / (1.0 + lam),
                    matcore.op_norm(_balanced(groups.CartanFactors(lam_f, k_f, Z_f).reconstruct()
                                              - a, s))
                    / (1.0 + matcore.op_norm(_balanced(a, s))),
                )
                check.residual(resid, {"a": a, "k": k, "Z": Z, "lam": lam, "sigma": s})
    return check.result()


def _balanced(x: np.ndarray, s: Sigma) -> np.ndarray:
    """A copy of x in the balanced time unit of sigma (see matcore.balance)."""
    x = np.array(x, dtype=float)
    matcore.balance(x, s.value)
    return x


def _prop_closure(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for case, s in _cases(cfg):
            members = _members(rng, case, s, n, 2.0, 2 * cfg.trials)
            g1, g2 = members[:cfg.trials], members[cfg.trials:]
            products = groups.membership(g1 @ g2, case, s, cfg.tol)
            inverses = groups.membership(np.linalg.inv(g1), case, s, cfg.tol)
            for one, two, product, inverse in zip(g1, g2, products, inverses):
                check.flag(product and inverse, {"g1": one, "g2": two, "case": case.value})
    return check.result()


def _prop_pure_rotations(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for case, s in _cases(cfg):
            for a in _members(rng, case, s, n, 0.0, cfg.trials):
                A = a[:n, :n]
                resid = max(
                    float(np.linalg.norm(a[:n, n])),
                    float(np.linalg.norm(a[n, :n])),
                    matcore.op_norm(A.T @ A - np.eye(n)),
                    abs(abs(float(a[n, n])) - 1.0),
                )
                check.residual(resid, {"a": a, "case": case.value})
                check.flag(groups.in_K(a, cfg.tol), {"a": a, "case": case.value})
    return check.result()


def _prop_invariants(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.sigma_values:
            for a in _members(rng, case_of_sigma(s), s, n, 2.0, cfg.trials):
                payload = {"a": a, "sigma": s}
                if s.is_finite and s.value != 0.0:
                    g = np.diag(np.r_[np.full(n, -s.value), 1.0])
                    resid = matcore.op_norm(a.T @ g @ a - g) / (1.0 + matcore.op_norm(g))
                    check.residual(resid, payload)
                elif s.is_finite:
                    # Galilei: the last row is (0, ..., 0, +-1) exactly by
                    # construction, so time differences change at most sign.
                    exact = float(np.linalg.norm(a[n, :n])) + abs(abs(float(a[n, n])) - 1.0)
                    check.flag(exact == 0.0, payload)
                else:
                    # Carroll: spatial separations are preserved.
                    x = rng.standard_normal(n + 1)
                    y = rng.standard_normal(n + 1)
                    before = float(np.linalg.norm((x - y)[:n]))
                    after = float(np.linalg.norm((a @ x - a @ y)[:n]))
                    check.residual(abs(after - before) / (1.0 + before), payload)
    return check.result()


def _random_affine(n: int, rng: np.random.Generator) -> affine.AffineElement:
    while True:
        L = rng.standard_normal((n + 1, n + 1))
        if abs(np.linalg.det(L)) > 0.1:
            break
    return affine.AffineElement(L, rng.standard_normal(n + 1))


def _affine_distance(g: affine.AffineElement, h: affine.AffineElement) -> float:
    return max(matcore.op_norm(g.linear - h.linear),
               float(np.linalg.norm(g.translation - h.translation)))


def _shift_event(x: affine.Event, step: np.ndarray) -> affine.Event:
    return affine.Event.from_vector(x.vector() + step)


def _prop_affine(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for _ in range(cfg.trials):
            g = _random_affine(n, rng)
            h = _random_affine(n, rng)
            w = _random_affine(n, rng)
            assoc = _affine_distance(affine.compose(affine.compose(g, h), w),
                                     affine.compose(g, affine.compose(h, w)))
            ident = _affine_distance(affine.compose(g, affine.inverse(g)),
                                     affine.AffineElement.identity(n + 1))
            x = affine.Event(rng.standard_normal(n), float(rng.standard_normal()))
            gh_x = affine.act(affine.compose(g, h), x)
            g_hx = affine.act(g, affine.act(h, x))
            equivariance = float(np.linalg.norm(gh_x.vector() - g_hx.vector()))
            step = rng.standard_normal(n + 1)
            q0 = affine.act(g, x)
            q1 = affine.act(g, _shift_event(x, step))
            q2 = affine.act(g, _shift_event(x, 2.0 * step))
            straight = float(np.linalg.norm(
                (q2.vector() - q0.vector()) - 2.0 * (q1.vector() - q0.vector())))
            scale = 1.0 + matcore.op_norm(g.linear) * (1.0 + float(np.linalg.norm(step)))
            check.residual(max(assoc, ident, equivariance, straight) / scale,
                           {"g_linear": g.linear, "h_linear": h.linear})
        for s in cfg.positive():
            c = s.invariant_speed
            for member in _members(rng, CaseLabel.LORENTZ, s, n, 3.0, cfg.trials):
                gmap = affine.AffineElement(member, rng.standard_normal(n + 1))
                origin = affine.Event(rng.standard_normal(n), float(rng.standard_normal()))
                null_line = affine.WorldLine(origin, velocity=c * _unit(rng, n))
                image = affine.transform_worldline(gmap, null_line)
                check.residual(abs(image.speed() - c) / (1.0 + c),
                               {"a": member, "sigma": s})
                slow_line = affine.WorldLine(origin, velocity=0.5 * c * _unit(rng, n))
                slow_image = affine.transform_worldline(gmap, slow_line)
                check.flag(slow_image.speed() < c, {"a": member, "sigma": s})
    return check.result()


def _prop_negative_controls(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        base = _generated_basis(n, Sigma(1.0), rng)
        scalar = np.diag(np.r_[np.ones(n), 0.0])
        result = classify.classify_algebra(base + [scalar], cfg.tol)
        check.flag(result.outcome == classify.OUTCOME_NOT_KINEMATICAL,
                   {"n": n, "contaminant": "m0", "outcome": result.outcome})

        sym = np.diag(np.r_[1.0, -1.0, np.zeros(n - 1)])
        result = classify.classify_algebra(base + [sym], cfg.tol)
        check.flag(result.outcome == classify.OUTCOME_NOT_KINEMATICAL,
                   {"n": n, "contaminant": "m2", "outcome": result.outcome})

        mixed = classify.rotation_generators(n)
        mixed.append(groups.p_generator(rng.standard_normal(n), Sigma(1.0)))
        mixed.append(groups.p_generator(rng.standard_normal(n), Sigma(2.0)))
        result = classify.classify_algebra(mixed, cfg.tol)
        check.flag(result.outcome == classify.OUTCOME_NOT_KINEMATICAL,
                   {"n": n, "contaminant": "mixed sigma", "outcome": result.outcome})

        _, _, corner = nonalgebra_witness(n)
        check.residual(abs(corner - 2.0), {"n": n, "corner": corner})
        span = _mixing_span_basis(n)
        check.flag(not classify.is_closed_under_bracket(span, cfg.tol), {"n": n})
        check.flag(classify.bracket_closure_defect(span, cfg.tol) >= 1.0, {"n": n})
    return check.result()


def _mixing_span_basis(n: int) -> list[np.ndarray]:
    """Basis of rotations plus the full mixing component, which is not a
    subalgebra."""
    basis = classify.rotation_generators(n)
    for e in np.eye(n):
        basis += [groups.p_generator(e, 0.0), groups.p_generator(e, SIGMA_INF)]
    return basis


def _prop_wraparound(cfg: SuiteConfig, rng: np.random.Generator) -> PropertyResult:
    check = _Check(cfg.tol)
    negatives = [s for s in cfg.sigma_values if s.is_finite and s.value < 0.0]
    for n in cfg.n_values:
        for s in negatives:
            C = s.rotation_scale
            for _ in range(cfg.trials):
                u = _unit(rng, n)
                M = wraparound_demo(C, u, cfg.tol)
                expected = groups.k_element(np.eye(n) - 2.0 * np.outer(u, u), -1)
                check.residual(matcore.op_norm(_balanced(M - expected, s)), {"u": u, "C": C})
                full = groups.boost_closed_form(2.0 * math.pi * C * u, s)
                check.residual(matcore.op_norm(_balanced(full - np.eye(n + 1), s)),
                               {"u": u, "C": C})
    return check.result()


def wraparound_demo(C: float, u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Boost of norm pi * C for sigma = -1/C^2 along the unit vector u.

    The result is a block rotation: the spatial block reflects through the
    plane normal to u (determinant -1) and the corner entry is -1, a time
    reversal.  Raises ValueError if the result, in the balanced time unit
    of sigma, fails the block test.
    """
    if not (C > 0):
        raise ValueError("C must be positive")
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-12:
        raise ValueError("u must be a unit vector")
    n = u.size
    sigma = Sigma(-1.0 / (C * C))
    M = groups.boost_closed_form(math.pi * C * u, sigma)
    if not groups.in_K(_balanced(M, sigma), tol):
        raise ValueError("wrap-around boost did not land in the rotation block")
    if abs(M[n, n] + 1.0) > tol or abs(np.linalg.det(M[:n, :n]) + 1.0) > tol:
        raise ValueError("wrap-around boost has the wrong reflection structure")
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
    return _doubled_commutator(e[0], e[1])


def _doubled_commutator(b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The mixing generator Z with column b and row c, the rotation
    A = b c^T - c b^T that the bracket of two such generators spawns, and
    the corner entry of [Z, [Z, A]]."""
    n = b.size
    Z = np.zeros((n + 1, n + 1))
    Z[:n, n] = b
    Z[n, :n] = c
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.outer(b, c) - np.outer(c, b)
    return Z, A, float(matcore.bracket(Z, matcore.bracket(Z, A))[n, n])


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
    if any(s.is_finite and s.value < 0.0 for s in cfg.sigma_values):
        jobs.append(("wraparound",
                     "boosts of norm pi times the period scale land in the "
                     "rotation block (sigma < 0)", _prop_wraparound))
    for pnum, (pid, description, fn) in enumerate(jobs, start=1):
        report.descriptions[pid] = description
        try:
            report.results[pid] = fn(cfg, np.random.default_rng([cfg.seed, pnum]))
        except Exception as exc:  # a property must never take the suite down
            report.results[pid] = PropertyResult(
                False, math.inf, {"error": f"{type(exc).__name__}: {exc}"})
    return report
