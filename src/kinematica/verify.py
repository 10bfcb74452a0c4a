"""Self-contained property suite over randomized inputs.

Each property draws its own deterministic random stream, accumulates the
worst residual it sees and reports pass/fail against the configured
tolerance.  Failures never raise: they land in the report, together with
a counterexample payload of the matrices involved, so a corrupted build
shows up as a readable report entry and a nonzero exit from the command
line wrapper.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import affine, classify, groups, isotypic, matcore
from .classify import CaseLabel, SIGMA_INF, Sigma, as_sigma, case_of_sigma

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
    must be a nonnegative integer so per-trial streams can be derived
    from it reproducibly.
    """

    n_values: tuple = (2, 3)
    sigma_values: tuple = _DEFAULT_SIGMAS
    trials: int = 25
    tol: float = 1e-9
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


class _Stream:
    """Deterministic per-trial random streams derived from (seed, property
    number, counter) through numpy's seed-mixing."""

    def __init__(self, seed: int, pnum: int):
        self.seed = seed
        self.pnum = pnum
        self.counter = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence([self.seed, self.pnum, self.counter])
        self.counter += 1
        return np.random.default_rng(ss)

    def int_seed(self) -> int:
        return int(self.rng().integers(2**32))


def _random_k(n: int, rng: np.random.Generator) -> np.ndarray:
    R = groups.random_orthogonal(n, rng)
    eps = 1 if rng.random() < 0.5 else -1
    return groups.k_element(R, eps)


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


def _prop_isotypic(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for _ in range(cfg.trials):
            rng = stream.rng()
            Z = rng.standard_normal((n + 1, n + 1))
            parts = isotypic.split(Z)
            complete = matcore.op_norm(isotypic.merge(parts) - Z)
            R = groups.random_orthogonal(n, rng)
            eps = 1 if rng.random() < 0.5 else -1
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


def _prop_collinearity(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.sigma_values:
            for _ in range(cfg.trials):
                rng = stream.rng()
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
                b2 = rng.standard_normal(n)
                c2 = rng.standard_normal(n)
                Z = np.zeros((n + 1, n + 1))
                Z[:n, n] = b2
                Z[n, :n] = c2
                A = np.zeros((n + 1, n + 1))
                A[:n, :n] = np.outer(b2, c2) - np.outer(c2, b2)
                corner = matcore.bracket(Z, matcore.bracket(Z, A))[n, n]
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


def _prop_classification(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        result = classify.classify_algebra(classify.rotation_generators(n), cfg.tol)
        check.flag(result.outcome == classify.OUTCOME_ARISTOTLE, {"n": n})
        for s in cfg.sigma_values:
            for _ in range(cfg.trials):
                rng = stream.rng()
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


def _prop_normalizer(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.finite_nonzero():
            case = case_of_sigma(s)
            for _ in range(cfg.trials):
                rng = stream.rng()
                g = groups.random_element(case, s, n, 2.0, stream.int_seed())
                ok, lam = groups.in_normalizer(g, s, cfg.tol)
                check.flag(ok, {"a": g, "sigma": s})
                check.residual(abs(lam - 1.0), {"a": g, "sigma": s, "lam": lam})
                lam0 = float(10.0 ** rng.uniform(-8.0, 8.0))
                ok2, lam2 = groups.in_normalizer(math.sqrt(lam0) * g, s, cfg.tol)
                check.flag(ok2, {"a": g, "sigma": s, "lam0": lam0})
                check.residual(abs(lam2 - lam0) / (1.0 + lam0),
                               {"a": g, "sigma": s, "lam0": lam0, "lam2": lam2})
    return check.result()


def _prop_cartan(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.positive():
            for _ in range(cfg.trials):
                rng = stream.rng()
                lam = float(rng.uniform(0.1, 10.0))
                k = _random_k(n, rng)
                bmax = 4.0 / math.sqrt(s.value)
                b = _unit(rng, n) * rng.uniform(0.0, bmax)
                Z = groups.p_generator(b, s)
                a = math.sqrt(lam) * k @ matcore.mat_exp(Z)
                factors = groups.cartan_decompose(a, s, cfg.tol)
                resid = max(
                    matcore.op_norm(factors.k - k),
                    matcore.op_norm(factors.Z - Z),
                    abs(factors.lam - lam) / (1.0 + lam),
                    matcore.op_norm(factors.reconstruct() - a)
                    / (1.0 + matcore.op_norm(a)),
                )
                check.residual(resid, {"a": a, "k": k, "Z": Z, "lam": lam,
                                       "sigma": s})
    return check.result()


def _prop_closure(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for case, s in _cases(cfg):
            for _ in range(cfg.trials):
                g1 = groups.random_element(case, s, n, 2.0, stream.int_seed())
                g2 = groups.random_element(case, s, n, 2.0, stream.int_seed())
                payload = {"g1": g1, "g2": g2, "case": case.value}
                check.flag(groups.membership(g1 @ g2, case, s, cfg.tol), payload)
                check.flag(groups.membership(np.linalg.inv(g1), case, s, cfg.tol),
                           payload)
    return check.result()


def _prop_pure_rotations(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for case, s in _cases(cfg):
            for _ in range(cfg.trials):
                a = groups.random_element(case, s, n, 0.0, stream.int_seed())
                blocks = matcore.block_split(a)
                resid = max(
                    float(np.linalg.norm(blocks.b)),
                    float(np.linalg.norm(blocks.c)),
                    matcore.op_norm(blocks.A.T @ blocks.A - np.eye(n)),
                    abs(abs(blocks.d) - 1.0),
                )
                check.residual(resid, {"a": a, "case": case.value})
                check.flag(groups.in_K(a, cfg.tol), {"a": a, "case": case.value})
    return check.result()


def _prop_invariants(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for s in cfg.sigma_values:
            case = case_of_sigma(s)
            for _ in range(cfg.trials):
                rng = stream.rng()
                a = groups.random_element(case, s, n, 2.0, stream.int_seed())
                payload = {"a": a, "sigma": s}
                if s.is_finite and s.value != 0.0:
                    g = matcore.Metric(s.value, n).gram
                    resid = matcore.op_norm(a.T @ g @ a - g) / (1.0 + matcore.op_norm(g))
                    check.residual(resid, payload)
                elif s.is_finite:
                    # Galilei: the last row is (0, ..., 0, +-1) exactly by
                    # construction, so time differences change at most sign.
                    blocks = matcore.block_split(a)
                    exact = float(np.linalg.norm(blocks.c)) + abs(abs(blocks.d) - 1.0)
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


def _prop_affine(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        for _ in range(cfg.trials):
            rng = stream.rng()
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
            for _ in range(cfg.trials):
                rng = stream.rng()
                member = groups.random_element(CaseLabel.LORENTZ, s, n, 3.0,
                                               stream.int_seed())
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


def _prop_negative_controls(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    for n in cfg.n_values:
        rng = stream.rng()
        base = _generated_basis(n, Sigma(1.0), rng)
        scalar = np.zeros((n + 1, n + 1))
        scalar[:n, :n] = np.eye(n)
        result = classify.classify_algebra(base + [scalar], cfg.tol)
        check.flag(result.outcome == classify.OUTCOME_NOT_KINEMATICAL,
                   {"n": n, "contaminant": "m0", "outcome": result.outcome})

        sym = np.zeros((n + 1, n + 1))
        sym[0, 0] = 1.0
        sym[1, 1] = -1.0
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
    for i in range(n):
        Z = np.zeros((n + 1, n + 1))
        Z[i, n] = 1.0
        basis.append(Z)
        W = np.zeros((n + 1, n + 1))
        W[n, i] = 1.0
        basis.append(W)
    return basis


def _prop_wraparound(cfg: SuiteConfig, stream: _Stream) -> PropertyResult:
    check = _Check(cfg.tol)
    negatives = [s for s in cfg.sigma_values if s.is_finite and s.value < 0.0]
    for n in cfg.n_values:
        for s in negatives:
            C = s.rotation_scale
            for _ in range(cfg.trials):
                rng = stream.rng()
                u = _unit(rng, n)
                M = wraparound_demo(C, u, cfg.tol)
                expected = groups.k_element(np.eye(n) - 2.0 * np.outer(u, u), -1)
                check.residual(matcore.op_norm(M - expected), {"u": u, "C": C})
                full = groups.boost_closed_form(2.0 * math.pi * C * u, s)
                check.residual(matcore.op_norm(full - np.eye(n + 1)), {"u": u, "C": C})
    return check.result()


def wraparound_demo(C: float, u, tol: float = 1e-9) -> np.ndarray:
    """Boost of norm pi * C for sigma = -1/C^2 along the unit vector u.

    The result is a block rotation: the spatial block reflects through the
    plane normal to u (determinant -1) and the corner entry is -1, a time
    reversal.  Raises ValueError if the result fails the block test.
    """
    if not (C > 0):
        raise ValueError("C must be positive")
    u = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-12:
        raise ValueError("u must be a unit vector")
    n = u.size
    sigma = Sigma(-1.0 / (C * C))
    M = groups.boost_closed_form(math.pi * C * u, sigma)
    if not groups.in_K(M, tol):
        raise ValueError("wrap-around boost did not land in the rotation block")
    blocks = matcore.block_split(M)
    if abs(blocks.d + 1.0) > tol or abs(np.linalg.det(blocks.A) + 1.0) > tol:
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
    b = np.zeros(n)
    b[0] = 1.0
    c = np.zeros(n)
    c[1] = 1.0
    Z = np.zeros((n + 1, n + 1))
    Z[:n, n] = b
    Z[n, :n] = c
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = np.outer(b, c) - np.outer(c, b)
    corner = float(matcore.bracket(Z, matcore.bracket(Z, A))[n, n])
    if abs(corner - 2.0) > 1e-12:
        raise ValueError(f"witness corner should be 2, got {corner!r}")
    return Z, A, corner


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
            report.results[pid] = fn(cfg, _Stream(cfg.seed, pnum))
        except Exception as exc:  # a property must never take the suite down
            report.results[pid] = PropertyResult(
                False, math.inf, {"error": f"{type(exc).__name__}: {exc}"})
    return report
