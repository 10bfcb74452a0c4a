"""Workloads of the kinematica benchmark and the oracle that checks them.

Each workload builds one *round* of operations from its seed; a run
repeats the round.  An operation calls the package, times only those
calls, and afterwards checks every answer against how its input was
built, using numpy code of its own rather than the package.  The package
is always called through its module attributes, so a tracer installed on
those attributes sees every call.

A wrong answer counts as a failed operation.  It is *excused* when it
lies inside one of the documented defects below, which stay in the data
on purpose so that the baseline shows them; a wrong answer outside them
makes the run incorrect.

* ROUNDOFF: membership, the normalizer test and the Cartan factors
  compare a^dagger a with lam * I against a bound that does not grow with
  the conditioning of a, so Lorentz members of high rapidity are rejected
  or refused.  Inside the envelope when eps * cond(a) >= tol / 8; the
  smallest eps * cond(a) / tol seen among these failures is 0.47.
* SQUARED: the Cartan factors come from the logarithm of a^dagger a, and
  the affine round trip from a generic inverse multiplied back onto a;
  both can lose accuracy like eps * cond(a) ** 2.  An error within
  64 * eps * cond(a) ** 2 is inside the envelope; the accuracy expected is
  64 * eps * cond(a).
* SINGULAR: the same functions refuse ``abs(det(a)) <= tol`` as
  "matrix is singular", which catches scaled members of small lam.
  Inside the envelope when lam ** ((n + 1) / 2) = |det(a)| <= 2 * tol, or
  under ROUNDOFF.
* LARGE_SIGMA: the sigma read off each mixing vector carries a relative
  error that grows with |sigma|, while the agreement test between vectors
  allows only tol, so classification loses a large finite sigma, either as
  disagreeing sigmas or as Carroll.  Seen rarely from |sigma| near 8e3
  (none in about 7,000 sets at n = 2 and 3 from 2e3 to 6e3) and routinely
  above 1e6; inside the envelope when |sigma| >= 3e3.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from kinematica import affine, classify, cli, groups
from kinematica.classify import CaseLabel

EPS = float(np.finfo(float).eps)
TOL = 1e-9  # the package's default tolerance; every call here uses it
ROUNDOFF_ONSET = TOL / 8  # of eps * cond(a); see ROUNDOFF above
LARGE_SIGMA_ONSET = 3e3


@dataclass
class Outcome:
    """What one operation did: seconds spent inside the package and each
    disagreement with the construction as (where, message, excused)."""

    seconds: float = 0.0
    problems: list = field(default_factory=list)

    def call(self, fn, *args):
        """Call into the package, adding the call's time.  An exception is
        returned, not raised: the oracle decides whether it was expected."""
        start = time.perf_counter()
        try:
            return fn(*args)
        except Exception as exc:  # judged by the oracle
            return exc
        finally:
            self.seconds += time.perf_counter() - start

    def expect(self, ok: bool, where: str, message: str, excused: bool = False):
        if not ok:
            self.problems.append((where, message, bool(excused)))


@dataclass
class Op:
    label: str
    run: Callable[[Outcome], None]


@dataclass
class Workload:
    name: str
    ops: list
    digest: str


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item, dtype=float).tobytes())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


# ---------------------------------------------------------------- oracle

def _gram(sigma: float, n: int) -> np.ndarray:
    return np.diag(np.r_[np.full(n, -sigma), 1.0])


def _is_member(g: np.ndarray, case: CaseLabel, sigma) -> bool:
    """Independent membership check for a matrix built as a member."""
    n = g.shape[0] - 1
    scale = 1.0 + float(np.sum(g * g))
    if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
        G = _gram(sigma, n)
        resid = float(np.linalg.norm(g.T @ G @ g - G))
        return resid <= 1e3 * EPS * scale * float(np.abs(G).max())
    A, b, c, d = g[:n, :n], g[:n, n], g[n, :n], g[n, n]
    if case is not CaseLabel.GALILEI and float(np.linalg.norm(b)) > 1e3 * EPS * scale:
        return False
    if case is not CaseLabel.CARROLL and float(np.linalg.norm(c)) > 1e3 * EPS * scale:
        return False
    return (float(np.linalg.norm(A.T @ A - np.eye(n))) <= 1e3 * EPS
            and abs(abs(d) - 1.0) <= 1e3 * EPS)


def _perturbed(g: np.ndarray, case: CaseLabel) -> np.ndarray:
    """Copy of g with its largest constrained entry changed by 1e-6
    relative, which takes it out of the group.  Galilei leaves the last
    column free and Carroll the last row, so for those cases (and
    Aristotle) only the spatial block and the corner are candidates."""
    n = g.shape[0] - 1
    mask = np.ones_like(g, dtype=bool)
    if case in (CaseLabel.GALILEI, CaseLabel.CARROLL, CaseLabel.ARISTOTLE):
        mask[:n, n] = False
        mask[n, :n] = False
    i, j = np.unravel_index(np.argmax(np.where(mask, np.abs(g), -1.0)), g.shape)
    out = g.copy()
    out[i, j] *= 1.0 + 1e-6
    return out


def _boost(b: np.ndarray, sigma: float) -> np.ndarray:
    """exp of the boost generator for b, sigma > 0, in closed form."""
    n = b.size
    beta = float(np.linalg.norm(b))
    out = np.eye(n + 1)
    if beta == 0.0:
        return out
    u = b / beta
    w = beta * math.sqrt(sigma)
    out[:n, :n] += (math.cosh(w) - 1.0) * np.outer(u, u)
    out[:n, n] = math.sinh(w) / math.sqrt(sigma) * u
    out[n, :n] = math.sinh(w) * math.sqrt(sigma) * u
    out[n, n] = math.cosh(w)
    return out


def _cartan_error(a, lam, k, Z, sigma) -> tuple[float, str]:
    """Largest relative error of (lam, k, Z) as the Cartan factors of a,
    with the part it was found in."""
    n = a.shape[0] - 1
    k = np.asarray(k, dtype=float).reshape(n + 1, n + 1)
    Z = np.asarray(Z, dtype=float).reshape(n + 1, n + 1)
    b = Z[:n, n]
    rebuilt = math.sqrt(lam) * k @ _boost(b, sigma)
    parts = {
        "k is not a block rotation": (
            float(np.linalg.norm(k[:n, n])) + float(np.linalg.norm(k[n, :n]))
            + float(np.linalg.norm(k[:n, :n].T @ k[:n, :n] - np.eye(n)))
            + abs(abs(k[n, n]) - 1.0)),
        "Z is not a boost generator": (
            (float(np.linalg.norm(Z[:n, :n])) + abs(Z[n, n])
             + float(np.linalg.norm(Z[n, :n] - sigma * b)))
            / (1.0 + float(np.linalg.norm(b)))),
        "factors do not rebuild a": (
            float(np.linalg.norm(rebuilt - a)) / float(np.linalg.norm(a))),
    }
    where = max(parts, key=parts.get)
    return parts[where], where


def _is_singular_error(exc) -> bool:
    return type(exc) is ValueError and str(exc) == "matrix is singular"


# -------------------------------------------------------------- elements

ELEMENT_CASES = (
    (CaseLabel.LORENTZ, 1.0),
    (CaseLabel.LORENTZ, 0.25),
    (CaseLabel.ORTHOGONAL, -1.0),
    (CaseLabel.ORTHOGONAL, -4.0),
    (CaseLabel.GALILEI, 0.0),
    (CaseLabel.CARROLL, math.inf),
    (CaseLabel.ARISTOTLE, None),
)
ELEMENT_DIMS = (3, 10)
ELEMENTS_PER_GROUP = 100
MAX_RAPIDITY = 12.0
LAM_DECADES = (-3.0, 3.0)


def _element_op(case, sigma, n, bound, seed, lam, shift, event, u) -> Callable:
    name = case.value.lower()

    def run(out: Outcome):
        g = out.call(groups.random_element, case, sigma, n, bound, seed)
        if isinstance(g, Exception) or not _is_member(g, case, sigma):
            out.expect(False, "groups.random_element", f"no member generated: {g!r}")
            return
        kappa = float(np.linalg.cond(g))
        roundoff = EPS * kappa >= ROUNDOFF_ONSET
        slack = max(TOL, 64 * EPS * kappa)
        lorentz = case is CaseLabel.LORENTZ
        where = f"groups.membership.{name}"

        verdict = out.call(groups.membership, g, case, sigma)
        out.expect(verdict is True, where, f"member rejected: {verdict!r}",
                   lorentz and roundoff)
        verdict = out.call(groups.membership, _perturbed(g, case), case, sigma)
        out.expect(verdict is False, where, f"perturbed copy accepted: {verdict!r}")

        if case in (CaseLabel.LORENTZ, CaseLabel.ORTHOGONAL):
            a = math.sqrt(lam) * g
            refusable = roundoff or lam ** ((n + 1) / 2) <= 2 * TOL
            got = out.call(groups.in_normalizer, a, sigma)
            if isinstance(got, Exception):
                out.expect(False, "groups.in_normalizer", f"lam {lam:.3g}: {got!r}",
                           _is_singular_error(got) and refusable)
            else:
                ok, lam_out = got
                out.expect(ok and abs(lam_out - lam) <= slack * lam, "groups.in_normalizer",
                           f"lam {lam:.3g} gave {got!r}", roundoff)
        if lorentz:
            got = out.call(groups.cartan_decompose, a, sigma)
            if isinstance(got, Exception):
                known = (groups.NotInNormalizer, groups.NonPositiveLambda,
                         groups.LogarithmFailure)
                out.expect(False, "groups.cartan_decompose", f"lam {lam:.3g}: {got!r}",
                           (_is_singular_error(got) and refusable)
                           or (isinstance(got, known) and roundoff))
            elif abs(got.lam - lam) > slack * lam:
                out.expect(False, "groups.cartan_decompose", f"lam {got.lam!r} for {lam!r}",
                           roundoff)
            else:
                err, why = _cartan_error(a, got.lam, got.k, got.Z, sigma)
                out.expect(err <= slack, "groups.cartan_decompose", f"{why}: {err:.3g}",
                           err <= 64 * EPS * kappa**2)

        _check_affine(out, g, shift, event, u, sigma if lorentz else None, kappa)

    return run


def _check_affine(out, g, shift, event, u, sigma, kappa):
    """act, compose and inverse on one event; for sigma > 0 also the images
    of a null and a slow world line, which keep the invariant speed."""
    n = g.shape[0] - 1
    gmap = out.call(affine.AffineElement, g, shift)
    x = out.call(affine.Event, event[:n], event[n])
    y = out.call(affine.act, gmap, x)
    if isinstance(y, Exception):
        out.expect(False, "affine.act", repr(y))
        return
    size = 1.0 + float(np.linalg.norm(event)) + float(np.linalg.norm(shift))
    slack = max(TOL, 64 * EPS * kappa) * size
    err = float(np.linalg.norm(y.vector() - (g @ event + shift)))
    out.expect(err <= slack * float(np.linalg.norm(g)), "affine.act", f"image off by {err:.3g}")
    back = out.call(affine.act, out.call(affine.compose, out.call(affine.inverse, gmap), gmap), x)
    if isinstance(back, Exception):
        out.expect(False, "affine.inverse", repr(back))
        return
    err = float(np.linalg.norm(back.vector() - event))
    out.expect(err <= slack, "affine.inverse", f"round trip off by {err:.3g}",
               err <= 64 * EPS * kappa**2 * size)
    if sigma is None:
        return
    c = 1.0 / math.sqrt(sigma)
    for factor in (1.0, 0.5):
        line = out.call(affine.WorldLine, x, factor * c * u)
        image = out.call(affine.transform_worldline, gmap, line)
        speed = image if isinstance(image, Exception) else out.call(image.speed)
        if isinstance(speed, Exception):
            out.expect(False, "affine.transform_worldline", repr(speed))
        elif factor == 1.0:
            out.expect(abs(speed - c) <= slack * c, "affine.transform_worldline",
                       f"null line moves at {speed!r}, not {c!r}")
        else:
            out.expect(speed < c * (1.0 + slack), "affine.transform_worldline",
                       f"slow line moves at {speed!r} >= {c!r}")


def build_elements(seed: int) -> Workload:
    """Members of every case at n = 3 and 10: generated, tested, scaled and
    factored.  Boost sizes run up to rapidity 12 and lam is stratified
    log-uniformly over [1e-3, 1e3]."""
    rng = np.random.default_rng([seed, 1])
    ops, items = [], []
    for case, sigma in ELEMENT_CASES:
        for n in ELEMENT_DIMS:
            if sigma is None:
                bound = 0.0
            elif math.isfinite(sigma) and sigma != 0.0:
                bound = MAX_RAPIDITY / math.sqrt(abs(sigma))
            else:
                bound = MAX_RAPIDITY
            lo, hi = LAM_DECADES
            strata = (np.arange(ELEMENTS_PER_GROUP) + rng.random(ELEMENTS_PER_GROUP))
            lams = 10.0 ** (lo + (hi - lo) * strata / ELEMENTS_PER_GROUP)
            label = f"{case.value.lower()}/s{sigma}/n{n}"
            for lam in lams:
                element_seed = int(rng.integers(2**32))
                shift = rng.standard_normal(n + 1)
                event = rng.standard_normal(n + 1)
                u = rng.standard_normal(n)
                u /= np.linalg.norm(u)
                items += [label, element_seed, float(lam), shift, event, u]
                ops.append(Op(label, _element_op(case, sigma, n, bound, element_seed,
                                                 float(lam), shift, event, u)))
    return Workload("elements", ops, _digest(items))


# -------------------------------------------------------------- algebras

ALGEBRA_COPIES = {2: 16, 3: 8, 10: 2, 20: 1}
EXPONENT_STRATA = 8  # of [-12, 12], one boost set per stratum and copy
N20_EXPONENTS = (-4.5, 7.5)


def _rotations(n: int) -> list:
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            Z = np.zeros((n + 1, n + 1))
            Z[i, j], Z[j, i] = 1.0, -1.0
            out.append(Z)
    return out


def _boost_generator(b: np.ndarray, sigma: float) -> np.ndarray:
    n = b.size
    Z = np.zeros((n + 1, n + 1))
    if math.isinf(sigma):
        Z[n, :n] = b
    else:
        Z[:n, n] = b
        Z[n, :n] = sigma * b
    return Z


def _boost_set(rng, n: int, sigma: float) -> list:
    return _rotations(n) + [rng.uniform(0.25, 4.0) * _boost_generator(rng.standard_normal(n), sigma)
                            for _ in range(n)]


def _signed_sigma(rng, exponent: float) -> float:
    return float((1.0 if rng.random() < 0.5 else -1.0) * 10.0 ** exponent)


def _rejects(rng, n: int) -> list:
    """Sets that are not kinematical: scalar (m0) or traceless symmetric
    (m2) content, two different sigmas, and a non-collinear mixing pair.
    The first sigma lies in +-[1e-3, 1e3] and the second differs from it
    by a factor of 2 to 10, with either sign, well above the classifier's
    absolute resolution."""
    sigma = _signed_sigma(rng, rng.uniform(-3.0, 3.0))
    base = _boost_set(rng, n, sigma)
    scalar = np.diag(np.r_[np.full(n, rng.uniform(0.5, 2.0)), rng.uniform(0.5, 2.0)])
    sym = rng.standard_normal((n, n))
    sym = sym + sym.T
    sym -= np.trace(sym) / n * np.eye(n)
    m2 = np.zeros((n + 1, n + 1))
    m2[:n, :n] = sym
    other = sigma * _signed_sigma(rng, rng.uniform(0.3, 1.0))
    mixed = _rotations(n) + [_boost_generator(rng.standard_normal(n), s)
                             for s in (sigma, other)]
    skew = np.zeros((n + 1, n + 1))
    skew[:n, n] = rng.standard_normal(n)
    skew[n, :n] = rng.standard_normal(n)
    return [base + [scalar + base[-1]], base + [m2 + base[-1]], mixed, base + [skew]]


def _algebra_op(gens: list, expected) -> Callable:
    def run(out: Outcome):
        got = out.call(classify.classify_algebra, gens)
        where = "classify.classify_algebra"
        if isinstance(got, Exception):
            out.expect(False, where, repr(got))
            return
        if expected == "aristotle":
            out.expect(got.outcome == classify.OUTCOME_ARISTOTLE, where, got.outcome)
            return
        if expected == "reject":
            out.expect(got.outcome == classify.OUTCOME_NOT_KINEMATICAL, where, got.outcome)
            return
        large = math.isfinite(expected) and abs(expected) >= LARGE_SIGMA_ONSET
        message = f"sigma {expected!r}: {got.outcome} {got.sigma!r} {got.reason or ''}"
        if got.outcome != classify.OUTCOME_KINEMATICAL:
            out.expect(False, where, message, large)
        elif math.isinf(expected) or expected == 0.0:
            out.expect(got.sigma.value == expected, where, message)
        else:
            err = abs(got.sigma.value - expected)
            out.expect(err <= 1e-6 * abs(expected), where, message, large)

    return run


def build_algebras(seed: int) -> Workload:
    """Generator sets at n = 2, 3, 10 and 20.  Every copy of a dimension's
    slot list holds rotations alone, one boost set per exponent stratum of
    [-12, 12] with a random sign, the sigma = 0 and infinite sets, and four
    rejects.  Small n supplies most of the sets and n = 20 most of the
    time.  An accepted set at n = 20 costs about a second, so n = 20 has
    just two boost sets, at fixed exponents, one accepted and one inside
    the LARGE_SIGMA defect, and no sigma = 0 or infinite set.  That keeps a
    round short enough to repeat many times in a run, and a jittered
    exponent that crossed a regime boundary would change the cost of a
    round from seed to seed."""
    rng = np.random.default_rng([seed, 2])
    ops, items = [], []
    width = 24.0 / EXPONENT_STRATA
    for n, copies in ALGEBRA_COPIES.items():
        for _ in range(copies):
            if n == 20:
                exponents = list(N20_EXPONENTS)
            else:
                exponents = [-12.0 + width * (i + rng.random()) for i in range(EXPONENT_STRATA)]
            sets = [(_rotations(n), "aristotle")]
            for e in exponents:
                sigma = _signed_sigma(rng, e)
                sets.append((_boost_set(rng, n, sigma), sigma))
            if n != 20:
                sets += [(_boost_set(rng, n, s), s) for s in (0.0, math.inf)]
            sets += [(gens, "reject") for gens in _rejects(rng, n)]
            for gens, expected in sets:
                items += [n, expected] + gens
                ops.append(Op(f"n{n}", _algebra_op(gens, expected)))
    return Workload("algebras", ops, _digest(items))


# -------------------------------------------------------------- pipeline

PIPELINE_COUNT = 1000


def _run_cli(out: Outcome, argv: list, stdout_path: str, stderr_path: str) -> int:
    with open(stdout_path, "w") as so, open(stderr_path, "w") as se, \
            contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        return out.call(cli.main, argv)


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _cli_op(work: str, name: str, argv: list, check: Callable) -> Op:
    stdout_path = os.path.join(work, f"{name}.out.json")
    stderr_path = os.path.join(work, f"{name}.err.txt")

    def run(out: Outcome):
        code = _run_cli(out, argv, stdout_path, stderr_path)
        where = f"cli.main.{name}"
        if code != 0:
            out.expect(False, where, f"exit {code!r}")
            return
        data = _load_json(stdout_path)
        why = "output is not JSON" if data is None else check(data)
        out.expect(why is None, where, str(why))

    return Op(name, run)


def _check_members(data, n: int, count: int):
    if not isinstance(data, dict) or data.get("n") != n:
        return "wrong shape of output"
    mats = data.get("matrices", [])
    if len(mats) != count:
        return "wrong shape of output"
    for entry in mats:
        if not _is_member(np.asarray(entry, dtype=float).reshape(n + 1, n + 1),
                          CaseLabel.LORENTZ, 1.0):
            return "generated matrix is not a Lorentz member"
    return None


def _check_factors(data, members_path: str, n: int):
    members = _load_json(members_path)
    if members is None or not isinstance(data, list) or len(data) != len(members["matrices"]):
        return "factor list does not match the members"
    for entry, flat in zip(data, members["matrices"]):
        a = np.asarray(flat, dtype=float).reshape(n + 1, n + 1)
        slack = max(TOL, 64 * EPS * float(np.linalg.cond(a)))
        if not isinstance(entry, dict) or "error" in entry:
            return f"member refused: {entry!r}"
        if abs(entry["lambda"] - 1.0) > slack:
            return f"lambda {entry['lambda']!r} for a member"
        err, why = _cartan_error(a, entry["lambda"], entry["k"], entry["Z"], 1.0)
        if err > slack:
            return f"{why}: {err:.3g}"
    return None


def build_pipeline(seed: int, work: str) -> Workload:
    """The command line tool in-process: generate 1000 Lorentz members,
    decompose them, classify an n = 10 generator file written here, and
    run the default verify suite.  ``work`` receives the files."""
    rng = np.random.default_rng([seed, 3])
    n = 10
    case, sigma = [(CaseLabel.LORENTZ, 1.0), (CaseLabel.ORTHOGONAL, -1.0),
                   (CaseLabel.GALILEI, 0.0), (CaseLabel.CARROLL, math.inf)][rng.integers(4)]
    if math.isfinite(sigma) and sigma != 0.0:
        sigma *= 10.0 ** rng.uniform(-2.0, 2.0)
    gens = _boost_set(rng, n, sigma)
    gens_path = os.path.join(work, "generators.json")
    with open(gens_path, "w") as fh:
        json.dump({"n": n, "matrices": [G.ravel().tolist() for G in gens]}, fh)
    generate_seed = int(rng.integers(2**31))
    members_path = os.path.join(work, "generate.out.json")

    def check_classify(data):
        if not isinstance(data, dict):
            return "output is not an object"
        got = data.get("sigma")
        want = "inf" if math.isinf(sigma) else sigma
        if data.get("case") != case.value:
            return f"case {data.get('case')!r} for {case.value}"
        if want == "inf" or want == 0.0:
            return None if got == want else f"sigma {got!r} for {want!r}"
        if isinstance(got, float) and abs(got - want) <= 1e-6 * abs(want):
            return None
        return f"sigma {got!r} for {want!r}"

    ops = [
        _cli_op(work, "generate",
                ["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                 "--count", str(PIPELINE_COUNT), "--seed", str(generate_seed)],
                lambda data: _check_members(data, 3, PIPELINE_COUNT)),
        _cli_op(work, "decompose", ["decompose", members_path, "--sigma", "1"],
                lambda data: _check_factors(data, members_path, 3)),
        _cli_op(work, "classify", ["classify", gens_path], check_classify),
        _cli_op(work, "verify", ["verify"],
                lambda data: None if isinstance(data, dict) and data.get("pass") is True
                else "suite failed"),
    ]
    items = [case.value, sigma, generate_seed] + gens
    return Workload("pipeline", ops, _digest(items))


def build(name: str, seed: int, work: str) -> Workload:
    if name == "elements":
        return build_elements(seed)
    if name == "algebras":
        return build_algebras(seed)
    if name == "pipeline":
        return build_pipeline(seed, work)
    raise ValueError(f"unknown workload {name!r}")
