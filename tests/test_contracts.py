"""The stack contract of the README, checked once for every public entry point taking stacks.

For a stack S, and one object broadcast against it where the function allows that: if f(S)
returns, each f(S[i]) returns and each array or field of f(S), the stack axes first, equals
f(S[i]) at i bit for bit; if f(S) raises, some S[i] raises the same exception type, and a message
naming an index (" at index i") names the first i to raise that message alone; no call warns
(``filterwarnings = error``).  Documented forms: cartan_decompose's refusals (same_leaves), a
general line's speed (leaves), classify_algebra (same_result).  EXACT entry points get extreme
draws, PLAIN ones the range their docstrings state (arguments, patched).
"""

import math
import re
from dataclasses import fields, is_dataclass
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_affine import one_event, one_line, same_bits
from test_classify import _fingerprint, _gate, _gate_sets, _standard_generators, mixing

from kinematica import affine, classify, groups, isotypic, matcore, verify
from kinematica.affine import AffineElement, Event, WorldLine
from kinematica.classify import CaseLabel, case_of_sigma
from kinematica.groups import CartanFactors, NonPositiveLambda, NotInNormalizer

REFUSALS = (NotInNormalizer, NonPositiveLambda)  # a stack records these in ``refused``
PATCHES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.7e308, -1.7e308,  # EXACT draws
                    math.nan, math.inf, -math.inf])  # any draw
SIGMAS = {True: (1.0, 0.25, -1.0, 0.0, math.inf, 1e-12, -1e12, 1e300, -1e-300, 5e-324, -1.7e308),
          False: (1.0, 0.25, 4.0, -1.0, -4.0, 0.0, math.inf, 1e-6, -1e6)}
SHAPES = [(1,), (3,), (5,), (2, 2), (2, 3)]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf)")  # in a classify reason
Stack = NamedTuple("Stack", [("value", object), ("shape", tuple)])  # shape: its stack axes


def pick(x, i):
    """Entry i of a stacked argument or result."""
    if isinstance(x, (Event, WorldLine)):
        return (one_event if isinstance(x, Event) else one_line)(x, i)
    if is_dataclass(x):
        return type(x)(**{f.name: pick(getattr(x, f.name), i) for f in fields(x)})
    return x if x is None else x[i]


def leaves(x) -> list:
    """The arrays and fields a result is compared by."""
    if isinstance(x, tuple):
        return [leaf for part in x for leaf in leaves(part)]
    if isinstance(x, Event):
        return [x.r, x.t]
    if isinstance(x, WorldLine):  # one general line's speed() raises
        return leaves(x.origin) + [x.direction, x.kind, x.velocity, math.nan if (
            x.direction.ndim == 1 and x.kind == "general") else x.speed()]
    if is_dataclass(x):
        return [leaf for f in fields(x) for leaf in leaves(getattr(x, f.name))]
    return [x]


def same_leaves(whole, i, one, args):
    if isinstance(one, REFUSALS):  # cartan_decompose's refusal, with k = Z = 0
        assert whole.refused[i] is type(one) and not whole.k[i].any() and not whole.Z[i].any()
        return
    assert not isinstance(one, Exception), f"the stack returned, entry {i} alone raised {one!r}"
    for got, want in zip(leaves(whole), leaves(one), strict=True):
        assert same_bits(np.asarray(got)[i], want), f"entry {i}: {np.asarray(got)[i]!r}, {want!r}"
    if isinstance(one, Event):  # the entry prints as the one event does
        assert repr(pick(whole, i)) == repr(one) and whole.n == one.n


def same_result(whole, i, one, args):
    """classify_algebra's form: outcome equal; reason, sigma (so the case) and diagnostics bit for
    bit where the set drops the rotation-only generators the stack drops (read over the power of
    two of its largest entry, none below 2^-900); else, with no entry below 2^-900, the reason,
    sigma and diagnostics to 1e-12 (the spread relative to 1 + |sigma|); else the reason's
    words, rank and sigma to 1e-12."""
    got, sets, n = whole[i[0]], args[0].value, args[0].value.shape[-1] - 1
    assert [got.outcome, *got.diagnostics] == [one.outcome, *one.diagnostics], i
    x = np.ldexp(sets, -np.frexp(abs(sets).max(axis=(-3, -2, -1), keepdims=True))[1])
    x[..., :n, :n] += x[..., :n, :n].mT  # its content outside the rotations, the rest of x
    zero, tiny = ~x.any((-2, -1)), (x[i] != 0.0) & (abs(x[i]) < 2.0 ** -900)
    near = got.sigma is one.sigma or got.sigma.value == pytest.approx(one.sigma.value, 1e-12, 0.0)
    if tiny.any():
        assert NUMBER.sub("#", got.reason or "") == NUMBER.sub("#", one.reason or ""), i
        assert got.diagnostics["rank"] == one.diagnostics["rank"] and near, i
    elif (zero[i] == zero.all(0)).all():
        assert got.reason == one.reason and got.sigma == one.sigma and same_bits(
            list(got.diagnostics.values()), list(one.diagnostics.values())), i
    else:
        spread = 1.0 + abs(one.sigma.value) if one.sigma else 1.0
        assert got.reason == one.reason and near and all(abs(got.diagnostics[key] - value) <= (
            1e-12 * (spread if key == "sigma_spread" else 1.0)) for key, value in
            one.diagnostics.items()), i


class Entry(NamedTuple):
    call: Callable
    build: str | Callable  # the names of its arguments in ARGUMENTS, or a function of the draw
    exact: bool = True
    sigmas: tuple = ()
    finite: bool = False  # no NaN or inf in x, for arguments that would refuse them
    examples: tuple = ()
    broadcast: tuple = ()  # the stacked arguments that one object may stand for


def attempt(call, args):
    """call(*args), or the exception it raises; a warning, an error in this suite, propagates."""
    try:
        return call(*args)
    except Warning:
        raise
    except Exception as error:
        return error


def spelled_out(a: Stack):
    """The value of a stacked argument, an array broadcast to its stack axes (a sigma of shape
    (k, 1) is one per row of a (k, m) stack)."""
    v = a.value
    return np.broadcast_to(v, a.shape + v.shape[len(a.shape):]) if isinstance(v, np.ndarray) else v


def check(name: str, entry: Entry, args: tuple):
    """Assert the stack contract for one draw of arguments."""
    (shape,) = {a.shape for a in args if isinstance(a, Stack)}
    whole = attempt(entry.call, [a.value if isinstance(a, Stack) else a for a in args])
    spelled = [Stack(spelled_out(a), a.shape) if isinstance(a, Stack) else a for a in args]
    alone = {i: attempt(entry.call, [pick(a.value, i) if isinstance(a, Stack) else a
                                     for a in spelled]) for i in np.ndindex(shape)}
    if not isinstance(whole, Exception):
        assert all(np.shape(leaf)[:len(shape)] == shape for leaf in leaves(whole)), name
        for i, one in alone.items():
            (same_result if isinstance(whole, list) else same_leaves)(whole, i, one, args)
        return
    raised = [i for i, one in alone.items() if type(one) is type(whole)]
    assert raised and not isinstance(whole, REFUSALS), f"{name}: the stack raised {whole!r}"
    if named := re.fullmatch(r"(.*) at index (.*)", str(whole), re.DOTALL):
        first = next((i for i in raised if str(alone[i]) == named[1]), ())
        assert named[2] == str(first[0] if len(first) == 1 else first), (name, whole, first)


def patched(draw, x: np.ndarray, shape: tuple, exact: bool, finite: bool) -> np.ndarray:
    """x, in place unless exact, which scales each entry of the stack by 2^+-600 or 2^+-1000 (as
    far as its largest entry stays finite), with up to four entries set to PATCHES (the last three
    unless finite)."""
    if exact:
        top = np.frexp(abs(x).max(tuple(range(len(shape), x.ndim)), keepdims=True))[1]
        x = np.ldexp(x, np.minimum(draw(arrays(np.int16, shape, elements=st.sampled_from(
            [0, 600, -600, 1000, -1000]))).reshape(top.shape), 1023 - top))
    nonfinite = not finite and draw(st.integers(0, 7)) == 0
    values = np.r_[PATCHES[:7 * exact], PATCHES[7:7 + 3 * nonfinite]]
    for at, value in draw(st.lists(st.tuples(st.integers(0, x.size - 1), st.sampled_from(
            values)), max_size=4)) if values.size else ():
        x.flat[at] = value
    return x


@st.composite
def arguments(draw, entry: Entry):
    """Arguments for a drawn stack x of members, near-members, sqrt(lam) copies, Gaussian, zeros."""
    sigma = draw(st.sampled_from(entry.sigmas or SIGMAS[entry.exact]))
    shape, d = draw(st.sampled_from(SHAPES)), draw(st.sampled_from([3, 4, 5, 11]))
    rng, m = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), math.prod(shape)
    bound = 2.0 / math.sqrt(abs(sigma)) if 0.0 < abs(sigma) < math.inf else 2.0
    g = groups.random_element(case_of_sigma(sigma), sigma, d - 1, bound, rng, size=m)
    gauss = rng.standard_normal((m, d, d))
    kinds = np.stack([g, g @ (np.eye(d) + 10.0 ** rng.uniform(-9, -3, (m, 1, 1)) * gauss),
                      np.sqrt(10.0 ** rng.uniform(-8, 8, (m, 1, 1))) * g, gauss, 0.0 * g])
    x = kinds[rng.choice(5, m, p=[0.3, 0.2, 0.2, 0.2, 0.1]), np.arange(m)]
    c = SimpleNamespace(draw=draw, x=patched(draw, x.reshape(shape + (d, d)), shape, entry.exact,
                                             entry.finite), sigma=sigma, shape=shape, rng=rng,
                        pool=entry.sigmas or SIGMAS[entry.exact])
    args = list(entry.build(c) if callable(entry.build) else (
        ARGUMENTS[name](c) if name in PLAIN else Stack(ARGUMENTS[name](c), shape)
        for name in entry.build.split()))
    if (j := draw(st.sampled_from((None,) + entry.broadcast))) is not None:
        args[j] = pick(args[j].value, (0,) * len(shape))
    return tuple(args)


def run(name: str, entry: Entry, **overrides):
    """Check the contract of entry over its examples, then its draws (hypothesis derandomizes
    by contract's source: the same source, the same draws)."""
    def contract(args):
        check(name, entry, args)
    for args in entry.examples:
        contract(args)
    settings(max_examples=8, deadline=None, **overrides)(given(arguments(entry))(contract))()


def generator_sets(c):
    """A (T,) stack of sets of test_classify's gates and sigmas, drawn and patched."""
    gates, t = list(_gate_sets(c.rng, c.x.shape[-1] - 1).values()), math.prod(c.shape)
    sets = np.array(gates)[c.draw(arrays(np.int8, t, elements=st.integers(0, len(gates) - 1)))]
    return (Stack(patched(c.draw, sets, (t,), True, False), (t,)),)


PLAIN = {"sigma", "shift", "flag", "flat", "case"}  # the rest are stacked alike
ARGUMENTS = {  # of a draw c: the stack x, sigma and what is made of them
    "x": lambda c: c.x, "xT": lambda c: c.x.mT, "sigma": lambda c: c.sigma,
    "b": lambda c: c.x[..., :-1, -1], "row": lambda c: c.x[..., 0, :],
    "flat": lambda c: Stack(c.x.reshape((-1,) + c.x.shape[-2:]), (math.prod(c.shape),)),
    "mask": lambda c: c.draw(arrays(bool, c.shape)), "flag": lambda c: c.draw(st.booleans()),
    "k": lambda c: c.rng.integers(-540, 540, c.shape + (1,)),
    "shift": lambda c: c.draw(st.sampled_from([None, np.subtract.outer(*[np.r_[np.zeros(
        c.x.shape[-1] - 1, int), -matcore.sigma_unit(c.sigma)[0]]] * 2)])),
    "factors": lambda c: groups.cartan_decompose(c.x, c.sigma),
    "R": lambda c: np.where(c.rng.random(c.shape + (1, 1)) < 0.1, c.x[..., 1:, 1:], np.linalg.qr(
        c.rng.standard_normal(c.x[..., 1:, 1:].shape))[0]),  # orthogonal, some blocks of x
    "eps": lambda c: c.rng.choice([1, -1, 2, 0], c.shape, p=[0.45, 0.45, 0.05, 0.05]),
    "map": lambda c: AffineElement(c.x, c.x[..., 0, :]),
    "mapT": lambda c: AffineElement(c.x.mT, c.x[..., 1, :]),
    "event": lambda c: Event.from_vector(c.x[..., 0, :]),
    "line": lambda c: WorldLine(Event.from_vector(c.x[..., 0, :]), velocity=c.x[..., 1, 1:]),
    "origin": lambda c: Event.from_vector(c.rng.standard_normal(c.x[..., 0, :].shape)),
    "direction": lambda c: c.x[..., :, -1] if c.draw(st.booleans()) else c.x[..., 0, :],
    "case": lambda c: c.draw(st.sampled_from([case_of_sigma(c.sigma)] * 7 + list(CaseLabel))),
    # one sigma per row, the drawn one half the time, or one per first-axis row broadcasting
    "sigmas": lambda c: c.draw(arrays(float, c.shape[:1] + (1,) * (len(c.shape) - 1) if c.draw(
        st.booleans()) else c.shape, elements=st.sampled_from((c.sigma,) * len(c.pool) + c.pool))),
}
MIXED = Stack(np.concatenate([G := groups.random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, 0, size=3),
                              2.0 ** 600 * G[:1], 2.0 ** -600 * G[1:2], np.zeros((1, 4, 4)),
                              np.random.default_rng(0).standard_normal((2, 4, 4))]), (8,))
GATES = _gate_sets(np.random.default_rng(1), 3)
STRIDED = Stack(np.asfortranarray(np.random.default_rng(4).standard_normal((3, 4)) * 2.0 ** np.c_[
    [-499, -503, -503]]), (3,))  # strided rows, |b| about 2^-500: one |b| formula, one order
STACK_SIGMAS = tuple(sign * 10.0 ** e for sign in (1.0, -1.0) for e in (-12, -6, 0, 6, 12))


def mixed_stack(n, sigma, rng, count=4):
    """Members of each group at n, the metric one at sigma and of rapidity or angle up to 2,
    then the same scaled by sqrt(lam) with lam from 1e-8 to 1e8, copies of those with every
    entry moved by 1e-6 relative, the zero matrix and Gaussian non-members: a (m,) Stack."""
    metric = CaseLabel.LORENTZ if sigma > 0 else CaseLabel.ORTHOGONAL
    seed = int(rng.integers(2**32))
    members = np.concatenate(
        [groups.random_element(metric, sigma, n, 2.0 / math.sqrt(abs(sigma)), seed, size=count)]
        + [groups.random_element(case, None, n, 2.0, seed, size=count)
           for case in (CaseLabel.GALILEI, CaseLabel.CARROLL, CaseLabel.ARISTOTLE)])
    scaled = np.sqrt(10.0 ** rng.uniform(-8.0, 8.0, len(members)))[:, None, None] * members
    moved = scaled * (1.0 + 1e-6 * rng.choice((-1.0, 1.0), scaled.shape))
    x = np.concatenate([members, scaled, moved, np.zeros((1, n + 1, n + 1)),
                        rng.standard_normal((count, n + 1, n + 1))])
    return Stack(x, x.shape[:1])


def kind_sets(rng, n):
    """One set of each kind, by the gate or case it reads as, all of m = n(n-1)/2 + n + 2
    generators with their rotation rows (none in non-rotation content), their n + 1 content rows
    and one zero generator at the same places, so that a stack of them drops the rows each set
    alone drops."""
    eps = np.finfo(float).eps
    rotations, e = classify.rotation_generators(n), np.eye(n)
    sym = np.zeros((n + 1, n + 1))
    sym[0, 0], sym[1, 1] = 1.0, -1.0

    def boosts(sigma, count=n + 1):
        return list(groups.p_generator(rng.standard_normal((count, n)), sigma))

    def skew():
        return mixing(rng.standard_normal(n), rng.standard_normal(n))

    sets = [(case_of_sigma(sigma).value, boosts(sigma)) for sigma in (
        1e12, -1e12, 1.0, -1.0, 0.5, 1e-12, -1e-12, 0.0, math.inf)] + [
        ("scalar", boosts(1.0, n) + [np.eye(n + 1) + boosts(1.0, 1)[0]]),
        ("scalar", boosts(1.0, n - 1) + [skew(), np.eye(n + 1) + skew()]),  # m0 comes first
        ("traceless symmetric", boosts(1.0, n) + [sym + boosts(1.0, 1)[0]]),
        ("mixing generators disagree on sigma", [groups.p_generator(e[0], 1.0), groups.p_generator(
            3.0 * e[0], 1.0)] + [groups.p_generator((i + 2) * e[i], 2.0) for i in range(1, n)]),
        ("mixing vectors are not collinear", boosts(1.0, n) + [skew()]),
        ("Aristotle", [np.zeros((n + 1, n + 1))] * (n + 1)),  # the rotations alone
        ("Carroll", [mixing((n + 1) * eps * v, v) for v in (*e, e.sum(0))]),  # at the guard
        ("Lorentz", [groups.p_generator(0.01 * v, 2e-15) for v in (*e, e.sum(0))]),  # the undo
    ]
    return [(kind, rotations + gens + [np.zeros((n + 1, n + 1))]) for kind, gens in sets]


def boost_rows():
    """Rows b at each sigma and n, a (6,) stack and the same as a (2, 3) one, with a sigma."""
    rng = np.random.default_rng(31)
    for sigma in (1.0, 0.5, 2.0, -1.0, -0.25, 0.0, math.inf):
        for n in (2, 3, 10):
            rows = rng.standard_normal((6, n)) * rng.uniform(0.0, 3.0, (6, 1))
            yield from ((Stack(b, b.shape[:-1]), sigma) for b in (rows, rows.reshape(2, 3, n)))


def one_kind_stacks():
    """Stacks of sets that share their zero rows, as the property suite draws them, and of
    copies of one gate set: each set gets its one-set answer bit for bit."""
    rng = np.random.default_rng(33)
    for n in (2, 3, 10):
        for sigma in (1.0, 0.5, -1.0, 0.0, math.inf, 3e13, -2e-12):
            yield [_standard_generators(rng, n, sigma, count=n, scale=rng.uniform(0.25, 4.0))
                   for _ in range(6)]
        gates = _gate_sets(rng, n)
        yield from ([gates[name]] * 3 for name in ("m0", "not collinear", "carroll guard", "undo",
                                                    "zero"))


SHAPE_CASES = (CaseLabel.GALILEI, CaseLabel.CARROLL, CaseLabel.ARISTOTLE)  # sigma omitted
VERDICT_STACKS = [(mixed_stack(n, sigma, rng), sigma) for n in (2, 3, 10)  # with sigma
                  for rng in [np.random.default_rng(n)] for sigma in STACK_SIGMAS]
DEEP = mixed_stack(3, 1.0, np.random.default_rng(5), count=3).value
PAST = np.concatenate([G := groups.random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, 0, size=4),
                       2.0 ** 600 * G[:2], 2.0 ** -600 * G[2:]])  # lam past the float range
AT_ONE = [(Stack(x, x.shape[:-2]), 1.0) for x in (DEEP, DEEP.reshape(5, 8, 4, 4), PAST)]
GATE_STACKS = [np.array(list(_gate_sets(rng, n).values())) for rng in [np.random.default_rng(32)]
               for n in (2, 3, 5)]  # sets that differ in their zero rows
KINDS = {n: list(zip(*[entry for _ in range(3) for entry in kind_sets(rng, n)][:40]))
         for rng in [np.random.default_rng(36)] for n in (2, 3)}  # n -> (kinds, sets)
CLASSIFY_STACKS = GATE_STACKS + list(map(np.array, one_kind_stacks())) + [  # T = 1 and T = 40
    np.array(sets)[which] for _, sets in KINDS.values()
    for which in [[i] for i in range(40)] + [...]]
TABLE = {
    "matcore.as_square_stack": Entry(matcore.as_square_stack, "x"),
    "matcore.balance": Entry(lambda x, k: matcore.balance(matcore.scaled(x, (-2, -1))[0], k),
                             "x k", finite=True, broadcast=(1,)),
    "matcore.bracket": Entry(matcore.bracket, "x xT", False),
    "matcore.dagger": Entry(matcore.dagger, "x sigma", False),
    "matcore.mat_exp": Entry(matcore.mat_exp, "x", examples=[(Stack(  # squared 0 to 7 times
        np.random.default_rng(11).standard_normal((6, 5, 4, 4)) * np.r_[  # and a zero matrix
            0.0, np.geomspace(1e-3, 8.0, 29)].reshape(6, 5, 1, 1), (6, 5)),)]),
    "matcore.mixing_maxima": Entry(lambda Z: matcore.mixing_maxima(Z, -1), "x"),
    "matcore.op_norm": Entry(matcore.op_norm, lambda c: (Stack(c.x, c.shape), 2) if c.draw(
        st.booleans()) else (Stack(c.x, c.shape + c.x.shape[-2:-1]), 1), False),
    "matcore.refuse": Entry(lambda mask: matcore.refuse(mask, "judged") or (), "mask"),
    "matcore.scaled": Entry(lambda x, shift: matcore.scaled(x, (-2, -1), shift), "x shift"),
    "matcore.sigma_unit": Entry(matcore.sigma_unit, lambda c: (Stack(c.draw(arrays(
        float, c.shape, elements=st.sampled_from(c.pool))), c.shape),), examples=[(Stack(np.array(
        [1.0, math.nan, -1.0, -math.inf]), (4,)),), (Stack(np.zeros((0, 1)), (0, 1)),)]),
    "matcore.unit_exponent": Entry(lambda Z: matcore.unit_exponent(*matcore.mixing_maxima(Z, -1)),
                                   "x"),
    "classify.classify_algebra": Entry(classify.classify_algebra, generator_sets, examples=[
        (Stack(np.array(list(GATES.values())), (len(GATES),)),)] + [  # and stacks of one gate
        (Stack(np.array([GATES[name]] * 3), (3,)),) for name in GATES] + [
        (Stack(sets, sets.shape[:1]),) for sets in CLASSIFY_STACKS]),
    "classify.collinearity_defect": Entry(lambda Z: classify.collinearity_defect(
        Z[..., :-1, -1], Z[..., -1, :-1]), "flat"),
    "groups.boost_closed_form": Entry(groups.boost_closed_form, "b sigma",
                                      examples=[(STRIDED, -1e-300), *boost_rows()]),
    "groups.p_generator": Entry(groups.p_generator, "b sigma",
                                examples=[(Stack(np.zeros((0, 3)), (0,)), 1.0)]),
    "groups.cartan_decompose": Entry(groups.cartan_decompose, "x sigma", sigmas=(
        1.0, 0.25, 1e-12, 1e300, 5e-324, -1.0), examples=[(MIXED, 1.0), *AT_ONE] + [
        (x, sigma) for x, sigma in VERDICT_STACKS if sigma > 0]),
    "groups.CartanFactors": Entry(CartanFactors.reconstruct, "factors", False, (1.0, 0.25, 1e6),
                                  finite=True),
    "groups.in_K": Entry(groups.in_K, "x", examples=[(Stack(np.array(
        [np.diag([5e-324, 0.0, 0.0]), np.diag([1.7e308, 1.0, 1.0])]), (2,)),)] + [
        (x,) for x, _ in VERDICT_STACKS]),
    "groups.in_normalizer": Entry(groups.in_normalizer, "x sigma",
                                  examples=VERDICT_STACKS + AT_ONE),
    "groups.k_element": Entry(groups.k_element, "R eps", broadcast=(0, 1)),
    "groups.membership": Entry(lambda a, sigma, case, omit: groups.membership(a, case, (
        sigma, None)[omit]), "x sigma case flag", examples=[
        (x, sigma, case, case in SHAPE_CASES) for x, sigma in VERDICT_STACKS for case in (
            case_of_sigma(sigma), *SHAPE_CASES)] + [(x, 1.0, CaseLabel.LORENTZ, 0) for x, _ in [
                (MIXED, 1.0), *AT_ONE]]),
    "affine.AffineElement": Entry(AffineElement, "x row", False),
    "affine.Event": Entry(lambda v: Event(v[..., 1:], v[..., 0]), "row", False),
    "affine.WorldLine": Entry(lambda origin, d, v: WorldLine(origin, velocity=d[..., 1:]) if v
                              else WorldLine(origin, direction=d), "origin direction flag"),
    "affine.act": Entry(affine.act, "map event", False, finite=True, broadcast=(0, 1)),
    "affine.compose": Entry(affine.compose, "map mapT", False, finite=True, broadcast=(0, 1)),
    "affine.inverse": Entry(affine.inverse, "map", False, finite=True),
    "affine.transform_worldline": Entry(affine.transform_worldline, "map line", False,
                                        finite=True, broadcast=(0, 1)),
}
UNSTACKED = {f"{module}.{name}" for module, names in (  # one set, size or case each
    ("groups", "LogarithmFailure "
     "NonPositiveLambda NotInNormalizer"), ("classify", "CaseLabel ClassificationResult "
     "Sigma case_label case_of_sigma closure_scan rotation_generators"), ("verify",
     "PropertyResult SuiteConfig SuiteReport run_suite")) for name in names.split()}


@pytest.mark.parametrize("name", TABLE)
def test_a_stack_answers_as_its_entries(name):
    run(name, TABLE[name])


@pytest.mark.parametrize("n", (2, 3, 10))
def test_each_mixed_stack_holds_both_verdicts_and_every_refusal(n):
    # What the contract leaves to its examples: each mixed stack holds both verdicts of every
    # case and, at sigma > 0, every refused value.
    for x, sigma in VERDICT_STACKS:
        if x.value.shape[-1] == n + 1:
            for case in (case_of_sigma(sigma), *SHAPE_CASES):
                verdicts = groups.membership(x.value, case, None if case in SHAPE_CASES else sigma)
                assert verdicts.any() and not verdicts.all(), (case, sigma)
            if sigma > 0:
                refused = groups.cartan_decompose(x.value, sigma).refused.tolist()
                assert set(refused) == {None, NotInNormalizer, NonPositiveLambda}, sigma


def test_lam_past_the_float_range_reads_inf_and_0_and_is_refused():
    # 2^600 g and 2^-600 g take lam past the float range, to inf and to 0.
    ok, lam = groups.in_normalizer(PAST, 1.0)
    assert ok.tolist() == [True] * 4 + [False] * 4
    assert lam[4:6].tolist() == [math.inf] * 2 and lam[6:].tolist() == [0.0] * 2
    assert groups.cartan_decompose(PAST, 1.0).refused.tolist() == [None] * 4 + [NotInNormalizer] * 4


def read(result):
    """The gate or case a classification reads as."""
    return (_gate(result) or classify.case_label(result).value).split(" (")[0]


def test_the_gate_stacks_reach_every_gate_and_case():
    for sets in GATE_STACKS:
        assert {read(classify.classify_algebra(list(gens))) for gens in sets} == {
            "Aristotle", "scalar", "traceless symmetric", "mixing generators disagree on sigma",
            "mixing vectors are not collinear", "Carroll", "Lorentz", "Orthogonal", "Galilei"}


@pytest.mark.parametrize("n", KINDS)
def test_each_kind_set_reads_as_its_kind_and_gets_its_one_set_answer_in_a_stack(n):
    kinds, sets = KINDS[n]
    want = [classify.classify_algebra(gens) for gens in sets]
    assert len(sets) == 40 and [read(result) for result in want] == list(kinds)
    # bit for bit, the rotations-only sets too, which drop rows the stack keeps
    assert list(map(_fingerprint, classify.classify_algebra(np.array(sets)))) == list(map(
        _fingerprint, want))


@pytest.mark.parametrize("n", KINDS)
def test_the_verdict_arrays_hold_each_sets_answers(n):
    # The arrays of classify's whole-array core, read at each set of the T = 40 kind stack.
    sets = KINDS[n][1]
    verdicts = classify._verdicts(np.array(sets), classify.DEFAULT_TOL)
    assert [v.shape for v in verdicts] == [(40,)] * 8
    for i, result in enumerate(map(classify.classify_algebra, sets)):
        outcome, sigma, spread, rank, m0, m2, m3, reason = (v[i] for v in verdicts)
        assert (outcome, reason) == (result.outcome, result.reason)
        assert [rank, m0, m2, m3] == [result.diagnostics[key] for key in (
            "rank", "m0", "m2", "m3")]
        if result.is_kinematical:
            assert (sigma, spread) == (result.sigma.value, result.diagnostics["sigma_spread"])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(SIGMAS[True] + (None,)), st.integers(2, 4), st.floats(0, 3), st.integers(0))
def test_one_draw_is_a_stack_of_one(sigma, n, bound, seed):
    case = CaseLabel.ARISTOTLE if sigma is None else case_of_sigma(sigma)
    bound /= math.sqrt(abs(sigma)) if sigma and math.isfinite(sigma) else 1.0
    one, stack = (groups.random_element(case, sigma, n, bound, seed, size=s) for s in (None, 1))
    assert same_bits(stack[0], one)


def test_every_public_callable_is_in_the_contract_or_takes_no_stacks():
    public = {f"{m.__name__.split('.')[1]}.{name}" for m in (matcore, isotypic, classify, groups,
              affine, verify) for name in m.__all__ if callable(getattr(m, name))}
    assert set(TABLE) <= public and public - set(TABLE) - {"groups.random_element"} == UNSTACKED


def test_the_refusals_and_the_type_that_the_folded_stack_tests_also_pinned():
    vector, same, lam = ("b must be a nonempty vector",
                         "bracket arguments must have the same shape", "lam must be nonnegative")
    for message, call, *args in (
            (vector, groups.p_generator, 1.0, 1.0),
            (vector, groups.p_generator, np.zeros((3, 0)), 1.0),
            (vector, groups.boost_closed_form, np.zeros((3, 0)), 1.0),
            (same, matcore.bracket, np.zeros((2, 3, 3)), np.eye(3)),
            (lam, CartanFactors(-1.0, np.eye(3), np.zeros((3, 3))).reconstruct),
            (lam, CartanFactors(math.nan, np.eye(3), np.zeros((3, 3))).reconstruct)):
        with pytest.raises(ValueError, match=message):
            call(*args)
    assert isinstance(classify.collinearity_defect([0.0, 1.0], [1.0, 0.0]), float)


def members_at(*sigmas):
    """Two members of each sigma's group, each row with its own sigma."""
    x = [groups.random_element(case_of_sigma(s), s, 3, 1.0, 5, size=2) for s in sigmas]
    return Stack(np.concatenate(x), (2 * len(sigmas),)), Stack(np.repeat(sigmas, 2), (2 * len(x),))


LORENTZ = (1.0, 0.25, 1e-12, 1e300, 5e-324)  # with one sigma of another case, drawn rarely
EMPTY = [(Stack(np.zeros(shape + (3, 3)), shape), Stack(np.zeros(shape[:1] + (1,) * (
    len(shape) - 1)), shape)) for shape in ((0,), (0, 2))]  # no matrix, no sigma: no refusal
SIGMA_STACKED = {  # each entry point that takes a sigma, with one sigma per row
    "groups.boost_closed_form": Entry(groups.boost_closed_form, "b sigmas"),
    "groups.p_generator": Entry(groups.p_generator, "b sigmas"),
    "matcore.dagger": Entry(matcore.dagger, "x sigmas", False),
    **{f"groups.membership.{case.name.lower()}": Entry(  # each case, a sigma of another rarely
        lambda a, s, case=case: groups.membership(a, case, s), "x sigmas", sigmas=sigmas,
        examples=[members_at(*at), *EMPTY]) for case, sigmas, at in (
        (CaseLabel.LORENTZ, LORENTZ * 4 + (-1.0,), (1.0, 0.25, 1e-12)),
        (CaseLabel.ORTHOGONAL, (-1.0, -0.25, -1e12, -1e-300) * 4 + (math.inf,),
         (-1.0, -4.0, -1e-12)),
        (CaseLabel.GALILEI, (0.0,) * 4 + (1.0,), (0.0,)),
        (CaseLabel.CARROLL, (math.inf,) * 4 + (0.0,), (math.inf,)))},
    "groups.in_normalizer": Entry(groups.in_normalizer, "x sigmas", sigmas=LORENTZ + (
        -1.0, -4.0, -1e-300) + (0.0,), examples=[members_at(0.25, -4.0, 1.0)]),
    "groups.cartan_decompose": Entry(groups.cartan_decompose, "x sigmas", sigmas=LORENTZ * 4 + (
        -1.0,), examples=[(MIXED, Stack(np.array([1.0, 0.25] * 4), (8,))),
                          members_at(1.0, 0.25, 1e-12)]),
}


@pytest.mark.parametrize("name", SIGMA_STACKED)
def test_a_sigma_per_row_answers_as_each_row_at_its_sigma(name):
    run(name, SIGMA_STACKED[name])


TWO = np.array([1.0, 2.0])
UNFIT = {  # a sigma array that does not broadcast to the stack axes, with those axes
    "boost_closed_form": (lambda: groups.boost_closed_form(np.ones(2), TWO), ()),
    "p_generator": (lambda: groups.p_generator(np.ones(2), TWO), ()),
    "dagger": (lambda: matcore.dagger(np.eye(3), TWO), ()),
    "in_normalizer": (lambda: groups.in_normalizer(np.eye(3), TWO), ()),
    "cartan_decompose": (lambda: groups.cartan_decompose(np.eye(3), TWO), ()),
    "cartan_decompose of two": (lambda: groups.cartan_decompose(np.stack([np.eye(3)] * 2),
                                                                np.ones(3)), (2,)),
    "membership": (lambda: groups.membership(np.eye(3), CaseLabel.LORENTZ, TWO), ()),
    "membership, Galilei": (lambda: groups.membership(np.eye(3), CaseLabel.GALILEI,
                                                      np.zeros(2)), ()),
    "membership of two, (2, 1)": (lambda: groups.membership(
        np.stack([np.eye(3)] * 2), CaseLabel.LORENTZ, np.ones((2, 1))), (2,)),
    "random_element keeps one sigma": (lambda: groups.random_element(
        CaseLabel.LORENTZ, TWO, 2, size=2), ()),
}


@pytest.mark.parametrize("name", UNFIT)
def test_a_sigma_array_that_does_not_fit_the_stack_is_refused(name):
    call, stack = UNFIT[name]
    with pytest.raises(ValueError, match=re.escape(
            f"a sigma array must broadcast to the stack axes {stack}, got shape (")):
        call()


def test_a_sigma_array_that_fits_the_stack_is_read():
    # one sigma for the draw, as a 0-d array, and one per row or per first axis of a stack
    assert groups.random_element(CaseLabel.LORENTZ, np.array(1.0), 2, size=2).shape == (2, 3, 3)
    assert groups.membership(np.eye(3), CaseLabel.GALILEI, np.array(0.0)) is True
    assert groups.boost_closed_form(np.ones((2, 3, 2)), np.ones((2, 1))).shape == (2, 3, 3, 3)
    assert groups.cartan_decompose(np.stack([np.eye(3)] * 2), TWO).refused.tolist() == [None] * 2


def coordinates(x):
    """The private coordinate pass that classify_algebra reads every generator through, run as
    it is there: on a float copy, which it halves in place.  Only its sqrt(n) lam coordinate
    overflows, past the float max, as documented."""
    with np.errstate(over="ignore"):
        return isotypic._coordinates(matcore.as_square_stack(np.array(x, dtype=float)))


def test_the_coordinate_pass_answers_as_its_entries():
    run("isotypic._coordinates", Entry(coordinates, "x"))


PLANTED = {  # two stack-dependent functions, which the contract must report
    "divides by the stack's largest entry": Entry(lambda a: a / (abs(a).max() or 1.0), "x", False),
    "judges a stack by its first lam": Entry(lambda a, s: groups.in_normalizer(a, s)[0] & (abs(
        np.ravel(groups.in_normalizer(a, s)[1])[0] - 1.0) <= 1e-9), "x sigma", False, (1.0, -1.0))}


@pytest.mark.parametrize("name", PLANTED)
def test_the_contract_reports_a_stack_dependent_function(name):
    with pytest.raises(AssertionError, match="entry"):
        run(name, PLANTED[name], phases=[Phase.explicit, Phase.generate])
