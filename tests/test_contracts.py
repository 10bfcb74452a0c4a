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
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_affine import one_event, one_line, same_bits
from test_classify import _gate_sets

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
    two of its largest entry, none below 2^-900); else the reason's words, rank, sigma to 1e-12."""
    got, sets, n = whole[i[0]], args[0].value, args[0].value.shape[-1] - 1
    assert [got.outcome, *got.diagnostics] == [one.outcome, *one.diagnostics], i
    x = np.ldexp(sets, -np.frexp(abs(sets).max(axis=(-3, -2, -1), keepdims=True))[1])
    x[..., :n, :n] += x[..., :n, :n].mT  # its content outside the rotations, the rest of x
    zero, tiny = ~x.any((-2, -1)), (x[i] != 0.0) & (abs(x[i]) < 2.0 ** -900)
    if (zero[i] == zero.all(0)).all() and not tiny.any():
        assert got.reason == one.reason and got.sigma == one.sigma and same_bits(
            list(got.diagnostics.values()), list(one.diagnostics.values())), i
    else:
        assert NUMBER.sub("#", got.reason or "") == NUMBER.sub("#", one.reason or ""), i
        assert got.diagnostics["rank"] == one.diagnostics["rank"] and (
            got.sigma is one.sigma or got.sigma.value == pytest.approx(one.sigma.value, 1e-12)), i


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


def check(name: str, entry: Entry, args: tuple):
    """Assert the stack contract for one draw of arguments."""
    (shape,) = {a.shape for a in args if isinstance(a, Stack)}
    whole = attempt(entry.call, [a.value if isinstance(a, Stack) else a for a in args])
    alone = {i: attempt(entry.call, [pick(a.value, i) if isinstance(a, Stack) else a
                                     for a in args]) for i in np.ndindex(shape)}
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
                                             entry.finite), sigma=sigma, shape=shape, rng=rng)
    args = list(entry.build(c) if callable(entry.build) else (
        ARGUMENTS[name](c) if name in PLAIN else Stack(ARGUMENTS[name](c), shape)
        for name in entry.build.split()))
    if (j := draw(st.sampled_from((None,) + entry.broadcast))) is not None:
        args[j] = pick(args[j].value, (0,) * len(shape))
    return tuple(args)


def run(name: str, entry: Entry, **overrides):
    """Check the contract of entry over its examples and draws."""
    def contract(args):
        check(name, entry, args)
    for args in entry.examples:
        contract = example(args)(contract)
    settings(max_examples=8, deadline=None, **overrides)(given(arguments(entry))(contract))()


def generator_sets(c):
    """A (T,) stack of sets of test_classify's gates and sigmas, drawn and patched."""
    gates, t = list(_gate_sets(c.rng, c.x.shape[-1] - 1).values()), math.prod(c.shape)
    sets = np.array(gates)[c.draw(arrays(np.int8, t, elements=st.integers(0, len(gates) - 1)))]
    return (Stack(patched(c.draw, sets, (t,), True, False), (t,)),)


PLAIN = {"sigma", "shift", "flag", "C", "flat", "case"}  # the rest are stacked alike
ARGUMENTS = {  # of a draw c: the stack x, sigma and what is made of them
    "x": lambda c: c.x, "xT": lambda c: c.x.mT, "sigma": lambda c: c.sigma,
    "b": lambda c: c.x[..., :-1, -1], "row": lambda c: c.x[..., 0, :],
    "flat": lambda c: Stack(c.x.reshape((-1,) + c.x.shape[-2:]), (math.prod(c.shape),)),
    "mask": lambda c: c.draw(arrays(bool, c.shape)), "flag": lambda c: c.draw(st.booleans()),
    "k": lambda c: c.rng.integers(-540, 540, c.shape + (1,)),
    "shift": lambda c: c.draw(st.sampled_from([None, np.subtract.outer(*[np.r_[np.zeros(
        c.x.shape[-1] - 1, int), -matcore.sigma_unit(c.sigma)[0]]] * 2)])),
    "split": lambda c: isotypic.split(c.x),
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
    "C": lambda c: c.draw(st.sampled_from([1.0, 2.0, 1e-3, 1e3])),
    "u": lambda c: patched(c.draw, (1.0 + (c.rng.random(c.shape + (1,)) < 0.1)) * np.linalg.qr(
        c.rng.standard_normal(c.x[..., 1:, 1:].shape))[0][..., 0], c.shape, False, False),
    "case": lambda c: c.draw(st.sampled_from([case_of_sigma(c.sigma)] * 7 + list(CaseLabel))),
}
MIXED = Stack(np.concatenate([G := groups.random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, 0, size=3),
                              2.0 ** 600 * G[:1], 2.0 ** -600 * G[1:2], np.zeros((1, 4, 4)),
                              np.random.default_rng(0).standard_normal((2, 4, 4))]), (8,))
GATES = _gate_sets(np.random.default_rng(1), 3)
STRIDED = Stack(np.asfortranarray(np.random.default_rng(4).standard_normal((3, 4)) * 2.0 ** np.c_[
    [-499, -503, -503]]), (3,))  # strided rows, |b| about 2^-500: one |b| formula, one order
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
    "matcore.unit_exponent": Entry(lambda Z: matcore.unit_exponent(*matcore.mixing_maxima(Z, -1)),
                                   "x"),
    "isotypic.split": Entry(isotypic.split, "x"),
    "isotypic.merge": Entry(isotypic.merge, "split", False, finite=True),
    "isotypic.block_rotation": Entry(isotypic.block_rotation, "R eps", broadcast=(0, 1)),
    "isotypic.ad_rotation": Entry(isotypic.ad_rotation, "R eps x", False, broadcast=(0, 1)),
    "classify.classify_algebra": Entry(classify.classify_algebra, generator_sets, examples=[
        (Stack(np.array(list(GATES.values())), (len(GATES),)),)] + [  # and stacks of one gate
        (Stack(np.array([GATES[name]] * 3), (3,)),) for name in GATES]),
    "classify.collinearity_defect": Entry(lambda Z: classify.collinearity_defect(
        Z[..., :-1, -1], Z[..., -1, :-1]), "flat"),
    "groups.boost_closed_form": Entry(groups.boost_closed_form, "b sigma",
                                      examples=[(STRIDED, -1e-300)]),
    "groups.p_generator": Entry(groups.p_generator, "b sigma",
                                examples=[(Stack(np.zeros((0, 3)), (0,)), 1.0)]),
    "groups.cartan_decompose": Entry(groups.cartan_decompose, "x sigma", sigmas=(
        1.0, 0.25, 1e-12, 1e300, 5e-324, -1.0), examples=[(MIXED, 1.0)]),
    "groups.CartanFactors": Entry(CartanFactors.reconstruct, "factors", False, (1.0, 0.25, 1e6),
                                  finite=True),
    "groups.in_K": Entry(groups.in_K, "x", examples=[(Stack(np.array(
        [np.diag([5e-324, 0.0, 0.0]), np.diag([1.7e308, 1.0, 1.0])]), (2,)),)]),
    "groups.in_normalizer": Entry(groups.in_normalizer, "x sigma"),
    "groups.k_element": Entry(groups.k_element, "R eps", broadcast=(0, 1)),
    "groups.membership": Entry(lambda a, sigma, case, omit: groups.membership(a, case, (
        sigma, None)[omit]), "x sigma case flag", examples=[(MIXED, 1.0, CaseLabel.LORENTZ, 0)]),
    "affine.AffineElement": Entry(AffineElement, "x row", False),
    "affine.Event": Entry(lambda v: Event(v[..., 1:], v[..., 0]), "row", False),
    "affine.WorldLine": Entry(lambda origin, d, v: WorldLine(origin, velocity=d[..., 1:]) if v
                              else WorldLine(origin, direction=d), "origin direction flag"),
    "affine.act": Entry(affine.act, "map event", False, finite=True, broadcast=(0, 1)),
    "affine.compose": Entry(affine.compose, "map mapT", False, finite=True, broadcast=(0, 1)),
    "affine.inverse": Entry(affine.inverse, "map", False, finite=True),
    "affine.transform_worldline": Entry(affine.transform_worldline, "map line", False,
                                        finite=True, broadcast=(0, 1)),
    "verify.wraparound_demo": Entry(verify.wraparound_demo, "C u", False),
}
UNSTACKED = {f"{module}.{name}" for module, names in (  # one sigma, set, size or case each
    ("matcore", "sigma_unit"), ("isotypic", "IsotypicSplit"), ("groups", "LogarithmFailure "
     "NonPositiveLambda NotInNormalizer"), ("classify", "CaseLabel ClassificationResult "
     "NotCollinear Sigma ZeroGenerator as_sigma bracket_closure_defect case_label case_of_sigma "
     "is_closed_under_bracket rotation_generators sigma_from_m3"), ("verify", "PropertyResult "
     "SuiteConfig SuiteReport nonalgebra_witness run_suite")) for name in names.split()}


@pytest.mark.parametrize("name", TABLE)
def test_a_stack_answers_as_its_entries(name):
    run(name, TABLE[name])


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
    for call, *args in ((groups.p_generator, 1.0, 1.0), (groups.p_generator, np.zeros((3, 0)), 1.0),
                        (groups.boost_closed_form, np.zeros((3, 0)), 1.0),
                        (matcore.bracket, np.zeros((2, 3, 3)), np.eye(3)),
                        (CartanFactors(-1.0, np.eye(3), np.zeros((3, 3))).reconstruct,)):
        pytest.raises(ValueError, call, *args)
    assert isinstance(classify.collinearity_defect([0.0, 1.0], [1.0, 0.0]), float)


PLANTED = {  # two stack-dependent functions, which the contract must report
    "divides by the stack's largest entry": Entry(lambda a: a / (abs(a).max() or 1.0), "x", False),
    "judges a stack by its first lam": Entry(lambda a, s: groups.in_normalizer(a, s)[0] & (abs(
        np.ravel(groups.in_normalizer(a, s)[1])[0] - 1.0) <= 1e-9), "x sigma", False, (1.0, -1.0))}


@pytest.mark.parametrize("name", PLANTED)
def test_the_contract_reports_a_stack_dependent_function(name):
    with pytest.raises(AssertionError, match="entry"):
        run(name, PLANTED[name], phases=[Phase.explicit, Phase.generate])
