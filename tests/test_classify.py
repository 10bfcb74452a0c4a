import math
import tracemalloc

import numpy as np
import pytest

from kinematica import classify, cli, groups, verify
from kinematica.classify import (
    DEFAULT_TOL,
    CaseLabel,
    bracket_closure_defect,
    case_label,
    case_of_sigma,
    classify_algebra,
    collinearity_defect,
    is_closed_under_bracket,
    rotation_generators,
)
from kinematica.groups import p_generator
from kinematica.matcore import balance, bracket, sigma_unit


def random_orthogonal(n, rng):
    """Haar orthogonal matrix with a random determinant sign, drawn from
    rng as random_element draws its rotation block."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    if rng.random() < 0.5:
        Q[:, 0] = -Q[:, 0]
    return Q


def mixing(b, c):
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = b.size
    M = np.zeros((n + 1, n + 1))
    M[:n, n] = b
    M[n, :n] = c
    return M


SIGMA_TAKERS = {  # each public entry point that takes a sigma, called with one
    "case_of_sigma": case_of_sigma,
    "p_generator": lambda s: p_generator([1.0, 0.0], s),
    "boost_closed_form": lambda s: groups.boost_closed_form([1.0, 0.0], s),
    "in_normalizer": lambda s: groups.in_normalizer(np.eye(3), s),
    "cartan_decompose": lambda s: groups.cartan_decompose(np.eye(3), s),
    "membership": lambda s: groups.membership(np.eye(3), CaseLabel.LORENTZ, s),
    "random_element": lambda s: groups.random_element(CaseLabel.LORENTZ, s),
    "SuiteConfig": lambda s: verify.SuiteConfig(sigma_values=(1.0, s)),
    "kinematica generate": ["generate", "--case", "lorentz", "--sigma"],
    "kinematica decompose": ["decompose", "FILE", "--sigma"],
    "kinematica verify": ["verify", "--sigma-list"],
}


@pytest.mark.parametrize("sigma", ["nan", "-inf"])
@pytest.mark.parametrize("entry", SIGMA_TAKERS)
def test_nan_and_minus_inf_are_refused_wherever_a_sigma_is_taken(entry, sigma, tmp_path, capsys):
    take = SIGMA_TAKERS[entry]
    if callable(take):
        with pytest.raises(ValueError):
            take(float(sigma))
        return
    path = tmp_path / "members.json"
    path.write_text('{"n": 2, "matrices": [[1, 0, 0, 0, 1, 0, 0, 0, 1]]}')
    assert cli.main([str(path) if arg == "FILE" else arg for arg in take] + [sigma]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("sigma", [10**400, -10**400], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("entry", [name for name, take in SIGMA_TAKERS.items() if callable(take)])
def test_a_sigma_past_the_float_range_is_refused_wherever_a_sigma_is_taken(entry, sigma):
    # An int that float() cannot hold is the documented ValueError, not an OverflowError.
    with pytest.raises(ValueError, match="within the float range"):
        SIGMA_TAKERS[entry](sigma)


TOL_TAKERS = {  # each public entry point that takes a tol, called with one
    "classify_algebra": lambda tol: classify_algebra(
        rotation_generators(2) + [p_generator([1.0, 0.0], 1.0)], tol),
    "closure_scan": lambda tol: classify.closure_scan(rotation_generators(2), tol),
    "in_K": lambda tol: groups.in_K(np.eye(3), tol),
    "in_normalizer": lambda tol: groups.in_normalizer(np.eye(3), 1.0, tol),
    "cartan_decompose": lambda tol: groups.cartan_decompose(np.eye(3), 1.0, tol),
    "membership": lambda tol: groups.membership(np.eye(3), CaseLabel.LORENTZ, 1.0, tol),
    "membership, a shape test": lambda tol: groups.membership(np.eye(3), CaseLabel.GALILEI,
                                                              tol=tol),
    "SuiteConfig": lambda tol: verify.SuiteConfig(tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf])
@pytest.mark.parametrize("entry", TOL_TAKERS)
def test_a_tol_that_is_not_positive_and_finite_is_refused_wherever_one_is_taken(entry, tol):
    with pytest.raises(ValueError, match="^tol must be a positive finite number$"):
        TOL_TAKERS[entry](tol)


def test_case_of_sigma():
    assert case_of_sigma(1.0) is CaseLabel.LORENTZ
    assert case_of_sigma(0.0) is CaseLabel.GALILEI
    assert case_of_sigma(-2.0) is CaseLabel.ORTHOGONAL
    assert case_of_sigma(math.inf) is CaseLabel.CARROLL


def test_collinearity_defect_values():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    assert collinearity_defect(e1, e2) == 2.0
    assert collinearity_defect([1.0, 2.0], [3.0, 6.0]) == 0.0
    assert collinearity_defect(e1, np.zeros(2)) == 0.0


def test_collinearity_defect_beyond_the_square_root_of_overflow_and_underflow():
    # |b|^2 |c|^2 leaves the float range at these scales; the defect is
    # formed on the pair divided by a power of two and scaled back.
    for t in (1e160, 1e-170):
        assert collinearity_defect([t, 0.0], [2.0 * t, 0.0]) == 0.0
        assert collinearity_defect([t, -2.0 * t], [-3.0 * t, 6.0 * t]) == 0.0
        assert collinearity_defect([t, 0.0], [0.0, 0.0]) == 0.0
    # perpendicular: 2 t^4 is beyond the range at 1e160 and below it at 1e-170
    assert collinearity_defect([1e160, 0.0], [0.0, 1e160]) == math.inf
    assert collinearity_defect([1e-170, 0.0], [0.0, 1e-170]) == 0.0
    # a power-of-two scale k multiplies the defect by k^4 exactly while in range
    b, c = np.array([0.75, -1.5]), np.array([2.0, 0.5])
    assert collinearity_defect(2.0**200 * b, 2.0**200 * c) == 2.0**800 * collinearity_defect(b, c)
    assert collinearity_defect(2.0**-200 * b, 2.0**-200 * c) == 2.0**-800 * collinearity_defect(b, c)


def test_collinearity_defect_matches_nested_bracket_corner():
    # independent route: the corner entry of [Z, [Z, W]] with W the spatial
    # rotation generator built from the same pair
    rng = np.random.default_rng(20)
    for n in (2, 3):
        for _ in range(50):
            b = rng.standard_normal(n)
            c = rng.standard_normal(n)
            Z = mixing(b, c)
            W = np.zeros((n + 1, n + 1))
            W[:n, :n] = np.outer(b, c) - np.outer(c, b)
            corner = bracket(Z, bracket(Z, W))[n, n]
            closed = collinearity_defect(b, c)
            assert abs(corner - closed) <= 1e-10 * (1.0 + abs(closed))


def one_pair(b, c):
    """classify_algebra of the rotations and the one mixing generator of (b, c)."""
    return classify_algebra(rotation_generators(len(b)) + [mixing(b, c)])


def _balanced_rows(b, c):
    """(b, c) as (m, n) rows taken to the time unit that levels their largest b and c entries,
    unless b is rounding next to c (a Carroll set), and divided by the power of two of their
    largest entry, as classify_algebra takes its sets; with that unit's k."""
    b, c = np.atleast_2d(np.asarray(b, dtype=float)), np.atleast_2d(np.asarray(c, dtype=float))
    n, eps = b.shape[1], np.finfo(float).eps
    bmax, cmax = float(abs(b).max()), float(abs(c).max())
    k = 0
    if min(bmax, cmax) > 0.0 and bmax > (n + 1) * eps * cmax:
        k = (math.frexp(cmax)[1] - math.frexp(bmax)[1] + 1) // 2
    b, c = b * 2.0**k, c * 2.0**-k
    top = 2.0 ** math.frexp(max(float(abs(b).max()), float(abs(c).max())))[1]
    return b / top, c / top, k


def rule(b, c, tol=DEFAULT_TOL):
    """The sigma rule of classify_algebra on explicit rows (b, c), balanced by the test:
    sigma, or the reason the rows fail."""
    b, c, k = _balanced_rows(b, c)
    sigma, _, _, reasons = classify._sigma_and_rows(np.hstack((b, c))[np.newaxis], tol,
                                                    np.array([k]), True)
    return reasons.get(0, float(sigma[0]))


def test_a_collinear_pair_reads_its_finite_sigma():
    e1 = np.array([1.0, 0.0])
    s = one_pair(e1, 3.0 * e1).sigma.value
    assert math.isfinite(s) and s == pytest.approx(3.0, abs=1e-15)


def test_a_zero_c_row_reads_as_galilei():
    s = one_pair(np.array([0.0, 1.0]), np.zeros(2)).sigma.value
    assert s == 0.0


def test_a_zero_b_row_reads_as_carroll():
    s = one_pair(np.zeros(2), np.array([1.0, 0.0])).sigma.value
    assert s == math.inf


def test_a_common_scale_keeps_sigma_to_rounding():
    b = np.array([0.3, -0.4, 1.2])
    for t in (1e-6, 1.0, 1e6):
        s = one_pair(t * b, t * (-2.5) * b).sigma.value
        assert s == pytest.approx(-2.5, rel=1e-12)


def test_a_perpendicular_pair_is_refused_and_a_zero_pair_is_aristotle():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    result = one_pair(e1, e2)
    assert not result.is_kinematical and "not collinear" in result.reason
    # a zero pair adds no mixing content: the rotations alone are the Aristotle case
    assert case_label(one_pair(np.zeros(2), np.zeros(2))) is CaseLabel.ARISTOTLE


def test_non_finite_mixing_vectors_are_refused():
    # NaN and inf rows would read as Carroll (sigma = inf) or a NaN defect
    for bad in (np.nan, np.inf, -np.inf):
        for b, c in (([bad, 0.0], [1.0, 0.0]), ([1.0, 0.0], [bad, 0.0])):
            with pytest.raises(ValueError, match="entries must be finite"):
                one_pair(b, c)
            with pytest.raises(ValueError, match="non-finite"):
                collinearity_defect(b, c)
    with pytest.raises(ValueError, match="non-finite"):
        collinearity_defect([[1.0, 0.0], [np.nan, 0.0]], [[2.0, 0.0], [1.0, 0.0]])


def test_mixing_pairs_must_match_row_by_row():
    # A vector is one row; b and c of other shapes are refused, not broadcast.
    for b, c in (([1.0, 0.0], [[2.0, 0.0], [0.0, 5.0], [1.0, 1.0]]),
                 ([[1.0, 0.0], [1.0, 0.0]], [2.0, 0.0]),
                 ([1.0, 0.0], [1.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match=r"shape, got \("):
            collinearity_defect(b, c)
    assert collinearity_defect([1.0, 0.0], [[2.0, 0.0]]).tolist() == [0.0]


def test_mixing_pairs_with_no_rows_or_no_columns_are_refused():
    # Neither no data nor empty vectors make a zero defect.
    with pytest.raises(ValueError, match="nonempty"):
        collinearity_defect(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        collinearity_defect([], [])
    with pytest.raises(ValueError, match=r"nonempty \(m, n\) shape, got \(\) and \(\)"):
        collinearity_defect(1.0, 2.0)  # two numbers are no pair of vectors


def test_the_sigma_rule_holds_past_the_square_root_of_overflow():
    # |b|^2 |c|^2 overflows here; perpendicular pairs must still be rejected
    for c in ([0.0, 1e160], [0.0, 1e150]):
        result = one_pair([1e160, 0.0], c)
        assert not result.is_kinematical and "not collinear" in result.reason
    assert one_pair([1e160, 0.0], [2e160, 0.0]).sigma.value == 2.0
    assert classify_algebra([mixing([1e160, 0.0], [2e160, 0.0]),
                             mixing([0.0, 3e160], [0.0, 6e160])]).sigma.value == 2.0
    assert one_pair([1e-300, 0.0], [1e300, 0.0]).sigma.value == math.inf


def test_balanced_rows_keep_the_verdicts_of_the_rule_written_row_by_row():
    # The rule is fed rows taken to the time unit that levels their largest b
    # and c entries and divided by the power of two of their largest entry.
    # Its verdicts are those of the rule written out row by row on those
    # rows, and a fitted sigma agrees to rounding.
    def balanced(b, c, tol=1e-9):
        b, c, k = _balanced_rows(b, c)
        rows, fit_bc, fit_bb = [], 0.0, 0.0
        for bi, ci in zip(b, c):
            bb, cc, bc = float(bi @ bi), float(ci @ ci), float(bi @ ci)
            if 2.0 * (bb * cc - bc * bc) > tol * (1.0 + bb * cc):
                return "NotCollinear"
            if bb + cc > 0.0:
                rows.append(bc / bb if math.sqrt(bb) > tol * math.sqrt(cc) else math.inf)
            fit_bc, fit_bb = fit_bc + bc, fit_bb + bb
        lo, hi = min(rows), max(rows)
        if lo == math.inf:
            return math.inf
        if hi == math.inf or hi - lo > tol * (1.0 + abs(lo) + abs(hi)):
            return "NotCollinear"
        return fit_bc / fit_bb * 4.0**k

    def verdict(b, c):
        got = rule(b, c)
        return "NotCollinear" if isinstance(got, str) else got

    rng = np.random.default_rng(12)
    verdicts = set()
    for _ in range(3000):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 21))
        b = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
        c = (rng.uniform(-5.0, 5.0, (m, 1)) * b
             + rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-9.0, -3.0))
        # A Carroll row has b below (n+1) eps |c|, so that a set of them alone
        # keeps its own time unit and reads as Carroll.
        carroll = rng.random(m) < 0.2
        b[carroll], c[carroll] = b[carroll] * 10.0 ** rng.uniform(-24.0, -16.0), b[carroll]
        want = balanced(b, c)
        got = verdict(b, c)
        if isinstance(want, str) or math.isinf(want):
            assert got == want
        else:
            assert got == pytest.approx(want, rel=1e-13)
        verdicts.add(want if isinstance(want, str) else math.isinf(want))
    assert verdicts == {"NotCollinear", True, False}


def test_a_row_far_smaller_than_the_largest_is_skipped():
    # Rows are judged in the scale of the set: a collinear row 1e170 times
    # smaller than the largest entry has squares that underflow there, so it
    # is skipped, as classify_algebra skips content under its cut.  It does
    # not spoil the fit, and its own sigma is not judged.
    b = [[1.0, 0.0], [1e-170, 0.0]]
    c = [[2.0, 0.0], [2e-170, 0.0]]
    assert rule(b, c) == 2.0
    assert rule(c, b) == 0.5
    assert rule(b, [[2.0, 0.0], [3e-170, 0.0]]) == 2.0


def test_the_sigma_rule_reads_a_pair_as_classify_algebra_reads_its_generator():
    # One sigma rule, over 3 * 28 * 3 * 20 = 5,040 pairs: n = 2, 3 and 10;
    # sigma = +-1e-12 ... 1e12, 0 and inf; c collinear with b, tilted by 1e-3
    # or perpendicular; |b| in 10^[-3, 3].
    rng = np.random.default_rng(33)
    sigmas = [s * 10.0**e for e in range(-12, 13, 2) for s in (1.0, -1.0)] + [0.0, math.inf]
    for n in (2, 3, 10):
        for sigma in sigmas:
            for tilt in (0.0, 1e-3, math.pi / 2):
                for _ in range(20):
                    u, v = np.linalg.qr(rng.standard_normal((n, 2)))[0].T
                    size = 10.0 ** rng.uniform(-3.0, 3.0)
                    b, c = size * u, size * (math.cos(tilt) * u + math.sin(tilt) * v)
                    b, c = (0.0 * b, c) if math.isinf(sigma) else (b, sigma * c)
                    result = classify_algebra([mixing(b, c)])
                    got = rule(b, c)
                    if isinstance(got, str):
                        assert not result.is_kinematical, (n, sigma, tilt, result.sigma)
                    else:
                        assert result.is_kinematical, (n, sigma, tilt, result.reason)
                        assert got == pytest.approx(result.sigma.value, rel=1e-12, abs=0.0), (
                            n, sigma, tilt, got, result.sigma)


def test_sigma_follows_a_change_of_time_unit_bit_for_bit():
    # (2^k b, 2^-k c) is (b, c) in another time unit, of sigma 4^-k sigma: the
    # rule maps its sigma back bit for bit, and classify_algebra of the set to
    # rounding.  |sigma| <= 1e3 keeps 4^-k sigma below the Carroll guard for
    # k >= -20.
    def sigma_of(b, c):
        return classify_algebra([mixing(*pair) for pair in zip(b, c)]).sigma.value

    rng = np.random.default_rng(34)
    sets = []
    for n, sigma in ((2, 1e3), (3, -1e3), (2, 0.37), (3, -1e-9), (2, 0.0), (3, 7.5e-4)):
        b = rng.standard_normal((3, n)) * rng.uniform(0.5, 2.0, (3, 1))
        c = sigma * b * (1.0 + 1e-11 * rng.standard_normal((3, 1)))
        sets.append((b, c, rule(b, c), sigma_of(b, c)))
    for k in range(-20, 501):
        b, c, sigma, classified = sets[k % len(sets)]
        assert rule(2.0**k * b, 2.0**-k * c) == math.ldexp(sigma, -2 * k)
        assert sigma_of(2.0**k * b, 2.0**-k * c) == pytest.approx(
            math.ldexp(classified, -2 * k), rel=1e-15, abs=0.0)


def test_a_power_of_two_scale_keeps_the_verdict_bit_for_bit():
    # A common power of two is exact on every entry and leaves the verdict
    # as it is: sigma bit for bit, and a pair tilted by 1e-3 refused.
    def verdict(b, c):
        result = classify_algebra([mixing(*pair) for pair in zip(b, c)])
        return result.sigma.value if result.is_kinematical else result.reason

    rng = np.random.default_rng(35)
    sets = []
    for n, sigma, tilt in ((2, 1e3, 0.0), (3, -1e3, 0.0), (2, 0.37, 0.0), (3, -1e-9, 0.0),
                           (2, 0.0, 0.0), (3, math.inf, 0.0), (2, -4e-3, 0.0), (3, 1.0, 1e-3)):
        b = rng.standard_normal((3, n)) * rng.uniform(0.5, 2.0, (3, 1))
        c = b * (1.0 + 1e-11 * rng.standard_normal((3, 1)))
        v = np.linalg.qr(np.c_[b[0], rng.standard_normal(n)])[0][:, 1]
        c[0] += tilt * np.linalg.norm(b[0]) * v
        b, c = (0.0 * b, c) if math.isinf(sigma) else (b, sigma * c)
        sets.append((b, c, verdict(b, c)))
    assert "not collinear" in sets[-1][2]
    for j in range(-900, 1001):
        b, c, want = sets[j % len(sets)]
        assert verdict(2.0**j * b, 2.0**j * c) == want


def _pairs(*sigmas):
    """One mixing pair per row along the first axis, each with its own
    sigma; inf gives a Carroll row."""
    b = np.array([[0.0, 0.0] if math.isinf(s) else [1.0, 0.0] for s in sigmas])
    c = np.array([[1.0, 0.0] if math.isinf(s) else [s, 0.0] for s in sigmas])
    return b, c


def test_rows_that_agree_within_tol_give_their_fitted_sigma():
    s = rule(*_pairs(1.0, 1.0 + 1e-10))
    assert s == pytest.approx(1.0 + 5e-11, rel=1e-15)
    # the comparison is relative in the magnitudes involved
    s = rule(*_pairs(1e6, 1e6 + 1e-4))
    assert s == pytest.approx(1e6 + 5e-5, rel=1e-15)
    assert rule(*_pairs(math.inf, math.inf)) == math.inf


def test_rows_that_disagree_on_sigma_are_refused():
    for b, c in (_pairs(1.0, 1.1), _pairs(1e8, math.inf), _pairs(math.inf, 2.0, 2.0)):
        assert rule(b, c).startswith("mixing generators disagree on sigma: ")


def test_the_fitted_sigma_weighs_each_row_by_b_squared():
    # rows of different lengths weigh in by |b|^2
    b = np.array([[1.0, 0.0], [0.0, 3.0]])
    c = 2.0 * b
    c[1] *= 1.0 + 1e-10
    s = rule(b, c)
    assert s == pytest.approx(2.0 * (1.0 + 9e-11), rel=1e-14)


def test_a_row_that_is_not_collinear_is_refused_and_a_zero_row_skipped():
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    c = np.array([[2.0, 0.0], [0.0, 2.0]])
    assert rule(b, c).startswith("mixing vectors are not collinear")
    # a zero row is skipped, as classify_algebra drops zero content
    assert rule(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[2.0, 0.0], [0.0, 0.0]])) == 2.0


def test_rotation_generators_shape():
    for n in (2, 3, 4):
        gens = rotation_generators(n)
        assert len(gens) == n * (n - 1) // 2
        for J in gens:
            np.testing.assert_array_equal(J, -J.T)
            assert np.all(J[:, n] == 0.0) and np.all(J[n, :] == 0.0)
    with pytest.raises(ValueError):
        rotation_generators(1)


def _lstsq_closed(basis, tol=1e-9):
    """Independent closure oracle: least squares onto the stacked basis."""
    rows = np.array([B.ravel() for B in basis]).T
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = bracket(basis[i], basis[j]).ravel()
            coef, *_ = np.linalg.lstsq(rows, w, rcond=None)
            if np.linalg.norm(rows @ coef - w) > tol * (1.0 + np.linalg.norm(w)):
                return False
    return True


def _levelled(basis, sigma):
    """The basis in sigma's balanced time unit, D B D^-1 (an automorphism of the bracket),
    each generator over its largest entry (the same span): the least-squares oracle has no
    power-of-two step of its own, and this copy lets it judge the span at any sigma."""
    k = sigma_unit(sigma)[0]
    out = [balance(np.array(B), k) for B in basis]
    return [B / abs(B).max() for B in out]


def _signed_decades(lo, hi, step):
    """+-10^e for e from lo to hi in steps of step."""
    magnitudes = 10.0 ** np.arange(lo, hi + step / 2, step)
    return [sign * m for m in magnitudes for sign in (1.0, -1.0)]


def test_closure_of_standard_algebras():
    standard = [1.0, 0.5, -1.0, 0.0, math.inf]
    # Far sigmas: balanced, the boosts outweigh the rotations by sqrt(sigma), which the
    # scan levels by judging each generator over its own power of two.  The oracle has no
    # such step and would lose the rotations, so there it judges the levelled copy.
    far = [sign * m for m in (1e18, 1e50, 1e100, 1e150, 1e200, 1e300, 1.7e308)
           for sign in (1.0, -1.0)]
    for n in (2, 3):
        for sigma in standard + _signed_decades(-12.0, 14.0, 0.25) + far:
            basis = rotation_generators(n) + [
                p_generator(np.eye(n)[i], sigma) for i in range(n)
            ]
            assert is_closed_under_bracket(basis)
            assert _lstsq_closed(_levelled(basis, sigma) if sigma in far else basis)
        assert is_closed_under_bracket(rotation_generators(n))


def test_closure_detects_m1_plus_m3():
    # rotations plus all mixing directions do not close: brackets of mixing
    # generators spill into the scalar and symmetric components
    for n in (2, 3):
        basis = rotation_generators(n)
        for i in range(n):
            basis.append(mixing(np.eye(n)[i], np.zeros(n)))
            basis.append(mixing(np.zeros(n), np.eye(n)[i]))
        assert not is_closed_under_bracket(basis)
        assert not _lstsq_closed(basis)
        defect = bracket_closure_defect(basis)
        assert defect == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert defect >= 1.0


def test_closure_verdict_does_not_depend_on_a_power_of_two_scale():
    # The span of test_closure_detects_m1_plus_m3 at 2^j is refused at every j,
    # with no warning, and its defect is that of scale 1 times 4^j, or inf past
    # the float range: each generator is judged over its own power of two.
    for n in (2, 3):
        basis = rotation_generators(n)
        for i in range(n):
            basis += [mixing(np.eye(n)[i], np.zeros(n)), mixing(np.zeros(n), np.eye(n)[i])]
        defect = bracket_closure_defect(basis)
        assert defect == math.sqrt(2.0)
        for j in range(-1000, 1001):
            moved = np.ldexp(basis, j)
            assert not is_closed_under_bracket(moved)
            assert bracket_closure_defect(moved) == (math.ldexp(defect, 2 * j) if j < 512
                                                     else math.inf)


def test_closure_is_a_span_property():
    # duplicating and rescaling basis vectors changes nothing
    basis = rotation_generators(2) + [p_generator(np.array([1.0, 0.0]), 1.0)]
    fat = [7.0 * B for B in basis] + basis + [basis[0] + basis[1]]
    assert is_closed_under_bracket(basis) == is_closed_under_bracket(fat)


def _standard_generators(rng, n, sigma, count=2, scale=1.0):
    gens = list(rotation_generators(n))
    for _ in range(count):
        gens.append(scale * p_generator(rng.standard_normal(n), sigma))
    return gens


def test_classify_each_case():
    rng = np.random.default_rng(21)
    for n in (2, 3):
        for sigma, label in [
            (1.0, CaseLabel.LORENTZ),
            (0.5, CaseLabel.LORENTZ),
            (0.0, CaseLabel.GALILEI),
            (-1.0, CaseLabel.ORTHOGONAL),
            (math.inf, CaseLabel.CARROLL),
        ]:
            result = classify_algebra(_standard_generators(rng, n, sigma))
            assert result.is_kinematical, result.reason
            assert case_label(result) is label
            if math.isfinite(sigma):
                assert result.sigma.value == pytest.approx(sigma, abs=1e-9)
            else:
                assert result.sigma.value == math.inf


def test_classify_sigma_sweep():
    # Rotations plus the boosts of one sigma always close, so the sigma
    # read from the mixing span decides the case on its own.
    rng = np.random.default_rng(25)
    for n in (2, 3, 10):
        for sigma in _signed_decades(-12.0, 14.0, 0.25) + [0.0, math.inf]:
            result = classify_algebra(_standard_generators(rng, n, sigma))
            assert result.is_kinematical, (n, sigma, result.reason)
            assert case_label(result) is case_of_sigma(sigma)
            if math.isfinite(sigma):
                assert result.sigma.value == pytest.approx(sigma, rel=1e-9)
            else:
                assert result.sigma.value == math.inf


def test_balancing_never_drops_mixing_content_under_the_cut():
    # Balancing shrinks the larger of b and c to about sqrt(|b| |c|) and leaves
    # the rotations alone.  Where that would bring the boosts under the SVD
    # cut next to the rotations, the set is read in its own unit instead.
    for n in (2, 3):
        e = np.eye(n)
        for scale, sigma, tol in ((1.0, 1e-13, 1e-6), (0.01, 2e-15, DEFAULT_TOL),
                                  (0.01, -2e-15, DEFAULT_TOL)):
            gens = rotation_generators(n) + [p_generator(scale * v, sigma) for v in e]
            result = classify_algebra(gens, tol)
            assert case_label(result) is case_of_sigma(sigma), (n, sigma, result)
            assert result.sigma.value == pytest.approx(sigma, rel=1e-9)
        # the same on the Carroll side: the boosts stay, and read as Carroll
        gens = rotation_generators(n) + [1e-13 * p_generator(v, 1e13) for v in e]
        assert case_label(classify_algebra(gens, 1e-6)) is CaseLabel.CARROLL


def test_rounding_level_columns_read_as_carroll():
    # With |b| <= (n+1) eps |c| for the largest entries the set is not
    # balanced, and the per-row rule reads it as Carroll; a column four
    # times larger is balanced and read as the finite sigma it is.
    eps = np.finfo(float).eps
    for n in (2, 3):
        rotations = rotation_generators(n)
        carroll = classify_algebra(rotations + [mixing((n + 1) * eps * v, v) for v in np.eye(n)])
        assert case_label(carroll) is CaseLabel.CARROLL
        ratio = 4.0 * (n + 1) * eps
        finite = classify_algebra(rotations + [mixing(ratio * v, v) for v in np.eye(n)])
        assert finite.sigma.value == pytest.approx(1.0 / ratio, rel=1e-12)


def _rescaled(gens, j):
    """D G D^-1 for each generator G, D = diag(1, ..., 1, 2^-j), exactly:
    the same set with sigma in a time unit 4^-j times as large."""
    out = [np.array(G, dtype=float) for G in gens]
    for G in out:
        G[-1] *= 2.0 ** -j
        G[:, -1] *= 2.0 ** j
    return out


def _gate(result):
    return None if result.reason is None else result.reason.split(":")[0]


def test_classify_does_not_depend_on_the_time_unit():
    # Accepted sets and each rejection gate: the outcome, the gate and the
    # rank are the same in every unit, and sigma scales by exactly 4^-j, as
    # long as sigma stays within 1e±13, far from where one of b and c is
    # rounding next to the other.
    rng = np.random.default_rng(28)
    checked = set()
    for n in (2, 3, 10):
        for e in np.arange(-12.0, 12.01, 1.0):
            sigma = float(rng.choice([-1.0, 1.0])) * 10.0 ** e
            base = _standard_generators(rng, n, sigma, count=n,
                                        scale=rng.uniform(0.25, 4.0))
            sym = np.zeros((n + 1, n + 1))
            sym[0, 0], sym[1, 1] = 1.0, -1.0
            sets = [base, base + [np.eye(n + 1) + base[-1]], base + [sym + base[-1]],
                    rotation_generators(n) + [p_generator(np.eye(n)[0], sigma),
                                              p_generator(np.eye(n)[1], 3.0 * sigma)],
                    base + [mixing(rng.standard_normal(n), sigma * rng.standard_normal(n))]]
            for gens in sets:
                result = classify_algebra(gens)
                for j in (1, -1, 5, -5, 20, -20, 40, -40):
                    if not 1e-13 <= abs(sigma) * 4.0 ** -j <= 1e13:
                        continue
                    moved = classify_algebra(_rescaled(gens, j))
                    assert moved.outcome == result.outcome, (n, sigma, j)
                    assert _gate(moved) == _gate(result), (n, sigma, j)
                    assert moved.diagnostics["rank"] == result.diagnostics["rank"]
                    if result.is_kinematical:
                        assert moved.sigma.value == math.ldexp(result.sigma.value, -2 * j)
                    checked.add(_gate(result))
    assert {g and g.split(" (")[0] for g in checked} == {
        None, "scalar", "traceless symmetric", "mixing vectors are not collinear",
        "mixing generators disagree on sigma"}


def test_classify_reads_sets_with_entries_near_the_float_range():
    # The largest generator norm is taken on the set divided by a power of
    # two, so its squares cannot overflow (from about 1.3e154) or vanish;
    # warnings are errors here.
    rng = np.random.default_rng(31)
    for n in (2, 3):
        gens = _standard_generators(rng, n, 1.0, count=n)
        for e in (520, -520, 1000, -1000):
            result = classify_algebra([math.ldexp(1.0, e) * G for G in gens])
            assert result.is_kinematical, (n, e, result.reason)
            assert case_label(result) is CaseLabel.LORENTZ
            assert result.sigma.value == pytest.approx(1.0, rel=1e-12)


def _fingerprint(result):
    """Outcome, sigma bits, reason and the bits of every diagnostic."""
    return (result.outcome, None if result.sigma is None else result.sigma.value.hex(),
            result.reason, sorted((k, v.hex()) for k, v in result.diagnostics.items()))


def test_classify_is_exact_under_power_of_two_scaling():
    # Each set is read over the power of two that brings its largest entry into
    # [1/2, 1), which is exact: 2^j G gets G's result bit for bit across the whole
    # float range.  Boost sets scaled to a largest entry in [8, 16), so that 2^1020 G
    # is finite while the largest generator norm of most sets, n = 10 and sigma = 1
    # among them, is not.
    rng = np.random.default_rng(35)
    for n in (2, 3, 10):
        for sigma in (1.0, -3.0, 0.0, math.inf):
            b = rng.standard_normal((n, n)) * rng.uniform(0.25, 4.0, (n, 1))
            gens = np.array(rotation_generators(n) + [p_generator(v, sigma) for v in b])
            gens = np.ldexp(gens, 4 - np.frexp(abs(gens).max())[1])
            result = classify_algebra(gens)
            assert result.is_kinematical and case_label(result) is case_of_sigma(sigma)
            for j in (-900, -600, -500, 500, 600, 900, 1020):
                assert _fingerprint(classify_algebra(np.ldexp(gens, j))) == _fingerprint(
                    result), (n, sigma, j)


def test_classify_takes_one_svd_of_the_non_rotation_rows(monkeypatch):
    # Rotations are adjoined anyway, so only the non-rotation content of
    # each generator goes into the one SVD: rotation generators give zero
    # rows, which are dropped before it.
    inputs = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        inputs.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(26)
    scalar = np.eye(3)
    symmetric = np.diag([1.0, -1.0, 0.0])
    sets = [(_standard_generators(rng, n, s, count=k), k)
            for n in (2, 3, 10) for s in (1.0, -0.5, 0.0, math.inf, 1e-6) for k in (1, n)]
    sets += [(rotation_generators(2) + [scalar], 1), (rotation_generators(2) + [symmetric], 1),
             ([mixing([1.0, 0.0], [0.0, 1.0])], 1)]
    for gens, non_rotation in sets:
        before = len(inputs)
        classify_algebra(gens)
        assert len(inputs) == before + 1
        rows = inputs[-1]
        assert 1 <= rows.shape[0] <= non_rotation
        assert np.all(np.any(rows != 0.0, axis=1))
    # rotations alone leave nothing to decompose
    before = len(inputs)
    assert classify_algebra(rotation_generators(10)).outcome == "AristotleOnly"
    assert len(inputs) == before


def test_classify_splits_all_generators_in_one_call(monkeypatch):
    # The generators go to the coordinate pass of isotypic as one (m, n+1, n+1) stack.
    from kinematica import isotypic
    shapes = []
    coordinates = isotypic._coordinates

    def counting(Z):
        shapes.append(np.shape(Z))
        return coordinates(Z)

    monkeypatch.setattr(isotypic, "_coordinates", counting)
    rng = np.random.default_rng(29)
    sets = [_standard_generators(rng, n, s, count=n)
            for n in (2, 3, 10, 20) for s in (1.0, -0.5, 0.0, math.inf)]
    sets += [rotation_generators(20), rotation_generators(2) + [np.eye(3)]]
    for gens in sets:
        before = len(shapes)
        classify_algebra(gens)
        assert shapes[before:] == [(len(gens),) + gens[0].shape]


def test_classify_a_boost_plus_a_rotation_is_the_boost_case():
    rng = np.random.default_rng(27)
    for n in (2, 3, 10):
        rotations = rotation_generators(n)
        for sigma in (2.0, 1e-8, -3.0, 0.0, math.inf):
            for scale in (1e-3, 1.0, 1e3):
                mixed = [scale * rotations[int(rng.integers(len(rotations)))]
                         + p_generator(rng.standard_normal(n), sigma) for _ in range(2)]
                for gens in (mixed, rotations + mixed):
                    result = classify_algebra(gens)
                    assert result.is_kinematical, (n, sigma, scale, result.reason)
                    assert case_label(result) is case_of_sigma(sigma)
                    if math.isfinite(sigma):
                        assert result.sigma.value == pytest.approx(sigma, rel=1e-12)


def test_classify_rotations_only():
    result = classify_algebra(rotation_generators(3))
    assert result.outcome == "AristotleOnly"
    assert result.sigma is None
    assert case_label(result) is CaseLabel.ARISTOTLE


def test_classify_zero_input():
    result = classify_algebra([np.zeros((3, 3))])
    assert result.outcome == "AristotleOnly"


def test_classify_without_explicit_rotations():
    # the rotation algebra is adjoined implicitly
    result = classify_algebra([p_generator(np.array([0.6, -0.2]), -1.0)])
    assert result.is_kinematical
    assert case_label(result) is CaseLabel.ORTHOGONAL
    assert result.sigma.value == pytest.approx(-1.0, abs=1e-12)


def test_classify_is_scale_invariant():
    rng = np.random.default_rng(22)
    for scale in (1e-6, 1e6):
        result = classify_algebra(
            _standard_generators(rng, 3, 0.5, scale=scale))
        assert result.is_kinematical
        assert result.sigma.value == pytest.approx(0.5, rel=1e-9)


def test_classify_survives_rotated_frames():
    from kinematica.groups import k_element

    rng = np.random.default_rng(23)
    K = k_element(random_orthogonal(3, rng), -1)
    Kinv = np.linalg.inv(K)
    gens = _standard_generators(rng, 3, 2.0)
    rotated = [K @ G @ Kinv for G in gens]
    result = classify_algebra(rotated)
    assert result.is_kinematical
    assert result.sigma.value == pytest.approx(2.0, abs=1e-9)


def test_classify_rejects_scalar_content():
    gens = rotation_generators(2) + [np.eye(3)]
    result = classify_algebra(gens)
    assert result.outcome == "NotKinematical"
    assert "m0" in result.reason


def test_classify_rejects_symmetric_content():
    S = np.zeros((3, 3))
    S[:2, :2] = [[1.0, 0.0], [0.0, -1.0]]
    result = classify_algebra(rotation_generators(2) + [S])
    assert result.outcome == "NotKinematical"
    assert "m2" in result.reason


def test_classify_rejects_non_collinear_mixing():
    result = classify_algebra([mixing([1.0, 0.0], [0.0, 1.0])])
    assert result.outcome == "NotKinematical"
    assert "collinear" in result.reason


def test_classify_rejects_mixed_sigmas():
    gens = rotation_generators(2) + [
        p_generator(np.array([1.0, 0.0]), 1.0),
        p_generator(np.array([0.0, 1.0]), 2.0),
    ]
    result = classify_algebra(gens)
    assert result.outcome == "NotKinematical"
    assert "sigma" in result.reason
    with pytest.raises(ValueError):
        case_label(result)


def test_classify_diagnostics_populated():
    result = classify_algebra(_standard_generators(np.random.default_rng(24), 2,
                                                   1.0))
    assert set(result.diagnostics) == {"rank", "m0", "m2", "m3", "sigma_spread"}
    for value in result.diagnostics.values():
        assert isinstance(value, float)


def test_classify_sigma_spread_is_the_range_of_row_sigmas():
    gens = rotation_generators(2) + [
        p_generator(np.array([1.0, 0.0]), 1.0),
        p_generator(np.array([0.0, 1.0]), 1.0 + 1e-10),
    ]
    result = classify_algebra(gens)
    assert result.is_kinematical
    assert result.diagnostics["sigma_spread"] == pytest.approx(1e-10, rel=1e-4)
    carroll = classify_algebra(rotation_generators(2) + [
        p_generator(np.array([1.0, 0.0]), math.inf)])
    assert carroll.sigma.value == math.inf
    assert carroll.diagnostics["sigma_spread"] == 0.0


def test_classify_maps_the_sigma_spread_back_with_sigma():
    # Far from sigma = 1 the rows are read in the balanced time unit; their spread is mapped
    # back to sigma's unit with sigma, so it stays relative to sigma.
    for sigma in (1e8, -1e-8):
        result = classify_algebra(rotation_generators(2) + [
            p_generator(np.array([1.0, 0.0]), sigma),
            p_generator(np.array([0.0, 1.0]), sigma * (1.0 + 1e-10))])
        assert result.sigma.value == pytest.approx(sigma, rel=1e-9)
        assert result.diagnostics["sigma_spread"] == pytest.approx(1e-10 * abs(sigma), rel=1e-4)


def test_classify_computes_row_sigmas_once_per_accepted_set(monkeypatch):
    calls = []
    row_sigmas = classify._row_sigmas

    def counting(*args):
        calls.append(args)
        return row_sigmas(*args)

    monkeypatch.setattr(classify, "_row_sigmas", counting)
    rng = np.random.default_rng(25)
    sets = [_standard_generators(rng, n, s)
            for n in (2, 3) for s in (1.0, -0.5, 0.0, math.inf)]
    for gens in sets:
        assert classify_algebra(gens).is_kinematical
    assert len(calls) == len(sets)


def _padded(gens, m):
    """The set with zero generators appended up to m, which adds no content."""
    return list(gens) + [np.zeros_like(gens[0])] * (m - len(gens))


def _gate_sets(rng, n):
    """One set of m = n(n-1)/2 + n + 1 generators for each gate of classify_algebra."""
    eps = np.finfo(float).eps
    rotations = rotation_generators(n)
    m = len(rotations) + n + 1
    base = _standard_generators(rng, n, 1.0, count=n)
    sym = np.zeros((n + 1, n + 1))
    sym[0, 0], sym[1, 1] = 1.0, -1.0
    sets = {
        "aristotle": rotations,
        "zero": [np.zeros((n + 1, n + 1))],
        "m0": base + [np.eye(n + 1) + base[-1]],
        "m2": base + [sym + base[-1]],
        "mixed sigma": rotations + [p_generator(np.eye(n)[0], 1.0),
                                    p_generator(np.eye(n)[1], 2.0)],
        "not collinear": base + [mixing(rng.standard_normal(n), rng.standard_normal(n))],
        "carroll guard": rotations + [mixing((n + 1) * eps * v, v) for v in np.eye(n)],
        "undo": rotations + [p_generator(0.01 * v, 2e-15) for v in np.eye(n)],
    }
    for sigma in (1e12, -1e12, 1e-12, -1e-12, 0.0, math.inf):
        sets[f"sigma {sigma}"] = _standard_generators(rng, n, sigma, count=n)
    return {name: _padded(gens, m) for name, gens in sets.items()}


def _assert_one_set_answers(stack, bits, tol=DEFAULT_TOL):
    results = classify_algebra(np.array(stack), tol)
    assert isinstance(results, list) and len(results) == len(stack)
    for got, gens in zip(results, stack):
        want = classify_algebra(list(gens), tol)
        assert (got.outcome, got.reason) == (want.outcome, want.reason)
        if got.outcome != "NotKinematical":
            assert case_label(got) is case_label(want)
        if bits:
            assert got.sigma == want.sigma and got.diagnostics == want.diagnostics
            continue
        if want.sigma is not None:
            assert got.sigma.value == pytest.approx(want.sigma.value, rel=1e-12, abs=0.0)
        # The norms are of unit basis rows, and the spread is in the unit of sigma.
        scale = {"sigma_spread": 1.0 + abs(want.sigma.value) if want.sigma else 1.0}
        assert got.diagnostics.keys() == want.diagnostics.keys()
        for key, value in want.diagnostics.items():
            assert abs(got.diagnostics[key] - value) <= 1e-12 * scale.get(key, 1.0), key


def test_classify_a_stack_gives_each_set_its_one_set_answer():
    # Every gate in one (T, m, n+1, n+1) stack: the guard, the undo and the
    # cut act per set.  These sets differ in their zero rows, so each one's
    # SVD sees rows the others need: equal to 1e-12.
    rng = np.random.default_rng(32)
    for n in (2, 3, 5):
        sets = _gate_sets(rng, n)
        _assert_one_set_answers(list(sets.values()), bits=False)
        outcomes = [classify_algebra(gens) for gens in sets.values()]
        assert {(_gate(r) or case_label(r).value).split(" (")[0] for r in outcomes} == {
            "Aristotle", "scalar", "traceless symmetric", "mixing generators disagree on sigma",
            "mixing vectors are not collinear", "Carroll", "Lorentz", "Orthogonal", "Galilei"}


def test_classify_a_stack_of_one_kind_is_bit_for_bit():
    # Sets that share their zero rows, as the property suite draws them:
    # each set's answer is that of its one-set call, bit for bit.
    rng = np.random.default_rng(33)
    for n in (2, 3, 10):
        for sigma in (1.0, 0.5, -1.0, 0.0, math.inf, 3e13, -2e-12):
            stack = [_standard_generators(rng, n, sigma, count=n,
                                          scale=rng.uniform(0.25, 4.0)) for _ in range(6)]
            _assert_one_set_answers(stack, bits=True)
        gates = _gate_sets(rng, n)
        for name in ("m0", "not collinear", "carroll guard", "undo", "zero"):
            _assert_one_set_answers([gates[name]] * 3, bits=True)


def _kind_sets(rng, n):
    """One set of each kind, by the gate or case it reads as, all of m = n(n-1)/2 + n + 2
    generators with their rotation rows (none in non-rotation content), their n + 1 content rows
    and one zero generator at the same places, so that a stack of them drops the rows each set
    alone drops."""
    eps = np.finfo(float).eps
    rotations, e = rotation_generators(n), np.eye(n)
    sym = np.zeros((n + 1, n + 1))
    sym[0, 0], sym[1, 1] = 1.0, -1.0

    def boosts(sigma, count=n + 1):
        return list(p_generator(rng.standard_normal((count, n)), sigma))

    def skew():
        return mixing(rng.standard_normal(n), rng.standard_normal(n))

    sets = [(case_of_sigma(sigma).value, boosts(sigma)) for sigma in (
        1e12, -1e12, 1.0, -1.0, 0.5, 1e-12, -1e-12, 0.0, math.inf)] + [
        ("scalar", boosts(1.0, n) + [np.eye(n + 1) + boosts(1.0, 1)[0]]),
        ("scalar", boosts(1.0, n - 1) + [skew(), np.eye(n + 1) + skew()]),  # m0 comes first
        ("traceless symmetric", boosts(1.0, n) + [sym + boosts(1.0, 1)[0]]),
        ("mixing generators disagree on sigma", [p_generator(e[0], 1.0), p_generator(
            3.0 * e[0], 1.0)] + [p_generator((i + 2) * e[i], 2.0) for i in range(1, n)]),
        ("mixing vectors are not collinear", boosts(1.0, n) + [skew()]),
        ("Aristotle", [np.zeros((n + 1, n + 1))] * (n + 1)),  # the rotations alone
        ("Carroll", [mixing((n + 1) * eps * v, v) for v in (*e, e.sum(0))]),  # at the guard
        ("Lorentz", [p_generator(0.01 * v, 2e-15) for v in (*e, e.sum(0))]),  # the undo branch
    ]
    return [(kind, rotations + gens + [np.zeros((n + 1, n + 1))]) for kind, gens in sets]


def test_a_stack_classifies_each_set_as_its_one_set_call():
    # A (T, m, n+1, n+1) stack of every kind, T = 1 and T = 40, gets each set's one-set answer
    # bit for bit: outcome, reason text, sigma, spread and every diagnostic.  The arrays of
    # classify's whole-array core hold the same answers.
    rng = np.random.default_rng(36)
    for n in (2, 3):
        kinds, sets = zip(*[entry for _ in range(3) for entry in _kind_sets(rng, n)][:40])
        assert len(sets) == 40 and len(set(map(len, sets))) == 1
        want = [classify_algebra(gens) for gens in sets]
        assert [(_gate(r) or case_label(r).value).split(" (")[0] for r in want] == list(kinds)
        for which in [[i] for i in range(len(sets))] + [range(len(sets))]:
            got = classify_algebra(np.array([sets[i] for i in which]))
            assert [_fingerprint(r) for r in got] == [_fingerprint(want[i]) for i in which]
        verdicts = classify._verdicts(np.array(sets), DEFAULT_TOL)
        assert [v.shape for v in verdicts] == [(40,)] * 8
        for i, result in enumerate(want):
            outcome, sigma, spread, rank, m0, m2, m3, reason = (v[i] for v in verdicts)
            assert (outcome, reason) == (result.outcome, result.reason)
            assert [rank, m0, m2, m3] == [result.diagnostics[key] for key in (
                "rank", "m0", "m2", "m3")]
            if result.is_kinematical:
                assert (sigma, spread) == (result.sigma.value, result.diagnostics["sigma_spread"])


def test_classify_holds_one_copy_of_a_set_and_its_coordinates():
    # The set is copied once, scaled in place and its coordinates written once: no scaled
    # copy, |x| temporary or split components of the set's size beside them.
    n = 20
    b = np.random.default_rng(35).standard_normal((n, n))
    gens = np.array(rotation_generators(n) + list(p_generator(b, 0.7)))
    classify_algebra(gens)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        result = classify_algebra(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert case_label(result) is CaseLabel.LORENTZ
    assert peak <= 2.5 * gens.nbytes, peak / gens.nbytes


def test_classify_a_stack_takes_one_split_and_one_svd(monkeypatch):
    from kinematica import isotypic
    calls = []
    coordinates, svd = isotypic._coordinates, np.linalg.svd
    monkeypatch.setattr(isotypic, "_coordinates",
                        lambda Z: calls.append("split") or coordinates(Z))
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (
        calls.append(np.shape(a)) or svd(a, *args, **kwargs)))
    stack = np.array(list(_gate_sets(np.random.default_rng(34), 3).values()))
    assert len(classify_algebra(stack)) == len(stack)
    assert calls[0] == "split" and len(calls) == 2 and calls[1][0] == len(stack)
    # a stack with nothing but rotations takes no SVD
    calls.clear()
    assert [r.outcome for r in classify_algebra(np.array([rotation_generators(3)] * 4))] == [
        "AristotleOnly"] * 4
    assert calls == ["split"]
    assert classify_algebra(np.zeros((0, 2, 3, 3))) == []


def test_classify_refuses_arrays_that_are_no_set_or_stack_of_sets():
    # One matrix, sets of no matrices and deeper stacks are refused.
    for shape in ((3, 3), (2, 0, 3, 3), (0, 3, 3), (1, 1, 2, 3, 3)):
        with pytest.raises(ValueError, match="sets"):
            classify_algebra(np.zeros(shape))


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_algebra([])
    with pytest.raises(ValueError):
        classify_algebra([np.eye(2)])
    with pytest.raises(ValueError):
        classify_algebra([np.eye(3), np.eye(4)])
