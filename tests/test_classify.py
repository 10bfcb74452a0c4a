import math

import numpy as np
import pytest

from kinematica import classify
from kinematica.classify import (
    DEFAULT_TOL,
    SIGMA_INF,
    CaseLabel,
    NotCollinear,
    Sigma,
    ZeroGenerator,
    as_sigma,
    bracket_closure_defect,
    case_label,
    case_of_sigma,
    classify_algebra,
    collinearity_defect,
    is_closed_under_bracket,
    rotation_generators,
    sigma_from_m3,
)
from kinematica.groups import p_generator
from kinematica.matcore import bracket


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


def test_sigma_validation():
    with pytest.raises(ValueError):
        Sigma(float("nan"))
    with pytest.raises(ValueError):
        Sigma(-math.inf)
    assert Sigma(math.inf).is_infinite
    assert Sigma(0.0).is_finite
    assert repr(SIGMA_INF) == "Sigma(inf)"


def test_sigma_invariant_speed():
    assert Sigma(4.0).invariant_speed == 0.5
    for bad in (Sigma(0.0), Sigma(-1.0), SIGMA_INF):
        with pytest.raises(ValueError):
            bad.invariant_speed


def test_sigma_rotation_scale():
    assert Sigma(-0.25).rotation_scale == 2.0
    for bad in (Sigma(0.0), Sigma(1.0), SIGMA_INF):
        with pytest.raises(ValueError):
            bad.rotation_scale


def test_as_sigma_coercion():
    assert as_sigma(2) == Sigma(2.0)
    assert as_sigma(Sigma(3.0)) is not None
    assert as_sigma(math.inf).is_infinite


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


def test_sigma_from_m3_finite():
    e1 = np.array([1.0, 0.0])
    s = sigma_from_m3(e1, 3.0 * e1)
    assert s.is_finite and s.value == pytest.approx(3.0, abs=1e-15)


def test_sigma_from_m3_zero_row_is_galilei():
    s = sigma_from_m3(np.array([0.0, 1.0]), np.zeros(2))
    assert s.value == 0.0


def test_sigma_from_m3_zero_column_is_carroll():
    s = sigma_from_m3(np.zeros(2), np.array([1.0, 0.0]))
    assert s.is_infinite


def test_sigma_from_m3_scale_free():
    b = np.array([0.3, -0.4, 1.2])
    for t in (1e-6, 1.0, 1e6):
        s = sigma_from_m3(t * b, t * (-2.5) * b)
        assert s.value == pytest.approx(-2.5, rel=1e-12)


def test_sigma_from_m3_rejects_bad_pairs():
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    with pytest.raises(NotCollinear):
        sigma_from_m3(e1, e2)
    with pytest.raises(ZeroGenerator):
        sigma_from_m3(np.zeros(2), np.zeros(2))


def test_non_finite_mixing_vectors_are_refused():
    # NaN and inf rows would read as Carroll (sigma = inf) or a NaN defect
    for bad in (np.nan, np.inf, -np.inf):
        for b, c in (([bad, 0.0], [1.0, 0.0]), ([1.0, 0.0], [bad, 0.0])):
            with pytest.raises(ValueError, match="non-finite"):
                sigma_from_m3(b, c)
            with pytest.raises(ValueError, match="non-finite"):
                collinearity_defect(b, c)
    with pytest.raises(ValueError, match="non-finite"):
        sigma_from_m3([[1.0, 0.0], [np.nan, 0.0]], [[2.0, 0.0], [1.0, 0.0]])


def test_mixing_pairs_must_match_row_by_row():
    # A vector is one row; b and c of other shapes are refused, not broadcast.
    for b, c in (([1.0, 0.0], [[2.0, 0.0], [0.0, 5.0], [1.0, 1.0]]),
                 ([[1.0, 0.0], [1.0, 0.0]], [2.0, 0.0]),
                 ([1.0, 0.0], [1.0, 0.0, 0.0])):
        for extract in (sigma_from_m3, collinearity_defect):
            with pytest.raises(ValueError, match=r"shape, got \("):
                extract(b, c)
    assert sigma_from_m3([1.0, 0.0], [[2.0, 0.0]]).value == 2.0


def test_mixing_pairs_with_no_rows_or_no_columns_are_refused():
    # Neither no data nor empty vectors make a Carroll pair or a zero defect.
    with pytest.raises(ValueError, match="nonempty"):
        sigma_from_m3(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="nonempty"):
        collinearity_defect([], [])


def test_collinearity_defect_takes_one_pair():
    # Row 1 has defect 2; an answer for row 0 alone would be 0.
    with pytest.raises(ValueError, match=r"one pair.*\(2, 2\)"):
        collinearity_defect([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 0.0]])
    assert collinearity_defect([[0.0, 1.0]], [[1.0, 0.0]]) == 2.0


def test_sigma_from_m3_entries_beyond_the_square_root_of_overflow():
    # |b|^2 |c|^2 overflows here; perpendicular pairs must still be rejected
    with pytest.raises(NotCollinear, match="collinear"):
        sigma_from_m3([1e160, 0.0], [0.0, 1e160])
    with pytest.raises(NotCollinear, match="collinear"):
        sigma_from_m3([1e160, 0.0], [0.0, 1e150])
    assert sigma_from_m3([1e160, 0.0], [2e160, 0.0]).value == 2.0
    assert sigma_from_m3([[1e160, 0.0], [0.0, 3e160]],
                         [[2e160, 0.0], [0.0, 6e160]]).value == 2.0
    assert sigma_from_m3([1e-300, 0.0], [1e300, 0.0]).is_infinite


def test_sigma_from_m3_scaling_keeps_ordinary_verdicts():
    # Scaling each row by a power of two is exact, so away from overflow the
    # row verdicts and values are those of the unscaled test, bit for bit,
    # and so is sigma_from_m3 of a single row.
    def unscaled(b, c, tol=1e-9):
        out = []
        for bi, ci in zip(b, c):
            nb, nc = float(np.linalg.norm(bi)), float(np.linalg.norm(ci))
            if collinearity_defect(bi, ci) > tol * (1.0 + nb * nb * nc * nc):
                return "NotCollinear"
            out.append(float(bi @ ci) / (nb * nb) if nb > tol * nc else math.inf)
        return out

    def verdict(fn):
        try:
            return fn()
        except NotCollinear:
            return "NotCollinear"

    rng = np.random.default_rng(12)
    verdicts = set()
    for _ in range(3000):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 21))
        b = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
        c = (rng.uniform(-5.0, 5.0, (m, 1)) * b
             + rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-9.0, -3.0))
        carroll = rng.random(m) < 0.2
        b[carroll], c[carroll] = b[carroll] * 10.0 ** rng.uniform(-12.0, -7.0), b[carroll]
        want = unscaled(b, c)
        assert verdict(lambda: classify._row_sigmas(b, c, 1e-9).tolist()) == want
        if m == 1:
            # sigma_from_m3 fits one row as b @ c / b @ b, not over |b|^2.
            fit = (want if isinstance(want, str) else want[0] if math.isinf(want[0])
                   else float(b[0] @ c[0]) / float(b[0] @ b[0]))
            assert verdict(lambda: sigma_from_m3(b[0], c[0]).value) == fit
        verdicts.add(want if isinstance(want, str) else math.inf in want)
    assert verdicts == {"NotCollinear", True, False}


def test_sigma_from_m3_keeps_a_row_far_smaller_than_the_largest():
    # Each row has its own power-of-two scale, so a nonzero collinear row
    # 1e170 times smaller than another does not underflow to zero.
    b = [[1.0, 0.0], [1e-170, 0.0]]
    c = [[2.0, 0.0], [2e-170, 0.0]]
    assert sigma_from_m3(b, c) == Sigma(2.0)
    assert sigma_from_m3(c, b) == Sigma(0.5)
    with pytest.raises(NotCollinear, match="disagree"):
        sigma_from_m3(b, [[2.0, 0.0], [3e-170, 0.0]])


def _pairs(*sigmas):
    """One mixing pair per row along the first axis, each with its own
    sigma; inf gives a Carroll row."""
    b = np.array([[0.0, 0.0] if math.isinf(s) else [1.0, 0.0] for s in sigmas])
    c = np.array([[1.0, 0.0] if math.isinf(s) else [s, 0.0] for s in sigmas])
    return b, c


def test_sigma_from_m3_rows_agree_within_tol():
    s = sigma_from_m3(*_pairs(1.0, 1.0 + 1e-10))
    assert s.value == pytest.approx(1.0 + 5e-11, rel=1e-15)
    # the comparison is relative in the magnitudes involved
    s = sigma_from_m3(*_pairs(1e6, 1e6 + 1e-4))
    assert s.value == pytest.approx(1e6 + 5e-5, rel=1e-15)
    assert sigma_from_m3(*_pairs(math.inf, math.inf)).is_infinite


def test_sigma_from_m3_rows_disagree():
    with pytest.raises(NotCollinear, match="sigma"):
        sigma_from_m3(*_pairs(1.0, 1.1))
    with pytest.raises(NotCollinear, match="sigma"):
        sigma_from_m3(*_pairs(1e8, math.inf))
    with pytest.raises(NotCollinear, match="sigma"):
        sigma_from_m3(*_pairs(math.inf, 2.0, 2.0))


def test_sigma_from_m3_rows_fit_is_aggregate():
    # rows of different lengths weigh in by |b|^2
    b = np.array([[1.0, 0.0], [0.0, 3.0]])
    c = 2.0 * b
    c[1] *= 1.0 + 1e-10
    s = sigma_from_m3(b, c)
    assert s.value == pytest.approx(2.0 * (1.0 + 9e-11), rel=1e-14)


def test_sigma_from_m3_rejects_a_bad_row():
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    c = np.array([[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(NotCollinear, match="collinear"):
        sigma_from_m3(b, c)
    with pytest.raises(ZeroGenerator):
        sigma_from_m3(np.array([[1.0, 0.0], [0.0, 0.0]]),
                      np.array([[2.0, 0.0], [0.0, 0.0]]))


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


def _signed_decades(lo, hi, step):
    """+-10^e for e from lo to hi in steps of step."""
    magnitudes = 10.0 ** np.arange(lo, hi + step / 2, step)
    return [Sigma(sign * m) for m in magnitudes for sign in (1.0, -1.0)]


def test_closure_of_standard_algebras():
    standard = [Sigma(1.0), Sigma(0.5), Sigma(-1.0), Sigma(0.0), SIGMA_INF]
    for n in (2, 3):
        for sigma in standard + _signed_decades(-12.0, 14.0, 0.25):
            basis = rotation_generators(n) + [
                p_generator(np.eye(n)[i], sigma) for i in range(n)
            ]
            assert is_closed_under_bracket(basis)
            assert _lstsq_closed(basis)
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
            (Sigma(1.0), CaseLabel.LORENTZ),
            (Sigma(0.5), CaseLabel.LORENTZ),
            (Sigma(0.0), CaseLabel.GALILEI),
            (Sigma(-1.0), CaseLabel.ORTHOGONAL),
            (SIGMA_INF, CaseLabel.CARROLL),
        ]:
            result = classify_algebra(_standard_generators(rng, n, sigma))
            assert result.is_kinematical, result.reason
            assert case_label(result) is label
            if sigma.is_finite:
                assert result.sigma.value == pytest.approx(sigma.value, abs=1e-9)
            else:
                assert result.sigma.is_infinite


def test_classify_sigma_sweep():
    # Rotations plus the boosts of one sigma always close, so the sigma
    # read from the mixing span decides the case on its own.
    rng = np.random.default_rng(25)
    for n in (2, 3, 10):
        for sigma in _signed_decades(-12.0, 14.0, 0.25) + [Sigma(0.0), SIGMA_INF]:
            result = classify_algebra(_standard_generators(rng, n, sigma))
            assert result.is_kinematical, (n, sigma, result.reason)
            assert case_label(result) is case_of_sigma(sigma)
            if sigma.is_finite:
                assert result.sigma.value == pytest.approx(sigma.value, rel=1e-9)
            else:
                assert result.sigma.is_infinite


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
            assert case_label(result) is case_of_sigma(Sigma(sigma)), (n, sigma, result)
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
            base = _standard_generators(rng, n, Sigma(sigma), count=n,
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
        gens = _standard_generators(rng, n, Sigma(1.0), count=n)
        for e in (520, -520, 1000, -1000):
            result = classify_algebra([math.ldexp(1.0, e) * G for G in gens])
            assert result.is_kinematical, (n, e, result.reason)
            assert case_label(result) is CaseLabel.LORENTZ
            assert result.sigma.value == pytest.approx(1.0, rel=1e-12)


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
    sets = [(_standard_generators(rng, n, Sigma(s), count=k), k)
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
    # The generators go to isotypic.split as one (m, n+1, n+1) stack.
    from kinematica import isotypic
    shapes = []
    split = isotypic.split

    def counting(Z):
        shapes.append(np.shape(Z))
        return split(Z)

    monkeypatch.setattr(isotypic, "split", counting)
    rng = np.random.default_rng(29)
    sets = [_standard_generators(rng, n, Sigma(s), count=n)
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
        for sigma in (Sigma(2.0), Sigma(1e-8), Sigma(-3.0), Sigma(0.0), SIGMA_INF):
            for scale in (1e-3, 1.0, 1e3):
                mixed = [scale * rotations[int(rng.integers(len(rotations)))]
                         + p_generator(rng.standard_normal(n), sigma) for _ in range(2)]
                for gens in (mixed, rotations + mixed):
                    result = classify_algebra(gens)
                    assert result.is_kinematical, (n, sigma, scale, result.reason)
                    assert case_label(result) is case_of_sigma(sigma)
                    if sigma.is_finite:
                        assert result.sigma.value == pytest.approx(sigma.value, rel=1e-12)


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
            _standard_generators(rng, 3, Sigma(0.5), scale=scale))
        assert result.is_kinematical
        assert result.sigma.value == pytest.approx(0.5, rel=1e-9)


def test_classify_survives_rotated_frames():
    from kinematica.groups import k_element

    rng = np.random.default_rng(23)
    K = k_element(random_orthogonal(3, rng), -1)
    Kinv = np.linalg.inv(K)
    gens = _standard_generators(rng, 3, Sigma(2.0))
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
                                                   Sigma(1.0)))
    for key in ("rank", "m0", "m1", "m2", "m3", "sigma_spread"):
        assert key in result.diagnostics
        assert isinstance(result.diagnostics[key], float)
    assert "closure_defect" not in result.diagnostics


def test_classify_sigma_spread_is_the_range_of_row_sigmas():
    gens = rotation_generators(2) + [
        p_generator(np.array([1.0, 0.0]), 1.0),
        p_generator(np.array([0.0, 1.0]), 1.0 + 1e-10),
    ]
    result = classify_algebra(gens)
    assert result.is_kinematical
    assert result.diagnostics["sigma_spread"] == pytest.approx(1e-10, rel=1e-4)
    carroll = classify_algebra(rotation_generators(2) + [
        p_generator(np.array([1.0, 0.0]), SIGMA_INF)])
    assert carroll.sigma.is_infinite
    assert carroll.diagnostics["sigma_spread"] == 0.0


def test_classify_computes_row_sigmas_once_per_accepted_set(monkeypatch):
    calls = []
    row_sigmas = classify._row_sigmas

    def counting(*args):
        calls.append(args)
        return row_sigmas(*args)

    monkeypatch.setattr(classify, "_row_sigmas", counting)
    rng = np.random.default_rng(25)
    sets = [_standard_generators(rng, n, Sigma(s))
            for n in (2, 3) for s in (1.0, -0.5, 0.0, math.inf)]
    for gens in sets:
        assert classify_algebra(gens).is_kinematical
    assert len(calls) == len(sets)


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_algebra([])
    with pytest.raises(ValueError):
        classify_algebra([np.eye(2)])
    with pytest.raises(ValueError):
        classify_algebra([np.eye(3), np.eye(4)])
