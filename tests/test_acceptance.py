"""Acceptance suite: one test per numbered criterion, each printing a
single PASS/FAIL line before asserting.  Run with ``pytest -v -s`` to see
the lines as they happen; a plain run shows them on failure only.
"""

import contextlib
import io
import json
import math

import numpy as np

from kinematica import cli
from kinematica.affine import AffineElement, Event, WorldLine, transform_worldline
from kinematica.classify import (
    SIGMA_INF,
    CaseLabel,
    Sigma,
    bracket_closure_defect,
    case_label,
    classify_algebra,
    collinearity_defect,
    is_closed_under_bracket,
    rotation_generators,
)
from kinematica.groups import (
    boost_closed_form,
    cartan_decompose,
    in_K,
    in_normalizer,
    k_element,
    membership,
    p_generator,
    random_element,
    random_orthogonal,
)
from kinematica.matcore import bracket, dagger, mat_exp
from kinematica.verify import nonalgebra_witness


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


def _report(num, name, ok, detail=""):
    line = f"[acceptance] criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _run_cli(argv):
    """Run the command line entry point capturing stdout, independent of
    pytest's own capture mode."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


CASE_OF = {
    1.0: CaseLabel.LORENTZ,
    0.5: CaseLabel.LORENTZ,
    -1.0: CaseLabel.ORTHOGONAL,
    0.0: CaseLabel.GALILEI,
    math.inf: CaseLabel.CARROLL,
}


def test_criterion_01_classification_round_trip():
    rng = np.random.default_rng(101)
    ok = True
    worst = 0.0
    for n in (2, 3):
        for value, expected in CASE_OF.items():
            sigma = Sigma(value)
            for _ in range(100):
                gens = list(rotation_generators(n))
                for _ in range(2):
                    scale = 10.0 ** rng.uniform(-2.0, 2.0)
                    gens.append(scale * p_generator(rng.standard_normal(n), sigma))
                result = classify_algebra(gens)
                if not (result.is_kinematical and case_label(result) is expected):
                    ok = False
                    continue
                if sigma.is_infinite:
                    ok = ok and result.sigma.is_infinite
                else:
                    err = abs(result.sigma.value - value) / (1.0 + abs(value))
                    worst = max(worst, err)
                    ok = ok and err <= 1e-9
        aristotle = classify_algebra(rotation_generators(n))
        ok = ok and aristotle.outcome == "AristotleOnly"
    _report(1, "classification round trip", ok, f"worst sigma error {worst:.2e}")


def test_criterion_02_contamination_rejection():
    rng = np.random.default_rng(102)
    total = 0
    rejected = 0
    for n in (2, 3):
        for _ in range(34):
            base = list(rotation_generators(n))
            base.append(p_generator(rng.standard_normal(n), Sigma(1.0)))

            m0 = np.zeros((n + 1, n + 1))
            m0[:n, :n] = rng.uniform(0.2, 2.0) * np.eye(n)
            m0[n, n] = rng.standard_normal()
            total += 1
            if classify_algebra(base + [m0]).outcome == "NotKinematical":
                rejected += 1

            sym = rng.standard_normal((n, n))
            sym = 0.5 * (sym + sym.T)
            sym -= np.trace(sym) / n * np.eye(n)
            m2 = np.zeros((n + 1, n + 1))
            m2[:n, :n] = sym
            total += 1
            if classify_algebra(base + [m2]).outcome == "NotKinematical":
                rejected += 1

            mixed = base + [p_generator(rng.standard_normal(n), Sigma(2.0))]
            total += 1
            if classify_algebra(mixed).outcome == "NotKinematical":
                rejected += 1
    ok = total >= 200 and rejected == total
    _report(2, "contamination rejection", ok, f"{rejected}/{total} rejected")


def test_criterion_03_collinearity_corner_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(1000):
        n = 2 + trial % 2
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        Z = np.zeros((n + 1, n + 1))
        Z[:n, n] = b
        Z[n, :n] = c
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = np.outer(b, c) - np.outer(c, b)
        corner = bracket(Z, bracket(Z, A))[n, n]
        worst = max(worst, abs(corner - collinearity_defect(b, c)))
    ok = worst <= 1e-10
    _report(3, "collinearity corner identity", ok, f"worst gap {worst:.2e}")


def test_criterion_04_cartan_factor_recovery():
    rng = np.random.default_rng(104)
    ok = True
    worst = 0.0
    sigmas = [Sigma(1.0), Sigma(0.5), Sigma(2.0)]
    for trial in range(200):
        n = 2 + trial % 2
        sigma = sigmas[trial % 3]
        lam = float(rng.uniform(0.1, 10.0))
        k = k_element(random_orthogonal(n, rng), 1 if rng.random() < 0.5 else -1)
        b = rng.standard_normal(n)
        b *= rng.uniform(0.0, 2.0) / np.linalg.norm(b)
        Z = p_generator(b, sigma)
        a = math.sqrt(lam) * k @ mat_exp(Z)
        f = cartan_decompose(a, sigma)
        recon = op_norm(f.reconstruct() - a)
        worst = max(worst, recon)
        ok = ok and abs(f.lam - lam) <= 1e-10
        ok = ok and op_norm(f.k - k) <= 1e-8
        ok = ok and op_norm(f.Z - Z) <= 1e-8
        ok = ok and recon <= 1e-8
    _report(4, "cartan factor recovery", ok, f"worst reconstruction {worst:.2e}")


def test_criterion_05_normalizer_detection():
    rng = np.random.default_rng(105)
    ok = True
    sigmas = [Sigma(1.0), Sigma(0.5), Sigma(-1.0)]
    for n in (2, 3):
        for trial in range(100):
            sigma = sigmas[trial % 3]
            case = CaseLabel.LORENTZ if sigma.value > 0 else CaseLabel.ORTHOGONAL
            g = random_element(case, sigma, n, 2.0, seed=1000 * n + trial)
            accepted, lam = in_normalizer(g, sigma)
            ok = ok and accepted and abs(lam - 1.0) <= 1e-8
            lam0 = float(rng.uniform(0.1, 10.0))
            accepted, lam = in_normalizer(math.sqrt(lam0) * g, sigma)
            ok = ok and accepted and abs(lam - lam0) <= 1e-8 * (1.0 + lam0)

    rejected = 0
    total = 0
    for n in (2, 3):
        for trial in range(100):
            sigma = sigmas[trial % 3]
            case = CaseLabel.LORENTZ if sigma.value > 0 else CaseLabel.ORTHOGONAL
            g = random_element(case, sigma, n, 2.0, seed=5000 * n + trial)
            E = rng.standard_normal((n + 1, n + 1))
            E /= op_norm(E)
            t = 1e-3
            a = None
            for _ in range(40):
                a = g + t * E
                q = dagger(a, sigma.value) @ a
                lam = float(np.trace(q)) / (n + 1)
                if op_norm(q - lam * np.eye(n + 1)) >= 1e-3:
                    break
                t *= 2.0
            else:
                continue  # never left the normalizer, not a valid probe
            total += 1
            accepted, _ = in_normalizer(a, sigma)
            if not accepted:
                rejected += 1
    ok = ok and total >= 200 and rejected == total
    _report(5, "normalizer detection", ok, f"{rejected}/{total} perturbed rejected")


def test_criterion_06_group_closure_and_invariants():
    ok = True
    specs = [
        (CaseLabel.LORENTZ, Sigma(1.0)),
        (CaseLabel.GALILEI, None),
        (CaseLabel.ORTHOGONAL, Sigma(-1.0)),
        (CaseLabel.CARROLL, None),
        (CaseLabel.ARISTOTLE, None),
    ]
    rng = np.random.default_rng(106)
    for n in (2, 3):
        gram = np.diag(np.r_[np.full(n, -1.0), 1.0])
        for case, sigma in specs:
            for trial in range(50):
                g1 = random_element(case, sigma, n, 1.5, seed=trial)
                g2 = random_element(case, sigma, n, 1.5, seed=900 + trial)
                product = g1 @ g2
                ok = ok and membership(product, case, sigma)
                ok = ok and membership(np.linalg.inv(g1), case, sigma)
                if case is CaseLabel.LORENTZ:
                    resid = op_norm(product.T @ gram @ product - gram)
                    ok = ok and resid <= 1e-9 * (1.0 + op_norm(gram))
                elif case is CaseLabel.GALILEI:
                    ok = ok and np.all(product[n, :n] == 0.0) and abs(product[n, n]) == 1.0
                elif case is CaseLabel.CARROLL:
                    x = rng.standard_normal(n + 1)
                    y = rng.standard_normal(n + 1)
                    before = np.linalg.norm((x - y)[:n])
                    after = np.linalg.norm((product @ x - product @ y)[:n])
                    ok = ok and abs(after - before) <= 1e-10 * (1.0 + before)
    _report(6, "group closure and invariants", ok)


def test_criterion_07_invariant_speed_preservation():
    rng = np.random.default_rng(107)
    ok = True
    worst = 0.0
    for trial in range(1000):
        n = 2 + trial % 2
        sigma = Sigma(1.0) if trial % 2 == 0 else Sigma(4.0)
        c = sigma.invariant_speed
        member = random_element(CaseLabel.LORENTZ, sigma, n, 3.0, seed=trial)
        gmap = AffineElement(member, rng.standard_normal(n + 1))
        origin = Event(rng.standard_normal(n), float(rng.standard_normal()))
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        image = transform_worldline(gmap, WorldLine(origin, velocity=c * u))
        err = abs(image.speed() - c)
        worst = max(worst, err)
        ok = ok and err <= 1e-8
        slow = transform_worldline(gmap, WorldLine(origin, velocity=0.5 * c * u))
        ok = ok and slow.speed() < c
    _report(7, "invariant speed preservation", ok, f"worst speed error {worst:.2e}")


def test_criterion_08_closed_form_boosts_and_wraparound():
    rng = np.random.default_rng(108)
    ok = True
    worst = 0.0
    regimes = [Sigma(1.0), Sigma(0.5), Sigma(-1.0), Sigma(-0.25), Sigma(0.0),
               SIGMA_INF]
    for n in (2, 3):
        for sigma in regimes:
            for norm in (0.1, 0.5, 1.5, 3.0, 5.0):
                for _ in range(4):
                    u = rng.standard_normal(n)
                    b = u / np.linalg.norm(u) * norm
                    gap = op_norm(boost_closed_form(b, sigma)
                                  - mat_exp(p_generator(b, sigma)))
                    worst = max(worst, gap)
                    ok = ok and gap <= 1e-10

    for n in (2, 3):
        for trial in range(50):
            scale = (1.0, 2.0, 0.5)[trial % 3]
            sigma = Sigma(-1.0 / scale**2)
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            M = boost_closed_form(math.pi * scale * u, sigma)
            A = M[:n, :n]
            ok = ok and in_K(M)
            ok = ok and abs(M[n, n] + 1.0) <= 1e-12
            ok = ok and abs(np.linalg.det(A) + 1.0) <= 1e-10
            ok = ok and np.linalg.norm(A @ u + u) <= 1e-10
            full = boost_closed_form(2.0 * math.pi * scale * u, sigma)
            ok = ok and op_norm(full - np.eye(n + 1)) <= 1e-12
    _report(8, "closed-form boosts and wrap-around", ok,
            f"worst series gap {worst:.2e}")


def test_criterion_09_non_subalgebra_witness():
    ok = True
    for n in (2, 3):
        basis = list(rotation_generators(n))
        for i in range(n):
            Z = np.zeros((n + 1, n + 1))
            Z[i, n] = 1.0
            basis.append(Z)
            W = np.zeros((n + 1, n + 1))
            W[n, i] = 1.0
            basis.append(W)
        closed = is_closed_under_bracket(basis)
        defect = bracket_closure_defect(basis)
        _, _, corner = nonalgebra_witness(n)
        ok = ok and not closed and defect >= 1.0 and corner == 2.0
        ok = ok and abs(defect - math.sqrt(2.0)) <= 1e-12
    _report(9, "non-subalgebra witness", ok)


def test_criterion_10_cli_pipeline_and_mutations(tmp_path, monkeypatch):
    ok = True

    # generate -> classify plumbing for every case: documented exit codes,
    # parseable output
    specs = [
        (["--case", "lorentz", "--sigma", "1"]),
        (["--case", "galilei"]),
        (["--case", "orthogonal", "--sigma", "-1"]),
        (["--case", "carroll"]),
        (["--case", "aristotle"]),
    ]
    for extra in specs:
        code, out = _run_cli(["generate", "--count", "2", "--seed", "6"] + extra)
        ok = ok and code == 0
        path = tmp_path / f"members_{extra[1]}.json"
        path.write_text(out)
        code, out = _run_cli(["classify", str(path)])
        data = json.loads(out)
        ok = ok and set(data) >= {"outcome", "sigma", "diagnostics"}
        expected = 2 if data["outcome"] == "NotKinematical" else 0
        ok = ok and code == expected

    # generator files classify to their case with exit 0
    for value, expected in CASE_OF.items():
        gens = rotation_generators(2) + [
            p_generator(np.array([1.0, 0.0]), Sigma(value)),
            p_generator(np.array([0.0, 1.0]), Sigma(value)),
        ]
        path = tmp_path / f"gens_{value}.json"
        path.write_text(json.dumps(
            {"n": 2, "matrices": [g.ravel().tolist() for g in gens]}))
        code, out = _run_cli(["classify", str(path)])
        data = json.loads(out)
        ok = ok and code == 0 and data["case"] == expected.value

    # decompose round-trips the Cartan factors
    code, out = _run_cli(["generate", "--case", "lorentz", "--sigma", "1",
                          "--count", "3", "--seed", "12", "--boost-bound", "2"])
    ok = ok and code == 0
    member_path = tmp_path / "lorentz.json"
    member_path.write_text(out)
    code, out = _run_cli(["decompose", str(member_path), "--sigma", "1"])
    ok = ok and code == 0
    originals = cli.load_matrix_file(str(member_path)).matrices
    for entry, a in zip(json.loads(out), originals):
        rebuilt = (math.sqrt(entry["lambda"])
                   * np.array(entry["k"]).reshape(3, 3)
                   @ mat_exp(np.array(entry["Z"]).reshape(3, 3)))
        ok = ok and op_norm(rebuilt - a) <= 1e-8

    # the property suite passes on the correct build
    verify_argv = ["verify", "--n", "2", "--trials", "4", "--seed", "2"]
    code, _ = _run_cli(verify_argv)
    ok = ok and code == 0

    # and fails under each documented mutation
    from kinematica import classify as classify_mod
    from kinematica import isotypic as isotypic_mod
    from kinematica import matcore as matcore_mod

    real_dagger = matcore_mod.dagger
    real_split = isotypic_mod.split
    mutants = []

    def flipped_dagger(Z, sigma):
        return -real_dagger(Z, sigma)
    mutants.append(("kinematica.matcore.dagger", flipped_dagger))

    def always_finite_sigma(b, c, tol=1e-9):
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        sigma = Sigma(float(np.vdot(b, c)) / max(float(np.vdot(b, b)), 1e-300))
        return sigma, np.array([sigma.value])
    # the sigma rule behind sigma_from_m3, which classify_algebra calls directly
    mutants.append(("kinematica.classify._sigma_and_rows", always_finite_sigma))

    def split_without_m2(Z):
        parts = real_split(Z)
        parts.m2 = np.zeros_like(parts.m2)
        return parts
    mutants.append(("kinematica.isotypic.split", split_without_m2))

    detected = 0
    for target, mutant in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(target, mutant)
            code, _ = _run_cli(verify_argv)
            if code != 0:
                detected += 1
    ok = ok and detected == len(mutants)
    _report(10, "cli pipeline and mutation sensitivity", ok,
            f"{detected}/{len(mutants)} mutations detected")
