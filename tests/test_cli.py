import contextlib
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import orjson
import pytest

import kinematica
from kinematica import cli, groups, verify
from kinematica.classify import CaseLabel, rotation_generators
from kinematica.groups import (boost_closed_form, cartan_decompose, membership,
                               p_generator, random_element)
from kinematica.matcore import mat_exp


def op_norm(m) -> float:
    """Spectral norm: the tests measure in it, whatever norm the library
    scales its tolerances by."""
    return float(np.linalg.norm(m, 2))


def write_file(tmp_path, payload, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def factor_entry(a, sigma) -> dict:
    """What decompose prints for a, from a call on a alone."""
    try:
        f = cartan_decompose(a, sigma)
    except (groups.NotInNormalizer, groups.NonPositiveLambda) as exc:
        return {"error": type(exc).__name__}
    return {"lambda": float(f.lam), "k": f.k.ravel().tolist(), "Z": f.Z.ravel().tolist()}


def run_module(cwd, *args):
    """``python -W error -m kinematica ARGS`` in a fresh interpreter, its stdout a pipe."""
    src = str(Path(kinematica.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "kinematica", *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def generator_payload(n, sigma):
    gens = rotation_generators(n) + [
        p_generator(np.eye(n)[i], sigma) for i in range(n)
    ]
    return {"n": n, "matrices": [g.ravel().tolist() for g in gens]}


def test_parse_sigma_spellings():
    assert cli._parse_sigma("inf") == math.inf
    assert cli._parse_sigma(" INF ") == math.inf
    assert cli._parse_sigma("0.5") == 0.5
    assert cli._parse_sigma("-2") == -2.0
    with pytest.raises(ValueError, match="cannot read sigma value 'seven'"):
        cli._parse_sigma("seven")
    with pytest.raises(ValueError, match="cannot read sigma value 'nan'"):
        cli._parse_sigma("nan")


def test_load_accepts_flat_and_nested_matrices(tmp_path):
    flat = [0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    nested = [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    path = write_file(tmp_path, {"n": 2, "matrices": [flat, nested]})
    matrices = cli.load_matrix_file(path)
    assert matrices.shape == (2, 3, 3)
    np.testing.assert_array_equal(matrices[0], matrices[1])
    # a file of no matrices keeps its n in the stack's shape
    empty = write_file(tmp_path, {"n": 3, "matrices": []}, "empty.json")
    assert cli.load_matrix_file(empty).shape == (0, 4, 4)


@pytest.mark.parametrize("payload, message", [
    ([1, 2, 3], "top level must be a JSON object"),
    ({"matrices": []}, '"n" must be a positive integer'),
    ({"n": True, "matrices": []}, '"n" must be a positive integer'),
    ({"n": 0, "matrices": []}, '"n" must be a positive integer'),
    ({"n": 2, "matrices": {}}, '"matrices" must be a list'),
    ({"n": 2, "matrices": [[1.0, 2.0]]}, r"matrices\[0\] must hold 9 row-major entries"),
    ({"n": 2, "matrices": [[math.nan] * 9]}, r"matrices\[0\] has non-finite entries"),
])
def test_load_rejects_bad_schema(tmp_path, payload, message):
    path = write_file(tmp_path, payload)
    with pytest.raises(ValueError, match=message):
        cli.load_matrix_file(path)


@pytest.mark.parametrize("n, matrices", [
    ("18446744073709551616", "[[1.0]]"),  # 2^64, which orjson reads as a float
    ("18446744073709551615", "[]"),
    ("1099511627776", "[]"),
    ("1073741823", "[[1.0]]"),
    ("1e400", "[]"),
])
def test_a_huge_n_is_too_large(tmp_path, capsys, n, matrices):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"n": {n}, "matrices": {matrices}}}')
    with pytest.raises(ValueError, match='^"n" is too large$'):
        cli.load_matrix_file(str(path))
    assert cli.main(["classify", str(path)]) == 1
    assert capsys.readouterr().err == 'error: "n" is too large\n'


@pytest.mark.parametrize("n", ["2.5", "3.0", "-1", "true", "1073741822"])
def test_an_n_below_the_bound_keeps_its_message(tmp_path, n):
    path = tmp_path / "small.json"
    path.write_text(f'{{"n": {n}, "matrices": [[1.0]]}}')
    with pytest.raises(ValueError, match='positive integer|row-major entries'):
        cli.load_matrix_file(str(path))


def test_an_affine_key_is_ignored_like_any_unknown_key(tmp_path, capsys):
    payload = generator_payload(2, 1.0)
    runs = []
    for extra in ({}, {"affine": [[]]}, {"unknown": [[]]}):
        code = cli.main(["classify", write_file(tmp_path, {**payload, **extra})])
        runs.append((code, capsys.readouterr()))
    assert runs[0][0] == 0
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        cli.load_matrix_file(str(path))


def refuse_the_stdlib_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json.loads was called")
    monkeypatch.setattr(json, "loads", refuse)


def test_a_strict_json_file_never_reaches_the_stdlib_parser(tmp_path, capsys, monkeypatch):
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", "20", "--seed", "5"]) == 0
    path = tmp_path / "members.json"
    path.write_text(capsys.readouterr().out)
    expected = np.array(json.loads(path.read_text())["matrices"]).reshape(-1, 4, 4)
    refuse_the_stdlib_parser(monkeypatch)
    np.testing.assert_array_equal(cli.load_matrix_file(str(path)), expected)


def assert_load_gives_the_bits_of_json(tmp_path, monkeypatch, literals):
    text = '{"n": 2, "matrices": [' + ", ".join(literals) + "]}"
    path = tmp_path / "numbers.json"
    path.write_text(text)
    want = np.asarray(json.loads(text)["matrices"], dtype=float).reshape(-1, 3, 3)
    refuse_the_stdlib_parser(monkeypatch)
    got = cli.load_matrix_file(str(path))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("literal", [
    "0.0", "-0.0", "5e-324", "-5e-324", "2.4703282292062328e-324",
    "2.2250738585072014e-308", "2.2250738585072011e-308",
    "1.7976931348623157e308", "-1.7976931348623157e308",
    "0.30000000000000000444", "9007199254740993.0",
    "1.00000000000000011102230246251565404236316680908203125",  # halfway: to even
    "1.000000000000000111022302462515654042363166809082031251",  # past halfway: up
    "3.141592653589793238462643383279502884197", "-2.718281828459045235360287471352662497e-300",
    pytest.param(str(2**53 + 1), id="2**53+1"), pytest.param(str(2**64), id="2**64"),
    pytest.param(str(-2**64), id="-2**64"), pytest.param(str(10**300), id="10**300"),
])
def test_load_reads_a_number_to_the_bits_json_gives(tmp_path, monkeypatch, literal):
    assert_load_gives_the_bits_of_json(tmp_path, monkeypatch,
                                       [f"[{literal}, 0, 0, 0, 0, 0, 0, 0, 1]"])


def test_load_reads_random_long_decimals_to_the_bits_json_gives(tmp_path, monkeypatch):
    # 17 to 40 significant digits, from below the smallest subnormal to near the float max.
    rng = np.random.default_rng(22)
    literals = []
    for _ in range(9 * 300):
        digits = "".join(map(str, rng.integers(0, 10, rng.integers(17, 41))))
        sign, exponent = rng.choice(["", "-"]), rng.integers(-340, 308)
        literals.append(f"{sign}{digits[0]}.{digits[1:]}e{exponent}")
    assert_load_gives_the_bits_of_json(
        tmp_path, monkeypatch, ["[" + ", ".join(literals[i:i + 9]) + "]"
                                for i in range(0, len(literals), 9)])


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_a_file_with_a_byte_order_mark_is_an_error(tmp_path, capsys, encoding):
    # Python's json reads such bytes (it strips the UTF-8 mark and detects UTF-16), but the
    # file goes to orjson as bytes and to Python's json as a str decoded in strict UTF-8:
    # UTF-16 fails the decode, and neither parser takes the mark.
    path = tmp_path / "marked.json"
    path.write_text(json.dumps(generator_payload(2, 1.0)), encoding=encoding)
    assert cli.main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_a_file_with_an_invalid_utf8_byte_is_an_error(tmp_path, capsys):
    # The file is read as bytes: orjson refuses a byte that starts no UTF-8 character, and so
    # does the strict decode before Python's json.
    path = tmp_path / "latin1.json"
    text = json.dumps(generator_payload(2, 1.0) | {"note": "\xe9"}, ensure_ascii=False)
    path.write_bytes(text.encode("latin-1"))
    assert cli.main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert "Traceback" not in captured.err


def test_classify_command_success(tmp_path, capsys):
    path = write_file(tmp_path, generator_payload(2, 0.0))
    code = cli.main(["classify", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["outcome"] == "Kinematical"
    assert out["case"] == "Galilei"
    assert out["sigma"] == 0.0
    assert "diagnostics" in out


def test_classify_command_carroll_sigma_spelling(tmp_path, capsys):
    path = write_file(tmp_path, generator_payload(2, math.inf))
    code = cli.main(["classify", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["case"] == "Carroll"
    assert out["sigma"] == "inf"


def test_classify_command_rejection_exit_code(tmp_path, capsys):
    payload = generator_payload(2, 1.0)
    payload["matrices"].append(np.eye(3).ravel().tolist())
    path = write_file(tmp_path, payload)
    code = cli.main(["classify", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["outcome"] == "NotKinematical"
    assert "reason" in out


def test_classify_command_reads_entries_near_the_float_range(tmp_path, capsys):
    # 2^520 times a Lorentz set: its squared norms overflow unless taken on
    # the set divided by a power of two; warnings are errors here.
    for e in (520, -520):
        payload = generator_payload(3, 1.0)
        payload["matrices"] = [[math.ldexp(x, e) for x in m] for m in payload["matrices"]]
        code = cli.main(["classify", write_file(tmp_path, payload)])
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert (code, data["case"], data["sigma"], err) == (0, "Lorentz", 1.0, "")


def test_generate_decompose_classify_at_sigma_1e12(tmp_path, capsys):
    # The boost generators Z that decompose reads off members of sigma 1e12
    # classify back to Lorentz and 1e12.
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1e12", "--n", "3",
                     "--count", "3", "--seed", "4", "--boost-bound", "1e-6"]) == 0
    members = tmp_path / "members.json"
    members.write_text(capsys.readouterr().out)
    assert cli.main(["decompose", str(members), "--sigma", "1e12"]) == 0
    boosts = [entry["Z"] for entry in json.loads(capsys.readouterr().out)]
    code = cli.main(["classify", write_file(tmp_path, {"n": 3, "matrices": boosts})])
    data = json.loads(capsys.readouterr().out)
    assert (code, data["case"]) == (0, "Lorentz")
    assert data["sigma"] == pytest.approx(1e12, rel=1e-9)


def test_classify_missing_file(capsys):
    code = cli.main(["classify", "/no/such/file.json"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2,")
    assert cli.main(["classify", str(path)]) == 1


@pytest.mark.parametrize("payload, field", [
    ({"n": 2, "matrices": [{"a": 1}]}, "matrices[0]"),
    ({"n": 2, "matrices": [[[1.0, 2.0, 3.0], {"a": 1}, [7.0, 8.0, 9.0]]]}, "matrices[0]"),
])
def test_classify_object_where_numbers_belong_is_an_error(tmp_path, capsys, payload, field):
    path = write_file(tmp_path, payload)
    assert cli.main(["classify", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("index, entry, message", [
    (2, [math.inf] + [0.0] * 8, "matrices[2] has non-finite entries"),
    (1, [1.0, 2.0], "matrices[1] must hold 9 row-major entries"),
    (3, {"a": 1}, "matrices[3] must be a list of numbers"),
    (2, [10**400] + [0] * 8, "matrices[2] has entries too large for a float"),
])
def test_load_names_the_bad_matrix_among_good_ones(tmp_path, index, entry, message):
    matrices = [np.eye(3).ravel().tolist() for _ in range(4)]
    matrices[index] = entry
    path = write_file(tmp_path, {"n": 2, "matrices": matrices})
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        cli.load_matrix_file(path)


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["decompose"]) == 1  # --sigma is required
    capsys.readouterr()


def test_generate_then_decompose_round_trip(tmp_path, capsys):
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "2",
                     "--count", "3", "--seed", "11"]) == 0
    payload = capsys.readouterr().out
    path = tmp_path / "members.json"
    path.write_text(payload)

    assert cli.main(["decompose", str(path), "--sigma", "1"]) == 0
    entries = json.loads(capsys.readouterr().out)
    originals = cli.load_matrix_file(str(path))
    assert len(entries) == 3
    for entry, a in zip(entries, originals):
        assert entry["lambda"] == pytest.approx(1.0, abs=1e-9)
        k = np.array(entry["k"]).reshape(3, 3)
        Z = np.array(entry["Z"]).reshape(3, 3)
        rebuilt = math.sqrt(entry["lambda"]) * k @ mat_exp(Z)
        assert op_norm(rebuilt - a) <= 1e-9


def test_decompose_reports_failures_with_exit_two(tmp_path, capsys):
    shear = np.eye(3)
    shear[0, 1] = 0.5
    payload = {"n": 2,
               "matrices": [boost_closed_form(np.array([0.3, 0.0]), 1.0).ravel().tolist(),
                            shear.ravel().tolist()]}
    path = write_file(tmp_path, payload)
    code = cli.main(["decompose", path, "--sigma", "1"])
    entries = json.loads(capsys.readouterr().out)
    assert code == 2
    assert "lambda" in entries[0]
    assert entries[1] == {"error": "NotInNormalizer"}


def test_decompose_reports_the_zero_matrix_as_non_positive_lambda(tmp_path, capsys):
    path = write_file(tmp_path, {"n": 2, "matrices": [[0.0] * 9]})
    code = cli.main(["decompose", path, "--sigma", "1"])
    assert json.loads(capsys.readouterr().out) == [{"error": "NonPositiveLambda"}]
    assert code == 2


def test_decompose_of_a_mixed_file_matches_each_matrix_alone(tmp_path, capsys):
    # Members scaled by lam from 1e-8 to 1e8, copies moved by 1e-6, the zero
    # matrix and Gaussian non-members, decomposed in one call.
    rng = np.random.default_rng(17)
    members = random_element(CaseLabel.LORENTZ, 1.0, 3, 2.0, 0, size=8)
    scaled = np.sqrt(10.0 ** rng.uniform(-8.0, 8.0, 8))[:, None, None] * members
    moved = scaled * (1.0 + 1e-6 * rng.choice((-1.0, 1.0), scaled.shape))
    matrices = np.concatenate([members, scaled, moved, np.zeros((1, 4, 4)),
                               rng.standard_normal((4, 4, 4))])
    path = write_file(tmp_path, {"n": 3, "matrices": matrices.reshape(-1, 16).tolist()})
    code = cli.main(["decompose", path, "--sigma", "1"])
    entries = json.loads(capsys.readouterr().out)
    assert code == 2 and len(entries) == len(matrices)
    assert entries == [factor_entry(a, 1.0) for a in matrices]
    errors = [entry.get("error") for entry in entries]
    assert errors.count("NonPositiveLambda") == 1 and "NotInNormalizer" in errors
    assert errors.count(None) >= 8


def test_decompose_of_an_empty_file_prints_an_empty_list(tmp_path, capsys):
    path = write_file(tmp_path, {"n": 3, "matrices": []})
    assert cli.main(["decompose", path, "--sigma", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == []


def test_decompose_at_sigma_1e12_factors_every_member(tmp_path, capsys):
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1e12", "--n", "3",
                     "--count", "200", "--seed", "0", "--boost-bound", "5e-6"]) == 0
    path = tmp_path / "members.json"
    path.write_text(capsys.readouterr().out)
    code = cli.main(["decompose", str(path), "--sigma", "1e12"])
    entries = json.loads(capsys.readouterr().out)
    assert len(entries) == 200
    assert all("lambda" in entry for entry in entries)
    assert code == 0


def test_decompose_refuses_a_lam_beyond_the_float_range(tmp_path, capsys):
    # lam = 1e320 overflows: a refusal, with nothing printed to stderr
    path = write_file(tmp_path, {"n": 3, "matrices": [(1e160 * np.eye(4)).ravel().tolist()]})
    code = cli.main(["decompose", path, "--sigma", "1"])
    out, err = capsys.readouterr()
    assert json.loads(out) == [{"error": "NotInNormalizer"}]
    assert err == ""
    assert code == 2


def test_a_sigma_value_may_start_with_a_minus_sign(tmp_path, capsys):
    # argparse would read -1e-8 and -1,0.5 as options: --sigma and --sigma-list take the next
    # token as their value whatever its spelling, as with --flag=value.
    for command, flag, value in (
            (["generate", "--case", "orthogonal", "--n", "2"], "--sigma", "-1e-8"),
            (["verify", "--n", "2", "--trials", "2"], "--sigma-list", "-1,0.5")):
        assert cli.main(command + [flag, value]) == 0
        spaced = capsys.readouterr()
        assert cli.main(command + [f"{flag}={value}"]) == 0
        assert capsys.readouterr() == spaced and spaced.err == ""
    assert json.loads(spaced.out)["config"]["sigma_values"] == [-1.0, 0.5]
    path = write_file(tmp_path, {"n": 2, "matrices": []})
    assert cli.main(["decompose", path, "--sigma", "-1e-8"]) == 1  # the domain error, not usage
    assert capsys.readouterr().err == "error: Cartan decomposition needs a finite sigma > 0\n"
    for missing in (["generate", "--case", "orthogonal", "--sigma"], ["verify", "--sigma-list"]):
        assert cli.main(missing) == 1
        assert "expected one argument" in capsys.readouterr().err
    # No option is read from a prefix of its name: --sigma is not --sigma-list, nor --sig --sigma.
    for abbreviated in (["verify", "--sigma", "1"],
                        ["generate", "--case", "orthogonal", "--sig", "-1e-8"]):
        assert cli.main(abbreviated) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: kinematica ") and "unrecognized arguments" in err


def test_decompose_rejects_bad_sigma(tmp_path, capsys):
    path = write_file(tmp_path, {"n": 2, "matrices": []})
    for sigma in ("inf", "-1", "0"):
        assert cli.main(["decompose", path, "--sigma", sigma]) == 1
        assert capsys.readouterr().err == "error: Cartan decomposition needs a finite sigma > 0\n"
    assert cli.main(["decompose", path, "--sigma", "bogus"]) == 1
    capsys.readouterr()


def test_generate_output_is_deterministic(capsys):
    argv = ["generate", "--case", "carroll", "--n", "3", "--count", "2",
            "--seed", "3"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert cli.main(["generate", "--case", "carroll", "--n", "3",
                     "--count", "2", "--seed", "4"]) == 0
    assert capsys.readouterr().out != first


def test_generate_members_pass_membership(capsys):
    specs = [
        (["--case", "lorentz", "--sigma", "0.5"], CaseLabel.LORENTZ, 0.5),
        (["--case", "galilei"], CaseLabel.GALILEI, None),
        (["--case", "orthogonal", "--sigma", "-1"], CaseLabel.ORTHOGONAL, -1.0),
        (["--case", "carroll"], CaseLabel.CARROLL, None),
        (["--case", "aristotle"], CaseLabel.ARISTOTLE, None),
    ]
    for extra, case, sigma in specs:
        assert cli.main(["generate", "--count", "4", "--seed", "9"] + extra) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data["matrices"]) == 4
        for flat in data["matrices"]:
            a = np.array(flat).reshape(3, 3)
            assert membership(a, case, sigma, tol=1e-8)


def test_generate_validation_errors(capsys):
    assert cli.main(["generate", "--case", "aristotle", "--sigma", "1"]) == 1
    assert cli.main(["generate", "--case", "lorentz"]) == 1
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1",
                     "--n", "1"]) == 1
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1",
                     "--count", "-2"]) == 1
    for bound in ("-1", "inf", "nan"):
        assert cli.main(["generate", "--case", "lorentz", "--sigma", "1",
                         "--boost-bound", bound]) == 1
    capsys.readouterr()
    # random_element checks its arguments before drawing, even for --count 0
    assert cli.main(["generate", "--case", "galilei", "--n", "1", "--count", "0"]) == 1
    assert "need at least two space dimensions" in capsys.readouterr().err


def test_generate_seeds_beyond_64_bits(capsys):
    seed = 2**70
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", "2", "--seed", str(seed)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["matrices"] == random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, seed,
                                              size=2).reshape(2, 16).tolist()


@pytest.mark.parametrize("extra, case, sigma", [
    (["--case", "lorentz", "--sigma", "0.5"], CaseLabel.LORENTZ, 0.5),
    (["--case", "orthogonal", "--sigma", "-1"], CaseLabel.ORTHOGONAL, -1.0),
    (["--case", "galilei"], CaseLabel.GALILEI, None),
    (["--case", "carroll"], CaseLabel.CARROLL, None),
    (["--case", "aristotle"], CaseLabel.ARISTOTLE, None),
])
def test_generate_prints_one_draw_of_count_members(capsys, extra, case, sigma):
    # --count m --seed S prints random_element(..., S, size=m); --count 1 the
    # one member random_element(..., S).
    for count in (7, 1):
        assert cli.main(["generate", "--n", "3", "--count", str(count), "--seed", "12",
                         "--boost-bound", "2"] + extra) == 0
        printed = json.loads(capsys.readouterr().out)["matrices"]
        drawn = random_element(case, sigma, 3, 2.0, 12, size=count)
        assert printed == drawn.reshape(count, 16).tolist()
    assert printed == [random_element(case, sigma, 3, 2.0, 12).ravel().tolist()]


def test_generate_count_zero_prints_no_matrices(capsys):
    assert cli.main(["generate", "--case", "galilei", "--count", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {"n": 2, "matrices": []}


def test_generate_negative_seed_is_an_error(capsys):
    # The same error at any --count, none included.
    errors = []
    for count in ("1", "3", "0"):
        assert cli.main(["generate", "--case", "galilei", "--seed", "-1", "--count", count]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "Traceback" not in err
        errors.append(err)
    assert len(set(errors)) == 1


def test_generate_overflow_in_a_large_batch_is_an_error(capsys):
    code = cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", "50", "--boost-bound", "1000", "--seed", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: boost rapidity") and "overflows cosh" in err


def test_generate_refuses_boosts_whose_sinh_overflows_the_time_unit(capsys):
    # At sigma 1e-12 sinh(w) / sqrt(sigma) overflows from rapidity about 696,
    # before cosh(w) does (710): an error, not inf and NaN matrices.  The same
    # draw with a bound 710 times smaller than 7.1e8 has rapidities w / 710,
    # read off |a[n, n]| = cosh(w); the largest w lies between the two edges.
    small = random_element(CaseLabel.LORENTZ, 1e-12, 3, 1e6, 0, size=50)
    assert 700.0 < 710.0 * np.arccosh(abs(small[:, 3, 3])).max() < 710.0
    code = cli.main(["generate", "--case", "lorentz", "--sigma", "1e-12", "--n", "3",
                     "--count", "50", "--boost-bound", "7.1e8", "--seed", "0"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: boost rapidity") and "Traceback" not in err


def test_generate_out_of_memory_is_an_error(capsys, monkeypatch):
    # --n 100000 asks random_element for tens of GiB; its MemoryError is
    # stood in for here, so that nothing is allocated.
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr(groups, "random_element", out_of_memory)
    code = cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "100000"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "error: Unable to allocate 74.5 GiB\n"


def test_generate_draws_the_whole_batch_in_one_call(capsys, tracer):
    tracer.watch(groups, "random_element")
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", "1000", "--seed", "5"]) == 0
    assert len(json.loads(capsys.readouterr().out)["matrices"]) == 1000
    assert tracer.log == ["random_element"]


def test_generate_and_decompose_print_the_same_values_one_per_line(tmp_path, capsys):
    # The values are those of one draw of count members and one decomposition
    # per matrix; the text puts each matrix or entry on a line of its own.
    count, seed = 5, 21
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", str(count), "--seed", str(seed)]) == 0
    text = capsys.readouterr().out
    members = random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, seed, size=count)
    assert json.loads(text) == {"n": 3, "matrices": [g.ravel().tolist() for g in members]}
    assert len(text.splitlines()) == count + 2

    path = tmp_path / "members.json"
    path.write_text(text)
    assert cli.main(["decompose", str(path), "--sigma", "1"]) == 0
    text = capsys.readouterr().out
    expected = []
    for g in cli.load_matrix_file(str(path)):
        factors = cartan_decompose(g, 1.0)
        expected.append({"lambda": factors.lam, "k": factors.k.ravel().tolist(),
                         "Z": factors.Z.ravel().tolist()})
    assert json.loads(text) == expected
    assert len(text.splitlines()) == count + 2


# Floats whose text is easy to get wrong: a signed zero, the smallest
# subnormal, the largest double, and the powers of ten where a shortest
# spelling switches to an exponent.
EXTREMES = np.array([-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5, 1e-7,
                     -1 / 3, -2.5e-300, 0.1])


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def test_generate_text_keeps_every_float_bit_for_bit(tmp_path, capsys, monkeypatch):
    stack = np.stack([EXTREMES.reshape(3, 3), -EXTREMES[::-1].reshape(3, 3)])
    monkeypatch.setattr(groups, "random_element", lambda *args, **kwargs: stack)
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "2",
                     "--count", "2"]) == 0
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 2 + 2
    path = tmp_path / "members.json"
    path.write_text(text)
    np.testing.assert_array_equal(bits(cli.load_matrix_file(str(path))), bits(stack))
    np.testing.assert_array_equal(bits(orjson.loads(text)["matrices"]),
                                  bits(stack.reshape(2, 9)))


def test_decompose_text_keeps_every_float_bit_for_bit(tmp_path, capsys, monkeypatch):
    k = np.stack([EXTREMES.reshape(3, 3), EXTREMES[::-1].reshape(3, 3)])
    factors = SimpleNamespace(refused=np.array([None, None]), lam=EXTREMES[[1, 2]],
                              k=k, Z=-k)
    monkeypatch.setattr(groups, "cartan_decompose", lambda *args: factors)
    path = write_file(tmp_path, {"n": 2, "matrices": [np.eye(3).ravel().tolist()] * 2})
    assert cli.main(["decompose", path, "--sigma", "1"]) == 0
    text = capsys.readouterr().out
    assert len(text.splitlines()) == 2 + 2
    entries = json.loads(text)
    np.testing.assert_array_equal(bits([e["lambda"] for e in entries]), bits(factors.lam))
    np.testing.assert_array_equal(bits([e["k"] for e in entries]), bits(k.reshape(2, 9)))
    np.testing.assert_array_equal(bits([e["Z"] for e in entries]), bits(-k.reshape(2, 9)))


def test_generate_text_keeps_galilei_entries_near_1e299(capsys):
    assert cli.main(["generate", "--case", "galilei", "--sigma", "0", "--n", "3",
                     "--count", "20", "--seed", "4", "--boost-bound", "1e300"]) == 0
    printed = json.loads(capsys.readouterr().out)["matrices"]
    drawn = random_element(CaseLabel.GALILEI, 0.0, 3, 1e300, 4, size=20)
    assert abs(drawn).max() > 1e298
    np.testing.assert_array_equal(bits(printed), bits(drawn.reshape(20, 16)))


def test_empty_outputs_are_pinned_as_text(tmp_path, capsys):
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", "0"]) == 0
    assert capsys.readouterr().out == '{"n": 3, "matrices": []}\n'
    path = write_file(tmp_path, {"n": 3, "matrices": []})
    assert cli.main(["decompose", path, "--sigma", "1"]) == 0
    assert capsys.readouterr().out == "[]\n"


# The chunked writer's layout, written out: the head, then "[", each item's orjson text on a
# line of its own, ",\n" between items, "]", the tail and a newline; "[]" for no item.
def layout(items, head="", tail="") -> str:
    lines = [orjson.dumps(item).decode() for item in items]
    return head + ("[\n" + ",\n".join(lines) + "\n]" if lines else "[]") + tail + "\n"


def edge_counts(width):
    """Item counts on each side of the writer's chunk edges, for items of width numbers."""
    chunk = cli._CHUNK // width  # items per write
    return 0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1


SIGMAS = {"lorentz": 1.0, "orthogonal": -1.0, "galilei": 0.0, "carroll": math.inf,
          "aristotle": None}


@pytest.mark.parametrize("n", [2, 3, 10])
@pytest.mark.parametrize("case", sorted(SIGMAS))
def test_generate_prints_the_layout_at_every_chunk_edge(capsys, case, n):
    sigma = SIGMAS[case]
    flags = [] if sigma is None else ["--sigma", str(sigma)]
    for count in edge_counts((n + 1) ** 2):
        assert cli.main(["generate", "--case", case, "--n", str(n), "--count", str(count),
                         "--seed", str(count)] + flags) == 0
        drawn = random_element(cli._CASE_NAMES[case], sigma, n, 1.0, count, size=count)
        assert capsys.readouterr().out == layout(drawn.reshape(count, (n + 1) ** 2).tolist(),
                                                 f'{{"n": {n}, "matrices": ', "}"), count


@pytest.mark.parametrize("n", [2, 3, 10])
def test_decompose_prints_the_layout_at_every_chunk_edge(tmp_path, capsys, n):
    path = tmp_path / "members.json"
    for count in edge_counts(1 + 2 * (n + 1) ** 2):
        members = random_element(CaseLabel.LORENTZ, 1.0, n, 1.0, count, size=count)
        path.write_bytes(orjson.dumps({"n": n, "matrices": [a.ravel().tolist() for a in members]}))
        assert cli.main(["decompose", str(path), "--sigma", "1"]) == 0
        assert capsys.readouterr().out == layout([factor_entry(a, 1.0) for a in members]), count


def test_decompose_prints_refused_rows_on_the_chunk_edges(tmp_path, capsys):
    chunk = edge_counts(33)[3]  # n = 3: a line of lambda, k and Z holds 33 numbers
    members = random_element(CaseLabel.LORENTZ, 1.0, 3, 1.0, 8, size=2 * chunk + 2)
    edges = [0, chunk - 1, chunk, 2 * chunk - 1, 2 * chunk, 2 * chunk + 1]
    members[edges[::2]] = 0.0  # NonPositiveLambda
    members[edges[1::2]] *= 1.0 + 1e-3 * np.arange(16).reshape(4, 4)  # NotInNormalizer
    path = write_file(tmp_path, {"n": 3, "matrices": members.reshape(-1, 16).tolist()})
    assert cli.main(["decompose", path, "--sigma", "1"]) == 2
    entries = [factor_entry(a, 1.0) for a in members]
    assert [i for i, entry in enumerate(entries) if "error" in entry] == edges
    assert {entries[i]["error"] for i in edges[::2]} == {"NonPositiveLambda"}
    assert {entries[i]["error"] for i in edges[1::2]} == {"NotInNormalizer"}
    assert capsys.readouterr().out == layout(entries)


def test_each_write_holds_one_chunk_under_the_mmap_threshold(monkeypatch):
    # Galilei members with a boost bound of 1e300 print numbers of 22 or more characters.
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    count = 2000
    assert cli.main(["generate", "--case", "galilei", "--n", "3", "--count", str(count),
                     "--boost-bound", "1e300"]) == 0
    assert len(writes) == math.ceil(count / edge_counts(16)[3]) + 1  # the chunks, the tail
    assert 64 * 1024 < max(map(len, writes)) < 128 * 1024


def test_the_traced_peak_does_not_grow_with_the_text(tmp_path):
    # 20,000 members at n = 3: a 2.6 MB stack, 6.4 MB of text and 10.5 MB of factors.  The
    # bounds lie between the chunked peaks (13 and 21 MB) and those of whole text (44 and 69).
    members = tmp_path / "members.json"

    def peak(argv, out) -> float:
        with open(out, "w") as fh, contextlib.redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()

    assert peak(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                 "--count", "20000"], members) < 16.0
    assert peak(["decompose", str(members), "--sigma", "1"], tmp_path / "factors.json") < 28.0


def test_generate_overflowing_rapidity_is_an_error(capsys):
    code = cli.main(["generate", "--case", "lorentz", "--sigma", "1e8"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "rapidity" in err
    assert "Traceback" not in err


def test_verify_command_passes(capsys):
    code = cli.main(["verify", "--n", "2", "--trials", "3", "--seed", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert list(report["properties"]) == ["algebra", "group", "kinematics"]


def test_verify_report_of_a_raising_property_is_strict_json(capsys, monkeypatch):
    def boom(cfg, rng, check, n):
        raise RuntimeError("boom")

    patched = [(pid, text, boom if pid == "group" else fn)
               for pid, text, fn in verify._PROPERTIES]
    monkeypatch.setattr(verify, "_PROPERTIES", patched)
    code = cli.main(["verify", "--n", "2", "--sigma-list", "1", "--trials", "2"])
    report = orjson.loads(capsys.readouterr().out)  # refuses Infinity and NaN
    assert code == 2
    assert report["properties"]["group"]["worst_residual"] == "inf"
    assert "RuntimeError: boom" in report["properties"]["group"]["counterexample"]["error"]
    assert all(entry["pass"] for pid, entry in report["properties"].items() if pid != "group")


def test_verify_report_of_a_nan_counterexample_is_strict_json(capsys, monkeypatch):
    # A corrupted normalizer test that returns a NaN lam fails group's normalizer check, whose
    # counterexample rows then hold NaN: the report spells it "nan", as it spells a residual
    # of inf "inf".
    real = groups.in_normalizer

    def nan_lam(a, sigma, tol):
        ok, lam = real(a, sigma, tol)
        return ok, np.full_like(lam, math.nan)

    monkeypatch.setattr(groups, "in_normalizer", nan_lam)
    code = cli.main(["verify", "--n", "2", "--trials", "4", "--seed", "2"])
    report = orjson.loads(capsys.readouterr().out)  # refuses Infinity and NaN
    assert code == 2
    entry = report["properties"]["group"]
    assert not entry["pass"] and entry["worst_residual"] == "inf"
    assert entry["counterexample"]["check"] == "normalizer"
    assert entry["counterexample"]["lam"] == "nan"


def test_json_spells_every_non_finite_float_at_any_depth():
    assert verify._json_item(np.array([[1.0, -math.inf], [math.nan, math.inf]]), 0) == \
        [1.0, "-inf"]
    nested = np.array([[[math.nan, 2.0]], [[0.5, math.inf]]])
    assert verify._json_item(nested, 1) == [[0.5, "inf"]]
    assert [verify._json_item(x, 0) for x in (math.inf, -math.inf, math.nan, 3, "a")] == \
        ["inf", "-inf", "nan", 3, "a"]


def test_verify_sigma_list_keeps_the_properties(capsys):
    code = cli.main(["verify", "--n", "2", "--sigma-list", "1,0",
                     "--trials", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert list(report["properties"]) == ["algebra", "group", "kinematics"]


def test_verify_bad_arguments(capsys):
    assert cli.main(["verify", "--trials", "0"]) == 1
    assert cli.main(["verify", "--n", "x"]) == 1
    assert cli.main(["verify", "--sigma-list", "1,green"]) == 1
    capsys.readouterr()


def test_tol_flag_is_honored(capsys):
    code = cli.main(["verify", "--n", "2", "--sigma-list", "1",
                     "--trials", "2", "--tol", "1e-16"])
    capsys.readouterr()
    assert code == 2
    # at tol 10 no residual fails, but a failed flag does, at every tol
    assert cli.main(["verify", "--tol", "10"]) == 2
    capsys.readouterr()


def test_tol_flag_validation(tmp_path, capsys):
    # Each file alone gives exit 0, so exit 1 comes from the --tol value.
    generators = write_file(tmp_path, generator_payload(2, 1.0), "generators.json")
    members = write_file(tmp_path, {"n": 2, "matrices": [np.eye(3).ravel().tolist()]},
                         "members.json")
    commands = (["classify", generators], ["decompose", members, "--sigma", "1"],
                ["verify", "--n", "2", "--trials", "2"])
    for argv in commands:
        assert cli.main(argv) == 0
        for bad in ("abc", "nan", "inf", "0", "-1"):
            assert cli.main(argv + ["--tol", bad]) == 1
            assert "--tol" in capsys.readouterr().err
    capsys.readouterr()


def test_python_dash_m_kinematica_runs_without_warnings(tmp_path):
    proc = run_module(tmp_path, "generate", "--case", "galilei", "--count", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(json.loads(proc.stdout)["matrices"]) == 1


def test_python_dash_m_kinematica_decomposes_a_generated_file_without_warnings(tmp_path, capsys):
    # Both commands write many chunks to a real pipe: the bytes are those written in-process.
    count = 1000
    assert count > 2 * max(edge_counts(16)[3], edge_counts(33)[3]) + 1
    made = run_module(tmp_path, "generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                      "--count", str(count))
    assert (made.returncode, made.stderr) == (0, "")
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1", "--n", "3",
                     "--count", str(count)]) == 0
    assert capsys.readouterr().out == made.stdout
    (tmp_path / "members.json").write_text(made.stdout)
    proc = run_module(tmp_path, "decompose", "members.json", "--sigma", "1")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert cli.main(["decompose", str(tmp_path / "members.json"), "--sigma", "1"]) == 0
    assert capsys.readouterr().out == proc.stdout
    entries = json.loads(proc.stdout)
    assert len(entries) == count and all("error" not in entry for entry in entries)


def test_the_parser_built_once_carries_nothing_from_call_to_call(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    assert cli.main(["--help"]) == 0
    assert cli.main(["verify", "--trials", "many"]) == 1
    assert cli.main(["verify", "--n", "2", "--trials", "3"]) == 0
    capsys.readouterr()
    assert cli.main(["verify"]) == 0
    fresh = run_module(tmp_path, "verify")
    assert (fresh.returncode, fresh.stderr) == (0, "")
    assert capsys.readouterr().out == fresh.stdout


def test_generate_with_an_overflowing_rapidity_product_is_an_error_under_warnings(tmp_path):
    # |b| and sigma near 1e300: the rapidity |b| sqrt(sigma) itself overflows,
    # which must end in the documented error, not a RuntimeWarning traceback.
    proc = run_module(tmp_path, "generate", "--case", "lorentz", "--sigma", "1e300", "--n", "2",
                      "--count", "3", "--boost-bound", "1e300")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: boost rapidity") and "Traceback" not in proc.stderr


def test_classify_of_entries_near_the_float_max_runs_under_warnings(tmp_path):
    # 1e308 - (-1e308) would overflow in the coordinate pass; each set is read over a
    # power of two first.  Rotation content this large leaves the boost under the cut.
    path = write_file(tmp_path, {"n": 2, "matrices": [[[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]],
                                                      [[0, 0, 1], [0, 0, 0], [1, 0, 0]]]})
    proc = run_module(tmp_path, "classify", path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["outcome"] == "AristotleOnly"


def test_generate_boosts_whose_square_underflows(capsys):
    # |b| up to 1e-300 at sigma 1e300: |b|^2 underflows, the rapidity (up to 1e-150)
    # does not, and the last row sinh(w) sqrt(sigma) u, about |b| sigma, is no zero.
    assert cli.main(["generate", "--case", "lorentz", "--sigma", "1e300", "--boost-bound",
                     "1e-300", "--n", "2", "--count", "2", "--seed", "1"]) == 0
    members = np.array(json.loads(capsys.readouterr().out)["matrices"]).reshape(-1, 3, 3)
    for a in members:
        assert 0.0 < np.linalg.norm(a[2, :2]) < 1.0 and abs(a[2, 2]) == 1.0
        assert membership(a, CaseLabel.LORENTZ, 1e300)


@pytest.mark.parametrize("case, digest", [
    ("galilei", "940aaa1094b9ce6670dbc1ad1ca2d58d93983d0eb07f7fe6058ba62d54b902c6"),
    ("carroll", "f609c239fdc2b258764343733ea2b2efba0b9c1dc166129d6e7d0330414e7213"),
])
def test_generate_shear_members_keep_their_bytes(capsys, case, digest):
    # The shear boosts are I + p_generator(b, sigma); the printed members are pinned
    # byte for byte, the sign of each zero included, as the boosts written out entry by
    # entry printed them.
    assert cli.main(["generate", "--case", case, "--n", "3", "--count", "50", "--seed", "4"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    ([], "e35a2f4204cffcd80758992a56bb7bf27f07d83b90458a40df8eb1d7f8424de0"),
    (["--seed", "4", "--sigma-list", "1,1e12,0.5,1e-12,-1"],
     "8e1e6c5be391684f0dae2321f16b7460354827dcad3e83f9ecfafb92e4a7c8bd"),
])
def test_verify_reports_keep_their_bytes(capsys, args, digest):
    # The whole report is pinned: every verdict, residual, check count and description.
    # A change that moves a report on purpose updates its digest.
    assert cli.main(["verify"] + args) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, digest", [
    # several failing sigmas share one classification call
    (["--seed", "3", "--sigma-list", "1,1e16,5e-324,-1e300,inf"],
     "3dde042b1a80a04a907651a4eaf57d81c51d21b198e372d4a7993434316c21b6"),
    # at n = 10, the classification's memory budget gives each sigma its own call
    (["--n", "2,3,10", "--sigma-list", "1,-1e300,0,1e100"],
     "d763b5046a872838ceaf8c3adf7d8e6f91a16094efc7ba1156128ce85f3f26c3"),
])
def test_failing_verify_reports_keep_their_bytes(capsys, args, digest):
    # Reports that fail in algebra's classification check alone, pinned whole: its
    # counterexample payloads included.
    assert cli.main(["verify"] + args) == 2
    report = capsys.readouterr().out
    failing = {pid: entry["failed_checks"]
               for pid, entry in json.loads(report)["properties"].items() if not entry["pass"]}
    assert failing == {"algebra": ["classification"]}
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_generate_with_an_overflowing_boost_angle_is_an_error_under_warnings(tmp_path):
    # sigma < 0 and |b| near 1e300: the angle |b| sqrt(-sigma) overflows, and cos and
    # sin of it would print NaN matrices (as null) with exit 0.
    proc = run_module(tmp_path, "generate", "--case", "orthogonal", "--sigma=-1e300", "--n", "2",
                      "--count", "2", "--boost-bound", "1e300")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: boost rapidity") and "Traceback" not in proc.stderr
