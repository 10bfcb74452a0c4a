"""Command line front end.

Subcommands: ``classify`` a file of generators, ``decompose`` group
elements into Cartan factors, ``generate`` sample members, and ``verify``
to run the property suite.  All input and output is JSON; matrices travel
as flat row-major lists.  Exit codes: 0 for success, 1 for usage or I/O
problems, 2 for a negative domain answer (not kinematical, not in the
normalizer, property failure).

The environment variable KINEMATICA_TOL overrides the default tolerance
of 1e-9 wherever --tol is not given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import classify as classify_mod
from . import groups, verify
from .affine import AffineElement
from .classify import CaseLabel, SIGMA_INF, Sigma

__all__ = ["MatrixFile", "dump_matrix_file", "load_matrix_file", "main"]

_CASE_NAMES = {label.value.lower(): label for label in CaseLabel}


def _default_tol() -> float:
    text = os.environ.get("KINEMATICA_TOL")
    if text is None:
        return classify_mod.DEFAULT_TOL
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"KINEMATICA_TOL is not a number: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"KINEMATICA_TOL must be a positive number: {text!r}")
    return value


def _parse_sigma(text: str) -> Sigma:
    if text.strip().lower() == "inf":
        return SIGMA_INF
    try:
        return Sigma(float(text))
    except ValueError:
        raise ValueError(f"cannot read sigma value {text!r}") from None


def _sigma_json(sigma: Sigma | None):
    if sigma is None:
        return None
    return "inf" if sigma.is_infinite else sigma.value


@dataclass
class MatrixFile:
    """Parsed contents of the JSON matrix format: the space dimension n,
    a list (or an (m, n+1, n+1) stack) of (n+1) x (n+1) matrices, and
    optional affine elements."""

    n: int
    matrices: list = field(default_factory=list)
    affine: list = field(default_factory=list)


def _read_numbers(entry, where: str) -> np.ndarray:
    try:
        return np.asarray(entry, dtype=float)
    except OverflowError:
        raise ValueError(f"{where} has entries too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"{where} must be a list of numbers") from None


def _read_matrix(entry, d: int, where: str) -> np.ndarray:
    arr = _read_numbers(entry, where)
    if arr.shape == (d * d,):
        arr = arr.reshape(d, d)
    elif arr.shape != (d, d):
        raise ValueError(
            f"{where} must hold {d * d} row-major entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} has non-finite entries")
    return arr


def _read_matrices(raw: list, d: int) -> list:
    """The matrices of the file, converted in one go.  When that does not
    give finite d x d matrices, each entry is read on its own, so that the
    error names the entry at fault."""
    try:
        stack = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if (stack is not None and stack.shape[1:] in ((d * d,), (d, d))
            and np.isfinite(stack).all()):
        return list(stack.reshape(-1, d, d))
    return [_read_matrix(entry, d, f"matrices[{i}]") for i, entry in enumerate(raw)]


def load_matrix_file(path: str) -> MatrixFile:
    """Read and validate a matrix file.  Raises ValueError on any schema
    problem and OSError if the file cannot be read."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("top level must be a JSON object")
    n = data.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError('"n" must be a positive integer')
    d = n + 1
    raw = data.get("matrices", [])
    if not isinstance(raw, list):
        raise ValueError('"matrices" must be a list')
    matrices = _read_matrices(raw, d)
    affine_elements = []
    raw_affine = data.get("affine", [])
    if not isinstance(raw_affine, list):
        raise ValueError('"affine" must be a list')
    for i, entry in enumerate(raw_affine):
        if not isinstance(entry, dict):
            raise ValueError(f"affine[{i}] must be an object")
        linear = _read_matrix(entry.get("linear"), d, f"affine[{i}].linear")
        translation = _read_numbers(entry.get("translation"), f"affine[{i}].translation")
        if translation.shape != (d,):
            raise ValueError(f"affine[{i}].translation must have length {d}")
        if not np.isfinite(translation).all():
            raise ValueError(f"affine[{i}].translation has non-finite entries")
        affine_elements.append(AffineElement(linear, translation))
    return MatrixFile(n=n, matrices=matrices, affine=affine_elements)


def dump_matrix_file(mf: MatrixFile) -> dict:
    """JSON-ready dictionary in the same schema load_matrix_file reads."""
    out = {"n": mf.n, "matrices": np.asarray(mf.matrices, dtype=float)
           .reshape(-1, (mf.n + 1) ** 2).tolist()}
    if mf.affine:
        out["affine"] = [
            {"linear": g.linear.ravel().tolist(),
             "translation": g.translation.tolist()}
            for g in mf.affine
        ]
    return out


def _json_lines(value) -> str:
    """JSON text with each item of a list on a line of its own, for a list
    at the top level or in a top-level object.  Each line is encoded
    without indentation, which json does in C."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_json_lines(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list) and value:
        return "[\n" + ",\n".join(map(json.dumps, value)) + "\n]"
    return json.dumps(value)


def _cmd_classify(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    mf = load_matrix_file(args.file)
    result = classify_mod.classify_algebra(mf.matrices, tol)
    out = {
        "outcome": result.outcome,
        "case": None,
        "sigma": _sigma_json(result.sigma),
        "diagnostics": result.diagnostics,
    }
    if result.outcome == classify_mod.OUTCOME_NOT_KINEMATICAL:
        out["reason"] = result.reason
    else:
        out["case"] = classify_mod.case_label(result).value
    print(json.dumps(out, indent=2))
    return 0 if result.outcome != classify_mod.OUTCOME_NOT_KINEMATICAL else 2


def _cmd_decompose(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    sigma = _parse_sigma(args.sigma)
    if not (sigma.is_finite and sigma.value > 0):
        raise ValueError("decompose needs a finite sigma > 0")
    mf = load_matrix_file(args.file)
    entries = []
    for matrix in mf.matrices:
        try:
            factors = groups.cartan_decompose(matrix, sigma, tol)
        except (groups.NotInNormalizer, groups.NonPositiveLambda) as exc:
            entries.append({"error": type(exc).__name__})
        else:
            entries.append({
                "lambda": factors.lam,
                "k": factors.k.ravel().tolist(),
                "Z": factors.Z.ravel().tolist(),
            })
    print(_json_lines(entries))
    return 2 if any("error" in entry for entry in entries) else 0


def _cmd_generate(args) -> int:
    case = _CASE_NAMES[args.case]
    sigma = _parse_sigma(args.sigma) if args.sigma is not None else None
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    matrices = groups.random_element(case, sigma, args.n, args.boost_bound,
                                     range(args.seed, args.seed + args.count))
    print(_json_lines(dump_matrix_file(MatrixFile(args.n, matrices))))
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"cannot read {what} list {text!r}") from None


def _cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    n_values = _parse_int_list(args.n, "--n")
    sigma_values = [_parse_sigma(piece) for piece in args.sigma_list.split(",")
                    if piece.strip()]
    cfg = verify.SuiteConfig(n_values=tuple(n_values),
                             sigma_values=tuple(sigma_values),
                             trials=args.trials, tol=tol, seed=args.seed)
    report = verify.run_suite(cfg)
    print(report.to_json())
    return 0 if report.passed else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinematica",
        description="Classify, decompose, generate and verify kinematical "
                    "group data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a file of generators")
    p.add_argument("file", help="JSON matrix file")
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("decompose",
                       help="Cartan-decompose group elements (sigma > 0)")
    p.add_argument("file", help="JSON matrix file")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("generate", help="emit random group members")
    p.add_argument("--case", required=True, choices=sorted(_CASE_NAMES))
    p.add_argument("--sigma", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boost-bound", type=float, default=1.0)
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("verify", help="run the property suite")
    p.add_argument("--n", default="2,3", help="comma list of dimensions")
    p.add_argument("--sigma-list", default="1,0.5,-1,0,inf",
                   help="comma list of sigma values; 'inf' allowed")
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
