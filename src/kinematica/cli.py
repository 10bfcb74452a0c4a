"""Command line front end.

Subcommands: ``classify`` a file of generators, ``decompose`` group
elements into Cartan factors, ``generate`` sample members, and ``verify``
to run the property suite.  All input and output is JSON; matrices travel
as flat row-major lists.  Exit codes: 0 for success, 1 for usage or I/O
problems, 2 for a negative domain answer (not kinematical, not in the
normalizer, property failure).  ``--tol`` must be a positive finite
number and defaults to 1e-9.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import classify as classify_mod
from . import groups, verify
from .classify import CaseLabel, Sigma

__all__ = ["MatrixFile", "dump_matrix_file", "load_matrix_file", "main"]

_CASE_NAMES = {label.value.lower(): label for label in CaseLabel}


def _parse_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _parse_sigma(text: str) -> Sigma:
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
    """Parsed contents of the JSON matrix format: the space dimension n and
    an (m, n+1, n+1) stack (or a list) of (n+1) x (n+1) matrices."""

    n: int
    matrices: np.ndarray | list = field(default_factory=list)


def _read_matrix(entry, d: int, where: str) -> np.ndarray:
    try:
        arr = np.asarray(entry, dtype=float)
    except OverflowError:
        raise ValueError(f"{where} has entries too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"{where} must be a list of numbers") from None
    if arr.shape not in ((d * d,), (d, d)):
        raise ValueError(
            f"{where} must hold {d * d} row-major entries, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{where} has non-finite entries")
    return arr.reshape(d, d)


def _read_matrices(raw: list, d: int) -> np.ndarray:
    """The matrices of the file as an (m, d, d) stack, converted in one go.
    When that does not give finite d x d matrices, each entry is read on its
    own, so that the error names the entry at fault."""
    try:
        stack = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        stack = None
    if (stack is None or stack.shape[1:] not in ((d * d,), (d, d))
            or not np.isfinite(stack).all()):
        stack = np.array([_read_matrix(entry, d, f"matrices[{i}]")
                          for i, entry in enumerate(raw)])
    return stack.reshape(-1, d, d)


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
    raw = data.get("matrices", [])
    if not isinstance(raw, list):
        raise ValueError('"matrices" must be a list')
    return MatrixFile(n=n, matrices=_read_matrices(raw, n + 1))


def dump_matrix_file(mf: MatrixFile) -> dict:
    """JSON-ready dictionary in the same schema load_matrix_file reads."""
    return {"n": mf.n, "matrices": np.asarray(mf.matrices, dtype=float)
            .reshape(-1, (mf.n + 1) ** 2).tolist()}


def _json_lines(value) -> str:
    """JSON text with each item of a list on a line of its own, for a list
    at the top level or in a top-level object.  orjson encodes each line and
    spells each float as the shortest text that reads back to the same
    double.  It would write NaN or an infinity as null; the generated members
    and the accepted Cartan factors this prints are finite."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_lines(key)}: {_json_lines(item)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list) and value:
        return "[\n" + b",\n".join(map(orjson.dumps, value)).decode() + "\n]"
    return orjson.dumps(value).decode()


def _cmd_classify(args) -> int:
    mf = load_matrix_file(args.file)
    result = classify_mod.classify_algebra(mf.matrices, args.tol)
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
    sigma = _parse_sigma(args.sigma)
    if not (sigma.is_finite and sigma.value > 0):
        raise ValueError("decompose needs a finite sigma > 0")
    mf = load_matrix_file(args.file)
    f = groups.cartan_decompose(mf.matrices, sigma, args.tol)  # one call on the stack
    entries = [{"error": refused.__name__} if refused else {"lambda": lam, "k": k, "Z": Z}
               for refused, lam, k, Z in zip(f.refused.tolist(), f.lam.tolist(),
                                             f.k.reshape(-1, f.k.shape[-1] ** 2).tolist(),
                                             f.Z.reshape(-1, f.Z.shape[-1] ** 2).tolist())]
    print(_json_lines(entries))
    return 2 if any("error" in entry for entry in entries) else 0


def _cmd_generate(args) -> int:
    case = _CASE_NAMES[args.case]
    sigma = _parse_sigma(args.sigma) if args.sigma is not None else None
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    matrices = groups.random_element(case, sigma, args.n, args.boost_bound, args.seed,
                                     size=args.count)
    print(_json_lines(dump_matrix_file(MatrixFile(args.n, matrices))))
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"cannot read {what} list {text!r}") from None


def _cmd_verify(args) -> int:
    sigma_values = [_parse_sigma(piece) for piece in args.sigma_list.split(",")
                    if piece.strip()]
    cfg = verify.SuiteConfig(n_values=_parse_int_list(args.n, "--n"), sigma_values=sigma_values,
                             trials=args.trials, tol=args.tol, seed=args.seed)
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
    p.add_argument("--tol", type=_parse_tol, default=classify_mod.DEFAULT_TOL)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("decompose",
                       help="Cartan-decompose group elements (sigma > 0)")
    p.add_argument("file", help="JSON matrix file")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tol", type=_parse_tol, default=classify_mod.DEFAULT_TOL)
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
    p.add_argument("--n", default=",".join(map(str, verify.SuiteConfig.n_values)),
                   help="comma list of dimensions")
    p.add_argument("--sigma-list", default=",".join(map(str, verify.SuiteConfig.sigma_values)),
                   help="comma list of sigma values; 'inf' allowed")
    p.add_argument("--trials", type=int, default=verify.SuiteConfig.trials)
    p.add_argument("--tol", type=_parse_tol, default=verify.SuiteConfig.tol)
    p.add_argument("--seed", type=int, default=verify.SuiteConfig.seed)
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
