"""Command line front end.

Subcommands: ``classify`` a file of generators, ``decompose`` group
elements into Cartan factors, ``generate`` sample members, and ``verify``
to run the property suite.  All input and output is JSON; matrices travel
as flat row-major lists.  orjson reads each file, and Python's json what it
refuses; generate and decompose write in chunks, never holding all the text.
Exit codes: 0 for success, 1 for usage or I/O problems, 2 for a negative
domain answer (not kinematical, not in the normalizer, property failure).
``--tol`` must be a positive finite number and defaults to 1e-9.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np
import orjson

from . import classify as classify_mod
from . import groups, verify
from .classify import CaseLabel, case_of_sigma

__all__ = ["dump_matrix_file", "load_matrix_file", "main"]

_CASE_NAMES = {label.value.lower(): label for label in CaseLabel}
# Numbers per write: at most 24 characters each, so every str, bytes and float list of a chunk
# stays under glibc's 128 KiB mmap threshold, and no write maps and unmaps fresh pages.
_CHUNK = 2 ** 12


def _parse_tol(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a positive finite number: {text!r}")
    return value


def _parse_sigma(text: str) -> float:
    try:
        case_of_sigma(sigma := float(text))
    except ValueError:
        raise ValueError(f"cannot read sigma value {text!r}") from None
    return sigma


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


def load_matrix_file(path: str) -> np.ndarray:
    """Read and validate a matrix file: its matrices as a float (m, n+1, n+1) stack, of the n of
    the file even for m = 0.  Raises ValueError on any schema problem and OSError if the file
    cannot be read."""
    with open(path, "rb") as fh:
        content = fh.read()
    try:
        data = orjson.loads(content)
    except orjson.JSONDecodeError:  # NaN, Infinity, a number past the float range, bad text
        try:  # strict UTF-8, as orjson: no byte order mark, no UTF-16
            data = json.loads(content.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError("top level must be a JSON object")
    n = data.get("n")
    # numpy cannot size one matrix of floats past this; orjson reads n >= 2^64 as a float
    if isinstance(n, (int, float)) and n >= math.isqrt(sys.maxsize // 8):
        raise ValueError('"n" is too large')
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError('"n" must be a positive integer')
    raw = data.get("matrices", [])
    if not isinstance(raw, list):
        raise ValueError('"matrices" must be a list')
    return _read_matrices(raw, n + 1)


def _write_list(count: int, width: int, items, head: str = "", tail: str = "") -> None:
    """Write head, the JSON list of count items one per line, tail and a newline to stdout, one
    write per chunk; items(i, j) gives items i to j - 1, of width numbers, finite (NaN: null)."""
    write, step, sep = sys.stdout.write, max(1, _CHUNK // width), head + "[\n"
    for i in range(0, count, step):
        write(sep + b",\n".join(map(orjson.dumps, items(i, i + step))).decode())
        sep = ",\n"
    write(("\n]" if count else head + "[]") + tail + "\n")


def dump_matrix_file(matrices: np.ndarray) -> None:
    """Write the (m, n+1, n+1) stack to stdout in the schema load_matrix_file reads, one matrix
    per line."""
    flat = matrices.reshape(-1, matrices.shape[-1] ** 2)
    _write_list(len(flat), flat.shape[1], lambda i, j: flat[i:j].tolist(),
                f'{{"n": {matrices.shape[-1] - 1}, "matrices": ', "}")


def _cmd_classify(args) -> int:
    result = classify_mod.classify_algebra(load_matrix_file(args.file), args.tol)
    out = {
        "outcome": result.outcome,
        "case": None,
        "sigma": None if result.sigma is None else verify._json_number(result.sigma.value),
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
    f = groups.cartan_decompose(load_matrix_file(args.file), sigma, args.tol)  # one call
    ks, Zs = (x.reshape(-1, x.shape[-1] ** 2) for x in (f.k, f.Z))  # one row per matrix
    _write_list(len(ks), 1 + 2 * ks.shape[1], lambda i, j: [
        {"error": refused.__name__} if refused else {"lambda": lam, "k": k, "Z": Z}
        for refused, lam, k, Z in zip(*(x[i:j].tolist() for x in (f.refused, f.lam, ks, Zs)))])
    return 2 if np.not_equal(f.refused, None).any() else 0


def _cmd_generate(args) -> int:
    case = _CASE_NAMES[args.case]
    sigma = _parse_sigma(args.sigma) if args.sigma is not None else None
    if args.count < 0:
        raise ValueError("--count must be nonnegative")
    matrices = groups.random_element(case, sigma, args.n, args.boost_bound, args.seed,
                                     size=args.count)
    dump_matrix_file(matrices)
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


def _glue_values(argv) -> list:
    """argv with --sigma and --sigma-list joined to the next token, as --sigma=token: argparse
    reads that as the value, where -1e-8 or -1,0.5 on its own would read as an option."""
    out, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in ("--sigma", "--sigma-list") else None
        out.append(token if value is None else f"{token}={value}")
    return out


@functools.cache  # built once a process: parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinematica", allow_abbrev=False,
        description="Classify, decompose, generate and verify kinematical "
                    "group data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a file of generators", allow_abbrev=False)
    p.add_argument("file", help="JSON matrix file")
    p.add_argument("--tol", type=_parse_tol, default=classify_mod.DEFAULT_TOL)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("decompose", help="Cartan-decompose group elements (sigma > 0)",
                       allow_abbrev=False)
    p.add_argument("file", help="JSON matrix file")
    p.add_argument("--sigma", required=True)
    p.add_argument("--tol", type=_parse_tol, default=classify_mod.DEFAULT_TOL)
    p.set_defaults(run=_cmd_decompose)

    p = sub.add_parser("generate", help="emit random group members", allow_abbrev=False)
    p.add_argument("--case", required=True, choices=sorted(_CASE_NAMES))
    p.add_argument("--sigma", default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boost-bound", type=float, default=1.0,
                   help="largest |b|, or largest rapidity sqrt(sigma) |b| for sigma > 1")
    p.set_defaults(run=_cmd_generate)

    p = sub.add_parser("verify", help="run the property suite", allow_abbrev=False)
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
        args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
