"""Batch command-line interface.

Subcommands wrap the library one-to-one and print machine-readable tables
(JSON or TSV).  Output is deterministic: identical invocations produce
byte-identical bytes, and nothing reaches stdout unless the command
completes.  Exit codes: 0 success, 2 usage or parse error, 3 no
stabilization / no exact fit, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from typing import Sequence

from .free_modules import (
    DEFAULT_STABILIZATION_HORIZON,
    FreeModuleSpec,
    NoStabilization,
    decompose_at,
    dim_at,
    guarantee_shift,
    stabilized_padded_multiplicity,
)
from .characters import decompose, induce_trivial_product
from .partitions import compositions, new_partition, partitions_of
from .pieri import pieri_product
from .stability import (
    InsufficientPoints,
    NoExactFit,
    default_dims_window,
    default_multiplicity_window,
    fit_exponential_polynomial,
    fit_polynomial,
    multiplicity_series,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_FIT = 3
EXIT_INTERNAL = 4

#: Largest degree the character oracle sweep is allowed to reach.
ORACLE_LIMIT = 8
#: Largest series or window degree `fit` accepts: elimination on entries of
#: ~degree * log2(d) bits is worse than quadratic (d = 3, 2-CPU host: degree
#: 10^4 fits in under 0.1 s per process, 10^6 took 50 s).
MAX_FIT_DEGREE = 10_000


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"partition literal must look like [3,1] or [], got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return new_partition(int(tok) for tok in body.split(","))


def _format_partition(lam: Sequence[int]) -> str:
    return "[" + ",".join(str(p) for p in lam) + "]"


def _parse_generator(text: str, d: int) -> FreeModuleSpec:
    text = text.strip()
    match = re.fullmatch(r"M\((\d+)\)", text)
    if match:
        return FreeModuleSpec.regular(d, int(match.group(1)))
    return FreeModuleSpec.of_irreducible(d, _parse_partition(text))


def _parse_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text.strip())
    if not match:
        raise ValueError(f"range must look like 0..6 (degrees >= 0), got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_pads(text: str) -> tuple[int, ...]:
    pads = tuple(int(tok) for tok in text.strip().split(","))
    if any(p < 0 for p in pads):
        raise ValueError(f"pads are row lengths and must be >= 0, got {text!r}")
    return pads


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _read_stdin_series() -> dict[int, int]:
    try:
        payload = json.load(sys.stdin)
    except RecursionError:
        raise ValueError("stdin JSON is nested too deeply") from None
    series = payload.get("series") if isinstance(payload, dict) else None
    if not isinstance(series, dict) or not all(
        isinstance(v, (int, str)) and not isinstance(v, bool) for v in series.values()
    ):
        raise ValueError('stdin must hold {"series": {"<n>": "<integer>", ...}}')
    values = {int(n): int(v) for n, v in series.items()}
    if any(n < 0 for n in values):
        raise ValueError(f"series degrees must be >= 0, got {min(values)}")
    return values


def non_negative_int(text: str) -> int:
    """argparse type for counts that must be >= 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"expected an integer >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (the color count --d)."""
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {value}")
    return value


def cmd_dim(args: argparse.Namespace) -> int:
    spec = _parse_generator(args.gen, args.d)
    rng = _parse_range(args.range)
    rows = [(n, dim_at(spec, n)) for n in rng]
    if args.format == "json":
        _emit_json(
            {
                "command": "dim",
                "d": args.d,
                "generator": args.gen,
                "rows": [{"n": n, "dim": str(v)} for n, v in rows],
            }
        )
    else:
        sys.stdout.write("n\tdim\n")
        for n, v in rows:
            sys.stdout.write(f"{n}\t{v}\n")
    return EXIT_OK


def cmd_decompose(args: argparse.Namespace) -> int:
    spec = _parse_generator(args.gen, args.d)
    dec = decompose_at(spec, args.n)
    if args.format == "tsv":
        sys.stdout.write("partition\tmultiplicity\n")
        for lam, mult in dec.items():
            sys.stdout.write(f"{_format_partition(lam)}\t{mult}\n")
    else:
        _emit_json(dec.to_json_dict())
    return EXIT_OK


def cmd_stabilize(args: argparse.Namespace) -> int:
    spec = _parse_generator(args.gen, args.d)
    lam = _parse_partition(args.lam)
    pads = _parse_pads(args.pads)
    value, onset = stabilized_padded_multiplicity(spec, lam, pads, horizon=args.horizon)
    payload = {
        "command": "stabilize",
        "d": args.d,
        "generator": args.gen,
        "lambda": list(lam),
        "base_pads": list(pads),
        "value": str(value),
        "onset": onset,
        "guarantee_shift": guarantee_shift(spec, pads),
    }
    if args.format == "tsv":
        for key in ("value", "onset", "guarantee_shift"):
            sys.stdout.write(f"{key}\t{payload[key]}\n")
    else:
        _emit_json(payload)
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    d = args.d
    spec = None if args.stdin else _parse_generator(args.gen, d)
    series = _read_stdin_series() if args.stdin else None
    window = list(_parse_range(args.window)) if args.window is not None else None
    for degrees in (series, window):
        if degrees and max(degrees) > MAX_FIT_DEGREE:
            raise ValueError(f"fit degrees must be <= {MAX_FIT_DEGREE}, got {max(degrees)}")
    if args.mode == "dims":
        degree_bound = args.degree_bound
        if degree_bound is None:
            if spec is None:
                raise ValueError("--degree-bound is required with --stdin")
            degree_bound = spec.m
        if series is None:
            window = window or default_dims_window(spec, degree_bound)
            series = {n: dim_at(spec, n) for n in window}
        window = window or sorted(series)
        fit = fit_exponential_polynomial(series, d, degree_bound, window)
        rows = [(f"p{i}", p) for i, p in enumerate(fit.polynomials, start=1)]
        payload = {
            "bases": fit.bases,
            "polynomials": [p.coefficient_strings() for p in fit.polynomials],
        }
    else:
        lam = _parse_partition(args.lam)
        degree_bound = args.degree_bound if args.degree_bound is not None else d - 1
        if series is None:
            window = window or default_multiplicity_window(spec, lam, degree_bound)
            series = multiplicity_series(spec, lam, window)
        window = window or sorted(series)
        fit = fit_polynomial(series, degree_bound, window)
        rows = [("degree", fit.degree), ("polynomial", fit)]
        payload = {
            "degree": fit.degree,
            "coefficients": fit.coefficient_strings(),
            "lambda": list(lam),
        }
    if args.format == "tsv":
        for key, value in rows + [("validated_range", f"{min(window)}..{max(window)}")]:
            sys.stdout.write(f"{key}\t{value}\n")
    else:
        _emit_json({**payload, "validated_range": [min(window), max(window)], "exact": True})
    return EXIT_OK


def oracle_scan(max_total: int, max_length: int = 3):
    """Compare every chain-count product against the character oracle for
    |mu| + sum(a) <= max_total and composition length <= max_length.

    Returns (cases, first_discrepancy_or_None)."""
    cases = 0
    for msize in range(max_total + 1):
        for mu in partitions_of(msize):
            for total in range(max_total - msize + 1):
                for length in range(1, max_length + 1):
                    for a in compositions(total, length):
                        combinatorial = pieri_product(mu, a)
                        character = decompose(induce_trivial_product(mu, a))
                        cases += 1
                        if combinatorial != character:
                            return cases, {
                                "mu": list(mu),
                                "a": list(a),
                                "chain_counts": combinatorial.to_json_dict(),
                                "character_oracle": character.to_json_dict(),
                            }
    return cases, None


def cmd_oracle_check(args: argparse.Namespace) -> int:
    if args.max > ORACLE_LIMIT:
        raise ValueError(f"--max {args.max} exceeds the oracle limit {ORACLE_LIMIT}")
    cases, witness = oracle_scan(args.max)
    if args.format == "json":
        _emit_json(
            {
                "command": "oracle-check",
                "max": args.max,
                "cases": cases,
                "pass": witness is None,
                "counterexample": witness,
            }
        )
    else:
        if witness is None:
            sys.stdout.write(f"PASS: {cases} products agree with the character oracle\n")
        else:
            sys.stdout.write(
                f"FAIL at case {cases}: mu={witness['mu']} a={witness['a']}\n"
                f"  chains:    {json.dumps(witness['chain_counts'], sort_keys=True)}\n"
                f"  character: {json.dumps(witness['character_oracle'], sort_keys=True)}\n"
            )
    return EXIT_OK if witness is None else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidmod",
        description="Exact decompositions and Hilbert functions of free "
        "modules over d-colored injection categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, gen_required: bool = True) -> None:
        p.add_argument("--d", type=positive_int, required=True, help="number of colors (>= 1)")
        p.add_argument(
            "--gen",
            required=gen_required,
            help='generator: "M(k)" for the regular generator or a partition literal "[a,b,...]"',
        )
        p.add_argument("--format", choices=("json", "tsv"), default=None)

    p_dim = sub.add_parser("dim", help="level dimensions over a degree range")
    add_common(p_dim)
    p_dim.add_argument("--range", required=True, help="inclusive degree range, e.g. 0..6")
    p_dim.set_defaults(func=cmd_dim, default_format="tsv")

    p_dec = sub.add_parser("decompose", help="irreducible decomposition of one level")
    add_common(p_dec)
    p_dec.add_argument("--n", type=non_negative_int, required=True, help="level to decompose")
    p_dec.set_defaults(func=cmd_decompose, default_format="json")

    p_stab = sub.add_parser("stabilize", help="stable padded multiplicity and onset")
    add_common(p_stab)
    p_stab.add_argument("--lambda", dest="lam", required=True, help='core partition, e.g. "[]"')
    p_stab.add_argument("--pads", required=True, help="comma-separated base pads, e.g. 2,2")
    p_stab.add_argument(
        "--horizon",
        type=non_negative_int,
        default=DEFAULT_STABILIZATION_HORIZON,
        help=f"search horizon (default: {DEFAULT_STABILIZATION_HORIZON})",
    )
    p_stab.set_defaults(func=cmd_stabilize, default_format="json")

    p_fit = sub.add_parser("fit", help="exact series fitting")
    add_common(p_fit, gen_required=False)
    p_fit.add_argument("--mode", choices=("dims", "mult"), required=True)
    p_fit.add_argument("--lambda", dest="lam", default="[]", help="core partition for mult mode")
    p_fit.add_argument("--degree-bound", type=non_negative_int, default=None)
    p_fit.add_argument("--window", default=None, help="inclusive fit window, e.g. 4..12")
    p_fit.add_argument(
        "--stdin",
        action="store_true",
        help='read the series from stdin as {"series": {"0": "1", ...}}',
    )
    p_fit.set_defaults(func=cmd_fit, default_format="json")

    p_oracle = sub.add_parser(
        "oracle-check", help="sweep chain counts against the character oracle"
    )
    p_oracle.add_argument("--max", type=non_negative_int, default=6, help="size bound (<= 8)")
    p_oracle.add_argument("--format", choices=("json", "tsv"), default=None)
    p_oracle.set_defaults(func=cmd_oracle_check, default_format="tsv")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "format", None) is None:
        args.format = args.default_format
    if getattr(args, "command", None) == "fit" and not args.stdin and not args.gen:
        sys.stderr.write("error: fit needs --gen or --stdin\n")
        return EXIT_USAGE
    # Held back until the command returns, so an error exit writes no stdout.
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except (NoStabilization, NoExactFit) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_FIT
    except (ValueError, InsufficientPoints, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # invariant breach: anything unexpected
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
