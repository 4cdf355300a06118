"""Batch command-line interface.

Subcommands wrap the library one-to-one and print machine-readable tables
(JSON or TSV), byte-identical on identical invocations.  Each command returns
its exit code and its answer as text, and `main` alone writes that text, so
nothing reaches stdout when a command raises.  Exit codes: 0 success, 2 usage
or parse error (including a fit past MAX_FIT_DEGREE or MAX_FIT_WORK), 3 no
stabilization / no exact fit, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
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
from .pieri import Decomposition, pieri_product
from .stability import (
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
#: Largest series or window degree `fit` accepts, and the largest elimination
#: work it starts, estimated as size^5 * bits^2 for size unknowns on entries of
#: up to `bits` bits (~size^3 Bareiss steps on size * bits-bit entries, quadratic
#: division).  2-CPU host: d = 4, degree bound 2 at degree 10^4 is 1e14, 0.7 s.
MAX_FIT_DEGREE = 10_000
MAX_FIT_WORK = 10**14


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"partition literal must look like [3,1] or [], got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return new_partition(int(tok) for tok in body.split(","))


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


def _render(args: argparse.Namespace, payload: dict, rows: Sequence[Sequence]) -> str:
    """`payload` as one JSON line, or `rows` as tab-separated lines."""
    if args.format == "json":
        return json.dumps(payload, sort_keys=True) + "\n"
    return "".join("\t".join(map(str, row)) + "\n" for row in rows)


def _read_stdin_series() -> dict[int, int]:
    try:
        payload = json.load(sys.stdin, object_pairs_hook=tuple)  # keeps repeated keys
    except RecursionError:
        raise ValueError("stdin JSON is nested too deeply") from None
    series = dict(payload).get("series") if isinstance(payload, tuple) else None
    if not isinstance(series, tuple) or not all(
        isinstance(v, (int, str)) and not isinstance(v, bool) for _, v in series
    ):
        raise ValueError('stdin must hold {"series": {"<n>": "<integer>", ...}}')
    values = {int(n): int(v) for n, v in series}
    if len(values) < len(series):
        raise ValueError("series keys must name distinct degrees")
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


def cmd_dim(args: argparse.Namespace) -> tuple[int, str]:
    spec = _parse_generator(args.gen, args.d)
    rows = [("n", "dim")] + [(n, str(dim_at(spec, n))) for n in _parse_range(args.range)]
    payload = {
        "command": "dim",
        "d": args.d,
        "generator": args.gen,
        "rows": [{"n": n, "dim": v} for n, v in rows[1:]],
    }
    return EXIT_OK, _render(args, payload, rows)


def cmd_decompose(args: argparse.Namespace) -> tuple[int, str]:
    payload = decompose_at(_parse_generator(args.gen, args.d), args.n).to_json_dict()
    rows = [("partition", "multiplicity")] + [
        ("[" + ",".join(map(str, t["partition"])) + "]", t["multiplicity"])
        for t in payload["terms"]
    ]
    return EXIT_OK, _render(args, payload, rows)


def cmd_stabilize(args: argparse.Namespace) -> tuple[int, str]:
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
    rows = [(key, payload[key]) for key in ("value", "onset", "guarantee_shift")]
    return EXIT_OK, _render(args, payload, rows)


def _check_fit_work(top: int, bases: int, block: int) -> None:
    """Refuse a fit of bases * block unknowns up to degree `top` past MAX_FIT_WORK."""
    bits = (block - 1) * top.bit_length() + top * (bases - 1).bit_length()
    if (bases * block) ** 5 * bits**2 > MAX_FIT_WORK:
        raise ValueError(f"fit of {bases * block} unknowns on {bits}-bit entries is too large")


def cmd_fit(args: argparse.Namespace) -> tuple[int, str]:
    spec = None if args.stdin else _parse_generator(args.gen, args.d)
    series = _read_stdin_series() if args.stdin else None
    window = list(_parse_range(args.window)) if args.window is not None else None
    for degrees in (series, window):
        if degrees and max(degrees) > MAX_FIT_DEGREE:
            raise ValueError(f"fit degrees must be <= {MAX_FIT_DEGREE}, got {max(degrees)}")
    if args.mode == "dims":
        if args.lam is not None:
            raise ValueError("--lambda applies to --mode mult only")
        if args.degree_bound is None and spec is None:
            raise ValueError("--degree-bound is required with --stdin")
        degree_bound = spec.m if args.degree_bound is None else args.degree_bound
        if series is None:
            window = window or default_dims_window(spec, degree_bound)
            series = {n: dim_at(spec, n) for n in window}
        window = window or sorted(series)
        _check_fit_work(max(window, default=0), args.d, degree_bound + 1)
        fit = fit_exponential_polynomial(series, args.d, degree_bound, window)
        rows = [(f"p{i}", p) for i, p in enumerate(fit.polynomials, start=1)]
        payload = {
            "bases": fit.bases,
            "polynomials": [p.coefficient_strings() for p in fit.polynomials],
        }
    else:
        lam = () if args.lam is None else _parse_partition(args.lam)
        degree_bound = args.degree_bound if args.degree_bound is not None else args.d - 1
        if series is None:
            window = window or default_multiplicity_window(spec, lam, degree_bound)
            series = multiplicity_series(spec, lam, window)
        window = window or sorted(series)
        _check_fit_work(max(window, default=0), 1, degree_bound + 1)
        fit = fit_polynomial(series, degree_bound, window)
        rows = [("degree", fit.degree), ("polynomial", fit)]
        payload = {
            "degree": fit.degree,
            "coefficients": fit.coefficient_strings(),
            "lambda": list(lam),
        }
    rows.append(("validated_range", f"{min(window)}..{max(window)}"))
    payload.update({"validated_range": [min(window), max(window)], "exact": True})
    return EXIT_OK, _render(args, payload, rows)


def oracle_scan(max_total: int, max_length: int = 3):
    """Compare every chain-count product against the character oracle for
    |mu| + sum(a) <= max_total and composition length <= max_length.

    The induced character depends only on mu and the multiset of non-zero
    parts of a, so it is built and decomposed once per such pair, from the
    first composition that has it; every ordered composition still gets its
    own `pieri_product`, compared against that shared decomposition.

    Returns (cases, first_discrepancy_or_None)."""
    cases = 0
    for msize in range(max_total + 1):
        for mu in partitions_of(msize):
            by_parts: dict[tuple[int, ...], Decomposition] = {}
            for total in range(max_total - msize + 1):
                for length in range(1, max_length + 1):
                    for a in compositions(total, length):
                        combinatorial = pieri_product(mu, a)
                        parts = tuple(sorted(k for k in a if k))
                        character = by_parts.get(parts)
                        if character is None:
                            character = decompose(induce_trivial_product(mu, a))
                            by_parts[parts] = character
                        cases += 1
                        if combinatorial != character:
                            return cases, {
                                "mu": list(mu),
                                "a": list(a),
                                "chain_counts": combinatorial.to_json_dict(),
                                "character_oracle": character.to_json_dict(),
                            }
    return cases, None


def cmd_oracle_check(args: argparse.Namespace) -> tuple[int, str]:
    if args.max > ORACLE_LIMIT:
        raise ValueError(f"--max {args.max} exceeds the oracle limit {ORACLE_LIMIT}")
    cases, witness = oracle_scan(args.max)
    payload = {
        "command": "oracle-check",
        "max": args.max,
        "cases": cases,
        "pass": witness is None,
        "counterexample": witness,
    }
    lines = [f"PASS: {cases} products agree with the character oracle"]
    if witness is not None:
        lines = [
            f"FAIL at case {cases}: mu={witness['mu']} a={witness['a']}",
            f"  chains:    {json.dumps(witness['chain_counts'], sort_keys=True)}",
            f"  character: {json.dumps(witness['character_oracle'], sort_keys=True)}",
        ]
    code = EXIT_OK if witness is None else EXIT_INTERNAL
    return code, _render(args, payload, [(line,) for line in lines])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidmod",
        description="Exact decompositions and Hilbert functions of free "
        "modules over d-colored injection categories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, fmt: str, stdin: bool = False) -> None:
        """--d, --gen (required, or with `stdin` one choice of --gen | --stdin), --format."""
        p.add_argument("--d", type=positive_int, required=True, help="number of colors (>= 1)")
        # argparse brackets a group in the usage line only if its options were added adjacently.
        source = p.add_mutually_exclusive_group(required=True) if stdin else p
        source.add_argument(
            "--gen",
            required=not stdin,
            help='generator: "M(k)" for the regular generator or a partition literal "[a,b,...]"',
        )
        if stdin:
            source.add_argument(
                "--stdin",
                action="store_true",
                help='read the series from stdin as {"series": {"0": "1", ...}}',
            )
        p.add_argument("--format", choices=("json", "tsv"), default=fmt)

    p_dim = sub.add_parser("dim", help="level dimensions over a degree range")
    add_common(p_dim, "tsv")
    p_dim.add_argument("--range", required=True, help="inclusive degree range, e.g. 0..6")
    p_dim.set_defaults(func=cmd_dim)

    p_dec = sub.add_parser("decompose", help="irreducible decomposition of one level")
    add_common(p_dec, "json")
    p_dec.add_argument("--n", type=non_negative_int, required=True, help="level to decompose")
    p_dec.set_defaults(func=cmd_decompose)

    p_stab = sub.add_parser("stabilize", help="stable padded multiplicity and onset")
    add_common(p_stab, "json")
    p_stab.add_argument("--lambda", dest="lam", required=True, help='core partition, e.g. "[]"')
    p_stab.add_argument("--pads", required=True, help="comma-separated base pads, e.g. 2,2")
    p_stab.add_argument(
        "--horizon",
        type=non_negative_int,
        default=DEFAULT_STABILIZATION_HORIZON,
        help=f"search horizon (default: {DEFAULT_STABILIZATION_HORIZON})",
    )
    p_stab.set_defaults(func=cmd_stabilize)

    p_fit = sub.add_parser("fit", help="exact series fitting")
    add_common(p_fit, "json", stdin=True)
    p_fit.add_argument("--mode", choices=("dims", "mult"), required=True)
    p_fit.add_argument("--lambda", dest="lam", help="core partition for mult mode (default [])")
    p_fit.add_argument("--degree-bound", type=non_negative_int, default=None)
    p_fit.add_argument("--window", default=None, help="inclusive fit window, e.g. 4..12")
    p_fit.set_defaults(func=cmd_fit)

    p_oracle = sub.add_parser(
        "oracle-check", help="sweep chain counts against the character oracle"
    )
    p_oracle.add_argument("--max", type=non_negative_int, default=6, help="size bound (<= 8)")
    p_oracle.add_argument("--format", choices=("json", "tsv"), default="tsv")
    p_oracle.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, text = args.func(args)
    except (NoStabilization, NoExactFit) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_FIT
    except (ValueError, KeyError) as exc:  # InsufficientPoints and JSONDecodeError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # invariant breach: anything unexpected
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
