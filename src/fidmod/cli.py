"""Batch command-line interface.

Subcommands wrap the library one-to-one and print machine-readable tables
(JSON or TSV), byte-identical on identical invocations.  Each command returns
its exit code and its answer as text, and `main` alone writes that text, so
nothing reaches stdout when a command raises.  Exit codes: 0 success, 2 usage
or parse error (including a generator, determinant or fit past a MAX_* bound,
refused before the work it bounds), 3 no exact fit, 4 internal invariant
breach (including a stabilization whose guarantee shift misses the
closed-form plateau).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable, Sequence

from .free_modules import (
    FreeModuleSpec,
    decompose_at,
    dim_at,
    stabilized_padded_multiplicity,
)
from .characters import decompose, induce_trivial_product
from .partitions import checked_count, compositions, new_partition, pad, partitions_of
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
#: Largest degree in a --range, --window or `fit --stdin` series, and the largest
#: elimination work `fit` starts, estimated as size^5 * bits^2 for size unknowns
#: on entries of up to `bits` bits (~size^3 Bareiss steps on size * bits-bit
#: entries, quadratic division).  2-CPU host: `dim --d 2 --range 0..10000` takes
#: 0.8 s and 62 MB; d = 4, degree bound 2 at degree 10^4 is 1e14, 0.7 s.
MAX_DEGREE = 10_000
MAX_FIT_WORK = 10**14
#: Largest k in --gen "M(k)" and degree of a partition-literal --gen.  2-CPU host,
#: as a process: `stabilize` with M(40) (37,338 constituents) at d = 2, pads 0,0
#: takes 0.6 s and 27 MB, building M(40) most of it; [10000] there (guarantee
#: shift 20,000, 16 shifts probed) takes 0.07 s and 15 MB, start-up most of
#: it.
MAX_REGULAR_DEGREE = 40
MAX_GENERATOR_DEGREE = 10_000
#: Largest --d, and most rows len(core) + d, of the Jacobi-Trudi determinants,
#: with binomial entries that grow with d, of the two commands that take a core.
#: 2-CPU host, as a process:
#:  - `stabilize` builds one determinant of len(core) + d rows per probed shift,
#:    about log2(guarantee shift) + 2 of them, and for the closed-form plateau
#:    one of at most d - 1 rows and one of at most len(core) + d rows per
#:    generator constituent that can reach the core.  With --gen "[10000]" and the
#:    shortest pads (guarantee shift ~20,000) it takes 0.07 s, start-up most
#:    of it, with --lambda "[]" at d = 7, [1^12] at d = 2 (14 rows) and [1^7]
#:    at d = 7; past the bounds the library takes 0.06 s with [] at d = 10
#:    and with [1^12] at d = 7 (19 rows).
#:  - `fit --mode mult --gen` builds, once per generator constituent, the
#:    1 + len(core) first-row cofactors of len(core) rows, then sums binomials
#:    per degree.  --gen "[10000]" --d 7 --lambda [1^7] takes 0.07-0.08 s on its
#:    default window and on --window 0..10000, start-up most of it.  M(40) with
#:    [1^12] at d = 2 on --window 0..10000 takes 0.6 s, building M(40) most of
#:    it (129 s with one determinant per series degree).
#: At the bounds neither command costs much more than start-up and the
#: generator build; the bounds keep inputs inside the sizes the tests cover.
#: `dim` is a closed form and `decompose` costs what n does, so neither is
#: bounded here.
MAX_COLORS = 7
MAX_DETERMINANT_ROWS = 14


def _parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"partition literal must look like [3,1] or [], got {text!r}")
    body = text[1:-1].strip()
    if not body:
        return ()
    return new_partition(int(tok) for tok in body.split(","))


def _parse_generator(text: str) -> tuple[int, Callable[[int], FreeModuleSpec]]:
    """(degree m, builder of the spec from d): bounds on m are checked before M(k) is built."""
    text = text.strip()
    match = re.fullmatch(r"M\((\d+)\)", text)
    if match:
        m = int(match.group(1))
        if m > MAX_REGULAR_DEGREE:
            raise ValueError(f"M(k) needs k <= {MAX_REGULAR_DEGREE}, got {m}")
        return m, lambda d: FreeModuleSpec.regular(d, m)
    lam = _parse_partition(text)
    if sum(lam) > MAX_GENERATOR_DEGREE:
        raise ValueError(f"generator degree must be <= {MAX_GENERATOR_DEGREE}, got {sum(lam)}")
    return sum(lam), lambda d: FreeModuleSpec.of_irreducible(d, lam)


def _check_determinants(core: tuple[int, ...], d: int) -> None:
    """Refuse determinants of len(core) + d rows past MAX_COLORS or MAX_DETERMINANT_ROWS."""
    if d > MAX_COLORS:
        raise ValueError(f"--d must be <= {MAX_COLORS} for this command, got {d}")
    if len(core) + d > MAX_DETERMINANT_ROWS:
        raise ValueError(
            f"--lambda rows + --d must be <= {MAX_DETERMINANT_ROWS}, got {len(core)} + {d}"
        )


def _parse_range(text: str) -> range:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text.strip())
    if not match:
        raise ValueError(f"range must look like 0..6 (degrees >= 0), got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    if hi > MAX_DEGREE:
        raise ValueError(f"range degrees must be <= {MAX_DEGREE}, got {hi}")
    return range(lo, hi + 1)


def _parse_pads(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.strip().split(","))


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
    lo, hi = min(values, default=0), max(values, default=0)
    if not 0 <= lo <= hi <= MAX_DEGREE:
        raise ValueError(f"series degrees must be in 0..{MAX_DEGREE}, got {lo}..{hi}")
    return values


def non_negative_int(text: str) -> int:
    """argparse type for counts that must be >= 0."""
    return checked_count(int(text), "value")


def positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (the color count --d)."""
    return checked_count(int(text), "value", 1)


def cmd_dim(args: argparse.Namespace) -> tuple[int, str]:
    _, build = _parse_generator(args.gen)
    degrees = _parse_range(args.range)  # refused before M(k) is built
    spec = build(args.d)
    rows = [("n", "dim")] + [(n, str(dim_at(spec, n))) for n in degrees]
    payload = {
        "command": "dim",
        "d": args.d,
        "generator": args.gen,
        "rows": [{"n": n, "dim": v} for n, v in rows[1:]],
    }
    return EXIT_OK, _render(args, payload, rows)


def cmd_decompose(args: argparse.Namespace) -> tuple[int, str]:
    _, build = _parse_generator(args.gen)
    payload = decompose_at(build(args.d), args.n).to_json_dict()
    rows = [("partition", "multiplicity")] + [
        ("[" + ",".join(map(str, t["partition"])) + "]", t["multiplicity"])
        for t in payload["terms"]
    ]
    return EXIT_OK, _render(args, payload, rows)


def cmd_stabilize(args: argparse.Namespace) -> tuple[int, str]:
    lam = _parse_partition(args.lam)
    _check_determinants(lam, args.d)
    _, build = _parse_generator(args.gen)
    pads = _parse_pads(args.pads)
    pad(lam, pads)  # the pads' rules, before the generator is built
    spec = build(args.d)
    result = stabilized_padded_multiplicity(spec, lam, pads)
    payload = {
        "command": "stabilize",
        "d": args.d,
        "generator": args.gen,
        "lambda": list(lam),
        "base_pads": list(pads),
        "value": str(result.value),
        "onset": result.onset,
        "guarantee_shift": result.guarantee_shift,
    }
    rows = [(key, payload[key]) for key in ("value", "onset", "guarantee_shift")]
    return EXIT_OK, _render(args, payload, rows)


def _check_fit_work(top: int, bases: int, block: int) -> None:
    """Refuse a fit of bases * block unknowns up to degree `top` past MAX_FIT_WORK."""
    bits = (block - 1) * top.bit_length() + top * (bases - 1).bit_length()
    if (bases * block) ** 5 * bits**2 > MAX_FIT_WORK:
        raise ValueError(f"fit of {bases * block} unknowns on {bits}-bit entries is too large")


def cmd_fit(args: argparse.Namespace) -> tuple[int, str]:
    dims = args.mode == "dims"
    if dims and args.lam is not None:
        raise ValueError("--lambda applies to --mode mult only")
    lam = () if args.lam is None else _parse_partition(args.lam)
    if args.stdin:
        m, series = None, _read_stdin_series()
    else:
        if not dims:
            _check_determinants(lam, args.d)
        (m, build), series = _parse_generator(args.gen), None
    degree_bound = args.degree_bound
    if degree_bound is None:
        if dims and m is None:
            raise ValueError("--degree-bound is required with --stdin")
        degree_bound = m if dims else args.d - 1
    if args.window is not None:
        window = list(_parse_range(args.window))
    elif m is None:
        window = sorted(series)
    else:
        # The default windows read only d and m, so the spec on the column
        # (1^m) gives them without building M(k).
        shape = FreeModuleSpec.of_irreducible(args.d, (1,) * m)
        if dims:
            window = default_dims_window(shape, degree_bound)
        else:
            window = default_multiplicity_window(shape, lam, degree_bound)
    _check_fit_work(max(window, default=0), args.d if dims else 1, degree_bound + 1)
    if dims:
        if series is None:
            spec = build(args.d)
            series = {n: dim_at(spec, n) for n in window}
        fit = fit_exponential_polynomial(series, args.d, degree_bound, window)
        rows = [(f"p{i}", p) for i, p in enumerate(fit.polynomials, start=1)]
        payload = {
            "bases": fit.bases,
            "polynomials": [p.coefficient_strings() for p in fit.polynomials],
        }
    else:
        if series is None:
            series = multiplicity_series(build(args.d), lam, window)
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


def oracle_scan(max_total: int):
    """Compare every chain-count product against the character oracle for
    |mu| + sum(a) <= max_total and compositions a of length 1, 2 and 3.

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
                for length in (1, 2, 3):
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
    except NoExactFit as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_FIT
    except ValueError as exc:  # InsufficientPoints and JSONDecodeError are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # invariant breach: anything unexpected
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
