"""Query ladders for the four benchmark workloads.

Every workload is a fixed pool of at least 100 distinct queries, grouped
into sequences.  One round runs the whole pool once, in an order drawn
from the seed: it shuffles the sequences, and each sequence walks forward.
Every round starts from empty memo tables, and each order is run k times,
so a query is timed k times in the same situation; the benchmark keeps the
best of them, and its percentiles are taken over at least the pool, so at
least ten samples lie beyond p90.  The seed changes only the order, which
is what memo reuse in `session` depends on; `session` therefore runs
several orders, and the other workloads keep their first.

Queries reach the library only through attribute lookups on the `fidmod`
package at call time, so the tracer can wrap those bindings.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

#: Outputs longer than this are recorded by their SHA-256 digest.
INLINE_OUTPUT_LIMIT = 240


@dataclass(frozen=True)
class Query:
    """One benchmark query.  In-process queries have `call` and `canon`;
    CLI queries have `argv` (after `python -m fidmod`) and `stdin`."""

    key: str
    call: Callable[[], object] | None = None
    canon: Callable[[object], str] | None = None
    argv: tuple[str, ...] = ()
    stdin: bytes = b""


def fingerprint(text: str) -> str:
    """Golden form of an exact output: the text itself, or its digest."""
    if len(text) <= INLINE_OUTPUT_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def cli_output(rc: int, stdout: bytes) -> str:
    return f"rc={rc}\n" + stdout.decode("utf-8", "backslashreplace")


# Canonical forms read only public fields, so a result type that gains a
# field (as StabilizationResult may) keeps its golden entry.

def _canon_decomposition(dec) -> str:
    return json.dumps([[list(lam), str(mult)] for lam, mult in dec.items()])


def _canon_int(value) -> str:
    return str(int(value))


def _canon_stabilization(res) -> str:
    return f"value={res.value} onset={res.onset}"


def _canon_fit(poly) -> str:
    return json.dumps(poly.coefficient_strings())


def _canon_report(report) -> str:
    plateaus = [[str(p.value), p.onset] for p in report.plateaus]
    return json.dumps({"all_hold": report.all_hold(), "plateaus": plateaus})


def _gen_text(gen) -> str:
    if isinstance(gen, int):
        return f"M({gen})"
    return "[" + ",".join(str(p) for p in gen) + "]"


def _spec(api, d: int, gen):
    if isinstance(gen, int):
        return api.FreeModuleSpec.regular(d, gen)
    return api.FreeModuleSpec.of_irreducible(d, gen)


def _min_pad(core: tuple[int, ...]) -> int:
    """Shortest pad for which the padded label is non-zero."""
    return sum(core) + (core[0] if core else 0)


def _decompose(api, d, gen, spec, n) -> Query:
    return Query(
        f"decompose_at d={d} gen={_gen_text(gen)} n={n}",
        lambda: api.decompose_at(spec, n),
        _canon_decomposition,
    )


def _stabilize(api, d, gen, spec, core, pads) -> Query:
    return Query(
        f"stabilized_padded_multiplicity d={d} gen={_gen_text(gen)} core={list(core)} pads={list(pads)}",
        lambda: api.stabilized_padded_multiplicity(spec, core, pads),
        _canon_stabilization,
    )


def _series_fit(api, d, gen, spec, core, degree_bound, window) -> Query:
    def call():
        series = api.multiplicity_series(spec, core, window)
        return api.fit_polynomial(series, degree_bound, window)

    return Query(
        f"multiplicity_series+fit_polynomial d={d} gen={_gen_text(gen)} core={list(core)} "
        f"bound={degree_bound} window={window[0]}..{window[-1]}",
        call,
        _canon_fit,
    )


# --- levels: cold full-level decompositions (strip-chain builder) ---------

#: (d, generator, top level): the ROADMAP ladder first, then nearby regular
#: and irreducible generators.  Each rung decomposes its top level and the
#: LEVELS_DEPTH levels below it.
LEVELS_LADDER = [
    (2, 0, 24), (3, 2, 30), (5, 1, 16), (2, 4, 40),
    (3, 0, 24), (3, 1, 24), (4, 0, 20), (4, 1, 18), (4, 2, 18), (3, 3, 24),
    (2, 2, 30), (2, 3, 34), (5, 0, 14),
    (2, (2, 1), 24), (3, (1,), 22), (3, (2, 2), 20), (4, (3, 1), 16),
    (2, (1, 1, 1, 1), 28), (5, (2,), 14), (3, (4,), 22), (2, (3,), 30),
]
LEVELS_DEPTH = 5


def levels(api) -> list[list[Query]]:
    seqs = []
    for d, gen, top in LEVELS_LADDER:
        spec = _spec(api, d, gen)
        seqs.extend([_decompose(api, d, gen, spec, n)] for n in range(top - LEVELS_DEPTH + 1, top + 1))
    return seqs


# --- targeted: cold single multiplicities (bounded chain counts) ----------

#: d=3, M(3), from (12,6,3,1) up to the ROADMAP's (20,10,5,2,1), which alone
#: takes about half of a round.
TARGETED_CONSTITUENTS = [
    (12, 6, 3, 1), (13, 6, 3, 1), (14, 7, 3, 1), (14, 7, 4, 1), (15, 8, 4, 2),
    (20, 10, 5, 2, 1),
]
#: Stabilizations: every spec with every core (cores of size <= 6).
TARGETED_STAB_SPECS = [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4), (4, 1), (3, (2, 1)), (2, (3, 1))]
TARGETED_STAB_CORES = [(), (1,), (1, 1), (2, 1), (3, 2, 1), (2, 2, 2)]
#: Multiplicity series plus fit: every spec with every core.
TARGETED_FIT_SPECS = [(2, 0), (2, 1), (3, 0), (3, 1), (2, 2), (3, 2), (4, 0), (4, 1)]
TARGETED_FIT_CORES = [(), (1,), (2,), (1, 1), (2, 1), (3,)]


def targeted(api) -> list[list[Query]]:
    seqs = []
    spec = _spec(api, 3, 3)
    for target in TARGETED_CONSTITUENTS:
        seqs.append(Query(
            f"constituent_multiplicity d=3 gen=M(3) target={list(target)}",
            lambda target=target: api.constituent_multiplicity(spec, target),
            _canon_int,
        ))
    for d, gen in TARGETED_STAB_SPECS:
        spec_ = _spec(api, d, gen)
        for core in TARGETED_STAB_CORES:
            seqs.append(_stabilize(api, d, gen, spec_, core, (_min_pad(core),) * d))
    for d, gen in TARGETED_FIT_SPECS:
        spec_ = _spec(api, d, gen)
        for core in TARGETED_FIT_CORES:
            window = api.default_multiplicity_window(spec_, core, d - 1)
            seqs.append(_series_fit(api, d, gen, spec_, core, d - 1, window))
    return [[q] for q in seqs]


# --- session: overlapping queries that reuse memo tables, on a few specs -

#: (d, generator, decompose levels, stabilization cores, series cores)
SESSION_SPECS = [
    (3, 2, range(16, 24), [(), (1,), (2, 1)], [(1,), (2,)]),
    (2, 4, range(24, 34), [(), (1,), (2, 1)], [(1,), (2, 1)]),
    (3, (2, 1), range(12, 20), [(), (1,), (1, 1)], [(1,), (1, 1)]),
    (4, 1, range(12, 18), [(), (1,), (2, 1)], [(1,), (2,)]),
]
#: Neighbouring base pads per stabilization core, and shifted series windows.
#: Stabilizations are either near-free (a pad next to one already probed)
#: or cost tens of ms, so the window shifts are chosen to make the series
#: fits, a class of steady 0.3-2 ms queries, hold the pool's median; the
#: median then moves with their cost, not with how many stabilizations the
#: order happened to leave warm.
SESSION_PAD_STEPS = 4
SESSION_WINDOW_SHIFTS = 6


def session(api) -> list[list[Query]]:
    seqs = []
    for d, gen, degrees, stab_cores, series_cores in SESSION_SPECS:
        spec = _spec(api, d, gen)
        seqs.append([_decompose(api, d, gen, spec, n) for n in degrees])
        for core in stab_cores:
            base = _min_pad(core)
            seqs.append([
                _stabilize(api, d, gen, spec, core, (base + step,) * d)
                for step in range(SESSION_PAD_STEPS)
            ])
        for core in series_cores:
            window = api.default_multiplicity_window(spec, core, d - 1)
            seqs.append([
                _series_fit(api, d, gen, spec, core, d - 1, [n + shift for n in window])
                for shift in range(SESSION_WINDOW_SHIFTS)
            ])
        probes = [(core, (_min_pad(core) + 1,) * d) for core in stab_cores[:2]]
        verify_degrees = list(range(spec.m, spec.m + 6))
        seqs.append([Query(
            f"verify_stability d={d} gen={_gen_text(gen)} probes={probes} degrees={verify_degrees}",
            lambda spec=spec, probes=probes, degs=verify_degrees: api.verify_stability(spec, probes, degs),
            _canon_report,
        )])
    return seqs


# --- cli: one `python -m fidmod` process per query ------------------------

def _series_stdin(values: dict[int, int]) -> bytes:
    return json.dumps({"series": {str(n): str(v) for n, v in values.items()}}).encode()


def _cli_grid() -> list[tuple[tuple[str, ...], bytes]]:
    """Every subcommand, alternating the default, JSON and TSV formats."""
    cmds: list[tuple[str, ...]] = []
    gens = ["M(0)", "M(1)", "M(2)", "[1]", "[2,1]"]
    for d in range(1, 5):
        cmds += [("dim", "--d", str(d), "--gen", g, "--range", "0..14") for g in gens]
    for d, top in ((2, 16), (3, 12), (4, 10)):
        for g in ("M(1)", "M(2)", "[1]", "[2,1]"):
            cmds += [("decompose", "--d", str(d), "--gen", g, "--n", str(n)) for n in (top - 2, top)]
    for d, g in ((2, "M(2)"), (3, "M(1)"), (2, "[2,1]"), (3, "[1]"), (2, "M(3)")):
        for core in ((), (1,), (2, 1), (1, 1)):
            pads = ",".join([str(_min_pad(core) + 1)] * d)
            cmds.append(("stabilize", "--d", str(d), "--gen", g, "--lambda", _gen_text(core), "--pads", pads))
    for d in (1, 2, 3):
        cmds += [("fit", "--d", str(d), "--gen", g, "--mode", "dims") for g in ("M(0)", "M(1)", "[1]", "[2,1]")]
    for d, g in ((2, "M(0)"), (2, "M(1)"), (2, "[1]"), (3, "M(0)"), (3, "M(1)")):
        cmds += [("fit", "--d", str(d), "--gen", g, "--mode", "mult", "--lambda", lam) for lam in ("[1]", "[2]")]
    formats = [(), ("--format", "json"), ("--format", "tsv")]
    out = [(cmd + formats[i % 3], b"") for i, cmd in enumerate(cmds)]
    stdin_fits = [
        (("fit", "--d", "2", "--mode", "dims", "--stdin", "--degree-bound", "1"),
         {n: (n + 2) * 2 ** n for n in range(0, 10)}),
        (("fit", "--d", "1", "--mode", "dims", "--stdin", "--degree-bound", "2"),
         {n: n * n - 3 * n + 7 for n in range(0, 9)}),
        (("fit", "--d", "2", "--mode", "mult", "--stdin", "--lambda", "[1]"),
         {n: n - 1 for n in range(4, 10)}),
        (("fit", "--d", "3", "--mode", "mult", "--stdin", "--lambda", "[1]"),
         {n: n * n - 1 for n in range(8, 15)}),
    ]
    for i, (cmd, series) in enumerate(stdin_fits):
        out.append((cmd + formats[1 + i % 2], _series_stdin(series)))
    # The oracle sweeps are the slowest commands; the eleven of them, in
    # every spelling of their options, fill the top tenth of the pool, so
    # p90 measures the character oracle.
    spellings = formats + [("--format=json",), ("--format=tsv",)]
    for top in (6, 7):
        out += [(("oracle-check", "--max", str(top)) + f, b"") for f in spellings]
        if top == 6:
            out.append((("oracle-check", f"--max={top}"), b""))
    return out


CLI_COMMANDS = _cli_grid()


def cli(api) -> list[list[Query]]:
    seqs = []
    for argv, stdin in CLI_COMMANDS:
        key = "cli " + " ".join(argv) + (f" <stdin {stdin.decode()}" if stdin else "")
        seqs.append([Query(key, argv=argv, stdin=stdin)])
    return seqs


class Workload(NamedTuple):
    build: Callable[[object], list[list[Query]]]
    #: Every query starts from cleared memo tables.
    cold: bool
    #: A query's cost depends on the queries before it in the round, so a
    #: run samples several seeded orders rather than one.
    reuse: bool


WORKLOADS: dict[str, Workload] = {
    "levels": Workload(levels, cold=True, reuse=False),
    "targeted": Workload(targeted, cold=True, reuse=False),
    "session": Workload(session, cold=False, reuse=True),
    "cli": Workload(cli, cold=False, reuse=False),
}


def seeded_orders(seqs: list[list[Query]], seed: int) -> Iterator[list[Query]]:
    """Endless orders of the whole pool: the seed shuffles the sequences,
    and each sequence walks forward, as a user steps n, a pad or a window
    up."""
    rng = random.Random(seed)
    while True:
        yield [q for seq in rng.sample(seqs, len(seqs)) for q in seq]
