"""Mutation smoke: every check can fail, and a test shows it.

Each mutant below is a one-line source change.  The script copies the
working tree (without `.git` and build or test output) to a temporary
directory, applies one mutant there, and runs the tier-1 suite with `-x`;
a failing suite kills the mutant.  Every mutant must be killed, except the equivalent ones, which
must survive: each is listed with the reason no test can tell it from the
original.  A mutant whose text no longer matches its file exactly once
is an error, so the list cannot drift silently from the source.

Run from the repository root (stdlib only; pytest collects no file here):

    python tests/mutants.py            # every mutant, about 5 minutes
    python tests/mutants.py NAME ...   # the named mutants only

Exit status 0 when every outcome is the expected one, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str


MUTANTS = [
    # partitions: the one checks of partitions, counts and pads
    Mutant("zero-part", "src/fidmod/partitions.py",
           "        if p <= 0:", "        if p < 0:"),
    Mutant("increasing-parts", "src/fidmod/partitions.py",
           "        if i and t[i - 1] < p:", "        if False:"),
    Mutant("count-floor", "src/fidmod/partitions.py",
           "    if value < least:", "    if value < least - 1:"),
    Mutant("unsorted-pads", "src/fidmod/partitions.py",
           "    if any(map(lt, p, p[1:])):", "    if False:"),
    Mutant("negative-pad", "src/fidmod/partitions.py",
           "    if p[-1] < 0:", "    if False:"),
    Mutant("zero-label-threshold", "src/fidmod/partitions.py",
           "    if p[-1] < least_pad(lam):", "    if p[-1] < sum(lam):"),
    # pieri: the public decomposition check and the determinant kernel
    Mutant("decomposition-size", "src/fidmod/pieri.py",
           "            if sum(lam) != n:", "            if False:"),
    Mutant("jacobi-trudi-entry", "src/fidmod/pieri.py",
           "         if (k := lam[i] - inner[j] - i + j) >= 0 else 0",
           "         if (k := lam[i] - inner[j] - i + j) > 0 else 0"),
    # free_modules: specs, the kernel and the stabilization
    Mutant("zero-colors", "src/fidmod/free_modules.py",
           '        checked_count(d, "color count", 1)', '        checked_count(d, "color count")'),
    Mutant("pad-count", "src/fidmod/free_modules.py",
           "    if len(pads) != checked_spec(spec).d:", "    if len(pads) < checked_spec(spec).d:"),
    Mutant("guarantee-shift", "src/fidmod/free_modules.py",
           "    return max(0, spec.m + first - base_pads[-1])",
           "    return max(0, first - base_pads[-1])"),
    Mutant("plateau-delta", "src/fidmod/free_modules.py",
           "    delta = tuple(p - pads[-1] for p in pads if p > pads[-1])",
           "    delta = tuple(p - pads[-1] for p in pads[1:] if p > pads[-1])"),
    Mutant("plateau-comparison", "src/fidmod/free_modules.py",
           "    if (top := c(guarantee)) != stable:", "    if False:"),
    Mutant("bisection-range", "src/fidmod/free_modules.py",
           "    onset = bisect_left(range(guarantee), True,",
           "    onset = bisect_left(range(guarantee + 1), True,"),
    # characters: the refusal of non-characters
    Mutant("inner-product", "src/fidmod/characters.py",
           "        if rem or mult < 0:", "        if rem:"),
    # stability: the fit's own validation and the stability witnesses
    Mutant("fit-validation", "src/fidmod/stability.py",
           "        if got != den * values[n]:", "        if False:"),
    Mutant("injectivity-witness", "src/fidmod/stability.py",
           "    dim_witness = all(dim_at(spec, n) <= spec.d * dim_at(spec, n + 1) for n in degs)",
           "    dim_witness = True"),
    Mutant("generation-witness", "src/fidmod/stability.py",
           "            accounted = False", "            pass"),
    # cli: bounds refused before the work they bound
    Mutant("colors-bound", "src/fidmod/cli.py",
           "    if d > MAX_COLORS:", "    if d > MAX_COLORS + 1:"),
    Mutant("fit-work-bound", "src/fidmod/cli.py",
           "    if (bases * block) ** 5 * bits**2 > MAX_FIT_WORK:",
           "    if (bases * block) ** 5 * bits**2 >= MAX_FIT_WORK:"),
]

#: Mutants that no test can kill, with the reason.
EQUIVALENT = {
    "bisection-range": "c(guarantee) equals the plateau, so the first shift at the plateau "
    "in range(guarantee + 1) is the one in range(guarantee), or guarantee itself when "
    "range(guarantee) has none, which is what bisect_left returns there",
    "injectivity-witness": "dim M_n <= d dim M_{n+1} holds for every free module, so the "
    "witness is True on every input (ROADMAP item 5 replaces it with a check that can fail)",
    "generation-witness": "the orbit sum is a multinomial identity, equal to dim M_{n+1} for "
    "every free module, so `accounted` is never set False (ROADMAP item 5)",
}


class Outcome(NamedTuple):
    killed: bool
    seconds: float
    detail: str


#: What the copy leaves out: history and the output of builds, tests and runs.
SKIPPED = shutil.ignore_patterns(
    ".git", ".bench_out", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks",
    "*.egg-info",
)


def _apply(dest: Path, mutant: Mutant) -> None:
    path = dest / mutant.path
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise SystemExit(f"mutant {mutant.name}: {mutant.old!r} occurs {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _check_import(dest: Path, env: dict[str, str]) -> None:
    """Stop unless the copy imports fidmod from its own src/ (an installed
    or editable fidmod must not shadow it)."""
    where = subprocess.run(
        [sys.executable, "-c", "import fidmod; print(fidmod.__file__)"],
        cwd=dest, env=env, capture_output=True, text=True,
    ).stdout.strip()
    if not where or not Path(where).resolve().is_relative_to(dest.resolve()):
        raise SystemExit(f"the copy imports fidmod from {where!r}, not from {dest}")


def run(mutant: Mutant | None, timeout: float = 600) -> Outcome:
    """Run the suite on a fresh copy with `mutant` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="fidmod-mutant-") as tmp:
        dest = Path(tmp) / "repo"
        shutil.copytree(ROOT, dest, ignore=SKIPPED)
        env = {**os.environ, "PYTHONPATH": str(dest / "src")}
        _check_import(dest, env)
        if mutant is not None:
            _apply(dest, mutant)
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors"]
        start = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=dest, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return Outcome(True, time.perf_counter() - start, f"timed out after {timeout:.0f} s")
        lines = done.stdout.strip().splitlines() or [""]
        failed = next((line for line in lines if line.startswith(("FAILED", "ERROR"))), lines[-1])
        return Outcome(done.returncode != 0, time.perf_counter() - start, failed)


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    baseline = run(None)
    if baseline.killed:
        print(f"the unmutated suite fails ({baseline.detail}); no mutant can be judged")
        return 1
    print(f"unmutated suite passes in {baseline.seconds:.0f} s", flush=True)
    wrong = []
    for mutant in chosen:
        outcome = run(mutant)
        expected = mutant.name not in EQUIVALENT
        verdict = "killed" if outcome.killed else "survived"
        note = "" if outcome.killed == expected else "  UNEXPECTED"
        if note:
            wrong.append(mutant.name)
        print(f"{mutant.name:22} {verdict:8} {outcome.seconds:5.0f} s  {outcome.detail}{note}",
              flush=True)
    if wrong:
        print(f"unexpected outcomes: {', '.join(wrong)}")
        return 1
    print(f"{len(chosen)} mutants, every outcome as expected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
