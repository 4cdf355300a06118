"""Reference implementations that the tests compare fidmod against.

None of these is on the library's production path, so they live with the
tests rather than in the package: a box enumerator for exhaustive sweeps,
the strip-removal builder, the inverse of adding a horizontal strip,
per-composition strip-chain counts built from it, a brute-force count
of column-strict skew fillings, induced characters summed over every
element of a Young subgroup, exponential-polynomial interpolation over
the rationals, and a stabilization that computes every shift.  The chain
counts cross-check `pieri_product` and, summed over compositions,
`bounded_chain_count`; the filling count cross-checks the chain counts;
the induced characters cross-check `characters.induce_trivial_product`;
the rational interpolation cross-checks the fraction-free fits of
`stability`; the shift walk cross-checks the bisected onsets and the
closed-form plateaus of `free_modules.stabilized_padded_multiplicity`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Iterator, Sequence

from fidmod.characters import ClassFunction, character_value
from fidmod.free_modules import (
    FreeModuleSpec,
    NoStabilization,
    StabilizationResult,
    guarantee_shift,
    padded_multiplicity,
)
from fidmod.partitions import Partition, contains, partitions_of


def partitions_in_box(rows: int, cols: int) -> Iterator[Partition]:
    """All partitions with at most `rows` rows and parts at most `cols`."""

    def grow(prefix: tuple[int, ...], depth: int, cap: int) -> Iterator[Partition]:
        yield prefix
        if depth == rows:
            return
        for part in range(cap, 0, -1):
            yield from grow(prefix + (part,), depth + 1, part)

    yield from grow((), 0, cols)


def remove_horizontal_strip(lam: Partition, boxes: int) -> tuple[Partition, ...]:
    """All partitions nu <= lam with lam/nu a horizontal strip of `boxes`
    boxes, in descending lexicographic order."""
    if boxes < 0:
        raise ValueError("strip size must be non-negative")
    results: list[Partition] = []
    h = len(lam)

    def build(row: int, remaining: int, prefix: Partition) -> None:
        if not remaining:
            results.append(prefix + lam[row:])
        elif row < h:
            # Row r keeps at least lam_{r+1}; the rows below it lose at most
            # lam_{r+1} boxes between them.  Only the last row can empty.
            below = lam[row + 1] if row + 1 < h else 0
            for cut in range(max(remaining - below, 0), min(remaining, lam[row] - below) + 1):
                kept = prefix + (lam[row] - cut,) if cut < lam[row] else prefix
                build(row + 1, remaining - cut, kept)

    build(0, boxes, ())
    return tuple(results)


@cache
def _chains_to(mu: Partition, a: tuple[int, ...], lam: Partition) -> int:
    if not a:
        return 1 if lam == mu else 0
    total = 0
    for nu in remove_horizontal_strip(lam, a[-1]):
        if contains(nu, mu):
            total += _chains_to(mu, a[:-1], nu)
    return total


def chain_multiplicity(mu: Partition, a: tuple[int, ...], lam: Partition) -> int:
    """Multiplicity of lam in pieri_product(mu, a); 0 on size mismatch or
    when lam does not contain mu."""
    mu, lam = tuple(mu), tuple(lam)
    a = tuple(int(x) for x in a)
    if sum(lam) != sum(mu) + sum(a) or not contains(lam, mu):
        return 0
    return _chains_to(mu, a, lam)


def skew_filling_count(outer: Partition, inner: Partition, content: tuple[int, ...]) -> int:
    """Count fillings of outer/inner with entries 1..h, weakly increasing
    along rows and strictly increasing down columns, entry i used content[i-1]
    times.  Equals chain_multiplicity(inner, content, outer); kept as an
    independent cross-check of the chain enumeration."""
    if not contains(outer, inner):
        return 0
    if sum(outer) - sum(inner) != sum(content):
        return 0
    cells = [
        (r, c)
        for r in range(len(outer))
        for c in range((inner[r] if r < len(inner) else 0), outer[r])
    ]
    if not cells:
        return 1
    h = len(content)
    remaining = list(content)
    entry: dict[tuple[int, int], int] = {}

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        # Neighbours inside inner are absent from `entry` and impose nothing.
        left = entry.get((r, c - 1))
        above = entry.get((r - 1, c))
        lo = 1
        if left is not None:
            lo = max(lo, left)
        if above is not None:
            lo = max(lo, above + 1)
        total = 0
        for val in range(lo, h + 1):
            if remaining[val - 1] == 0:
                continue
            remaining[val - 1] -= 1
            entry[(r, c)] = val
            total += fill(idx + 1)
            del entry[(r, c)]
            remaining[val - 1] += 1
        return total

    return fill(0)


def _cycle_type(perm: tuple[int, ...]) -> Partition:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = True, perm[i], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def induced_character_by_definition(mu: Partition, a: Sequence[int]) -> ClassFunction:
    """Ind of chi^mu x trivial x ... from H = S_|mu| x S_a1 x ... by definition.

    Enumerates every element of H, block by block, and sums chi^mu of block
    0 by the cycle type of the whole element; the value at rho is z_rho/|H|
    times that sum.  |H| = |mu|! * prod(a_i!), so keep the sizes small.
    """
    sizes = [sum(mu), *a]
    blocks = [[_cycle_type(p) for p in itertools.permutations(range(k))] for k in sizes]
    sums: Counter[Partition] = Counter()
    for types in itertools.product(*blocks):
        rho = tuple(sorted(itertools.chain(*types), reverse=True))
        sums[rho] += character_value(mu, types[0])
    order = math.prod(len(block) for block in blocks)
    z = {
        rho: math.prod(k**m * math.factorial(m) for k, m in Counter(rho).items())
        for rho in partitions_of(sum(sizes))
    }
    return ClassFunction(sum(sizes), {rho: z[rho] * sums[rho] // order for rho in z})


def interpolate_by_fractions(
    values: dict[int, int], bases: int, block: int, nodes: Sequence[int]
) -> list[list[Fraction]]:
    """Coefficients c[i][k] of n^k (i + 1)^n, i < bases and k < block, of the
    function that takes values[n] at each of the bases * block distinct
    nodes, by Gauss-Jordan elimination over the rationals with row swaps."""
    size = bases * block
    rows = [
        [Fraction(n**k * (i + 1) ** n) for i in range(bases) for k in range(block)]
        + [Fraction(values[n])]
        for n in nodes
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    solution = [row[size] for row in rows]
    return [solution[i * block : (i + 1) * block] for i in range(bases)]


def shifted_multiplicities(
    spec: FreeModuleSpec, core: Partition, base_pads: Sequence[int], count: int
) -> list[int]:
    """padded_multiplicity of core[base_pads + l] for every shift l < count."""
    return [padded_multiplicity(spec, core, [p + l for p in base_pads]) for l in range(count)]


def stabilize_by_walk(
    spec: FreeModuleSpec, core: Partition, base_pads: Sequence[int]
) -> StabilizationResult:
    """Stabilization without the monotonicity or the closed-form plateau:
    every shift 0..guarantee_shift + 4, a tail that must be constant from
    guarantee_shift (its first value is the stable one), and the onset
    found by walking down from it while the value stays at the stable one."""
    tail = 4  # shifts past guarantee_shift that must agree with it
    guarantee = guarantee_shift(spec, base_pads)
    values = shifted_multiplicities(spec, core, base_pads, guarantee + tail + 1)
    stable = values[guarantee]
    if any(v != stable for v in values[guarantee:]):
        raise NoStabilization(f"multiplicities {values} past shift {guarantee} are not constant")
    onset = guarantee
    while onset > 0 and values[onset - 1] == stable:
        onset -= 1
    return StabilizationResult(tuple(core), tuple(base_pads), stable, onset, guarantee)
