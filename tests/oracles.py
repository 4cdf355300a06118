"""Reference implementations that the tests compare fidmod against.

None of these is on the library's production path, so they live with the
tests rather than in the package: a box enumerator for exhaustive sweeps,
the strip-removal builder that mirrors `pieri.add_horizontal_strip`,
per-composition strip-chain counts built from it, and a brute-force count
of column-strict skew fillings.  The chain counts cross-check
`pieri_product` and, summed over compositions, `bounded_chain_count`; the
filling count cross-checks the chain counts.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from fidmod.partitions import Partition, contains


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
