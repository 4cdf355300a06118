"""Horizontal-strip combinatorics: iterated Pieri products by chain counting.

The multiplicity of lam in the product over a composition a equals the
number of chains mu = mu(0) <= ... <= mu(h) = lam where step i adds a
horizontal strip of a_i boxes (at most one box per column).  Chains are
enumerated directly for full products; targeted multiplicities summed over
all compositions come from a Jacobi-Trudi determinant.  Chain counts and a
column-strict-filling count are kept as cross-checks.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Mapping

from .partitions import Partition, contains, dim_irreducible


class Decomposition:
    """A semisimple symmetric-group representation up to isomorphism.

    Immutable map from partitions of n to positive big-integer
    multiplicities; absent partitions have multiplicity 0.
    """

    __slots__ = ("n", "_terms", "_items")

    def __init__(self, n: int, terms: Mapping[Partition, int]):
        clean: dict[Partition, int] = {}
        for lam, mult in terms.items():
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {lam}")
            if sum(lam) != n:
                raise ValueError(f"partition {lam} does not have size {n}")
            clean[lam] = mult
        self.n = n
        self._terms = clean
        self._items = tuple(sorted(clean.items(), reverse=True))

    def multiplicity(self, lam: Partition) -> int:
        return self._terms.get(tuple(lam), 0)

    def items(self) -> tuple[tuple[Partition, int], ...]:
        """(partition, multiplicity) pairs in descending lexicographic order."""
        return self._items

    def support(self) -> tuple[Partition, ...]:
        return tuple(lam for lam, _ in self._items)

    def total_dimension(self) -> int:
        return sum(mult * dim_irreducible(lam) for lam, mult in self._items)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"partition": list(lam), "multiplicity": str(mult)}
                for lam, mult in self._items
            ],
        }

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Decomposition):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, self._items))

    def __repr__(self) -> str:
        body = ", ".join(f"{lam}: {mult}" for lam, mult in self._items)
        return f"Decomposition(n={self.n}, {{{body}}})"


def add_horizontal_strip(mu: Partition, boxes: int) -> tuple[Partition, ...]:
    """All partitions obtained from mu by adding `boxes` boxes, at most one
    per column.  Descending lexicographic order; multiplicity-free."""
    if boxes < 0:
        raise ValueError("strip size must be non-negative")
    results: list[Partition] = []
    h = len(mu)

    def build(row: int, remaining: int, prefix: Partition) -> None:
        if not remaining:
            results.append(prefix + mu[row:])
        elif row == h:
            results.append(prefix + (remaining,))
        else:
            # One box per column: row r >= 1 takes at most mu_{r-1} - mu_r
            # boxes, so the rows below row r take at most mu_r between them.
            high = remaining if row == 0 else min(remaining, mu[row - 1] - mu[row])
            for extra in range(high, max(remaining - mu[row], 0) - 1, -1):
                build(row + 1, remaining - extra, prefix + (mu[row] + extra,))

    build(0, boxes, ())
    return tuple(results)


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
def _chain_counts(mu: Partition, a: tuple[int, ...]) -> Mapping[Partition, int]:
    """Unsorted chain counts from mu over positive strip sizes a (read-only)."""
    if not a:
        # Keyed by the argument, so this table interns partitions: equal lam
        # reached along different chains is one tuple in every entry's keys.
        return {mu: 1}
    acc: dict[Partition, int] = {}
    for nxt in add_horizontal_strip(mu, a[0]):
        for lam, count in _chain_counts(nxt, a[1:]).items():
            acc[lam] = acc.get(lam, 0) + count
    return acc


def pieri_product(mu: Partition, a: tuple[int, ...]) -> Decomposition:
    """Decomposition of the induction of (S^mu) x trivial over the Young
    subgroup indexed by a; multiplicities count strip chains.  Zero parts of
    a are dropped before the memo lookup: (4, 0) and (4,) share one entry."""
    a = tuple(int(x) for x in a)
    if any(x < 0 for x in a):
        raise ValueError(f"composition entries must be non-negative: {a}")
    n = sum(mu) + sum(a)
    return Decomposition(n, _chain_counts(tuple(mu), tuple(x for x in a if x)))


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


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix by fraction-free Bareiss
    elimination, in which every division is exact; `rows` is overwritten."""
    sign, prev = 1, 1
    for k in range(len(rows) - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, len(rows)) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        pivot, pivot_row = rows[k][k], rows[k][k + 1 :]
        for row in rows[k + 1 :]:
            row[k + 1 :] = [
                (x * pivot - row[k] * y) // prev for x, y in zip(row[k + 1 :], pivot_row)
            ]
        prev = pivot
    return sign * rows[-1][-1] if rows else 1


@cache
def bounded_chain_count(mu: Partition, lam: Partition, steps: int) -> int:
    """Number of chains mu = mu(0) <= ... <= mu(steps) = lam where every step
    adds a horizontal strip of arbitrary (possibly zero) size.

    Equals the sum of chain_multiplicity(mu, a, lam) over all ordered
    length-`steps` compositions a of |lam| - |mu|, so it is the multiplicity
    of lam in the free-module level of a module with `steps` colors.  It is
    s_{lam/mu}(1^steps), computed as the Jacobi-Trudi determinant
    det[C(lam_i - mu_j - i + j + steps - 1, steps - 1)] (Macdonald I.(5.4));
    strip chains and characters cross-check it in the tests.
    """
    if not contains(lam, mu):
        return 0
    if steps == 0:
        return 1 if lam == mu else 0
    inner = mu + (0,) * (len(lam) - len(mu))
    diffs = [[lam[i] - inner[j] - i + j for j in range(len(lam))] for i in range(len(lam))]
    return _bareiss_determinant(
        [[math.comb(k + steps - 1, k) if k >= 0 else 0 for k in row] for row in diffs]
    )


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


def clear_caches() -> None:
    """Drop every memo table in fidmod (mainly for test isolation)."""
    from .characters import character_value  # characters imports this module

    for table in (_chain_counts, _chains_to, bounded_chain_count, character_value):
        table.cache_clear()
