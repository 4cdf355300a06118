"""Horizontal-strip combinatorics: iterated Pieri products by chain counting.

The multiplicity of lam in the product over a composition a equals the
number of chains mu = mu(0) <= ... <= mu(h) = lam where step i adds a
horizontal strip of a_i boxes (at most one box per column).  Chains are
enumerated directly for full products; targeted multiplicities summed over
all compositions come from a Jacobi-Trudi determinant.
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


def bareiss_eliminate(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) forward elimination, in place, of an integer
    matrix with at least as many columns as rows; every division is exact.

    Afterwards rows[k][c] for c >= k is the minor of the row-permuted matrix
    on rows 0..k and columns 0..k-1 plus c, so rows[k][k] is its leading
    minor of order k + 1; entries left of the diagonal are stale.  Returns
    the sign of the row permutation, or 0 when a column has no non-zero
    pivot, which leaves `rows` half eliminated.
    """
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
    return sign


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix; `rows` is overwritten."""
    return bareiss_eliminate(rows) * rows[-1][-1] if rows else 1


@cache
def bounded_chain_count(mu: Partition, lam: Partition, steps: int) -> int:
    """Number of chains mu = mu(0) <= ... <= mu(steps) = lam where every step
    adds a horizontal strip of arbitrary (possibly zero) size.

    Equals the multiplicity of lam in pieri_product(mu, a) summed over all
    ordered length-`steps` compositions a of |lam| - |mu|, so it is the
    multiplicity of lam in the free-module level of a module with `steps`
    colors.  It is s_{lam/mu}(1^steps), computed as the Jacobi-Trudi
    determinant det[C(lam_i - mu_j - i + j + steps - 1, steps - 1)]
    (Macdonald I.(5.4)); strip chains and characters cross-check it in the
    tests.
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


def clear_caches() -> None:
    """Drop every memo table in fidmod (mainly for test isolation)."""
    from .characters import _class_sizes, character_value  # characters imports this module

    for table in (_chain_counts, bounded_chain_count, character_value, _class_sizes):
        table.cache_clear()
