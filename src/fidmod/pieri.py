"""Horizontal-strip combinatorics: iterated Pieri products by chain counting.

The multiplicity of lam in the product over a composition a equals the
number of chains mu = mu(0) <= ... <= mu(h) = lam where step i adds a
horizontal strip of a_i boxes (at most one box per column).  Chains are
counted directly for full products, growing forward: the table for a is the
memoized table for its prefix a[:-1] extended by one strip of a[-1] boxes,
so products over compositions that share a prefix share its table.  A table
is two parallel tuples, partitions and counts.  Strips are built block by
block of equal rows: only the first row of a block can take boxes, and the
rest of the strip comes from the memoized strips of the next block's tail,
so partitions that share a tail share its strips.  Every partition in a memo
entry is interned, so an equal lam in different entries is one tuple.
Targeted multiplicities summed over all compositions come from a
Jacobi-Trudi determinant.
"""

from __future__ import annotations

import math
from collections.abc import ItemsView, Iterable, Mapping
from functools import cache

from .partitions import Partition, composition_parts, contains, dim_irreducible


class Decomposition:
    """A semisimple symmetric-group representation up to isomorphism.

    Immutable map from partitions of n to positive big-integer
    multiplicities; absent partitions have multiplicity 0.  Built from a
    mapping or from (partition, multiplicity) pairs, as dict() is; the
    ordered views are sorted, and the total dimension summed, on first read.
    """

    __slots__ = ("n", "_terms", "_items", "_dimension")

    def __init__(
        self, n: int, terms: Mapping[Partition, int] | Iterable[tuple[Partition, int]]
    ):
        clean: dict[Partition, int] = {}
        for lam, mult in terms.items() if isinstance(terms, Mapping) else terms:
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {lam}")
            if sum(lam) != n:
                raise ValueError(f"partition {lam} does not have size {n}")
            clean[lam] = mult
        self.n = n
        self._terms = clean
        self._items: tuple[tuple[Partition, int], ...] | None = None
        self._dimension: int | None = None

    def multiplicity(self, lam: Partition) -> int:
        return self._terms.get(tuple(lam), 0)

    def items(self) -> tuple[tuple[Partition, int], ...]:
        """(partition, multiplicity) pairs in descending lexicographic order."""
        if self._items is None:
            self._items = tuple(sorted(self._terms.items(), reverse=True))
        return self._items

    def unordered_items(self) -> ItemsView[Partition, int]:
        """(partition, multiplicity) pairs in no fixed order, for callers that
        only sum them; a read-only view that sorts nothing."""
        return self._terms.items()

    def support(self) -> tuple[Partition, ...]:
        return tuple(lam for lam, _ in self.items())

    def total_dimension(self) -> int:
        if self._dimension is None:
            self._dimension = sum(mult * dim_irreducible(lam) for lam, mult in self._terms.items())
        return self._dimension

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"partition": list(lam), "multiplicity": str(mult)}
                for lam, mult in self.items()
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
        return hash((self.n, self.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{lam}: {mult}" for lam, mult in self.items())
        return f"Decomposition(n={self.n}, {{{body}}})"


def add_horizontal_strip(mu: Partition, boxes: int) -> tuple[Partition, ...]:
    """All partitions obtained from mu by adding `boxes` boxes, at most one
    per column.  Descending lexicographic order; multiplicity-free; the
    partitions are interned and the tuple is memoized (read-only)."""
    if boxes < 0:
        raise ValueError("strip size must be non-negative")
    return _strips(tuple(mu), boxes, boxes)


@cache
def _interned(lam: Partition) -> Partition:
    """The first tuple equal to lam that was passed in (an identity table)."""
    return lam


@cache
def _strips(rows: Partition, boxes: int, cap: int) -> tuple[Partition, ...]:
    """Interned partitions obtained from `rows` by adding a horizontal strip
    of `boxes` boxes, at most `cap` of them in the first row; descending
    lexicographic order.

    Of the leading block of equal rows only the first row can take boxes
    (every other row takes at most its gap to the row above, here 0).  The
    rest of the strip, at most the block's part, comes from the memoized
    strips of the next block's tail with the gap between the blocks as its
    cap (a new last row is capped by the part), so the recursion depth is
    the number of distinct parts, not of rows.  Callers pass a cap of at
    most `boxes` (a larger one means the same), so the tails of different
    partitions share memo entries.
    """
    if not boxes:
        return (_interned(rows),)
    if not rows:
        return (_interned((boxes,)),) if boxes <= cap else ()
    part = rows[0]
    block = rows[: rows.count(part)]
    tail = rows[len(block) :]
    gap = part - tail[0] if tail else part
    out: list[Partition] = []
    for extra in range(min(boxes, cap), max(boxes - part, 0) - 1, -1):
        head, rest = (part + extra, *block[1:]), boxes - extra
        out += [_interned(head + lam) for lam in _strips(tail, rest, min(rest, gap))]
    return tuple(out)


@cache
def _chain_counts(
    mu: Partition, a: tuple[int, ...]
) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """Chain counts from mu over positive strip sizes a, as parallel tuples
    (partitions, counts) in no fixed order: the table of the prefix a[:-1]
    extended by one strip of a[-1] boxes."""
    if not a:
        return (_interned(mu),), (1,)
    boxes, acc = a[-1], {}
    for prev, count in zip(*_chain_counts(mu, a[:-1])):
        for lam in add_horizontal_strip(prev, boxes):
            acc[lam] = acc.get(lam, 0) + count
    return tuple(acc), tuple(acc.values())


def pieri_product(mu: Partition, a: tuple[int, ...]) -> Decomposition:
    """Decomposition of the induction of (S^mu) x trivial over the Young
    subgroup indexed by a; multiplicities count strip chains.  Zero parts of
    a are dropped before the memo lookup: (4, 0) and (4,) share one entry."""
    parts = composition_parts(a)
    return Decomposition(sum(mu) + sum(parts), zip(*_chain_counts(tuple(mu), parts)))


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
    from . import characters  # characters imports this module

    for table in (
        _chain_counts,
        _strips,
        _interned,
        bounded_chain_count,
        characters.character_value,
        characters._class_sizes,
        characters._weighted_table,
    ):
        table.cache_clear()
