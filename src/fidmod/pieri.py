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
entry is interned, so an equal lam in different entries is one tuple.  A
full level reads only prefix tables: free_modules.decompose_at merges the
products over its classes' prefixes, and add_strips adds each last strip
under its leading block, as counts per (head, memoized tail strip), so the
level's own partitions, which no later strip of that level reads, are
neither interned nor cached, and each is joined from head + tail once per
distinct pair rather than once per strip.
Targeted multiplicities summed over all compositions are Jacobi-Trudi
determinants.  For a padded series lam = (top, *core) only the first row of
the matrix depends on top, so first_row_cofactors memoizes the expansion
along that row once per (mu, core, colors), and each degree of the series is
a sum of binomials.  A Decomposition is checked where a caller builds one.
"""

from __future__ import annotations

import math
import sys
from collections.abc import ItemsView, Iterable, Mapping
from functools import cache
from operator import index

from .partitions import (
    Partition, checked_count, composition_parts, contains, dim_irreducible, new_partition
)


class Decomposition:
    """A semisimple symmetric-group representation up to isomorphism.

    Immutable map from partitions of n to positive big-integer
    multiplicities; absent partitions have multiplicity 0.  The constructor
    reads a mapping or (partition, multiplicity) pairs, as dict() does, and
    is the one check of n, keys and multiplicities (zeros are dropped); the
    package wraps its own tables with the unchecked _of.  Ordered views are
    sorted, and the total dimension summed, on first read.
    """

    __slots__ = ("n", "_terms", "_items", "_dimension")

    def __init__(
        self, n: int, terms: Mapping[Partition, int] | Iterable[tuple[Partition, int]]
    ):
        n = checked_count(n, "degree")
        clean: dict[Partition, int] = {}
        for lam, mult in terms.items() if isinstance(terms, Mapping) else terms:
            lam, mult = new_partition(lam), checked_count(mult, "multiplicity")
            if sum(lam) != n:
                raise ValueError(f"partition {lam} does not have size {n}")
            if mult:
                clean[lam] = mult
        self.n, self._terms, self._items, self._dimension = n, clean, None, None

    @classmethod
    def _of(cls, n: int, terms: dict[Partition, int]) -> "Decomposition":
        """Unchecked: terms, partitions of n to multiplicities > 0, is kept."""
        self = cls.__new__(cls)
        self.n, self._terms, self._items, self._dimension = n, terms, None, None
        return self

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


@cache
def _interned(lam: Partition) -> Partition:
    """The first tuple equal to lam that was passed in (an identity table)."""
    return lam


@cache
def _strips(rows: Partition, boxes: int, cap: int) -> tuple[Partition, ...]:
    """Interned partitions obtained from `rows` by adding a horizontal strip
    of `boxes` boxes, at most `cap` of them in the first row.

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
        # The cap never binds here: a top-level call passes cap = boxes, and
        # the call on an empty tail below passes min(rest, part) = rest,
        # since extra >= boxes - part.
        return (_interned((boxes,)),)
    part = rows[0]
    block = rows[: rows.count(part)]
    tail = rows[len(block) :]
    gap = part - tail[0] if tail else part
    out: list[Partition] = []
    for extra in range(min(boxes, cap), max(boxes - part, 0) - 1, -1):
        head, rest = (part + extra, *block[1:]), boxes - extra
        out += [_interned(head + lam) for lam in _strips(tail, rest, min(rest, gap))]
    return tuple(out)


def add_strips(
    acc: dict[Partition, dict[Partition, int]],
    pairs: Iterable[tuple[Partition, int]],
    boxes: int,
) -> None:
    """For each (rows, count) in pairs and every partition head + tail of
    _strips(rows, boxes, boxes), add count into acc[head][tail].

    The head is the leading block of rows after the strip, split off here
    as in _strips, and the tail is one of the memoized, interned strips of
    the rows below it, so no partition of size |rows| + boxes is built,
    interned or cached here.  The caller joins head + tail once per
    distinct pair, which many strips of many rows share; the join must sum,
    since one partition can arise under heads of two lengths.  Empty rows
    give the head (boxes,) and the tail (): decompose_at returns early at
    n <= m, so every last strip has at least one box.
    """
    for rows, count in pairs:
        if not rows:
            sub = acc.setdefault((boxes,), {})
            sub[()] = sub.get((), 0) + count
            continue
        part = rows[0]
        block = rows[: rows.count(part)]
        tail, lower = rows[len(block) :], block[1:]
        gap = part - tail[0] if tail else part
        for extra in range(boxes, max(boxes - part, 0) - 1, -1):
            head, rest = (part + extra, *lower), boxes - extra
            sub = acc.get(head)
            if sub is None:
                sub = acc[head] = {}
            # The tail's cap is min(rest, gap), without the builtin call.
            for lam in _strips(tail, rest, rest if rest < gap else gap):
                sub[lam] = sub.get(lam, 0) + count


@cache
def _chain_counts(
    mu: Partition, a: tuple[int, ...]
) -> tuple[tuple[Partition, ...], tuple[int, ...]]:
    """Chain counts from mu over positive strip sizes a, as parallel tuples
    (partitions, counts) in no fixed order: the table of the prefix a[:-1]
    extended by one strip of a[-1] boxes; the base case checks mu."""
    if not a:
        return (_interned(new_partition(mu)),), (1,)
    boxes, acc = a[-1], {}
    for prev, count in zip(*_chain_counts(mu, a[:-1])):
        for lam in _strips(prev, boxes, boxes):
            acc[lam] = acc.get(lam, 0) + count
    return tuple(acc), tuple(acc.values())


def pieri_product(mu: Partition, a: tuple[int, ...]) -> Decomposition:
    """Decomposition of the induction of (S^mu) x trivial over the Young
    subgroup indexed by a; multiplicities count strip chains.  Zero parts of
    a are dropped before the memo lookup: (4, 0) and (4,) share one entry.
    _chain_counts checks each new mu; index refuses a float part on a hit."""
    mu, parts = tuple(mu), composition_parts(a)
    return Decomposition._of(index(sum(mu)) + sum(parts), dict(zip(*_chain_counts(mu, parts))))


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
    return _bareiss_determinant(_jacobi_trudi_rows(lam, inner, steps, 0))


def _jacobi_trudi_rows(
    lam: Partition, inner: tuple[int, ...], steps: int, first: int
) -> list[list[int]]:
    """Rows first.. of the Jacobi-Trudi matrix of s_{lam/inner}(1^steps),
    inner padded with zeros to len(lam) parts and steps >= 1: entry (i, j)
    is h(lam_i - inner_j - i + j), where h(k) = C(k + steps - 1, steps - 1)
    for k >= 0 and 0 otherwise."""
    size, lower_index = len(lam), steps - 1
    return [
        [math.comb(k + lower_index, lower_index)
         if (k := lam[i] - inner[j] - i + j) >= 0 else 0
         for j in range(size)]
        for i in range(first, size)
    ]


@cache
def first_row_cofactors(
    mu: Partition, core: Partition, steps: int
) -> tuple[tuple[int, int], ...]:
    """The (signed cofactor, offset) pairs, zero cofactors left out, that
    expand the Jacobi-Trudi determinant of s_{lam/mu}(1^steps) along its
    first row, for every lam = (top, *core) with top >= core_1:

        s_{lam/mu}(1^steps) = sum of cofactor * h(top + offset)

    with h as in bounded_chain_count (steps >= 1).  Only row 0 of the matrix
    depends on top, so one memo entry serves a whole padded series.  mu is
    padded with zeros to 1 + len(core) rows; the cofactor of column j is
    (-1)^j times the minor of rows 1.. without column j, and its offset is
    j - mu_j.  Precondition: core contains mu[1:], so mu has at most
    1 + len(core) parts; multiplicity_series skips every other mu, since no
    lam contains it.
    """
    size = 1 + len(core)
    inner = mu + (0,) * (size - len(mu))
    # Rows 1.. of the matrix: row 0 is left out, so the 0 standing for top is never read.
    lower = _jacobi_trudi_rows((0, *core), inner, steps, 1)
    pairs = []
    for j in range(size):
        cofactor = _bareiss_determinant([row[:j] + row[j + 1 :] for row in lower])
        if cofactor:
            pairs.append((-cofactor if j % 2 else cofactor, j - inner[j]))
    return tuple(pairs)


def clear_caches() -> None:
    """Empty every functools memo table found in the loaded fidmod modules
    (mainly for test isolation), so a new table is cleared without being
    named here; a module not yet imported has filled none."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == __package__:
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
