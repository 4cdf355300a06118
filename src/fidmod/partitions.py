"""Integer partitions and Young-diagram arithmetic.

Partitions are canonical tuples of weakly decreasing positive integers;
the empty tuple is the empty partition.  Everything here is pure, exact
(Python big integers) and safe for concurrent use.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

Partition = tuple[int, ...]


class InvalidPartition(ValueError):
    """Sequence is not weakly decreasing or has non-positive entries."""


class TooLarge(ValueError):
    """Partition exceeds the exhaustive-enumeration bound."""


class UnsortedPads(ValueError):
    """Padding lengths must be weakly decreasing."""


class PaddedLabel(NamedTuple):
    """A core partition together with r row-padding lengths n_1 >= ... >= n_r."""

    core: Partition
    pads: tuple[int, ...]


def new_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a partition given as any integer iterable."""
    t = tuple(int(p) for p in parts)
    for i, p in enumerate(t):
        if p <= 0:
            raise InvalidPartition(f"parts must be positive, got {p} in {t}")
        if i and t[i - 1] < p:
            raise InvalidPartition(f"parts must be weakly decreasing, got {t}")
    return t


def contains(outer: Partition, inner: Partition) -> bool:
    """True iff the diagram of inner fits inside the diagram of outer."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram (column lengths)."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def dim_irreducible(lam: Partition) -> int:
    """Dimension of the irreducible symmetric-group representation of shape lam.

    Hook length formula, exact integer arithmetic.  The empty partition has
    dimension 1 (trivial representation of the trivial group).
    """
    n = sum(lam)
    conj = conjugate(lam)
    num = math.factorial(n)
    for i, row in enumerate(lam):
        for j in range(row):
            num //= row - j - 1 + conj[j] - i
    return num


#: Exhaustive tableau enumeration is kept below this many boxes; the count
#: grows like sqrt(n!) so 14 stays well under a second.
MAX_TABLEAU_BOXES = 14


def count_standard_tableaux(lam: Partition) -> int:
    """Count standard fillings of lam by explicit enumeration.

    Places the entries 1..n one at a time in every position that keeps rows
    and columns increasing, so each standard filling is visited exactly once.
    Independent of the hook length formula and off the production path: it
    stays in the package as the oracle that acceptance criterion 01 checks
    dim_irreducible against.
    """
    n = sum(lam)
    if n > MAX_TABLEAU_BOXES:
        raise TooLarge(f"|{lam}| = {n} exceeds enumeration bound {MAX_TABLEAU_BOXES}")
    filled = [0] * len(lam)

    def place(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for r in range(len(lam)):
            if filled[r] < lam[r] and (r == 0 or filled[r - 1] > filled[r]):
                filled[r] += 1
                total += place(remaining - 1)
                filled[r] -= 1
        return total

    return place(n)


def pad(lam: Partition, pads: Iterable[int]) -> Partition | None:
    """Prefix lam with rows of lengths n_i - |lam|.

    Returns None when the shortest pad is below |lam| + lam_1 (the label
    then denotes the zero representation).  The first part of the empty
    partition counts as 0.
    """
    p = tuple(int(x) for x in pads)
    for i in range(1, len(p)):
        if p[i - 1] < p[i]:
            raise UnsortedPads(f"pads must be weakly decreasing, got {p}")
    if not p:
        return lam
    size = sum(lam)
    first = lam[0] if lam else 0
    if p[-1] < size + first:
        return None
    rows = tuple(x - size for x in p) + lam
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    return rows


def compositions(total: int, length: int) -> Iterator[tuple[int, ...]]:
    """All length-tuples of non-negative integers summing to total.

    Emitted in descending lexicographic order, each exactly once.
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n (largest part at most max_part), descending lex order."""
    cap = n if max_part is None else min(max_part, n)
    if n == 0:
        yield ()
        return
    if cap < 1:
        return
    # Iterative, so the depth is not bounded by the recursion limit: fill the
    # freed boxes greedily with parts <= `part`, then lower the last part above 1.
    parts: list[int] = []
    part, freed = cap, n
    while True:
        parts += [part] * (freed // part) + ([freed % part] if freed % part else [])
        yield tuple(parts)
        freed = 0
        while parts and parts[-1] == 1:
            freed += parts.pop()
        if not parts:
            return
        part = parts.pop() - 1
        freed += part + 1


def multinomial(parts: Iterable[int]) -> int:
    """(sum parts)! / prod(part!) as an exact integer."""
    total = 0
    denom = 1
    for p in parts:
        total += p
        denom *= math.factorial(p)
    return math.factorial(total) // denom
