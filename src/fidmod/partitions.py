"""Integer partitions and Young-diagram arithmetic.

Partitions are canonical tuples of weakly decreasing positive integers;
the empty tuple is the empty partition.  Everything here is pure, exact
(Python big integers) and safe for concurrent use.
"""

from __future__ import annotations

import math
from operator import index, le, lt
from typing import Iterable, Iterator

Partition = tuple[int, ...]


class InvalidPartition(ValueError):
    """Sequence is not weakly decreasing or has non-positive entries."""


class TooLarge(ValueError):
    """Partition exceeds the exhaustive-enumeration bound."""


class UnsortedPads(ValueError):
    """Padding lengths must be weakly decreasing."""


def new_partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a partition given as any integer iterable;
    a non-integer part raises TypeError (operator.index), not truncated."""
    t = tuple(map(index, parts))
    for i, p in enumerate(t):
        if p <= 0:
            raise InvalidPartition(f"parts must be positive, got {p} in {t}")
        if i and t[i - 1] < p:
            raise InvalidPartition(f"parts must be weakly decreasing, got {t}")
    return t


def checked_count(value: int, what: str, least: int = 0) -> int:
    """value if it is an integer (else TypeError, never truncated) of at least
    `least` (else ValueError): a level, degree, degree bound or color count."""
    value = index(value)
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def contains(outer: Partition, inner: Partition) -> bool:
    """True iff the diagram of inner fits inside the diagram of outer."""
    return len(inner) <= len(outer) and all(map(le, inner, outer))


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


def least_pad(core: Partition) -> int:
    """|core| + core_1, the least pad at which a padded label of core denotes
    a non-zero representation (the first part of the empty partition is 0)."""
    return sum(core) + (core[0] if core else 0)


def pad(lam: Partition, pads: Iterable[int]) -> Partition | None:
    """The padded label lam[n_1, ..., n_r]: lam prefixed with rows of
    lengths n_i - |lam| (lam already a partition).  The one check of a
    label's pads: integers (else TypeError, never truncated), weakly
    decreasing (else UnsortedPads) and >= 0 (else ValueError).  None when
    the shortest pad is below least_pad(lam): the label denotes the zero
    representation."""
    p = tuple(map(index, pads))
    if any(map(lt, p, p[1:])):
        raise UnsortedPads(f"pads must be weakly decreasing, got {p}")
    if not p:
        return lam
    if p[-1] < 0:  # inline: `pad` runs once per probed shift
        raise ValueError(f"pads must be >= 0, got {p}")
    if p[-1] < least_pad(lam):
        return None
    size = sum(lam)
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


def composition_parts(a: Iterable[int]) -> tuple[int, ...]:
    """The non-zero parts of the composition a, in order.  A negative part
    raises ValueError and a non-integer one TypeError (operator.index)."""
    parts = tuple(map(index, a))
    if parts and min(parts) < 0:
        raise ValueError(f"composition entries must be non-negative: {parts}")
    return tuple(filter(None, parts)) if 0 in parts else parts


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
