"""Free modules over the category of finite sets with d-colored injections.

A free module is determined by a color count d, a generator degree m and a
generator representation W (given as an irreducible decomposition of a
degree-m symmetric-group representation).  Level n of the module decomposes
as a sum of iterated Pieri products over all length-d compositions of n - m,
which is what everything here computes, exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import index
from typing import NamedTuple, Sequence

from .partitions import (
    Partition,
    conjugate,
    contains,
    dim_irreducible,
    multinomial,
    new_partition,
    pad,
    partitions_of,
)
from .pieri import Decomposition, bounded_chain_count, pieri_product


class NotContained(ValueError):
    """Greedy removal target is not contained in the starting partition."""


class NoStabilization(RuntimeError):
    """Multiplicities past guarantee_shift are not constant: for a free
    module that breaks the stability property, an internal invariant."""


#: Shifts examined beyond the guaranteed stability point to confirm a plateau.
PLATEAU_CONFIRM_SHIFTS = 4


class FreeModuleSpec:
    """Free module on a degree-m generator representation, with d colors.

    Immutable.  A slotted class rather than a NamedTuple: `spec.d` is read
    on every targeted multiplicity, and a slot reads faster than a tuple
    field property.
    """

    __slots__ = ("d", "generator")

    def __init__(self, d: int, generator: Decomposition):
        if index(d) < 1:  # a float color count raises TypeError
            raise ValueError(f"color count must be >= 1, got {d}")
        if not generator:
            raise ValueError("generator representation must be non-zero")
        for lam in generator.support():
            new_partition(lam)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "generator", generator)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"FreeModuleSpec is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"FreeModuleSpec is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.d == other.d and self.generator == other.generator

    def __hash__(self) -> int:
        return hash((self.d, self.generator))

    def __repr__(self) -> str:
        return f"FreeModuleSpec(d={self.d!r}, generator={self.generator!r})"

    def __reduce__(self):
        return FreeModuleSpec, (self.d, self.generator)

    @property
    def m(self) -> int:
        """Generator degree."""
        return self.generator.n

    @classmethod
    def regular(cls, d: int, m: int) -> "FreeModuleSpec":
        """M(m): the free module on the full regular representation."""
        gen = {lam: dim_irreducible(lam) for lam in partitions_of(m)}
        return cls(d, Decomposition(m, gen))

    @classmethod
    def of_irreducible(cls, d: int, lam: Sequence[int]) -> "FreeModuleSpec":
        """M(S^lam): the free module on a single irreducible generator."""
        lam = tuple(lam)
        return cls(d, Decomposition(sum(lam), {lam: 1}))


def dim_at(spec: FreeModuleSpec, n: int) -> int:
    """Dimension of level n: dim(W) * C(n, m) * d^(n-m); 0 below degree m."""
    if n < spec.m:
        return 0
    return spec.generator.total_dimension() * math.comb(n, spec.m) * spec.d ** (n - spec.m)


def _composition_classes(total: int, length: int) -> list[tuple[tuple[int, ...], int]]:
    """Length-`length` compositions of `total` grouped up to permutation.

    Returns (sorted representative, number of distinct rearrangements); the
    Pieri product is invariant under permuting the composition, so each class
    is computed once.  Representatives have at most `length` parts, so they
    are the conjugates of the partitions with parts at most `length`.
    """
    out = []
    for rep in map(conjugate, partitions_of(total, max_part=length)):
        zeros = length - len(rep)
        out.append((rep + (0,) * zeros, multinomial((zeros, *Counter(rep).values()))))
    return out


def decompose_at(spec: FreeModuleSpec, n: int) -> Decomposition:
    """Full irreducible decomposition of level n."""
    if n < spec.m:
        return Decomposition(n, {})
    acc: dict[Partition, int] = {}
    for comp, ways in _composition_classes(n - spec.m, spec.d):
        for mu, weight in spec.generator.items():
            scale = weight * ways
            for lam, count in pieri_product(mu, comp).unordered_items():
                acc[lam] = acc.get(lam, 0) + scale * count
    return Decomposition(n, acc)


def constituent_multiplicity(spec: FreeModuleSpec, target: Partition) -> int:
    """Multiplicity of the irreducible `target` in level sum(target).

    Same value as decompose_at(spec, sum(target)).multiplicity(target) but
    without decomposing the whole level: each generator constituent mu adds
    its weight times a Jacobi-Trudi determinant (bounded_chain_count), which
    sums the strip chains over all compositions at once.  Constituents that
    target does not contain are skipped before the memoized call, so the
    memo does not fill with zeros nobody reads back.
    """
    target = tuple(target)
    if sum(target) < spec.m:
        return 0
    d, total = spec.d, 0
    for mu, weight in spec.generator.items():
        if contains(target, mu):
            total += weight * bounded_chain_count(mu, target, d)
    return total


def greedy_step(mu: Partition, lam: Partition) -> Partition:
    """One round of greedy box removal: from every column, drop the bottom
    box unless it belongs to lam.  Closed form: row i becomes
    max(mu_{i+1}, lam_i).  The result still contains lam."""
    mu, lam = tuple(mu), tuple(lam)
    if not contains(mu, lam):
        raise NotContained(f"{lam} is not contained in {mu}")
    h = len(mu)
    rows = []
    for i in range(h):
        below = mu[i + 1] if i + 1 < h else 0
        keep = lam[i] if i < len(lam) else 0
        rows.append(max(below, keep))
    while rows and rows[-1] == 0:
        rows.pop()
    return tuple(rows)


def is_constituent(mu: Partition, lam: Partition, steps: int) -> bool:
    """True iff `steps` greedy rounds starting from mu reach exactly lam;
    equivalently, lam's free module contains S^mu at level |mu| when
    steps equals the color count.

    Nothing in the package calls it (bounded_chain_count(lam, mu, steps) > 0
    agrees); it stays, with greedy_step, as the statement that acceptance
    criterion 04 checks."""
    mu, lam = tuple(mu), tuple(lam)
    if not contains(mu, lam):
        return False
    cur = mu
    for _ in range(steps):
        if cur == lam:
            return True
        cur = greedy_step(cur, lam)
    return cur == lam


def padded_multiplicity(spec: FreeModuleSpec, core: Partition, pads: Sequence[int]) -> int:
    """Multiplicity of the padded representation core[pads] in its level.
    There must be exactly d pads; `pad` checks them as it checks every
    label's, and a label denoting the zero representation (shortest pad
    below |core| + core_1) gives 0."""
    if len(pads) != spec.d:
        raise ValueError(f"pads must have length d = {spec.d}, got {len(pads)}")
    padded = pad(tuple(core), pads)
    return 0 if padded is None else constituent_multiplicity(spec, padded)


class StabilizationResult(NamedTuple):
    value: int
    onset: int


def guarantee_shift(spec: FreeModuleSpec, base_pads: Sequence[int]) -> int:
    """Shift bound: multiplicities of labels with pads base_pads + shift are
    constant once shortest pad + shift reaches (first part of a generator
    constituent) + m, maximized over constituents."""
    first = max(lam[0] if lam else 0 for lam in spec.generator.support())
    return max(0, spec.m + first - base_pads[-1])


def stabilized_padded_multiplicity(
    spec: FreeModuleSpec, lam: Partition, base_pads: Sequence[int]
) -> StabilizationResult:
    """Stable value of the multiplicity of (lam, base_pads + shift) as the
    shift grows, with the smallest shift from which the value never changes.

    Computes shifts 0..guarantee_shift + PLATEAU_CONFIRM_SHIFTS, at most
    2m + 5 of them; a non-constant tail past guarantee_shift would falsify
    the stability property and raises NoStabilization.
    """
    lam, pads = tuple(lam), tuple(base_pads)
    values = [padded_multiplicity(spec, lam, pads)]  # checks the pads before they are read
    guarantee = guarantee_shift(spec, pads)
    for l in range(1, guarantee + PLATEAU_CONFIRM_SHIFTS + 1):
        values.append(padded_multiplicity(spec, lam, tuple(p + l for p in pads)))
    stable = values[guarantee]
    if any(v != stable for v in values[guarantee:]):
        raise NoStabilization(
            f"multiplicities {values} past shift {guarantee} are not constant; "
            "this contradicts the stability property for free modules"
        )
    onset = guarantee
    while onset > 0 and values[onset - 1] == stable:
        onset -= 1
    return StabilizationResult(stable, onset)
