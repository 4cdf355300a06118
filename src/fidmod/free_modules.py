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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .partitions import (
    PaddedLabel,
    Partition,
    UnsortedPads,
    ZERO_LABEL,
    conjugate,
    contains,
    dim_irreducible,
    multinomial,
    pad,
    partitions_of,
)
from .pieri import Decomposition, bounded_chain_count, pieri_product


class NotContained(ValueError):
    """Greedy removal target is not contained in the starting partition."""


class NoStabilization(RuntimeError):
    """No multiplicity plateau found within the search horizon."""


DEFAULT_STABILIZATION_HORIZON = 50
#: Shifts examined beyond the guaranteed stability point to confirm a plateau.
PLATEAU_CONFIRM_SHIFTS = 4


@dataclass(frozen=True)
class FreeModuleSpec:
    """Free module on a degree-m generator representation, with d colors."""

    d: int
    m: int
    generator: Decomposition

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"color count must be >= 1, got {self.d}")
        if self.m < 0:
            raise ValueError(f"generator degree must be >= 0, got {self.m}")
        if self.generator.n != self.m:
            raise ValueError(
                f"generator has degree {self.generator.n}, expected {self.m}"
            )
        if not self.generator:
            raise ValueError("generator representation must be non-zero")

    @classmethod
    def regular(cls, d: int, m: int) -> "FreeModuleSpec":
        """M(m): the free module on the full regular representation."""
        gen = {lam: dim_irreducible(lam) for lam in partitions_of(m)}
        return cls(d, m, Decomposition(m, gen))

    @classmethod
    def of_irreducible(cls, d: int, lam: Sequence[int]) -> "FreeModuleSpec":
        """M(S^lam): the free module on a single irreducible generator."""
        lam = tuple(lam)
        return cls(d, sum(lam), Decomposition(sum(lam), {lam: 1}))

    def generator_dimension(self) -> int:
        return self.generator.total_dimension()

    def describe(self) -> str:
        if self == FreeModuleSpec.regular(self.d, self.m):
            return f"M({self.m})"
        parts = " + ".join(
            (f"{mult}*" if mult > 1 else "") + f"S{list(lam)}"
            for lam, mult in self.generator.items()
        )
        return f"M({parts})"


def hom_count(d: int, m: int, n: int) -> int:
    """Number of morphisms [m] -> [n]: injections times colorings of the
    complement of the image; 0 when n < m."""
    if n < m:
        return 0
    return math.perm(n, m) * d ** (n - m)


def dim_at(spec: FreeModuleSpec, n: int) -> int:
    """Dimension of level n: dim(W) * C(n, m) * d^(n-m); 0 below degree m."""
    if n < spec.m:
        return 0
    return spec.generator_dimension() * math.comb(n, spec.m) * spec.d ** (n - spec.m)


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
    acc: Counter[Partition] = Counter()
    for comp, ways in _composition_classes(n - spec.m, spec.d):
        for mu, weight in spec.generator.items():
            for lam, count in pieri_product(mu, comp).items():
                acc[lam] += weight * ways * count
    return Decomposition(n, acc)


def constituent_multiplicity(spec: FreeModuleSpec, target: Partition) -> int:
    """Multiplicity of the irreducible `target` in level sum(target).

    Same value as decompose_at(spec, sum(target)).multiplicity(target) but
    without decomposing the whole level: each generator constituent mu adds
    its weight times a Jacobi-Trudi determinant (bounded_chain_count), which
    sums the strip chains over all compositions at once.
    """
    target = tuple(target)
    if sum(target) < spec.m:
        return 0
    return sum(
        weight * bounded_chain_count(mu, target, spec.d)
        for mu, weight in spec.generator.items()
    )


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
    steps equals the color count."""
    mu, lam = tuple(mu), tuple(lam)
    if not contains(mu, lam):
        return False
    cur = mu
    for _ in range(steps):
        if cur == lam:
            return True
        cur = greedy_step(cur, lam)
    return cur == lam


def d_weight(spec: FreeModuleSpec) -> int:
    """Largest core size over all d-row padded constituents, at any level.

    For a free module this equals the generator degree m.  The value is
    verified at one witness level: the minimal d-padding of a generator
    constituent must occur, and its core must have size m.
    """
    d, m = spec.d, spec.m
    kappa = min(spec.generator.support(), key=lambda lam: (lam[0] if lam else 0))
    first = kappa[0] if kappa else 0
    b = max(m + first, 1)
    witness_level = d * b - (d - 1) * m
    level = decompose_at(spec, witness_level)
    for mu, _ in level.items():
        if len(mu) >= d and sum(mu[d:]) == m:
            return m
    raise AssertionError(
        f"no level-{witness_level} constituent of {spec.describe()} attains core size {m}"
    )


def padded_multiplicity(spec: FreeModuleSpec, label: PaddedLabel) -> int:
    """Multiplicity of the padded representation named by `label` (which must
    carry exactly d pads) in its level.  Labels denoting the zero
    representation (unsorted pads, or shortest pad below |core| + core_1)
    give 0."""
    core, pads = tuple(label.core), tuple(label.pads)
    if len(pads) != spec.d:
        raise ValueError(f"label must have exactly {spec.d} pads, got {len(pads)}")
    if any(pads[i - 1] < pads[i] for i in range(1, len(pads))):
        return 0
    padded = pad(core, pads)
    if padded is ZERO_LABEL:
        return 0
    return constituent_multiplicity(spec, padded)


class StabilizationResult(NamedTuple):
    value: int
    onset: int


def _stability_guarantee(spec: FreeModuleSpec) -> int:
    """Shift bound: multiplicities of uniformly shifted labels are constant
    once shortest pad + shift reaches (first part of a generator
    constituent) + m, maximized over constituents."""
    return spec.m + max(lam[0] if lam else 0 for lam in spec.generator.support())


def stabilized_padded_multiplicity(
    spec: FreeModuleSpec,
    lam: Partition,
    base_pads: Sequence[int],
    horizon: int = DEFAULT_STABILIZATION_HORIZON,
) -> StabilizationResult:
    """Stable value of the multiplicity of (lam, base_pads + shift) as the
    shift grows, with the smallest shift from which the value never changes.

    The plateau is confirmed on PLATEAU_CONFIRM_SHIFTS extra shifts past the
    structural guarantee point; a non-constant tail there would falsify the
    stability property and raises NoStabilization loudly.
    """
    lam = tuple(lam)
    pads = tuple(int(x) for x in base_pads)
    if len(pads) != spec.d:
        raise ValueError(f"base pads must have length d = {spec.d}, got {len(pads)}")
    if any(pads[i - 1] < pads[i] for i in range(1, len(pads))):
        raise UnsortedPads(f"base pads must be weakly decreasing, got {pads}")
    guarantee = max(0, _stability_guarantee(spec) - pads[-1])
    last = guarantee + PLATEAU_CONFIRM_SHIFTS
    if last > horizon:
        raise NoStabilization(
            f"confirming the plateau needs shifts up to {last}, horizon is {horizon}"
        )
    values = [
        padded_multiplicity(spec, PaddedLabel(lam, tuple(p + l for p in pads)))
        for l in range(last + 1)
    ]
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
