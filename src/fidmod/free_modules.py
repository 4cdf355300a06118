"""Free modules over the category of finite sets with d-colored injections.

A free module is determined by a color count d, a generator degree m and a
generator representation W (a Decomposition of degree m, checked where a
caller built it, or unchecked for M(m)).  Level n of the module decomposes
as a sum of iterated Pieri products over all length-d compositions of n - m,
which is what everything here computes, exactly.  Full levels sum the
products over each composition's prefix into one table per last part and
add that last strip as counts per (leading block, memoized tail strip),
joined into the level's table once per distinct pair, without memoizing
it; targeted multiplicities are Jacobi-Trudi determinants.  A padded
multiplicity never decreases as its pads shift up together, and its
plateau has a closed form in GL_d dimensions (both proofs are at
stabilized_padded_multiplicity), so a stabilization checks the guarantee
shift against that formula and finds the onset by bisection.  Public
functions check their arguments once, on entry, and their loops call the
unchecked kernel _multiplicity: a stabilization checks its core and pads
once, through `pad` at shift 0, and builds every other probe's label by
shifting the pad rows.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Iterator, NamedTuple, Sequence

from .partitions import (
    Partition,
    checked_count,
    contains,
    dim_irreducible,
    least_pad,
    new_partition,
    pad,
    partitions_of,
)
from .pieri import Decomposition, add_strips, bounded_chain_count, pieri_product


class NotContained(ValueError):
    """Greedy removal target is not contained in the starting partition."""


class NoStabilization(RuntimeError):
    """The multiplicity at guarantee_shift differs from the closed-form
    plateau.  The two are proved equal for every free module, so this is an
    internal invariant breach: a fault in the multiplicity kernel."""


class FreeModuleSpec:
    """Free module on a degree-m generator representation, with d colors.

    Immutable.  A slotted class rather than a NamedTuple: `spec.d` is read
    on every targeted multiplicity, and a slot reads faster than a tuple
    field property.
    """

    __slots__ = ("d", "generator")

    def __init__(self, d: int, generator: Decomposition):
        checked_count(d, "color count", 1)
        if not isinstance(generator, Decomposition):
            raise TypeError(f"generator must be a Decomposition, not {type(generator).__name__}")
        if not generator:
            raise ValueError("generator representation must be non-zero")
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
        gen = {lam: dim_irreducible(lam) for lam in partitions_of(checked_count(m, "m"))}
        return cls(d, Decomposition._of(m, gen))

    @classmethod
    def of_irreducible(cls, d: int, lam: Sequence[int]) -> "FreeModuleSpec":
        """M(S^lam): the free module on a single irreducible generator."""
        lam = tuple(lam)
        return cls(d, Decomposition(sum(lam), {lam: 1}))


def checked_spec(spec: FreeModuleSpec) -> FreeModuleSpec:
    """spec if it is a FreeModuleSpec, else TypeError naming its type: the
    one check of a spec argument."""
    if not isinstance(spec, FreeModuleSpec):
        raise TypeError(f"expected a FreeModuleSpec, got {type(spec).__name__}")
    return spec


def dim_at(spec: FreeModuleSpec, n: int) -> int:
    """Dimension of level n: dim(W) * C(n, m) * d^(n-m); 0 below degree m."""
    spec, n = checked_spec(spec), checked_count(n, "level")
    if n < spec.m:
        return 0
    return spec.generator.total_dimension() * math.comb(n, spec.m) * spec.d ** (n - spec.m)


def _composition_classes(total: int, length: int) -> Iterator[tuple[Partition, int]]:
    """Length-`length` compositions of `total` grouped up to permutation.

    Yields (non-zero parts in descending order, number of distinct
    rearrangements of the zero-padded composition); the Pieri product is
    invariant under permuting the composition, so each class is computed
    once.  A class with r parts and runs of equal parts of lengths k_1,
    k_2, ... has length! / ((length - r)! k_1! k_2! ...) rearrangements.
    """
    for parts in _partitions_in_rows(total, length, total):
        ways = math.perm(length, len(parts))
        for part in set(parts):
            ways //= math.factorial(parts.count(part))
        yield parts, ways


def _partitions_in_rows(total: int, rows: int, top: int) -> Iterator[Partition]:
    """Partitions of total into at most `rows` (>= 1) parts, each at most
    `top`, in descending lexicographic order.  A first part of at least
    total / rows leaves a remainder that the other rows can hold, so every
    branch yields; the recursion is one level per part."""
    if not total:
        yield ()
        return
    for first in range(min(total, top), -(-total // rows) - 1, -1):
        for rest in _partitions_in_rows(total - first, rows - 1, first):
            yield (first, *rest)


def decompose_at(spec: FreeModuleSpec, n: int) -> Decomposition:
    """Full irreducible decomposition of level n.

    Level m is the generator itself.  Above it, Pieri operators are linear:
    the memoized product over each class's prefix (its parts but the last)
    is scaled into one table per last part b, across classes and generator
    constituents.  add_strips adds each merged table's final strip of b
    boxes as counts under (leading block, memoized tail strip), and each
    distinct pair is joined into one partition of the level, so the level's
    own partitions are built once per level, never interned or memoized.
    """
    spec, n = checked_spec(spec), checked_count(n, "level")
    if n <= spec.m:
        return spec.generator if n == spec.m else Decomposition._of(n, {})
    merged: dict[int, dict[Partition, int]] = {}
    constituents = spec.generator.items()
    for parts, ways in _composition_classes(n - spec.m, spec.d):
        table, prefix = merged.setdefault(parts[-1], {}), parts[:-1]
        get = table.get
        for mu, weight in constituents:
            scale = weight * ways
            for lam, count in pieri_product(mu, prefix).unordered_items():
                table[lam] = get(lam, 0) + scale * count
    # Each table is dropped once read, so the prefix tables, the heads and
    # the level are never all held whole at once.
    heads: dict[Partition, dict[Partition, int]] = {}
    while merged:
        boxes, table = merged.popitem()
        add_strips(heads, table.items(), boxes)
    acc: dict[Partition, int] = {}
    while heads:
        head, tails = heads.popitem()
        for tail, count in tails.items():
            lam = head + tail
            acc[lam] = acc.get(lam, 0) + count
    return Decomposition._of(n, acc)


def constituent_multiplicity(spec: FreeModuleSpec, target: Partition) -> int:
    """Multiplicity of the irreducible `target` in level sum(target).

    Same value as decompose_at(spec, sum(target)).multiplicity(target) but
    without decomposing the whole level: each generator constituent mu adds
    its weight times a Jacobi-Trudi determinant (bounded_chain_count), which
    sums the strip chains over all compositions at once.  Constituents that
    target does not contain are skipped before the memoized call, so the
    memo does not fill with zeros nobody reads back.
    """
    return _multiplicity(checked_spec(spec), new_partition(target))


def _multiplicity(spec: FreeModuleSpec, label: Partition | None) -> int:
    """Unchecked constituent_multiplicity of a label from `pad` (None: 0)."""
    if label is None or sum(label) < spec.m:
        return 0
    d, total = spec.d, 0
    for mu, weight in spec.generator.items():
        if contains(label, mu):
            total += weight * bounded_chain_count(mu, label, d)
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
    below least_pad(core)) gives 0."""
    return _multiplicity(spec, _padded(spec, new_partition(core), pads))


def _padded(spec: FreeModuleSpec, core: Partition, pads: Sequence[int]) -> Partition | None:
    """pad(core, pads) for a checked core, once spec is checked and there
    are exactly d pads."""
    if len(pads) != checked_spec(spec).d:
        raise ValueError(f"pads must have length d = {spec.d}, got {len(pads)}")
    return pad(core, pads)


class StabilizationResult(NamedTuple):
    """The multiplicities of core[base_pads + l] equal `value` for every
    shift l >= onset; onset <= guarantee_shift, the structural bound at
    which the value was checked against the closed-form plateau."""

    core: Partition
    base_pads: tuple[int, ...]
    value: int
    onset: int
    guarantee_shift: int


def guarantee_shift(spec: FreeModuleSpec, base_pads: Sequence[int]) -> int:
    """Shift bound: multiplicities of labels with pads base_pads + shift are
    constant once shortest pad + shift reaches (first part of a generator
    constituent) + m, maximized over constituents.  items() is cached and
    sorted in descending lexicographic order, so its first constituent has
    the largest first part, which is also its largest part."""
    first = max(spec.generator.items()[0][0], default=0)
    return max(0, spec.m + first - base_pads[-1])


def stabilized_padded_multiplicity(
    spec: FreeModuleSpec, lam: Partition, base_pads: Sequence[int]
) -> StabilizationResult:
    """Stable value of the multiplicity c(l) of (lam, base_pads + l) as the
    shift l grows, with the smallest shift from which the value never changes.

    c(l) never decreases.  It is sum_mu w_mu s_{nu/mu}(1^d) with nu the
    label at shift l, and shift l + 1 adds one box to each of nu's d pad
    rows, its first d.  Expand s_{nu/mu} = sum_kappa c^nu_{mu kappa} s_kappa
    (the Littlewood-Richardson rule; Macdonald I.9, Fulton ch. 5); terms
    with l(kappa) > d vanish at 1^d.  Append the entry i + 1 to row i (from
    0) of an LR tableau of nu/mu of content kappa, for each i < d.  Rows
    stay weakly increasing (row i holds entries <= i + 1), columns stay
    strict (the box above a new box in row i holds at most i, and a box
    below it can only be the new i + 2 of row i + 1), and the reading word
    stays a lattice word (each added i + 1 is read after the added i).  So
    the map is an injection into the LR tableaux of nu+/mu of content
    kappa + 1^d, and s_{kappa + 1^d}(1^d) = s_kappa(1^d).

    The plateau is s_delta(1^d) * sum_mu w_mu s_{mu/lam}(1^d), where
    base_pads = (p_1 >= ... >= p_d) and delta is the partition of the
    non-zero p_i - p_d; s_kappa(1^d) is the dimension of the irreducible
    polynomial GL_d-module V_kappa (Fulton ch. 8), and both factors are
    bounded_chain_count values.  Let L = p_d + l - |lam|, so that
    nu = (nu', lam) with pad rows nu' = L^d + delta above lam, and every
    mu has |mu| = m.  A column of nu/mu longer than d makes s_{nu/mu}(1^d)
    0, so only mu containing lam count, on both sides; let |lam| <= m.
     1. As above, s_{nu/mu}(1^d) = sum_kappa c^nu_{kappa mu} s_kappa(1^d)
        over kappa with at most d rows (Macdonald I.5 and I.9).
     2. A kappa with c^nu_{kappa mu} != 0 lies in nu, hence in nu', and
        |kappa| = |nu| - m.  Its first d - 1 rows hold at most
        |nu'| - L boxes, so kappa_d >= L - m + |lam|.
     3. Let L >= m - |lam| + lam_1.  Then kappa_d >= lam_1, so nu/kappa is
        nu'/kappa in rows 1..d, right of column kappa_d, and lam below
        them in columns 1..lam_1: no row or column in common.  The skew
        Schur function of such a shape is the product over its pieces, so
        s_{nu/kappa} = s_{nu'/kappa} s_lam and, taking the coefficient of
        s_mu, c^nu_{kappa mu} = sum_rho c^{nu'}_{kappa rho} c^mu_{lam rho}.
     4. Summing step 1 over kappa by step 3 gives s_{nu/mu}(1^d) =
        sum_rho c^mu_{lam rho} s_{nu'/rho}(1^d).  (Every kappa with
        c^{nu'}_{kappa rho} c^mu_{lam rho} != 0 has |kappa| = |nu| - m
        and lies in nu', so step 2's bound covers the whole sum.)
     5. s_{nu'/rho}(1^d) = sum_kappa c^{nu'}_{rho kappa} dim V_kappa, and
        c^{nu'}_{rho kappa} is the multiplicity of V_kappa in
        V_rho* (x) V_nu'.  V_nu' = det^L (x) V_delta, and V_rho* (x) det^L
        is V_(L - rho_d, ..., L - rho_1), polynomial once L >= rho_1.  Then
        every constituent of V_rho* (x) V_nu' is polynomial and
        s_{nu'/rho}(1^d) = dim V_rho * dim V_delta = s_rho(1^d) s_delta(1^d)
        (both sides 0 when rho has more than d rows).  Every rho of step 4
        lies in mu, so L >= mu_1 suffices.
     6. Summing over rho, sum_rho c^mu_{lam rho} s_rho(1^d) =
        s_{mu/lam}(1^d), so c(l) = s_delta(1^d) sum_mu w_mu s_{mu/lam}(1^d)
        once L >= m - |lam| + lam_1 and L >= mu_1 for every constituent mu.
    c(l) therefore reaches the formula for all large l, and it is constant
    from guarantee_shift on (the stability property), so c(guarantee_shift)
    equals the formula; a mismatch is a kernel fault and raises
    NoStabilization.  s_{mu/lam}(1^d) is 0 unless lam <= mu <=
    (m^d, lam) (no column of mu/lam longer than d), and constituents outside
    that range are skipped before the memoized call.

    Shift 0 checks lam and the pads (through `pad`); every other shift
    goes to the kernel.  By the monotonicity the onset is the first shift
    below guarantee_shift at the stable value, found by bisection in about
    log2(guarantee_shift) shifts.  The result records lam as checked, the
    pads as a tuple, and guarantee_shift.
    """
    lam, pads = new_partition(lam), tuple(base_pads)
    start = _multiplicity(spec, _padded(spec, lam, pads))
    guarantee, d = guarantee_shift(spec, pads), spec.d
    rows, least = tuple(p - sum(lam) for p in pads), least_pad(lam)
    def c(l: int) -> int:
        # Once p_d + l >= least_pad(lam), every pad row holds at least
        # lam_1 boxes, and at least l >= 1 when lam is empty: no row is
        # empty, so the shifted rows and lam need no trailing zero dropped.
        if l and pads[-1] + l >= least:
            return _multiplicity(spec, tuple(r + l for r in rows) + lam)
        return 0 if l else start
    delta = tuple(p - pads[-1] for p in pads if p > pads[-1])
    box = (spec.m,) * d + lam  # s_{mu/lam}(1^d) is 0 unless lam <= mu <= box
    stable = bounded_chain_count((), delta, d) * sum(
        weight * bounded_chain_count(lam, mu, d)
        for mu, weight in spec.generator.items() if contains(mu, lam) and contains(box, mu)
    )
    if (top := c(guarantee)) != stable:
        raise NoStabilization(f"multiplicity {top} at shift {guarantee}, plateau {stable}")
    onset = bisect_left(range(guarantee), True, key=lambda l: c(l) == stable)
    return StabilizationResult(lam, pads, stable, onset, guarantee)
