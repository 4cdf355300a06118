"""Symmetric-group character tables and induced-character decomposition.

This is the brute-force oracle for the strip-chain machinery: character
values come from the Murnaghan-Nakayama recursion, inductions from Young
subgroups are power-sum products of the factors' Frobenius characteristics,
and decomposition into irreducibles is the usual inner product.  Two memo
tables per n serve them: `_class_sizes` lists the cycle types of S_n with
their class sizes, which class functions, inductions and decompositions all
read, and `_weighted_table` holds every irreducible with its hook-length
dimension and its character values weighted by class size, so that a
decomposition is one dot product per irreducible.  All arithmetic is exact.
"""

from __future__ import annotations

import math
from functools import cache
from operator import mul
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .partitions import Partition, composition_parts, dim_irreducible, new_partition, partitions_of
from .pieri import Decomposition

CycleType = Partition


class NotACharacter(ValueError):
    """Class function with a negative or non-integral irreducible multiplicity."""


class _ClassFunctionFields(NamedTuple):
    n: int
    values: Mapping[CycleType, int]


class ClassFunction(_ClassFunctionFields):
    """Integer-valued class function of a symmetric group, keyed by cycle type."""

    __slots__ = ()

    def __new__(cls, n: int, values: Mapping[CycleType, int]) -> "ClassFunction":
        expected = _class_sizes(n).keys()
        if values.keys() != expected:
            missing = expected - values.keys()
            raise ValueError(f"class function must cover every cycle type; missing {missing}")
        return super().__new__(cls, n, values)

    def __call__(self, rho: CycleType) -> int:
        return self.values[tuple(rho)]

    def identity_value(self) -> int:
        return self.values[(1,) * self.n]


def centralizer_order(rho: CycleType) -> int:
    """z_rho = prod k^{m_k} m_k! over cycle lengths k with multiplicity m_k."""
    z = 1
    mult: dict[int, int] = {}
    for k in rho:
        mult[k] = mult.get(k, 0) + 1
    for k, m in mult.items():
        z *= k**m * math.factorial(m)
    return z


def class_size(rho: CycleType) -> int:
    """Number of permutations with cycle type rho."""
    return math.factorial(sum(rho)) // centralizer_order(rho)


@cache
def _class_sizes(n: int) -> Mapping[CycleType, int]:
    """Read-only map from each cycle type of S_n, in `partitions_of` order,
    to its class size."""
    return MappingProxyType({rho: class_size(rho) for rho in partitions_of(n)})


def _strip_removals(lam: Partition, t: int) -> list[tuple[Partition, int]]:
    """Border strips of size t removable from lam, as (rest, sign) pairs.

    Beta-set formulation: first-column hook lengths b_i = lam_i + h - i are
    distinct; removing a strip of size t replaces some b by b - t, and the
    sign is (-1)^(number of beta values jumped over).
    """
    h = len(lam)
    beta = [lam[i] + h - 1 - i for i in range(h)]
    bset = set(beta)
    out = []
    for b in beta:
        c = b - t
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in beta if c < x < b)
        newbeta = [x for x in beta if x != b]
        newbeta.append(c)
        newbeta.sort(reverse=True)
        rest = tuple(nb - (h - 1 - i) for i, nb in enumerate(newbeta))
        while rest and rest[-1] == 0:
            rest = rest[:-1]
        out.append((rest, -1 if height % 2 else 1))
    return out


@cache
def character_value(lam: Partition, rho: CycleType) -> int:
    """chi^lam(rho) by the Murnaghan-Nakayama recursion."""
    if not lam:
        return 1 if not rho else 0
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: {lam} vs cycle type {rho}")
    total = 0
    for rest, sign in _strip_removals(lam, rho[0]):
        total += sign * character_value(rest, rho[1:])
    return total


def induce_trivial_product(mu: Partition, a: Sequence[int]) -> ClassFunction:
    """Character of S^mu x (trivial x ... x trivial) induced from the Young
    subgroup indexed by mu's size and the composition a, checked as
    pieri_product checks it: zero parts are trivial factors and skipped.

    The Frobenius characteristic of an induced product is the product of the
    factors' characteristics (Macdonald I.7).  Each factor of size k enters
    as k! times its characteristic, the integer map sigma -> chi(sigma) *
    class_size(sigma) in the power-sum basis, so that the product of power
    sums is the concatenation of cycle types; the induced value at rho is
    z_rho times the coefficient of p_rho, divided by the product of the k!.
    """
    mu = new_partition(mu)
    sizes = [sum(mu), *composition_parts(a)]
    first = _class_sizes(sizes[0])
    factors = [{s: character_value(mu, s) * size for s, size in first.items()}]
    factors += [_class_sizes(k) for k in sizes[1:]]
    product: dict[CycleType, int] = {(): 1}
    for factor in factors:
        terms: dict[CycleType, int] = {}
        for rho, coeff in product.items():
            for sigma, weight in factor.items():
                key = tuple(sorted(rho + sigma, reverse=True))
                terms[key] = terms.get(key, 0) + coeff * weight
        product = terms
    denom = math.prod(math.factorial(k) for k in sizes)
    n = sum(sizes)
    nfact = math.factorial(n)  # z_rho = n! / |class of rho|
    classes = _class_sizes(n)
    return ClassFunction(
        n, {rho: nfact // size * product.get(rho, 0) // denom for rho, size in classes.items()}
    )


@cache
def _weighted_table(n: int) -> tuple[tuple[Partition, int, tuple[int, ...]], ...]:
    """(lam, dim_irreducible(lam), row) for every lam of n, in `partitions_of`
    order, where row lists |class of rho| * chi^lam(rho) over the cycle types
    rho in `_class_sizes(n)` order."""
    sizes = _class_sizes(n)
    return tuple(
        (
            lam,
            dim_irreducible(lam),
            tuple(size * character_value(lam, rho) for rho, size in sizes.items()),
        )
        for lam in sizes
    )


def decompose(chi: ClassFunction) -> Decomposition:
    """Decompose a genuine character into irreducibles by inner products:
    the multiplicity of lam is its weighted row dotted with chi's values,
    over n!.

    Raises NotACharacter when any inner product is negative or
    non-integral, or when the multiplicities times the hook-length
    dimensions fail to add up to the dimension chi(identity).
    """
    n = chi.n
    nfact = math.factorial(n)
    vector = [chi.values[rho] for rho in _class_sizes(n)]
    terms: dict[Partition, int] = {}
    dimension = 0
    for lam, dim, row in _weighted_table(n):
        s = sum(map(mul, row, vector))
        mult, rem = divmod(s, nfact)
        if rem or mult < 0:
            raise NotACharacter(f"inner product with {lam} is {s}/{nfact}")
        if mult:
            terms[lam] = mult
            dimension += mult * dim
    if dimension != chi.identity_value():
        raise NotACharacter("multiplicities do not account for the dimension")
    return Decomposition._of(n, terms)
