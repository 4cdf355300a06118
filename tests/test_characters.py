import itertools
import math
from collections import Counter

import pytest

from fidmod import characters
from fidmod.characters import (
    ClassFunction,
    NotACharacter,
    _class_sizes,
    centralizer_order,
    character_value,
    class_size,
    decompose,
    induce_trivial_product,
)
from fidmod.free_modules import FreeModuleSpec, decompose_at
from fidmod.partitions import compositions, dim_irreducible, partitions_of
from fidmod.pieri import Decomposition, clear_caches, pieri_product
from oracles import chain_multiplicity, induced_character_by_definition


def test_class_sizes_s3():
    assert class_size((1, 1, 1)) == 1
    assert class_size((2, 1)) == 3
    assert class_size((3,)) == 2


def test_class_sizes_sum_to_group_order():
    for n in range(11):
        table = _class_sizes(n)
        assert list(table) == list(partitions_of(n))
        assert all(size == class_size(rho) for rho, size in table.items())
        assert sum(table.values()) == math.factorial(n)


def test_centralizer_order():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 2, 1)) == 8


def test_trivial_and_sign_characters():
    for rho in partitions_of(5):
        assert character_value((5,), rho) == 1
    assert character_value((1, 1), (2,)) == -1
    # sign character: (-1)^(n - number of cycles)
    for rho in partitions_of(4):
        assert character_value((1, 1, 1, 1), rho) == (-1) ** (4 - len(rho))


def test_class_function_refuses_cycle_types_of_another_size():
    # character_value trusts its sizes: outside cycle types enter here.
    with pytest.raises(ValueError, match="must cover every cycle type"):
        ClassFunction(3, dict.fromkeys(partitions_of(4), 1))


def test_standard_character_s3():
    assert character_value((2, 1), (1, 1, 1)) == 2
    assert character_value((2, 1), (2, 1)) == 0
    assert character_value((2, 1), (3,)) == -1


@pytest.mark.parametrize("n", range(9))
def test_identity_value_is_dimension(n):
    for lam in partitions_of(n):
        assert character_value(lam, (1,) * n) == dim_irreducible(lam)


@pytest.mark.parametrize("n", range(1, 8))
def test_row_orthonormality(n):
    lams = list(partitions_of(n))
    classes = [(rho, class_size(rho)) for rho in lams]
    nfact = math.factorial(n)
    for i, lam in enumerate(lams):
        for mu in lams[i:]:
            inner = sum(
                size * character_value(lam, rho) * character_value(mu, rho)
                for rho, size in classes
            )
            assert inner == (nfact if lam == mu else 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_column_orthogonality(n):
    lams = list(partitions_of(n))
    for rho in lams:
        for sigma in lams:
            total = sum(
                character_value(lam, rho) * character_value(lam, sigma) for lam in lams
            )
            assert total == (centralizer_order(rho) if rho == sigma else 0)


def test_induce_regular_of_s2():
    chi = induce_trivial_product((1,), (1,))
    assert chi((1, 1)) == 2 and chi((2,)) == 0
    dec = decompose(chi)
    assert dec.multiplicity((2,)) == 1
    assert dec.multiplicity((1, 1)) == 1


def test_induce_one_box_onto_row():
    dec = decompose(induce_trivial_product((2,), (1,)))
    assert dec.multiplicity((3,)) == 1
    assert dec.multiplicity((2, 1)) == 1
    assert len(dec) == 2


def test_induce_trivial_from_whole_group():
    chi = induce_trivial_product((), (6,))
    assert all(v == 1 for v in chi.values.values())


def test_induce_skips_zero_parts():
    with_zeros = induce_trivial_product((2, 1), (2, 0, 1, 0))
    without = induce_trivial_product((2, 1), (2, 1))
    assert with_zeros == without


def test_induced_dimension_is_index_times_dim():
    chi = induce_trivial_product((2, 1), (2, 1))
    n, m = 6, 3
    expected = dim_irreducible((2, 1)) * math.factorial(n) // (
        math.factorial(m) * math.factorial(2) * math.factorial(1)
    )
    assert chi.identity_value() == expected


def test_decompose_regular_representation():
    reg = ClassFunction(3, {(1, 1, 1): 6, (2, 1): 0, (3,): 0})
    dec = decompose(reg)
    assert dec.multiplicity((3,)) == 1
    assert dec.multiplicity((2, 1)) == 2
    assert dec.multiplicity((1, 1, 1)) == 1


def test_decompose_irreducible_is_itself():
    dec = decompose(ClassFunction(3, {(1, 1, 1): 2, (2, 1): 0, (3,): -1}))
    assert dec.items() == (((2, 1), 1),)


def test_decompose_mixed_character():
    chi = ClassFunction(3, {(1, 1, 1): 4, (2, 1): 2, (3,): 1})
    dec = decompose(chi)
    assert dec.multiplicity((3,)) == 2
    assert dec.multiplicity((2, 1)) == 1
    assert len(dec) == 2


def test_decompose_rejects_non_characters():
    with pytest.raises(NotACharacter, match="inner product"):
        decompose(ClassFunction(2, {(1, 1): 1, (2,): -1000}))
    with pytest.raises(NotACharacter, match="inner product"):
        decompose(ClassFunction(2, {(1, 1): 1, (2,): 0}))  # half of regular: not integral
    # chi^(2) - chi^(1,1): its dimension 1 - 1 = 0 adds up, so only the sign
    # of an inner product refuses it.
    with pytest.raises(NotACharacter, match="inner product"):
        decompose(ClassFunction(2, {(1, 1): 0, (2,): 2}))


def test_class_function_must_cover_all_classes():
    with pytest.raises(ValueError):
        ClassFunction(3, {(1, 1, 1): 1})


def test_degree_zero_induction():
    chi = induce_trivial_product((), (0,))
    assert chi.n == 0 and chi(()) == 1
    assert decompose(chi).multiplicity(()) == 1


@pytest.mark.parametrize("a, error", [((2, -1), ValueError), ((1.5,), TypeError)])
def test_oracle_refuses_the_compositions_the_product_refuses(a, error):
    # One rule for both routes: the oracle used to drop a negative part.
    with pytest.raises(error):
        pieri_product((1,), a)
    with pytest.raises(error):
        induce_trivial_product((1,), a)


@pytest.mark.parametrize("msize", range(4))
def test_induction_matches_pieri_small(msize):
    for mu in partitions_of(msize):
        for total in range(5 - msize):
            for length in (1, 2):
                for a in compositions(total, length):
                    assert decompose(induce_trivial_product(mu, a)) == pieri_product(mu, a)


def test_induction_matches_definition():
    cases = 0
    for msize in range(7):
        for mu in partitions_of(msize):
            for total in range(7 - msize):
                for length in (1, 2, 3):
                    for a in compositions(total, length):
                        expected = induced_character_by_definition(mu, a)
                        assert induce_trivial_product(mu, a) == expected, (mu, a)
                        cases += 1
    assert cases == 605


def test_induction_depends_only_on_the_multiset_of_nonzero_parts():
    # cli.oracle_scan shares one induced character among such compositions.
    for msize in range(7):
        for mu in partitions_of(msize):
            for total in range(7 - msize):
                for parts in partitions_of(total):
                    expected = induce_trivial_product(mu, parts)
                    for padded in (parts, parts + (0,), (0,) + parts + (0,)):
                        for a in set(itertools.permutations(padded)):
                            assert induce_trivial_product(mu, a) == expected, (mu, a)


@pytest.mark.parametrize(
    "mu, a",
    [((2, 1), (1, 0, 2, 1)), ((1, 1), (2, 0, 1, 1, 0)), ((), (1, 2, 0, 1, 1)), ((1,), (0, 1, 3))],
)
def test_reordered_induction_matches_definition(mu, a):
    expected = induced_character_by_definition(mu, a)
    assert induce_trivial_product(mu, a) == expected
    assert induce_trivial_product(mu, sorted(a, reverse=True)) == expected


def test_decompose_checks_dimension_against_hook_lengths(monkeypatch):
    # Reading chi^lam(identity) off the weighted table would make the
    # dimension check an identity; a wrong hook-length dim must fail it.
    clear_caches()
    true_dim = characters.dim_irreducible
    monkeypatch.setattr(
        characters, "dim_irreducible", lambda lam: true_dim(lam) + (lam == (3, 1))
    )
    regular = ClassFunction(4, {rho: 24 * (rho == (1, 1, 1, 1)) for rho in partitions_of(4)})
    try:
        with pytest.raises(NotACharacter, match="dimension"):
            decompose(regular)
    finally:
        clear_caches()


def _level_character(mu, d: int, n: int) -> ClassFunction:
    """Character of level n of M(S^mu) with d colors: the inductions over the
    compositions of n - |mu| into d parts, one per class of rearrangements
    weighted by the class size."""
    classes = Counter(tuple(sorted(a)) for a in compositions(n - sum(mu), d))
    values = dict.fromkeys(partitions_of(n), 0)
    for parts, ways in classes.items():
        for rho, value in induce_trivial_product(mu, parts).values.items():
            values[rho] += ways * value
    return ClassFunction(n, values)


def test_whole_levels_match_character_oracle():
    # Three routes to a full level: the level's character decomposed by
    # inner products, decompose_at, and strip chains over every ordered
    # composition.
    cases = 0
    for d in (1, 2, 3):
        for m in range(5):
            for mu in partitions_of(m):
                spec = FreeModuleSpec.of_irreducible(d, mu)
                for n in range(m, 9):
                    by_characters = decompose(_level_character(mu, d, n))
                    by_chains = Decomposition(n, {
                        lam: sum(chain_multiplicity(mu, a, lam) for a in compositions(n - m, d))
                        for lam in partitions_of(n)
                    })
                    assert by_characters == decompose_at(spec, n) == by_chains, (d, mu, n)
                    cases += 1
    assert cases == 222
