import itertools
import math

import pytest

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
from fidmod.partitions import compositions, dim_irreducible, partitions_of
from fidmod.pieri import pieri_product
from oracles import induced_character_by_definition


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
    with pytest.raises(NotACharacter):
        decompose(ClassFunction(2, {(1, 1): 1, (2,): -1000}))
    with pytest.raises(NotACharacter):
        decompose(ClassFunction(2, {(1, 1): 1, (2,): 0}))  # half of regular: not integral


def test_class_function_must_cover_all_classes():
    with pytest.raises(ValueError):
        ClassFunction(3, {(1, 1, 1): 1})


def test_degree_zero_induction():
    chi = induce_trivial_product((), (0,))
    assert chi.n == 0 and chi(()) == 1
    assert decompose(chi).multiplicity(()) == 1


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
