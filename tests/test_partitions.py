import math
import operator

import pytest
from hypothesis import given, settings, strategies as st

from fidmod.partitions import (
    InvalidPartition,
    MAX_TABLEAU_BOXES,
    TooLarge,
    UnsortedPads,
    composition_parts,
    compositions,
    conjugate,
    contains,
    count_standard_tableaux,
    dim_irreducible,
    least_pad,
    multinomial,
    new_partition,
    pad,
    partitions_of,
)
from oracles import partitions_in_box


def test_new_partition_accepts_valid():
    assert new_partition([]) == ()
    assert new_partition([3, 1]) == (3, 1)
    assert new_partition((5, 5, 2)) == (5, 5, 2)


@pytest.mark.parametrize("bad", [[1, 2], [0], [3, -1], [2, 3, 1]])
def test_new_partition_rejects_invalid(bad):
    with pytest.raises(InvalidPartition):
        new_partition(bad)


def test_contains():
    assert contains((3, 2), (2, 1))
    assert not contains((3, 2), (3, 3))
    assert contains((7,), ())
    assert contains((), ())
    assert not contains((2,), (1, 1))


def test_conjugate():
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 2, 1))) == (4, 2, 2, 1)


def test_dim_irreducible_known_values():
    assert dim_irreducible(()) == 1
    assert dim_irreducible((6,)) == 1
    assert dim_irreducible((2, 1)) == 2
    assert dim_irreducible((3, 3)) == 5
    assert dim_irreducible((1,) * 5) == 1


def test_count_standard_tableaux_known_values():
    assert count_standard_tableaux((1, 1, 1)) == 1
    assert count_standard_tableaux((2, 1)) == 2
    assert count_standard_tableaux((2, 2)) == 2
    assert count_standard_tableaux(()) == 1


def test_count_standard_tableaux_bound():
    with pytest.raises(TooLarge):
        count_standard_tableaux((MAX_TABLEAU_BOXES + 1,))


@pytest.mark.parametrize("n", range(7))
def test_hook_formula_matches_enumeration(n):
    for lam in partitions_of(n):
        assert dim_irreducible(lam) == count_standard_tableaux(lam)


@pytest.mark.parametrize("n", range(9))
def test_squared_dimensions_sum_to_factorial(n):
    assert sum(dim_irreducible(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_pad_examples():
    assert pad((), (5,)) == (5,)
    assert pad((2, 1), (6, 5)) == (3, 2, 2, 1)
    assert pad((2, 1), (4,)) is None
    assert pad((), ()) == ()
    assert pad((), (0,)) == ()
    # The label denotes the zero representation exactly below |core| + core_1.
    for core in (core for size in range(7) for core in partitions_of(size)):
        least = sum(core) + (core[0] if core else 0)
        assert least_pad(core) == least
        for t in range(least + 3):
            assert (pad(core, (t,)) is None) == (t < least), (core, t)


def test_pad_rejects_unsorted():
    with pytest.raises(UnsortedPads):
        pad((1,), (3, 4))


def test_non_integer_parts_and_pads_are_refused_not_truncated():
    with pytest.raises(TypeError):
        new_partition((2.5,))
    with pytest.raises(TypeError):
        pad((1,), (3.7,))  # int() would have padded to (2, 1)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_unpad_then_pad_roundtrip(r):
    # Rows below the first r are the core; pads are the first r rows plus |core|.
    for mu in partitions_in_box(5, 5):
        if len(mu) < r:
            continue
        core = mu[r:]
        assert pad(core, tuple(row + sum(core) for row in mu[:r])) == mu


@pytest.mark.parametrize("r", [1, 2])
def test_pad_then_unpad_roundtrip(r):
    for core in partitions_in_box(3, 3):
        size = sum(core)
        first = core[0] if core else 0
        base = size + first
        for extra_last in range(3):
            for extra_first in range(3):
                pads = tuple(
                    sorted(
                        [base + extra_first] + [base + extra_last] * (r - 1),
                        reverse=True,
                    )
                )
                mu = pad(core, pads)
                assert mu is not None
                if len(mu) < r:
                    continue  # degenerate: a pad row of length zero vanished
                assert mu[r:] == core
                assert tuple(row + size for row in mu[:r]) == pads


def test_compositions_examples():
    assert list(compositions(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(compositions(0, 3)) == [(0, 0, 0)]
    assert len(list(compositions(3, 2))) == 4


def _composition_parts_by_generators(a):
    """composition_parts written with generator expressions, as the
    reference for its builtin form."""
    parts = tuple(map(operator.index, a))
    if any(x < 0 for x in parts):
        raise ValueError(f"composition entries must be non-negative: {parts}")
    return tuple(x for x in parts if x)


def _outcome(f, a):
    try:
        return f(a)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.integers(-3, 5), st.just(0)), max_size=8))
def test_composition_parts_matches_the_generator_form(a):
    # Same parts, or the same error type and message, on integer tuples with
    # zeros and negatives.
    assert _outcome(composition_parts, tuple(a)) == _outcome(
        _composition_parts_by_generators, tuple(a)
    )
    assert _outcome(composition_parts, iter(a)) == _outcome(
        _composition_parts_by_generators, tuple(a)
    )


@pytest.mark.parametrize("total,length", [(0, 1), (4, 1), (3, 2), (5, 3), (4, 4)])
def test_compositions_count_and_order(total, length):
    comps = list(compositions(total, length))
    assert len(comps) == math.comb(total + length - 1, length - 1)
    assert len(set(comps)) == len(comps)
    assert comps == sorted(comps, reverse=True)
    assert all(sum(a) == total and len(a) == length for a in comps)
    assert all(x >= 0 for a in comps for x in a)


def test_partitions_of_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    for n, count in enumerate(expected):
        parts = list(partitions_of(n))
        assert len(parts) == count
        assert parts == sorted(parts, reverse=True)
    # A partition of n has rows + first part <= n + 1, so these boxes hold all with n <= 12.
    boxed = {lam for rows in range(13) for lam in partitions_in_box(rows, 13 - rows)}
    for n in range(13):
        of_n = [lam for lam in boxed if sum(lam) == n]
        for k in range(n + 2):
            bounded = sorted((lam for lam in of_n if max(lam, default=0) <= k), reverse=True)
            assert list(partitions_of(n, k)) == bounded, (n, k)


def test_partitions_in_box_count():
    assert sum(1 for _ in partitions_in_box(6, 6)) == math.comb(12, 6)
    assert set(partitions_in_box(1, 2)) == {(), (1,), (2,)}


def test_multinomial():
    assert multinomial([2, 1]) == 3
    assert multinomial([0, 0, 4]) == 1
    assert multinomial([2, 2, 2]) == 90
