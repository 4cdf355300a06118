import importlib
import math
import pkgutil
import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import fidmod
from fidmod import characters
from fidmod.free_modules import FreeModuleSpec, constituent_multiplicity, decompose_at
from fidmod.partitions import (
    compositions,
    conjugate,
    contains,
    dim_irreducible,
    multinomial,
    partitions_of,
)
from fidmod.pieri import (
    Decomposition,
    _bareiss_determinant,
    _chain_counts,
    _strips,
    add_horizontal_strip,
    bounded_chain_count,
    clear_caches,
    pieri_product,
)
from oracles import chain_multiplicity, remove_horizontal_strip, skew_filling_count


def test_add_horizontal_strip_examples():
    assert set(add_horizontal_strip((1,), 1)) == {(2,), (1, 1)}
    assert set(add_horizontal_strip((2,), 2)) == {(4,), (3, 1), (2, 2)}
    assert add_horizontal_strip((3, 1), 0) == ((3, 1),)
    assert set(add_horizontal_strip((), 3)) == {(3,)}
    with pytest.raises(ValueError, match="non-negative"):
        add_horizontal_strip((2, 1), -1)


def test_add_horizontal_strip_is_multiplicity_free_and_sorted():
    for musize in range(5):
        for mu in partitions_of(musize):
            for a in range(4):
                out = add_horizontal_strip(mu, a)
                assert len(set(out)) == len(out)
                assert list(out) == sorted(out, reverse=True)
                for lam in out:
                    assert sum(lam) == musize + a
                    assert contains(lam, mu)
                    # at most one new box per column
                    assert all(
                        lam[i + 1] <= mu[i] for i in range(len(lam) - 1) if i < len(mu)
                    )
                    assert len(lam) <= len(mu) + 1


def test_remove_is_inverse_of_add():
    for musize in range(5):
        for mu in partitions_of(musize):
            for a in range(4):
                for lam in add_horizontal_strip(mu, a):
                    assert mu in remove_horizontal_strip(lam, a)
    for lamsize in range(1, 6):
        for lam in partitions_of(lamsize):
            for a in range(lamsize + 1):
                for mu in remove_horizontal_strip(lam, a):
                    assert lam in add_horizontal_strip(mu, a)


def _is_horizontal_strip(lam, mu):
    """lam/mu is a horizontal strip: mu inside lam, at most one box per column."""
    return contains(lam, mu) and all(
        lam[i + 1] <= (mu[i] if i < len(mu) else 0) for i in range(len(lam) - 1)
    )


def test_add_horizontal_strip_matches_brute_force():
    for musize in range(7):
        for mu in partitions_of(musize):
            for boxes in range(7):
                expected = tuple(
                    lam for lam in partitions_of(musize + boxes) if _is_horizontal_strip(lam, mu)
                )
                out = add_horizontal_strip(mu, boxes)
                assert out == expected, (mu, boxes)
                assert all(x > y for x, y in zip(out, out[1:]))


def test_strips_match_brute_force_for_every_cap():
    # _strips(rows, boxes, cap) puts at most `cap` boxes in the first row.
    # Its memo serves tails of many partitions, and every partition it
    # returns is interned: equal outputs of different calls are one tuple.
    clear_caches()
    seen = {}
    for size in range(8):
        for rows in partitions_of(size):
            for boxes in range(8):
                strips = [
                    lam for lam in partitions_of(size + boxes) if _is_horizontal_strip(lam, rows)
                ]
                for cap in range(boxes + 1):
                    expected = tuple(lam for lam in strips if sum(lam[:1]) - sum(rows[:1]) <= cap)
                    out = _strips(rows, boxes, cap)
                    assert out == expected, (rows, boxes, cap)
                    for lam in out:
                        assert seen.setdefault(lam, lam) is lam, (rows, boxes, cap, lam)


def test_remove_horizontal_strip_matches_brute_force():
    for lamsize in range(7):
        for lam in partitions_of(lamsize):
            for boxes in range(lamsize + 2):
                expected = tuple(
                    mu for mu in partitions_of(lamsize - boxes) if _is_horizontal_strip(lam, mu)
                )
                assert remove_horizontal_strip(lam, boxes) == expected, (lam, boxes)


def test_pieri_product_examples():
    dec = pieri_product((1,), (1, 1))
    assert dec.multiplicity((3,)) == 1
    assert dec.multiplicity((2, 1)) == 2
    assert dec.multiplicity((1, 1, 1)) == 1
    assert pieri_product((), (7,)).items() == (((7,), 1),)
    dec = pieri_product((2,), (1, 0))
    assert dec.multiplicity((3,)) == 1 and dec.multiplicity((2, 1)) == 1 and len(dec) == 2
    with pytest.raises(ValueError, match="non-negative"):
        pieri_product((1,), (2, -1))


def test_chain_multiplicity_examples():
    assert chain_multiplicity((1,), (1, 1), (2, 1)) == 2
    assert chain_multiplicity((1,), (2, 1), (2, 1)) == 0  # size mismatch
    assert chain_multiplicity((), (1, 1), (2,)) == 1
    assert chain_multiplicity((2, 2), (1,), (2, 1, 1, 1)) == 0  # not containing


def _all_test_cases(max_total, max_len):
    for musize in range(max_total + 1):
        for mu in partitions_of(musize):
            for total in range(max_total - musize + 1):
                for length in range(1, max_len + 1):
                    yield mu, total, length


def test_chain_multiplicity_agrees_with_product():
    for mu, total, length in _all_test_cases(5, 2):
        for a in compositions(total, length):
            dec = pieri_product(mu, a)
            for lam in partitions_of(sum(mu) + total):
                assert chain_multiplicity(mu, a, lam) == dec.multiplicity(lam)


def test_dimension_conservation():
    for mu, total, length in _all_test_cases(6, 3):
        for a in compositions(total, length):
            dec = pieri_product(mu, a)
            expected = dim_irreducible(mu) * multinomial((sum(mu), *a))
            assert dec.total_dimension() == expected, (mu, a)


def test_symmetry_under_permuting_composition():
    cases = [((1,), (2, 0, 1)), ((2, 1), (1, 2)), ((), (3, 1)), ((3,), (0, 2, 2))]
    for mu, a in cases:
        reference = pieri_product(mu, a)
        for perm in set(permutations(a)):
            assert pieri_product(mu, perm) == reference


def test_zero_padding_neutrality():
    for mu, a in [((2,), (1,)), ((1, 1), (2, 1)), ((), (4,))]:
        base = pieri_product(mu, a)
        assert pieri_product(mu, a + (0, 0)) == base
        assert pieri_product(mu, (0,) + a) == base


def test_single_step_is_multiplicity_free():
    for musize in range(6):
        for mu in partitions_of(musize):
            for a in range(5):
                dec = pieri_product(mu, (a,))
                assert all(mult == 1 for _, mult in dec.items())


def test_skew_filling_count_matches_chains():
    for mu, total, length in _all_test_cases(5, 3):
        for a in compositions(total, length):
            for lam in partitions_of(sum(mu) + total):
                assert skew_filling_count(lam, mu, a) == chain_multiplicity(mu, a, lam)


def test_bounded_chain_count_sums_compositions():
    for mu, total, length in _all_test_cases(5, 3):
        for lam in partitions_of(sum(mu) + total):
            expected = sum(
                chain_multiplicity(mu, a, lam) for a in compositions(total, length)
            )
            assert bounded_chain_count(mu, lam, length) == expected


def _lam_mu_pairs():
    """lam with |lam| <= 8 and some mu contained in lam."""
    lams = [lam for n in range(9) for lam in partitions_of(n)]
    return st.sampled_from(lams).flatmap(
        lambda lam: st.tuples(
            st.sampled_from(
                [mu for k in range(sum(lam) + 1) for mu in partitions_of(k) if contains(lam, mu)]
            ),
            st.just(lam),
        )
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_lam_mu_pairs(), st.integers(min_value=0, max_value=4))
def test_bounded_chain_count_agrees_with_chains_and_characters(pair, d):
    mu, lam = pair
    comps = list(compositions(sum(lam) - sum(mu), d))
    by_chains = sum(chain_multiplicity(mu, a, lam) for a in comps)
    by_characters = sum(
        characters.decompose(characters.induce_trivial_product(mu, a)).multiplicity(lam)
        for a in comps
    )
    assert bounded_chain_count(mu, lam, d) == by_chains == by_characters


@pytest.mark.parametrize(
    "mu, lam, steps, expected",
    [
        ((2, 1), (3, 1), 0, 0),  # no steps, lam != mu
        ((2, 1), (2, 1), 0, 1),  # no steps, lam == mu
        ((2, 1), (2, 1), 3, 1),
        ((), (), 2, 1),
        ((3,), (2, 2), 2, 0),  # mu not contained in lam
        ((1, 1), (4,), 3, 0),
        ((), (1, 1, 1), 1, 0),  # a column of lam/mu longer than steps: zero pivot
        ((), (1, 1, 1, 1), 2, 0),
        ((1,), (2, 1, 1, 1), 2, 0),
        ((), (1, 1, 1), 3, 1),
        ((), (2, 1), 2, 2),
    ],
)
def test_bounded_chain_count_fixed_cases(mu, lam, steps, expected):
    assert bounded_chain_count(mu, lam, steps) == expected


def _leibniz_determinant(rows):
    size = len(rows)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(size))
    return total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda size: st.lists(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=size, max_size=size),
            min_size=size,
            max_size=size,
        )
    )
)
def test_bareiss_determinant_matches_leibniz(rows):
    # Jacobi-Trudi matrices of skew shapes never need a row swap (a vanishing
    # leading minor forces a zero determinant), so pivoting is checked here.
    expected = _leibniz_determinant(rows)
    assert _bareiss_determinant([list(row) for row in rows]) == expected


def test_bareiss_determinant_row_swap():
    assert _bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert _bareiss_determinant([[0, 2, 1], [0, 1, 3], [1, 1, 1]]) == 5
    assert _bareiss_determinant([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0


def test_constituent_multiplicity_pinned_target():
    assert constituent_multiplicity(FreeModuleSpec.regular(3, 3), (20, 10, 5, 2, 1)) == 1122


def _memo_tables():
    tables = {}
    for info in pkgutil.iter_modules(fidmod.__path__):
        module = importlib.import_module(f"fidmod.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                tables[f"{value.__module__}.{value.__qualname__}"] = value
    return tables


def test_clear_caches_empties_every_memo_table():
    tables = _memo_tables()
    assert tables
    pieri_product((1,), (2, 1))
    bounded_chain_count((1,), (3, 1), 2)
    characters.decompose(characters.induce_trivial_product((1,), (1, 1)))
    assert [name for name, t in tables.items() if not t.cache_info().currsize] == []
    clear_caches()
    assert [name for name, t in tables.items() if t.cache_info().currsize] == []


def test_chain_counts_share_equal_partitions():
    # Memo keys must intern partitions: equal lam in different entries is one
    # tuple object.  Fresh tuples per entry cost measurable peak memory.
    clear_caches()
    spec = FreeModuleSpec.regular(3, 2)
    level = decompose_at(spec, 16)
    misses = _chain_counts.cache_info().misses
    entries = [
        _chain_counts(mu, a) for mu in partitions_of(2) for a in partitions_of(14) if len(a) <= 3
    ]
    assert _chain_counts.cache_info().misses == misses  # all read from the memo
    seen = {}
    for lams, counts in entries:
        assert len(lams) == len(counts)
        for lam in lams:
            assert seen.setdefault(lam, lam) is lam, lam
    assert set(seen) == set(level.support())


def test_pieri_product_matches_chains_cold_and_from_a_memoized_prefix():
    # Every ordering of every composition of length <= 4, |mu| + |a| <= 8:
    # once from empty memo tables, once grown from the table that the
    # product over a[:-1] left behind (which must be read, not rebuilt or
    # altered).
    cases = 0
    for musize in range(9):
        for mu in partitions_of(musize):
            for total in range(1, 9 - musize):
                lams = tuple(partitions_of(musize + total))
                for length in range(1, 5):
                    for a in compositions(total, length):
                        if not all(a):
                            continue
                        expected = Decomposition(
                            musize + total, {lam: chain_multiplicity(mu, a, lam) for lam in lams}
                        )
                        clear_caches()
                        assert pieri_product(mu, a) == expected, (mu, a)
                        clear_caches()
                        prefix = pieri_product(mu, a[:-1])
                        hits = _chain_counts.cache_info().hits
                        assert pieri_product(mu, a) == expected, (mu, a)
                        assert _chain_counts.cache_info().hits == hits + 1, (mu, a)
                        assert pieri_product(mu, a[:-1]) == prefix, (mu, a)
                        cases += 1
    assert cases == 634


def test_session_walk_keeps_one_chain_table_per_prefix():
    # decompose_at sums pieri_product over composition classes (partitions of
    # n - m with at most d parts); growing forward, the memo holds one table
    # per generator constituent and prefix of a class, shared across levels.
    clear_caches()
    spec = FreeModuleSpec.regular(3, 2)
    for n in range(16, 24):
        decompose_at(spec, n)
    prefixes = {
        rep[:k]
        for total in range(14, 22)
        for rep in map(conjugate, partitions_of(total, max_part=3))
        for k in range(len(rep) + 1)
    }
    assert len(prefixes) == 309
    assert _chain_counts.cache_info().currsize == len(tuple(partitions_of(2))) * len(prefixes) == 618


def test_decomposition_validation():
    with pytest.raises(ValueError):
        Decomposition(3, {(2, 1): -1})
    with pytest.raises(ValueError):
        Decomposition(3, {(2, 2): 1})
    dec = Decomposition(3, {(2, 1): 2, (3,): 0})
    assert dec.multiplicity((3,)) == 0 and len(dec) == 1
    assert dec != {(2, 1): 2} and dec.__eq__({(2, 1): 2}) is NotImplemented


def test_decomposition_from_pairs_matches_mapping():
    terms = {(4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3}
    by_mapping = Decomposition(4, terms)
    pairs = [*terms.items(), ((1, 1, 1, 1), 0)]
    for seed in range(5):
        random.Random(seed).shuffle(pairs)
        by_pairs = Decomposition(4, iter(pairs))
        assert sorted(by_pairs.unordered_items()) == sorted(terms.items())
        assert by_pairs == by_mapping and hash(by_pairs) == hash(by_mapping)
        for view in ("items", "support", "to_json_dict", "__repr__"):
            assert getattr(by_pairs, view)() == getattr(by_mapping, view)(), view
    for bad in ([((2, 1), 1), ((2, 1, 1), -1)], [((3,), 1), ((2, 2), 1)]):
        with pytest.raises(ValueError):
            Decomposition(3, iter(bad))


def test_decomposition_canonical_order_and_json():
    dec = Decomposition(4, {(2, 2): 2, (4,): 1, (2, 1, 1): 5})
    assert dec.support() == ((4,), (2, 2), (2, 1, 1))
    payload = dec.to_json_dict()
    assert payload == {
        "n": 4,
        "terms": [
            {"partition": [4], "multiplicity": "1"},
            {"partition": [2, 2], "multiplicity": "2"},
            {"partition": [2, 1, 1], "multiplicity": "5"},
        ],
    }


def test_total_dimension():
    dec = Decomposition(3, {(3,): 1, (2, 1): 2, (1, 1, 1): 1})
    assert dec.total_dimension() == math.factorial(3)
