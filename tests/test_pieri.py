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
    _interned,
    bounded_chain_count,
    clear_caches,
    pieri_product,
)
from fidmod.stability import multiplicity_series
from oracles import chain_multiplicity, remove_horizontal_strip, skew_filling_count


def _is_horizontal_strip(lam, mu):
    """lam/mu is a horizontal strip: mu inside lam, at most one box per column."""
    return contains(lam, mu) and all(
        lam[i + 1] <= (mu[i] if i < len(mu) else 0) for i in range(len(lam) - 1)
    )


def test_decompose_at_interns_no_partition_of_its_level():
    # A level's last strips go straight into its table: no memo holds a
    # partition of size n, so a fresh tuple equal to a level term is
    # interned as itself.
    for spec, n in [
        (FreeModuleSpec.regular(3, 2), 12),
        (FreeModuleSpec.regular(2, 0), 7),
        (FreeModuleSpec.of_irreducible(1, (2, 1)), 6),
        (FreeModuleSpec.of_irreducible(4, (1, 1)), 8),
    ]:
        clear_caches()
        level = decompose_at(spec, n)
        assert level
        for lam in level.support():
            fresh = tuple(list(lam))
            assert fresh is not lam
            assert _interned(fresh) is fresh, (spec, n, lam)


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


def test_first_row_expansion_equals_the_determinant_and_the_chains():
    # Three routes to s_{lam/mu}(1^steps) for lam = (top, *core): the padded
    # series of M(S^mu), which sums the memoized first-row expansion, the
    # whole determinant, and strip chains summed over every composition.
    for steps in (1, 2, 3):
        for core in [c for size in range(4) for c in partitions_of(size)]:
            least = core[0] if core else 0
            for mu in [p for size in range(5) for p in partitions_of(size)]:
                spec = FreeModuleSpec.of_irreducible(steps, mu)
                degrees = range(sum(core) + least, sum(core) + least + 5)
                series = multiplicity_series(spec, core, degrees)
                for top in range(least, least + 5):
                    lam = (top, *core) if top else core
                    boxes = sum(lam) - sum(mu)
                    chains = sum(
                        chain_multiplicity(mu, a, lam) for a in compositions(boxes, steps)
                    ) if boxes >= 0 else 0
                    determinant = bounded_chain_count(mu, lam, steps)
                    assert series[sum(lam)] == determinant == chains, (mu, lam, steps)


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
    multiplicity_series(FreeModuleSpec.regular(2, 1), (1,), [3])
    characters.decompose(characters.induce_trivial_product((1,), (1, 1)))
    assert [name for name, t in tables.items() if not t.cache_info().currsize] == []
    clear_caches()
    assert [name for name, t in tables.items() if t.cache_info().currsize] == []


def test_chain_counts_share_equal_partitions():
    # Memo keys must intern partitions: equal lam in different entries is one
    # tuple object.  Fresh tuples per entry cost measurable peak memory.
    # decompose_at builds the tables of the class prefixes, not of full
    # classes, so those are the entries read back.
    clear_caches()
    decompose_at(FreeModuleSpec.regular(3, 2), 16)
    misses = _chain_counts.cache_info().misses
    reps = map(conjugate, partitions_of(14, max_part=3))
    prefixes = {rep[:k] for rep in reps for k in range(len(rep))}
    entries = [_chain_counts(mu, a) for mu in partitions_of(2) for a in prefixes]
    assert _chain_counts.cache_info().misses == misses  # all read from the memo
    seen, shared = {}, 0
    for lams, counts in entries:
        assert len(lams) == len(counts)
        for lam in lams:
            shared += lam in seen
            assert seen.setdefault(lam, lam) is lam, lam
    assert shared > 0  # some partition does occur in more than one entry


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
    # decompose_at merges the products over the class prefixes rep[:-1] of
    # the composition classes (partitions of n - m with at most d parts) and
    # adds each last strip once, so, growing forward, the memo holds one
    # table per generator constituent and prefix of some rep[:-1], shared
    # across levels, and none for a full class of d non-zero parts.
    clear_caches()
    spec = FreeModuleSpec.regular(3, 2)
    for n in range(16, 24):
        decompose_at(spec, n)
    prefixes = {
        rep[:k]
        for total in range(14, 22)
        for rep in map(conjugate, partitions_of(total, max_part=3))
        for k in range(len(rep))
    }
    assert len(prefixes) == 91
    assert all(len(a) < spec.d for a in prefixes)
    tables = len(tuple(partitions_of(2))) * len(prefixes)
    assert _chain_counts.cache_info().currsize == tables == 182
    misses = _chain_counts.cache_info().misses
    for mu in partitions_of(2):
        for a in prefixes:
            _chain_counts(mu, a)
    # Every counted table is one of those prefixes, so no key is a full class.
    assert _chain_counts.cache_info().misses == misses


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
