import math
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fidmod import free_modules
from fidmod.free_modules import (
    FreeModuleSpec,
    NoStabilization,
    NotContained,
    _composition_classes,
    constituent_multiplicity,
    decompose_at,
    dim_at,
    greedy_step,
    guarantee_shift,
    is_constituent,
    padded_multiplicity,
    stabilized_padded_multiplicity,
)
from fidmod.partitions import (
    InvalidPartition,
    UnsortedPads,
    compositions,
    contains,
    dim_irreducible,
    pad,
    partitions_of,
)
from fidmod.pieri import Decomposition, bounded_chain_count, pieri_product
from oracles import partitions_in_box, shifted_multiplicities, stabilize_by_walk


def test_spec_validation():
    with pytest.raises(ValueError):
        FreeModuleSpec.regular(0, 1)
    spec = FreeModuleSpec.of_irreducible(2, (2, 1))
    assert spec.m == 3 and spec.generator.multiplicity((2, 1)) == 1
    # An unsorted generator such as (1, 2) would make decompose_at and
    # constituent_multiplicity disagree at level 4 without any error.
    for lam in [(1, 2), (2, 0), (2, -1), (0,)]:
        with pytest.raises(InvalidPartition):
            FreeModuleSpec.of_irreducible(2, lam)


def test_spec_is_an_immutable_value():
    spec = FreeModuleSpec.of_irreducible(2, (2, 1))
    for field in ("d", "generator"):
        with pytest.raises(AttributeError):
            setattr(spec, field, 3)
        with pytest.raises(AttributeError):
            delattr(spec, field)
    with pytest.raises(AttributeError):
        spec.colors = 3
    same = FreeModuleSpec(2, Decomposition(3, {(2, 1): 1}))
    assert spec == same and hash(spec) == hash(same)
    assert spec != FreeModuleSpec.of_irreducible(3, (2, 1))
    assert spec != (2, spec.generator)
    assert repr(spec) == f"FreeModuleSpec(d=2, generator={spec.generator!r})"
    assert pickle.loads(pickle.dumps(spec)) == spec


@pytest.mark.parametrize("d", [0, -1])
def test_spec_refuses_bad_color_count(d):
    with pytest.raises(ValueError, match="color count"):
        FreeModuleSpec(d, Decomposition(1, {(1,): 1}))


def test_spec_refuses_empty_generator():
    with pytest.raises(ValueError, match="non-zero"):
        FreeModuleSpec(2, Decomposition(2, {}))


def test_generator_degree_is_read_from_the_generator():
    for gen in (
        Decomposition(0, {(): 1}),
        Decomposition(3, {(2, 1): 2, (1, 1, 1): 1}),
        FreeModuleSpec.regular(1, 4).generator,
    ):
        assert FreeModuleSpec(2, gen).m == gen.n


def test_generator_dimension_is_summed_once_per_spec(monkeypatch):
    # dim_at reads the generator's total dimension on every level; the
    # Decomposition keeps it after the first read.
    calls = Counter()

    def counted(lam):
        calls[lam] += 1
        return dim_irreducible(lam)

    monkeypatch.setattr("fidmod.pieri.dim_irreducible", counted)
    spec = FreeModuleSpec(2, Decomposition(3, {(3,): 1, (2, 1): 2}))
    values = [dim_at(spec, n) for n in range(3, 13)]
    assert values[0] == 5 and calls == {(3,): 1, (2, 1): 1}


def test_hom_count():
    # Level n of M(m) has a basis of morphisms [m] -> [n]: dim_at counts them.
    for d in (1, 2, 3):
        for m in range(4):
            assert dim_at(FreeModuleSpec.regular(d, m), m) == math.factorial(m)
    assert dim_at(FreeModuleSpec.regular(2, 0), 3) == 8
    assert dim_at(FreeModuleSpec.regular(2, 1), 2) == 4
    assert dim_at(FreeModuleSpec.regular(3, 2), 1) == 0


def test_hom_count_equals_dim_of_regular_module():
    # injections [2] -> [n] times colorings of the n - 2 points off the image
    for d in (1, 2, 3):
        spec = FreeModuleSpec.regular(d, 2)
        for n in range(7):
            assert dim_at(spec, n) == (math.perm(n, 2) * d ** (n - 2) if n >= 2 else 0)


def test_dim_at_examples():
    assert dim_at(FreeModuleSpec.regular(2, 0), 3) == 8
    assert dim_at(FreeModuleSpec.of_irreducible(2, (1,)), 3) == 12
    assert dim_at(FreeModuleSpec.of_irreducible(3, (2, 2)), 2) == 0


def test_decompose_at_examples():
    dec = decompose_at(FreeModuleSpec.regular(2, 0), 2)
    assert dec.multiplicity((2,)) == 3 and dec.multiplicity((1, 1)) == 1
    dec = decompose_at(FreeModuleSpec.of_irreducible(2, (1,)), 2)
    assert dec.multiplicity((2,)) == 2 and dec.multiplicity((1, 1)) == 2
    for n in range(6):
        dec = decompose_at(FreeModuleSpec.regular(1, 0), n)
        assert dec.items() == (((n,) if n else (), 1),)


def test_decompose_below_generator_degree_is_zero():
    dec = decompose_at(FreeModuleSpec.regular(2, 3), 1)
    assert len(dec) == 0 and dec.total_dimension() == 0


def test_dimension_conservation_small():
    for d in (1, 2, 3):
        for m in range(3):
            for spec in [FreeModuleSpec.regular(d, m)] + [
                FreeModuleSpec.of_irreducible(d, lam) for lam in partitions_of(m)
            ]:
                for n in range(7):
                    assert decompose_at(spec, n).total_dimension() == dim_at(spec, n)


@pytest.mark.parametrize(
    "total, length", [(0, 1), (0, 3), (1, 1), (2, 5), (5, 1), (6, 2), (7, 3), (8, 4)]
)
def test_composition_classes_group_compositions(total, length):
    classes = list(_composition_classes(total, length))
    reps = [rep for rep, _ in classes]
    assert len(set(reps)) == len(reps)
    assert all(all(rep) for rep in reps)  # the zero padding is not yielded
    grouped = Counter(
        tuple(sorted(filter(None, a), reverse=True)) for a in compositions(total, length)
    )
    assert dict(classes) == grouped
    assert sum(ways for _, ways in classes) == math.comb(total + length - 1, length - 1)


def test_full_levels_match_determinant_kernel():
    for d in range(1, 5):
        for m in range(4):
            specs = [FreeModuleSpec.regular(d, m)]
            specs += [FreeModuleSpec.of_irreducible(d, lam) for lam in partitions_of(m)]
            for spec in specs:
                for n in range(m, m + 9):
                    level = decompose_at(spec, n)
                    for lam in partitions_of(n):
                        assert level.multiplicity(lam) == constituent_multiplicity(spec, lam), (
                            spec, lam,
                        )


def test_decompose_at_matches_the_sum_of_class_products():
    # decompose_at merges class prefixes and adds one last strip per part;
    # the direct route sums ways * weight * pieri_product over every
    # composition class and constituent.  Both must give the same items.
    cases = 0
    for d in range(1, 6):
        specs = {FreeModuleSpec.regular(d, m) for m in range(5)}
        specs |= {
            FreeModuleSpec.of_irreducible(d, lam) for m in range(5) for lam in partitions_of(m)
        }
        for spec in specs:
            for n in range(spec.m, (12 if d <= 3 else 9) + 1):
                acc = Counter()
                for parts, ways in _composition_classes(n - spec.m, d):
                    for mu, weight in spec.generator.items():
                        for lam, count in pieri_product(mu, parts).items():
                            acc[lam] += ways * weight * count
                level = decompose_at(spec, n)
                assert level.items() == Decomposition(n, acc).items(), (spec, n)
                cases += 1
    assert cases == 670


def test_d1_decompositions_are_multiplicity_free():
    for lam in [(1,), (2,), (2, 1), (3, 1)]:
        spec = FreeModuleSpec.of_irreducible(1, lam)
        for n in range(sum(lam), sum(lam) + 5):
            assert all(mult == 1 for _, mult in decompose_at(spec, n).items())


def _greedy_step_by_boxes(mu, lam):
    """Literal simulation: drop the bottom box of every column unless it
    belongs to lam, then read row lengths back off the column heights."""
    width = mu[0] if mu else 0
    heights = [sum(1 for p in mu if p >= j) for j in range(1, width + 1)]
    protected = [sum(1 for p in lam if p >= j) for j in range(1, width + 1)]
    new_heights = [
        h - 1 if h > protected[j] else h for j, h in enumerate(heights)
    ]
    rows = []
    for i in range(1, max(new_heights, default=0) + 1):
        rows.append(sum(1 for h in new_heights if h >= i))
    return tuple(rows)


def test_greedy_step_examples():
    assert greedy_step((3, 1), ()) == (1,)
    assert greedy_step((2, 2), (1,)) == (2,)
    assert greedy_step((3, 2, 1), (3, 2, 1)) == (3, 2, 1)
    assert greedy_step((5, 5, 2, 1), ()) == (5, 2, 1)


def test_greedy_step_requires_containment():
    with pytest.raises(NotContained):
        greedy_step((2, 1), (3,))


def test_greedy_step_matches_box_simulation():
    for mu in partitions_in_box(5, 5):
        for lam in partitions_in_box(5, 5):
            if not contains(mu, lam):
                continue
            closed = greedy_step(mu, lam)
            assert closed == _greedy_step_by_boxes(mu, lam), (mu, lam)
            assert contains(mu, closed) and contains(closed, lam)


def test_is_constituent_examples():
    assert is_constituent((2, 2), (1,), 2)
    assert not is_constituent((1, 1, 1), (), 2)
    assert is_constituent((4, 2), (4, 2), 0)
    assert not is_constituent((2,), (1, 1), 1)


def test_greedy_matches_positive_chain_count_small_box():
    for mu in partitions_in_box(4, 4):
        for lam in partitions_in_box(4, 4):
            if not contains(mu, lam):
                continue
            for d in (1, 2, 3):
                greedy = is_constituent(mu, lam, d)
                chains = bounded_chain_count(lam, mu, d) > 0
                assert greedy == chains, (mu, lam, d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [(), (1,), (2,), (1, 1), (2, 1)])
def test_weight_bound_on_constituents(d, lam):
    spec = FreeModuleSpec.of_irreducible(d, lam)
    m = sum(lam)
    for n in range(m, m + 2 * d + 1):
        for mu, _ in decompose_at(spec, n).items():
            if len(mu) >= d:
                assert sum(mu[d:]) <= m  # the core below the d padded rows


def test_padded_multiplicity_examples():
    spec = FreeModuleSpec.of_irreducible(2, (1,))
    assert padded_multiplicity(spec, (), (2, 2)) == 2
    m0 = FreeModuleSpec.regular(2, 0)
    # shortest pad below |core| + core_1: the label names the zero representation
    assert padded_multiplicity(m0, (1,), (4, 1)) == 0
    with pytest.raises(UnsortedPads):  # checked by `pad`, as every label's pads
        padded_multiplicity(m0, (), (1, 3))
    m0d1 = FreeModuleSpec.regular(1, 0)
    assert padded_multiplicity(m0d1, (1,), (9,)) == 0


def test_padded_multiplicity_matches_decompose():
    spec = FreeModuleSpec.regular(2, 1)
    for core in [(), (1,), (2,)]:
        base = sum(core) + (core[0] if core else 0)
        for n2 in range(base, base + 3):
            for n1 in range(n2, n2 + 3):
                level = n1 + n2 - sum(core)
                shape = pad(core, (n1, n2))
                mult = padded_multiplicity(spec, core, (n1, n2))
                assert mult == decompose_at(spec, level).multiplicity(shape)


def test_padded_multiplicity_wrong_pad_count():
    spec = FreeModuleSpec.regular(2, 0)
    with pytest.raises(ValueError):
        padded_multiplicity(spec, (), (3,))


def test_stabilized_examples():
    spec = FreeModuleSpec.of_irreducible(2, (1,))
    assert stabilized_padded_multiplicity(spec, (), (2, 2)) == (2, 0)
    m0 = FreeModuleSpec.regular(2, 0)
    value, onset = stabilized_padded_multiplicity(m0, (), (1, 1))
    assert value == 1
    m0d1 = FreeModuleSpec.regular(1, 0)
    assert stabilized_padded_multiplicity(m0d1, (), (0,)) == (1, 0)


def test_stabilized_onset_and_value_for_delayed_case():
    # M(S^(2)) at d = 1 with base pad 0: levels 0 and 1 vanish, then the
    # trivial representation appears once forever.
    spec = FreeModuleSpec.of_irreducible(1, (2,))
    value, onset = stabilized_padded_multiplicity(spec, (), (0,))
    assert value == 1 and onset == 2


def test_stabilized_runs_to_the_structural_bound():
    # guarantee_shift is 60: the plateau starts at shift 30, and shift 60
    # matches the closed form s_()(1^1) * s_(30)(1^1) = 1.
    spec = FreeModuleSpec.of_irreducible(1, (30,))
    assert stabilized_padded_multiplicity(spec, (), (0,)) == (1, 30)


def _stabilization_sweep():
    """(spec, core, base pads) for d <= 4, M(0..4) and every irreducible
    generator of size <= 4, cores of size <= 3, and equal, first-raised and
    staircase pads whose shortest is one below, at or one above the least
    pad with a non-zero label, |core| + core_1."""
    cores = [core for size in range(4) for core in partitions_of(size)]
    for d in range(1, 5):
        specs = [FreeModuleSpec.regular(d, m) for m in range(5)]
        specs += [FreeModuleSpec.of_irreducible(d, g) for m in range(5) for g in partitions_of(m)]
        for spec in dict.fromkeys(specs):
            for core in cores:
                least = sum(core) + (core[0] if core else 0)
                for low in range(max(0, least - 1), least + 2):
                    equal = (low,) * d
                    raised = (low + 1, *equal[1:])
                    staircase = tuple(range(low + d - 1, low - 1, -1))
                    for pads in dict.fromkeys([equal, raised, staircase]):
                        yield spec, core, pads


def _never_decreases(spec, core, pads):
    count = guarantee_shift(spec, pads) + 6
    values = shifted_multiplicities(spec, core, pads, count)
    return all(a <= b for a, b in zip(values, values[1:])), values


def test_padded_multiplicities_never_decrease_along_shifts():
    # The theorem the bisection of stabilized_padded_multiplicity rests on,
    # on every shift up to guarantee_shift + 5.
    for spec, core, pads in _stabilization_sweep():
        ok, values = _never_decreases(spec, core, pads)
        assert ok, (spec, core, pads, values)


_GENERATORS = [g for m in range(6) for g in partitions_of(m)]
_CORES = [core for size in range(5) for core in partitions_of(size)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 4),
    st.sampled_from(_GENERATORS),
    st.sampled_from(_CORES),
    st.lists(st.integers(0, 12), min_size=4, max_size=4),
)
def test_padded_multiplicities_never_decrease_with_unequal_pads(d, gen, core, pads):
    pads = tuple(sorted(pads[:d], reverse=True))
    ok, values = _never_decreases(FreeModuleSpec.of_irreducible(d, gen), core, pads)
    assert ok, values


def test_bisected_onset_matches_the_shift_walk():
    # The walk reads the plateau off five computed shifts, so it checks the
    # closed-form value as well as the bisected onset; the raised and
    # staircase pads give non-empty delta.
    runs = 0
    for spec, core, pads in _stabilization_sweep():
        runs += 1
        expected = stabilize_by_walk(spec, core, pads)
        assert stabilized_padded_multiplicity(spec, core, pads) == expected, (spec, core, pads)
    assert runs == 3000


def test_stabilization_probes_a_logarithmic_number_of_shifts(monkeypatch):
    # guarantee_shift is 60: shift 0, shift 60 (checked against the closed
    # form) and at most six bisection probes of 0..59 make 8 kernel calls,
    # where a walk over every shift makes 61.
    kernel, labels = free_modules._multiplicity, []

    def counted(spec, label):
        labels.append(label)
        return kernel(spec, label)

    monkeypatch.setattr(free_modules, "_multiplicity", counted)
    spec = FreeModuleSpec.of_irreducible(1, (30,))
    assert stabilized_padded_multiplicity(spec, (), (0,)) == (1, 30)
    assert len(labels) <= 8, labels


def test_a_wrong_kernel_raises_no_stabilization(monkeypatch):
    # The true answer is (2, 0).  A kernel one too high on every label
    # gives 3 at guarantee_shift (0 here), not the closed-form plateau 2.
    kernel = free_modules._multiplicity
    monkeypatch.setattr(free_modules, "_multiplicity", lambda spec, label: kernel(spec, label) + 1)
    spec = FreeModuleSpec.of_irreducible(2, (1,))
    with pytest.raises(NoStabilization, match="plateau 2"):
        stabilized_padded_multiplicity(spec, (), (2, 2))


def test_stabilized_rejects_pads_of_the_wrong_length():
    spec = FreeModuleSpec.of_irreducible(2, (1,))
    for pads in [(2,), (2, 2, 2)]:
        with pytest.raises(ValueError, match="length d = 2"):
            stabilized_padded_multiplicity(spec, (), pads)


def test_stabilized_rejects_unsorted_base():
    spec = FreeModuleSpec.regular(2, 0)
    with pytest.raises(UnsortedPads):
        stabilized_padded_multiplicity(spec, (), (1, 2))


def test_non_integer_generators_and_pads_are_refused_not_truncated():
    with pytest.raises(TypeError):
        FreeModuleSpec.of_irreducible(2, (2.5,))
    with pytest.raises(TypeError):
        FreeModuleSpec.regular(2.5, 1)  # its level 3 had dimension 18.75
    spec = FreeModuleSpec.of_irreducible(2, (1,))
    with pytest.raises(TypeError):
        stabilized_padded_multiplicity(spec, (), (2.9, 2.9))  # int() gave value 2, onset 0
    with pytest.raises(TypeError):
        padded_multiplicity(spec, (), (2.9, 2.9))


@pytest.mark.parametrize("n", [0.5, 2.5, 3.0])
def test_non_integer_levels_are_refused(n):
    # 0.5 gave dimension 0 and Decomposition(n=0.5, {}); a float at or
    # above m failed deep inside math.comb or partitions_of.
    spec = FreeModuleSpec.regular(2, 1)
    with pytest.raises(TypeError):
        dim_at(spec, n)
    with pytest.raises(TypeError):
        decompose_at(spec, n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_onset_respects_proof_bound_pure_generators(d):
    for m in range(5):
        for gen in partitions_of(m):
            spec = FreeModuleSpec.of_irreducible(d, gen)
            bound = (gen[0] if gen else 0) + m
            for core in [(), (1,)]:
                for nd in range(0, bound + 2):
                    pads = (nd,) * d
                    value, onset = stabilized_padded_multiplicity(spec, core, pads)
                    assert onset <= max(0, bound - nd), (gen, core, pads, onset)


def test_constituent_multiplicity_below_degree():
    spec = FreeModuleSpec.regular(2, 3)
    assert constituent_multiplicity(spec, (2,)) == 0
