"""The validation boundary: every `fidmod` name that takes a partition, a
count or a spec checks it once, on entry, and the package's own loops reach
the multiplicity kernel without re-entering the public API."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

import fidmod
from fidmod import (
    Decomposition,
    FreeModuleSpec,
    InvalidPartition,
    constituent_multiplicity,
    decompose,
    decompose_at,
    default_dims_window,
    default_multiplicity_window,
    dim_at,
    fit_exponential_polynomial,
    fit_polynomial,
    induce_trivial_product,
    multiplicity_series,
    padded_multiplicity,
    pieri_product,
    stabilized_padded_multiplicity,
    verify_stability,
)
from fidmod import free_modules, stability
from fidmod.pieri import clear_caches

SPEC = FreeModuleSpec.regular(2, 2)
SERIES = {n: 0 for n in range(40)}

#: Every namespace call that takes a partition, with the bad value in its place.
TAKES_A_PARTITION = {
    "pieri_product": lambda lam: pieri_product(lam, (1,)),
    "pieri_product-empty": lambda lam: pieri_product(lam, ()),
    "induce_trivial_product": lambda lam: induce_trivial_product(lam, (1,)),
    "constituent_multiplicity": lambda lam: constituent_multiplicity(SPEC, lam),
    "padded_multiplicity": lambda lam: padded_multiplicity(SPEC, lam, (30, 30)),
    "stabilized_padded_multiplicity": lambda lam: stabilized_padded_multiplicity(
        SPEC, lam, (30, 30)
    ),
    "multiplicity_series": lambda lam: multiplicity_series(SPEC, lam, [5]),
    "default_multiplicity_window": lambda lam: default_multiplicity_window(SPEC, lam, 1),
    "verify_stability": lambda lam: verify_stability(SPEC, [(lam, (30, 30))], []),
    "FreeModuleSpec.of_irreducible": lambda lam: FreeModuleSpec.of_irreducible(2, lam),
    "Decomposition": lambda lam: Decomposition(int(sum(lam)), {lam: 1}),
}

#: Every namespace call that takes a level, degree, degree bound, pad,
#: composition part or color count, with the bad value in its place.
TAKES_A_COUNT = {
    "dim_at": lambda n: dim_at(SPEC, n),
    "decompose_at": lambda n: decompose_at(SPEC, n),
    "pieri_product": lambda n: pieri_product((1,), (n,)),
    "induce_trivial_product": lambda n: induce_trivial_product((1,), (n,)),
    "padded_multiplicity": lambda n: padded_multiplicity(SPEC, (), (30, n)),
    "stabilized_padded_multiplicity": lambda n: stabilized_padded_multiplicity(
        SPEC, (), (30, n)
    ),
    "multiplicity_series": lambda n: multiplicity_series(SPEC, (), [5, n]),
    "verify_stability-degree": lambda n: verify_stability(SPEC, [], [3, n]),
    "verify_stability-pad": lambda n: verify_stability(SPEC, [((), (30, n))], []),
    "fit_polynomial-degree-bound": lambda n: fit_polynomial(SERIES, n, range(40)),
    "fit_polynomial-window": lambda n: fit_polynomial(
        {**SERIES, n: 0}, 0, [*range(8), n]
    ),
    "fit_exponential_polynomial-d": lambda n: fit_exponential_polynomial(
        SERIES, n, 0, range(40)
    ),
    "fit_exponential_polynomial-degree-bound": lambda n: fit_exponential_polynomial(
        SERIES, 1, n, range(40)
    ),
    "default_dims_window": lambda n: default_dims_window(SPEC, n),
    "default_multiplicity_window": lambda n: default_multiplicity_window(SPEC, (), n),
    "FreeModuleSpec": lambda n: FreeModuleSpec(n, SPEC.generator),
    "FreeModuleSpec.regular-d": lambda n: FreeModuleSpec.regular(n, 1),
    "FreeModuleSpec.regular-m": lambda n: FreeModuleSpec.regular(2, n),
    "Decomposition-n": lambda n: Decomposition(n, {}),
    "Decomposition-multiplicity": lambda n: Decomposition(2, {(2,): 1, (1, 1): n}),
}

#: Every namespace call that takes a spec, with the bad value in its place.
TAKES_A_SPEC = {
    "dim_at": lambda spec: dim_at(spec, 3),
    "decompose_at": lambda spec: decompose_at(spec, 3),
    "constituent_multiplicity": lambda spec: constituent_multiplicity(spec, (2, 1)),
    "padded_multiplicity": lambda spec: padded_multiplicity(spec, (1,), (5, 5)),
    "stabilized_padded_multiplicity": lambda spec: stabilized_padded_multiplicity(
        spec, (1,), (5, 5)
    ),
    "multiplicity_series": lambda spec: multiplicity_series(spec, (1,), [3]),
    "default_dims_window": lambda spec: default_dims_window(spec, 1),
    "default_multiplicity_window": lambda spec: default_multiplicity_window(spec, (1,), 1),
    "verify_stability": lambda spec: verify_stability(spec, [], [3]),
}

_rows = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
    lambda p: tuple(sorted(p, reverse=True))
)
_not_a_partition = st.one_of(
    _rows.filter(lambda p: len(set(p)) > 1).map(lambda p: p[::-1]),  # unsorted
    st.tuples(_rows, st.integers(-6, 0)).map(lambda t: (*t[0], t[1])),  # a part <= 0
    _rows.map(lambda p: (float(p[0]), *p[1:])),  # a float part, equal to an int one
)
_not_a_count = st.one_of(
    st.integers(max_value=-1),
    st.integers(0, 40).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_every_name_refuses_a_bad_partition_or_count(data):
    kind = data.draw(st.sampled_from(["partition", "count"]))
    calls, bad = (
        (TAKES_A_PARTITION, _not_a_partition) if kind == "partition"
        else (TAKES_A_COUNT, _not_a_count)
    )
    name = data.draw(st.sampled_from(sorted(calls)))
    value = data.draw(bad)
    with pytest.raises((InvalidPartition, ValueError, TypeError)):
        result = calls[name](value)
        pytest.fail(f"{name}({value!r}) returned {result!r}")


def test_every_namespace_name_that_takes_one_is_covered():
    # Out of scope: decompose, which takes a class function.
    takes_one = {
        name for name, value in vars(fidmod).items()
        if callable(value) and not name.startswith("_")
        and not (isinstance(value, type) and issubclass(value, Exception))
    } - {"decompose"}
    covered = {name.split("-")[0].split(".")[0] for name in {**TAKES_A_PARTITION, **TAKES_A_COUNT}}
    assert covered == takes_one


@pytest.mark.parametrize("name", sorted(TAKES_A_SPEC))
@pytest.mark.parametrize(
    "bad", ["x", None, SPEC.generator, (2, SPEC.generator)], ids=["str", "None", "gen", "tuple"]
)
def test_every_name_refuses_a_spec_of_another_type(name, bad):
    # A str used to raise AttributeError from the first attribute read.
    with pytest.raises(TypeError, match=f"expected a FreeModuleSpec, got {type(bad).__name__}"):
        TAKES_A_SPEC[name](bad)


def test_every_namespace_name_that_takes_a_spec_is_covered():
    takes_a_spec = {
        name for name, value in vars(fidmod).items()
        if inspect.isfunction(value) and "spec" in inspect.signature(value).parameters
    }
    assert takes_a_spec == set(TAKES_A_SPEC)


# Each of these returned a value before the boundary, or failed only by
# accident (the dict generator, with an AttributeError); the float partition
# returned one only once the equal integer partition was memoized.
ACCEPTANCE = {
    "Decomposition-unsorted-key": (
        InvalidPartition, lambda: Decomposition(3, {(1, 2): 1})
    ),
    "Decomposition-float-multiplicity": (
        TypeError, lambda: Decomposition(1, {(1,): 1.5})
    ),
    "Decomposition-float-n": (TypeError, lambda: Decomposition(2.0, {(2,): 1})),
    "FreeModuleSpec-float-degree": (
        TypeError, lambda: FreeModuleSpec(2, Decomposition(2.0, {(2,): 1}))
    ),
    "FreeModuleSpec-dict-generator": (TypeError, lambda: FreeModuleSpec(2, {(1,): 1})),
    "pieri_product-unsorted": (InvalidPartition, lambda: pieri_product((1, 2), (1,))),
    "pieri_product-zero-part": (InvalidPartition, lambda: pieri_product((2, 0), (1,))),
    "pieri_product-float-on-memo-hit": (
        TypeError,
        lambda: (pieri_product((2, 1), (1,)), pieri_product((2.0, 1), (1,))),
    ),
    "constituent_multiplicity": (
        InvalidPartition, lambda: constituent_multiplicity(SPEC, (2, 0))
    ),
    "multiplicity_series": (InvalidPartition, lambda: multiplicity_series(SPEC, (1, 2), [5])),
    "padded_multiplicity": (ValueError, lambda: padded_multiplicity(SPEC, (), (-5, -9))),
    "stabilized_padded_multiplicity": (
        ValueError, lambda: stabilized_padded_multiplicity(SPEC, (), (-5, -9))
    ),
    "dim_at": (ValueError, lambda: dim_at(SPEC, -1)),
    "decompose_at": (ValueError, lambda: decompose_at(SPEC, -1)),
    "fit_polynomial": (ValueError, lambda: fit_polynomial(SERIES, -1, range(10))),
    "default_dims_window": (ValueError, lambda: default_dims_window(SPEC, -3)),
    "verify_stability": (ValueError, lambda: verify_stability(SPEC, [], [-3])),
    "FreeModuleSpec.regular": (TypeError, lambda: FreeModuleSpec.regular(2, 0.0)),
}


@pytest.mark.parametrize("case", sorted(ACCEPTANCE))
def test_silent_answers_now_raise(case):
    expected, call = ACCEPTANCE[case]
    with pytest.raises(expected):
        call()


def test_pieri_product_reads_an_iterable_mu_once():
    # sum(mu) used to consume an iterator before tuple(mu) read it.
    assert pieri_product(iter((2, 1)), (1,)) == pieri_product((2, 1), (1,))


def test_induced_character_refuses_a_non_partition_on_entry():
    # It used to fail inside the character recursion: "size mismatch: (-1,)".
    with pytest.raises(InvalidPartition, match="weakly decreasing"):
        induce_trivial_product((1, 2), (1,))


def test_loops_reach_the_kernel_without_re_entering_the_api(monkeypatch):
    def unreached(*args):
        raise AssertionError("public name re-entered")

    checks = []

    def counted(parts):
        checks.append(tuple(parts))
        return tuple(parts)

    spec = FreeModuleSpec.regular(2, 3)
    monkeypatch.setattr(free_modules, "constituent_multiplicity", unreached)
    monkeypatch.setattr(free_modules, "new_partition", counted)
    monkeypatch.setattr(stability, "new_partition", counted)
    assert len(multiplicity_series(spec, (1,), range(4, 14))) == 10
    assert checks == [(1,)]  # once per series, not once per degree
    checks.clear()
    stabilized_padded_multiplicity(spec, (1,), (4, 4))
    assert checks == [(1,)]  # once per stabilization (shift 0), not once per shift


def test_package_built_decompositions_skip_the_public_check(monkeypatch):
    # Every value the package builds goes through the unchecked
    # Decomposition._of, so each answer survives a constructor that refuses.
    calls = {
        "pieri_product": lambda: pieri_product((2, 1), (2, 0, 1)),
        "decompose_at": lambda: decompose_at(SPEC, 5),
        "decompose_at-below-m": lambda: decompose_at(SPEC, 1),
        "decompose": lambda: decompose(induce_trivial_product((2, 1), (2, 1))),
        "FreeModuleSpec.regular": lambda: FreeModuleSpec.regular(2, 3),
    }
    clear_caches()
    expected = {name: call() for name, call in calls.items()}

    def refused(self, *args):
        raise AssertionError("public Decomposition check reached")

    monkeypatch.setattr(Decomposition, "__init__", refused)
    clear_caches()
    for name, call in calls.items():
        assert call() == expected[name], name
