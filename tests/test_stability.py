import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fidmod.free_modules import (
    FreeModuleSpec,
    _multiplicity,
    decompose_at,
    dim_at,
    stabilized_padded_multiplicity,
)
from fidmod.partitions import dim_irreducible, pad, partitions_of
from fidmod.pieri import Decomposition, bounded_chain_count, clear_caches, first_row_cofactors
from oracles import interpolate_by_fractions
from fidmod.stability import (
    ExponentialPolynomial,
    InsufficientPoints,
    NoExactFit,
    RationalPolynomial,
    default_dims_window,
    default_multiplicity_window,
    fit_exponential_polynomial,
    fit_polynomial,
    multiplicity_series,
    verify_stability,
)


def test_rational_polynomial_basics():
    p = RationalPolynomial.of([1, 1])
    assert p.degree == 1 and p.evaluate(4) == 5
    assert str(p) == "n + 1"
    z = RationalPolynomial.of([0, 0])
    assert z.is_zero() and z.degree == -1 and str(z) == "0"
    q = RationalPolynomial.of([Fraction(-1, 2), 0, Fraction(3, 2)])
    assert q.evaluate(2) == Fraction(11, 2)
    assert str(q) == "3/2*n^2 - 1/2"
    assert str(RationalPolynomial.of([2, -1, 0, -1])) == "-n^3 - n + 2"


def test_fit_exponential_pure_power():
    series = {n: 2**n for n in range(9)}
    fit = fit_exponential_polynomial(series, 2, 0, range(9))
    assert fit.polynomials[0].is_zero()
    assert fit.polynomials[1].coeffs == (Fraction(1),)
    assert fit.evaluate(20) == 2**20


def test_fit_exponential_with_polynomial_factor():
    series = {n: n * 2 ** (n - 1) for n in range(1, 10)}
    fit = fit_exponential_polynomial(series, 2, 1, range(1, 10))
    assert fit.polynomials[0].is_zero()
    assert fit.polynomials[1].coeffs == (Fraction(0), Fraction(1, 2))


def test_fit_exponential_polynomial_case():
    series = {n: n for n in range(8)}
    fit = fit_exponential_polynomial(series, 1, 1, range(8))
    assert fit.polynomials[0].coeffs == (Fraction(0), Fraction(1))


def test_fit_exponential_rejects_corrupted_series():
    series = {n: 3**n for n in range(12)}
    series[10] += 1
    with pytest.raises(NoExactFit):
        fit_exponential_polynomial(series, 3, 0, range(12))


def test_fit_exponential_insufficient_points():
    series = {n: 2**n for n in range(4)}
    with pytest.raises(InsufficientPoints):
        fit_exponential_polynomial(series, 2, 0, range(4))


def test_fit_exponential_missing_window_degree():
    series = {n: 2**n for n in range(8)}
    with pytest.raises(ValueError):
        fit_exponential_polynomial(series, 2, 0, range(5, 15))
    with pytest.raises(ValueError, match="distinct and >= 0"):
        fit_exponential_polynomial(series, 2, 0, [0, 0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="distinct and >= 0"):
        fit_exponential_polynomial({n: 1 for n in range(-3, 5)}, 2, 0, range(-3, 5))


def _expected_leading_polynomial(spec):
    """dim W / d^m * C(n, m) as exact monomial coefficients."""
    coeffs = [Fraction(1)]
    for t in range(spec.m):
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= t * coeffs[i + 1]
    scale = Fraction(spec.generator.total_dimension(), spec.d**spec.m * math.factorial(spec.m))
    return RationalPolynomial.of([c * scale for c in coeffs])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_dimension_fit_recovers_leading_coefficients(d, m):
    specs = [FreeModuleSpec.regular(d, m)] + [
        FreeModuleSpec.of_irreducible(d, lam) for lam in partitions_of(m)
    ]
    for spec in specs:
        window = list(range(m, m + 3 * d * (m + 1) + 1))
        series = {n: dim_at(spec, n) for n in window}
        fit = fit_exponential_polynomial(series, d, m, window)
        for p in fit.polynomials[:-1]:
            assert p.is_zero()
        assert fit.polynomials[-1] == _expected_leading_polynomial(spec)
        for n in range(window[-1] + 1, window[-1] + 6):
            assert fit.evaluate(n) == dim_at(spec, n)


@st.composite
def _series_and_window(draw):
    """Integer coefficients c[i][k] of C(n, k) i^n for i <= d and k <= b,
    and distinct non-negative window degrees, consecutive or not."""
    d = draw(st.integers(min_value=1, max_value=4))
    b = draw(st.integers(min_value=0, max_value=3))
    coeffs = draw(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=b + 1, max_size=b + 1),
            min_size=d,
            max_size=d,
        )
    )
    window = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=d * (b + 1) + 5,
            max_size=d * (b + 1) + 8,
            unique=True,
        )
    )
    return d, b, coeffs, sorted(window)


def _binomial_exponential(coeffs, n):
    return sum(
        c * math.comb(n, k) * (i + 1) ** n
        for i, row in enumerate(coeffs)
        for k, c in enumerate(row)
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_series_and_window(), st.data())
def test_fits_reproduce_and_predict_exactly(case, data):
    d, b, coeffs, window = case
    beyond = range(window[-1] + 1, window[-1] + 6)
    dims = {n: _binomial_exponential(coeffs, n) for n in window}
    mult = {n: _binomial_exponential(coeffs[:1], n) for n in window}
    exp_fit = fit_exponential_polynomial(dims, d, b, window)
    poly_fit = fit_polynomial(mult, b, window)
    for n in [*window, *beyond]:
        assert exp_fit.evaluate(n) == _binomial_exponential(coeffs, n)
        assert poly_fit.evaluate(n) == _binomial_exponential(coeffs[:1], n)
    bad = data.draw(st.sampled_from(window))
    with pytest.raises(NoExactFit):
        fit_exponential_polynomial({**dims, bad: dims[bad] + 1}, d, b, window)
    with pytest.raises(NoExactFit):
        fit_polynomial({**mult, bad: mult[bad] + 1}, b, window)


def _fit_outcome(fit, *args):
    """A fit's coefficients, one tuple per base, or its error type and message."""
    try:
        result = fit(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    polynomials = result.polynomials if isinstance(result, ExponentialPolynomial) else [result]
    return tuple(p.coeffs for p in polynomials)


def _reference_outcome(series, bases, block, window):
    """What both fits must give: the rational interpolant of the leading
    window degrees, trimmed, or NoExactFit at the first window degree it
    misses, with the value it gives there."""
    window = sorted(window)
    coeffs = interpolate_by_fractions(series, bases, block, window[: bases * block])
    for n in window:
        value = sum(
            c * n**k * (i + 1) ** n for i, row in enumerate(coeffs) for k, c in enumerate(row)
        )
        if value != series[n]:
            return NoExactFit, f"fit gives {value} at degree {n}, series has {series[n]}"
    return tuple(RationalPolynomial.of(row).coeffs for row in coeffs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_series_and_window(), st.integers(0, 60), st.data())
def test_fits_equal_rational_interpolation_on_corrupted_and_shifted_windows(case, shift, data):
    d, b, coeffs, window = case
    window = [n + shift for n in window]
    dims = {n: _binomial_exponential(coeffs, n) for n in window}
    mult = {n: _binomial_exponential(coeffs[:1], n) for n in window}
    if data.draw(st.booleans()):
        bad, delta = data.draw(st.sampled_from(window)), data.draw(st.sampled_from([-2, -1, 1, 3]))
        dims[bad] += delta
        mult[bad] += delta
    given_order = data.draw(st.permutations(window))
    assert _fit_outcome(fit_exponential_polynomial, dims, d, b, given_order) == (
        _reference_outcome(dims, d, b + 1, window)
    )
    assert _fit_outcome(fit_polynomial, mult, b, given_order) == (
        _reference_outcome(mult, 1, b + 1, window)
    )


_LINE = {n: n + 1 for n in range(10)}
#: Refused fits, with the type and message each has always had.
FIT_REFUSALS = {
    "poly-short": (
        lambda: fit_polynomial({n: n for n in range(5)}, 1, range(5)),
        InsufficientPoints, "need degree_bound + 5 = 6 points, got 5",
    ),
    "exp-short": (
        lambda: fit_exponential_polynomial({n: 2**n for n in range(4)}, 2, 0, range(4)),
        InsufficientPoints, "need 2 fit points plus 3 validation points, got 4",
    ),
    "poly-duplicate": (
        lambda: fit_polynomial({n: n for n in range(8)}, 1, [0, 0, 1, 2, 3, 4, 5]),
        ValueError, "window degrees must be distinct and >= 0, got [0, 0, 1, 2, 3, 4, 5]",
    ),
    "exp-negative": (
        lambda: fit_exponential_polynomial({n: 1 for n in range(-3, 5)}, 2, 0, range(-3, 5)),
        ValueError, "window degrees must be distinct and >= 0, got [-3, -2, -1, 0, 1, 2, 3, 4]",
    ),
    "exp-missing": (
        lambda: fit_exponential_polynomial({n: 2**n for n in range(8)}, 2, 0, range(5, 15)),
        ValueError, "window degree 8 missing from series",
    ),
    "poly-corrupted": (
        lambda: fit_polynomial({**_LINE, 8: 0}, 1, range(10)),
        NoExactFit, "fit gives 9 at degree 8, series has 0",
    ),
    "poly-corrupted-leading": (
        lambda: fit_polynomial({**_LINE, 0: 5}, 1, range(10)),
        NoExactFit, "fit gives -1 at degree 2, series has 3",
    ),
    "poly-fraction-unsorted": (
        lambda: fit_polynomial({0: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}, 1, [6, 5, 4, 3, 2, 0]),
        NoExactFit, "fit gives 3/2 at degree 3, series has 0",
    ),
    "exp-corrupted": (
        lambda: fit_exponential_polynomial(
            {n: 3**n + (n == 10) for n in range(12)}, 3, 0, range(12)
        ),
        NoExactFit, "fit gives 59049 at degree 10, series has 59050",
    ),
}


@pytest.mark.parametrize("case", sorted(FIT_REFUSALS))
def test_fit_refusals_keep_their_messages(case):
    call, expected, message = FIT_REFUSALS[case]
    with pytest.raises(expected) as info:
        call()
    assert str(info.value) == message


def test_fit_polynomial_free_module_multiplicities():
    m0 = FreeModuleSpec.regular(2, 0)
    series = multiplicity_series(m0, (), range(4, 11))
    p = fit_polynomial(series, 1, range(4, 11))
    assert p.coeffs == (Fraction(1), Fraction(1))
    series = multiplicity_series(m0, (1,), range(4, 11))
    p = fit_polynomial(series, 1, range(4, 11))
    assert p.coeffs == (Fraction(-1), Fraction(1))
    m0d1 = FreeModuleSpec.regular(1, 0)
    series = multiplicity_series(m0d1, (), range(1, 8))
    p = fit_polynomial(series, 0, range(1, 8))
    assert p.coeffs == (Fraction(1),) and p.degree == 0


def test_fit_polynomial_errors():
    with pytest.raises(InsufficientPoints):
        fit_polynomial({n: n for n in range(4)}, 1, range(4))
    series = {n: n + 1 for n in range(10)}
    series[8] = 0
    with pytest.raises(NoExactFit):
        fit_polynomial(series, 1, range(10))
    with pytest.raises(ValueError, match="distinct and >= 0"):
        fit_polynomial({n: n for n in range(8)}, 1, [0, 0, 1, 2, 3, 4, 5])
    with pytest.raises(ValueError, match="distinct and >= 0"):
        fit_polynomial({n: n for n in range(-3, 5)}, 1, range(-3, 5))


def _coinvariants_hilbert(m, d, n):
    """Degree-n dimension of a rank-1 free graded module over a d-variable
    polynomial ring, generated in degree m."""
    return math.comb(n - m + d - 1, d - 1) if n >= m else 0


def test_coinvariants_hilbert():
    # trivial multiplicities of M(S^(m)) at known coinvariant Hilbert values
    def trivial(m, d, n):
        spec = FreeModuleSpec.of_irreducible(d, (m,) if m else ())
        return multiplicity_series(spec, (), [n])[n]

    assert trivial(0, 2, 5) == 6
    assert trivial(2, 3, 4) == 6
    assert trivial(4, 3, 2) == 0
    assert trivial(0, 1, 9) == 1


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_trivial_series_matches_coinvariants(d, m):
    spec = FreeModuleSpec.of_irreducible(d, (m,) if m else ())
    degrees = range(0, m + 9)
    series = multiplicity_series(spec, (), degrees)
    for n in degrees:
        assert series[n] == _coinvariants_hilbert(m, d, n)


def test_trivial_series_examples():
    m0 = FreeModuleSpec.regular(2, 0)
    series = multiplicity_series(m0, (), range(8))
    assert series == {n: n + 1 for n in range(8)}
    ms1 = FreeModuleSpec.of_irreducible(2, (1,))
    assert multiplicity_series(ms1, (), [2]) == {2: 2}
    column = FreeModuleSpec.of_irreducible(1, (1, 1))
    assert multiplicity_series(column, (), range(3, 9)) == dict.fromkeys(range(3, 9), 0)


def test_multiplicity_series_matches_decompose():
    spec = FreeModuleSpec.regular(2, 1)
    for lam in [(), (1,), (2,), (1, 1)]:
        series = multiplicity_series(spec, lam, range(0, 8))
        for n in range(0, 8):
            shape = pad(lam, (n,))
            expected = 0 if shape is None else decompose_at(spec, n).multiplicity(shape)
            assert series[n] == expected


def test_non_integer_degrees_are_refused_not_truncated():
    spec = FreeModuleSpec.of_irreducible(2, (1,))
    with pytest.raises(TypeError):
        multiplicity_series(spec, (1,), [4.5, 5])  # int() gave {4.5: 6, 5: 8}
    with pytest.raises(TypeError):
        verify_stability(spec, [], [2.5])
    with pytest.raises(TypeError):
        verify_stability(spec, [((), (2.9, 2.9))], [2])


def test_padded_dimension():
    assert dim_irreducible(pad((), (3, 3))) == 5
    assert dim_irreducible(pad((), (12,))) == 1
    assert dim_irreducible(pad((1,), (2, 2))) == 1
    assert pad((2,), (3, 3)) is None  # zero label: 3 < 2 + 2


@pytest.mark.parametrize("n", range(13))
def test_catalan_identity(n):
    assert (n + 1) * dim_irreducible(pad((), (n, n))) == math.comb(2 * n, n)


def _least_pads():
    """(core, |core| + core_1) for every core of size <= 6."""
    return [
        (core, size + (core[0] if core else 0))
        for size in range(7)
        for core in partitions_of(size)
    ]


def test_default_windows():
    m0 = FreeModuleSpec.regular(2, 0)
    assert default_dims_window(m0, 0) == list(range(2, 9))
    assert default_multiplicity_window(m0, (), 1) == list(range(4, 10))
    assert default_multiplicity_window(m0, (3,), 1) == list(range(10, 16))
    for spec in (m0, FreeModuleSpec.of_irreducible(3, (2, 1))):
        for core, least in _least_pads():
            for bound in range(3):
                window = default_multiplicity_window(spec, core, bound)
                assert window[0] == spec.m + least + spec.d * (bound + 1), (spec, core)


def test_verify_stability_reports():
    m0 = FreeModuleSpec.regular(2, 0)
    report = verify_stability(m0, [((), (1, 1))], range(0, 6))
    assert report.all_hold()
    assert report.spec is m0
    assert report.injectivity.dimension_witness
    assert report.injectivity.degrees == tuple(range(6))
    assert report.generation.dimensions_accounted
    assert report.generation.degrees == tuple(range(6))
    (plateau,) = report.plateaus
    assert (plateau.core, plateau.base_pads) == ((), (1, 1))
    assert (plateau.value, plateau.onset, plateau.guarantee_shift) == (1, 0, 0)

    ms1 = FreeModuleSpec.of_irreducible(2, (1,))
    report = verify_stability(ms1, [((), (2, 2))], range(1, 7))
    assert report.all_hold()
    assert report.plateaus[0].value == 2 and report.plateaus[0].onset == 0

    m0d1 = FreeModuleSpec.regular(1, 0)
    report = verify_stability(m0d1, [((), (0,))], range(0, 5))
    assert report.all_hold()
    assert report.plateaus[0].value == 1


def test_verify_stability_plateaus_are_the_stabilization_records():
    spec = FreeModuleSpec.regular(2, 3)
    probes = [((), (1, 1)), ([1], [3, 3]), ((2, 1), (6, 5))]
    report = verify_stability(spec, probes, [])
    assert report.plateaus == tuple(
        stabilized_padded_multiplicity(spec, *probe) for probe in probes
    )
    # The record holds the checked core and the pads as a tuple.
    assert (report.plateaus[1].core, report.plateaus[1].base_pads) == ((1,), (3, 3))
    # At pads (6, 5), delta = (1) multiplies the plateau 2 of pads (6, 6)
    # by s_(1)(1^2) = 2.
    assert [p.value for p in report.plateaus] == [8, 12, 4]


def test_reports_are_immutable():
    report = verify_stability(FreeModuleSpec.regular(2, 0), [((), (1, 1))], range(3))
    for field in ("spec", "plateaus"):
        with pytest.raises(AttributeError):
            setattr(report, field, None)
    with pytest.raises(AttributeError):
        report.plateaus[0].value = 0


def test_verify_stability_does_not_build_the_regular_generator(monkeypatch):
    # M(60) has 966,467 constituents; the report only carries the spec it got.
    def unbuilt(*args):
        raise AssertionError("regular generator built")

    monkeypatch.setattr(FreeModuleSpec, "regular", unbuilt)
    spec = FreeModuleSpec.of_irreducible(2, (60,))
    report = verify_stability(spec, [], [60])
    assert report.spec is spec and report.all_hold()


def test_generation_witness_sums_classes_not_compositions():
    # 41 boxes in 10 colors: 2.5e9 compositions, but 19,466 classes of
    # rearrangements, one term each.
    report = verify_stability(FreeModuleSpec.regular(10, 0), [], [40])
    assert report.generation.degrees == (40,)
    assert report.generation.dimensions_accounted


def test_exponential_polynomial_evaluate():
    ep = ExponentialPolynomial(
        (RationalPolynomial.of([1]), RationalPolynomial.of([0, Fraction(1, 2)]))
    )
    assert ep.evaluate(3) == 1 + Fraction(3, 2) * 8


def _sweep_specs(d):
    """M(0..4) and every irreducible generator of size <= 4, with d colors."""
    return [FreeModuleSpec.regular(d, m) for m in range(5)] + [
        FreeModuleSpec.of_irreducible(d, g) for m in range(5) for g in partitions_of(m)
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_series_matches_one_determinant_per_degree(d):
    # The first-row expansion against the determinant route, which builds the
    # whole Jacobi-Trudi matrix of each padded label (bounded_chain_count),
    # and 0 below |core| + core_1, where (n - |core|, *core) is no partition.
    for spec in _sweep_specs(d):
        for core, least in _least_pads():
            series = multiplicity_series(spec, core, range(22))
            for n, value in series.items():
                expected = 0 if n < least else _multiplicity(spec, pad(core, (n,)))
                assert value == expected, (spec, core, n)


@st.composite
def _series_case(draw):
    """A spec with one to three constituents, some possibly longer than the
    label, a core of up to 9 rows, and degrees from 0, below |core| + core_1
    too; d = 1 half the time."""
    d = draw(st.one_of(st.just(1), st.integers(1, 4)))
    m = draw(st.integers(0, 7))
    shapes = list(partitions_of(m))
    chosen = draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(chosen), max_size=len(chosen)))
    core = draw(
        st.lists(st.integers(1, 3), max_size=9).map(lambda p: tuple(sorted(p, reverse=True)))
    )
    top = sum(core) + (core[0] if core else 0) + m + 4
    degrees = draw(st.lists(st.integers(0, top), min_size=1, max_size=12))
    return FreeModuleSpec(d, Decomposition(m, dict(zip(chosen, weights)))), core, degrees


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_series_case())
def test_series_matches_the_determinant_route_on_long_cores(case):
    spec, core, degrees = case
    series = multiplicity_series(spec, core, degrees)
    assert series == {n: _multiplicity(spec, pad(core, (n,))) for n in degrees}


def test_series_expands_each_constituent_once_and_builds_no_determinant():
    clear_caches()
    spec = FreeModuleSpec.regular(3, 2)  # constituents (2,) and (1, 1)
    multiplicity_series(spec, (1,), range(13, 20))
    assert first_row_cofactors.cache_info().misses == 2
    assert bounded_chain_count.cache_info().misses == 0
    multiplicity_series(spec, (1,), range(14, 21))  # the window one step on
    assert first_row_cofactors.cache_info().misses == 2
