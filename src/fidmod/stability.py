"""Hilbert-function fitting and stability verification for free modules.

Everything here is exact: fits are rational interpolation plus exact
validation on held-out degrees, never least squares.  Both fits, of
polynomials and of exponential polynomials sum_i p_i(n) i^n, go through one
engine that solves the integer collocation system in the monomial basis
n^k i^n by fraction-free elimination, so the solution is the monomial
coefficients themselves, and validates every window degree in integers, by
Horner's rule on the reduced numerators.  Multiplicity series evaluate each
degree from the memoized first-row Jacobi-Trudi cofactors of the generator's
constituents, so a series costs one cofactor expansion per constituent and
a sum of binomials per degree.  Specs, partitions, degrees and degree
bounds are checked once, on entry.
"""

from __future__ import annotations

import math
from operator import index
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .free_modules import (
    FreeModuleSpec,
    StabilizationResult,
    _composition_classes,
    checked_spec,
    dim_at,
    stabilized_padded_multiplicity,
)
from .partitions import Partition, checked_count, contains, least_pad, multinomial, new_partition
from .pieri import bareiss_eliminate, first_row_cofactors

# `fractions` (which loads `decimal`) is imported inside the functions that
# build a Fraction, so CLI commands that fit nothing never load it.
if TYPE_CHECKING:
    from fractions import Fraction


class NoExactFit(ValueError):
    """Candidate fit failed exact validation on a held-out degree."""


class InsufficientPoints(ValueError):
    """Window too small for the requested fit plus validation."""


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


class RationalPolynomial(NamedTuple):
    """Polynomial with exact rational coefficients, low degree first."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Sequence) -> "RationalPolynomial":
        from fractions import Fraction

        return cls(_trim([Fraction(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def evaluate(self, n: int) -> Fraction:
        from fractions import Fraction

        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * n + c
        return acc

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "n" if k == 1 else f"n^{k}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}*{var}")
        return " + ".join(terms).replace("+ -", "- ")


class ExponentialPolynomial(NamedTuple):
    """n -> sum_i p_i(n) * i^n with rational polynomial coefficients."""

    polynomials: tuple[RationalPolynomial, ...]

    @property
    def bases(self) -> int:
        return len(self.polynomials)

    def evaluate(self, n: int) -> Fraction:
        from fractions import Fraction

        return sum(
            (p.evaluate(n) * (i + 1) ** n for i, p in enumerate(self.polynomials)),
            Fraction(0),
        )


def _fit_exact(
    values: Mapping[int, int], bases: int, block: int, window: Sequence[int]
) -> list[RationalPolynomial]:
    """Fit n -> sum_{i <= bases} p_i(n) i^n with deg p_i < block on the
    leading bases * block window degrees; validate on every window degree.

    The collocation matrix [n^k i^n] is integer, so the system is solved by
    fraction-free (Bareiss) elimination and integer back-substitution over
    det; reduced to their least common denominator den, the solution is the
    monomial coefficients times den.  On distinct real nodes the system is
    nonsingular and no row swap occurs: each initial segment of the basis
    is a Chebyshev system (a non-zero sum_i p_i(x) e^(x log i) has fewer
    real zeros than coefficients), so every leading minor is non-zero.
    Negative degrees are rejected because i^n would not be an integer.
    """
    from fractions import Fraction

    window = sorted(map(index, window))
    if (window and window[0] < 0) or len(set(window)) != len(window):
        raise ValueError(f"window degrees must be distinct and >= 0, got {window}")
    for n in window:
        if n not in values:
            raise ValueError(f"window degree {n} missing from series")

    size = bases * block
    system = [
        [n**k * i**n for i in range(1, bases + 1) for k in range(block)] + [values[n]]
        for n in window[:size]
    ]
    bareiss_eliminate(system)
    det = system[-1][size - 1] if system else 1
    nums = [0] * size
    for p in reversed(range(size)):
        rest = sum(system[p][c] * nums[c] for c in range(p + 1, size))
        nums[p] = (det * system[p][size] - rest) // system[p][p]
    common = math.gcd(det, *nums)
    den, nums = det // common, [y // common for y in nums]
    # Each p_i(n), highest coefficient first for Horner's rule.
    highest_first = [nums[i * block : (i + 1) * block][::-1] for i in range(bases)]
    for n in window:
        got = 0
        for i, coeffs in enumerate(highest_first, 1):
            acc = 0
            for y in coeffs:
                acc = acc * n + y
            got += acc * i**n
        if got != den * values[n]:
            raise NoExactFit(
                f"fit gives {Fraction(got, den)} at degree {n}, series has {values[n]}"
            )
    coeffs = [Fraction(y, den) for y in nums]
    return [
        RationalPolynomial(_trim(coeffs[i * block : (i + 1) * block])) for i in range(bases)
    ]


def fit_exponential_polynomial(
    series: Mapping[int, int],
    d: int,
    degree_bound: int,
    window: Sequence[int],
) -> ExponentialPolynomial:
    """Fit n -> sum p_i(n) i^n exactly on the leading window points and
    validate exactly on every remaining one."""
    d, degree_bound = checked_count(d, "d", 1), checked_count(degree_bound, "degree bound")
    lead_count = d * (degree_bound + 1)
    if len(window) < lead_count + 3:
        raise InsufficientPoints(
            f"need {lead_count} fit points plus 3 validation points, got {len(window)}"
        )
    return ExponentialPolynomial(tuple(_fit_exact(series, d, degree_bound + 1, window)))


def fit_polynomial(
    series: Mapping[int, int],
    degree_bound: int,
    window: Sequence[int],
) -> RationalPolynomial:
    """Interpolate the leading degree_bound + 1 window points and validate
    exactly on every remaining point."""
    degree_bound = checked_count(degree_bound, "degree bound")
    if len(window) < degree_bound + 5:
        raise InsufficientPoints(
            f"need degree_bound + 5 = {degree_bound + 5} points, got {len(window)}"
        )
    return _fit_exact(series, 1, degree_bound + 1, window)[0]


def multiplicity_series(
    spec: FreeModuleSpec, lam: Partition, degrees: Sequence[int]
) -> dict[int, int]:
    """c_{lam, n}: multiplicity of the 1-padded family of lam at each level,
    keyed by level; lam = () gives the trivial representation's.

    c_{lam, n} = sum over generator constituents mu of w_mu s_{lam[n]/mu}(1^d),
    and only the first row of each Jacobi-Trudi matrix depends on n, so each
    degree sums the memoized first_row_cofactors of every mu against
    h(n - |lam| + offset), h(k) = C(k + d - 1, d - 1).  A constituent whose
    first part exceeds n - |lam| is skipped, since lam[n] does not contain
    it; for every other one each offset j - mu_j (columns from 0) is at
    least minus that first part, so every h argument is >= 0.  Each degree
    is checked as a count; below least_pad(lam) the label denotes the zero
    representation and c is 0.
    """
    spec, lam = checked_spec(spec), new_partition(lam)
    size, lower_index, least = sum(lam), spec.d - 1, least_pad(lam)
    expansions = []
    for mu, weight in spec.generator.unordered_items():
        # A mu that no label lam[n] contains is skipped before the memoized
        # call, so the memo does not fill with empty expansions.
        if contains(lam, mu[1:]):
            pairs = first_row_cofactors(mu, lam, spec.d)
            if pairs:
                expansions.append((mu[0] if mu else 0, weight, pairs))
    series = {}
    for n in degrees:
        if checked_count(n, "degree") < least:
            series[n] = 0
            continue
        row, total = n - size, 0
        base = row + lower_index
        for first, weight, pairs in expansions:
            if first <= row:
                term = 0
                for cofactor, offset in pairs:
                    term += cofactor * math.comb(base + offset, lower_index)
                total += weight * term
        series[n] = total
    return series


def default_dims_window(spec: FreeModuleSpec, degree_bound: int) -> list[int]:
    """Window for dimension fitting: skips pre-stable degrees, then provides
    the fit block plus five validation degrees."""
    spec = checked_spec(spec)
    block = spec.d * (checked_count(degree_bound, "degree bound") + 1)
    return list(range(spec.m + block, spec.m + 2 * block + 5))


def default_multiplicity_window(
    spec: FreeModuleSpec, lam: Partition, degree_bound: int
) -> list[int]:
    """Window for multiplicity fitting.  The start additionally skips
    least_pad(lam) degrees: multiplicities of short padded families settle
    only after the first row of the padded shape dominates."""
    spec, lam = checked_spec(spec), new_partition(lam)
    degree_bound = checked_count(degree_bound, "degree bound")
    start = spec.m + least_pad(lam) + spec.d * (degree_bound + 1)
    return list(range(start, start + degree_bound + 5))


class InjectivityReport(NamedTuple):
    """Condition: the kernels of the d level maps intersect trivially."""

    degrees: tuple[int, ...]
    dimension_witness: bool


class GenerationReport(NamedTuple):
    """Condition: images of the level maps span the next level."""

    degrees: tuple[int, ...]
    dimensions_accounted: bool


class StabilityReport(NamedTuple):
    """Verdicts for injectivity and generation on a free module, and its
    measured plateaus, over explicitly listed degrees and probes only."""

    spec: FreeModuleSpec
    injectivity: InjectivityReport
    generation: GenerationReport
    plateaus: tuple[StabilizationResult, ...]

    def all_hold(self) -> bool:
        return self.injectivity.dimension_witness and self.generation.dimensions_accounted


def verify_stability(
    spec: FreeModuleSpec,
    probes: Sequence[tuple[Partition, Sequence[int]]],
    degrees: Sequence[int],
) -> StabilityReport:
    """Check the three stability conditions on a free module.

    Injectivity of the joint level maps holds structurally for free modules
    (composition with the d colored inclusions is injective on basis
    morphisms); a dimension inequality is recorded as a numeric witness.
    Generation is recorded as the color-frequency orbit dimensions, one
    term per class of rearrangements, accounting for the whole level n + 1.
    The plateaus are the records stabilized_padded_multiplicity returns,
    one per probe, in probe order; an onset never exceeds its guarantee
    shift (it is bisected below it).
    A spec that is not a FreeModuleSpec raises TypeError (checked_spec).
    """
    spec = checked_spec(spec)
    degs = tuple(sorted({checked_count(n, "degree") for n in degrees}))

    dim_witness = all(dim_at(spec, n) <= spec.d * dim_at(spec, n + 1) for n in degs)
    injectivity = InjectivityReport(degs, dim_witness)

    gen_degrees = tuple(n for n in degs if n >= spec.m)
    accounted = True
    gen_dim = spec.generator.total_dimension()
    for n in gen_degrees:
        classes = _composition_classes(n + 1 - spec.m, spec.d)
        total = sum(ways * multinomial((spec.m, *parts)) for parts, ways in classes)
        if gen_dim * total != dim_at(spec, n + 1):
            accounted = False
    generation = GenerationReport(gen_degrees, accounted)

    plateaus = tuple(stabilized_padded_multiplicity(spec, lam, pads) for lam, pads in probes)
    return StabilityReport(spec, injectivity, generation, plateaus)
