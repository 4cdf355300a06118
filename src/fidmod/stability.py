"""Hilbert-function fitting and stability verification for free modules.

Everything here is exact: fits are rational interpolation plus exact
validation on held-out degrees, never least squares.  Both fits, of
polynomials and of exponential polynomials sum_i p_i(n) i^n, go through one
engine that solves the integer collocation system in the monomial basis
n^k i^n by fraction-free elimination, so the solution is the monomial
coefficients themselves, and validates every window degree in integers.
"""

from __future__ import annotations

import math
from operator import index
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .free_modules import (
    FreeModuleSpec,
    constituent_multiplicity,
    dim_at,
    guarantee_shift,
    stabilized_padded_multiplicity,
)
from .partitions import Partition, compositions, multinomial, pad
from .pieri import bareiss_eliminate

# `fractions` (which loads `decimal`) is imported inside the functions that
# build a Fraction, so CLI commands that fit nothing never load it.
if TYPE_CHECKING:
    from fractions import Fraction


class NoExactFit(ValueError):
    """Candidate fit failed exact validation on a held-out degree."""


class InsufficientPoints(ValueError):
    """Window too small for the requested fit plus validation."""


class NotFree(TypeError):
    """Stability verification is only implemented for free module specs."""


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

    window = sorted(window)
    if (window and window[0] < 0) or len(set(window)) != len(window):
        raise ValueError(f"window degrees must be distinct and >= 0, got {window}")
    for n in window:
        if n not in values:
            raise ValueError(f"window degree {n} missing from series")

    def row(n: int) -> list[int]:
        return [n**k * i**n for i in range(1, bases + 1) for k in range(block)]

    size = bases * block
    system = [row(n) + [values[n]] for n in window[:size]]
    bareiss_eliminate(system)
    det = system[-1][size - 1] if system else 1
    nums = [0] * size
    for p in reversed(range(size)):
        rest = sum(system[p][c] * nums[c] for c in range(p + 1, size))
        nums[p] = (det * system[p][size] - rest) // system[p][p]
    common = math.gcd(det, *nums)
    den, nums = det // common, [y // common for y in nums]
    for n in window:
        got = sum(y * t for y, t in zip(nums, row(n)))
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
    if len(window) < degree_bound + 5:
        raise InsufficientPoints(
            f"need degree_bound + 5 = {degree_bound + 5} points, got {len(window)}"
        )
    return _fit_exact(series, 1, degree_bound + 1, window)[0]


def multiplicity_series(
    spec: FreeModuleSpec, lam: Partition, degrees: Sequence[int]
) -> dict[int, int]:
    """c_{lam, n}: multiplicity of the 1-padded family of lam at each level,
    keyed by level; lam = () gives the trivial representation's."""
    lam = tuple(lam)
    out: dict[int, int] = {}
    for n in degrees:
        padded = pad(lam, (n,))
        out[n] = 0 if padded is None else constituent_multiplicity(spec, padded)
    return out


def default_dims_window(spec: FreeModuleSpec, degree_bound: int) -> list[int]:
    """Window for dimension fitting: skips pre-stable degrees, then provides
    the fit block plus five validation degrees."""
    start = spec.m + spec.d * (degree_bound + 1)
    return list(range(start, start + spec.d * (degree_bound + 1) + 5))


def default_multiplicity_window(
    spec: FreeModuleSpec, lam: Partition, degree_bound: int
) -> list[int]:
    """Window for multiplicity fitting.  The start additionally skips
    |lam| + lam_1 degrees: multiplicities of short padded families settle
    only after the first row of the padded shape dominates."""
    lam = tuple(lam)
    first = lam[0] if lam else 0
    start = spec.m + sum(lam) + first + spec.d * (degree_bound + 1)
    return list(range(start, start + degree_bound + 5))


class InjectivityReport(NamedTuple):
    """Condition: the kernels of the d level maps intersect trivially."""

    degrees: tuple[int, ...]
    dimension_witness: bool


class GenerationReport(NamedTuple):
    """Condition: images of the level maps span the next level."""

    degrees: tuple[int, ...]
    dimensions_accounted: bool


class PlateauReport(NamedTuple):
    """Condition: shifted padded multiplicities are eventually constant."""

    core: Partition
    base_pads: tuple[int, ...]
    value: int
    onset: int
    guarantee_shift: int


class StabilityReport(NamedTuple):
    """Verdicts for injectivity and generation on a free module, and its
    measured plateaus, over explicitly listed degrees and probes only."""

    spec: FreeModuleSpec
    injectivity: InjectivityReport
    generation: GenerationReport
    plateaus: tuple[PlateauReport, ...]

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
    Generation is recorded as the color-frequency orbit dimensions
    accounting for the whole level n + 1.  Plateaus are measured with
    stabilized_padded_multiplicity on every probe; an onset never exceeds
    its guarantee shift, because the onset search walks down from it.
    """
    if not isinstance(spec, FreeModuleSpec):
        raise NotFree(f"expected a FreeModuleSpec, got {type(spec).__name__}")
    degs = tuple(sorted(set(map(index, degrees))))

    dim_witness = all(dim_at(spec, n) <= spec.d * dim_at(spec, n + 1) for n in degs)
    injectivity = InjectivityReport(degs, dim_witness)

    gen_degrees = tuple(n for n in degs if n >= spec.m)
    accounted = True
    gen_dim = spec.generator.total_dimension()
    for n in gen_degrees:
        total = 0
        for a in compositions(n + 1 - spec.m, spec.d):
            total += gen_dim * multinomial((spec.m, *a))
        if total != dim_at(spec, n + 1):
            accounted = False
    generation = GenerationReport(gen_degrees, accounted)

    plateaus = []
    for lam, base_pads in probes:
        lam, pads = tuple(lam), tuple(base_pads)
        value, onset = stabilized_padded_multiplicity(spec, lam, pads)
        plateaus.append(PlateauReport(lam, pads, value, onset, guarantee_shift(spec, pads)))
    return StabilityReport(spec, injectivity, generation, tuple(plateaus))
