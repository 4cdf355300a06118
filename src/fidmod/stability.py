"""Hilbert-function fitting and stability verification for free modules.

Everything here is exact: fits are rational interpolation plus exact
validation on held-out degrees, never least squares.  Polynomials are fit
through binomial-coefficient coordinates (integer for integer-valued
series) and stored with monomial rational coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .free_modules import (
    FreeModuleSpec,
    constituent_multiplicity,
    dim_at,
    guarantee_shift,
    stabilized_padded_multiplicity,
)
from .partitions import (
    Partition,
    ZERO_LABEL,
    compositions,
    dim_irreducible,
    multinomial,
    pad,
)


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


def _poly_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_scale(a: Sequence[Fraction], s: Fraction) -> list[Fraction]:
    return [c * s for c in a]


def _poly_mul_linear(a: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    """Multiply by (x - root)."""
    out = [Fraction(0)] * (len(a) + 1)
    for i, c in enumerate(a):
        out[i + 1] += c
        out[i] -= c * root
    return out


@dataclass(frozen=True)
class RationalPolynomial:
    """Polynomial with exact rational coefficients, low degree first."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, coeffs: Sequence) -> "RationalPolynomial":
        return cls(_trim([Fraction(c) for c in coeffs]))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def evaluate(self, n: int) -> Fraction:
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


@dataclass(frozen=True)
class ExponentialPolynomial:
    """n -> sum_i p_i(n) * i^n with rational polynomial coefficients."""

    polynomials: tuple[RationalPolynomial, ...]

    @property
    def bases(self) -> int:
        return len(self.polynomials)

    def evaluate(self, n: int) -> Fraction:
        return sum(
            (p.evaluate(n) * (i + 1) ** n for i, p in enumerate(self.polynomials)),
            Fraction(0),
        )


@dataclass(frozen=True)
class MultiplicitySeries:
    """Multiplicities of one padded irreducible family, by level."""

    core: Partition
    values: Mapping[int, int]

    def __post_init__(self):
        for n, v in self.values.items():
            if v < 0:
                raise ValueError(f"negative multiplicity {v} at degree {n}")


def _binomial_poly(k: int) -> list[Fraction]:
    """C(n, k) expanded in monomials of n."""
    coeffs: list[Fraction] = [Fraction(1)]
    for t in range(k):
        coeffs = _poly_mul_linear(coeffs, Fraction(t))
    return _poly_scale(coeffs, Fraction(1, math.factorial(k)))


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; the systems built here are
    collocation matrices of Chebyshev systems and are always nonsingular."""
    size = len(matrix)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular interpolation system")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][size] for r in range(size)]


def _series_values(series) -> Mapping[int, int]:
    if isinstance(series, MultiplicitySeries):
        return series.values
    return dict(series)


def fit_exponential_polynomial(
    series: Mapping[int, int],
    d: int,
    degree_bound: int,
    window: Sequence[int],
) -> ExponentialPolynomial:
    """Fit n -> sum p_i(n) i^n exactly on the leading window points and
    validate exactly on every remaining one."""
    values = _series_values(series)
    window = sorted(window)
    block = degree_bound + 1
    lead_count = d * block
    if len(window) < lead_count + 3:
        raise InsufficientPoints(
            f"need {lead_count} fit points plus 3 validation points, got {len(window)}"
        )
    for n in window:
        if n not in values:
            raise ValueError(f"window degree {n} missing from series")
    lead = window[:lead_count]
    rows = []
    for n in lead:
        row = []
        for i in range(1, d + 1):
            power = i**n
            for k in range(block):
                row.append(Fraction(math.comb(n, k) * power))
        rows.append(row)
    solution = _solve_exact(rows, [Fraction(values[n]) for n in lead])
    polys = []
    for i in range(d):
        coeffs: list[Fraction] = []
        for k in range(block):
            coeffs = _poly_add(coeffs, _poly_scale(_binomial_poly(k), solution[i * block + k]))
        polys.append(RationalPolynomial(_trim(coeffs)))
    result = ExponentialPolynomial(tuple(polys))
    for n in window:
        got = result.evaluate(n)
        if got != values[n]:
            raise NoExactFit(f"fit gives {got} at degree {n}, series has {values[n]}")
    return result


def fit_polynomial(
    series: "MultiplicitySeries | Mapping[int, int]",
    degree_bound: int,
    window: Sequence[int],
) -> RationalPolynomial:
    """Interpolate the leading degree_bound + 1 window points by divided
    differences and validate exactly on every remaining point."""
    values = _series_values(series)
    if len(window) < degree_bound + 5:
        raise InsufficientPoints(
            f"need degree_bound + 5 = {degree_bound + 5} points, got {len(window)}"
        )
    window = sorted(window)
    for n in window:
        if n not in values:
            raise ValueError(f"window degree {n} missing from series")
    nodes = window[: degree_bound + 1]
    coef = [Fraction(values[n]) for n in nodes]
    for j in range(1, len(nodes)):
        for i in range(len(nodes) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    poly: list[Fraction] = []
    basis: list[Fraction] = [Fraction(1)]
    for j, c in enumerate(coef):
        poly = _poly_add(poly, _poly_scale(basis, c))
        basis = _poly_mul_linear(basis, Fraction(nodes[j]))
    result = RationalPolynomial(_trim(poly))
    for n in window:
        got = result.evaluate(n)
        if got != values[n]:
            raise NoExactFit(f"fit gives {got} at degree {n}, series has {values[n]}")
    return result


def coinvariants_hilbert(m: int, d: int, n: int) -> int:
    """Degree-n dimension of a rank-1 free graded module over a d-variable
    polynomial ring, generated in degree m."""
    if n < m:
        return 0
    return math.comb(n - m + d - 1, d - 1)


def multiplicity_series(
    spec: FreeModuleSpec, lam: Partition, degrees: Sequence[int]
) -> MultiplicitySeries:
    """c_{lam, n}: multiplicity of the 1-padded family of lam at each level."""
    lam = tuple(lam)
    out: dict[int, int] = {}
    for n in degrees:
        padded = pad(lam, (n,))
        out[n] = 0 if padded is ZERO_LABEL else constituent_multiplicity(spec, padded)
    return MultiplicitySeries(lam, out)


def trivial_multiplicity_series(
    spec: FreeModuleSpec, degrees: Sequence[int]
) -> MultiplicitySeries:
    """Multiplicity of the trivial representation at each level; for a pure
    trivial generator this matches coinvariants_hilbert pointwise."""
    return multiplicity_series(spec, (), degrees)


def padded_dimension(lam: Partition, pads: Sequence[int], shift: int) -> int:
    """Dimension of the padded irreducible with every pad shifted; 0 when the
    shifted label denotes the zero representation."""
    shifted = tuple(int(p) + shift for p in pads)
    padded = pad(tuple(lam), shifted)
    if padded is ZERO_LABEL:
        return 0
    return dim_irreducible(padded)


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


@dataclass(frozen=True)
class InjectivityReport:
    """Condition: the kernels of the d level maps intersect trivially."""

    degrees: tuple[int, ...]
    structural: bool
    dimension_witness: bool

    @property
    def holds(self) -> bool:
        return self.structural and self.dimension_witness


@dataclass(frozen=True)
class GenerationReport:
    """Condition: images of the level maps span the next level."""

    degrees: tuple[int, ...]
    orbits_reachable: bool
    dimensions_accounted: bool

    @property
    def holds(self) -> bool:
        return self.orbits_reachable and self.dimensions_accounted


@dataclass(frozen=True)
class PlateauReport:
    """Condition: shifted padded multiplicities are eventually constant."""

    core: Partition
    base_pads: tuple[int, ...]
    value: int
    onset: int
    guarantee_shift: int

    @property
    def holds(self) -> bool:
        return self.onset <= self.guarantee_shift


@dataclass(frozen=True)
class StabilityReport:
    """Verdicts for the three stability conditions on a free module, over
    explicitly listed degrees and probes only."""

    spec_description: str
    injectivity: InjectivityReport
    generation: GenerationReport
    plateaus: tuple[PlateauReport, ...]

    def all_hold(self) -> bool:
        return (
            self.injectivity.holds
            and self.generation.holds
            and all(p.holds for p in self.plateaus)
        )


def verify_stability(
    spec: FreeModuleSpec,
    probes: Sequence[tuple[Partition, Sequence[int]]],
    degrees: Sequence[int],
) -> StabilityReport:
    """Check the three stability conditions on a free module.

    Injectivity of the joint level maps holds structurally for free modules
    (composition with the d colored inclusions is injective on basis
    morphisms); a dimension inequality is recorded as a numeric witness.
    Generation is checked combinatorially: every color-frequency orbit of
    level n + 1 is reachable by appending the new point to an orbit of level
    n, and the orbit dimensions account for the whole level.  Plateaus are
    measured with stabilized_padded_multiplicity on every probe.
    """
    if not isinstance(spec, FreeModuleSpec):
        raise NotFree(f"expected a FreeModuleSpec, got {type(spec).__name__}")
    degs = tuple(sorted(set(int(n) for n in degrees)))

    dim_witness = all(dim_at(spec, n) <= spec.d * dim_at(spec, n + 1) for n in degs)
    injectivity = InjectivityReport(degs, structural=True, dimension_witness=dim_witness)

    gen_degrees = tuple(n for n in degs if n >= spec.m)
    reachable = True
    accounted = True
    gen_dim = spec.generator_dimension()
    for n in gen_degrees:
        total = 0
        for a in compositions(n + 1 - spec.m, spec.d):
            if not any(a):
                # Only possible at level m itself, which is below n + 1 here.
                reachable = False
            total += gen_dim * multinomial((spec.m, *a))
        if total != dim_at(spec, n + 1):
            accounted = False
    generation = GenerationReport(gen_degrees, reachable, accounted)

    plateaus = []
    for lam, base_pads in probes:
        lam = tuple(lam)
        pads = tuple(int(p) for p in base_pads)
        value, onset = stabilized_padded_multiplicity(spec, lam, pads)
        plateaus.append(PlateauReport(lam, pads, value, onset, guarantee_shift(spec, pads)))
    return StabilityReport(spec.describe(), injectivity, generation, tuple(plateaus))
