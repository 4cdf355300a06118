"""Acceptance suite: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All checks are exact (tolerance zero); the two oracle sweeps also enforce
their runtime caps.
"""

import math
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from fidmod.cli import oracle_scan
from fidmod.free_modules import (
    FreeModuleSpec,
    decompose_at,
    dim_at,
    is_constituent,
    stabilized_padded_multiplicity,
)
from fidmod.partitions import (
    contains,
    count_standard_tableaux,
    dim_irreducible,
    pad,
    partitions_of,
)
from fidmod.stability import (
    NoExactFit,
    default_multiplicity_window,
    fit_exponential_polynomial,
    fit_polynomial,
    multiplicity_series,
)
from oracles import partitions_in_box


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label}{suffix}"


def test_c01_hook_formula_oracle():
    start = time.perf_counter()
    checked = 0
    failures = []
    for n in range(9):
        for lam in partitions_of(n):
            checked += 1
            if dim_irreducible(lam) != count_standard_tableaux(lam):
                failures.append(lam)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    _verdict(
        "criterion 01 hook-formula oracle",
        ok,
        f"{checked} partitions, {elapsed:.2f}s, failures={failures}",
    )


def test_c02_pieri_character_oracle():
    start = time.perf_counter()
    cases, witness = oracle_scan(7)
    elapsed = time.perf_counter() - start
    ok = witness is None and elapsed < 60.0
    _verdict(
        "criterion 02 strip chains vs character oracle",
        ok,
        f"{cases} cases, {elapsed:.2f}s, counterexample={witness}",
    )


def _spec_family(d: int, m: int):
    specs = [FreeModuleSpec.regular(d, m)]
    for lam in partitions_of(m):
        spec = FreeModuleSpec.of_irreducible(d, lam)
        if spec not in specs:
            specs.append(spec)
    return specs


def test_c03_dimension_conservation():
    failures = []
    for d in (1, 2, 3):
        for m in range(4):
            for spec in _spec_family(d, m):
                dim_w = spec.generator.total_dimension()
                for n in range(10):
                    expected = (
                        dim_w * math.comb(n, m) * d ** (n - m) if n >= m else 0
                    )
                    if decompose_at(spec, n).total_dimension() != expected:
                        failures.append((d, spec, n))
    _verdict(
        "criterion 03 dimension conservation",
        not failures,
        f"m<=3 d<=3 n<=9, failures={failures}",
    )


_BOX = 6


@lru_cache(maxsize=None)
def _strip_ups_in_box(nu):
    """All one-strip extensions of nu inside the 6x6 box (zero strip included)."""
    h = len(nu)
    out = []

    def build(row, acc):
        if row == h:
            if h < _BOX:
                cap = min(nu[h - 1] if h else _BOX, _BOX)
                for v in range(cap, 0, -1):
                    out.append(tuple(acc) + (v,))
            out.append(tuple(acc))
            return
        lo = nu[row]
        hi = min(_BOX, nu[row - 1] if row else _BOX)
        for v in range(hi, lo - 1, -1):
            acc.append(v)
            build(row + 1, acc)
            acc.pop()

    build(0, [])
    return tuple(out)


def test_c04_greedy_equals_chain_reachability():
    box = list(partitions_in_box(_BOX, _BOX))
    disagreements = []
    pairs = 0
    for lam in box:
        layers = []
        reach = {lam}
        for _ in range(3):
            nxt = set()
            for nu in reach:
                nxt.update(_strip_ups_in_box(nu))
            reach = nxt
            layers.append(reach)
        for mu in box:
            if not contains(mu, lam):
                continue
            pairs += 1
            for d in (1, 2, 3):
                greedy = is_constituent(mu, lam, d)
                chains = mu in layers[d - 1]
                if greedy != chains:
                    disagreements.append((mu, lam, d))
    _verdict(
        "criterion 04 greedy vs chain constituency (6x6 box)",
        not disagreements,
        f"{pairs} containment pairs x 3 color counts, disagreements={disagreements}",
    )


def test_c05_d_weight_bound_and_exactness():
    failures = []
    checked = 0
    for d in (1, 2, 3):
        for size in range(5):
            for lam in partitions_of(size):
                spec = FreeModuleSpec.of_irreducible(d, lam)
                # exactness: the minimal d-padding of the generator, at level
                # d*b - (d-1)*m with b = max(m + lam_1, 1), has core size m
                b = max(size + (lam[0] if lam else 0), 1)
                witness = d * b - (d - 1) * size
                attained = False
                for n in sorted(set(range(size + 2 * d + 1)) | {witness}):
                    for mu, _ in decompose_at(spec, n).items():
                        if len(mu) >= d:
                            checked += 1
                            core_size = sum(mu[d:])
                            if core_size > size:
                                failures.append((d, lam, n, mu))
                            attained |= n == witness and core_size == size
                if not attained:
                    failures.append((d, lam, "weight", witness))
    _verdict(
        "criterion 05 weight bound and exactness",
        not failures,
        f"{checked} padded constituents, failures={failures}",
    )


def _base_pad_shapes(d: int, low: int):
    yield (low,) * d
    yield tuple(low + (1 if i == 0 else 0) for i in range(d))
    yield tuple(low + d - 1 - i for i in range(d))


def test_c06_stabilization_onset_bound():
    failures = []
    runs = 0
    for d in (1, 2, 3):
        for m in range(4):
            for gen in partitions_of(m):
                spec = FreeModuleSpec.of_irreducible(d, gen)
                bound = (gen[0] if gen else 0) + m
                probes = [lam for s in range(3) for lam in partitions_of(s)]
                for lam in probes:
                    for nd in range(bound + 3):
                        for pads in set(_base_pad_shapes(d, nd)):
                            runs += 1
                            result = stabilized_padded_multiplicity(spec, lam, pads)
                            if result.onset > max(0, bound - nd):
                                failures.append((d, gen, lam, pads, result.value, result.onset))
    _verdict(
        "criterion 06 plateau onset within the structural bound",
        not failures,
        f"{runs} stabilizations, failures={failures}",
    )


def test_c07_coinvariants_identity():
    failures = []
    for d in (1, 2, 3):
        for m in range(5):
            spec = FreeModuleSpec.of_irreducible(d, (m,) if m else ())
            series = multiplicity_series(spec, (), range(m + 11))
            for n in range(m + 11):
                # Hilbert function of a rank-1 free module over k[x_1..x_d]
                # generated in degree m
                hilbert = math.comb(n - m + d - 1, d - 1) if n >= m else 0
                if series[n] != hilbert:
                    failures.append((d, m, n))
    _verdict(
        "criterion 07 coinvariants identity",
        not failures,
        f"m<=4 d<=3 n<=m+10, failures={failures}",
    )


def test_c08_multiplicity_polynomials():
    failures = []
    fits = 0
    for d in (1, 2, 3):
        specs = []
        for m in range(3):
            for spec in _spec_family(d, m):
                if spec not in specs:
                    specs.append(spec)
        for spec in specs:
            for size in range(4):
                for lam in partitions_of(size):
                    degree_bound = d - 1
                    window = default_multiplicity_window(spec, lam, degree_bound)
                    series = multiplicity_series(spec, lam, window)
                    fits += 1
                    try:
                        poly = fit_polynomial(series, degree_bound, window)
                    except NoExactFit as exc:
                        failures.append((d, spec, lam, str(exc)))
                        continue
                    if poly.degree > d - 1:
                        failures.append((d, spec, lam, poly))
    m0 = FreeModuleSpec.regular(2, 0)
    for lam, expect in [((), (Fraction(1), Fraction(1))), ((1,), (Fraction(-1), Fraction(1)))]:
        window = default_multiplicity_window(m0, lam, 1)
        poly = fit_polynomial(multiplicity_series(m0, lam, window), 1, window)
        if poly.coeffs != expect:
            failures.append(("specific", lam, poly))
    _verdict(
        "criterion 08 multiplicity series are polynomials of degree < d",
        not failures,
        f"{fits} fits, failures={failures}",
    )


def test_c09_dimension_fitting():
    failures = []
    for d in (1, 2, 3):
        # pure exponential: the rank-one module generated in degree 0
        window = list(range(0, d + 8))
        series = {n: d**n for n in window}
        fit = fit_exponential_polynomial(series, d, 0, window)
        if fit.polynomials[-1].coeffs != (Fraction(1),) or any(
            not p.is_zero() for p in fit.polynomials[:-1]
        ):
            failures.append((d, "pure", fit))
        # one-dimensional generator in degree 1: dims n * d^(n-1)
        window = list(range(1, 2 * d + 6))
        series = {n: dim_at(FreeModuleSpec.of_irreducible(d, (1,)), n) for n in window}
        fit = fit_exponential_polynomial(series, d, 1, window)
        if fit.polynomials[-1].coeffs != (Fraction(0), Fraction(1, d)) or any(
            not p.is_zero() for p in fit.polynomials[:-1]
        ):
            failures.append((d, "degree-1", fit))
        # held-out validation really is exercised: 5 extra degrees beyond the lead block
        if len(window) - 2 * d < 5:
            failures.append((d, "window too small for 5 validation degrees"))
        # corrupted series must be rejected
        window = list(range(0, d + 8))
        corrupted = {n: d**n for n in window}
        corrupted[window[-2]] += 1
        try:
            fit_exponential_polynomial(corrupted, d, 0, window)
            failures.append((d, "corrupted series accepted"))
        except NoExactFit:
            pass
    _verdict(
        "criterion 09 dimension series fitting",
        not failures,
        f"d<=3 with corrupted-series rejection, failures={failures}",
    )


def test_c10_catalan_growth():
    failures = [
        n
        for n in range(13)
        if (n + 1) * dim_irreducible(pad((), (n, n))) != math.comb(2 * n, n)
    ]
    _verdict(
        "criterion 10 two-row padded dimensions are Catalan numbers",
        not failures,
        f"n<=12, failures={failures}",
    )
