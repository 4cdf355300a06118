"""Exact invariants of free modules over categories of d-colored injections.

Irreducible decompositions, padded multiplicities and their stabilization,
and exact Hilbert series of free FI_d-modules in characteristic 0, with an
independent character-theory oracle.  This namespace is the supported API;
everything else stays importable from its submodule.  The package holds
what the library and CLI run and two statements the acceptance suite
checks; reference implementations only tests use are in `tests/oracles.py`.
"""

from .partitions import InvalidPartition
from .pieri import Decomposition, pieri_product
from .characters import decompose, induce_trivial_product
from .free_modules import (
    FreeModuleSpec,
    NoStabilization,
    constituent_multiplicity,
    decompose_at,
    dim_at,
    padded_multiplicity,
    stabilized_padded_multiplicity,
)
from .stability import (
    InsufficientPoints,
    NoExactFit,
    default_dims_window,
    default_multiplicity_window,
    fit_exponential_polynomial,
    fit_polynomial,
    multiplicity_series,
    verify_stability,
)

__version__ = "0.1.0"
