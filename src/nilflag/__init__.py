"""Exact flag-count identities for nilpotent matrices over prime fields.

The package counts partial flags moved one step down by a nilpotent
matrix, reconstructs the count polynomials in q, and verifies that they
match explicit combinations of charge q-analogs and weight
multiplicities, together with degree bounds and top-coefficient
corollaries.
"""

from .combinatorics import (
    DimVector,
    Partition,
    Tableau,
    conjugate,
    dominates,
    enumerate_dimvecs,
    enumerate_partitions,
    enumerate_ssyt,
    flag_dim,
    format_parts,
    kostka_number,
    n_stat,
    nilcone_dim,
    orbit_dim,
    parse_parts,
    refines,
    schur_dim,
    syt_count,
)
from .flaggeo import (
    Budget,
    BudgetExceeded,
    CountCache,
    FiberCountRecord,
    FqMatrix,
    FqSubspace,
    PrimeField,
    count_flags,
    enumerate_subspaces,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
    is_prime,
    jordan_matrix,
    jordan_type,
    kernel_subspace,
    quotient_type,
)
from .qpoly import (
    LaurentPoly,
    charge,
    gaussian_binomial,
    kostka_foulkes,
    modified_kostka_foulkes,
    reading_word,
    word_charge,
)
from .verifier import (
    CheckResult,
    FiberStore,
    StalkConsistencyError,
    StalkTable,
    VerificationReport,
    bootstrap_stalks,
    run_suite,
    trace_identity_rhs,
    verify_schur_weyl,
    verify_semismall,
    verify_stalk_bootstrap,
    verify_stalk_hypothesis,
    verify_top_components,
    verify_trace_identity,
    verify_young_rule,
)

__version__ = "0.1.0"
