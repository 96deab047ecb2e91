"""Exact flag-count identities for nilpotent matrices over prime fields.

The package counts partial flags moved one step down by a nilpotent
matrix, reconstructs the count polynomials in q, and verifies that they
match explicit combinations of charge q-analogs and weight
multiplicities, together with degree bounds and top-coefficient
corollaries.  The exports are what a command of the command line or a
step of CI calls, and the types they take, return or raise; run_suite
runs every check, as `nilflag verify` does.

Input is checked where it enters: every name exported here, and the
command line, rejects a malformed size, partition, dimension vector or
prime with ValueError.  The code behind them takes valid tuples and does
not check them again.
"""

from .combinatorics import (
    enumerate_dimvecs,
    enumerate_partitions,
    kostka_number,
    parse_parts,
)
from .flaggeo import (
    Budget,
    BudgetExceeded,
    fiber_count,
    fiber_count_brute,
    fiber_polynomial,
)
from .qpoly import LaurentPoly, kostka_foulkes
from .verifier import (
    StalkConsistencyError,
    bootstrap_stalks,
    run_suite,
    verify_schur_weyl,
    verify_semismall,
    verify_stalk_bootstrap,
    verify_stalk_hypothesis,
    verify_top_components,
    verify_young_rule,
)

__version__ = "0.1.0"
