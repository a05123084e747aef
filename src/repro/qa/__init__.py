"""Cross-engine conformance fuzzing, shrinking and the regression corpus.

The QA layer turns the repo's redundancy -- four containment engines,
in-process and served CLS sweeps across a process-boundary service, and
the paper's own theorems -- into a test oracle: on seeded random cases
every arm must agree on every claim, bit-for-bit where witnesses are
comparable.  See :mod:`repro.qa.generate` (recipes),
:mod:`repro.qa.differential` (the matrix and the ballot),
:mod:`repro.qa.shrink` (1-minimal reproducers), :mod:`repro.qa.corpus`
(bundles) and :mod:`repro.qa.fuzz` (the driver behind ``repro fuzz``).
The operating contract is ``docs/TESTING.md``.
"""

from .corpus import Bundle, iter_bundles, load_bundle, write_bundle
from .differential import (
    FAULT_NAMES,
    MATRICES,
    Ballot,
    DifferentialResult,
    injected_fault,
    run_differential,
)
from .fuzz import FuzzFailure, FuzzOutcome, run_fuzz
from .generate import Case, Recipe, build_case, random_recipe
from .shrink import shrink_case, shrink_circuit, shrink_moves

__all__ = [
    "Ballot",
    "Bundle",
    "Case",
    "DifferentialResult",
    "FAULT_NAMES",
    "FuzzFailure",
    "FuzzOutcome",
    "MATRICES",
    "Recipe",
    "build_case",
    "injected_fault",
    "iter_bundles",
    "load_bundle",
    "random_recipe",
    "run_differential",
    "run_fuzz",
    "shrink_case",
    "shrink_circuit",
    "shrink_moves",
    "write_bundle",
]
