"""``repro.sat`` -- the third decision engine: CNF/CDCL bounded containment.

The explicit engine enumerates STGs, the symbolic engine runs BDD
fixpoints; this package decides the same paper verdicts by Tseitin-
encoding the two circuits' compiled op programs into CNF (over the
dual-rail ternary encoding the lane simulators already use), unrolling
a C-vs-D miter frame by frame, and handing the result to a pure-Python
CDCL solver.  Every verdict is backed by an exportable certificate
(DIMACS, SMV, replayable witness traces) that can be re-checked with no
trust in the SAT machinery -- see :mod:`repro.sat.replay`.

Public surface:

* :mod:`repro.sat.engine` -- ``check_implication`` (``Cᵏ ⊑ D``),
  ``check_safe_replacement`` (``C ≼ D``), ``check_cls_equivalence``
  and ``sat_delay_needed``, each answering with a
  :class:`~repro.sat.engine.SatResult` (or the least n); engine
  choice and budgets live in :func:`repro.decide.decide`.
* :mod:`repro.sat.certificates` -- DIMACS / SMV / witness-trace export.
* :mod:`repro.sat.replay` -- the independent witness checker
  (``python -m repro.sat.replay``).
"""

from .engine import (  # noqa: F401
    SAT_CONFLICT_LIMIT,
    SAT_FRAME_LIMIT,
    SatResult,
    check_cls_equivalence,
    check_implication,
    check_safe_replacement,
    sat_delay_needed,
)
from .witness import WitnessTrace  # noqa: F401

__all__ = [
    "SAT_CONFLICT_LIMIT",
    "SAT_FRAME_LIMIT",
    "SatResult",
    "WitnessTrace",
    "check_cls_equivalence",
    "check_implication",
    "check_safe_replacement",
    "sat_delay_needed",
]
