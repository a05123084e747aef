"""State-transition-graph analyses: equivalence, replaceability, SHE."""

from .explicit import MAX_STG_BITS, STG, extract_stg  # noqa: F401
from .equivalence import (  # noqa: F401
    QuotientMachine,
    decide_implication,
    equivalence_classes,
    equivalent_state_in,
    implies,
    joint_equivalence_classes,
    machines_equivalent,
    quotient,
)
from .replaceability import (  # noqa: F401
    SafeReplacementViolation,
    SearchBudgetExceeded,
    decide_safe_replacement,
    find_safe_replacement_violation,
    find_violation,
    is_safe_replacement,
)
from .delayed import (  # noqa: F401
    delay_needed_for_implication,
    delayed_implies,
    delayed_states,
    stable_states,
)
from .scc import (  # noqa: F401
    SheReport,
    she_analysis,
    steady_state_equivalent,
    strongly_connected_components,
    terminal_sccs,
)
from .ternary_equiv import (  # noqa: F401
    CLSDistinguisher,
    cls_equivalent_exhaustive,
    cls_reachable_pairs,
    decide_cls_equivalence,
)
from .symbolic import (  # noqa: F401
    SymbolicMachine,
    product_outputs_equivalent,
    symbolic_delayed_states,
)
from .symbolic_replaceability import (  # noqa: F401
    SymbolicContainmentChecker,
    symbolic_delay_needed_for_implication,
)
