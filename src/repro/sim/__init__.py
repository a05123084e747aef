"""Simulators: binary, conservative three-valued (CLS), exact, faulty.

All of them evaluate through the compile-once core in
:mod:`repro.sim.compiled`, the product's only evaluation path.  The
reference interpreter the property tests cross-check it against lives
with the tests (``tests/reference.py``), not here.
"""

from .core import SimulationTrace  # noqa: F401
from .compiled import CompiledCircuit, compile_circuit  # noqa: F401
from .binary import (  # noqa: F401
    BinarySimulator,
    all_power_up_states,
    format_state,
    parse_state,
    state_from_int,
    state_to_int,
)
from .ternary_sim import (  # noqa: F401
    TernarySimulator,
    all_x_state,
    cls_outputs,
    cls_resets,
)
from .exact import (  # noqa: F401
    ExactSimulator,
    exact_outputs,
    is_initializing_sequence,
    synchronized_state,
)
from .fault import (  # noqa: F401
    FaultSimulator,
    StuckAtFault,
    TestEvaluation,
    detection_time,
    detects_cls,
    detects_exact,
    enumerate_faults,
    faulty_overrides,
    good_outputs,
)
from .atpg import AtpgResult, generate_tests, grade_test_set  # noqa: F401
from .vcd import trace_to_vcd  # noqa: F401
