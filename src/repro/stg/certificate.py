"""Certifying ``C ⊑ D`` from a retiming's move history (Cor 4.4).

The paper proves Prop 4.1 and Cor 4.4 move by move, and the proofs are
constructive.  An atomic move across a cell F relates the latches it
moved through F: with z the latches on F's inputs and y those on its
outputs, ``y = F(z)``, and every other latch keeps its value.  Composed
along :attr:`repro.retime.engine.RetimingSession.history`, quantifying
out the latches of every intermediate circuit, the moves give one
relation ``R(c, d)`` between the states of the retimed circuit C and
the original D.  Two checks, made on the two netlists, certify
``C ⊑ D``:

* **totality** -- ``∀c ∃d R(c, d)``;
* **one-step closure** -- ``R(c, d)`` implies equal outputs and
  ``R(δ_C(c, i), δ_D(d, i))`` on every input ``i``.

Closure makes every related pair equivalent (by induction on the input
sequence; the paper's machines have no initial state, so there is no
base case), and totality gives every state of C an equivalent state of
D.  Neither check trusts how R was built: a wrong history or a
corrupted netlist fails them, so the proof never rests on the move
classifier.  R is total unless a non-justifiable cell was crossed
forward, the paper's hazard.  A failed certificate decides nothing --
another relation might still witness ``C ⊑ D`` -- so
:func:`repro.decide.decide` then runs an engine as it would have
without one.

Three choices keep the check at one frame's cost (``docs/THEORY.md``):

* a latch no move touched is one variable shared by C and D, so its
  identity conjunct never exists;
* the primary inputs sit at the top of the variable order, and each
  moved latch sits next to the latches its move related it to;
* closure substitutes the next-state functions into R (vector
  composition) instead of conjoining transition relations.

The manager runs under :data:`NODE_BUDGET`; a relation that outgrows it
is a failed certificate, not an error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.bdd import BDD, BDDManager, NodeLimitExceeded
from ..netlist.circuit import Circuit
from ..obs.trace import TRACER as _TRACE
from ..obs.trace import span as _span
from .symbolic import cell_output_bdd, net_functions
from .symbolic_replaceability import _publish_bdd_stats

__all__ = ["NODE_BUDGET", "MoveCertificate", "RecordMismatch", "certify"]

#: Unique-table budget of one certificate's BDD manager.  The
#: relation, both machines' functions and the composed relation all
#: live in it without garbage collection, so the budget bounds the work.
NODE_BUDGET = 200_000

#: Why a certificate failed: the record does not describe the pair, R
#: is not total or not closed, or it outgrew :data:`NODE_BUDGET`.
MISMATCH, NOT_TOTAL, NOT_CLOSED, OVER_BUDGET = (
    "history does not match the circuits",
    "not total",
    "not closed",
    "over its node budget",
)


class RecordMismatch(ValueError):
    """The move record does not lead from D's latches to C's."""


def _instances(history: Sequence, d: Circuit, c: Circuit):
    """One identity per latch instance, following the record: D's
    latches, then each move's created latches.  Returns the variable
    order (inputs excluded), each move's (z, y, dead) instance lists and
    the instances of D's and C's latches, in latch order."""
    live: Dict[str, int] = {name: i for i, name in enumerate(d.latch_names)}
    order: List[int] = list(range(len(live)))
    count = len(order)
    steps = []
    for applied in history:
        try:
            removed = [live.pop(name) for name in applied.removed]
        except KeyError:
            raise RecordMismatch("%s removes a missing latch" % applied.move) from None
        created = list(range(count, count + len(applied.created)))
        count += len(created)
        for name, instance in zip(applied.created, created):
            if name in live:
                raise RecordMismatch("%s creates a latch that exists" % applied.move)
            live[name] = instance
        # Each created latch sits beside the latches its move relates it
        # to, so y = F(z) stays local in the order.
        anchor = max((order.index(i) for i in removed), default=len(order) - 1)
        order[anchor + 1:anchor + 1] = created
        z, y = (removed, created) if applied.forward else (created, removed)
        dead = [i for i in removed if i >= d.num_latches]
        steps.append((applied.function, z, y, dead))
    if set(live) != set(c.latch_names):
        raise RecordMismatch("the record does not end at the candidate's latches")
    return (
        order,
        steps,
        list(range(d.num_latches)),
        [live[name] for name in c.latch_names],
    )


class MoveCertificate:
    """The relation R composed along a move history, with the two checks
    that make it a proof of ``C ⊑ D``.

    *history* is a sequence of :class:`~repro.retime.engine.AppliedMove`
    leading from original *d* to candidate *c*.  Raises
    :class:`RecordMismatch` when the record's latch names do not lead
    from D's latches to C's, and
    :class:`~repro.logic.bdd.NodeLimitExceeded` (here or in a check)
    when *manager* (default: a fresh one under :data:`NODE_BUDGET`)
    outgrows its node limit.
    """

    def __init__(
        self,
        history: Sequence,
        c: Circuit,
        d: Circuit,
        *,
        manager: Optional[BDDManager] = None,
    ) -> None:
        order, steps, d_inst, c_inst = _instances(history, d, c)
        if manager is None:
            manager = BDDManager(node_limit=NODE_BUDGET)
        m = self.manager = manager
        inputs = [m.variable("i.%s" % net) for net in c.inputs]
        name = {i: "l%d" % i for i in order}
        var = {i: m.variable(n) for i, n in name.items()}
        with _span("stg.certificate.compose"):
            relation = m.true
            for function, z, y, dead in steps:
                z_vars = [var[i] for i in z]
                step = m.conjunction(
                    var[out].iff(cell_output_bdd(m, function, z_vars, pin))
                    for pin, out in enumerate(y)
                )
                relation = m.relprod(relation, step, [name[i] for i in dead])
            next_c, out_c = net_functions(c, m, inputs, [var[i] for i in c_inst])
            next_d, out_d = net_functions(d, m, inputs, [var[i] for i in d_inst])
        self.relation = relation
        self._d_only = [name[i] for i in d_inst if i not in c_inst]
        # Outputs, and the steps of latches no move touched, must agree.
        stepped_d = dict(zip(d_inst, next_d))
        self._mismatch = m.disjunction(
            [a ^ b for a, b in zip(out_c, out_d)]
            + [fn ^ stepped_d[i] for i, fn in zip(c_inst, next_c) if i in stepped_d]
        )
        # Where the mismatch is false, an untouched latch steps alike in
        # C and D, so C's next-state function stands for both.
        step: Dict[str, BDD] = {name[i]: fn for i, fn in stepped_d.items()}
        step.update((name[i], fn) for i, fn in zip(c_inst, next_c))
        self._step = step

    def total(self) -> bool:
        """``∀c ∃d R(c, d)``: every state of C has a related state of D."""
        return self.relation.exists(self._d_only).is_true

    def closed(self) -> bool:
        """``R(c, d)`` implies equal outputs and related successors on
        every input."""
        m, relation = self.manager, self.relation
        everything = m.variable_names
        if not m.relprod(relation, self._mismatch, everything).is_false:
            return False
        stepped = relation.compose(self._step)
        return m.relprod(relation, ~stepped, everything).is_false


def certify(
    history: Sequence, c: Circuit, d: Circuit
) -> Tuple[Optional[str], Dict[str, int]]:
    """Try to certify ``C ⊑ D`` from *history*.  Returns ``(failure,
    bdd_stats)``: *failure* is ``None`` when the certificate proves
    ``C ⊑ D``, and otherwise names why it did not -- never ``C ⋢ D``."""
    manager = BDDManager(node_limit=NODE_BUDGET)
    failure: Optional[str] = None
    try:
        certificate = MoveCertificate(history, c, d, manager=manager)
        with _span("stg.certificate.check"):
            if not certificate.total():
                failure = NOT_TOTAL
            elif not certificate.closed():
                failure = NOT_CLOSED
    except NodeLimitExceeded:
        failure = OVER_BUDGET
    except RecordMismatch:
        failure = MISMATCH
    if _TRACE.enabled:
        _TRACE.incr("stg.certificate.moves", len(history))
        _TRACE.incr(
            "stg.certificate.proved" if failure is None else "stg.certificate.failed"
        )
    _publish_bdd_stats(manager)
    return failure, dict(manager.stats)
