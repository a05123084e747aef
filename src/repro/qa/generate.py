"""Seeded, replayable recipes for conformance-fuzzing cases.

A :class:`Recipe` is a tiny JSON-serialisable value that fully
determines one differential test case: the circuits, and (for retiming
cases) the move sequence deriving the candidate from the original.
Everything downstream -- fuzzing, shrinking, corpus bundles -- speaks
recipes, so any failure anywhere reproduces from its logged recipe
alone.

Two case kinds:

``retiming``
    D is a random sequential circuit and C is D after a random legal
    sequence of atomic retiming moves.  Every claim of the paper
    applies: Cor 4.4 (hazard-free implies C |= D), Thm 4.5 (delayed
    containment within the k bound), Cor 5.3 (CLS equivalence).

``pair``
    C and D are independent random circuits over the same interface.
    Containment usually fails, which is what exercises witness
    construction -- minimality, bit-level agreement and replay.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..bench.generators import random_sequential_circuit
from ..netlist.circuit import Circuit
from ..retime.engine import RetimingSession
from ..retime.moves import Direction, RetimingMove, enabled_moves

__all__ = ["Recipe", "Case", "build_case", "random_recipe", "moves_to_json", "moves_from_json"]

KINDS = ("retiming", "pair")


@dataclass(frozen=True)
class Recipe:
    """Everything needed to regenerate one differential case."""

    kind: str
    seed: int
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_latches: int
    num_moves: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError("kind must be one of %s, got %r" % (KINDS, self.kind))

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "seed": self.seed,
                "num_inputs": self.num_inputs,
                "num_outputs": self.num_outputs,
                "num_gates": self.num_gates,
                "num_latches": self.num_latches,
                "num_moves": self.num_moves,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Recipe":
        data = json.loads(text)
        return cls(
            kind=data["kind"],
            seed=int(data["seed"]),
            num_inputs=int(data["num_inputs"]),
            num_outputs=int(data["num_outputs"]),
            num_gates=int(data["num_gates"]),
            num_latches=int(data["num_latches"]),
            num_moves=int(data.get("num_moves", 0)),
        )


@dataclass
class Case:
    """A built case: original design D, candidate C, and (for retiming
    kinds) the session that derived C, carrying the move accounting
    Thm 4.5 / Cor 4.4 claims are checked against."""

    recipe: Recipe
    original: Circuit  # D
    candidate: Circuit  # C
    moves: Tuple[RetimingMove, ...] = ()
    session: Optional[RetimingSession] = None

    @property
    def label(self) -> str:
        return "%s(seed=%d)" % (self.recipe.kind, self.recipe.seed)


def random_recipe(master_seed: int, index: int, *, max_latches: int = 3) -> Recipe:
    """The *index*-th recipe of a fuzz run seeded with *master_seed*.

    Sizes stay small enough that the explicit engine (the ground-truth
    arm) always participates: the point of the fuzzer is agreement, not
    scale.
    """
    rng = random.Random(master_seed * 1_000_003 + index)
    kind = "retiming" if rng.random() < 0.6 else "pair"
    return Recipe(
        kind=kind,
        seed=rng.randrange(1 << 30),
        num_inputs=rng.randint(1, 2),
        num_outputs=rng.randint(1, 2),
        num_gates=rng.randint(4, 10),
        num_latches=rng.randint(1, max_latches),
        num_moves=rng.randint(1, 8) if kind == "retiming" else 0,
    )


def build_case(recipe: Recipe) -> Case:
    """Deterministically materialise *recipe* into circuits."""
    original = random_sequential_circuit(
        recipe.seed,
        num_inputs=recipe.num_inputs,
        num_outputs=recipe.num_outputs,
        num_gates=recipe.num_gates,
        num_latches=recipe.num_latches,
        name="d_%d" % recipe.seed,
    )
    if recipe.kind == "pair":
        candidate = random_sequential_circuit(
            recipe.seed + 59999,
            num_inputs=recipe.num_inputs,
            num_outputs=recipe.num_outputs,
            num_gates=recipe.num_gates,
            num_latches=recipe.num_latches,
            name="c_%d" % recipe.seed,
        )
        return Case(recipe=recipe, original=original, candidate=candidate)

    rng = random.Random(recipe.seed ^ 0x5EED)
    session = RetimingSession(original)
    for _ in range(recipe.num_moves):
        moves = enabled_moves(session.current)
        if not moves:
            break
        session.apply(rng.choice(moves))
    return Case(
        recipe=recipe,
        original=original,
        candidate=session.current,
        moves=session.moves,
        session=session,
    )


def moves_to_json(moves: Tuple[RetimingMove, ...]) -> list:
    return [
        {"element": m.element, "direction": m.direction.value} for m in moves
    ]


def moves_from_json(data: list) -> Tuple[RetimingMove, ...]:
    return tuple(
        RetimingMove(item["element"], Direction(item["direction"])) for item in data
    )
