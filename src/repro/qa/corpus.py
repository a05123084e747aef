"""Self-contained reproducer bundles and the regression corpus.

A *bundle* is one directory holding everything needed to re-run a
(formerly) disagreeing case with no access to the fuzzer's RNG:

``recipe.json``
    the generating recipe plus the move sequence (if any) and the
    matrix the disagreement was found under;
``candidate.bench`` / ``original.bench``
    the shrunk circuit pair, the ground truth -- replay never
    regenerates from the recipe, the recipe is provenance only;
``verdicts.json``
    the expected (consensus) verdict, the per-arm verdicts actually
    observed at capture time, and the disagreement lines.

A *corpus* is a directory of bundles.  The replay contract (see
``docs/TESTING.md``): every bundle in a committed corpus must *agree*
when replayed -- bundles are bugs that were fixed (or fault-injection
captures with the fault off), kept forever as regression tests.
``repro fuzz --corpus DIR`` replays the corpus before fuzzing and
counts any replayed disagreement as a surviving failure.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterator, List, Union

from ..netlist.io_bench import parse_bench, write_bench
from ..netlist.transform import normalize_fanout
from ..retime.engine import replay_moves
from .generate import Case, Recipe, moves_from_json, moves_to_json

__all__ = [
    "Bundle",
    "canonical_bench",
    "write_bundle",
    "load_bundle",
    "iter_bundles",
    "bundle_name",
]

_PathLike = Union[str, pathlib.Path]


def canonical_bench(circuit) -> str:
    """``write_bench`` output minus comment lines: circuit names are
    provenance, not semantics, and must not break replay comparisons."""
    return "\n".join(
        line for line in write_bench(circuit).splitlines()
        if not line.lstrip().startswith("#")
    )


@dataclass
class Bundle:
    """One loaded reproducer bundle."""

    path: pathlib.Path
    case: Case
    matrix: str
    expected: dict
    observed: List[dict]
    disagreements: List[str]

    @property
    def name(self) -> str:
        return self.path.name


def bundle_name(case: Case) -> str:
    return "%s-%d" % (case.recipe.kind, case.recipe.seed)


def write_bundle(
    corpus_dir: _PathLike,
    case: Case,
    *,
    matrix: str,
    expected: dict,
    observed: List[dict],
    disagreements: List[str],
) -> pathlib.Path:
    """Write *case* as a bundle under *corpus_dir*; returns its path."""
    root = pathlib.Path(corpus_dir) / bundle_name(case)
    root.mkdir(parents=True, exist_ok=True)
    recipe_doc = {
        "recipe": json.loads(case.recipe.to_json()),
        "moves": moves_to_json(case.moves),
        "matrix": matrix,
    }
    (root / "recipe.json").write_text(json.dumps(recipe_doc, indent=2, sort_keys=True))
    (root / "candidate.bench").write_text(write_bench(case.candidate))
    (root / "original.bench").write_text(write_bench(case.original))
    (root / "verdicts.json").write_text(
        json.dumps(
            {
                "expected": expected,
                "observed": observed,
                "disagreements": disagreements,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return root


def load_bundle(path: _PathLike) -> Bundle:
    """Load a bundle directory back into a runnable :class:`Case`.

    Circuits come from the ``.bench`` pair.  If the bundle carries a
    move sequence that still replays from ``original.bench`` to exactly
    ``candidate.bench``, the case gets a live session (so the theorem
    ballots replay too); otherwise the pair stands alone.
    """
    root = pathlib.Path(path)
    recipe_doc = json.loads((root / "recipe.json").read_text())
    recipe = Recipe.from_json(json.dumps(recipe_doc["recipe"]))
    original = parse_bench((root / "original.bench").read_text())
    candidate = parse_bench((root / "candidate.bench").read_text())
    moves = moves_from_json(recipe_doc.get("moves", []))

    session = None
    if moves:
        # Moves may name junction cells that only exist in single-fanout
        # normal form; .bench denormalises, so try the parsed circuit
        # first and its re-normalisation second (normalize_fanout is
        # deterministic, so junction names regenerate identically).
        for base in (original, normalize_fanout(original)):
            try:
                replayed = replay_moves(base, moves)
            except Exception:
                continue
            if canonical_bench(replayed.current) == canonical_bench(candidate):
                session = replayed
                original = base
                candidate = replayed.current
                break
    case = Case(
        recipe=recipe,
        original=original,
        candidate=candidate,
        moves=moves if session is not None else (),
        session=session,
    )

    verdicts = json.loads((root / "verdicts.json").read_text())
    return Bundle(
        path=root,
        case=case,
        matrix=recipe_doc.get("matrix", "std"),
        expected=verdicts.get("expected", {}),
        observed=verdicts.get("observed", []),
        disagreements=verdicts.get("disagreements", []),
    )


def iter_bundles(corpus_dir: _PathLike) -> Iterator[Bundle]:
    """Yield every bundle under *corpus_dir* in name order."""
    root = pathlib.Path(corpus_dir)
    if not root.is_dir():
        return
    for entry in sorted(root.iterdir()):
        if entry.is_dir() and (entry / "recipe.json").is_file():
            yield load_bundle(entry)
