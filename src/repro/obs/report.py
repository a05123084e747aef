"""The serialisable :class:`RunReport` -- one run's observability record.

A report is a frozen snapshot of the tracer: aggregated span timings,
monotonic counters, and free-form metadata.  It serialises to a small,
versioned JSON document (``schema`` key) so benchmark jobs can archive
reports as CI artefacts and perf PRs can diff before/after runs::

    {
      "schema": 1,
      "meta":     {"command": "check", ...},
      "counters": {"compile.circuits": 2, "sim.compiled.binary.cycles": 4, ...},
      "spans":    [{"path": "stg.extract/compile.codegen", "count": 2,
                    "total_s": 0.0021, "min_s": ..., "max_s": ...}, ...]
    }

The schema is documented (with a worked example) in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from .trace import TRACER

__all__ = ["SCHEMA_VERSION", "SpanStats", "RunReport", "build_report"]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpanStats:
    """Aggregate timing of every entry of one span path.

    ``path`` encodes nesting: ``"stg.extract/compile.codegen"`` is the
    ``compile.codegen`` span opened while ``stg.extract`` was active.
    """

    path: str
    count: int
    total_s: float
    min_s: float
    max_s: float

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpanStats":
        return cls(
            path=str(data["path"]),
            count=int(data["count"]),
            total_s=float(data["total_s"]),
            min_s=float(data["min_s"]),
            max_s=float(data["max_s"]),
        )


@dataclass(frozen=True)
class RunReport:
    """Spans + counters + metadata of one traced run."""

    meta: Dict[str, Any]
    counters: Dict[str, int]
    spans: Tuple[SpanStats, ...]

    # -- access ------------------------------------------------------------

    def span(self, path: str) -> Optional[SpanStats]:
        """The :class:`SpanStats` for an exact *path*, or ``None``."""
        for stats in self.spans:
            if stats.path == path:
                return stats
        return None

    def span_paths(self) -> Tuple[str, ...]:
        """All recorded span paths, sorted."""
        return tuple(sorted(stats.path for stats in self.spans))

    def counter(self, name: str) -> int:
        """Counter value (0 when the counter never fired)."""
        return self.counters.get(name, 0)

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "counters": dict(sorted(self.counters.items())),
            "spans": [s.to_dict() for s in sorted(self.spans, key=lambda s: s.path)],
        }

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def write(self, path: str) -> None:
        """Write the JSON document to *path*."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunReport":
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                "unsupported RunReport schema %r (this build reads %d)"
                % (schema, SCHEMA_VERSION)
            )
        return cls(
            meta=dict(data.get("meta", {})),
            counters={str(k): int(v) for k, v in data.get("counters", {}).items()},
            spans=tuple(SpanStats.from_dict(s) for s in data.get("spans", ())),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str) -> "RunReport":
        with open(path) as handle:
            return cls.from_json(handle.read())

    # -- presentation ------------------------------------------------------

    def summary(self) -> str:
        """Human-readable account: spans first, then counters."""
        lines = ["RunReport"]
        for key in sorted(self.meta):
            lines.append("  meta %-18s %s" % (key, self.meta[key]))
        if self.spans:
            lines.append("  spans (count, total, mean):")
            for stats in sorted(self.spans, key=lambda s: s.path):
                lines.append(
                    "    %-44s %6d  %9.4fs  %9.6fs"
                    % (stats.path, stats.count, stats.total_s, stats.mean_s)
                )
        if self.counters:
            lines.append("  counters:")
            for name in sorted(self.counters):
                lines.append("    %-44s %d" % (name, self.counters[name]))
        return "\n".join(lines)


def build_report() -> RunReport:
    """Freeze the current tracer state into a :class:`RunReport`."""
    spans = tuple(
        SpanStats(path=path, count=int(rec[0]), total_s=rec[1], min_s=rec[2], max_s=rec[3])
        for path, rec in TRACER.spans.items()
    )
    return RunReport(
        meta=dict(TRACER.meta),
        counters=dict(TRACER.counters),
        spans=spans,
    )
