"""The service smoke check: ``python -m repro.serve.smoke``.

CI's end-to-end gate on ``repro serve``: start a live server, fire a
burst of concurrent mixed-type requests at it, and assert that

1. every verdict is **bit-for-bit identical** to the direct library
   path a one-shot CLI invocation would take,
2. the second ``check-validity`` answer is **not slower than the
   first** (the first pays parse + compile, later ones replay the
   resident caches), and
3. a **budget-exceeded** request comes back as a structured error
   envelope with the server still answering afterwards.

On success the server's rolling service report is written to
``--report FILE`` (uploaded as a CI artefact) and the process exits 0;
any mismatch exits 1 with a diff on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List

from ..bench.generators import random_sequential_circuit
from ..netlist.io_bench import write_bench
from ..retime.apply import lag_to_moves
from ..retime.graph import build_retiming_graph
from ..retime.leiserson_saxe import min_period_retiming
from ..retime.validity import first_cls_difference, random_ternary_sequences
from ..sim.fault import FaultSimulator
from ..stg.explicit import extract_stg
from ..stg.replaceability import is_safe_replacement
from .client import ServeClient, start_background_server
from .protocol import parse_binary_tests

SEED = 7
TESTS = ["010,110,001,111", "101,011,000,110"]


def _expected(original, retimed) -> Dict[str, Any]:
    """The direct (one-shot CLI) library path for every request type."""
    sequences = random_ternary_sequences(
        len(original.inputs), count=20, length=12, seed=SEED
    )
    first = first_cls_difference(original, retimed, sequences)
    parsed = parse_binary_tests(TESTS, len(original.inputs))
    verdicts = FaultSimulator(original, semantics="cls").run_test_set(parsed)
    return {
        "check-validity": {
            "equivalent": first is None,
            "first_difference": (
                None if first is None else {"sequence": first[0], "cycle": first[1]}
            ),
        },
        "safe-replacement": {
            "safe": is_safe_replacement(extract_stg(retimed), extract_stg(original))
        },
        "fault-grade": {
            "faults": len(verdicts),
            "detected": sum(1 for v in verdicts.values() if v is not None),
        },
    }


def _mixed_requests(count: int) -> List[Dict[str, Any]]:
    kinds = [
        {"op": "check-validity", "original": "orig", "retimed": "ret", "seed": SEED},
        {"op": "safe-replacement", "candidate": "ret", "original": "orig"},
        {"op": "fault-grade", "circuit": "orig", "tests": TESTS},
    ]
    return [dict(kinds[i % len(kinds)], id="mixed-%d" % i) for i in range(count)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", default=None, help="write the service report here")
    parser.add_argument("--burst", type=int, default=9, help="concurrent mixed requests")
    args = parser.parse_args(argv)

    failures: List[str] = []

    def check(label: str, got: Any, want: Any) -> None:
        status = "ok" if got == want else "MISMATCH"
        print("%-26s %s" % (label, status))
        if got != want:
            failures.append(label)
            print("  served: %r\n  direct: %r" % (got, want), file=sys.stderr)

    original = random_sequential_circuit(
        SEED, num_inputs=3, num_gates=24, num_latches=5, name="orig"
    )
    retimed = lag_to_moves(
        original, min_period_retiming(build_retiming_graph(original)).lag
    ).current
    expected = _expected(original, retimed)

    server, address, thread = start_background_server(service_report_path=args.report)
    print("serving on %s:%d" % tuple(address))
    with ServeClient(address) as client:
        client.result({"op": "load", "name": "orig", "bench": write_bench(original)})
        client.result({"op": "load", "name": "ret", "bench": write_bench(retimed)})

        # -- residency: the second identical request must not be slower.
        first = client.request(
            {"op": "check-validity", "original": "orig", "retimed": "ret", "seed": SEED}
        )
        second = client.request(
            {"op": "check-validity", "original": "orig", "retimed": "ret", "seed": SEED}
        )
        print(
            "%-26s first %.1fms -> second %.1fms"
            % ("cache residency", first["elapsed_ms"], second["elapsed_ms"])
        )
        if second["elapsed_ms"] > first["elapsed_ms"]:
            failures.append("cache residency (second request slower than first)")

        # -- a concurrent burst of mixed requests, many connections.
        def fire(request: Dict[str, Any]) -> Dict[str, Any]:
            with ServeClient(address) as c:
                return c.request(request)

        burst = _mixed_requests(args.burst)
        with ThreadPoolExecutor(max_workers=len(burst)) as pool:
            responses = list(pool.map(fire, burst))
        for request, response in zip(burst, responses):
            op = request["op"]
            if not response.get("ok"):
                failures.append("%s (%s)" % (op, response.get("error")))
                continue
            result = response["result"]
            got = {key: result[key] for key in expected[op]}
            check("burst %s" % request["id"], got, expected[op])

        # -- budget exhaustion is an envelope, not a crash.
        resp = client.request(
            {
                "op": "safe-replacement",
                "candidate": "ret",
                "original": "orig",
                "engine": "explicit",
                "budget": 1,
            }
        )
        check(
            "budget envelope",
            (resp.get("ok"), resp.get("error", {}).get("code")),
            (False, "budget-exceeded"),
        )
        check("alive after budget", client.request({"op": "ping"})["ok"], True)

        report = client.result({"op": "report"})
        print(
            "%-26s %d requests, %d sweeps carrying %d jobs"
            % (
                "rolling report",
                report["service"]["requests"],
                report["batch"]["sweeps"],
                report["batch"]["jobs"],
            )
        )
        client.request({"op": "shutdown"})
    thread.join(timeout=30)

    if args.report:
        with open(args.report) as handle:
            snapshot = json.load(handle)
        print("service report -> %s (%d requests)" % (
            args.report, snapshot["service"]["requests"]))

    if failures:
        print("FAILED: %s" % ", ".join(failures), file=sys.stderr)
        return 1
    print("service smoke: all verdicts match the direct path")
    return 0


if __name__ == "__main__":
    sys.exit(main())
