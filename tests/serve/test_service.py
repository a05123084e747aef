"""End-to-end functional tests for the verification service.

Every test talks to a real server over a real socket through the
reference client.  The headline contracts: verdicts are **bit-for-bit
identical** to the direct library path the one-shot CLI takes (even
when concurrent requests batch), budget exhaustion is a structured
envelope rather than a crash, and shutdown drains in-flight work.
"""

from __future__ import annotations

import json
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.bench.generators import random_sequential_circuit
from repro.bench.iscas import load
from repro.bench.paper_circuits import figure1_design_c, figure1_design_d
from repro.netlist.io_bench import write_bench
from repro.retime.apply import lag_to_moves
from repro.retime.graph import build_retiming_graph
from repro.retime.leiserson_saxe import min_period_retiming
from repro.retime.validity import first_cls_difference, random_ternary_sequences
from repro.serve import ServeClient, start_background_server
from repro.sim.fault import FaultSimulator
from repro.serve.protocol import parse_binary_tests
from repro.stg.explicit import extract_stg
from repro.stg.replaceability import find_violation

TESTS = ["010,110,001,111", "101,011,000,110"]


def _pair(seed=11):
    """A random circuit and its min-period retiming, as .bench text."""
    original = random_sequential_circuit(
        seed, num_inputs=3, num_gates=24, num_latches=5, name="orig"
    )
    retimed = lag_to_moves(
        original, min_period_retiming(build_retiming_graph(original)).lag
    ).current
    return original, retimed


@pytest.fixture()
def server(request):
    kwargs = getattr(request, "param", {})
    server, address, thread = start_background_server(**kwargs)
    yield server, address
    if thread.is_alive():
        try:
            with ServeClient(address) as client:
                client.request({"op": "shutdown"})
        except (ConnectionError, OSError):
            pass
        thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.fixture()
def client(server):
    _, address = server
    with ServeClient(address) as client:
        yield client


def _load_pair(client, original, retimed):
    client.result({"op": "load", "name": "orig", "bench": write_bench(original)})
    client.result({"op": "load", "name": "ret", "bench": write_bench(retimed)})


class TestLifecycle:
    def test_ping_reports_configuration(self, client):
        pong = client.result({"op": "ping"})
        assert sorted(pong) == [
            "circuits", "engine", "pong", "protocol", "reorder", "uptime_s"
        ]
        assert pong["pong"] is True and pong["protocol"] == 1
        assert pong["circuits"] == []

    def test_responses_carry_the_envelope(self, client):
        resp = client.request({"op": "ping", "id": ["any", "json", 1]})
        assert resp["v"] == 1
        assert resp["id"] == ["any", "json", 1]
        assert resp["ok"] is True and resp["elapsed_ms"] >= 0

    def test_shutdown_closes_the_server(self, server):
        _, address = server
        with ServeClient(address) as client:
            resp = client.request({"op": "shutdown"})
            assert resp["ok"] and resp["result"]["draining"] >= 1
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                socket.create_connection(tuple(address), timeout=2).close()
            except OSError:
                break  # the listener is gone
            time.sleep(0.02)
        else:
            pytest.fail("server still accepting connections after shutdown")

    def test_shutdown_drains_inflight_requests(self, client):
        _load_pair(client, *_pair())
        # Pipelined on one connection: the sweep is in flight when the
        # shutdown lands; draining must still answer it.
        check, down = client.request_many(
            [
                {"op": "check-validity", "original": "orig", "retimed": "ret"},
                {"op": "shutdown"},
            ]
        )
        assert down["ok"]
        assert check["ok"] and check["result"]["equivalent"] is True

    def test_service_report_written_on_shutdown(self, tmp_path):
        path = tmp_path / "service-report.json"
        server, address, thread = start_background_server(
            service_report_path=str(path)
        )
        with ServeClient(address) as client:
            client.result({"op": "ping"})
            client.request({"op": "shutdown"})
        thread.join(timeout=30)
        snap = json.loads(path.read_text())
        assert snap["schema"] == 1
        assert snap["requests"]["ping"]["count"] == 1


class TestRegistry:
    def test_load_reports_shape_and_residency(self, client):
        original, _ = _pair()
        text = write_bench(original)
        first = client.result({"op": "load", "name": "a", "bench": text})
        assert first["cached"] is False
        assert first["inputs"] == 3 and first["latches"] == 5
        # Same text under another name: a parse-cache hit, one object.
        client.result({"op": "load", "name": "b", "bench": text})
        again = client.result({"op": "load", "name": "a", "bench": text})
        assert again["cached"] is True
        report = client.result({"op": "report"})
        assert report["cache"]["parsed"] == {"hits": 2, "misses": 1}

    def test_resident_circuits_compile_once(self, client):
        """A named circuit is one resident object, so the program
        compiled for the first request serves every later one: the
        second traced report shows only compile-cache hits."""
        _load_pair(client, *_pair())
        request = {
            "op": "check-validity",
            "original": "orig",
            "retimed": "ret",
            "trace": True,
        }
        first = client.request(request)["report"]
        second = client.request(request)["report"]
        assert "serve.check-validity/compile" in [s["path"] for s in first["spans"]]
        assert second["counters"].get("compile.cache_hits", 0) >= 2
        assert [s["path"] for s in second["spans"]] == ["serve.check-validity"]
        assert "compile.circuits" not in second["counters"]

    def test_inline_circuit_references(self, client):
        original, retimed = _pair()
        result = client.result(
            {
                "op": "check-validity",
                "original": {"bench": write_bench(original)},
                "retimed": {"bench": write_bench(retimed)},
            }
        )
        assert result["equivalent"] is True

    def test_unknown_circuit_envelope(self, client):
        resp = client.request(
            {"op": "check-validity", "original": "ghost", "retimed": "ghost"}
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "unknown-circuit"

    def test_unparseable_circuit_is_bad_request(self, client):
        resp = client.request(
            {"op": "load", "name": "junk", "bench": "THIS = ISNT(BENCH"}
        )
        assert resp["error"]["code"] == "bad-request"


class TestVerdictsMatchDirectPath:
    """The served answer must equal the one-shot library answer, bit for bit."""

    def test_check_validity_equivalent_pair(self, client):
        original, retimed = _pair()
        _load_pair(client, original, retimed)
        result = client.result(
            {"op": "check-validity", "original": "orig", "retimed": "ret"}
        )
        sequences = random_ternary_sequences(3, count=20, length=12, seed=0)
        assert first_cls_difference(original, retimed, sequences) is None
        assert result["equivalent"] is True
        assert result["first_difference"] is None

    def test_check_validity_locates_the_same_first_difference(self, client):
        # Figure 1's D against a copy with its output AND inverted to
        # NAND: definitely CLS-different, and the served (sequence,
        # cycle) must be exactly what the serial scan reports.
        d = figure1_design_d()
        broken = figure1_design_d()
        cell = broken.cell("and2")
        from repro.logic.functions import make_gate
        from repro.netlist.circuit import Cell

        broken.replace_cell(
            cell.name,
            Cell(cell.name, make_gate("NAND", 2), cell.inputs, cell.outputs),
        )
        client.result({"op": "load", "name": "d", "bench": write_bench(d)})
        client.result({"op": "load", "name": "x", "bench": write_bench(broken)})
        result = client.result(
            {"op": "check-validity", "original": "d", "retimed": "x"}
        )
        sequences = random_ternary_sequences(1, count=20, length=12, seed=0)
        expected = first_cls_difference(d, broken, sequences)
        assert expected is not None
        assert result["equivalent"] is False
        assert result["first_difference"] == {
            "sequence": expected[0],
            "cycle": expected[1],
        }

    def test_exhaustive_and_samples_parameters(self, client):
        _load_pair(client, *_pair())
        result = client.result(
            {
                "op": "check-validity",
                "original": "orig",
                "retimed": "ret",
                "samples": 5,
                "length": 7,
                "exhaustive": True,
            }
        )
        assert result["samples"] == 5 and result["length"] == 7
        assert result["exhaustive"] == {"equivalent": True, "witness": None}

    def test_safe_replacement_figure1_witness(self, client):
        d, c = figure1_design_d(), figure1_design_c()
        client.result({"op": "load", "name": "d", "bench": write_bench(d)})
        client.result({"op": "load", "name": "c", "bench": write_bench(c)})
        result = client.result(
            {"op": "safe-replacement", "candidate": "c", "original": "d"}
        )
        violation = find_violation(extract_stg(c), extract_stg(d))
        assert violation is not None
        assert result["safe"] is False
        assert result["witness"] == {
            "c_state": violation.c_state,
            "inputs": list(violation.input_symbols),
            "outputs": list(violation.c_outputs),
            "length": len(violation.input_symbols),
        }

    def test_fault_grade_matches_direct_simulator(self, client):
        original, _ = _pair()
        text = write_bench(original)
        client.result({"op": "load", "name": "orig", "bench": text})
        result = client.result(
            {"op": "fault-grade", "circuit": "orig", "tests": TESTS}
        )
        # The direct path a CLI run takes on the same .bench file (the
        # write/parse round trip renames internal nets, so fault names
        # must come from the parsed text, not the generator's object).
        from repro.netlist.io_bench import parse_bench
        from repro.netlist.transform import normalize_fanout

        reloaded = normalize_fanout(parse_bench(text, name="orig"))
        verdicts = FaultSimulator(reloaded, semantics="cls").run_test_set(
            parse_binary_tests(TESTS, 3)
        )
        assert result["faults"] == len(verdicts)
        assert result["detected"] == sum(
            1 for v in verdicts.values() if v is not None
        )
        assert result["verdicts"] == [
            {"fault": str(fault), "first_test": index}
            for fault, index in verdicts.items()
        ]

    def test_mismatched_interfaces_are_bad_requests(self, client):
        original, _ = _pair()
        client.result({"op": "load", "name": "orig", "bench": write_bench(original)})
        client.result(
            {"op": "load", "name": "tiny", "bench": write_bench(figure1_design_d())}
        )
        resp = client.request(
            {"op": "check-validity", "original": "orig", "retimed": "tiny"}
        )
        assert resp["error"]["code"] == "bad-request"


class TestConcurrencyAndBatching:
    def test_concurrent_mixed_requests_match_direct_path(self, server):
        """Nine concurrent requests of three types over nine connections,
        every verdict identical to the direct library path."""
        _, address = server
        original, retimed = _pair()
        with ServeClient(address) as setup:
            _load_pair(setup, original, retimed)

        sequences = random_ternary_sequences(3, count=20, length=12, seed=0)
        verdicts = FaultSimulator(original, semantics="cls").run_test_set(
            parse_binary_tests(TESTS, 3)
        )
        expected = {
            "check-validity": {
                "equivalent": first_cls_difference(original, retimed, sequences)
                is None,
                "first_difference": None,
            },
            "safe-replacement": {
                "safe": find_violation(extract_stg(retimed), extract_stg(original))
                is None
            },
            "fault-grade": {
                "faults": len(verdicts),
                "detected": sum(1 for v in verdicts.values() if v is not None),
            },
        }
        requests = [
            {"op": "check-validity", "original": "orig", "retimed": "ret"},
            {"op": "safe-replacement", "candidate": "ret", "original": "orig"},
            {"op": "fault-grade", "circuit": "orig", "tests": TESTS},
        ] * 3

        def fire(request):
            with ServeClient(address) as client:
                return client.request(request)

        with ThreadPoolExecutor(max_workers=len(requests)) as pool:
            responses = list(pool.map(fire, requests))
        assert len(responses) >= 8
        for request, response in zip(requests, responses):
            assert response["ok"], response
            result = response["result"]
            want = expected[request["op"]]
            assert {key: result[key] for key in want} == want

    @pytest.mark.parametrize(
        "server", [{"batch_window_s": 0.05}], indirect=True
    )
    def test_pipelined_sweeps_batch_and_stay_deterministic(self, server):
        _, address = server
        original, retimed = _pair()
        with ServeClient(address) as client:
            _load_pair(client, original, retimed)
            responses = client.request_many(
                [
                    {"op": "check-validity", "original": "orig", "retimed": "ret",
                     "seed": seed}
                    for seed in range(4)
                ]
            )
            report = client.result({"op": "report"})
        for seed, response in enumerate(responses):
            assert response["ok"]
            sequences = random_ternary_sequences(3, count=20, length=12, seed=seed)
            expected = first_cls_difference(original, retimed, sequences)
            assert response["result"]["equivalent"] is (expected is None)
        # The four concurrent requests merged their compatible sweeps.
        assert report["batch"]["max_jobs_per_sweep"] > 1
        assert report["batch"]["jobs"] > report["batch"]["sweeps"]


class TestBudgets:
    def test_budget_exceeded_is_an_envelope_not_a_crash(self, client):
        _load_pair(client, *_pair())
        resp = client.request(
            {
                "op": "safe-replacement",
                "candidate": "ret",
                "original": "orig",
                "engine": "explicit",
                "budget": 1,
            }
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "budget-exceeded"
        assert "undecided" in resp["error"]["message"]
        # The server survives and still answers.
        assert client.result({"op": "ping"})["pong"] is True

    def test_server_default_budget_applies(self):
        server, address, thread = start_background_server(budget=1)
        try:
            with ServeClient(address) as client:
                _load_pair(client, *_pair())
                resp = client.request(
                    {
                        "op": "safe-replacement",
                        "candidate": "ret",
                        "original": "orig",
                        "engine": "explicit",
                    }
                )
                assert resp["error"]["code"] == "budget-exceeded"
                # A per-request budget overrides the server default.
                result = client.result(
                    {
                        "op": "safe-replacement",
                        "candidate": "ret",
                        "original": "orig",
                        "engine": "explicit",
                        "budget": 500_000,
                    }
                )
                assert result["safe"] in (True, False)
                client.request({"op": "shutdown"})
        finally:
            thread.join(timeout=30)

    def test_exhaustive_cls_blown_budget_is_an_envelope(self, client):
        _load_pair(client, *_pair())
        resp = client.request(
            {
                "op": "check-validity",
                "original": "orig",
                "retimed": "ret",
                "exhaustive": True,
                "budget": 1,
            }
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "budget-exceeded"
        assert "CLS-equivalence search exceeded 1" in resp["error"]["message"]
        assert client.result({"op": "ping"})["pong"] is True

    def test_sat_engine_blown_budget_is_an_envelope(self, client):
        """A SAT conflict budget that runs out mid-search must surface
        as the structured budget-exceeded envelope, never a crash."""
        _load_pair(client, *_pair())
        resp = client.request(
            {
                "op": "safe-replacement",
                "candidate": "ret",
                "original": "orig",
                "engine": "sat",
                "budget": 1,
            }
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "budget-exceeded"
        assert "undecided" in resp["error"]["message"]
        assert client.result({"op": "ping"})["pong"] is True

    def test_sat_engine_blown_budget_on_check_validity(self, client):
        _load_pair(client, *_pair())
        resp = client.request(
            {
                "op": "check-validity",
                "original": "orig",
                "retimed": "ret",
                "exhaustive": True,
                "engine": "sat",
                "budget": 1,
            }
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "budget-exceeded"
        assert "undecided" in resp["error"]["message"]
        # The server survives; a non-exhaustive check still works.
        result = client.result(
            {"op": "check-validity", "original": "orig", "retimed": "ret"}
        )
        assert result["equivalent"] is True

    def test_sat_engine_decides_within_budget(self, client):
        """The paper's Figure 1 pair is small enough for the SAT engine
        to finish: a definitive verdict, not an envelope."""
        c, d = figure1_design_c(), figure1_design_d()
        client.result({"op": "load", "name": "c", "bench": write_bench(c)})
        client.result({"op": "load", "name": "d", "bench": write_bench(d)})
        result = client.result(
            {
                "op": "safe-replacement",
                "candidate": "c",
                "original": "d",
                "engine": "sat",
            }
        )
        assert result["safe"] is False and result["engine"] == "sat"
        assert result["witness"]["c_state"] == 2
        assert result["witness"]["length"] == 2
        exhaustive = client.result(
            {
                "op": "check-validity",
                "original": "d",
                "retimed": "c",
                "exhaustive": True,
                "engine": "sat",
            }
        )["exhaustive"]
        assert exhaustive["engine"] == "sat"
        assert exhaustive["equivalent"] is True and exhaustive["witness"] is None

    def test_bad_budget_rejected(self, client):
        _load_pair(client, *_pair())
        resp = client.request(
            {
                "op": "safe-replacement",
                "candidate": "ret",
                "original": "orig",
                "budget": 0,
            }
        )
        assert resp["error"]["code"] == "bad-request"


class TestProtocolErrors:
    def test_parse_error_keeps_the_connection(self, client):
        client._file.write(b"this is not json\n")
        client._file.flush()
        resp = client.recv()
        assert resp["error"]["code"] == "parse-error"
        assert client.result({"op": "ping"})["pong"] is True

    def test_unknown_op(self, client):
        resp = client.request({"op": "transmogrify"})
        assert resp["error"]["code"] == "unknown-op"

    def test_retired_bench_op_is_unknown_and_the_connection_serves_on(
        self, client
    ):
        """``bench`` left the op vocabulary under protocol version 1: it
        answers the typed unknown-op envelope like any unknown op."""
        resp = client.request({"op": "bench"})
        assert resp["v"] == 1 and resp["ok"] is False
        assert resp["error"]["code"] == "unknown-op"
        assert client.result({"op": "ping"})["pong"] is True

    def test_missing_fields(self, client):
        assert client.request({"op": "load"})["error"]["code"] == "bad-request"
        assert (
            client.request({"op": "fault-grade", "circuit": "x"})["error"]["code"]
            == "unknown-circuit"
        )

    def test_exact_grading_over_the_latch_cap_is_a_bad_request(self, client, capfd):
        """s382 has 21 latches, one over the exact sweep's cap: the
        client gets a one-line ``bad-request``, the server's stderr no
        traceback, and the connection serves on."""
        client.result({"op": "load", "name": "s382", "bench": write_bench(load("s382"))})
        resp = client.request(
            {
                "op": "fault-grade",
                "circuit": "s382",
                "tests": ["000"],
                "semantics": "exact",
            }
        )
        assert resp["ok"] is False
        assert resp["error"]["code"] == "bad-request"
        assert "21 latches" in resp["error"]["message"]
        assert "sample" not in resp["error"]["message"]
        assert client.result({"op": "ping"})["pong"] is True
        assert "Traceback" not in capfd.readouterr().err


class TestTracing:
    def test_traced_request_attaches_a_run_report(self, client):
        _load_pair(client, *_pair())
        plain = client.result(
            {"op": "check-validity", "original": "orig", "retimed": "ret"}
        )
        resp = client.request(
            {
                "op": "check-validity",
                "original": "orig",
                "retimed": "ret",
                "trace": True,
            }
        )
        assert resp["ok"]
        assert resp["result"] == plain  # tracing never changes the verdict
        report = resp["report"]
        assert report["schema"] >= 1
        assert report["meta"]["label"] == "serve.check-validity"
        assert report["spans"], "traced request recorded no spans"


class TestReorder:
    """Dynamic BDD reordering through the service: a performance knob,
    never a semantic one -- envelopes must be bit-identical across
    modes, with the reorder activity visible only in the report."""

    def test_ping_exposes_reorder_default(self, client):
        pong = client.result({"op": "ping"})
        assert pong["reorder"] in ("off", "auto", "manual")

    def test_bad_reorder_mode_rejected(self, client):
        _load_pair(client, *_pair())
        resp = client.request(
            {
                "op": "safe-replacement",
                "candidate": "ret",
                "original": "orig",
                "engine": "symbolic",
                "reorder": "sometimes",
            }
        )
        assert resp["error"]["code"] == "bad-request"
        assert "reorder" in resp["error"]["message"]

    def test_envelopes_bit_identical_across_reorder_modes(self, client):
        """The whole response envelope -- verdict, engine tag, witness
        fields included -- is byte-for-byte identical under
        ``reorder=off``, ``auto`` and ``manual``, for both a safe pair
        and one with a violation (the paper's Figure 1 pair)."""
        original, retimed = _pair()
        _load_pair(client, original, retimed)
        c, d = figure1_design_c(), figure1_design_d()
        client.result({"op": "load", "name": "c", "bench": write_bench(c)})
        client.result({"op": "load", "name": "d", "bench": write_bench(d)})
        for candidate, orig in (("ret", "orig"), ("c", "d")):
            envelopes = {}
            for mode in ("off", "auto", "manual"):
                resp = client.request(
                    {
                        "op": "safe-replacement",
                        "candidate": candidate,
                        "original": orig,
                        "engine": "symbolic",
                        "reorder": mode,
                    }
                )
                assert resp["ok"], resp
                # Timing and the client's running request id are the
                # only legitimately varying fields.
                del resp["elapsed_ms"], resp["id"]
                envelopes[mode] = json.dumps(resp, sort_keys=True)
            assert envelopes["auto"] == envelopes["off"]
            assert envelopes["manual"] == envelopes["off"]

    def test_report_accumulates_reorder_counters(self, client):
        _load_pair(client, *_pair())
        for mode in ("off", "auto", "auto", "manual"):
            client.result(
                {
                    "op": "safe-replacement",
                    "candidate": "ret",
                    "original": "orig",
                    "engine": "symbolic",
                    "reorder": mode,
                }
            )
        reorder = client.result({"op": "report"})["reorder"]
        assert reorder["requests"] == {"off": 1, "auto": 2, "manual": 1}
        # Manual mode sifts up front on every request, so the run and
        # swap counters must have moved; nothing ever goes negative.
        assert reorder["runs"] >= 1
        assert reorder["swaps"] >= 1
        for key in ("runs", "auto_triggers", "swaps", "nodes_reclaimed"):
            assert reorder[key] >= 0
