"""The micro-batcher: coalesce compatible CLS sweeps into shared lanes.

The hot request of the service is the sampled CLS-invariance check:
every ``check-validity`` request needs the conservative three-valued
outputs of two circuits over a batch of input sequences.  Each such
sweep is one lane-parallel pass of the compiled program
(:meth:`repro.sim.ternary_multi.BatchedTernarySimulator.run_sequences`,
one lane per sequence) -- and lanes from *different* requests are just
as independent as lanes from the same request.  So instead of running
one pass per request, the batcher holds arriving sweep submissions for
a tiny window and merges every submission that is **compatible** --
same circuit object, same sequence length -- into a single pass, then
splits the per-lane results back out to each requester.

Determinism: lanes are bit-independent by construction
(``tests/sim/test_compiled.py`` and ``tests/sim/test_lanes.py`` check
every lane of a batched step against the per-lane reference
interpreter), so a merged sweep returns bit-for-bit the outputs each
request would have computed alone; ``tests/serve`` re-pins this
against the serial path end to end.

The batch key uses the *identity* of the circuit object -- correct
here because the server's registry keeps circuits resident, so two
requests naming the same circuit share one object (and the compiled
program cached on it).  Occupancy lands in the rolling service report
as ``batch.{sweeps,jobs,lanes,max_jobs_per_sweep}``.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from ..logic.ternary import T
from ..netlist.circuit import Circuit
from ..sim.ternary_multi import BatchedTernarySimulator
from .report import ServiceStats

__all__ = ["MAX_LANES", "MicroBatcher"]

#: A pending batch flushes early once it holds this many lanes.
MAX_LANES = 4096

#: One submitted sweep: the sequences plus the future its requester awaits.
_Job = Tuple[Sequence[Sequence[Sequence[T]]], "asyncio.Future"]


class MicroBatcher:
    """Coalesce compatible CLS sweeps submitted within a short window.

    Parameters
    ----------
    run_blocking:
        ``await run_blocking(fn)`` executes *fn* off the event loop (the
        server passes its worker-pool executor).
    window_s:
        How long the first submission of a batch waits for company.  0
        still merges whatever arrives in the same event-loop tick.
    max_lanes:
        Flush early once a pending batch holds this many lanes.
    stats:
        Optional :class:`ServiceStats` receiving occupancy records.
    """

    def __init__(
        self,
        run_blocking: Callable[[Callable[[], object]], Awaitable],
        *,
        window_s: float = 0.002,
        max_lanes: int = MAX_LANES,
        stats: Optional[ServiceStats] = None,
    ) -> None:
        self._run_blocking = run_blocking
        self.window_s = window_s
        self.max_lanes = max_lanes
        self.stats = stats
        self._pending: Dict[Tuple[int, int], List[_Job]] = {}
        self._circuits: Dict[Tuple[int, int], Circuit] = {}

    async def sweep(
        self, circuit: Circuit, sequences: Sequence[Sequence[Sequence[T]]]
    ) -> List[List[Tuple[T, ...]]]:
        """CLS outputs of *circuit* for *sequences* (all equal length,
        all from the all-X power-up state), by way of a merged pass.

        Returns ``results[seq_index][cycle] = output vector``, exactly
        as :meth:`BatchedTernarySimulator.run_sequences` would.
        """
        if not sequences:
            return []
        lengths = {len(seq) for seq in sequences}
        if len(lengths) != 1:
            raise ValueError("sequences must share one length")
        key = (id(circuit), lengths.pop())
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        bucket = self._pending.get(key)
        if bucket is None:
            # First submission under this key: open the window and
            # schedule the flush.
            self._pending[key] = [(sequences, future)]
            self._circuits[key] = circuit
            asyncio.ensure_future(self._flush_after_window(key))
        else:
            bucket.append((sequences, future))
            if sum(len(seqs) for seqs, _ in bucket) >= self.max_lanes:
                self._flush_now(key)
        return await future

    async def _flush_after_window(self, key) -> None:
        if self.window_s > 0:
            await asyncio.sleep(self.window_s)
        else:
            # Yield once so submissions from the same tick can join.
            await asyncio.sleep(0)
        self._flush_now(key)

    def _flush_now(self, key) -> None:
        jobs = self._pending.pop(key, None)
        circuit = self._circuits.pop(key, None)
        if not jobs:
            return
        asyncio.ensure_future(self._run_batch(circuit, jobs))

    async def _run_batch(self, circuit: Circuit, jobs: List[_Job]) -> None:
        merged: List[Sequence[Sequence[T]]] = []
        for sequences, _ in jobs:
            merged.extend(sequences)
        if self.stats is not None:
            self.stats.record_batch(len(jobs), len(merged))
        try:
            results = await self._run_blocking(
                lambda: BatchedTernarySimulator(circuit).run_sequences(merged)
            )
        except Exception as exc:
            for _, future in jobs:
                if not future.done():
                    future.set_exception(exc)
            return
        offset = 0
        for sequences, future in jobs:
            part = results[offset : offset + len(sequences)]
            offset += len(sequences)
            if not future.done():
                future.set_result(part)
