"""The tick loop: one pass of a workload through the ``LLM`` facade.

A *tick* submits the requests due this tick, applies the aborts planned
for it, runs one ``Engine.step()`` and reads the new deltas from every
live handle.  Tick 0 also contains the engine constructor, so eager and
lazy set-up are charged alike.  Arrivals and aborts are scheduled by
tick index, not by wall clock: every pass then executes the identical
sequence of step plans, which is what lets passes be compared tick by
tick (``estimator.py``) and tokens be compared bit by bit
(``checks.py``).  This is an open loop in tick time — a slow step does
not delay later arrivals — and latencies count from the due tick.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.llm.transformer import CausalLM
from repro.serve import LLM, EngineMetrics, RequestHandle, StepTracer

from ledgerlib.workloads import WorkloadSpec


@dataclass
class PassRecord:
    """Everything one pass produced, timing and outputs."""

    #: Wall seconds of each tick (constructor included in tick 0).
    tick_seconds: list[float] = field(default_factory=list)
    #: Calibration seconds: one before tick 0, one after every
    #: ``cal_every`` ticks, one after the last tick.
    cal_seconds: list[float] = field(default_factory=list)
    #: Per request, the tick index at which each of its tokens arrived.
    token_ticks: list[list[int]] = field(default_factory=list)
    #: Per request, the emitted tokens.
    tokens: list[list[int]] = field(default_factory=list)
    #: Per request: "finished", "aborted", "failed" or "unfinished".
    outcomes: list[str] = field(default_factory=list)
    build_seconds: float = 0.0
    #: ``time.time()`` when the first token of the pass was delivered.
    first_token_at: float = 0.0
    #: Sums over the steps' ``StepReport``s that ``EngineMetrics`` drops.
    batch_tokens: int = 0
    active_steps: int = 0
    decode_rows: int = 0
    peak_blocks: int = 0
    leaked_blocks: int = 0
    metrics: EngineMetrics | None = None
    #: The engine's ``StepTracer`` (traced passes only).
    tracer: StepTracer | None = None

    def fingerprint(self) -> tuple:
        """What must be identical in every pass of one workload."""
        assert self.metrics is not None
        m = self.metrics
        return (
            tuple(tuple(row) for row in self.tokens),
            tuple(tuple(row) for row in self.token_ticks),
            tuple(self.outcomes),
            m.steps,
            m.preemptions,
            m.evicted_blocks,
            m.total_new_tokens,
            m.prefill_tokens,
            m.prefix_hit_tokens,
            m.attention_dispatches,
            self.peak_blocks,
        )


def _outcome(handle: RequestHandle) -> str:
    if handle.finished:
        return "finished"
    if handle.aborted:
        return "aborted"
    if handle.failed:
        return "failed"
    return "unfinished"


def run_pass(
    model: CausalLM,
    spec: WorkloadSpec,
    calibrate: Callable[[], float],
    trace: bool = False,
    until_first_token: bool = False,
    max_ticks: int = 20000,
) -> PassRecord:
    """Serve ``spec`` once on a fresh engine; returns the pass record.

    ``until_first_token`` stops right after the first delivered token
    (the set-up probe: a cold process's time to first service).
    """
    record = PassRecord()
    count = len(spec.requests)
    record.token_ticks = [[] for _ in range(count)]
    record.tokens = [[] for _ in range(count)]
    due: dict[int, list[int]] = {}
    aborts: dict[int, list[int]] = {}
    for index, request in enumerate(spec.requests):
        due.setdefault(request.due_tick, []).append(index)
        if request.abort_tick is not None:
            aborts.setdefault(request.abort_tick, []).append(index)
    last_due = max(due)
    config = spec.engine_config(trace=trace)

    handles: dict[int, RequestHandle] = {}
    live: dict[int, RequestHandle] = {}
    cursors = [0] * count
    llm: LLM | None = None
    tick = 0
    record.cal_seconds.append(calibrate())
    while True:
        started = time.perf_counter()
        if llm is None:
            llm = LLM(model, config)
            record.build_seconds = time.perf_counter() - started
            pool = llm.engine._pool
        for index in due.get(tick, ()):
            request = spec.requests[index]
            handle = llm.submit(request.prompt, request.params)
            handles[index] = handle
            live[index] = handle
        for index in aborts.get(tick, ()):
            llm.abort(handles[index])
        report = llm.engine.step().report
        if report.prefills or report.decodes:
            record.active_steps += 1
            record.batch_tokens += report.batch_tokens
            record.decode_rows += report.decodes
        for index in list(live):
            handle = live[index]
            fresh = handle.deltas(cursors[index])
            if fresh:
                if not record.first_token_at:
                    record.first_token_at = time.time()
                    if until_first_token:
                        return record
                cursors[index] += len(fresh)
                record.token_ticks[index].extend([tick] * len(fresh))
                record.tokens[index].extend(delta.token for delta in fresh)
            if handle.terminal:
                del live[index]
        record.tick_seconds.append(time.perf_counter() - started)
        if pool is not None:
            record.peak_blocks = max(record.peak_blocks, pool.allocator.used_blocks)
        tick += 1
        done = tick > last_due and not llm.engine.has_work()
        if done or tick % spec.cal_every == 0:
            record.cal_seconds.append(calibrate())
        if done:
            break
        if tick >= max_ticks:
            raise RuntimeError(f"{spec.name}: no drain within {max_ticks} ticks")
    record.outcomes = [_outcome(handles[index]) for index in range(count)]
    record.metrics = llm.metrics()
    record.leaked_blocks = 0 if pool is None else pool.leaked_blocks()
    record.tracer = llm.telemetry.tracer
    return record
