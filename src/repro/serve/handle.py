"""Streaming request handles and structured per-step outputs.

This module is the observable half of the serving front end:

* every :meth:`Engine.step` returns a :class:`StepOutputs` — the step's
  :class:`~repro.serve.metrics.StepReport` plus one :class:`TokenDelta`
  per token emitted that step, so callers see tokens the step they are
  produced (per-request TTFT falls straight out of the first delta);
* every :meth:`Engine.submit` returns a :class:`RequestHandle` — the
  client's view of one request's
  :class:`~repro.serve.request.RequestState`, with incremental token
  iteration (:meth:`RequestHandle.tokens`), :meth:`~RequestHandle.status`,
  a blocking :meth:`~RequestHandle.result`, and
  :meth:`~RequestHandle.abort` (cancel and release KV residency).

A handle builds its deltas and its result from the state on demand, so
each token is recorded once and a finished request lives as long as its
handle.

Handles drive the engine cooperatively: iterating tokens or demanding a
result steps the engine until the request progresses, so one handle can
be consumed while other requests keep decoding in the same steps —
continuous batching observed one request at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.errors import RequestAbortedError, RequestFailedError
from repro.serve.metrics import StepReport
from repro.serve.request import CompletedRequest, RequestState, RequestStatus, complete

if TYPE_CHECKING:  # pragma: no cover - engine imports this module
    from repro.serve.engine import Engine


@dataclass(frozen=True, slots=True)
class TokenDelta:
    """One token, the step it was emitted.

    ``slots=True``: one delta is allocated per emitted token per step
    (and per handle read), so the steady-state decode loop keeps these
    as light as a plain tuple.

    Attributes:
        request_id: the emitting request.
        index: position in the continuation (0 = first token; its
            delta is the request's time-to-first-token mark).
        token: the emitted token id.
        finished: this token ended the request.
        finish_reason: ``"length"`` or ``"stop"`` when ``finished``,
            else None.
        time: ``perf_counter`` stamp of the emission — streaming
            consumers compute per-request TTFT/ITL from these directly.
    """

    request_id: int
    index: int
    token: int
    finished: bool
    finish_reason: str | None
    time: float

    @property
    def is_first(self) -> bool:
        return self.index == 0


@dataclass(frozen=True, slots=True)
class StepOutputs:
    """Everything one engine step produced.

    Attributes:
        report: the step's aggregate counters and simulated traffic
            (the pre-redesign return value of ``Engine.step``).
        deltas: per-request token emissions, in emission order.
    """

    report: StepReport
    deltas: tuple[TokenDelta, ...] = field(default_factory=tuple)

    def for_request(self, request_id: int) -> tuple[TokenDelta, ...]:
        """This step's deltas belonging to one request."""
        return tuple(d for d in self.deltas if d.request_id == request_id)


class RequestHandle:
    """The client's view of one submitted request.

    Returned by :meth:`Engine.submit` (and :meth:`LLM.submit`).  A
    handle is a view of the request's
    :class:`~repro.serve.request.RequestState`: it never holds model
    state or copies of tokens, so reading a handle is cheap and
    aborting it releases every engine resource the request held.
    """

    def __init__(self, engine: "Engine", state: RequestState) -> None:
        self._engine = engine
        self._state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestHandle(id={self.request_id}, "
            f"status={self.status().value}, "
            f"tokens={self.delta_count})"
        )

    # -- identity & status -------------------------------------------------

    @property
    def request_id(self) -> int:
        return self._state.request.request_id

    def __int__(self) -> int:
        return self.request_id

    @property
    def arrival_time(self) -> float:
        """``perf_counter`` stamp of submission (TTFT zero point)."""
        return self._state.arrival_time

    def status(self) -> RequestStatus:
        """Current lifecycle state (WAITING … FINISHED/ABORTED)."""
        return self._state.status

    @property
    def finished(self) -> bool:
        return self._state.status is RequestStatus.FINISHED

    @property
    def aborted(self) -> bool:
        return self._state.status is RequestStatus.ABORTED

    @property
    def failed(self) -> bool:
        """The engine quarantined this request (fault/deadline/shed)."""
        return self._state.status is RequestStatus.FAILED

    def failure(self) -> BaseException | None:
        """The exception that failed this request, if it has failed.

        None while in flight, after a clean finish, and for failures
        that carry no exception (load shedding records only the
        ``finish_reason``).
        """
        return self._state.failure

    @property
    def terminal(self) -> bool:
        return self._state.status.terminal

    # -- client surface ----------------------------------------------------

    @property
    def delta_count(self) -> int:
        """Tokens emitted so far — cheap progress probe (no copying)."""
        return len(self._state.generated)

    def deltas(self, start: int = 0) -> tuple[TokenDelta, ...]:
        """Deltas emitted so far, optionally from ``start`` (no stepping).

        Built from the state's tokens and time stamps, so a call costs
        the deltas it returns, not the request's history.  ``finished``
        is set only on the last token of a FINISHED request; an aborted
        or failed request's deltas all read unfinished.
        """
        state = self._state
        tokens = state.generated
        first, count, _ = slice(start, None).indices(len(tokens))
        if first >= count:
            return ()
        request_id = state.request.request_id
        times = state.token_times
        last = count - 1 if state.status is RequestStatus.FINISHED else -1
        return tuple(
            TokenDelta(
                request_id=request_id,
                index=index,
                token=tokens[index],
                finished=index == last,
                finish_reason=state.finish_reason if index == last else None,
                time=times[index],
            )
            for index in range(first, count)
        )

    def generated_tokens(self) -> list[int]:
        """Continuation tokens emitted so far (no stepping).

        Readable in every state — including after ``abort()``, where it
        is the partial output the request produced before cancellation.
        """
        return list(self._state.generated)

    def tokens(self, max_steps: int | None = None) -> Iterator[TokenDelta]:
        """Iterate this request's deltas, stepping the engine as needed.

        Yields each emitted token exactly once, in order, driving
        :meth:`Engine.step` whenever every token so far has been
        yielded and the request is still in flight (other requests in
        the engine make progress in those same steps).  The iterator
        ends when the request finishes — or silently when it is
        aborted, including an ``abort()`` issued from inside the loop.

        Args:
            max_steps: bound on engine steps per dry spell (the wait
                for one more delta); raises
                :class:`~repro.errors.ModelError` when exceeded — the
                same guard against preemption thrash in an undersized
                pool that ``run_until_idle``/``result`` take.  None
                waits unboundedly.
        """
        index = 0
        while True:
            fresh = self.deltas(index)
            if fresh:
                index += len(fresh)
                yield from fresh
                continue
            if self.terminal:
                return
            self._engine.run_until(
                lambda: self.delta_count > index or self.terminal,
                max_steps=max_steps,
                what=f"token iteration for request {self.request_id}",
            )

    def __iter__(self) -> Iterator[TokenDelta]:
        return self.tokens()

    def result(self, max_steps: int | None = None) -> CompletedRequest:
        """Block (stepping the engine) until finished; return the result.

        Raises :class:`~repro.errors.RequestAbortedError` if the
        request was aborted, :class:`~repro.errors.RequestFailedError`
        (carrying the original fault, when there is one) if the engine
        failed it — quarantine, deadline expiry, or load shedding —
        and :class:`~repro.errors.ModelError` if ``max_steps`` elapse
        first.  Each call builds the result afresh from the request's
        state (:func:`~repro.serve.request.complete`); the engine keeps
        no copy.
        """
        if not self.terminal:
            self._engine.run_until(
                lambda: self.terminal,
                max_steps=max_steps,
                what=f"result() for request {self.request_id}",
            )
        if self.aborted:
            raise RequestAbortedError(
                f"request {self.request_id} was aborted after "
                f"{len(self._state.generated)} tokens"
            )
        if self.failed:
            fault = self._state.failure
            reason = self._state.finish_reason or "error"
            raise RequestFailedError(
                f"request {self.request_id} failed ({reason}) after "
                f"{len(self._state.generated)} tokens"
                + (f": {fault}" if fault is not None else ""),
                fault=fault,
            ) from fault
        return complete(self._state)

    def abort(self) -> bool:
        """Cancel the request; returns True if it was still in flight.

        Releases the request's KV residency immediately — paged blocks
        and prefix-cache references return to the pool through the same
        rollback path preemption uses, so an abort mid-chunked-prefill
        leaks nothing.  Aborting a terminal request is a no-op.
        """
        return self._engine.abort(self.request_id)
