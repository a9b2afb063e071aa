"""The ``LLM`` facade: the unified front door of the serving stack.

One :class:`LLM` wraps one :class:`~repro.serve.engine.Engine` and
exposes the three request lifecycles a serving client needs, all built
on the same engine loop:

* **batch** — :meth:`LLM.generate`: submit a batch of prompts (each
  with its own :class:`~repro.serve.params.SamplingParams`), run the
  engine to idle, return :class:`CompletedRequest` results in input
  order;
* **streaming** — :meth:`LLM.stream`: a generator of
  :class:`~repro.serve.handle.TokenDelta` that steps the engine lazily
  and yields every token the step it is emitted — per-request TTFT is
  the first delta's timestamp;
* **incremental** — :meth:`LLM.submit`: one
  :class:`~repro.serve.handle.RequestHandle` per request, for callers
  that interleave submission, token iteration, and
  :meth:`~repro.serve.handle.RequestHandle.abort`.

``Engine`` remains fully public as the internal layer (schedulers,
paged KV pool, step-level control); the facade only narrows how
requests enter and results leave.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ModelError, RequestError
from repro.llm.transformer import CausalLM
from repro.serve.engine import Engine, EngineConfig
from repro.serve.handle import RequestHandle, TokenDelta
from repro.serve.metrics import EngineMetrics
from repro.serve.params import SamplingParams
from repro.serve.request import CompletedRequest
from repro.serve.telemetry import EngineTelemetry


class LLM:
    """High-level serving interface over one continuous-batching engine.

    Args:
        model: a :class:`~repro.llm.transformer.CausalLM`, or a model
            zoo name (e.g. ``"opt-125m-sim"``) resolved through
            :func:`repro.llm.zoo.get_model`.  Omit when passing a
            pre-built ``engine``.
        config: engine configuration (KV format, pool size, chunk
            budget); ignored when ``engine`` is given.
        engine: adopt an existing engine instead of building one —
            several facades (or facade and raw-engine code) may share
            it; results are never stolen across owners.
    """

    def __init__(
        self,
        model: CausalLM | str | None = None,
        config: EngineConfig | None = None,
        engine: Engine | None = None,
    ) -> None:
        if engine is not None:
            self.engine = engine
        else:
            if model is None:
                raise RequestError("LLM needs a model (or a pre-built engine)")
            if isinstance(model, str):
                from repro.llm.zoo import get_model

                model = get_model(model)
            self.engine = Engine(model, config)
        self.model = self.engine.model

    # -- request entry -----------------------------------------------------

    def submit(
        self,
        prompt_tokens: np.ndarray,
        sampling_params: SamplingParams | None = None,
    ) -> RequestHandle:
        """Enqueue one request; returns its streaming handle."""
        return self.engine.submit(
            prompt_tokens, sampling_params or SamplingParams()
        )

    def _submit_all(
        self,
        prompts: Sequence[np.ndarray],
        sampling_params: SamplingParams | Sequence[SamplingParams] | None,
    ) -> list[RequestHandle]:
        if sampling_params is None:
            sampling_params = SamplingParams()
        if isinstance(sampling_params, SamplingParams):
            per_prompt: Sequence[SamplingParams] = [sampling_params] * len(prompts)
        else:
            per_prompt = list(sampling_params)
            if len(per_prompt) != len(prompts):
                raise RequestError(
                    f"got {len(per_prompt)} SamplingParams for "
                    f"{len(prompts)} prompts; pass one recipe or one per prompt"
                )
        return [
            self.engine.submit(prompt, params)
            for prompt, params in zip(prompts, per_prompt)
        ]

    # -- batch lifecycle ---------------------------------------------------

    def generate(
        self,
        prompts: Sequence[np.ndarray] | np.ndarray,
        sampling_params: SamplingParams | Sequence[SamplingParams] | None = None,
        max_steps: int | None = None,
    ) -> list[CompletedRequest] | CompletedRequest:
        """Serve prompts to completion; results align with input order.

        ``sampling_params`` is one recipe for the whole batch or one
        per prompt (requests always draw from independent per-request
        RNG streams, exactly as sequential
        :func:`repro.llm.generation.generate` calls would).  A single
        1-D ndarray prompt returns a single result; a 2-D ndarray is a
        batch of row prompts, returning a list.

        The engine is run to idle, so on a shared engine, requests
        submitted elsewhere finish too — their results stay readable
        through their own handles, never collected here.  The results
        are built from the requests' states; once the caller drops
        them, the engine holds nothing of these requests but their
        latency records in :meth:`metrics`.
        """
        single = isinstance(prompts, np.ndarray) and prompts.ndim == 1
        if isinstance(prompts, np.ndarray) and prompts.ndim > 1:
            # A row-per-prompt batch must not be flattened into one
            # giant concatenated request.
            batch: Sequence[np.ndarray] = list(prompts)
        else:
            batch = [prompts] if single else prompts
        handles = self._submit_all(batch, sampling_params)
        self.engine.run_until_idle(max_steps=max_steps)
        results = [handle.result() for handle in handles]
        return results[0] if single else results

    # -- streaming lifecycle -----------------------------------------------

    def stream(
        self,
        prompts: Iterable[np.ndarray | RequestHandle],
        sampling_params: SamplingParams | Sequence[SamplingParams] | None = None,
        max_steps: int | None = None,
    ) -> Iterator[TokenDelta]:
        """Yield every token of these requests the step it is emitted.

        Accepts raw prompts (submitted on first iteration) or
        already-submitted :class:`RequestHandle`s, mixed freely.  Steps
        the engine only while one of *these* requests is still in
        flight; deltas belonging to other requests sharing the engine
        are not yielded (their handles still read them).  A request aborted
        mid-stream simply stops appearing; the stream ends when every
        tracked request is terminal.
        """
        entries = list(prompts)
        raw = [e for e in entries if not isinstance(e, RequestHandle)]
        raw_handles = iter(self._submit_all(raw, sampling_params))
        handles = [
            entry if isinstance(entry, RequestHandle) else next(raw_handles)
            for entry in entries
        ]
        cursors = {handle.request_id: 0 for handle in handles}
        start_step = self.engine._step_index
        while True:
            # Flush every emitted-but-unseen delta of tracked requests.
            for handle in handles:
                fresh = handle.deltas(cursors[handle.request_id])
                cursors[handle.request_id] += len(fresh)
                yield from fresh
            # After a flush, cursors are caught up: a handle is pending
            # iff it is still in flight (terminal handles are fully
            # consumed).
            in_flight = [handle for handle in handles if not handle.terminal]
            if not in_flight:
                return
            # Step (guarded) until an in-flight request progresses — a
            # new delta, or a terminal transition without one (abort).
            # Foreign requests sharing the engine progress in the same
            # steps but are never yielded.
            consumed = self.engine._step_index - start_step
            remaining = None if max_steps is None else max_steps - consumed
            if remaining is not None and remaining < 1:
                raise ModelError(
                    f"stream did not finish within max_steps={max_steps}"
                )
            self.engine.run_until(
                lambda: any(
                    h.delta_count > cursors[h.request_id] or h.terminal
                    for h in in_flight
                ),
                max_steps=remaining,
                what=(
                    f"stream (step budget {max_steps} total, "
                    f"{consumed} already used)"
                ),
            )

    # -- passthroughs ------------------------------------------------------

    def abort(self, request: RequestHandle | int) -> bool:
        """Cancel a request by handle or id (see :meth:`Engine.abort`)."""
        if isinstance(request, RequestHandle):
            request = request.request_id
        return self.engine.abort(request)

    def metrics(self) -> EngineMetrics:
        """Aggregate engine metrics (throughput, latency, traffic)."""
        return self.engine.metrics()

    @property
    def telemetry(self) -> EngineTelemetry:
        """The engine's :class:`~repro.serve.telemetry.EngineTelemetry`
        bundle (optional tracer, Prometheus and trace exporters)."""
        return self.engine.telemetry
