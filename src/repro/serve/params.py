"""Per-request sampling parameters for the serving front end.

A :class:`SamplingParams` is the immutable decoding recipe one request
carries through the whole stack — submission, scheduling, decode, and
the sequential :func:`repro.llm.generation.generate` reference path —
replacing the scattered per-call kwargs the pre-redesign
``Engine.submit`` took.  It is validated at construction, so an invalid
recipe fails at the API boundary (``repro.errors.RequestError``) rather
than deep inside a scheduler step with the request already accepted.

Defaults reproduce the engine's historical behavior exactly: greedy
decoding (``temperature=0``), no nucleus truncation (``top_p=1``), no
stop tokens.  Because ``top_p=1.0`` and ``stop_token_ids=()`` take the
pre-existing code paths verbatim, the new-API parity suite can pin
token-bitwise identity against the pre-redesign engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

from repro.errors import RequestError
from repro.llm.kv_quant import KVFormat


@dataclass(frozen=True)
class SamplingParams:
    """Frozen per-request decoding recipe.

    Args:
        max_new_tokens: continuation length to produce (the cap; stop
            tokens may end the request earlier).
        temperature: 0 for greedy argmax, else softmax temperature.
        top_k: sample from the k most likely tokens when sampling.
        top_p: nucleus truncation — keep the smallest set of top-k
            tokens whose cumulative probability reaches ``top_p``.
            1.0 (the default) disables truncation and is bitwise
            identical to the pre-``top_p`` sampler.
        stop_token_ids: token ids that end the request early.  The stop
            token itself is emitted (it is part of the continuation);
            the request then finishes with ``finish_reason="stop"``.
        seed: per-request sampling seed (each request draws from its
            own RNG stream, as sequential ``generate`` calls would).
        deadline_s: optional per-request latency budget in seconds,
            measured from submission.  Enforced at step boundaries:
            a request still unfinished when its budget elapses is
            failed with ``finish_reason="deadline"`` and its handle's
            ``result()`` raises
            :class:`~repro.errors.RequestFailedError` carrying a
            :class:`~repro.errors.DeadlineExceededError`.  None (the
            default) never expires.
        kv_format: optional per-request KV-cache format override
            (:class:`repro.llm.kv_quant.KVFormat`).  ``None`` (the
            default) inherits the engine-wide
            ``EngineConfig.kv_format``, so existing recipes are
            untouched; a value makes this request's cached keys/values
            go through that format instead — one engine serving
            heterogeneous-precision traffic.
    """

    max_new_tokens: int = 16
    temperature: float = 0.0
    top_k: int = 20
    top_p: float = 1.0
    stop_token_ids: tuple[int, ...] = field(default_factory=tuple)
    seed: int = 0
    deadline_s: float | None = None
    kv_format: KVFormat | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.max_new_tokens, Integral) or isinstance(
            self.max_new_tokens, bool
        ):
            raise RequestError(
                f"max_new_tokens must be an integer, got {self.max_new_tokens!r}"
            )
        if self.max_new_tokens < 1:
            raise RequestError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}"
            )
        # A NaN slips past every comparison below and only surfaces as
        # NaN probabilities inside an engine step, with the request
        # already holding pool blocks.
        for name in ("temperature", "top_p"):
            value = getattr(self, name)
            if not isinstance(value, Real) or not math.isfinite(value):
                raise RequestError(f"{name} must be a finite number, got {value!r}")
        if self.temperature < 0.0:
            raise RequestError(f"temperature must be >= 0, got {self.temperature}")
        if self.temperature > 0.0 and self.top_k < 1:
            raise RequestError(f"top_k must be >= 1 when sampling, got {self.top_k}")
        if not 0.0 < self.top_p <= 1.0:
            raise RequestError(f"top_p must lie in (0, 1], got {self.top_p}")
        # Normalize to a plain tuple of ints so membership checks and
        # equality are exact whatever iterable the caller handed in.
        try:
            stop = tuple(int(token) for token in self.stop_token_ids)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                f"stop_token_ids must be integer token ids, got {self.stop_token_ids!r}"
            ) from exc
        object.__setattr__(self, "stop_token_ids", stop)
        if any(token < 0 for token in stop):
            raise RequestError(f"stop token ids must be >= 0, got {stop}")
        if self.deadline_s is not None and not self.deadline_s > 0.0:
            raise RequestError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )
        if self.kv_format is not None and not isinstance(self.kv_format, KVFormat):
            raise RequestError(
                "kv_format must be a repro.llm.kv_quant.KVFormat or None, "
                f"got {type(self.kv_format).__name__}"
            )

    def is_stop(self, token: int) -> bool:
        """Whether emitting ``token`` ends the request."""
        return token in self.stop_token_ids
