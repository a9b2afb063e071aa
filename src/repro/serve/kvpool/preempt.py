"""Preemption policy: who loses KV residency under pool pressure.

When a step needs more blocks than the pool can free (even after
reclaiming unreferenced prefix-cache blocks), some resident request
must give its blocks back.  The :class:`Preemptor` picks the victims
from every block holder — running decodes *and* half-prefilled chunked
prompts — and the engine evicts them.  A decoding victim is *swapped
out*: it keeps its emitted tokens and RNG state, its stored K/V bytes
leave the pool as one float16 image, and on re-admission the image is
swapped back into fresh blocks, so the cache, and every later token,
is bitwise identical to an uninterrupted run and nothing is
recomputed.  A half-prefilled victim has emitted nothing yet; it
simply drops its partial cache and restarts its chunked prefill from
scratch (re-mapping any prompt blocks the prefix cache still holds).

Evicting the *latest* arrival first keeps the policy FCFS-fair: the
oldest requests — the ones closest to finishing, holding the most
already-paid-for KV — are the last to lose their residency, so
admission pressure never deadlocks and early requests always drain.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.serve.request import RequestState


class Preemptor:
    """Latest-arrival-first victim selection (lowest priority = newest)."""

    name = "latest-arrival"

    def select_victim(self, candidates: list[RequestState]) -> RequestState:
        """Pick the running request to evict from ``candidates``."""
        if not candidates:
            raise ModelError("no preemption candidates: pool sizing bug")
        return max(
            candidates,
            key=lambda state: (state.arrival_step, state.request.request_id),
        )
