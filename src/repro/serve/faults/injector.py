"""Seeded fault injection: named probes threaded through the stack.

The serving stack is instrumented with *probes* — calls to
:func:`inject` at named sites (:data:`SITES`).  A probe is a no-op
unless the engine has installed a :class:`FaultInjector` for the
current step via :func:`injection_scope`; then the injector matches
the probe against its :class:`~repro.serve.faults.plan.FaultPlan` and
raises a :class:`~repro.serve.faults.plan.TransientFault` or
:class:`~repro.serve.faults.plan.PermanentFault` when a rule fires.

Attribution: a probe carries the request id it is certainly
attributable to — passed explicitly at engine-level sites, taken from
the sequence owner at paged-KV sites, or inherited from the ambient
:func:`request_scope` the engine installs around genuinely per-request
sections.  Probes that run on behalf of several requests at once (a
stacked group compress, a mid-forward pool allocation) stay
*unattributed*: a fault there is batch-level and rolls the whole step
back rather than quarantining an arbitrary batchmate — which is what
keeps the chaos suite's headline invariant (non-faulted requests are
bitwise identical to a fault-free run) provable.

Both context variables make the layer zero-cost when unused: with no
injector installed, :func:`inject` is one ``ContextVar.get`` returning
None.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Iterator

import numpy as np

from repro.serve.faults.plan import (
    FaultPlan,
    PermanentFault,
    TransientFault,
)

#: Named injection points threaded through the serving stack.
SITES = (
    "admission",  # Engine.submit, after validation (per request)
    "model.prefill",  # swap-in of a preempted request, pre-restore (per request)
    "model.chunk",  # chunked-prefill lane, pre-forward (per request)
    "model.decode",  # decode lane, pre-forward (per decode request)
    "codec.encode",  # PagedKVCache.compress (sequence owner)
    "pool.allocate",  # KVPool.take_block (ambient request scope, else batch)
    "paged.gather",  # SequenceKV.gather (sequence owner)
)

_INJECTOR: contextvars.ContextVar["FaultInjector | None"] = contextvars.ContextVar(
    "repro_fault_injector", default=None
)
_REQUEST: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_fault_request", default=None
)


class FaultInjector:
    """Evaluates a :class:`~repro.serve.faults.plan.FaultPlan` at probes.

    One injector is built per engine and installed around every step
    (and around ``submit`` for the admission site).  Each probabilistic
    rule draws from its own ``default_rng((plan.seed, rule_index))``
    stream, so firing decisions depend only on the plan and the probe
    sequence — deterministic across identical runs.

    Attributes:
        plan: the declarative plan being evaluated.
        fired_total: total faults raised so far.
        fired_by_site: per-site fault counts (only sites that fired).
    """

    __slots__ = ("plan", "fired_total", "fired_by_site", "_rngs", "_fires", "_step")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired_total = 0
        self.fired_by_site: dict[str, int] = {}
        self._rngs = [
            np.random.default_rng((plan.seed, index))
            for index in range(len(plan.rules))
        ]
        self._fires = [0] * len(plan.rules)
        self._step = 0

    def begin_step(self, step: int) -> None:
        """Tell the injector which engine step subsequent probes run in."""
        self._step = step

    def fires(self, rule_index: int) -> int:
        """How many times rule ``rule_index`` has fired."""
        return self._fires[rule_index]

    def probe(self, site: str, request_id: int | None = None) -> None:
        """Evaluate every rule against one probe; raise if one fires."""
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site and rule.site != "*":
                continue
            if rule.max_fires is not None and self._fires[index] >= rule.max_fires:
                continue
            if rule.request_id is not None and request_id != rule.request_id:
                continue
            if rule.step is not None and self._step != rule.step:
                continue
            if rule.probability > 0.0:
                if self._rngs[index].random() >= rule.probability:
                    continue
            self._fires[index] += 1
            self.fired_total += 1
            self.fired_by_site[site] = self.fired_by_site.get(site, 0) + 1
            cls = TransientFault if rule.kind == "transient" else PermanentFault
            target = "batch" if request_id is None else f"request {request_id}"
            raise cls(
                f"injected {rule.kind} fault at {site} "
                f"(rule {index}, step {self._step}, {target})",
                site=site,
                request_id=request_id,
                rule_index=index,
            )


def inject(site: str, request_id: int | None = None) -> None:
    """Fault-injection probe; no-op unless an injector is installed.

    Args:
        site: the injection-point name (one of :data:`SITES`).
        request_id: the request this probe is certainly attributable
            to; when None, the ambient :func:`request_scope` id is
            used, and failing that the probe is unattributed
            (batch-level fault semantics).
    """
    injector = _INJECTOR.get()
    if injector is None:
        return
    if request_id is None:
        request_id = _REQUEST.get()
    injector.probe(site, request_id)


def active_injector() -> FaultInjector | None:
    """The injector installed in the current context, if any."""
    return _INJECTOR.get()


@contextlib.contextmanager
def injection_scope(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for probes within the ``with`` body."""
    token = _INJECTOR.set(injector)
    try:
        yield injector
    finally:
        _INJECTOR.reset(token)


@contextlib.contextmanager
def request_scope(request_id: int) -> Iterator[None]:
    """Attribute unowned probes within the body to ``request_id``.

    The engine installs this only around sections that genuinely run
    on behalf of a single request (per-chunk cache setup, the legacy
    prefill lane), so scope-derived attribution is always certain.
    """
    token = _REQUEST.set(request_id)
    try:
        yield
    finally:
        _REQUEST.reset(token)
