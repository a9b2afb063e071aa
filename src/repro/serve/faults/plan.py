"""Declarative fault plans and failure-handling policies.

A :class:`FaultPlan` is a seeded, declarative description of which
faults to inject where: each :class:`FaultRule` names an injection
site (see :data:`repro.serve.faults.injector.SITES`), selects a fault
class (transient vs permanent), and optionally narrows to a step
index, a target request, or a seeded per-probe probability.  Plans are
deterministic by construction — two engines built from the same plan
and fed the same traffic fire the same faults at the same probes — so
the chaos suite can compare a faulted run against its fault-free twin
bitwise.

This module also holds the two failure-handling policies the engine
consumes:

* :class:`RetryPolicy` — bounded exponential backoff for transient
  faults, measured in scheduler steps (deterministic, no wall clock).
  A retried request that has emitted tokens keeps its stored KV as an
  image and swaps it back in, so its tokens are bitwise identical to
  an unfaulted run.
* :class:`PressurePolicy` — graceful degradation under KV-pool
  exhaustion: shed new admissions outright below one free-fraction
  threshold, or downgrade them to a lower-bit
  :class:`~repro.llm.kv_quant.KVFormat` below another (prefix-signature
  privacy keeps degraded requests out of shared prefixes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ModelError
from repro.llm.kv_quant import KVFormat


class InjectedFault(ModelError):
    """Base class for faults raised by the injection layer.

    Attributes:
        site: the injection point that fired.
        request_id: the request the fault is attributable to, or None
            for a batch-level fault (the probe ran outside any single
            request's scope) — the engine quarantines/retries the
            former and rolls the whole step back for the latter.
        rule_index: index of the firing rule in its plan.
    """

    def __init__(
        self,
        message: str,
        *,
        site: str = "",
        request_id: int | None = None,
        rule_index: int = -1,
    ) -> None:
        super().__init__(message)
        self.site = site
        self.request_id = request_id
        self.rule_index = rule_index


class TransientFault(InjectedFault):
    """A fault worth retrying (think: transient link/ECC hiccup).

    The engine gives the victim's blocks back and re-queues it with
    bounded backoff; a victim that has emitted tokens swaps its stored
    KV back in, so the retry is bitwise.
    """


class PermanentFault(InjectedFault):
    """A fault that is not worth retrying (think: poisoned input).

    The engine quarantines the victim: terminal ``FAILED`` status,
    ``finish_reason="error"``, residency released.
    """


@dataclass(frozen=True, slots=True)
class FaultRule:
    """One declarative injection rule.

    Args:
        site: injection-point name to match (one of
            :data:`~repro.serve.faults.injector.SITES`, or ``"*"`` to
            match every site).
        kind: ``"transient"`` (raises :class:`TransientFault`) or
            ``"permanent"`` (raises :class:`PermanentFault`).
        step: fire only on this engine step index; None matches any.
        request_id: fire only on probes attributed to this request;
            None matches any probe.  Targeted rules never fire at
            unattributed probes, so they cannot misfire onto an
            innocent batchmate.
        probability: when > 0, fire with this seeded per-probe
            probability (each rule draws from its own
            ``default_rng((plan.seed, rule_index))`` stream); when 0,
            fire deterministically at the first matching probe.
        max_fires: cap on total firings (None = unbounded).  The
            default of 1 keeps plans finite so a faulted engine always
            converges.
    """

    site: str
    kind: str = "transient"
    step: int | None = None
    request_id: int | None = None
    probability: float = 0.0
    max_fires: int | None = 1

    def __post_init__(self) -> None:
        if not self.site:
            raise ModelError("FaultRule.site must be a non-empty string")
        if self.kind not in ("transient", "permanent"):
            raise ModelError(
                f"FaultRule.kind must be 'transient' or 'permanent', "
                f"got {self.kind!r}"
            )
        if self.step is not None and self.step < 0:
            raise ModelError(f"FaultRule.step must be >= 0, got {self.step}")
        if not 0.0 <= self.probability <= 1.0:
            raise ModelError(
                f"FaultRule.probability must lie in [0, 1], "
                f"got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ModelError(
                f"FaultRule.max_fires must be >= 1 or None, "
                f"got {self.max_fires}"
            )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A seeded set of fault rules, evaluated by a
    :class:`~repro.serve.faults.injector.FaultInjector`.

    Args:
        rules: the :class:`FaultRule` members, matched in order at
            every probe.
        seed: base seed for the per-rule probability streams.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        rules = tuple(self.rules)
        for rule in rules:
            if not isinstance(rule, FaultRule):
                raise ModelError(
                    f"FaultPlan.rules must contain FaultRule instances, "
                    f"got {type(rule).__name__}"
                )
        object.__setattr__(self, "rules", rules)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded-backoff retry policy for transient faults.

    Backoff is measured in scheduler steps, not wall clock, so retry
    timing is deterministic and replayable.  The n-th retry of a
    request waits ``min(backoff_steps * 2**(n-1), max_backoff_steps)``
    steps before it becomes schedulable again.

    Args:
        max_retries: transient faults tolerated per request before it
            is quarantined like a permanent one.
        backoff_steps: base delay of the exponential backoff (0
            retries immediately on the next step).
        max_backoff_steps: cap on any single backoff delay.
    """

    max_retries: int = 2
    backoff_steps: int = 1
    max_backoff_steps: int = 8

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ModelError(
                f"RetryPolicy.max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_steps < 0:
            raise ModelError(
                f"RetryPolicy.backoff_steps must be >= 0, "
                f"got {self.backoff_steps}"
            )
        if self.max_backoff_steps < 0:
            raise ModelError(
                f"RetryPolicy.max_backoff_steps must be >= 0, "
                f"got {self.max_backoff_steps}"
            )

    def delay_steps(self, retries: int) -> int:
        """Backoff delay (in steps) before retry number ``retries``."""
        if retries < 1 or self.backoff_steps == 0:
            return 0
        return min(self.backoff_steps * 2 ** (retries - 1), self.max_backoff_steps)


@dataclass(frozen=True, slots=True)
class PressurePolicy:
    """Graceful-degradation policy for KV-pool admission pressure.

    Both thresholds compare against the pool's *headroom* — the
    fraction of blocks free or reclaimable at submit time — and both
    default to 0.0, which disables them (headroom is never < 0).

    Args:
        shed_below_free_fraction: when headroom drops below this
            fraction, new admissions are shed: the request is failed
            at the gate with ``finish_reason="shed"`` (its handle's
            ``result()`` raises
            :class:`~repro.errors.RequestFailedError`) instead of
            queueing work the pool cannot hold.
        degrade_below_free_fraction: when headroom drops below this
            fraction (but admission is not shed), a request without an
            explicit per-request ``kv_format`` is admitted at
            ``degraded_format`` instead of the engine default —
            trading precision for residency.  Prefix-signature privacy
            keeps such requests out of the shared prefix cache.
        degraded_format: the lower-bit format degraded admissions use;
            required when degradation is enabled.
    """

    shed_below_free_fraction: float = 0.0
    degrade_below_free_fraction: float = 0.0
    degraded_format: KVFormat | None = None

    def __post_init__(self) -> None:
        for name in ("shed_below_free_fraction", "degrade_below_free_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ModelError(
                    f"PressurePolicy.{name} must lie in [0, 1], got {value}"
                )
        if self.degrade_below_free_fraction > 0.0 and self.degraded_format is None:
            raise ModelError(
                "PressurePolicy.degraded_format is required when "
                "degrade_below_free_fraction > 0"
            )
        if self.degraded_format is not None and not isinstance(
            self.degraded_format, KVFormat
        ):
            raise ModelError(
                "PressurePolicy.degraded_format must be a KVFormat or None, "
                f"got {type(self.degraded_format).__name__}"
            )

    @property
    def active(self) -> bool:
        """Whether any threshold is enabled."""
        return (
            self.shed_below_free_fraction > 0.0
            or self.degrade_below_free_fraction > 0.0
        )
