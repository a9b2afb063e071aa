"""Output checks: what has to hold before a number is reported.

Every failed check either names a request (which then counts in
``failed_share``) or is a workload-level problem; either way the run
reports ``correct: false`` and exits non-zero.

* **Determinism** — every pass's tokens, token ticks, outcomes and
  step / preemption / eviction counts equal the warm-up pass's.
* **Oracle** — a fixed sample of four non-aborted requests equals
  sequential ``repro.llm.generation.generate`` with the request's own
  ``KVFormat.cache_factory``.
* **Leaks** — ``leaked_blocks() == 0`` after every pass.
* **Validity** — assertions that keep config drift from hollowing a
  workload out silently (no preemption on the batch workloads and some
  on ``churn_mixed``; no prefix hits on ``prefill_anda`` and > 80 % on
  ``shared_prefix_anda``; no Anda bytes on ``decode_fp16``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.generation import generate
from repro.llm.transformer import CausalLM

from ledgerlib.driver import PassRecord
from ledgerlib.workloads import WorkloadSpec


@dataclass
class CheckReport:
    """Requests attempted and failed, plus workload-level problems."""

    attempted: int = 0
    failed_requests: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_requests)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return not self.failed_requests and not self.problems

    def fail(self, request: int, why: str) -> None:
        self.failed_requests.add(request)
        self.problems.append(f"request {request}: {why}")


def prefix_hit_share(record: PassRecord) -> float:
    """Prompt positions mapped from the radix cache over positions needed."""
    assert record.metrics is not None
    needed = record.metrics.prefix_hit_tokens + record.metrics.prefill_tokens
    return record.metrics.prefix_hit_tokens / needed if needed else 0.0


def check_outputs(
    model: CausalLM,
    spec: WorkloadSpec,
    reference: PassRecord,
    passes: list[PassRecord],
    validity: bool = True,
) -> CheckReport:
    """Run every check; ``reference`` is the warm-up pass."""
    report = CheckReport()
    planned_aborts = {
        index
        for index, request in enumerate(spec.requests)
        if request.abort_tick is not None and reference.outcomes[index] == "aborted"
    }
    attempted = [i for i in range(len(spec.requests)) if i not in planned_aborts]
    report.attempted = len(attempted)

    for index in attempted:
        if reference.outcomes[index] != "finished":
            report.fail(index, f"ended {reference.outcomes[index]}")
    for number, record in enumerate(passes, start=1):
        if record.fingerprint() == reference.fingerprint():
            continue
        report.problems.append(f"pass {number} differs from the warm-up pass")
        for index in attempted:
            same = (
                record.tokens[index] == reference.tokens[index]
                and record.token_ticks[index] == reference.token_ticks[index]
                and record.outcomes[index] == reference.outcomes[index]
            )
            if not same:
                report.fail(index, f"nondeterministic in pass {number}")

    for index in spec.oracle_sample:
        request = spec.requests[index]
        fmt = request.params.kv_format or spec.kv_format
        expected = generate(
            model,
            request.prompt,
            params=request.params,
            cache_factory=fmt.cache_factory(model),
        ).continuation()
        if expected.tolist() != reference.tokens[index]:
            report.fail(index, "tokens differ from sequential generate")

    for number, record in enumerate([reference, *passes]):
        if record.leaked_blocks:
            report.problems.append(
                f"pass {number} leaked {record.leaked_blocks} blocks"
            )

    if validity:
        report.problems.extend(_validity_problems(spec, reference))
    return report


def _validity_problems(spec: WorkloadSpec, record: PassRecord) -> list[str]:
    assert record.metrics is not None
    metrics = record.metrics
    hits = prefix_hit_share(record)
    labels = {label for label, _ in metrics.kv_format_bytes}
    problems: list[str] = []
    if spec.name == "churn_mixed":
        if metrics.preemptions < 1:
            problems.append("churn_mixed must preempt at least once")
        if metrics.evicted_blocks < 1:
            problems.append("churn_mixed must evict prefix-cache blocks")
        if labels != {"fp16", "anda8"}:
            problems.append(f"churn_mixed must mix fp16 and anda8: {sorted(labels)}")
    elif metrics.preemptions:
        problems.append(f"{spec.name} must not preempt, got {metrics.preemptions}")
    if spec.name == "prefill_anda" and hits != 0.0:
        problems.append(f"prefill_anda must have no prefix hits, got {hits:.3f}")
    if spec.name == "shared_prefix_anda" and hits <= 0.8:
        problems.append(f"shared_prefix_anda prefix hit share {hits:.3f} <= 0.8")
    if spec.name == "decode_fp16" and labels != {"fp16"}:
        problems.append(f"decode_fp16 moved non-fp16 KV bytes: {sorted(labels)}")
    return problems
