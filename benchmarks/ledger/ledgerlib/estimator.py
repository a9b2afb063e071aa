"""From per-pass tick times to numbers that repeat.

Raw seconds on a shared two-core VM differ by 13-100 % between
identical runs.  Two steps remove most of that:

1. **cu normalisation** — each tick's seconds are divided by the mean
   of the two calibration-kernel timings that bracket its group of
   ``cal_every`` ticks (``calibrate.py``), so a tick is expressed in
   units of "what this machine could do at that moment".
2. **robust timeline** — the passes of a workload execute identical
   step plans, so tick *i* of every pass did the same work; the
   timeline keeps, per tick index, the median of its normalised time
   across passes.  A stall that hits one pass at one tick vanishes.

Every latency and throughput metric is then read off the robust
timeline with prefix sums: a request's TTFT is the sum of robust ticks
from its due tick through the tick that delivered its first token.
What this excludes by construction: anything that does not repeat at
the same tick in most passes (hypervisor steal, page-cache misses, GC
pauses triggered by unrelated garbage).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def normalised_ticks(
    tick_seconds: Sequence[float], cal_seconds: Sequence[float], cal_every: int
) -> np.ndarray:
    """One pass's tick times in cu."""
    ticks = np.asarray(tick_seconds, dtype=np.float64)
    cals = np.asarray(cal_seconds, dtype=np.float64)
    groups = -(-len(ticks) // cal_every)
    if len(cals) != groups + 1:
        raise ValueError(
            f"{len(ticks)} ticks at cal_every={cal_every} need {groups + 1} "
            f"calibrations, got {len(cals)}"
        )
    bracket = 0.5 * (cals[:-1] + cals[1:])
    return ticks / bracket[np.arange(len(ticks)) // cal_every]


def robust_timeline(passes: Sequence[np.ndarray]) -> np.ndarray:
    """Per tick index, the median across passes (all the same length)."""
    lengths = {len(p) for p in passes}
    if len(lengths) != 1:
        raise ValueError(f"passes disagree on tick count: {sorted(lengths)}")
    return np.median(np.stack(passes), axis=0)


def latency_metrics(
    timeline: np.ndarray,
    due_ticks: Sequence[int],
    token_ticks: Sequence[Sequence[int]],
    work_tokens: Sequence[int],
    finished: Sequence[bool],
) -> dict[str, float]:
    """End-to-end metrics (and their sample counts) off one timeline.

    Args:
        timeline: time of each tick (cu for the robust timeline,
            seconds for the raw informational fields).
        due_ticks: per request, the tick it was due.
        token_ticks: per request, the tick that delivered each token.
        work_tokens: per request, prompt + generated tokens.
        finished: per request, whether it ran to completion; the rest
            (planned aborts, failures) contribute no latency sample.
    """
    cumulative = np.concatenate([[0.0], np.cumsum(timeline)])
    ttfts: list[float] = []
    latencies: list[float] = []
    gaps: list[float] = []
    tokens = 0
    for due, ticks, work, done in zip(due_ticks, token_ticks, work_tokens, finished):
        if not done or not ticks:
            continue
        ends = cumulative[np.asarray(ticks) + 1]
        ttfts.append(float(ends[0] - cumulative[due]))
        latencies.append(float(ends[-1] - cumulative[due]))
        gaps.extend(np.diff(ends).tolist())
        tokens += work
    if not ttfts or not gaps:
        raise ValueError("no finished request with at least two tokens")
    return {
        "tok_per": tokens / float(cumulative[-1]),
        "ttft_p50": float(np.median(ttfts)),
        "latency_p50": float(np.median(latencies)),
        "itl_p50": float(np.median(gaps)),
        "itl_p99": float(np.quantile(gaps, 0.99)),
        "requests_n": len(ttfts),
        "gaps_n": len(gaps),
        "total": float(cumulative[-1]),
    }
