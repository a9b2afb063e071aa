#!/usr/bin/env python3
"""Telemetry tour: observe a serving engine end to end.

The serving telemetry subsystem (``repro.serve.telemetry``) adds three
instruments to every engine, toured here over one mixed workload:

1. **step tracing** — ``TelemetryConfig(trace=True)`` records every
   phase of every engine step (schedule, chunked-prefill lane, decode
   batch, per-layer decode attention, KV codec, sampling) plus each
   request's lifecycle transitions (QUEUED -> PREFILLING -> RUNNING ->
   FINISHED / ABORTED) as spans and instants;
2. **Chrome trace export** — the recorded spans serialize to a
   trace-event JSON file; open it at https://ui.perfetto.dev (or
   ``chrome://tracing``) to see the engine timeline, one track per
   phase and per request;
3. **Prometheus export** — every ``EngineMetrics`` counter and gauge
   renders as a labelled time series in the text exposition format a
   scrape endpoint would serve.

The script exits non-zero if the trace fails schema validation or the
exposition lacks a series from ``ENGINE_COUNTER_FIELDS`` /
``ENGINE_GAUGE_FIELDS``.

The workload mixes the lifecycles the tracer distinguishes: a batch of
short prompts, one long prompt pushed through chunked prefill, and a
request aborted mid-flight.

Run:  python examples/telemetry_tour.py
(Uses the same cached sim model as ``examples/quickstart.py``.)
"""

from pathlib import Path

from repro.llm import ByteTokenizer
from repro.llm.zoo import get_model
from repro.serve import (
    LLM,
    EngineConfig,
    SamplingParams,
    TelemetryConfig,
    validate_chrome_trace,
)
from repro.serve.telemetry import ENGINE_COUNTER_FIELDS, ENGINE_GAUGE_FIELDS

TRACE_PATH = Path("telemetry_tour_trace.json")


def main() -> None:
    model = get_model("opt-125m-sim")  # trained once, then cached
    llm = LLM(
        model,
        EngineConfig(
            max_batch_size=8,
            max_batch_tokens=48,  # long prompts prefill in 48-token chunks
            telemetry=TelemetryConfig(trace=True),
        ),
    )
    tokenizer = ByteTokenizer()

    print("=== 1. A mixed workload, traced ===")
    short_prompts = [
        "the anda format",
        "variable-length groups",
        "bit-plane compression",
        "serving telemetry",
    ]
    handles = [
        llm.submit(tokenizer.encode(text), SamplingParams(max_new_tokens=16))
        for text in short_prompts
    ]
    # A long prompt: chunked prefill spreads it across steps, so its
    # track shows a PREFILLING phase before RUNNING.
    long_prompt = tokenizer.encode("anda " * 40)
    handles.append(llm.submit(long_prompt, SamplingParams(max_new_tokens=8)))
    # And one request we cancel mid-flight: its track ends in ABORTED.
    doomed = llm.submit(
        tokenizer.encode("a request we abort"), SamplingParams(max_new_tokens=200)
    )
    llm.engine.step()
    llm.engine.step()
    doomed.abort()
    llm.engine.run_until_idle()

    metrics = llm.metrics()
    print(
        f"served {len(metrics.requests)} requests (+{metrics.aborted} "
        f"aborted) in {metrics.steps} steps, "
        f"{metrics.attention_dispatches} attention dispatches"
    )

    print("\n=== 2. Chrome trace -> Perfetto ===")
    telemetry = llm.telemetry
    path = telemetry.write_trace(TRACE_PATH)
    payload = telemetry.chrome_trace()
    problems = validate_chrome_trace(payload)
    spans = sum(1 for event in payload["traceEvents"] if event["ph"] == "B")
    tracks = sum(
        1
        for event in payload["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
    )
    print(f"wrote {path} ({spans} spans on {tracks} tracks)")
    print(f"schema problems: {problems or 'none'}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")

    print("\n=== 3. Prometheus text exposition ===")
    # telemetry.prometheus() renders the engine's current metrics,
    # every series labelled engine=<label>.
    exposition = telemetry.prometheus()
    print(exposition, end="")
    sampled = {
        line.split("{", 1)[0]
        for line in exposition.splitlines()
        if not line.startswith("#")
    }
    missing = [
        name
        for _, name, _ in ENGINE_COUNTER_FIELDS + ENGINE_GAUGE_FIELDS
        if name not in sampled
    ]

    if problems:
        raise SystemExit(f"trace failed schema validation: {problems}")
    if missing:
        raise SystemExit(f"exposition lacks series: {', '.join(missing)}")


if __name__ == "__main__":
    main()
