"""One workload in one process: passes, checks, metrics.

``run.py`` starts this module's :func:`serve` (or :func:`setup_probe`)
in a child process whose BLAS thread pins are already in the
environment; nothing here reads the environment.
"""

from __future__ import annotations

import gc
import json
import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.serve import validate_chrome_trace

from ledgerlib import schema, spans
from ledgerlib.calibrate import Calibrator
from ledgerlib.checks import check_outputs
from ledgerlib.driver import PassRecord, run_pass
from ledgerlib.estimator import latency_metrics, normalised_ticks, robust_timeline
from ledgerlib.layers import count_metrics, share_metrics
from ledgerlib.probes import CALLS, run_probes
from ledgerlib.workloads import WorkloadSpec, bench_model, build_workload

MIN_PASSES = 3
MAX_PASSES = 9


@dataclass(frozen=True)
class ChildArgs:
    workload: str
    seed: int
    seconds: float
    spawned_at: float
    traced: bool = False
    probes: bool = False
    trace_out: str | None = None
    smoke: bool = False
    min_passes: int = MIN_PASSES


def setup_probe(args: ChildArgs) -> dict:
    """A cold process's time from spawn to its first delivered token."""
    model = bench_model()
    spec = build_workload(args.workload, args.seed, smoke=args.smoke)
    record = run_pass(model, spec, Calibrator(), until_first_token=True)
    return {"setup_s": record.first_token_at - args.spawned_at}


def _entry(value: float, unit: str, samples: int | None = None) -> dict:
    entry: dict = {"value": float(value), "unit": unit}
    if samples is not None:
        entry["samples"] = samples
    return entry


def _timeline_inputs(spec: WorkloadSpec, record: PassRecord) -> tuple:
    return (
        [request.due_tick for request in spec.requests],
        record.token_ticks,
        [len(r.prompt) + len(t) for r, t in zip(spec.requests, record.tokens)],
        [outcome == "finished" for outcome in record.outcomes],
    )


def serve(args: ChildArgs) -> dict:
    """Warm up, measure, check; returns the child's result object."""
    model = bench_model()
    spec = build_workload(args.workload, args.seed, smoke=args.smoke)
    calibrate = Calibrator()

    warm = run_pass(model, spec, calibrate)
    setup_s = warm.first_token_at - args.spawned_at

    passes: list[PassRecord] = []
    measuring_from = time.perf_counter()
    while len(passes) < MAX_PASSES and (
        len(passes) < args.min_passes
        or time.perf_counter() - measuring_from < args.seconds
    ):
        # A finished engine is a reference cycle; collecting it here lets
        # the next pass reuse its pages instead of faulting in fresh ones
        # (25 ms per huge page on this VM, inside tick 0).
        gc.collect()
        passes.append(run_pass(model, spec, calibrate))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = check_outputs(model, spec, warm, passes, validity=not args.smoke)
    normalised = [
        normalised_ticks(record.tick_seconds, record.cal_seconds, spec.cal_every)
        for record in passes
    ]
    # Raises when passes disagree on tick count: without identical plans
    # there is no tick-by-tick median, and nothing truthful to report.
    timeline = robust_timeline(normalised)
    inputs = _timeline_inputs(spec, warm)
    robust = latency_metrics(timeline, *inputs)
    raw = latency_metrics(
        np.median(np.stack([record.tick_seconds for record in passes]), axis=0), *inputs
    )

    values = {
        "setup_s": setup_s,
        "tok_per_cu": robust["tok_per"],
        "ttft_p50_cu": robust["ttft_p50"],
        "latency_p50_cu": robust["latency_p50"],
        "itl_p50_cu": robust["itl_p50"],
        "itl_p99_cu": robust["itl_p99"],
        "peak_rss_mb": peak_rss_mb,
        "failed_share": report.failed_share,
    }
    samples = {
        "ttft_p50_cu": robust["requests_n"],
        "latency_p50_cu": robust["requests_n"],
        "itl_p50_cu": robust["gaps_n"],
        "itl_p99_cu": robust["gaps_n"],
    }
    end_to_end = {
        metric.name: _entry(values[metric.name], metric.unit, samples.get(metric.name))
        for metric in (*schema.END_TO_END, schema.FAILED_SHARE)
    }

    cal_all = np.concatenate([record.cal_seconds for record in passes])
    tick_all = sum(sum(record.tick_seconds) for record in passes)
    warm_cu = normalised_ticks(warm.tick_seconds, warm.cal_seconds, spec.cal_every)
    info = {
        "passes": len(passes),
        "cal_every": spec.cal_every,
        "tok_s_raw": raw["tok_per"],
        "itl_p50_ms_raw": raw["itl_p50"] * 1e3,
        "itl_p99_ms_raw": raw["itl_p99"] * 1e3,
        "cu_ms": float(np.median(cal_all)) * 1e3,
        "cal_share": float(cal_all.sum() / (cal_all.sum() + tick_all)),
        "pass_cu": robust["total"],
        "warmup_excess_cu": float(warm_cu.sum()) - robust["total"],
    }

    layer_values = count_metrics(spec, warm)
    layer_values["serve.engine.build_ms"] = (
        float(np.median([record.build_seconds for record in passes])) * 1e3
    )
    layer_values["serve.engine.first_tick_share"] = float(timeline[0] / timeline.sum())

    if args.traced:
        gc.collect()
        recorder = spans.SpanRecorder()
        with spans.installed(recorder):
            traced = run_pass(model, spec, calibrate, trace=True)
        if traced.fingerprint() != warm.fingerprint():
            report.problems.append("traced pass differs from the warm-up pass")
        assert traced.tracer is not None
        engine_spans, instants = spans.tracer_spans(traced.tracer)
        ordered, clamped = spans.build_tree(recorder.spans() + engine_spans)
        attribution = spans.attribute(ordered)
        shares = share_metrics(attribution, traced)
        traced_cu = normalised_ticks(
            traced.tick_seconds, traced.cal_seconds, spec.cal_every
        )
        shares["serve.telemetry.trace_overhead_share"] = (
            float(traced_cu.sum()) / robust["total"] - 1.0
        )
        layer_values.update(shares)
        info["share_sum"] = attribution.share_sum()
        info["spans"] = len(ordered)
        info["clamped_spans"] = clamped
        if abs(attribution.share_sum() - 1.0) > 1e-3 or clamped:
            report.problems.append(
                f"self shares sum to {attribution.share_sum():.6f} "
                f"({clamped} spans clamped)"
            )
        if spec.name == "decode_fp16" and shares["core.anda.encode_calls"]:
            report.problems.append("decode_fp16 called the Anda encoder")
        trace = spans.chrome_trace(ordered, instants)
        trace_problems = validate_chrome_trace(trace)
        if trace_problems:
            report.problems.append(f"chrome trace invalid: {trace_problems[:3]}")
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(trace, handle)
                handle.write("\n")

    if args.probes:
        gc.collect()
        probe_calls = 20 if args.smoke else CALLS
        layer_values.update(run_probes(model, calibrate, probe_calls))

    return {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "problems": report.problems,
        "end_to_end": end_to_end,
        "per_layer": {
            metric.name: _entry(layer_values[metric.name], metric.unit)
            for metric in schema.PER_LAYER
            if metric.name in layer_values
        },
        "info": info,
    }
