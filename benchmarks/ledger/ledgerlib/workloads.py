"""The benchmark-owned model and the four seeded traffic mixes.

Every workload serves the same deterministic, untrained model through
the paged + chunked + grouped lane.  A workload is a list of requests
with *tick-indexed* arrivals and aborts (see ``driver.py``).

What the seed may move is limited by what the numbers can bear.  The
seed decides every token id and sampling seed.  On ``prefill_anda`` it
also moves each prompt length inside its own stratum
(:func:`stratified`); on ``decode_fp16`` and ``shared_prefix_anda`` it
shifts all lengths by one common offset, because *which* requests share
a KV length decides how many bucket workspaces exist, and per-request
jitter moved peak RSS by 9-30 % between seeds.  ``churn_mixed`` keeps
one frozen shape: under pool pressure FCFS head-of-line blocking is
bistable (lengths moved by a few tokens flip the median TTFT between
~15 and ~40 ticks), and a median that jumps with the seed cannot gate a
regression.  So counts change with the seed on three workloads and the
total work barely does on any.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.llm.config import ModelConfig
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import CausalLM, build_model
from repro.serve import EngineConfig, SamplingParams, TelemetryConfig

MODEL_CONFIG = ModelConfig(
    name="bench-llama",
    family="llama",
    n_layers=4,
    d_model=256,
    n_heads=4,
    ffn_dim=768,
    vocab_size=256,
    max_seq_len=1024,
    seed=7,
)

KV_BLOCK_SIZE = 16


def bench_model() -> CausalLM:
    """The untrained 4-layer model (head_dim 64 = the Anda group size)."""
    return build_model(MODEL_CONFIG)


@dataclass(frozen=True)
class RequestSpec:
    """One request of a workload, scheduled by tick index."""

    prompt: np.ndarray
    params: SamplingParams
    due_tick: int
    abort_tick: int | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    """Generated inputs plus the engine shape they are served on."""

    name: str
    requests: tuple[RequestSpec, ...]
    kv_format: KVFormat
    max_batch_size: int
    max_batch_tokens: int
    kv_pool_blocks: int
    #: Calibrate after every this many ticks.
    cal_every: int
    #: Request indices compared against sequential ``generate``.
    oracle_sample: tuple[int, ...]

    def engine_config(self, trace: bool = False) -> EngineConfig:
        return EngineConfig(
            max_batch_size=self.max_batch_size,
            max_batch_tokens=self.max_batch_tokens,
            policy="fcfs",
            chunked_prefill=True,
            kv_pool=True,
            kv_pool_blocks=self.kv_pool_blocks,
            kv_block_size=KV_BLOCK_SIZE,
            prefix_caching=True,
            grouped_attention=True,
            kv_format=self.kv_format,
            telemetry=TelemetryConfig(trace=trace),
        )


#: Request shapes.  ``--smoke`` swaps in the second table so the
#: harness tests run in seconds; the manifest always uses the first.
SHAPES: dict[str, dict[str, int]] = {
    "decode_fp16": {"requests": 16, "prompt_lo": 8, "prompt_hi": 32, "new": 160},
    "prefill_anda": {"requests": 12, "prompt_lo": 384, "prompt_hi": 640, "new": 8},
    "shared_prefix_anda": {
        "requests": 16,
        "system": 512,
        "tail_lo": 8,
        "tail_hi": 32,
        "new": 48,
    },
    "churn_mixed": {
        "requests": 32,
        "prompt_lo": 16,
        "prompt_hi": 512,
        "new_lo": 8,
        "new_hi": 96,
        "span": 160,
        "aborts": 3,
        "abort_lo": 4,
        "abort_hi": 20,
        "pool": 80,
    },
}
SMOKE_SHAPES: dict[str, dict[str, int]] = {
    "decode_fp16": {"requests": 4, "prompt_lo": 4, "prompt_hi": 8, "new": 6},
    "prefill_anda": {"requests": 3, "prompt_lo": 40, "prompt_hi": 64, "new": 2},
    "shared_prefix_anda": {
        "requests": 4,
        "system": 64,
        "tail_lo": 2,
        "tail_hi": 6,
        "new": 4,
    },
    "churn_mixed": {
        "requests": 8,
        "prompt_lo": 8,
        "prompt_hi": 64,
        "new_lo": 2,
        "new_hi": 12,
        "span": 16,
        "aborts": 1,
        "abort_lo": 1,
        "abort_hi": 2,
        "pool": 12,
    },
}


def stratified(
    rng: np.random.Generator,
    lo: int,
    hi: int,
    count: int,
    log: bool = False,
    stride: float = 0.6180339887,
) -> np.ndarray:
    """``count`` integers in ``[lo, hi]``: one per equal stratum, interleaved.

    The seed only moves each value inside its own stratum, and the
    strata are dealt to requests in a fixed low-discrepancy order
    (``stride`` picks the order, so two attributes of one workload can
    be decorrelated).  Both choices keep a workload's total work, and
    the order in which long and short requests meet the scheduler,
    steady across seeds: FCFS medians would otherwise swing with the
    shuffle rather than with the code under test.
    """
    edges = np.linspace(np.log(lo) if log else lo, np.log(hi) if log else hi, count + 1)
    draws = rng.uniform(edges[:-1], edges[1:])
    values = np.exp(draws) if log else draws
    values = np.clip(np.rint(values), lo, hi).astype(np.int64)
    order = np.argsort((np.arange(1, count + 1) * stride) % 1.0)
    return values[order]


def _tokens(rng: np.random.Generator, length: int) -> np.ndarray:
    return rng.integers(0, MODEL_CONFIG.vocab_size, size=int(length), dtype=np.int64)


def _oracle_sample(requests: list[RequestSpec]) -> tuple[int, ...]:
    """First, last and two middle non-aborted requests."""
    kept = [i for i, spec in enumerate(requests) if spec.abort_tick is None]
    picks = {kept[0], kept[len(kept) // 3], kept[2 * len(kept) // 3], kept[-1]}
    return tuple(sorted(picks))


def build_workload(name: str, seed: int, smoke: bool = False) -> WorkloadSpec:
    """Generate one workload's inputs from ``seed`` (same seed, same inputs)."""
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    index = list(SHAPES).index(name)
    rng = np.random.default_rng([seed, index])
    frozen = np.random.default_rng([0, index])
    shift = int(rng.integers(0, 4))
    count = shape["requests"]
    requests: list[RequestSpec] = []

    if name == "decode_fp16":
        lengths = shift + stratified(
            frozen, shape["prompt_lo"], shape["prompt_hi"] - 3, count
        )
        for i in range(count):
            # One arrival per tick, so medians do not hinge on tick 0.
            params = SamplingParams(max_new_tokens=shape["new"])
            requests.append(RequestSpec(_tokens(rng, lengths[i]), params, due_tick=i))
        engine = {
            "kv_format": KVFormat.fp16(),
            "max_batch_size": count,
            "max_batch_tokens": 512,
            "kv_pool_blocks": 256,
            "cal_every": 4,
        }
    elif name == "prefill_anda":
        lengths = stratified(rng, shape["prompt_lo"], shape["prompt_hi"], count)
        for i in range(count):
            params = SamplingParams(max_new_tokens=shape["new"])
            requests.append(RequestSpec(_tokens(rng, lengths[i]), params, due_tick=0))
        engine = {
            "kv_format": KVFormat.anda(8),
            "max_batch_size": 4,
            "max_batch_tokens": 128,
            "kv_pool_blocks": 512,
            "cal_every": 1,
        }
    elif name == "shared_prefix_anda":
        system = _tokens(rng, shape["system"] - shift)
        tails = stratified(frozen, shape["tail_lo"], shape["tail_hi"], count)
        for i in range(count):
            prompt = np.concatenate([system, _tokens(rng, tails[i])])
            params = SamplingParams(max_new_tokens=shape["new"])
            requests.append(RequestSpec(prompt, params, due_tick=0))
        engine = {
            "kv_format": KVFormat.anda(8),
            "max_batch_size": 8,
            "max_batch_tokens": 128,
            "kv_pool_blocks": 256,
            "cal_every": 2,
        }
    elif name == "churn_mixed":
        lengths = stratified(
            frozen, shape["prompt_lo"], shape["prompt_hi"], count, log=True
        )
        outputs = stratified(
            frozen, shape["new_lo"], shape["new_hi"], count, stride=0.4142135624
        )
        due = np.sort(stratified(frozen, 0, shape["span"] - 1, count))
        aborts = shape["aborts"]
        aborted = {(2 * k + 1) * count // (2 * aborts) for k in range(aborts)}
        for i in range(count):
            # Half the traffic overrides the engine's fp16 format and
            # half samples, so one batch mixes codecs and samplers.
            params = SamplingParams(
                max_new_tokens=int(outputs[i]),
                temperature=0.8 if i % 4 >= 2 else 0.0,
                top_k=20,
                seed=seed * 1000 + i,
                kv_format=KVFormat.anda(8) if i % 2 else None,
            )
            abort_tick = None
            if i in aborted:
                abort_tick = int(due[i]) + int(
                    frozen.integers(shape["abort_lo"], shape["abort_hi"])
                )
            requests.append(
                RequestSpec(_tokens(rng, lengths[i]), params, int(due[i]), abort_tick)
            )
        engine = {
            "kv_format": KVFormat.fp16(),
            "max_batch_size": 8,
            "max_batch_tokens": 128,
            "kv_pool_blocks": shape["pool"],
            "cal_every": 4,
        }
    else:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(SHAPES)}")

    return WorkloadSpec(
        name=name,
        requests=tuple(requests),
        oracle_sample=_oracle_sample(requests),
        **engine,
    )
