"""Layer probes: each layer's public entry point, timed without the engine.

A step-level regression says *that* something got slower; a probe says
*which layer*, because it runs that layer's function alone on inputs
shaped like the workload that stresses it.  Every probe makes at least
``CALLS`` calls, takes the median, and divides by the calibration
kernel's time around it, so probe results are in cu like everything
else (``encode_probe_melem_per_cu`` is a rate: million elements per
cu).  State a call mutates is reset outside the timed region.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.llm.attention import BucketedAttention, plan_buckets
from repro.llm.generation import select_next_token
from repro.llm.kv_quant import AndaKVCache, KVFormat
from repro.llm.transformer import CausalLM
from repro.serve import LLM, KVPool, SequenceKV, plan_step

from ledgerlib.workloads import KV_BLOCK_SIZE, build_workload

CALLS = 200
CONTEXT = 550
#: Mid-backlog in the frozen churn_mixed shape: 8 running, several waiting.
SNAPSHOT_TICK = 64


def _median_cu(
    calibrate: Callable[[], float],
    call: Callable[[], None],
    reset: Callable[[], None] | None = None,
    calls: int = CALLS,
) -> float:
    before = calibrate()
    samples = []
    for _ in range(calls):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
        if reset is not None:
            reset()
    after = calibrate()
    return float(np.median(samples)) / (0.5 * (before + after))


def _kv_rows(rng: np.random.Generator, model: CausalLM, positions: int) -> np.ndarray:
    config = model.config
    shape = (1, config.n_heads, positions, config.head_dim)
    return rng.standard_normal(shape).astype(np.float32)


def _filled_sequence(
    pool: KVPool, rng: np.random.Generator, model: CausalLM, positions: int
) -> SequenceKV:
    sequence = pool.create_sequence(np.arange(positions) % 251)
    for cache in sequence.caches:
        cache.append(_kv_rows(rng, model, positions), _kv_rows(rng, model, positions))
    return sequence


def plan_probe(model: CausalLM, calibrate: Callable[[], float], calls: int) -> float:
    """``plan_step`` on the queue ``churn_mixed`` holds at tick 64."""
    spec = build_workload("churn_mixed", 0)
    llm = LLM(model, spec.engine_config())
    engine = llm.engine
    for tick in range(SNAPSHOT_TICK + 1):
        for request in spec.requests:
            if request.due_tick == tick:
                llm.submit(request.prompt, request.params)
        if tick < SNAPSHOT_TICK:
            engine.step()
    config = engine.config

    # Private reads: the probe needs the scheduler's real input, and
    # only the engine holds RequestState objects.
    def call() -> None:
        plan_step(
            list(engine._waiting),
            engine._running,
            engine._policy,
            config.max_batch_size,
            config.max_batch_tokens,
            blocks=engine._pool.planner(engine._running),
            chunking=config.chunked_prefill,
        )

    return _median_cu(calibrate, call, calls=calls)


def run_probes(
    model: CausalLM, calibrate: Callable[[], float], calls: int = CALLS
) -> dict[str, float]:
    """All ``*_probe_*`` per-layer metrics."""
    rng = np.random.default_rng(11)
    config = model.config
    results: dict[str, float] = {}

    results["serve.scheduler.plan_probe_cu"] = plan_probe(model, calibrate, calls)

    # core.anda: one 128-token chunk of one layer, as step_mixed appends it.
    codec = AndaKVCache(8)
    chunk = _kv_rows(rng, model, 128)
    encode_cu = _median_cu(calibrate, lambda: codec.compress(chunk), calls=calls)
    results["core.anda.encode_probe_melem_per_cu"] = chunk.size / 1e6 / encode_cu

    # serve.kvpool: append one position at 550 and read the history back.
    pool = KVPool(config, 64, KV_BLOCK_SIZE, codec=KVFormat.anda(8).codec())
    sequence = _filled_sequence(pool, rng, model, CONTEXT - 1)
    cache = sequence.caches[0]
    k_row, v_row = _kv_rows(rng, model, 1), _kv_rows(rng, model, 1)
    results["serve.kvpool.gather_probe_cu"] = _median_cu(
        calibrate,
        lambda: cache.append_precompressed(k_row, v_row),
        reset=lambda: cache.truncate(CONTEXT - 1),
        calls=calls,
    )

    # llm.attention: one steady-state exact bucket, batch 8 x 550.
    pool = KVPool(config, 8 * 36, KV_BLOCK_SIZE)
    caches = [_filled_sequence(pool, rng, model, CONTEXT).caches[0] for _ in range(8)]
    views = [cache.view() for cache in caches]
    bucket = plan_buckets([CONTEXT] * 8).buckets[0]
    attention = model.blocks[0].attention
    dispatcher = BucketedAttention()
    q = rng.standard_normal((8, config.n_heads, 1, config.head_dim)).astype(np.float32)
    results["llm.attention.bucket_probe_cu"] = _median_cu(
        calibrate,
        lambda: dispatcher.run_bucket(attention, bucket, q, views, caches),
        calls=calls,
    )

    # llm.transformer, decode lane: batch 16 growing from decode_fp16 contexts.
    pool = KVPool(config, 320, KV_BLOCK_SIZE)
    lengths = np.linspace(24, 160, 16).astype(int)
    sequences = [_filled_sequence(pool, rng, model, int(n)) for n in lengths]
    request_caches = [sequence.caches for sequence in sequences]
    tokens = rng.integers(0, config.vocab_size, size=(16, 1))
    dispatcher = BucketedAttention()
    results["llm.transformer.decode_probe_cu"] = _median_cu(
        calibrate,
        lambda: model.forward_decode_batch(tokens, request_caches, dispatcher),
        calls=calls,
    )

    # llm.transformer, chunk lane: one 128-token chunk continuing at 256.
    pool = KVPool(config, 64, KV_BLOCK_SIZE, codec=KVFormat.anda(8).codec())
    sequence = _filled_sequence(pool, rng, model, 256)
    group = rng.integers(0, config.vocab_size, size=128)
    results["llm.transformer.chunk_probe_cu"] = _median_cu(
        calibrate,
        lambda: model.forward_mixed_step([group], [sequence.caches]),
        reset=lambda: sequence.rollback(256),
        calls=calls,
    )

    # llm.generation: top-k sampling of one vocab row.
    logits = rng.standard_normal(config.vocab_size).astype(np.float32)
    sampler = np.random.default_rng(5)
    results["llm.generation.sample_probe_cu"] = _median_cu(
        calibrate,
        lambda: select_next_token(logits, 0.8, 20, sampler),
        calls=calls,
    )
    return results
