"""Cross-engine counter isolation (the telemetry-subsystem bleed fix).

Before engine-scoped stats, every engine funnelled its hot-path
accounting through the module globals ``HOT_PATH_STATS`` /
``ATTENTION_STATS`` in :mod:`repro.llm.attention` — two engines in one
process double-counted each other's KV bytes and attention dispatches,
and their per-step reports were garbage whenever steps interleaved.
Engines now install a private :class:`StatScope` around each step via
a contextvar, so:

* engine runs leave the module globals untouched (those remain the
  default sink for *direct* model calls only);
* two engines — back-to-back, step-interleaved, or on two threads —
  each report exactly the counters a solo run of their workload
  produces.

The compared fields are the deterministic ones (byte counts, dispatch
counts, token counts); wall-clock fields are excluded.
"""

import threading

import numpy as np
import pytest

from repro.llm.attention import ATTENTION_STATS, HOT_PATH_STATS
from repro.llm.config import tiny_test_config
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import LLM, Engine, EngineConfig, SamplingParams

#: EngineMetrics fields that are exact (no wall-clock noise) and must
#: match a solo run of the same workload regardless of engine company.
DETERMINISTIC_FIELDS = (
    "steps",
    "total_new_tokens",
    "prefill_tokens",
    "partial_prefills",
    "preemptions",
    "kv_copy_bytes",
    "kv_dequant_bytes",
    "attention_dispatches",
    "aborted",
)


@pytest.fixture(scope="module")
def model():
    return build_model(tiny_test_config("opt", d_model=32, n_layers=2))


def workload(model, seed, count=3):
    rng = np.random.default_rng(seed)
    vocab = model.config.vocab_size
    return [rng.integers(0, vocab, size=5 + (index % 3)) for index in range(count)]


def fingerprint(engine):
    metrics = engine.metrics()
    values = {field: getattr(metrics, field) for field in DETERMINISTIC_FIELDS}
    values["traffic_bytes"] = metrics.traffic.total_bytes
    values["finished"] = len(metrics.requests)
    return values


def run_solo(model, seed, fmt=None):
    """Reference fingerprint: one engine alone in the process."""
    engine = Engine(model, EngineConfig(max_batch_size=4, kv_format=fmt))
    llm = LLM(engine=engine)
    llm.generate(workload(model, seed), SamplingParams(max_new_tokens=5))
    return fingerprint(engine)


def globals_snapshot():
    return HOT_PATH_STATS.snapshot() + ATTENTION_STATS.snapshot()


def test_engine_runs_leave_module_globals_untouched(model):
    before = globals_snapshot()
    llm = LLM(model=model, config=EngineConfig(max_batch_size=4))
    llm.generate(workload(model, seed=1), SamplingParams(max_new_tokens=5))
    assert globals_snapshot() == before


def test_direct_model_calls_still_hit_module_globals(model):
    # The default scope is the backwards-compatible sink: sequential
    # generation outside any engine must keep counting globally.
    from repro.llm.generation import generate

    before = ATTENTION_STATS.snapshot()
    generate(model, workload(model, seed=2)[0], max_new_tokens=3)
    assert ATTENTION_STATS.snapshot() != before


def test_back_to_back_engines_match_solo_baselines(model):
    solo_a = run_solo(model, seed=7)
    solo_b = run_solo(model, seed=8)

    engine_a = Engine(model, EngineConfig(max_batch_size=4))
    engine_b = Engine(model, EngineConfig(max_batch_size=4))
    LLM(engine=engine_a).generate(
        workload(model, seed=7), SamplingParams(max_new_tokens=5)
    )
    LLM(engine=engine_b).generate(
        workload(model, seed=8), SamplingParams(max_new_tokens=5)
    )
    assert fingerprint(engine_a) == solo_a
    assert fingerprint(engine_b) == solo_b


def test_interleaved_engine_steps_stay_isolated(model):
    solo_a = run_solo(model, seed=7)
    solo_b = run_solo(model, seed=8)

    engine_a = Engine(model, EngineConfig(max_batch_size=4))
    engine_b = Engine(model, EngineConfig(max_batch_size=4))
    for prompt in workload(model, seed=7):
        engine_a.submit(prompt, SamplingParams(max_new_tokens=5))
    for prompt in workload(model, seed=8):
        engine_b.submit(prompt, SamplingParams(max_new_tokens=5))
    # Strict alternation: every step of A runs between two steps of B,
    # the exact pattern that scrambled global counters.
    while engine_a.has_work() or engine_b.has_work():
        if engine_a.has_work():
            engine_a.step()
        if engine_b.has_work():
            engine_b.step()
    assert fingerprint(engine_a) == solo_a
    assert fingerprint(engine_b) == solo_b


def test_interleaved_engines_with_different_kv_modes(model):
    # Different KV formats produce different byte traffic; interleaving
    # must not blend the two accounting streams.
    solo_a = run_solo(model, seed=7, fmt=KVFormat.fp16())
    solo_b = run_solo(model, seed=7, fmt=KVFormat.anda(8))

    engine_a = Engine(model, EngineConfig(max_batch_size=4, kv_format=KVFormat.fp16()))
    engine_b = Engine(model, EngineConfig(max_batch_size=4, kv_format=KVFormat.anda(8)))
    for prompt in workload(model, seed=7):
        engine_a.submit(prompt, SamplingParams(max_new_tokens=5))
        engine_b.submit(prompt.copy(), SamplingParams(max_new_tokens=5))
    while engine_a.has_work() or engine_b.has_work():
        if engine_a.has_work():
            engine_a.step()
        if engine_b.has_work():
            engine_b.step()
    assert fingerprint(engine_a) == solo_a
    assert fingerprint(engine_b) == solo_b
    assert solo_a["traffic_bytes"] != solo_b["traffic_bytes"]


def test_threaded_engines_stay_isolated(model):
    # Contextvars are thread-local, so two engines stepping
    # concurrently on two threads must not cross-count either.
    solo_a = run_solo(model, seed=7)
    solo_b = run_solo(model, seed=8)

    engines = {
        "a": Engine(model, EngineConfig(max_batch_size=4)),
        "b": Engine(model, EngineConfig(max_batch_size=4)),
    }
    errors = []

    def drive(name, seed):
        try:
            LLM(engine=engines[name]).generate(
                workload(model, seed), SamplingParams(max_new_tokens=5)
            )
        except Exception as error:  # pragma: no cover - surfaced below
            errors.append(error)

    threads = [
        threading.Thread(target=drive, args=("a", 7)),
        threading.Thread(target=drive, args=("b", 8)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert fingerprint(engines["a"]) == solo_a
    assert fingerprint(engines["b"]) == solo_b


def test_telemetry_expositions_are_per_engine(model):
    engine_a = Engine(model, EngineConfig(max_batch_size=4))
    engine_b = Engine(model, EngineConfig(max_batch_size=4))
    assert engine_a.telemetry.engine_label != engine_b.telemetry.engine_label
    idle_b = engine_b.telemetry.prometheus()

    LLM(engine=engine_a).generate(
        workload(model, seed=7), SamplingParams(max_new_tokens=5)
    )
    exposition_a = engine_a.telemetry.prometheus()
    exposition_b = engine_b.telemetry.prometheus()
    # Engine A's traffic leaves engine B's exposition byte-identical.
    assert exposition_b == idle_b
    assert exposition_a != exposition_b
    assert f'engine="{engine_a.telemetry.engine_label}"' in exposition_a
    assert f'engine="{engine_a.telemetry.engine_label}"' not in exposition_b
    # The idle engine's counters are all zero; the active one's step
    # counter advanced.
    label_b = engine_b.telemetry.engine_label
    assert f'repro_engine_steps_total{{engine="{label_b}"}} 0.0' in exposition_b
