"""Microbenchmark: the batched decode lane on paged sequences.

Not a paper figure — times ``CausalLM.forward_decode_batch`` over
paged KV histories in the two shapes the serving ledger's decode
workloads stress, on a model shaped like the ledger's (LLaMA family, 4
layers, d_model 256, 4 heads of 64, block size 16):

* batch 16 at lengths 24–160, fp16 KV (``decode_fp16``'s steady state);
* batch 8 at lengths 547–554, anda(8) KV (long shared-prefix decode);
* batch 1 at length 64, and batches 5 and 7 at lengths 24–160, fp16
  KV — the batches that end on the projections' zero-padded
  ``ROW_TILE``-row tail (``repro.llm.layers.Linear.step``): batch 1 is
  one padded 2-row tile, batch 5 one 4-row tile and a padded 2-row
  one, batch 7 one 4-row tile, a full 2-row tile and a padded one.
  Batches 8 and 16 run 4-row tiles only.

Each case first checks its batched logits, pool bytes and residency
bitwise against the per-row path (each row decoded alone, a
``forward_decode_batch`` batch of one as sequential ``generate``
decodes: one ``append`` and one ``_attention_core`` launch per row) on
a twin pool, then times the
batched step with every history rolled back between rounds.  Run with::

    python -m pytest benchmarks/bench_decode_lane.py --benchmark-only -q
"""

import numpy as np
import pytest

from repro.llm.config import ModelConfig
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import KVPool

CONFIG = ModelConfig(
    name="bench-decode-lane",
    family="llama",
    n_layers=4,
    d_model=256,
    n_heads=4,
    ffn_dim=768,
    vocab_size=256,
    max_seq_len=1024,
    seed=7,
)
BLOCK_SIZE = 16

CASES = {
    "b16_len24-160_fp16": (np.linspace(24, 160, 16).astype(int), KVFormat.fp16()),
    "b8_len550_anda8": (547 + np.arange(8), KVFormat.anda(8)),
    "b1_len64_fp16": (np.array([64]), KVFormat.fp16()),
    "b5_len24-160_fp16": (np.linspace(24, 160, 5).astype(int), KVFormat.fp16()),
    "b7_len24-160_fp16": (np.linspace(24, 160, 7).astype(int), KVFormat.fp16()),
}


@pytest.fixture(scope="module")
def model():
    return build_model(CONFIG)


def prefilled(model, lengths, fmt):
    """A pool holding one sequence per length, each filled with random K/V."""
    rng = np.random.default_rng(11)
    pool = KVPool(CONFIG, 64 * len(lengths), BLOCK_SIZE, codec=fmt.codec())
    shape = (1, CONFIG.n_heads, 0, CONFIG.head_dim)
    sequences = []
    for length in lengths:
        sequence = pool.create_sequence(np.arange(length) % 251, reserved=length + 8)
        rows = (*shape[:2], int(length), shape[3])
        for cache in sequence.caches:
            cache.append(
                rng.standard_normal(rows).astype(np.float32),
                rng.standard_normal(rows).astype(np.float32),
            )
        sequences.append(sequence)
    return pool, sequences


def assert_matches_per_row(model, lengths, fmt, tokens):
    pool_a, batched = prefilled(model, lengths, fmt)
    pool_b, per_row = prefilled(model, lengths, fmt)
    logits = model.forward_decode_batch(tokens, [s.caches for s in batched])
    for index, sequence in enumerate(per_row):
        row = model.forward_decode_batch(tokens[index : index + 1], [sequence.caches])
        assert logits[index].tobytes() == row[0].tobytes()
    for left, right in zip(batched, per_row):
        for layer in range(CONFIG.n_layers):
            for ours, reference in zip(
                left.caches[layer].view(), right.caches[layer].view()
            ):
                assert ours.tobytes() == reference.tobytes()
            assert np.array_equal(
                pool_a.keys[layer, left.block_table].view(np.uint16),
                pool_b.keys[layer, right.block_table].view(np.uint16),
            )


@pytest.mark.parametrize("case", list(CASES))
def test_forward_decode_batch(benchmark, model, case):
    lengths, fmt = CASES[case]
    tokens = np.random.default_rng(3).integers(0, 256, size=(len(lengths), 1))
    assert_matches_per_row(model, lengths, fmt, tokens)
    _, sequences = prefilled(model, lengths, fmt)
    request_caches = [sequence.caches for sequence in sequences]

    def reset():
        for sequence, length in zip(sequences, lengths):
            sequence.rollback(int(length))

    benchmark.pedantic(
        model.forward_decode_batch,
        args=(tokens, request_caches),
        setup=reset,
        rounds=60,
        warmup_rounds=3,
    )
