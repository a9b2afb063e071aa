"""A mixed step advances its decode rows and prompt chunks together.

``CausalLM.forward_mixed_step`` runs one layer loop over both row
kinds, and every projection runs the decode rows' tiles and then the
chunk's flat GeMM on the same weight.  Each GeMM keeps the shape and
the input it has without the other row kind, so only the order of the
calls changes: a mixed step must equal the decode-only call plus the
chunk-only call on clones of the same caches — logits and every
cache's stored rows, bitwise.  Covered for the gated (llama) and plain
(OPT) feed-forward, with and without an Anda activation quantizer,
sampling no, one and every chunk row.

Caches are cloned by building them twice from the same prefill (a
``copy.deepcopy`` of a :class:`~repro.llm.attention.KVCache` does not
keep its read-only views aliased to its buffers).
"""

import numpy as np
import pytest

from repro.core.precision import PrecisionCombination
from repro.llm.config import ModelConfig
from repro.llm.hooks import anda_quantizer
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model

#: Decode rows' prompt lengths and KV formats: rows at different
#: positions, and two compression keys in one batch.
DECODE_ROWS = ((5, "fp16"), (11, "anda"), (3, "fp16"))
#: Prompt chunks: (cached positions, chunk length).
CHUNKS = ((0, 6), (4, 3))


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


@pytest.fixture(scope="module", params=["llama", "opt"])
def model(request):
    # The serving ledger's block shape (head_dim 64, FFN 768): a down
    # projection with K = 768 is where GeMM height changes a row's
    # bits, so folding decode rows into the chunk's GeMM would show.
    return build_model(
        ModelConfig(
            name=f"lockstep-{request.param}",
            family=request.param,
            n_layers=2,
            d_model=128,
            n_heads=2,
            ffn_dim=768,
            vocab_size=256,
            max_seq_len=64,
            seed=5,
        )
    )


def step_inputs(model):
    """One step's prefilled caches and token ids, built afresh each call."""
    rng = np.random.default_rng(29)
    vocab = model.config.vocab_size
    formats = {"fp16": KVFormat.fp16(), "anda": KVFormat.anda(6)}

    def prefilled(length, mode):
        caches = formats[mode].cache_factory(model)()
        if length:
            model.forward_step(rng.integers(0, vocab, size=(1, length)), caches)
        return caches

    decode_caches = [prefilled(length, mode) for length, mode in DECODE_ROWS]
    chunk_caches = [prefilled(cached, "fp16") for cached, _ in CHUNKS]
    groups = [rng.integers(0, vocab, size=length) for _, length in CHUNKS]
    tokens = rng.integers(0, vocab, size=(len(DECODE_ROWS), 1))
    return groups, chunk_caches, tokens, decode_caches


def stored(request_caches):
    return [
        array for caches in request_caches for cache in caches for array in cache.view()
    ]


@pytest.mark.parametrize("quantized", [False, True], ids=["fp32-acts", "anda-acts"])
@pytest.mark.parametrize("sampled", ["none", "one", "all"])
def test_mixed_step_is_decode_call_plus_chunk_call(model, quantized, sampled):
    lengths = [length for _, length in CHUNKS]
    sample_rows = {"none": [0, 0], "one": [1, 1], "all": lengths}[sampled]
    model.set_quantizer(
        anda_quantizer(PrecisionCombination(5, 6, 4, 7)) if quantized else None
    )
    try:
        groups, chunk_caches, tokens, decode_caches = step_inputs(model)
        mixed_chunks, mixed_decodes = model.forward_mixed_step(
            groups, chunk_caches, tokens, decode_caches, sample_rows
        )
        groups, alone_chunk_caches, tokens, alone_decode_caches = step_inputs(model)
        alone_decodes = model.forward_decode_batch(tokens, alone_decode_caches)
        alone_chunks, no_decodes = model.forward_mixed_step(
            groups, alone_chunk_caches, sample_rows=sample_rows
        )
    finally:
        model.set_quantizer(None)
    assert no_decodes is None
    assert bitwise_equal(mixed_decodes, alone_decodes)
    assert [len(logits) for logits in mixed_chunks] == sample_rows
    for mixed, alone in zip(mixed_chunks, alone_chunks):
        assert bitwise_equal(mixed, alone)
    mixed_rows = stored(decode_caches + chunk_caches)
    alone_rows = stored(alone_decode_caches + alone_chunk_caches)
    assert len(mixed_rows) == len(alone_rows)
    for mixed, alone in zip(mixed_rows, alone_rows):
        assert bitwise_equal(mixed, alone)
