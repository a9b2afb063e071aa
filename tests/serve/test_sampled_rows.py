"""The chunk lane computes logits only for the rows a caller samples.

Every layer but the last runs over every chunk position; the last lands
every position's K/V, then runs attention, O, the FFN, the final norm
and the LM head only for the sampled rows, one decode-shaped row each.
These tests pin what that split must keep: the caches are the same
bytes whatever is sampled, a sampled row's logits do not depend on
which other rows are sampled, a partial prompt chunk computes no
logits, and the engine's first token for a prompt that rides the lane
alone is the one ``generate()`` computes.
"""

import numpy as np
import pytest

import repro.llm.generation as generation_module
import repro.serve.engine as engine_module
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.kv_quant import KVFormat
from repro.llm.transformer import build_model
from repro.serve import Engine, EngineConfig, SamplingParams
from repro.serve.kvpool.pool import KVPool

FAMILIES = ["opt", "llama"]
FORMATS = {"fp16": KVFormat.fp16(), "anda": KVFormat.anda(8)}


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def make_model(family: str):
    return build_model(tiny_test_config(family=family, n_layers=3, seed=23))


class _CacheSets:
    """Fresh per-layer cache sets of one format, paged or unpaged."""

    def __init__(self, model, storage: str, fmt: KVFormat) -> None:
        self.model, self.storage, self.fmt = model, storage, fmt
        self.pool = KVPool(
            model.config,
            num_blocks=64,
            block_size=4,
            codec=fmt.codec(),
            enable_prefix_cache=False,
        )
        self.sequences = []

    def new(self):
        if self.storage == "unpaged":
            return self.fmt.cache_factory(self.model)()
        self.sequences.append(self.pool.create_sequence(np.array([1]), reserved=48))
        return self.sequences[-1].caches


def _stored(caches_set, caches) -> list[np.ndarray]:
    """Every layer's decode-ready history, plus the pool bytes if paged."""
    arrays = [array for cache in caches for array in cache.view()]
    for sequence in caches_set.sequences:
        if sequence.caches is caches:
            image = sequence.swap_out()
            arrays += [image.keys, image.values]
    return arrays


class TestSampledRows:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("storage", ["unpaged", "paged"])
    @pytest.mark.parametrize("mode", list(FORMATS))
    def test_caches_match_an_all_rows_pass(self, family, storage, mode):
        # Two co-riding chunks, one of them continuing a cached prefix:
        # whether the last layer samples every row, one or none, every
        # position's K/V lands as the same bytes, and the next decode
        # row reads them to the same logits.
        model = make_model(family)
        rng = np.random.default_rng(5)
        prefix, first, second = (rng.integers(0, 255, size=n) for n in (6, 9, 5))
        runs = {}
        for sampled in (None, [1, 0], [0, 0], [9, 5]):
            sets = _CacheSets(model, storage, FORMATS[mode])
            left, right = sets.new(), sets.new()
            model.forward_mixed_step([prefix], [left])
            model.forward_mixed_step(
                [first, second], [left, right], sample_rows=sampled
            )
            decode = model.forward_decode_batch(np.array([[3], [4]]), [left, right])
            runs[str(sampled)] = (
                decode,
                _stored(sets, left) + _stored(sets, right),
            )
        reference_decode, reference_stored = runs.pop("None")
        for decode, stored in runs.values():
            assert bitwise_equal(decode, reference_decode)
            assert len(stored) == len(reference_stored)
            assert all(map(bitwise_equal, stored, reference_stored))

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("mode", list(FORMATS))
    def test_sampled_rows_equal_those_rows_of_an_all_rows_pass(self, family, mode):
        # Every trailing count of the middle segment, beside co-riding
        # segments that sample none, one or all of their rows.
        model = make_model(family)
        factory = FORMATS[mode].cache_factory(model)
        rng = np.random.default_rng(9)
        groups = [rng.integers(0, 255, size=n) for n in (4, 7, 3)]
        full, _ = model.forward_mixed_step(groups, [factory() for _ in groups])
        vocab = model.config.vocab_size
        for count in range(8):
            for others in (0, 1, 3):
                sampled = [min(others, 4), count, min(others, 3)]
                got, _ = model.forward_mixed_step(
                    groups, [factory() for _ in groups], sample_rows=sampled
                )
                for logits, every, n in zip(got, full, sampled):
                    assert logits.shape == (n, vocab)
                    assert bitwise_equal(logits, every[len(every) - n :])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_lone_row_equals_that_row_of_every_row(self, family):
        # The last block's query side, one arbitrary flat row at a time:
        # a row's output depends only on that row.
        model = make_model(family)
        last = model.blocks[-1]
        rng = np.random.default_rng(13)
        lengths = [5, 4]
        hidden = rng.normal(size=(sum(lengths), model.config.d_model))
        hidden = hidden.astype(np.float32)

        def last_layer(rows):
            caches = [model.new_cache()[-1] for _ in lengths]
            return last.step([None, hidden], [None, caches], lengths, rows)[1]

        every = last_layer(np.arange(sum(lengths)))
        assert every.shape == (sum(lengths), 1, model.config.d_model)
        for row in range(sum(lengths)):
            assert bitwise_equal(last_layer(np.array([row])), every[row : row + 1])

    def test_partial_chunks_return_zero_rows(self, monkeypatch):
        # Under a small budget, a long prompt prefills in partial chunks
        # that sample nothing; its completing chunk samples one row.
        model = make_model("llama")
        calls = []
        mixed_step = model.forward_mixed_step

        def recording(*args, **kwargs):
            chunk_logits, decode_logits = mixed_step(*args, **kwargs)
            calls.append(
                (kwargs["sample_rows"], [len(logits) for logits in chunk_logits])
            )
            return chunk_logits, decode_logits

        monkeypatch.setattr(model, "forward_mixed_step", recording)
        rng = np.random.default_rng(17)
        prompts = [rng.integers(0, 255, size=n) for n in (21, 6, 13)]
        engine = Engine(model, EngineConfig(max_batch_tokens=8))
        handles = [
            engine.submit(prompt, SamplingParams(max_new_tokens=3))
            for prompt in prompts
        ]
        while engine.has_work():
            engine.step()
        sampled = [count for counts, _ in calls for count in counts]
        assert all(counts == rows for counts, rows in calls)
        assert sampled.count(1) == len(prompts)
        assert sampled.count(0) > 0 and set(sampled) == {0, 1}
        for handle, prompt in zip(handles, prompts):
            expected = generate(model, prompt, 3)
            np.testing.assert_array_equal(handle.result().tokens, expected.tokens)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("mode", list(FORMATS))
    def test_lone_chunk_first_token_logits_match_generate(
        self, monkeypatch, family, mode
    ):
        # A prompt that rides the chunk lane alone, in one chunk: the
        # engine samples its last row exactly as generate() does.
        model = make_model(family)
        prompt = np.random.default_rng(19).integers(0, 255, size=11)
        seen = {"engine": [], "generate": []}

        def recorder(name, select):
            def record(logits, *args, **kwargs):
                seen[name].append(np.array(logits))
                return select(logits, *args, **kwargs)

            return record

        monkeypatch.setattr(
            engine_module,
            "select_next_token",
            recorder("engine", engine_module.select_next_token),
        )
        monkeypatch.setattr(
            generation_module,
            "select_next_token",
            recorder("generate", generation_module.select_next_token),
        )
        fmt = FORMATS[mode]
        engine = Engine(model, EngineConfig(max_batch_tokens=64, kv_format=fmt))
        handle = engine.submit(prompt, SamplingParams(max_new_tokens=4))
        while engine.has_work():
            engine.step()
        expected = generate(model, prompt, 4, cache_factory=fmt.cache_factory(model))
        np.testing.assert_array_equal(handle.result().tokens, expected.tokens)
        assert len(seen["engine"]) == len(seen["generate"]) == 4
        for served, sequential in zip(seen["engine"], seen["generate"]):
            assert bitwise_equal(served, sequential)
