"""Tests for layers, attention, transformer blocks and the causal LM."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.precision import PrecisionCombination, TensorKind
from repro.errors import ModelError
from repro.llm.attention import KVCache, causal_mask
from repro.llm.autograd import Tensor, no_grad
from repro.llm.config import SIM_CONFIGS, ModelConfig, get_config, tiny_test_config
from repro.llm.hooks import ActivationStatsRecorder, anda_quantizer
from repro.llm.layers import (
    ROW_TILE,
    WIDE_TILE,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    RMSNorm,
    decode_tile,
)
from repro.llm.transformer import build_model


def tiny_model(family="opt", seed=0):
    return build_model(tiny_test_config(family=family, seed=seed))


def _linears(module):
    """Every :class:`Linear` reachable from ``module``, depth first."""
    for value in vars(module).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            if isinstance(item, Linear):
                yield item
            elif isinstance(item, Module):
                yield from _linears(item)


def _tile_contract_layers():
    """Every projection of a tiny OPT (biased) and tiny LLaMA, the
    bench-llama shapes (QKV 256->768, O 256->256, D 768->256) and the
    chunk-boundary model's FFN down projection (768->128)."""
    rng = np.random.default_rng(7)
    layers = [
        pytest.param(
            layer, id=f"tiny-{family}-{layer.in_features}x{layer.out_features}-{i}"
        )
        for family in ("opt", "llama")
        for i, layer in enumerate(_linears(tiny_model(family)))
    ]
    for k, n in ((256, 768), (256, 256), (768, 256), (768, 128)):
        layer = Linear(k, n, rng, bias=False)
        layers.append(pytest.param(layer, id=f"bench-{k}x{n}"))
    return layers


def _in_tree_configs():
    """Every model shape the repo builds: the zoo's sim twins, the tiny
    test configs, the serving ledger's bench-llama (also
    ``benchmarks/bench_decode_lane.py``), the chunk-boundary and
    lockstep models (d_model 128, FFN 768), the QAT test model and the
    QAT example's."""
    extras = [
        ("bench-llama", "llama", 256, 4, 768),
        ("chunk-boundary-llama", "llama", 128, 2, 768),
        ("lockstep-opt", "opt", 128, 2, 768),
        ("qat-micro", "opt", 48, 2, 96),
        ("qat-example", "opt", 64, 2, 128),
    ]
    return [
        *SIM_CONFIGS.values(),
        tiny_test_config("opt"),
        tiny_test_config("llama"),
        *(
            ModelConfig(name, family, 1, d_model, heads, ffn_dim)
            for name, family, d_model, heads, ffn_dim in extras
        ),
    ]


class TestLayers:
    def test_linear_shapes(self):
        rng = np.random.default_rng(0)
        layer = Linear(8, 3, rng)
        out = layer(Tensor(np.ones((2, 5, 8), np.float32)))
        assert out.shape == (2, 5, 3)

    def test_linear_no_bias(self):
        rng = np.random.default_rng(0)
        layer = Linear(4, 2, rng, bias=False)
        assert layer.bias is None

    def test_layernorm_normalizes(self):
        norm = LayerNorm(16)
        x = Tensor(np.random.default_rng(1).normal(3.0, 5.0, size=(4, 16)))
        out = norm(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_rmsnorm_scale(self):
        norm = RMSNorm(16)
        x = Tensor(np.random.default_rng(2).normal(0.0, 7.0, size=(4, 16)))
        out = norm(x).data
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-2)

    @pytest.mark.parametrize("kind", [LayerNorm, RMSNorm])
    @pytest.mark.parametrize("shape", [(1, 1, 32), (3, 7, 32), (16, 1, 256)])
    def test_ndarray_path_is_bitwise_the_autograd_path(self, kind, shape):
        """Serving norms skip autograd: ndarray in, identical bits out."""
        rng = np.random.default_rng(4)
        norm = kind(shape[-1])
        norm.gain.data[...] = rng.normal(1.0, 0.3, size=shape[-1])
        if kind is LayerNorm:
            norm.shift.data[...] = rng.normal(0.0, 0.3, size=shape[-1])
        x = rng.normal(0.5, 4.0, size=shape).astype(np.float32)
        with no_grad():
            expected = norm(Tensor(x)).data
        out = norm(x)
        assert isinstance(out, np.ndarray) and out.dtype == np.float32
        assert out.tobytes() == expected.tobytes()
        assert isinstance(norm(Tensor(x)), Tensor)

    @pytest.mark.parametrize("layer", _tile_contract_layers())
    def test_linear_step_row_bits_ignore_co_rows_and_position(self, layer):
        """The decode parity contract: a one-token row through
        ``Linear.step`` has the same bits alone (one padded
        ``ROW_TILE``-row tile) as at every position of every batch of
        1–11 rows, whatever its co-rows hold — in a ``WIDE_TILE``-row
        tile and in tails of 1, 2 and 3 rows.  A BLAS build whose
        fixed-M GEMM rows depend on their neighbours, or on a 2- against
        a 4-row height, fails here, before any engine parity suite."""
        rng = np.random.default_rng(layer.in_features * 31 + layer.out_features)
        if layer.bias is not None:
            layer.bias.data[...] = rng.normal(0.0, 0.5, size=layer.out_features)
        row = rng.normal(0.0, 1.0, size=(1, 1, layer.in_features)).astype(np.float32)
        alone = layer.step(row)
        assert alone.shape == (1, 1, layer.out_features)
        for batch in range(1, 12):
            for position in range(batch):
                scale = rng.uniform(0.01, 50.0)
                rows = rng.normal(0.0, scale, size=(batch, 1, layer.in_features))
                rows = rows.astype(np.float32)
                rows[position] = row[0]
                out = layer.step(rows)
                assert out.shape == (batch, 1, layer.out_features)
                assert out[position].tobytes() == alone[0].tobytes(), (batch, position)

    def test_wide_tile_rows_have_row_tile_bits_on_every_admitted_shape(self):
        """The guard behind the decode lane's 4-row tiles: on every
        (K, N) of a grid that :func:`decode_tile` admits, a row has the
        same bits in a ``WIDE_TILE``-row GEMM as in a ``ROW_TILE``-row
        one, whatever its co-rows hold.  The grid spans both OpenBLAS
        kernels, K on both sides of one K block and N with every
        partial-panel width; the guard must reject some of it (floors
        of 3 and 4, narrow partial panels) for the check to bite."""
        rng = np.random.default_rng(43)
        admitted = rejected = 0
        for k in (16, 32, 100, 128, 256, 448, 449, 512, 768, 1024, 2048):
            for n in (*range(1, 18), 20, 24, 96, 128, 160, 192, 256, 384, 512, 768):
                if decode_tile(k, n) != WIDE_TILE:
                    rejected += 1
                    continue
                admitted += 1
                weight = rng.standard_normal((k, n), dtype=np.float32)
                scale = rng.uniform(0.01, 50.0)
                x = rng.normal(0.0, scale, size=(WIDE_TILE, k)).astype(np.float32)
                short = (x.reshape(-1, ROW_TILE, k) @ weight).reshape(WIDE_TILE, n)
                wide = x.reshape(1, WIDE_TILE, k) @ weight
                assert short.tobytes() == wide[0].tobytes(), (k, n)
        assert admitted > 100 and rejected > 50
        for k, n in ((768, 384), (512, 512), (32, 2), (768, 7)):
            assert decode_tile(k, n) == ROW_TILE, (k, n)

    @pytest.mark.parametrize("config", _in_tree_configs(), ids=lambda c: c.name)
    def test_every_in_tree_projection_runs_wide_tiles(self, config):
        """Every projection of every in-tree model shape runs 4-row decode
        tiles, so the decode lane's halved weight passes cannot vanish
        silently behind a guard that rejects a shape."""
        for layer in _linears(build_model(config)):
            shape = (layer.in_features, layer.out_features)
            assert layer.decode_tile == WIDE_TILE, shape

    @pytest.mark.parametrize("layer", _tile_contract_layers())
    def test_linear_step_multi_token_is_plain_matmul(self, layer):
        """The flat prompt lane's contract: a row of a ``(T, K)`` input
        through ``Linear.step`` has the bits of the same row in a tall
        plain ``x @ W (+ b)``, at every height T from 1 to 80 and
        whatever its co-rows hold — so a prompt row ignores chunk sizes
        and co-riders.  Plain products agree from the layer's
        ``min_rows`` on; below a floor above 2 some height differs,
        which is why ``step`` pads up to it."""
        rng = np.random.default_rng(layer.in_features * 7 + layer.out_features)
        if layer.bias is not None:
            layer.bias.data[...] = rng.normal(0.0, 0.5, size=layer.out_features)
        weight = layer.weight.data

        def plain(x):
            out = x @ weight
            return out if layer.bias is None else out + layer.bias.data

        row = rng.normal(0.0, 1.0, size=layer.in_features).astype(np.float32)
        tall = rng.normal(0.0, 1.0, size=(200, layer.in_features)).astype(np.float32)
        tall[57] = row
        expected = plain(tall)[57].tobytes()
        below_floor = set()
        for height in range(1, 81):
            scale = rng.uniform(0.01, 50.0)
            x = rng.normal(0.0, scale, size=(height, layer.in_features))
            x = x.astype(np.float32)
            position = int(rng.integers(height))
            x[position] = row
            out = layer.step(x)
            assert out.shape == (height, layer.out_features)
            assert out[position].tobytes() == expected, height
            if height >= layer.min_rows:
                assert plain(x)[position].tobytes() == expected, height
            elif height >= 2:
                below_floor.add(plain(x)[position].tobytes())
        if layer.min_rows > 2:
            assert below_floor - {expected}
        # A (1, T, K) chunk is neither lane's shape.
        with pytest.raises(ModelError, match="Linear.step"):
            layer.step(np.zeros((1, 3, layer.in_features), np.float32))

    def test_embedding_range_check(self):
        emb = Embedding(10, 4, np.random.default_rng(3))
        with pytest.raises(ModelError):
            emb(np.array([11]))

    def test_state_dict_round_trip(self):
        model = tiny_model()
        state = model.state_dict()
        clone = tiny_model(seed=123)
        clone.load_state_dict(state)
        tokens = np.arange(10).reshape(1, 10) % 256
        with no_grad():
            a = model.forward(tokens).data
            b = clone.forward(tokens).data
        np.testing.assert_array_equal(a, b)

    def test_state_dict_mismatch_raises(self):
        model = tiny_model()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ModelError):
            tiny_model().load_state_dict(state)


class TestCausalMask:
    def test_strictly_upper_triangular(self):
        mask = causal_mask(4)
        assert np.all(mask[np.tril_indices(4)] == 0)
        assert np.all(mask[np.triu_indices(4, k=1)] < -1e8)


class TestForward:
    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_logits_shape(self, family):
        model = tiny_model(family)
        tokens = np.random.default_rng(0).integers(0, 256, size=(2, 12))
        with no_grad():
            logits = model.forward(tokens)
        assert logits.shape == (2, 12, 256)

    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_causality(self, family):
        """Changing a future token must not affect earlier logits."""
        model = tiny_model(family)
        rng = np.random.default_rng(1)
        tokens = rng.integers(0, 256, size=(1, 10))
        altered = tokens.copy()
        altered[0, -1] = (altered[0, -1] + 7) % 256
        with no_grad():
            base = model.forward(tokens).data
            changed = model.forward(altered).data
        np.testing.assert_allclose(base[0, :9], changed[0, :9], atol=1e-5)
        assert not np.allclose(base[0, 9], changed[0, 9])

    def test_rejects_overlong_sequence(self):
        model = tiny_model()
        too_long = model.config.max_seq_len + 1
        with pytest.raises(ModelError):
            model.forward(np.zeros((1, too_long), dtype=int))

    def test_rejects_1d_tokens(self):
        with pytest.raises(ModelError):
            tiny_model().forward(np.zeros(5, dtype=int))

    def test_loss_positive_and_finite(self):
        model = tiny_model()
        tokens = np.random.default_rng(2).integers(0, 256, size=(2, 16))
        loss = model.loss(tokens)
        assert np.isfinite(loss.data)
        assert float(loss.data) > 0

    def test_loss_gradients_flow_everywhere(self):
        model = tiny_model()
        tokens = np.random.default_rng(3).integers(0, 256, size=(2, 16))
        loss = model.loss(tokens)
        loss.backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None)
        # Every parameter except (possibly) unused position rows gets grads.
        assert with_grad == len(model.parameters())


class TestKVCacheDecode:
    @pytest.mark.parametrize("family", ["opt", "llama"])
    def test_cached_matches_full_forward(self, family):
        model = tiny_model(family)
        rng = np.random.default_rng(4)
        tokens = rng.integers(0, 256, size=(1, 9))
        with no_grad():
            full = model.forward(tokens).data
        caches = model.new_cache()
        prefill = model.forward_step(tokens[:, :5], caches)
        np.testing.assert_allclose(prefill, full[:, :5], atol=2e-3)
        for t in range(5, 9):
            step = model.forward_step(tokens[:, t : t + 1], caches)
            np.testing.assert_allclose(step[:, 0], full[:, t], atol=2e-3)

    def test_cache_length_tracks(self):
        cache = KVCache()
        assert cache.length == 0
        k = np.zeros((1, 2, 3, 4), np.float32)
        cache.append(k, k)
        assert cache.length == 3

    def test_deep_copy_reads_its_own_appends(self):
        # A copy's read-only aliases must view its own buffers, not
        # copies of the original's: chunk tiles read the buffers in place.
        cache = KVCache()
        rows = np.arange(24, dtype=np.float32).reshape(1, 2, 3, 4)
        cache.append(rows, -rows)
        clone = copy.deepcopy(cache)
        row = np.full((1, 2, 1, 4), 7.0, np.float32)
        clone.append(row, -row)
        keys, values = clone.view()
        assert keys.shape == (1, 2, 4, 4)
        assert keys[:, :, 3:].tobytes() == row.tobytes()
        assert values[:, :, 3:].tobytes() == (-row).tobytes()
        assert keys[:, :, :3].tobytes() == rows.tobytes()
        keys, _ = cache.view()
        assert cache.length == 3 and keys.shape[2] == 3


#: Two layers, so a cache list one short still reaches a block.
BOUNDARY_MODELS = {
    family: build_model(tiny_test_config(family=family, n_layers=2, seed=5))
    for family in ("opt", "llama")
}


def _caches(model, start=0, layer_delta=0):
    """``n_layers + layer_delta`` caches, each already holding ``start`` positions."""
    config = model.config
    caches = [KVCache() for _ in range(config.n_layers + layer_delta)]
    if start:
        rows = np.zeros((1, config.n_heads, start, config.head_dim), np.float32)
        for cache in caches:
            cache.append(rows, rows)
    return caches


def _ints(*shape):
    return np.zeros(shape, dtype=np.int64)


#: Inputs every inference entry must reject with ``ModelError`` (the
#: message pins which check fired) instead of a ``ValueError`` /
#: ``IndexError`` escape or a silently skipped or ignored layer.
BOUNDARY_CASES = {
    "step_1d_ids": (lambda m: m.forward_step(_ints(4), _caches(m)), r"\(1, new\)"),
    "step_3d_ids": (
        lambda m: m.forward_step(_ints(1, 4, 2), _caches(m)),
        r"\(1, new\)",
    ),
    "step_batch_of_two": (
        lambda m: m.forward_step(_ints(2, 4), _caches(m)),
        r"\(1, new\)",
    ),
    "step_float_ids": (
        lambda m: m.forward_step(np.zeros((1, 4), np.float32), _caches(m)),
        "integers",
    ),
    "step_short_cache_list": (
        lambda m: m.forward_step(_ints(1, 4), _caches(m, layer_delta=-1)),
        "layer caches",
    ),
    "step_past_max_seq_len": (
        lambda m: m.forward_step(_ints(1, 3), _caches(m, m.config.max_seq_len - 2)),
        "max_seq_len",
    ),
    "decode_float_ids": (
        lambda m: m.forward_decode_batch(np.zeros((1, 1), np.float32), [_caches(m)]),
        "integers",
    ),
    "decode_empty_batch": (
        lambda m: m.forward_decode_batch(_ints(0, 1), []),
        "batch >= 1",
    ),
    "decode_short_cache_list": (
        lambda m: m.forward_decode_batch(_ints(1, 1), [_caches(m, layer_delta=-1)]),
        "layer caches",
    ),
    "chunk_float_group": (
        lambda m: m.forward_mixed_step([np.zeros(3, np.float32)], [_caches(m)]),
        "integers",
    ),
    "chunk_2d_group": (
        lambda m: m.forward_mixed_step([_ints(1, 3)], [_caches(m)]),
        "1-D",
    ),
    "chunk_long_cache_list": (
        lambda m: m.forward_mixed_step([_ints(3)], [_caches(m, layer_delta=1)]),
        "layer caches",
    ),
    "chunk_negative_sample": (
        lambda m: m.forward_mixed_step([_ints(3)], [_caches(m)], sample_rows=[-1]),
        "sample_rows",
    ),
    "chunk_sample_past_chunk": (
        lambda m: m.forward_mixed_step([_ints(3)], [_caches(m)], sample_rows=[4]),
        "sample_rows",
    ),
    "chunk_sample_list_too_long": (
        lambda m: m.forward_mixed_step([_ints(3)], [_caches(m)], sample_rows=[1, 1]),
        "sample_rows",
    ),
    "decode_only_sample_for_no_chunk": (
        lambda m: m.forward_mixed_step([], [], _ints(1, 1), [_caches(m)], [1]),
        "sample_rows",
    ),
}

#: One cache set named twice in one call: each would extend it twice.
NAMED_TWICE = {
    "two_chunks": lambda m, c: m.forward_mixed_step([_ints(3), _ints(2)], [c, c]),
    "chunk_and_decode": lambda m, c: m.forward_mixed_step(
        [_ints(3)], [c], _ints(1, 1), [c]
    ),
    "two_decodes": lambda m, c: m.forward_decode_batch(_ints(2, 1), [c, c]),
}


# Each draw is valid most of the time, so a call with several inputs
# still reaches the model often; the rest cover every way to be wrong.


@st.composite
def _token_ids(draw, vocab, usual_ndim=2):
    """ndim 0-3, leading (batch) axis 0-3, ids -1..vocab, four dtypes."""
    ndim = draw(st.sampled_from([usual_ndim] * 6 + [0, 1, 2, 3]))
    shape = tuple(draw(st.sampled_from([1] * 5 + [2, 3, 0])) for _ in range(ndim))
    size = int(np.prod(shape))
    ids = np.array(
        draw(st.lists(st.integers(0, vocab - 1), min_size=size, max_size=size)),
        dtype=np.int64,
    )
    stray = draw(st.sampled_from([None] * 5 + [-1, vocab]))
    if stray is not None and size:
        ids[draw(st.integers(0, size - 1))] = stray
    dtype = draw(st.sampled_from([np.int64] * 5 + [np.int32, np.float32, np.bool_]))
    return ids.reshape(shape).astype(dtype)


@st.composite
def _requests(draw, count, max_seq_len):
    """Per request ``(start, layer_delta)``: lengths up to and past the cap."""
    start = st.sampled_from([0] * 4 + [3, 3] + [max_seq_len - k for k in (2, 1, 0)])
    delta = st.sampled_from([0] * 6 + [-1, 1])
    return [(draw(start), draw(delta)) for _ in range(count)]


def _near(n):
    """Mostly ``n`` requests, sometimes one more or one fewer."""
    return st.sampled_from([n] * 5 + [n + 1, max(n - 1, 0)])


@st.composite
def _sample_rows(draw, sizes):
    """``None``, or per chunk a count: mostly valid, sometimes -1 or past it."""
    if draw(st.booleans()):
        return None
    counts = []
    for index in range(draw(_near(len(sizes)))):
        size = sizes[index] if index < len(sizes) else 1
        counts.append(draw(st.sampled_from([0, 1, size] * 2 + [-1, size + 1])))
    return counts


class TestModelBoundary:
    """The inference entries reject bad inputs with ``ModelError`` only."""

    @pytest.mark.parametrize("family", ["opt", "llama"])
    @pytest.mark.parametrize("case", list(BOUNDARY_CASES))
    def test_rejected_with_model_error(self, family, case):
        call, message = BOUNDARY_CASES[case]
        with pytest.raises(ModelError, match=message):
            call(BOUNDARY_MODELS[family])

    @pytest.mark.parametrize("family", ["opt", "llama"])
    @pytest.mark.parametrize("case", list(NAMED_TWICE))
    def test_cache_set_named_twice_is_rejected_before_any_layer(self, family, case):
        model = BOUNDARY_MODELS[family]
        caches = _caches(model, start=5)
        with pytest.raises(ModelError, match="named twice"):
            NAMED_TWICE[case](model, caches)
        assert [cache.length for cache in caches] == [5] * model.config.n_layers

    @settings(max_examples=300, deadline=None)
    @given(
        family=st.sampled_from(["opt", "llama"]),
        entry=st.sampled_from(
            ["forward_step", "forward_decode_batch", "forward_mixed_step"]
        ),
        data=st.data(),
    )
    def test_entries_return_finite_logits_or_raise_model_error(
        self, family, entry, data
    ):
        model = BOUNDARY_MODELS[family]
        vocab, cap = model.config.vocab_size, model.config.max_seq_len

        def draw_caches(count):
            requests = data.draw(_requests(count, cap))
            return [_caches(model, start, delta) for start, delta in requests]

        def draw_requests(n):
            return draw_caches(data.draw(_near(n)))

        tokens = data.draw(_token_ids(vocab))
        leading = tokens.shape[0] if tokens.ndim else 1
        try:
            if entry == "forward_step":
                logits = model.forward_step(tokens, draw_caches(1)[0])
                outputs = [(logits, (1, tokens.shape[1], vocab))]
            elif entry == "forward_decode_batch":
                logits = model.forward_decode_batch(tokens, draw_requests(leading))
                outputs = [(logits, (tokens.shape[0], 1, vocab))]
            else:
                groups = data.draw(st.lists(_token_ids(vocab, 1), max_size=3))
                decode = data.draw(st.sampled_from([None, tokens]))
                sizes = [group.shape[0] if group.ndim == 1 else 1 for group in groups]
                sample = data.draw(_sample_rows(sizes))

                def call():
                    return model.forward_mixed_step(
                        groups,
                        draw_requests(len(groups)),
                        decode,
                        None if decode is None else draw_requests(leading),
                        sample_rows=sample,
                    )

                if sample is not None and (
                    len(sample) != len(groups)
                    or any(not 0 <= n <= size for n, size in zip(sample, sizes))
                ):
                    with pytest.raises(ModelError):
                        call()
                    return
                chunk_logits, decode_logits = call()
                outputs = [
                    (logits, (size if sample is None else sample[index], vocab))
                    for index, (logits, size) in enumerate(zip(chunk_logits, sizes))
                ]
                assert len(chunk_logits) == len(groups)
                if decode is None:
                    assert decode_logits is None
                else:
                    outputs.append((decode_logits, (decode.shape[0], 1, vocab)))
        except ModelError:
            return
        for logits, shape in outputs:
            assert logits.shape == shape
            assert np.isfinite(logits).all()


class TestActivationTaps:
    def test_recorder_sees_all_four_kinds(self):
        model = tiny_model()
        recorder = ActivationStatsRecorder()
        model.set_recorder(recorder)
        tokens = np.random.default_rng(5).integers(0, 256, size=(1, 8))
        with no_grad():
            model.forward(tokens)
        for kind in TensorKind:
            assert recorder.count[kind] > 0

    def test_quantizer_changes_logits(self):
        model = tiny_model()
        tokens = np.random.default_rng(6).integers(0, 256, size=(1, 16))
        with no_grad():
            base = model.forward(tokens).data
            model.set_quantizer(anda_quantizer(PrecisionCombination.uniform(2)))
            quantized = model.forward(tokens).data
            model.set_quantizer(None)
            restored = model.forward(tokens).data
        assert not np.allclose(base, quantized)
        np.testing.assert_array_equal(base, restored)

    def test_high_precision_quantizer_is_nearly_transparent(self):
        model = tiny_model()
        tokens = np.random.default_rng(7).integers(0, 256, size=(1, 16))
        with no_grad():
            base = model.forward(tokens).data
            model.set_quantizer(anda_quantizer(PrecisionCombination.uniform(16)))
            quantized = model.forward(tokens).data
        scale = np.abs(base).max()
        np.testing.assert_allclose(quantized, base, atol=2e-3 * scale)

    def test_quantizer_during_training_raises(self):
        model = tiny_model()
        model.set_quantizer(anda_quantizer(PrecisionCombination.uniform(4)))
        tokens = np.random.default_rng(8).integers(0, 256, size=(1, 8))
        with pytest.raises(ModelError):
            model.loss(tokens)


class TestConfigs:
    def test_paper_config_lookup(self):
        config = get_config("opt-1.3b")
        assert config.d_model == 2048
        assert config.n_layers == 24

    def test_sim_twin(self):
        assert get_config("opt-1.3b").sim_twin().name == "opt-1.3b-sim"

    def test_unknown_name(self):
        with pytest.raises(ModelError):
            get_config("gpt-5")

    def test_llama_family_properties(self):
        config = get_config("llama-7b")
        assert config.gated_ffn
        assert config.norm == "rmsnorm"
        assert config.ffn_dim == 11008
