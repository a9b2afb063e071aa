"""Regression: non-integer prompts must be rejected at the admission
boundary, not explode steps later inside the embedding.

Before the fix, ``validate_admission`` range-checked token ids without
checking the dtype, so a float prompt (e.g. the output of tokenizer
math gone wrong) sailed through ``submit`` and then raised IndexError
deep inside the embedding on the *next step* — and, because the failed
request stayed queued, on every step after that: one bad request
permanently wedged the engine for all tenants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RequestError
from repro.llm.config import tiny_test_config
from repro.llm.generation import generate
from repro.llm.transformer import build_model
from repro.llm.zoo import get_model
from repro.serve import LLM, Engine, EngineConfig, SamplingParams
from repro.serve.scheduler import validate_admission


@pytest.fixture(scope="module")
def model():
    return get_model("opt-125m-sim")


def test_float_prompt_rejected_at_submit(model):
    engine = Engine(model, config=EngineConfig(max_batch_size=2))
    with pytest.raises(RequestError, match="integer dtype"):
        engine.submit(np.array([1.5, 2.5]), SamplingParams(max_new_tokens=2))
    # The boundary rejection must leave the engine serviceable.
    assert not engine.has_work()
    handle = engine.submit([3, 1, 2], SamplingParams(max_new_tokens=2))
    engine.run_until_idle()
    result = handle.result()
    assert len(result.tokens) - result.prompt_length == 2


def test_float_prompt_no_longer_wedges_the_step_loop(model):
    # The pre-fix failure mode: submit succeeded, then every step
    # raised IndexError forever.  Now the engine never sees the request.
    engine = Engine(model, config=EngineConfig(max_batch_size=2))
    with pytest.raises(RequestError):
        engine.submit(np.array([0.25, 1.75, 2.0]), SamplingParams(max_new_tokens=1))
    outputs = engine.step()  # must not raise, must be a no-op
    assert outputs.deltas == ()


def test_validate_admission_dtype_matrix(model):
    params = SamplingParams(max_new_tokens=1)
    config = model.config
    for good in (np.array([1, 2]), np.array([1, 2], dtype=np.uint16)):
        validate_admission(good, params, config)
    for bad in (
        np.array([1.0, 2.0]),
        np.array([1, 2], dtype=np.float16),
        np.array([True, False]),
        np.array([1 + 0j, 2 + 0j]),
    ):
        with pytest.raises(RequestError, match="integer dtype"):
            validate_admission(bad, params, config)


def test_empty_prompt_message_unchanged(model):
    # np.asarray([]) is float64; emptiness must still win the race so
    # the long-standing empty-prompt message stays stable.
    with pytest.raises(RequestError, match="at least one token"):
        validate_admission(
            np.asarray([]), SamplingParams(max_new_tokens=1), model.config
        )


def test_non_1d_prompt_rejected(model):
    with pytest.raises(RequestError, match="1-D"):
        validate_admission(
            np.array([[1, 2], [3, 4]]), SamplingParams(max_new_tokens=1), model.config
        )


@pytest.mark.parametrize(
    ("fields", "match"),
    [
        ({"temperature": float("nan")}, "temperature must be a finite"),
        ({"temperature": float("inf")}, "temperature must be a finite"),
        ({"top_p": float("nan")}, "top_p must be a finite"),
        ({"top_p": float("inf")}, "top_p must be a finite"),
        ({"max_new_tokens": 1.5}, "max_new_tokens must be an integer"),
        ({"max_new_tokens": 2.0}, "max_new_tokens must be an integer"),
        ({"max_new_tokens": True}, "max_new_tokens must be an integer"),
        ({"stop_token_ids": "ab"}, "stop_token_ids must be integer"),
        ({"stop_token_ids": (1, None)}, "stop_token_ids must be integer"),
    ],
)
def test_malformed_sampling_params_rejected_at_construction(fields, match):
    # Before the fix a NaN temperature or a float max_new_tokens was
    # accepted and only failed inside generation (NaN probabilities, a
    # raw TypeError); a non-numeric stop id raised a bare ValueError.
    with pytest.raises(RequestError, match=match):
        SamplingParams(**fields)


def test_numpy_scalars_still_accepted():
    params = SamplingParams(
        max_new_tokens=np.int64(3),
        temperature=np.float32(0.5),
        top_p=np.float64(0.9),
        stop_token_ids=np.array([4, 5]),
    )
    assert params.stop_token_ids == (4, 5)


def test_nan_temperature_leaves_engine_serviceable():
    # The pre-fix failure: the NaN request raised from inside
    # Engine.step, stayed queued (has_work() True) holding a leaked pool
    # block, and the next valid request failed as "not been prefilled".
    model = build_model(tiny_test_config(family="llama", n_layers=2))
    llm = LLM(model=model)
    prompt = np.array([3, 1, 4, 1, 5])
    with pytest.raises(RequestError, match="finite"):
        llm.generate(
            [prompt], SamplingParams(max_new_tokens=3, temperature=float("nan"))
        )
    with pytest.raises(RequestError, match="integer"):
        llm.generate([prompt], SamplingParams(max_new_tokens=1.5))
    assert not llm.engine.has_work()
    (result,) = llm.generate([prompt], SamplingParams(max_new_tokens=3))
    expected = generate(model, prompt, 3)
    np.testing.assert_array_equal(result.tokens, expected.tokens)
    assert not llm.engine.has_work()
    assert llm.engine._pool.leaked_blocks() == 0
