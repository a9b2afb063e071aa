"""Shared helpers for the serving test suites.

Importable as a plain module from any ``tests/serve/test_*.py`` file:
pytest's default (rootdir-prepend) import mode puts this directory on
``sys.path`` when collecting the suite.
"""

import numpy as np

from repro.llm.generation import generate
from repro.serve import LLM, SamplingParams


def serve(model, prompts, max_new_tokens, config=None, engine=None, **sampling):
    """Batch-serve through the LLM facade.

    One recipe for the whole batch, results in input order.
    ``**sampling`` forwards recipe fields (``temperature``, ``top_k``,
    ``seed``, ...) into :class:`SamplingParams`.
    """
    llm = LLM(model=model, config=config, engine=engine)
    return llm.generate(
        prompts, SamplingParams(max_new_tokens=max_new_tokens, **sampling)
    )


def assert_matches_generate(model, prompts, results, max_new_tokens, fmt=None, **kw):
    """Served tokens equal sequential ``generate()`` with ``fmt``'s caches.

    ``fmt`` None means the default fp16 caches; ``**kw`` forwards
    sampling arguments (``temperature``, ``seed``, ...) to ``generate``.
    """
    factory = None if fmt is None else fmt.cache_factory(model)
    for prompt, result in zip(prompts, results):
        expected = generate(model, prompt, max_new_tokens, cache_factory=factory, **kw)
        np.testing.assert_array_equal(result.tokens, expected.tokens)


def finished_results(engine, handles, max_steps=None):
    """Step ``engine`` to idle; the finished handles' results by request id.

    Aborted and failed requests have no result, so they are left out.
    """
    engine.run_until_idle(max_steps=max_steps)
    return {handle.request_id: handle.result() for handle in handles if handle.finished}
