"""Numpy LLM substrate: models, training, datasets, perplexity.

This package replaces the paper's PyTorch/HuggingFace stack (documented
substitution — see DESIGN.md): OPT-style and LLaMA-style causal LMs
built on a minimal autograd engine, trained from scratch on synthetic
corpora, with activation tap points on the four FP-INT GeMM tensor
types so post-training activation quantization can be evaluated exactly
as the paper does.

Decoding (:func:`generate` / :func:`generate_text`) shares its
per-request recipe type with the serving stack: both accept a
:class:`repro.serve.SamplingParams` via ``params=`` and draw tokens
through the same :func:`~repro.llm.generation.select_next_token`,
which is what keeps sequential and batched-engine decoding
token-bitwise identical.
"""

from repro.llm.config import (
    BENCHMARK_MODELS,
    PAPER_CONFIGS,
    SIM_CONFIGS,
    ModelConfig,
    get_config,
)
from repro.llm.datasets import (
    DATASETS,
    calibration_sequences,
    load_corpus,
    validation_sequences,
)
from repro.llm.analysis import (
    capture_activations,
    group_exponent_spread,
    mean_spread_by_group_size,
    outlier_stats,
)
from repro.llm.generation import (
    GenerationResult,
    generate,
    generate_text,
    select_next_token,
)
from repro.llm.hooks import ActivationStatsRecorder, anda_quantizer, per_kind_quantizer
from repro.llm.kv_quant import AndaKVCache, KVFormat
from repro.llm.perplexity import (
    accuracy_drop_percent,
    evaluate_perplexity,
    relative_accuracy,
)
from repro.llm.tokenizer import ByteTokenizer
from repro.llm.training import train_language_model
from repro.llm.transformer import CausalLM, build_model
from repro.llm.zoo import get_model, prewarm

__all__ = [
    "ActivationStatsRecorder",
    "AndaKVCache",
    "BENCHMARK_MODELS",
    "ByteTokenizer",
    "CausalLM",
    "DATASETS",
    "KVFormat",
    "ModelConfig",
    "PAPER_CONFIGS",
    "SIM_CONFIGS",
    "accuracy_drop_percent",
    "anda_quantizer",
    "build_model",
    "calibration_sequences",
    "capture_activations",
    "evaluate_perplexity",
    "group_exponent_spread",
    "mean_spread_by_group_size",
    "outlier_stats",
    "GenerationResult",
    "generate",
    "generate_text",
    "get_config",
    "get_model",
    "select_next_token",
    "load_corpus",
    "per_kind_quantizer",
    "prewarm",
    "relative_accuracy",
    "train_language_model",
    "validation_sequences",
]
