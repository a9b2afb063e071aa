"""Extension studies beyond the paper's evaluation section.

Three analyses the paper motivates but does not evaluate:

* **Decode-regime analysis** — the paper's system results are prefill
  (Sec. V-A "maximum acceptable input sequence length"); this study
  runs the same architectures on batch-1 decode GeMVs and reports the
  roofline placement, showing where the bit-serial win survives and
  where the memory wall takes over (Sec. VI's KV-cache discussion).
* **KV-cache compression** (Sec. VI synergy) — applies the Anda format
  to cached keys/values, reporting footprint reduction per mantissa
  length and the logit perturbation it causes on a zoo model.
* **Uniform-precision deployment** (Sec. VI bit-parallel discussion) —
  the search specialized to one fixed width per model, the quantity a
  FIGNA-Mx-style bit-parallel accelerator would consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.precision import PrecisionCombination
from repro.experiments.reporting import format_table
from repro.hw.roofline import decode_vs_prefill_summary
from repro.llm.kv_quant import KVFormat
from repro.llm.zoo import get_model
from repro.quant.deploy import deploy_anda, deploy_uniform

DATASET = "wikitext2-sim"
KV_MANTISSAS: tuple[int, ...] = (4, 6, 8, 11)
UNIFORM_MODELS: tuple[str, ...] = ("opt-1.3b", "opt-6.7b", "llama2-7b")


@dataclass(frozen=True)
class ExtensionsResult:
    """Decode summaries, KV compression table and uniform widths."""

    decode: dict[str, dict[str, float]]
    kv: dict[int, dict[str, float]]
    uniform_bits: dict[str, int]
    searched: dict[str, PrecisionCombination]

    def render(self) -> str:
        decode_rows = [
            [
                model,
                f"{vals['prefill_speedup']:.2f}",
                f"{vals['decode_speedup']:.2f}",
                f"{vals['prefill_dram_reduction']:.2f}",
                f"{vals['decode_dram_reduction']:.2f}",
            ]
            for model, vals in self.decode.items()
        ]
        kv_rows = [
            [
                m,
                f"{vals['compression']:.2f}x",
                f"{vals['logit_rel_error'] * 100:.3f}%",
            ]
            for m, vals in self.kv.items()
        ]
        uniform_rows = [
            [model, bits, str(self.searched[model])]
            for model, bits in self.uniform_bits.items()
        ]
        return "\n\n".join(
            [
                format_table(
                    ["Model", "prefill speedup", "decode speedup",
                     "prefill DRAM cut", "decode DRAM cut"],
                    decode_rows,
                    title="Extension: Anda in the decode regime (vs FP-FP)",
                ),
                format_table(
                    ["KV mantissa", "cache compression", "max logit error"],
                    kv_rows,
                    title="Extension: Anda-format KV cache (opt-1.3b twin)",
                ),
                format_table(
                    ["Model", "uniform M (1%)", "searched 4-tuple (1%)"],
                    uniform_rows,
                    title="Extension: uniform width for bit-parallel deployment",
                ),
            ]
        )


def decode_analysis(models: tuple[str, ...]) -> dict[str, dict[str, float]]:
    out = {}
    for model in models:
        combination = deploy_anda(model, DATASET, 0.01).combination
        out[model] = decode_vs_prefill_summary(model, combination)
    return out


def kv_analysis(model_name: str = "opt-1.3b") -> dict[int, dict[str, float]]:
    model = get_model(model_name)
    prompt = np.random.default_rng(5).integers(0, 256, size=(1, 48))
    exact = model.forward_step(prompt, model.new_cache())
    scale = float(np.abs(exact).max())
    out: dict[int, dict[str, float]] = {}
    for bits in KV_MANTISSAS:
        fmt = KVFormat.anda(bits)
        logits = model.forward_step(prompt, fmt.cache_factory(model)())
        out[bits] = {
            "compression": 16 / fmt.bits_per_element(),
            "logit_rel_error": float(np.abs(logits - exact).max()) / scale,
        }
    return out


def run(models: tuple[str, ...] = UNIFORM_MODELS) -> ExtensionsResult:
    """Run all three extension studies (zoo models load on demand)."""
    searched = {
        model: deploy_anda(model, DATASET, 0.01).combination for model in models
    }
    uniform = {
        model: deploy_uniform(model, DATASET, 0.01) for model in models
    }
    return ExtensionsResult(
        decode=decode_analysis(models),
        kv=kv_analysis(),
        uniform_bits=uniform,
        searched=searched,
    )
