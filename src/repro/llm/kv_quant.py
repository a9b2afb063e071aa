"""Anda-format KV-cache compression (the Sec. VI synergy, implemented).

The paper keeps the KV cache in FP16 and notes that Anda "could
synergize with KV cache optimizations" as future work.  This module
implements that extension on the LLM substrate: cached keys and values
are stored through the Anda format (group size 64 along the head
dimension... grouped along the hidden axis), trading mantissa bits for
cache footprint exactly like the activation path does.

Because keys/values are written once and read at every subsequent
decode step, the compression multiplies through the decode-phase memory
traffic — the regime :mod:`repro.hw.roofline` shows is bandwidth-bound.

:class:`KVFormat` is the one way to name a KV format: its codecs
(``fmt.codec()`` / ``fmt.codecs(n_layers)``), unpaged cache factory
(``fmt.cache_factory(model)``) and stored width
(``fmt.bits_per_element()``) all resolve through
:data:`_KV_MODE_REGISTRY`.  Each width formula lives once, in its
codec's ``storage_bits_per_element``; FP16's 16 bits come from the base
:class:`~repro.llm.attention.KVCache`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from types import ModuleType

import numpy as np

from repro.core.anda import fake_quantize_batch
from repro.core.bfp import BfpConfig
from repro.core.bfp import fake_quantize as bfp_fake_quantize
from repro.core.precision import PrecisionCombination, TensorKind
from repro.errors import ModelError
from repro.llm.attention import KVCache
from repro.llm.transformer import CausalLM


def _mx_module() -> ModuleType:
    # Imported lazily: ``repro.quant.__init__`` pulls in report paths
    # that import back through ``repro.hw`` into ``repro.llm``, so a
    # module-level import here is circular when ``repro.hw`` (which
    # re-exports this module's registry through ``repro.llm``) loads
    # first.  ``sys.modules`` caching makes repeat calls free.
    from repro.quant import mx

    return mx


def validate_kv_mantissa_bits(mantissa_bits: int) -> None:
    """Reject out-of-range Anda KV mantissa lengths."""
    if not 1 <= mantissa_bits <= 16:
        raise ModelError(
            f"KV mantissa bits must be in [1, 16], got {mantissa_bits}"
        )


class AndaKVCache(KVCache):
    """KV cache whose entries round-trip through the Anda format.

    Args:
        mantissa_bits: Anda mantissa length for cached keys/values.
    """

    __slots__ = ("mantissa_bits", "_key")

    def __init__(self, mantissa_bits: int = 8) -> None:
        super().__init__()
        validate_kv_mantissa_bits(mantissa_bits)
        self.mantissa_bits = mantissa_bits
        # Built once: the hot decode loop asks for the key per append.
        self._key = ("anda", mantissa_bits)

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        """Round-trip K/V through the Anda format (row-local, so the
        batched decode path may apply it across a whole batch at once).

        Returns float32 rows exact in float16, the form every codec's
        ``compress`` hands to the caches."""
        return fake_quantize_batch(tensor, self.mantissa_bits)

    def compression_key(self) -> tuple:
        return self._key

    def storage_bits_per_element(self) -> float:
        """Stored bits per element: sign + mantissa + shared exponent."""
        return 1 + self.mantissa_bits + 8 / 64


class BfpKVCache(KVCache):
    """KV cache round-tripping entries through plain BFP (group 64,
    nearest rounding) — the paper's baseline grouped format without the
    Anda bit-plane truncation convention."""

    __slots__ = ("mantissa_bits", "_config", "_key")

    def __init__(self, mantissa_bits: int = 8) -> None:
        super().__init__()
        validate_kv_mantissa_bits(mantissa_bits)
        self.mantissa_bits = mantissa_bits
        self._config = BfpConfig(
            mantissa_bits=mantissa_bits, group_size=64, rounding="nearest"
        )
        self._key = ("bfp", mantissa_bits)

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        tensor = np.asarray(tensor)
        flat = tensor.reshape(-1, tensor.shape[-1])
        return bfp_fake_quantize(flat, self._config).reshape(tensor.shape)

    def compression_key(self) -> tuple:
        return self._key

    def storage_bits_per_element(self) -> float:
        """Stored bits per element (element layout, group 64)."""
        return 1 + self.mantissa_bits + 8 / 64


class MxKVCache(KVCache):
    """KV cache round-tripping entries through the two-level
    shared-microexponent (MX) format at its default geometry."""

    __slots__ = ("mantissa_bits", "_config", "_key")

    def __init__(self, mantissa_bits: int = 4) -> None:
        super().__init__()
        validate_kv_mantissa_bits(mantissa_bits)
        self.mantissa_bits = mantissa_bits
        self._config = _mx_module().MxConfig(mantissa_bits=mantissa_bits)
        self._key = ("mx", mantissa_bits)

    def compress(self, tensor: np.ndarray) -> np.ndarray:
        tensor = np.asarray(tensor)
        flat = tensor.reshape(-1, tensor.shape[-1])
        return _mx_module().fake_quantize_mx(flat, self._config).reshape(tensor.shape)

    def compression_key(self) -> tuple:
        return self._key

    def storage_bits_per_element(self) -> float:
        """Stored bits per element: sign + mantissa + both exponent
        levels (coarse per 64-group, microexponent per subgroup),
        amortized."""
        config = self._config
        return (
            1
            + self.mantissa_bits
            + 8 / config.group_size
            + config.micro_bits / config.subgroup_size
        )


#: Single dispatch table: mode -> codec builder taking the mantissa
#: length (fp16 ignores it).  A codec instance is a complete unpaged
#: cache that also answers its storage width
#: (``storage_bits_per_element``), so registering a new KV mode here is
#: the only edit :class:`KVFormat` needs for codecs, cache factories,
#: widths and validation.
_KV_MODE_REGISTRY: dict[str, Callable[[int], KVCache]] = {
    "fp16": lambda mantissa_bits: KVCache(),
    "anda": AndaKVCache,
    "bfp": BfpKVCache,
    "mx": MxKVCache,
}

#: KV-cache modes the serving engine understands.
KV_MODES = tuple(_KV_MODE_REGISTRY)


def _lookup_mode(mode: str) -> Callable[[int], KVCache]:
    try:
        return _KV_MODE_REGISTRY[mode]
    except KeyError:
        raise ModelError(
            f"unknown KV mode {mode!r}; known: {', '.join(KV_MODES)}"
        ) from None


#: Sentinel mode naming a heterogeneous per-layer format stack.
PER_LAYER_MODE = "per_layer"


@dataclass(frozen=True)
class KVFormat:
    """First-class KV-cache format spec for the serving engine.

    A frozen value object naming how cached keys/values are stored:
    one of the registered uniform modes (``fp16``, ``anda``, ``bfp``,
    ``mx``) with a mantissa length, or a heterogeneous per-layer stack
    of uniform formats (mode :data:`PER_LAYER_MODE`).  Resolvable
    engine-wide (``EngineConfig.kv_format``), per request
    (``SamplingParams.kv_format``), and per layer
    (:meth:`KVFormat.per_layer`).

    Construct through the classmethods::

        KVFormat.fp16()
        KVFormat.anda(8)
        KVFormat.bfp(8)
        KVFormat.mx(4)
        KVFormat.per_layer([KVFormat.anda(4), KVFormat.fp16()])
        KVFormat.from_search(search_result)

    Raises :class:`~repro.errors.ModelError` for unknown modes,
    out-of-range mantissa lengths, or malformed per-layer stacks.
    """

    mode: str = "fp16"
    mantissa_bits: int = 8
    layers: tuple["KVFormat", ...] = ()

    def __post_init__(self) -> None:
        if self.mode == PER_LAYER_MODE:
            object.__setattr__(self, "layers", tuple(self.layers))
            if not self.layers:
                raise ModelError(
                    "per-layer KVFormat needs at least one layer entry"
                )
            for entry in self.layers:
                if not isinstance(entry, KVFormat) or not entry.uniform:
                    raise ModelError(
                        "per-layer KVFormat entries must be uniform "
                        f"KVFormat instances, got {entry!r}"
                    )
        else:
            if self.layers:
                raise ModelError(
                    "layers are only valid with mode "
                    f"{PER_LAYER_MODE!r}; use KVFormat.per_layer(...)"
                )
            # Building the codec validates both the mode name and the
            # mantissa length.
            _lookup_mode(self.mode)(self.mantissa_bits)

    # -- constructors --------------------------------------------------

    @classmethod
    def fp16(cls) -> "KVFormat":
        """Uncompressed FP16 storage (the parity baseline)."""
        return cls(mode="fp16")

    @classmethod
    def anda(cls, mantissa_bits: int = 8) -> "KVFormat":
        """Anda truncate-mode grouped format (group 64)."""
        return cls(mode="anda", mantissa_bits=mantissa_bits)

    @classmethod
    def bfp(cls, mantissa_bits: int = 8) -> "KVFormat":
        """Plain BFP, group 64, round-to-nearest."""
        return cls(mode="bfp", mantissa_bits=mantissa_bits)

    @classmethod
    def mx(cls, mantissa_bits: int = 4) -> "KVFormat":
        """Two-level shared-microexponent format, default geometry."""
        return cls(mode="mx", mantissa_bits=mantissa_bits)

    @classmethod
    def per_layer(cls, formats: Iterable["KVFormat"]) -> "KVFormat":
        """Heterogeneous stack: one uniform format per model layer."""
        return cls(mode=PER_LAYER_MODE, layers=tuple(formats))

    @classmethod
    def from_search(cls, source: object, mode: str = "anda") -> "KVFormat":
        """Build a KV format from precision-search output.

        Accepts a :class:`~repro.core.search.SearchResult` (its
        ``best`` combination; infeasible searches raise), a bare
        :class:`~repro.core.precision.PrecisionCombination`, or a
        sequence of either — which yields a per-layer stack.  The KV
        cache stores the QKV-projection activations, so the
        combination's ``qkv`` mantissa length is the one that applies;
        ``mode`` picks which grouped format spends those bits.
        """
        best = getattr(source, "best", None)
        if best is not None:
            source = best
        if isinstance(source, PrecisionCombination):
            return cls(mode=mode, mantissa_bits=source[TensorKind.QKV])
        if hasattr(source, "feasible") and not source.feasible:
            raise ModelError(
                "precision search found no feasible combination; "
                "cannot derive a KV format from it"
            )
        if isinstance(source, Sequence) and not isinstance(source, (str, bytes)):
            return cls.per_layer(
                cls.from_search(entry, mode=mode) for entry in source
            )
        raise ModelError(
            "KVFormat.from_search expects a SearchResult, a "
            f"PrecisionCombination, or a sequence of them, got {source!r}"
        )

    # -- resolution ----------------------------------------------------

    @property
    def uniform(self) -> bool:
        """True when every layer shares one mode/mantissa pair."""
        return self.mode != PER_LAYER_MODE

    def resolve(self, layer: int) -> "KVFormat":
        """The uniform format governing one model layer."""
        if self.uniform:
            return self
        if not 0 <= layer < len(self.layers):
            raise ModelError(
                f"layer {layer} outside per-layer KVFormat of "
                f"{len(self.layers)} layers"
            )
        return self.layers[layer]

    def bits_per_element(self, n_layers: int | None = None) -> float:
        """Stored bits per cached K/V element (mean across layers)."""
        if self.uniform:
            return self.codec().storage_bits_per_element()
        if n_layers is not None and n_layers != len(self.layers):
            raise ModelError(
                f"per-layer KVFormat covers {len(self.layers)} layers, "
                f"model has {n_layers}"
            )
        return float(
            np.mean([entry.bits_per_element() for entry in self.layers])
        )

    def signature(self, n_layers: int) -> tuple:
        """Per-layer compression keys — the byte-compatibility identity.

        Two sequences may share prefix-cache blocks only when their
        signatures match: equal signatures mean every layer's stored
        bytes went through the identical transform.
        """
        return tuple(
            self.resolve(layer).codec().compression_key()
            for layer in range(self._check_layers(n_layers))
        )

    def codec(self) -> KVCache:
        """Write-side codec instance for a uniform format.

        An *unpaged* cache of the mode's class: paged caches delegate
        ``compress`` / ``compression_key`` to it, so pool storage
        round-trips bytes through exactly the unpaged transform.
        Per-layer stacks raise (use :meth:`codecs`).
        """
        if not self.uniform:
            raise ModelError(
                "per-layer KVFormat has no single codec; use .codecs(n_layers)"
            )
        return _lookup_mode(self.mode)(self.mantissa_bits)

    def codecs(self, n_layers: int) -> list[KVCache]:
        """One write-side codec per model layer."""
        return [
            self.resolve(layer).codec()
            for layer in range(self._check_layers(n_layers))
        ]

    def cache_factory(self, model: CausalLM) -> Callable[[], list[KVCache]]:
        """Zero-argument per-request cache builder for ``model``.

        A codec instance is a complete unpaged cache, so each call
        builds fresh per-layer codecs;
        :func:`repro.llm.generation.generate` accepts the builder as
        its ``cache_factory``.  Raises for a per-layer stack that does
        not cover ``model``'s layers.
        """
        n_layers = self._check_layers(len(model.blocks))
        return lambda: self.codecs(n_layers)

    @property
    def label(self) -> str:
        """Compact human/telemetry label (``fp16``, ``anda8``, ...)."""
        if self.uniform:
            if self.mode == "fp16":
                return "fp16"
            return f"{self.mode}{self.mantissa_bits}"
        labels = [entry.label for entry in self.layers]
        if len(set(labels)) == 1:
            return f"per_layer({labels[0]}x{len(labels)})"
        return "per_layer(" + ",".join(labels) + ")"

    def _check_layers(self, n_layers: int) -> int:
        if not self.uniform and n_layers != len(self.layers):
            raise ModelError(
                f"per-layer KVFormat covers {len(self.layers)} layers, "
                f"model has {n_layers}"
            )
        return n_layers

