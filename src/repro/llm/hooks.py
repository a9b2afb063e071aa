"""Activation tap points for the four FP-INT GeMM tensor types.

Every Transformer block in this substrate routes the activations that
feed an FP-INT GeMM (``A_qkv``, ``A_o``, ``A_u``, ``A_d`` of Fig. 3)
through a shared :class:`ActivationTap` before the matmul.  The tap can

* *quantize* — substitute the activation with its fake-quantized value
  (how every BFP/Anda scheme is evaluated, inference only), and/or
* *record* — stream activation statistics to an observer (used by the
  sensitivity studies and examples).

Quantizers are keyed by :class:`repro.core.precision.TensorKind`, so a
precision combination maps directly onto a tap configuration.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

import numpy as np

from repro.core.anda import fake_quantize as anda_fake_quantize
from repro.core.precision import PrecisionCombination, TensorKind
from repro.errors import ModelError
from repro.llm import autograd
from repro.llm.autograd import Tensor

#: A quantizer maps (kind, activation ndarray) -> quantized ndarray.
Quantizer = Callable[[TensorKind, np.ndarray], np.ndarray]

#: A recorder observes (kind, activation ndarray); return value ignored.
Recorder = Callable[[TensorKind, np.ndarray], None]


class ActivationTap:
    """Mutable hook state shared by all blocks of one model."""

    def __init__(self) -> None:
        self.quantizer: Quantizer | None = None
        self.recorder: Recorder | None = None
        self.straight_through = False

    def apply(self, kind: TensorKind, activation: Tensor) -> Tensor:
        """Route one activation tensor through the tap.

        With ``straight_through`` set, quantization under an active
        gradient tape becomes a straight-through estimator: the forward
        value is the quantized activation, the backward pass copies the
        gradient unchanged to the full-precision input (the QAT
        extension of Sec. VI, :mod:`repro.llm.qat`).

        Raises:
            ModelError: if a quantizer is active while gradients are
                being recorded and ``straight_through`` is off — plain
                fake quantization is an inference-time substitution,
                not a differentiable op.
        """
        if self.recorder is not None:
            self.recorder(kind, activation.data)
        if self.quantizer is None:
            return activation
        if autograd.is_grad_enabled() and activation.requires_grad:
            if not self.straight_through:
                raise ModelError(
                    "activation quantization is inference-only; wrap the "
                    "forward pass in autograd.no_grad() or enable "
                    "straight_through for QAT"
                )
            quantized = self.quantizer(kind, activation.data)

            def backward(grad: np.ndarray) -> None:
                activation.accumulate_grad(grad)

            return Tensor._make(quantized, (activation,), backward)
        return Tensor(self.quantizer(kind, activation.data))

    def quantize(
        self, kind: TensorKind, lanes: list[np.ndarray | None]
    ) -> list[np.ndarray | None]:
        """The serving lanes' side of the tap: quantize every present lane.

        Lanes pass through unchanged when no quantizer is installed.
        Quantizers are row-local, so a lane's bits do not depend on the
        others.
        """
        quantizer = self.quantizer
        if quantizer is None:
            return lanes
        return [None if lane is None else quantizer(kind, lane) for lane in lanes]

    def clear(self) -> None:
        self.quantizer = None
        self.recorder = None
        self.straight_through = False


def anda_quantizer(
    combination: PrecisionCombination, rounding: str = "truncate"
) -> Quantizer:
    """Quantizer applying per-tensor-type Anda mantissa lengths.

    The returned callable reshapes arbitrary ``(..., channels)``
    activations to 2-D, fake-quantizes through the Anda format (group
    size 64 along channels) and restores the shape.
    """
    combination.validate()

    def quantize(kind: TensorKind, activation: np.ndarray) -> np.ndarray:
        bits = combination[kind]
        flat = activation.reshape(-1, activation.shape[-1])
        return anda_fake_quantize(flat, bits, rounding=rounding).reshape(
            activation.shape
        )

    return quantize


def per_kind_quantizer(
    quantizers: Mapping[TensorKind, Callable[[np.ndarray], np.ndarray]],
) -> Quantizer:
    """Combine per-kind array transforms into one tap quantizer.

    Kinds absent from the mapping pass through unchanged — this is how
    the module-sensitivity study (Fig. 7) quantizes a single tensor type
    while leaving the others at full precision.
    """

    def quantize(kind: TensorKind, activation: np.ndarray) -> np.ndarray:
        transform = quantizers.get(kind)
        return activation if transform is None else transform(activation)

    return quantize


class ActivationStatsRecorder:
    """Streaming per-kind activation statistics (max |x|, RMS, count)."""

    def __init__(self) -> None:
        self.max_abs: dict[TensorKind, float] = {k: 0.0 for k in TensorKind}
        self.sum_sq: dict[TensorKind, float] = {k: 0.0 for k in TensorKind}
        self.count: dict[TensorKind, int] = {k: 0 for k in TensorKind}

    def __call__(self, kind: TensorKind, activation: np.ndarray) -> None:
        self.max_abs[kind] = max(self.max_abs[kind], float(np.abs(activation).max()))
        self.sum_sq[kind] += float((activation.astype(np.float64) ** 2).sum())
        self.count[kind] += activation.size

    def rms(self, kind: TensorKind) -> float:
        if self.count[kind] == 0:
            return 0.0
        return float(np.sqrt(self.sum_sq[kind] / self.count[kind]))
