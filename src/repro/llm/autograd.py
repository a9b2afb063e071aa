"""Minimal reverse-mode automatic differentiation over numpy arrays.

The LLM substrate needs gradients to *train* the scaled-down model zoo
from scratch (the paper evaluates pre-trained checkpoints; with no
PyTorch/HuggingFace available we must produce our own trained weights).
This engine supports exactly the operations a Transformer language model
requires — matmul, broadcast arithmetic, reductions, reshape/transpose,
gather, slicing/concatenation (for rotary embeddings), the nonlinear
activations, and a fused softmax cross-entropy — and nothing more.

Design notes
------------
* ``Tensor`` wraps a float32 ``numpy`` array plus an optional backward
  closure; graphs are built only while :func:`is_grad_enabled` is true,
  so inference inside :class:`no_grad` has zero tape overhead.
* Gradients broadcast like the forward ops; :func:`_unbroadcast` sums
  gradient contributions back to the parent's shape.
* ``backward()`` runs a depth-first topological sort; each tensor's
  ``grad`` accumulates, so shared sub-expressions are handled correctly.
"""

from __future__ import annotations

import contextlib
import contextvars
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ModelError

#: Per-context (so per-thread) grad mode: two engines stepping on two
#: threads each enter and leave ``no_grad`` without restoring the
#: other's flag.
_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "repro_grad_enabled", default=True
)


def is_grad_enabled() -> bool:
    """Whether new operations record backward closures."""
    return _GRAD_ENABLED.get()


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference mode)."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node of the autodiff graph wrapping a float32 numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    # -- graph bookkeeping --------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked and _GRAD_ENABLED.get():
            return Tensor(data, requires_grad=True, parents=tracked, backward=backward)
        return Tensor(data)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor (defaults to d(self)/d(self)=1)."""
        if not self.requires_grad:
            raise ModelError("backward() called on a tensor without gradients")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        if grad is None:
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float32)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add a gradient contribution (creating the buffer on first use)."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- shape helpers --------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad.reshape(original))

        return Tensor._make(out, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        out = self.data.transpose(axes)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad.transpose(inverse))

        return Tensor._make(out, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(shape, dtype=np.float32)
            np.add.at(full, key, grad)
            self.accumulate_grad(full)

        return Tensor._make(out, (self,), backward)

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(grad, other.data.shape))

        return Tensor._make(out, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = -self.data

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(-grad)

        return Tensor._make(out, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(grad * self.data, other.data.shape))

        return Tensor._make(out, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ModelError("Tensor ** only supports scalar exponents")
        out = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                ga = grad @ other.data.swapaxes(-1, -2)
                self.accumulate_grad(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = self.data.swapaxes(-1, -2) @ grad
                other.accumulate_grad(_unbroadcast(gb, other.data.shape))

        return Tensor._make(out, (self, other), backward)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self.accumulate_grad(np.broadcast_to(g, shape).astype(np.float32))

        return Tensor._make(out, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities ---------------------------------------------------

    def exp(self) -> "Tensor":
        out = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out)

        return Tensor._make(out, (self,), backward)

    def log(self) -> "Tensor":
        out = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad / self.data)

        return Tensor._make(out, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * (1.0 - out * out))

        return Tensor._make(out, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * out * (1.0 - out))

        return Tensor._make(out, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = np.where(mask, self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * mask)

        return Tensor._make(out, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x), the SwiGLU gate nonlinearity."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out = self.data * sig

        def backward(grad: np.ndarray) -> None:
            self.accumulate_grad(grad * sig * (1.0 + self.data * (1.0 - sig)))

        return Tensor._make(out, (self,), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (used by rotary embeddings)."""
    tensors = list(tensors)
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                tensor.accumulate_grad(grad[tuple(index)])

    return Tensor._make(out, tuple(tensors), backward)


def embedding_lookup(table: Tensor, token_ids: np.ndarray) -> Tensor:
    """Gather rows of an embedding table by integer token ids."""
    ids = np.asarray(token_ids)
    out = table.data[ids]

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(table.data)
        np.add.at(full, ids, grad)
        table.accumulate_grad(full)

    return Tensor._make(out, (table,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        dot = (grad * out).sum(axis=axis, keepdims=True)
        x.accumulate_grad(out * (grad - dot))

    return Tensor._make(out, (x,), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy with fused, stable backward.

    Args:
        logits: shape ``(..., vocab)``.
        targets: integer array matching the leading shape of ``logits``.

    Returns:
        Scalar loss tensor (mean negative log likelihood in nats).
    """
    targets = np.asarray(targets)
    flat_logits = logits.data.reshape(-1, logits.data.shape[-1])
    flat_targets = targets.reshape(-1)
    if flat_targets.shape[0] != flat_logits.shape[0]:
        raise ModelError(
            f"targets shape {targets.shape} incompatible with logits "
            f"shape {logits.data.shape}"
        )
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    nll = logsumexp - shifted[np.arange(flat_targets.size), flat_targets]
    loss = np.float32(nll.mean())
    n = flat_targets.size

    def backward(grad: np.ndarray) -> None:
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), flat_targets] -= 1.0
        probs *= float(grad) / n
        logits.accumulate_grad(probs.reshape(logits.data.shape))

    return Tensor._make(np.asarray(loss), (logits,), backward)


def token_log_likelihoods(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-token negative log likelihoods (plain numpy, for perplexity)."""
    flat_logits = logits.reshape(-1, logits.shape[-1]).astype(np.float64)
    flat_targets = np.asarray(targets).reshape(-1)
    shifted = flat_logits - flat_logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1))
    return logsumexp - shifted[np.arange(flat_targets.size), flat_targets]
