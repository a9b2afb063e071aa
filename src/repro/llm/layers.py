"""Neural-network building blocks on top of the autograd engine.

Plain numpy implementations of the layers a weight-only-quantized
Transformer needs: linear projections (the FP-INT GeMM sites), token and
position embeddings, LayerNorm (OPT) and RMSNorm (LLaMA).

Parameters are :class:`repro.llm.autograd.Tensor` instances with
``requires_grad=True``; modules expose ``parameters()`` for the
optimizer and ``state_dict()`` / ``load_state_dict()`` for the zoo
cache.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

import numpy as np

from repro.errors import ModelError
from repro.llm.autograd import Tensor, embedding_lookup

Array = np.ndarray

#: A serving step's activations per row kind: decode rows
#: ``(B, 1, D)`` first, then the flat prompt chunk ``(total, D)``
#: (or, in the last layer, its sampled rows ``(R, 1, D)``); a kind the
#: step does not carry is ``None``.  A projection runs ``each`` lane's
#: :meth:`Linear.step` back to back on one weight, decode rows first in
#: their fixed-height tiles, and the chunk's flat GEMM then reads the
#: weight while it is still in cache — one weight read from memory per
#: step instead of one per lane (a bench-llama 256 -> 768 projection of
#: one 2-row tile costs about 20 µs with its weight in cache and
#: 60–115 µs streaming it after a 64 MB pass; 2-core x86-64, OpenBLAS
#: 0.3.31, one thread).  Each lane's GEMMs keep their own shapes and
#: inputs, so every row keeps its bits.
Lanes = list[Array | None]


def each(function: Callable[[Array], Array], lanes: Lanes) -> Lanes:
    """``function`` over every present lane, in lane order."""
    return [None if lane is None else function(lane) for lane in lanes]


def as_float32(lanes: Lanes) -> Lanes:
    """Every present lane in float32, copying only a lane that is not."""
    return each(lambda lane: lane.astype(np.float32, copy=False), lanes)


class Module:
    """Base class: parameter registration via attribute discovery."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth first."""
        for name, value in vars(self).items():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield path, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{path}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{path}.{index}.")

    def parameters(self) -> list[Tensor]:
        return [param for _, param in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        return sum(param.data.size for param in self.parameters())

    def state_dict(self) -> dict[str, Array]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch; missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ModelError(
                    f"shape mismatch for {name}: model {param.data.shape} "
                    f"vs state {state[name].shape}"
                )
            param.data[...] = state[name]


#: Rows per GEMM for a one-token batch's last ``B % WIDE_TILE`` rows
#: (see :meth:`Linear.step`), zero-padded to a whole tile.  A constant,
#: not a function of the batch size: a row's bits must match the same
#: row decoded alone.  The tail keeps 2-row tiles because a padded
#: 4-row tile is slower for a lone row: 1–4 µs with a 256 -> 768
#: weight in cache and up to 30 µs streaming it after a 64 MB pass
#: (2-core x86-64, OpenBLAS 0.3.31, one thread), and batches of 1–3
#: rows are most of a prefill-heavy workload's decode steps.
ROW_TILE = 2

#: Rows per GEMM for a one-token batch's leading ``B - B % WIDE_TILE``
#: rows, on every weight whose rows get the same bits at this height as
#: at :data:`ROW_TILE` (:func:`decode_tile`).  At batch 16 a 4-row tile
#: makes half the weight passes of a 2-row one: 66–94 against 128–159 µs
#: for a 256 -> 768 projection, 61–85 against 115–162 µs for 768 -> 256
#: and 21–31 against 37–52 µs for 256 -> 256 (weights in cache, same
#: machine, three runs).
WIDE_TILE = 4

#: OpenBLAS (0.3.31, Haswell kernels) runs an ``(M, K) @ (K, N)``
#: float32 GEMM with ``M * K * N <= _SMALL_GEMM`` on a small-matrix
#: kernel.  That kernel gives a row the same bits as the blocked one
#: when ``K <= _ONE_K_BLOCK`` and ``N`` is a multiple of ``_N_PANEL``,
#: and other bits otherwise (measured at 2–2000 rows on a grid of K and
#: N).  An ``M == 1`` product is a GEMV, which differs from both.
_SMALL_GEMM = 10**6
_ONE_K_BLOCK = 448
_N_PANEL = 16


def min_gemm_rows(in_features: int, out_features: int) -> int:
    """Fewest rows from which a flat ``x @ W`` row's bits ignore the height.

    From this height on, a row of a ``(M, in_features) @ (in_features,
    out_features)`` product has the same bits at every ``M`` (and, as in
    any GEMM, whatever its co-rows hold).  Two rows for most shapes; a
    shape whose small-matrix kernel reorders the sum needs the first
    height past it — 6 rows for a 768 -> 256 FFN down projection, 11 for
    768 -> 128.  ``TestLayers`` pins it at heights 1–80.
    """
    if in_features <= _ONE_K_BLOCK and out_features % _N_PANEL == 0:
        return 2
    return max(2, _SMALL_GEMM // (in_features * out_features) + 1)


def decode_tile(in_features: int, out_features: int) -> int:
    """Rows per GEMM for a one-token batch's leading rows on this weight.

    :data:`WIDE_TILE` when a row of an ``(in_features, out_features)``
    product has the same bits in a ``WIDE_TILE``-row GEMM as in a
    :data:`ROW_TILE`-row one, else :data:`ROW_TILE`.  The heights agree
    when both run the blocked kernel (:func:`min_gemm_rows` is 2) or
    both run the small-matrix kernel (the floor is above
    ``WIDE_TILE``), except that the small-matrix kernel's row bits
    follow the height when ``out_features`` ends in a partial panel of
    1–3 or 5–7 columns, which asking for ``out_features`` a multiple of
    4 rules out (with some safe widths).  A floor of 3 or 4 (768 -> 384, 512 -> 512) puts
    the two heights on different kernels.  Measured on 5390 shapes (K
    from 1 to 3000, N from 1 to 1295); no admitted shape disagreed, and
    every in-tree model shape is admitted (``TestLayers``).
    """
    floor = min_gemm_rows(in_features, out_features)
    if floor == 2 or (floor > WIDE_TILE and out_features % 4 == 0):
        return WIDE_TILE
    return ROW_TILE


def _row_tiles(x: Array, weight: Array) -> Array:
    """``x @ weight`` for one-token rows ``(B, 1, K)`` as
    :data:`ROW_TILE`-row GEMMs, zero-padding the last tile."""
    rows, _, in_features = x.shape
    if rows % ROW_TILE:
        padded = np.zeros(
            (rows + ROW_TILE - rows % ROW_TILE, 1, in_features), dtype=x.dtype
        )
        padded[:rows] = x
        x = padded
    out = x.reshape(-1, ROW_TILE, in_features) @ weight
    return out.reshape(-1, 1, out.shape[-1])[:rows]


def _parameter(array: Array) -> Tensor:
    return Tensor(np.asarray(array, dtype=np.float32), requires_grad=True)


class Linear(Module):
    """Affine projection ``y = x @ W + b`` — an FP-INT GeMM site.

    Weight shape is ``(in_features, out_features)`` so activations hit
    the matmul untransposed, matching the grouping-along-reduction-axis
    convention of the Anda format.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        scale = 1.0 / np.sqrt(in_features)
        self.weight = _parameter(rng.normal(0.0, scale, size=(in_features, out_features)))
        self.bias = _parameter(np.zeros(out_features)) if bias else None
        self.in_features = in_features
        self.out_features = out_features
        #: The flat lane's height floor (:func:`min_gemm_rows`).
        self.min_rows = min_gemm_rows(in_features, out_features)
        #: Rows per GEMM for one-token rows (:func:`decode_tile`).
        self.decode_tile = decode_tile(in_features, out_features)

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def step(self, x: Array) -> Array:
        """Inference projection on plain numpy: ``x @ W (+ b)``.

        Two row kinds, each with a row's bits fixed whatever rides
        beside it:

        * One-token rows — a ``(B, 1, K)`` input: decode rows and a
          prompt chunk's sampled rows — run as GEMMs of fixed height,
          so each weight pass serves several rows instead of one
          ``M == 1`` GEMV per row: the leading ``B - B % decode_tile``
          rows as ``decode_tile``-row GEMMs (4 rows on every in-tree
          weight, :func:`decode_tile`), the last 0–3 as
          :data:`ROW_TILE`-row GEMMs, zero-padded, into the same
          output.  A row's bits inside a GEMM of fixed M depend neither
          on its co-rows nor on its position, and ``decode_tile`` rows
          give it the bits ``ROW_TILE`` rows do, so a row decoded alone
          (one row plus padding) and the same row inside any batch get
          identical bits.  The tail runs first: in a bench-llama decode
          step of 5–7 rows that order was 4–15 % faster than the tail
          last (the same GEMMs, so the same bits).
        * The flat prompt lane — a ``(T, K)`` input, even at ``T == 1``
          — runs one GEMM of height ``max(T, min_rows)``, zero-padded
          below the floor, so a prompt row has the same bits at every
          chunk size and beside any co-riding chunk.
        """
        weight = self.weight.data
        if x.ndim == 2:
            rows = x.shape[0]
            if rows < self.min_rows:
                padded = np.zeros((self.min_rows, x.shape[1]), dtype=x.dtype)
                padded[:rows] = x
                x = padded
            out = (x @ weight)[:rows]
        elif x.ndim == 3 and x.shape[1] == 1:
            rows, _, in_features = x.shape
            tile = self.decode_tile
            wide = rows - rows % tile
            if not wide:
                out = _row_tiles(x, weight)
            else:
                out_features = weight.shape[1]
                out = np.empty((rows, 1, out_features), dtype=np.result_type(x, weight))
                if wide < rows:
                    out[wide:] = _row_tiles(x[wide:], weight)
                np.matmul(
                    x[:wide].reshape(-1, tile, in_features),
                    weight,
                    out=out[:wide].reshape(-1, tile, out_features),
                )
        else:
            raise ModelError(
                f"Linear.step takes flat (T, K) or one-token (B, 1, K) rows, "
                f"got {x.shape}"
            )
        if self.bias is not None:
            out += self.bias.data
        return out


class Embedding(Module):
    """Token (or position) embedding table."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator) -> None:
        self.weight = _parameter(rng.normal(0.0, 0.02, size=(num_embeddings, dim)))
        self.num_embeddings = num_embeddings

    def __call__(self, token_ids: Array) -> Tensor:
        ids = np.asarray(token_ids)
        if ids.max(initial=0) >= self.num_embeddings or ids.min(initial=0) < 0:
            raise ModelError(
                f"token id out of range for embedding of size {self.num_embeddings}"
            )
        return embedding_lookup(self.weight, ids)


class LayerNorm(Module):
    """Standard LayerNorm over the last axis (OPT family).

    Given a :class:`Tensor` it runs (and records) the autograd ops;
    given a plain ``ndarray`` — the serving lanes, which never
    differentiate — it returns an ``ndarray`` from an op-for-op numpy
    replica of the same arithmetic (float32 scalars where ``Tensor``
    coerces Python floats, ``sum * (1/n)`` for the mean, ``x + (-mean)``
    for the subtraction), bitwise equal to the ``Tensor`` path.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gain = _parameter(np.ones(dim))
        self.shift = _parameter(np.zeros(dim))
        self.eps = eps

    def __call__(self, x: Tensor | Array) -> Tensor | Array:
        if isinstance(x, np.ndarray):
            x = np.asarray(x, dtype=np.float32)
            inv_count = np.float32(1.0 / x.shape[-1])
            centered = x + (-(x.sum(axis=-1, keepdims=True) * inv_count))
            variance = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
            normed = centered * (variance + np.float32(self.eps)) ** -0.5
            return normed * self.gain.data + self.shift.data
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        variance = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (variance + self.eps) ** -0.5
        return normed * self.gain + self.shift


class RMSNorm(Module):
    """Root-mean-square norm without re-centering (LLaMA family).

    ``ndarray`` in, ``ndarray`` out, bitwise equal to the ``Tensor``
    path — see :class:`LayerNorm`.
    """

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.gain = _parameter(np.ones(dim))
        self.eps = eps

    def __call__(self, x: Tensor | Array) -> Tensor | Array:
        if isinstance(x, np.ndarray):
            x = np.asarray(x, dtype=np.float32)
            mean_square = (x * x).sum(axis=-1, keepdims=True) * np.float32(
                1.0 / x.shape[-1]
            )
            return x * (mean_square + np.float32(self.eps)) ** -0.5 * self.gain.data
        mean_square = (x * x).mean(axis=-1, keepdims=True)
        return x * (mean_square + self.eps) ** -0.5 * self.gain


def make_norm(kind: str, dim: int) -> Module:
    """Factory for the per-family normalization layer."""
    if kind == "layernorm":
        return LayerNorm(dim)
    if kind == "rmsnorm":
        return RMSNorm(dim)
    raise ModelError(f"unknown norm kind {kind!r}")
