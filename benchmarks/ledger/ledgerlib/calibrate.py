"""The calibration kernel: one execution is one **cu**.

A frozen, benchmark-owned miniature of a decode step — RMS norm,
16x256 @ 256x768 GEMMs, an fp16 -> fp32 fancy-index gather, softmax
attention over 128 keys, a short interpreter loop — followed by three
batched attention launches that stream 12 MiB of fp32 keys and fp64
values (batch 8 x 512 positions, the shape of a bucket workspace), so
that the mix of BLAS, cache-resident numpy, memory-bound numpy and
bytecode it times resembles the mix the engine runs.  Dividing a
tick's seconds by the seconds this kernel took just before and after
it cancels what the machine was doing at that moment (frequency,
steal, cache and memory-bandwidth pressure) and leaves what the
program did.

The streaming part is about 30 % of the kernel's time.  That share was
measured, not guessed: the workloads spend 10-50 % of a step in
memory-bound gathers and attention, and on recorded passes a 30 %
share cut the run-to-run spread of ``decode_fp16`` from 4.7 % to 2.0 %
and of ``shared_prefix_anda`` from 5.9 % to 4.8 %, at 1.9 % -> 2.2 % on
the compute-bound ``prefill_anda``.

**Never edit this file to make a number move.**  Every cu-denominated
metric of every later PR is a ratio against exactly this code.
"""

from __future__ import annotations

import time

import numpy as np

_REPEATS = 4
_STREAMS = 3


class Calibrator:
    """Holds the kernel's fixed operands; ``__call__`` times one cu."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20250930)
        self._x = rng.standard_normal((16, 256)).astype(np.float32)
        self._gain = np.ones(256, dtype=np.float32)
        self._w_up = (rng.standard_normal((256, 768)) * 0.05).astype(np.float32)
        self._w_gate = (rng.standard_normal((256, 768)) * 0.05).astype(np.float32)
        self._w_down = (rng.standard_normal((768, 256)) * 0.05).astype(np.float32)
        self._pool = rng.standard_normal((64, 4, 16, 64)).astype(np.float16)
        positions = np.arange(128)
        self._blocks = rng.permutation(64)[positions // 16]
        self._rows = positions % 16
        self._q = rng.standard_normal((16, 4, 1, 64)).astype(np.float32)
        self._scale = 1.0 / np.sqrt(64.0)
        self._stream_keys = rng.standard_normal((8, 4, 512, 64)).astype(np.float32)
        self._stream_values = rng.standard_normal((8, 4, 512, 64))
        self._stream_q = rng.standard_normal((8, 4, 1, 64)).astype(np.float32)
        self.checksum = 0.0

    def _kernel(self) -> float:
        x = self._x
        acc = 0.0
        for _ in range(_REPEATS):
            normed = x / np.sqrt((x * x).mean(axis=-1, keepdims=True) + 1e-5)
            normed = normed * self._gain
            gate = normed @ self._w_gate
            hidden = gate / (1.0 + np.exp(-gate)) * (normed @ self._w_up)
            x = x + (hidden @ self._w_down).astype(np.float32)
            keys = self._pool[self._blocks, :, self._rows].transpose(1, 0, 2)
            keys = keys.astype(np.float32)[None]
            scores = (self._q @ keys.swapaxes(-1, -2)) * self._scale
            scores -= scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights /= weights.sum(axis=-1, keepdims=True)
            context = weights @ keys
            acc += float(context[0, 0, 0, 0])
            table: dict[int, int] = {}
            for i in range(96):
                table[i % 13] = table.get(i % 13, 0) + i
            acc += table[5]
        for _ in range(_STREAMS):
            scores = (self._stream_q @ self._stream_keys.swapaxes(-1, -2)) * self._scale
            scores -= scores.max(axis=-1, keepdims=True)
            weights = np.exp(scores)
            weights /= weights.sum(axis=-1, keepdims=True)
            acc += float((weights @ self._stream_values)[0, 0, 0, 0])
        return acc

    def __call__(self) -> float:
        """Seconds one calibration unit took right now."""
        start = time.perf_counter()
        self.checksum = self._kernel()
        return time.perf_counter() - start
