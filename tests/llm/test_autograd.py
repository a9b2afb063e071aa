"""Numerical gradient checks for the autograd engine."""

import threading

import numpy as np
import pytest

from repro.errors import ModelError
from repro.llm.autograd import (
    Tensor,
    concat,
    embedding_lookup,
    is_grad_enabled,
    no_grad,
    softmax,
    softmax_cross_entropy,
)

EPS = 1e-3
TOL = 2e-2


def numeric_grad(fn, value: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar fn at value."""
    grad = np.zeros_like(value, dtype=np.float64)
    flat = value.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        up = fn(value)
        flat[i] = original - EPS
        down = fn(value)
        flat[i] = original
        flat_grad[i] = (up - down) / (2 * EPS)
    return grad


def check_gradient(build, shape, seed=0):
    """Compare autograd and numeric gradients for scalar-valued build(x)."""
    rng = np.random.default_rng(seed)
    value = rng.normal(size=shape).astype(np.float32)
    x = Tensor(value.copy(), requires_grad=True)
    out = build(x)
    out.backward()

    def scalar(v):
        return float(build(Tensor(v.astype(np.float32))).data)

    expected = numeric_grad(scalar, value.astype(np.float64))
    np.testing.assert_allclose(x.grad, expected, rtol=TOL, atol=TOL)


class TestElementwiseGrads:
    def test_add_mul(self):
        check_gradient(lambda x: ((x * 3.0 + 1.0) * x).sum(), (4, 3))

    def test_sub_div(self):
        check_gradient(lambda x: ((x - 0.5) / 2.0).sum(), (5,))

    def test_pow(self):
        check_gradient(lambda x: (x**2).sum(), (3, 3))

    def test_exp_log(self):
        check_gradient(lambda x: ((x.exp() + 2.0).log()).sum(), (4,))

    def test_tanh(self):
        check_gradient(lambda x: x.tanh().sum(), (6,))

    def test_sigmoid(self):
        check_gradient(lambda x: x.sigmoid().sum(), (6,))

    def test_relu(self):
        check_gradient(lambda x: (x.relu() * x).sum(), (8,), seed=3)

    def test_silu(self):
        check_gradient(lambda x: x.silu().sum(), (8,))

    def test_neg(self):
        check_gradient(lambda x: (-x).sum(), (3,))


class TestBroadcastGrads:
    def test_row_broadcast(self):
        rng = np.random.default_rng(1)
        bias = rng.normal(size=(1, 4)).astype(np.float32)
        check_gradient(lambda x: (x + Tensor(bias)).sum(), (3, 4))

    def test_broadcast_into_parameter(self):
        rng = np.random.default_rng(2)
        x_val = rng.normal(size=(3, 4)).astype(np.float32)
        b = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        out = (Tensor(x_val) + b).sum()
        out.backward()
        np.testing.assert_allclose(b.grad, np.full(4, 3.0), rtol=1e-6)

    def test_scalar_broadcast(self):
        check_gradient(lambda x: (x * 2.5).mean(), (2, 3, 4))


class TestMatmulGrads:
    def test_2d(self):
        rng = np.random.default_rng(4)
        w = Tensor(rng.normal(size=(4, 2)).astype(np.float32))
        check_gradient(lambda x: (x @ w).sum(), (3, 4))

    def test_batched(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(2, 4, 3)).astype(np.float32))
        check_gradient(lambda x: (x @ w).sum(), (2, 5, 4))

    def test_weight_gradient(self):
        rng = np.random.default_rng(6)
        x_val = rng.normal(size=(3, 4)).astype(np.float32)
        w = Tensor(rng.normal(size=(4, 2)).astype(np.float32), requires_grad=True)
        (Tensor(x_val) @ w).sum().backward()
        np.testing.assert_allclose(
            w.grad, x_val.T @ np.ones((3, 2), np.float32), rtol=1e-5
        )


class TestShapeGrads:
    def test_reshape(self):
        check_gradient(lambda x: (x.reshape(6, 2) ** 2).sum(), (3, 4))

    def test_transpose(self):
        check_gradient(lambda x: (x.transpose(1, 0) ** 2).sum(), (3, 4))

    def test_slice(self):
        check_gradient(lambda x: (x[:, 1:3] ** 2).sum(), (3, 4))

    def test_concat(self):
        rng = np.random.default_rng(7)
        other = Tensor(rng.normal(size=(3, 2)).astype(np.float32))
        check_gradient(lambda x: (concat([x, other], axis=1) ** 2).sum(), (3, 2))

    def test_getitem_int(self):
        check_gradient(lambda x: (x[1] ** 2).sum(), (3, 4))


class TestReductionGrads:
    def test_sum_axis(self):
        check_gradient(lambda x: (x.sum(axis=0) ** 2).sum(), (3, 4))

    def test_sum_keepdims(self):
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) * x).sum(), (3, 4))

    def test_mean(self):
        check_gradient(lambda x: (x.mean(axis=-1) ** 2).sum(), (2, 5))


class TestSoftmaxAndLoss:
    def test_softmax_grad(self):
        check_gradient(lambda x: (softmax(x, axis=-1) ** 2).sum(), (3, 5))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 7)).astype(np.float32) * 10)
        out = softmax(x, axis=-1).data
        np.testing.assert_allclose(out.sum(axis=-1), np.ones(4), rtol=1e-5)

    def test_cross_entropy_matches_manual(self):
        rng = np.random.default_rng(9)
        logits_val = rng.normal(size=(6, 5)).astype(np.float32)
        targets = rng.integers(0, 5, size=6)
        loss = softmax_cross_entropy(Tensor(logits_val), targets)
        probs = np.exp(logits_val) / np.exp(logits_val).sum(axis=1, keepdims=True)
        expected = -np.log(probs[np.arange(6), targets]).mean()
        assert float(loss.data) == pytest.approx(expected, rel=1e-5)

    def test_cross_entropy_grad(self):
        rng = np.random.default_rng(10)
        targets = rng.integers(0, 4, size=(2, 3))

        def build(x):
            return softmax_cross_entropy(x, targets)

        check_gradient(build, (2, 3, 4))

    def test_cross_entropy_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, -1000.0]]), requires_grad=True)
        loss = softmax_cross_entropy(logits, np.array([0]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)
        loss.backward()
        assert np.all(np.isfinite(logits.grad))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ModelError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(5, dtype=int))


class TestGraphMechanics:
    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
        y.backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # Interleave two threads' no_grad regions as A enters, B
        # enters, A exits, B exits.  A process-global flag with
        # save/restore would leave grad disabled after B restores the
        # False it saved while A was inside.
        a_entered, b_entered = threading.Event(), threading.Event()
        a_exited, b_exited = threading.Event(), threading.Event()
        inside, after = {}, {}

        def wait(event):
            assert event.wait(timeout=30)

        def thread_a():
            with no_grad():
                a_entered.set()
                wait(b_entered)
                inside["a"] = is_grad_enabled()
            a_exited.set()
            wait(b_exited)
            after["a"] = is_grad_enabled()

        def thread_b():
            wait(a_entered)
            with no_grad():
                b_entered.set()
                wait(a_exited)
                inside["b"] = is_grad_enabled()
            b_exited.set()
            after["b"] = is_grad_enabled()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert inside == {"a": False, "b": False}
        assert after == {"a": True, "b": True}
        assert is_grad_enabled()

    def test_backward_without_grad_raises(self):
        with pytest.raises(ModelError):
            Tensor(np.ones(2)).backward()

    def test_embedding_lookup_grad(self):
        table = Tensor(np.eye(4, 3, dtype=np.float32), requires_grad=True)
        ids = np.array([0, 2, 2])
        out = embedding_lookup(table, ids)
        out.sum().backward()
        expected = np.zeros((4, 3), np.float32)
        expected[0] = 1.0
        expected[2] = 2.0
        np.testing.assert_allclose(table.grad, expected)
