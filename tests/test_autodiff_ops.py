"""Unit tests for structured ops: convolutions, pooling, softmax, etc."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, ops


def rng():
    return np.random.default_rng(7)


class TestJoin:
    def test_concat_forward_backward(self):
        g = rng()
        a = Tensor(g.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(2, 2)), requires_grad=True)
        out = ops.concat([a, b], axis=1)
        assert out.shape == (2, 5)
        check_gradients(lambda: ops.concat([a, b], axis=1).sum(), [a, b])

    def test_stack(self):
        g = rng()
        a = Tensor(g.normal(size=(3,)), requires_grad=True)
        b = Tensor(g.normal(size=(3,)), requires_grad=True)
        out = ops.stack([a, b], axis=0)
        assert out.shape == (2, 3)
        check_gradients(lambda: ops.stack([a, b]).sum(), [a, b])


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng().normal(size=(4, 6)))
        s = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-10)

    def test_softmax_gradcheck(self):
        x = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng().normal(size=(2, 5)))
        check_gradients(lambda: (ops.softmax(x, axis=-1) * w).sum(), [x], rtol=1e-3)

    def test_log_softmax_gradcheck(self):
        x = Tensor(rng().normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng().normal(size=(2, 5)))
        check_gradients(lambda: (ops.log_softmax(x, axis=-1) * w).sum(), [x], rtol=1e-3)

    def test_softmax_stability_large_values(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        s = ops.softmax(x)
        np.testing.assert_allclose(s.data, [[0.5, 0.5]])


class TestConv2d:
    def test_forward_matches_naive(self):
        g = rng()
        x = Tensor(g.normal(size=(1, 2, 5, 5)))
        w = Tensor(g.normal(size=(3, 2, 3, 3)))
        out = ops.conv2d(x, w, stride=1, padding=0)
        # Naive reference
        ref = np.zeros((1, 3, 3, 3))
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    ref[0, f, i, j] = (x.data[0, :, i : i + 3, j : j + 3] * w.data[f]).sum()
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_padding_and_stride_shapes(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        w = Tensor(np.zeros((4, 3, 3, 3)))
        out = ops.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 4, 4, 4)

    def test_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 2, 5, 5)), requires_grad=True)
        w = Tensor(g.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda: ops.conv2d(x, w, b, stride=2, padding=1).sum(), [x, w, b], rtol=1e-3
        )

    def test_gradcheck_non_uniform_upstream(self):
        """A squared loss sends a different gradient to every output, so
        col2im must route each one back to its own receptive field."""
        g = rng()
        x = Tensor(g.normal(size=(2, 2, 6, 5)), requires_grad=True)
        w = Tensor(g.normal(size=(3, 2, 3, 2)), requires_grad=True)
        check_gradients(
            lambda: (ops.conv2d(x, w, stride=2, padding=1) ** 2).sum(), [x, w],
            rtol=1e-3,
        )

    def test_non_square_kernel_strided_matches_naive(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 3, 7, 6)))
        w = Tensor(g.normal(size=(4, 3, 2, 3)))
        out = ops.conv2d(x, w, stride=2)
        ref = np.zeros((2, 4, 3, 2))
        for n in range(2):
            for f in range(4):
                for i in range(3):
                    for j in range(2):
                        ref[n, f, i, j] = (x.data[n, :, 2 * i : 2 * i + 2,
                                                  2 * j : 2 * j + 3]
                                           * w.data[f]).sum()
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((3, 5, 3, 3)))
        with pytest.raises(ValueError):
            ops.conv2d(x, w)


class TestDepthwiseConv2d:
    def test_channels_stay_independent(self):
        g = rng()
        x = np.zeros((1, 2, 5, 5))
        x[0, 0] = g.normal(size=(5, 5))  # only channel 0 carries signal
        w = Tensor(np.ones((2, 3, 3)))
        out = ops.depthwise_conv2d(Tensor(x), w, padding=1)
        assert np.abs(out.data[0, 1]).max() == 0.0
        assert np.abs(out.data[0, 0]).max() > 0.0

    def test_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(g.normal(size=(3, 3, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(3,)), requires_grad=True)
        check_gradients(
            lambda: ops.depthwise_conv2d(x, w, b, stride=1, padding=1).sum(),
            [x, w, b],
            rtol=1e-3,
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.depthwise_conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 3, 3))))


class TestConv1d:
    def test_forward_matches_naive(self):
        g = rng()
        x = Tensor(g.normal(size=(1, 2, 7)))
        w = Tensor(g.normal(size=(3, 2, 3)))
        out = ops.conv1d(x, w)
        ref = np.zeros((1, 3, 5))
        for f in range(3):
            for i in range(5):
                ref[0, f, i] = (x.data[0, :, i : i + 3] * w.data[f]).sum()
        np.testing.assert_allclose(out.data, ref, rtol=1e-10)

    def test_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 2, 6)), requires_grad=True)
        w = Tensor(g.normal(size=(4, 2, 3)), requires_grad=True)
        b = Tensor(g.normal(size=(4,)), requires_grad=True)
        check_gradients(lambda: ops.conv1d(x, w, b, padding=1).sum(), [x, w, b], rtol=1e-3)

    def test_strided_gradcheck(self):
        g = rng()
        x = Tensor(g.normal(size=(2, 3, 9)), requires_grad=True)
        w = Tensor(g.normal(size=(2, 3, 4)), requires_grad=True)
        check_gradients(lambda: (ops.conv1d(x, w, stride=2, padding=1) ** 2).sum(),
                        [x, w], rtol=1e-3)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            ops.conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((3, 4, 3))))


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = ops.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradcheck(self):
        # Use distinct values so argmax is stable under perturbation.
        g = rng()
        base = np.arange(32.0).reshape(2, 1, 4, 4) + g.uniform(0, 0.3, size=(2, 1, 4, 4))
        x = Tensor(base, requires_grad=True)
        check_gradients(lambda: ops.max_pool2d(x, 2).sum(), [x], rtol=1e-3)

    def test_avg_pool_forward(self):
        x = np.ones((1, 2, 4, 4))
        out = ops.avg_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data, np.ones((1, 2, 2, 2)))

    def test_avg_pool_gradcheck(self):
        x = Tensor(rng().normal(size=(1, 2, 4, 4)), requires_grad=True)
        check_gradients(lambda: ops.avg_pool2d(x, 2).sum(), [x], rtol=1e-3)

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 3, 4, 4)))
        out = ops.global_avg_pool2d(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.data, np.ones((2, 3)))


class TestMisc:
    def test_straight_through_forwards_quantized(self):
        q = Tensor([1.0, 2.0])
        c = Tensor([0.5, 0.7], requires_grad=True)
        out = ops.straight_through(q, c)
        np.testing.assert_allclose(out.data, [1.0, 2.0])

    def test_straight_through_grad_to_continuous(self):
        q = Tensor([1.0, 2.0])
        c = Tensor([0.5, 0.7], requires_grad=True)
        (ops.straight_through(q, c) * 3.0).sum().backward()
        np.testing.assert_allclose(c.grad, [3.0, 3.0])

    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = ops.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        g = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = ops.dropout(x, 0.3, g, training=True)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_pad2d_and_grad(self):
        x = Tensor(rng().normal(size=(1, 1, 3, 3)), requires_grad=True)
        out = ops.pad2d(x, (1, 2))
        assert out.shape == (1, 1, 5, 7)
        check_gradients(lambda: ops.pad2d(x, (1, 2)).sum(), [x])

    def test_pad2d_zero_is_identity(self):
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert ops.pad2d(x, (0, 0)) is x

    def test_clip_values_grad_masked(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        ops.clip_values(x, -1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_where_mask(self):
        mask = np.array([True, False])
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        out = ops.where_mask(mask, a, b)
        np.testing.assert_allclose(out.data, [1.0, 2.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])
