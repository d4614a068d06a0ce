"""Composite and structured operations for the autodiff engine.

Dense convolutions (1-D and 2-D) share one im2col idiom: a strided view
gathers every receptive field into a (N, C*k, out) column buffer, the
forward pass is one GEMM per sample against the flattened weights, and the
backward pass is the transposed GEMM plus a scatter-add of the columns
(col2im).  Keeping the batch axis outside the GEMM makes every sample's
result independent of the batch it was computed in.  Depthwise convolution
and pooling have no channel mixing, so they stay a kernel-position loop of
strided slices.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "concat",
    "stack",
    "pad2d",
    "pad1d",
    "softmax",
    "log_softmax",
    "conv2d",
    "depthwise_conv2d",
    "conv1d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "straight_through",
    "dropout",
    "where_mask",
    "clip_values",
]


# ----------------------------------------------------------------------
# Joining
# ----------------------------------------------------------------------
def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * grad.ndim
                idx[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(idx)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        slabs = np.split(grad, len(tensors), axis=axis)
        for t, slab in zip(tensors, slabs):
            if t.requires_grad:
                t._accumulate(np.squeeze(slab, axis=axis))

    return Tensor._make(out_data, tuple(tensors), backward)


# ----------------------------------------------------------------------
# Padding
# ----------------------------------------------------------------------
def _pad_trailing(x: Tensor, pads: tuple[int, ...]) -> Tensor:
    """Zero-pad the trailing ``len(pads)`` axes by ``pads[i]`` per side."""
    lead = x.ndim - len(pads)
    inner = (slice(None),) * lead + tuple(
        slice(p, p + n) for p, n in zip(pads, x.shape[lead:]))
    out_data = np.zeros(x.shape[:lead] + tuple(
        n + 2 * p for p, n in zip(pads, x.shape[lead:])), dtype=x.dtype)
    out_data[inner] = x.data

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad[inner])

    return Tensor._make(out_data, (x,), backward)


def pad2d(x: Tensor, pad: tuple[int, int]) -> Tensor:
    """Zero-pad the trailing two (spatial) axes of an NCHW tensor."""
    if pad[0] == 0 and pad[1] == 0:
        return x
    return _pad_trailing(x, pad)


def pad1d(x: Tensor, pad: int) -> Tensor:
    """Zero-pad the trailing axis of an NCL tensor."""
    if pad == 0:
        return x
    return _pad_trailing(x, (pad,))


# ----------------------------------------------------------------------
# Softmax family
# ----------------------------------------------------------------------
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    out_data = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=axis, keepdims=True)

    def backward(grad):
        if x.requires_grad:
            dot = (grad * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse
    soft = np.exp(out_data)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Convolutions (im2col GEMM)
# ----------------------------------------------------------------------
def _out_size(n: int, k: int, stride: int) -> int:
    return (n - k) // stride + 1


def _im2col(xd: np.ndarray, kernel: tuple[int, ...], stride: int
            ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Gather the receptive fields of ``xd`` (N, C, *spatial).

    Returns ``cols`` of shape (N, C*prod(kernel), prod(out)), rows ordered
    (c, *kernel offsets) like ``weight.reshape(F, -1)``, and the output
    spatial shape.  One strided-view copy; no kernel-position loop.
    """
    n, c, *spatial = xd.shape
    out = tuple(_out_size(s, k, stride) for s, k in zip(spatial, kernel))
    steps = xd.strides[2:]
    view = np.lib.stride_tricks.as_strided(
        xd, (n, c, *kernel, *out),
        (*xd.strides[:2], *steps, *(st * stride for st in steps)),
        writeable=False)
    return view.reshape(n, c * math.prod(kernel), math.prod(out)), out


def _col2im(gcols: np.ndarray, shape: tuple[int, ...], kernel: tuple[int, ...],
            out: tuple[int, ...], stride: int) -> np.ndarray:
    """Adjoint of :func:`_im2col`: scatter-add columns back to ``shape``."""
    n, c = shape[:2]
    g = gcols.reshape(n, c, *kernel, *out)
    gx = np.zeros(shape, dtype=gcols.dtype)
    for offset in np.ndindex(*kernel):
        window = tuple(slice(k, k + stride * o, stride)
                       for k, o in zip(offset, out))
        gx[(slice(None), slice(None), *window)] += g[(slice(None), slice(None),
                                                      *offset)]
    return gx


def _conv(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int) -> Tensor:
    """Unpadded N-d convolution: ``x`` is (N, C, *spatial), ``weight``
    (F, C, *kernel).

    The forward is one GEMM per sample, ``(F, C*k) @ (N, C*k, out)``,
    which lands directly in (N, F, *out) layout.  The batch axis stays a
    loop outside BLAS, so each sample's output is bit-identical whatever
    the batch size; a single ``(N*out, C*k)`` GEMM would let BLAS block
    rows differently per ``N``.
    """
    n, c = x.shape[:2]
    f, c_w, *kernel = weight.shape
    if c_w != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    kernel = tuple(kernel)
    xd = x.data
    cols, out = _im2col(xd, kernel, stride)
    wmat = weight.data.reshape(f, -1)
    out_data = (wmat @ cols).reshape(n, f, *out)
    if bias is not None:
        out_data += bias.data.reshape(1, f, *(1,) * len(out))

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        g = grad.reshape(n, f, -1)
        if x.requires_grad:
            x._accumulate(_col2im(wmat.T @ g, xd.shape, kernel, out, stride))
        if weight.requires_grad:
            gw = np.tensordot(g, cols, axes=([0, 2], [0, 2]))
            weight._accumulate(gw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2)))

    return Tensor._make(out_data, parents, backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape (F, C, KH, KW).
    """
    if padding:
        x = pad2d(x, (padding, padding))
    return _conv(x, weight, bias, stride)


def depthwise_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Depthwise 2-D convolution (one filter per channel).

    ``weight`` has shape (C, KH, KW); channel ``c`` of the output only sees
    channel ``c`` of the input.  The estimator uses this because the channels
    of the mapping tensor Q correspond to statistically independent DNNs.
    """
    if padding:
        x = pad2d(x, (padding, padding))
    n, c, h, w = x.shape
    c_w, kh, kw = weight.shape
    if c_w != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {c_w}")
    oh, ow = _out_size(h, kh, stride), _out_size(w, kw, stride)
    xd, wd = x.data, weight.data

    out_data = np.zeros((n, c, oh, ow), dtype=xd.dtype)
    for ki in range(kh):
        for kj in range(kw):
            patch = xd[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
            out_data += patch * wd[None, :, ki, kj, None, None]
    if bias is not None:
        out_data += bias.data.reshape(1, c, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad):
        if x.requires_grad:
            gx = np.zeros_like(xd)
            for ki in range(kh):
                for kj in range(kw):
                    gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += (
                        grad * wd[None, :, ki, kj, None, None]
                    )
            x._accumulate(gx)
        if weight.requires_grad:
            gw = np.zeros_like(wd)
            for ki in range(kh):
                for kj in range(kw):
                    patch = xd[
                        :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
                    ]
                    gw[:, ki, kj] = (patch * grad).sum(axis=(0, 2, 3))
            weight._accumulate(gw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))

    return Tensor._make(out_data, parents, backward)


def conv1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D convolution over an NCL tensor; ``weight`` is (F, C, K)."""
    if padding:
        x = pad1d(x, padding)
    return _conv(x, weight, bias, stride)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
def max_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW; gradient flows to the (first) argmax element."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh, ow = _out_size(h, kernel, stride), _out_size(w, kernel, stride)
    xd = x.data

    windows = np.empty((kernel * kernel, n, c, oh, ow), dtype=xd.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            windows[ki * kernel + kj] = xd[
                :, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride
            ]
    arg = windows.argmax(axis=0)
    out_data = np.take_along_axis(windows, arg[None], axis=0)[0]

    def backward(grad):
        if not x.requires_grad:
            return
        gx = np.zeros_like(xd)
        for ki in range(kernel):
            for kj in range(kernel):
                mask = arg == (ki * kernel + kj)
                gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += (
                    grad * mask
                )
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW."""
    stride = stride or kernel
    n, c, h, w = x.shape
    oh, ow = _out_size(h, kernel, stride), _out_size(w, kernel, stride)
    xd = x.data
    scale = 1.0 / (kernel * kernel)

    out_data = np.zeros((n, c, oh, ow), dtype=xd.dtype)
    for ki in range(kernel):
        for kj in range(kernel):
            out_data += xd[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride]
    out_data *= scale

    def backward(grad):
        if not x.requires_grad:
            return
        gx = np.zeros_like(xd)
        g = grad * scale
        for ki in range(kernel):
            for kj in range(kernel):
                gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += g
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial axes of NCHW, keeping (N, C)."""
    return x.mean(axis=(2, 3))


# ----------------------------------------------------------------------
# Miscellaneous
# ----------------------------------------------------------------------
def straight_through(quantized: Tensor, continuous: Tensor) -> Tensor:
    """VQ-VAE straight-through estimator.

    Forward returns ``quantized``; the gradient bypasses the (non-
    differentiable) quantisation and flows into ``continuous`` unchanged.
    """

    def backward(grad):
        if continuous.requires_grad:
            continuous._accumulate(grad)

    return Tensor._make(quantized.data.copy(), (continuous,), backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or rate == 0."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def where_mask(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select ``a`` where ``mask`` else ``b`` (mask is a constant array)."""
    a, b = as_tensor(a), as_tensor(b)
    out_data = np.where(mask, a.data, b.data)

    def backward(grad):
        if a.requires_grad:
            a._accumulate(np.where(mask, grad, 0.0).reshape(a.shape))
        if b.requires_grad:
            b._accumulate(np.where(mask, 0.0, grad).reshape(b.shape))

    return Tensor._make(out_data, (a, b), backward)


def clip_values(x: Tensor, low: float, high: float) -> Tensor:
    """Clamp values; gradient is passed through inside the active range."""
    out_data = np.clip(x.data, low, high)
    mask = (x.data > low) & (x.data < high)

    def backward(grad):
        if x.requires_grad:
            x._accumulate(grad * mask)

    return Tensor._make(out_data, (x,), backward)
