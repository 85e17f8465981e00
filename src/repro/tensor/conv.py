"""Convolution and pooling primitives (im2col-based) with autograd support.

These are the compute-heavy substrate operations that the paper's ResNet
models are built from.  A convolution is lowered to one patch matrix of
shape ``(C_in*kh*kw, N*out_h*out_w)``, built with a single copy of a strided
view of the padded input, and three plain BLAS matmuls:

* forward: ``out = W @ cols`` (``W`` is the ``(C_out, C_in*kh*kw)`` filter
  matrix), transposed from ``(C_out, N, out_h, out_w)`` back to NCHW;
* weight gradient: ``grad_W = g @ cols.T``, one GEMM that reduces over the
  whole batch, with ``g`` the ``(C_out, N*out_h*out_w)`` upstream gradient;
* input gradient: ``W.T @ g``, scatter-added back into the image by the same
  ``(i, j)`` loop :func:`col2im` uses.

There is no Einstein-summation call: numpy's optimized contraction of a
batched ``(N, F, L)`` patch tensor makes transposed copies of that tensor
first, which cost several times the multiply itself on conv-sized inputs.

All functions take and return :class:`repro.tensor.Tensor` objects with
``NCHW`` layout.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["im2col", "col2im", "conv2d", "max_pool2d", "avg_pool2d", "global_avg_pool2d"]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size would be non-positive "
            f"(input={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def _unfold(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
            padding: tuple[int, int], fill: float = 0.0) -> np.ndarray:
    """Read-only strided view ``(N, C, kh, kw, out_h, out_w)`` of all patches.

    The border is padded with ``fill``.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    out_h = _output_size(h, kh, sh, ph)
    out_w = _output_size(w, kw, sw, pw)
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)
    s0, s1, s2, s3 = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * sh, s3 * sw),
        writeable=False,
    )


def _fold(patches: np.ndarray, size: tuple[int, int], stride: tuple[int, int],
          padding: tuple[int, int]) -> np.ndarray:
    """Scatter-add ``(A, B, kh, kw, out_h, out_w)`` patches into an ``(A, B, H, W)`` image.

    The adjoint of :func:`_unfold` (where ``A, B`` are ``N, C``): overlapping
    patch positions accumulate, in the same ``(i, j)`` order for every caller.
    """
    a, b, kh, kw, out_h, out_w = patches.shape
    h, w = size
    sh, sw = stride
    ph, pw = padding
    padded = np.zeros((a, b, h + 2 * ph, w + 2 * pw), dtype=patches.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += patches[:, :, i, j]
    if ph == 0 and pw == 0:
        return padded
    return padded[:, :, ph:ph + h, pw:pw + w]


def im2col(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
           padding: tuple[int, int]) -> np.ndarray:
    """Lower image patches to columns.

    Parameters
    ----------
    x:
        Input array of shape ``(N, C, H, W)``.
    kernel, stride, padding:
        Kernel size, stride, and zero padding as ``(h, w)`` pairs.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(N, C * kh * kw, out_h * out_w)``.
    """
    patches = _unfold(x, kernel, stride, padding)
    n, c, kh, kw, out_h, out_w = patches.shape
    return patches.reshape(n, c * kh * kw, out_h * out_w)


def col2im(cols: np.ndarray, input_shape: tuple[int, int, int, int],
           kernel: tuple[int, int], stride: tuple[int, int],
           padding: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add columns back into an image.

    Overlapping patch positions are accumulated, which makes this exactly the
    adjoint operation needed for the convolution input gradient.
    """
    n, c, h, w = input_shape
    kh, kw = kernel
    out_h = _output_size(h, kh, stride[0], padding[0])
    out_w = _output_size(w, kw, stride[1], padding[1])
    patches = cols.reshape(n, c, kh, kw, out_h, out_w)
    return _fold(patches, (h, w), stride, padding)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    Parameters
    ----------
    x:
        Input tensor of shape ``(N, C_in, H, W)``.
    weight:
        Filter tensor of shape ``(C_out, C_in, kh, kw)``.
    bias:
        Optional bias of shape ``(C_out,)``.
    stride, padding:
        Integers or ``(h, w)`` pairs.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"input channels {c_in} do not match weight channels {c_in_w}")

    patches = _unfold(x.data, (kh, kw), stride, padding)
    out_h, out_w = patches.shape[4:]
    # One copy, in (c, i, j, n, oh, ow) order: the patch matrix all three GEMMs share.
    cols = patches.transpose(1, 2, 3, 0, 4, 5).reshape(c_in * kh * kw, -1)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*kh*kw)
    out = w_mat @ cols  # (C_out, N*L)
    if bias is not None:
        out += bias.data.reshape(c_out, 1)
    out = np.ascontiguousarray(out.reshape(c_out, n, out_h, out_w).transpose(1, 0, 2, 3))

    parents = [x, weight] + ([bias] if bias is not None else [])

    def _backward(upstream: np.ndarray) -> list:
        # (C_out, N*L), columns in the same (n, oh, ow) order as ``cols``.
        g2d = upstream.transpose(1, 0, 2, 3).reshape(c_out, -1)
        results = []
        if x.requires_grad:
            grad_cols = (w_mat.T @ g2d).reshape(c_in, kh, kw, n, out_h, out_w)
            # Fold channel-major, where every (i, j) slab is one contiguous
            # block, then return to NCHW.
            grad_x = _fold(grad_cols.transpose(0, 3, 1, 2, 4, 5), (h, w), stride, padding)
            results.append((x, np.ascontiguousarray(grad_x.transpose(1, 0, 2, 3))))
        if weight.requires_grad:
            results.append((weight, (g2d @ cols.T).reshape(weight.shape)))
        if bias is not None and bias.requires_grad:
            results.append((bias, upstream.sum(axis=(0, 2, 3))))
        return results

    return Tensor._make(out, parents, _backward, name="conv2d")


def max_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Max pooling over spatial windows of an NCHW input.

    The border is padded with ``-inf``, so padding never wins a window and
    never receives gradient.
    """
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape

    patches = _unfold(x.data, kernel, stride, padding, fill=-np.inf)
    window_shape = patches.shape
    out_h, out_w = window_shape[4:]
    cols = patches.reshape(n, c, kernel[0] * kernel[1], out_h * out_w)
    argmax = cols.argmax(axis=2)
    out = np.take_along_axis(cols, argmax[:, :, None, :], axis=2).squeeze(2)
    out = out.reshape(n, c, out_h, out_w)

    def _backward(upstream: np.ndarray) -> list:
        if not x.requires_grad:
            return []
        grad_patches = np.zeros(window_shape, dtype=np.float64)
        up = upstream.reshape(n, c, 1, out_h * out_w)
        np.put_along_axis(grad_patches.reshape(n, c, -1, out_h * out_w),
                          argmax[:, :, None, :], up, axis=2)
        grad_x = _fold(grad_patches, (h, w), stride, padding)
        return [(x, grad_x)]

    return Tensor._make(out, (x,), _backward, name="max_pool2d")


def avg_pool2d(x: Tensor, kernel_size=2, stride=None, padding=0) -> Tensor:
    """Average pooling over spatial windows of an NCHW input (zero padding counts)."""
    kernel = _pair(kernel_size)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    window = kernel[0] * kernel[1]

    patches = _unfold(x.data, kernel, stride, padding)
    window_shape = patches.shape
    out_h, out_w = window_shape[4:]
    cols = patches.reshape(n, c, window, out_h * out_w)
    out = cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def _backward(upstream: np.ndarray) -> list:
        if not x.requires_grad:
            return []
        up = upstream.reshape(n, c, 1, 1, out_h, out_w) / window
        grad_x = _fold(np.broadcast_to(up, window_shape), (h, w), stride, padding)
        return [(x, grad_x)]

    return Tensor._make(out, (x,), _backward, name="avg_pool2d")


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over the full spatial extent, returning shape ``(N, C, 1, 1)``."""
    return x.mean(axis=(2, 3), keepdims=True)
