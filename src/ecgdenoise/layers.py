"""Parameterized 1D layers: conv, transposed conv, pooling, norms, attention.

Convolutions use the cross-correlation convention (no kernel flip). conv1d is
a short loop over kernel taps, each tap one batched BLAS matmul against a
strided view of the unpadded input, accumulated into the outputs whose
inputs lie inside the signal; neither a padded copy nor an im2col buffer is
built. The transposed convolution computes every tap in one matmul
and scatters the taps with strided adds; its backward gathers sliding windows
of the upstream gradient. Pooling is the pairwise maximum of even and odd
samples (window 2); its backward rebuilds the tie rule from the input.

The network's conv -> batchnorm -> relu stages run as one op,
`conv_bn_relu`. In training it normalizes the conv output in place with the
batch statistics (that buffer becomes x_hat), writes the affine map into one
output buffer and applies ReLU there in place; the tape keeps only the input,
x_hat and the output. Its backward masks the upstream gradient with
``out > 0``, applies the batchnorm closed form (built in x_hat's buffer), then
the conv backward. In eval the running statistics fold into the conv weights
and bias, ReLU runs in place, and nothing is recorded. `BatchNorm1d.forward`
is the unfused reference the tests and the gradient checker compare against;
it shares the statistics and the eval fold with the fused op.

`Module` names parameters (trainable tensors) and buffers (ndarrays) by
attribute, in assignment order: child module ``a`` adds the prefix ``a.``, the
i-th module of list ``a`` adds ``a{i}.`` (from 1). Checkpoints use these names.

Backward rules live in module-level ``_*_grads`` helpers, looked up at call
time, so a verification harness can swap one out and confirm the gradient
checker catches it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import (
    ShapeMismatch,
    Tensor,
    accumulate_grad,
    add,
    apply_op,
    bmm,
    matmul,
    mul,
    relu,
    reshape,
    softmax_last,
    transpose_last,
)

__all__ = [
    "Module",
    "Conv1d",
    "ConvTranspose1d",
    "BatchNorm1d",
    "LayerNorm",
    "Linear",
    "MultiHeadSelfAttention",
    "FeedForward",
    "TransformerEncoderLayer",
    "conv1d",
    "conv_bn_relu",
    "conv_transpose1d",
    "maxpool1d",
    "layer_norm",
    "positional_encoding",
]


class Module:
    """Base of every layer and block; see the module docstring for the naming rule."""

    def _walk(self, leaf):
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from ((f"{attr}.{n}", v) for n, v in value._walk(leaf))
            elif isinstance(value, list):
                for i, child in enumerate(value, start=1):
                    yield from ((f"{attr}{i}.{n}", v) for n, v in child._walk(leaf))
            elif leaf(value):
                yield attr, value

    def parameters(self):
        """Stable, deterministic (name, tensor) list of trainable tensors; each exactly once."""
        return list(self._walk(lambda v: isinstance(v, Tensor) and v.requires_grad))

    def state_arrays(self):
        """Non-trained buffers that still belong in a checkpoint, in the same order."""
        return list(self._walk(lambda v: isinstance(v, np.ndarray)))


def _uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# convolution


def conv_out_len(length: int, kernel: int, stride: int, padding: int) -> int:
    return (length + 2 * padding - kernel) // stride + 1


def _tap_spans(in_len, out_len, kernel, stride, padding):
    """Per tap t: (t, outputs, inputs), slices pairing the outputs whose tap-t
    input lies inside the unpadded signal with those inputs. Every other
    output would read padding there, which adds zero."""
    for t in range(kernel):
        lo = max(0, -((t - padding) // stride))
        hi = min(out_len, (in_len - 1 + padding - t) // stride + 1)
        if hi > lo:
            start = lo * stride + t - padding
            yield t, slice(lo, hi), slice(start, start + (hi - lo - 1) * stride + 1, stride)


def _conv1d_forward(x, w, stride, padding):
    batch, _, in_len = x.shape
    c_out, _, kernel = w.shape
    out_len = conv_out_len(in_len, kernel, stride, padding)
    taps = list(_tap_spans(in_len, out_len, kernel, stride, padding))
    # (C_out, C_in) @ (B, C_in, n) per tap, on a strided view of the input. A tap that
    # reaches every output (the centre tap of a padded k=3 conv) starts the sum in place
    # of a zero fill; addition commutes, so for k=3 the bits match summing in tap order.
    whole = next((tap for tap in taps if tap[1] == slice(0, out_len)), None)
    if whole is None:
        out = np.zeros((batch, c_out, out_len))
    else:
        taps.remove(whole)
        out = np.matmul(w[:, :, whole[0]], x[:, :, whole[2]])
    for t, outputs, inputs in taps:
        out[:, :, outputs] += np.matmul(w[:, :, t], x[:, :, inputs])
    return out


def _conv1d_grads(g, x, w, stride, padding):
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)  # a tap that reads only padding has zero gradient
    for t, outputs, inputs in _tap_spans(x.shape[2], g.shape[2], w.shape[2], stride, padding):
        g_t = g[:, :, outputs]
        gw[:, :, t] = np.matmul(g_t, x[:, :, inputs].transpose(0, 2, 1)).sum(0)
        gx[:, :, inputs] += np.matmul(w[:, :, t].T, g_t)
    gb = g.sum(axis=(0, 2))
    return gx, gw, gb


def _check_conv1d(x: Tensor, weight: Tensor, padding: int) -> None:
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeMismatch("conv1d", x.shape, weight.shape, detail="expects rank-3 input and weight")
    if x.shape[1] != weight.shape[1]:
        raise ShapeMismatch("conv1d", x.shape, weight.shape, detail="channel counts differ")
    if x.shape[2] + 2 * padding < weight.shape[2]:
        raise ShapeMismatch("conv1d", x.shape, weight.shape, detail="input shorter than kernel")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate (B, C_in, L) with (C_out, C_in, k) weights."""
    _check_conv1d(x, weight, padding)
    out_data = _conv1d_forward(x.data, weight.data, stride, padding)
    out_data += bias.data.reshape(1, -1, 1)

    def backward(g, x=x, weight=weight, bias=bias):
        gx, gw, gb = _conv1d_grads(g, x.data, weight.data, stride, padding)
        accumulate_grad(x, gx)
        accumulate_grad(weight, gw)
        accumulate_grad(bias, gb)

    return apply_op(out_data, (x, weight, bias), backward)


def _conv_transpose1d_forward(x, w, stride):
    batch, c_in, length = x.shape
    _, c_out, kernel = w.shape
    # every tap's contribution at once: (C_out*k, C_in) @ (B, C_in, L)
    taps = np.matmul(w.reshape(c_in, c_out * kernel).T, x).reshape(batch, c_out, kernel, length)
    out = np.zeros((batch, c_out, (length - 1) * stride + kernel))
    span = (length - 1) * stride + 1
    for t in range(kernel):
        out[:, :, t : t + span : stride] += taps[:, :, t]
    return out


def _conv_transpose1d_grads(g, x, w, stride):
    c_in, c_out, kernel = w.shape
    batch, _, length = x.shape
    # windows[b, o, i, t] = g[b, o, i*stride + t], gathered as (B, C_out*k, L)
    windows = sliding_window_view(g, kernel, axis=2)[:, :, ::stride]
    cols = windows.transpose(0, 1, 3, 2).reshape(batch, c_out * kernel, length)
    gx = np.matmul(w.reshape(c_in, c_out * kernel), cols)
    gw = np.matmul(x, cols.transpose(0, 2, 1)).sum(0).reshape(w.shape)
    gb = g.sum(axis=(0, 2))
    return gx, gw, gb


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int) -> Tensor:
    """Adjoint of a stride-s conv: (B, C_in, L) -> (B, C_out, (L-1)*s + k)."""
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeMismatch("conv_transpose1d", x.shape, weight.shape)
    if x.shape[1] != weight.shape[0]:
        raise ShapeMismatch("conv_transpose1d", x.shape, weight.shape, detail="channel counts differ")

    out_data = _conv_transpose1d_forward(x.data, weight.data, stride)
    out_data += bias.data.reshape(1, -1, 1)

    def backward(g, x=x, weight=weight, bias=bias):
        gx, gw, gb = _conv_transpose1d_grads(g, x.data, weight.data, stride)
        accumulate_grad(x, gx)
        accumulate_grad(weight, gw)
        accumulate_grad(bias, gb)

    return apply_op(out_data, (x, weight, bias), backward)


def maxpool1d(x: Tensor) -> Tensor:
    """Maxima of non-overlapping sample pairs; a tie routes gradient to the first."""
    if x.ndim != 3:
        raise ShapeMismatch("maxpool1d", x.shape, detail="expects rank 3")
    if x.shape[2] % 2 != 0:
        raise ShapeMismatch("maxpool1d", x.shape, detail="length not divisible by 2")
    out_data = np.maximum(x.data[:, :, 0::2], x.data[:, :, 1::2])

    def backward(g, x=x):
        first = x.data[:, :, 0::2] >= x.data[:, :, 1::2]
        gx = np.empty(x.shape)
        gx[:, :, 0::2] = np.where(first, g, 0.0)
        gx[:, :, 1::2] = np.where(first, 0.0, g)
        accumulate_grad(x, gx)

    return apply_op(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# normalization


def _batchnorm_grads(g, x_hat, inv_std, gamma):
    """Closed form gx = gamma*inv_std*(g - sum(g)/m - x_hat*sum(g*x_hat)/m).

    gx is built in x_hat's buffer, which the caller owns and no longer needs.
    """
    m = g.shape[0] * g.shape[2]
    gbeta = np.einsum("bcl->c", g)
    ggamma = np.einsum("bcl,bcl->c", g, x_hat)
    gx = np.multiply(x_hat, (-ggamma / m)[:, None], out=x_hat)
    gx += g
    gx -= (gbeta / m)[:, None]
    gx *= (gamma * inv_std)[:, None]
    return gx, ggamma, gbeta


class BatchNorm1d(Module):
    """Per-channel normalization over (batch, length) with running statistics.

    Training mode normalizes with biased batch statistics and updates the
    running estimates by exponential moving average. Eval mode is inference
    only: one per-channel affine map folded from the running estimates, gamma
    and beta, recorded on no tape. The network runs it fused with its conv
    and ReLU (`conv_bn_relu`); `forward` is the unfused reference.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.momentum = momentum
        self.eps = eps

    def _normalize_batch(self, y: np.ndarray, out=None):
        """x_hat of (B, C, L) `y` under its biased batch statistics, written to
        `out` (`y` itself normalizes in place); moves the running estimates.
        Returns (x_hat, inv_std)."""
        m = y.shape[0] * y.shape[2]
        if m < 2:
            raise ShapeMismatch("batchnorm1d", y.shape, detail="need batch*length >= 2 to estimate statistics")
        mean = np.einsum("bcl->c", y) / m
        x_hat = np.subtract(y, mean[:, None], out=out)
        var = np.einsum("bcl,bcl->c", x_hat, x_hat) / m
        self.running_mean += self.momentum * (mean - self.running_mean)
        self.running_var += self.momentum * (var - self.running_var)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat *= inv_std[:, None]
        return x_hat, inv_std

    def _eval_affine(self):
        """Per-channel (scale, shift) of the eval-mode map x*scale + shift."""
        scale = self.gamma.data / np.sqrt(self.running_var + self.eps)
        return scale, self.beta.data - self.running_mean * scale

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.gamma.size:
            raise ShapeMismatch("batchnorm1d", x.shape, (self.gamma.size,))
        if not training:
            scale, shift = self._eval_affine()
            return Tensor(x.data * scale[:, None] + shift[:, None])

        gamma, beta = self.gamma, self.beta
        x_hat, inv_std = self._normalize_batch(x.data)
        out_data = x_hat * gamma.data[:, None]
        out_data += beta.data[:, None]

        def backward(g, x=x, x_hat=x_hat, inv_std=inv_std):
            gx, ggamma, gbeta = _batchnorm_grads(g, x_hat, inv_std, gamma.data)
            accumulate_grad(x, gx)
            accumulate_grad(gamma, ggamma)
            accumulate_grad(beta, gbeta)

        return apply_op(out_data, (x, gamma, beta), backward)


def conv_bn_relu(x: Tensor, conv: Conv1d, bn: BatchNorm1d, training: bool) -> Tensor:
    """relu(bn.forward(conv.forward(x), training)) as one op (module docstring)."""
    weight, bias, stride, padding = conv.weight, conv.bias, conv.stride, conv.padding
    _check_conv1d(x, weight, padding)
    if weight.shape[0] != bn.gamma.size:
        raise ShapeMismatch("conv_bn_relu", weight.shape, (bn.gamma.size,))
    if not training:
        scale, shift = bn._eval_affine()
        out = _conv1d_forward(x.data, weight.data * scale[:, None, None], stride, padding)
        out += (bias.data * scale + shift)[:, None]
        return Tensor(np.maximum(out, 0.0, out=out))

    gamma, beta = bn.gamma, bn.beta
    y = _conv1d_forward(x.data, weight.data, stride, padding)
    y += bias.data.reshape(1, -1, 1)
    x_hat, inv_std = bn._normalize_batch(y, out=y)
    out = x_hat * gamma.data[:, None]
    out += beta.data[:, None]
    np.maximum(out, 0.0, out=out)

    def backward(g, x=x, x_hat=x_hat, inv_std=inv_std, out=out):
        g, ggamma, gbeta = _batchnorm_grads(g * (out > 0.0), x_hat, inv_std, gamma.data)
        gx, gw, gb = _conv1d_grads(g, x.data, weight.data, stride, padding)
        accumulate_grad(x, gx)
        accumulate_grad(weight, gw)
        accumulate_grad(bias, gb)
        accumulate_grad(gamma, ggamma)
        accumulate_grad(beta, gbeta)

    return apply_op(out, (x, weight, bias, gamma, beta), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last (feature) axis, one token at a time."""
    if x.shape[-1] != gamma.size:
        raise ShapeMismatch("layer_norm", x.shape, gamma.shape)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    gshape = (1,) * (x.ndim - 1) + (gamma.size,)
    out_data = gamma.data.reshape(gshape) * x_hat + beta.data.reshape(gshape)
    lead_axes = tuple(range(x.ndim - 1))

    def backward(g, x=x, gamma=gamma, beta=beta, x_hat=x_hat, inv_std=inv_std):
        gg = g * gamma.data.reshape(gshape)
        mean_gg = gg.mean(axis=-1, keepdims=True)
        mean_ggx = (gg * x_hat).mean(axis=-1, keepdims=True)
        accumulate_grad(x, inv_std * (gg - mean_gg - x_hat * mean_ggx))
        accumulate_grad(gamma, (g * x_hat).sum(axis=lead_axes))
        accumulate_grad(beta, g.sum(axis=lead_axes))

    return apply_op(out_data, (x, gamma, beta), backward)


class LayerNorm(Module):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gamma, self.beta, self.eps)


# ---------------------------------------------------------------------------
# layer classes


class Conv1d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, *, rng: np.random.Generator):
        fan_in = in_channels * kernel_size
        self.weight = Tensor(
            _uniform_init(rng, (out_channels, in_channels, kernel_size), fan_in),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias, self.stride, self.padding)


class ConvTranspose1d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int, *, rng: np.random.Generator):
        fan_in = in_channels * kernel_size
        self.weight = Tensor(
            _uniform_init(rng, (in_channels, out_channels, kernel_size), fan_in),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return conv_transpose1d(x, self.weight, self.bias, self.stride)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator,
                 bias: bool = True):
        self.weight = Tensor(
            _uniform_init(rng, (in_features, out_features), in_features),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        orig_shape = x.shape
        if x.ndim == 3:
            x = reshape(x, (orig_shape[0] * orig_shape[1], orig_shape[2]))
        y = matmul(x, self.weight)
        if self.bias is not None:
            y = add(y, self.bias)
        if len(orig_shape) == 3:
            y = reshape(y, (orig_shape[0], orig_shape[1], self.weight.shape[1]))
        return y


def positional_encoding(tokens: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal table: even columns sin, odd columns cos."""
    if dim % 2 != 0:
        raise ShapeMismatch("positional_encoding", (tokens, dim), detail="dim must be even")
    pos = np.arange(tokens)[:, None]
    i = np.arange(dim // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / dim)
    table = np.zeros((tokens, dim))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return table


def _fold_heads(a: np.ndarray, batch: int, heads: int) -> np.ndarray:
    """(B*T, H*d) -> (B*H, T, d): each head becomes its own batch entry."""
    tokens, width = a.shape[0] // batch, a.shape[-1] // heads
    return a.reshape(batch, tokens, heads, width).transpose(0, 2, 1, 3).reshape(batch * heads, tokens, width)


def _unfold_heads(a: np.ndarray, batch: int, heads: int) -> np.ndarray:
    """(B*H, T, d) -> (B*T, H*d), the inverse of `_fold_heads`."""
    _, tokens, width = a.shape
    return a.reshape(batch, heads, tokens, width).transpose(0, 2, 1, 3).reshape(batch * tokens, heads * width)


def _split_heads(a: Tensor, batch: int, heads: int) -> Tensor:
    def backward(g, a=a):
        accumulate_grad(a, _unfold_heads(g, batch, heads))

    return apply_op(_fold_heads(a.data, batch, heads), (a,), backward)


def _merge_heads(a: Tensor, batch: int, heads: int) -> Tensor:
    def backward(g, a=a):
        accumulate_grad(a, _fold_heads(g, batch, heads))

    return apply_op(_unfold_heads(a.data, batch, heads), (a,), backward)


class MultiHeadSelfAttention(Module):
    """Scaled dot-product attention across H heads, concatenated and projected.

    Input is (B, T, d); each batch element's sequence attends to itself only.
    Heads are folded into the batch axis, so every head runs in the same
    batched matmuls. Projections carry no bias terms.
    """

    def __init__(self, dim: int, heads: int, *, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeMismatch("mhsa", (dim,), (heads,), detail="heads must divide dim")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = Tensor(_uniform_init(rng, (dim, dim), dim), requires_grad=True)
        self.w_k = Tensor(_uniform_init(rng, (dim, dim), dim), requires_grad=True)
        self.w_v = Tensor(_uniform_init(rng, (dim, dim), dim), requires_grad=True)
        self.w_o = Tensor(_uniform_init(rng, (dim, dim), dim), requires_grad=True)

    def _project(self, x2: Tensor, w: Tensor, batch: int) -> Tensor:
        return _split_heads(matmul(x2, w), batch, self.heads)

    def _attention(self, x2: Tensor, batch: int) -> Tensor:
        """Attention rows (B*H, T, T) for token rows x2 of shape (B*T, d)."""
        # the scale goes on q, which is head_dim/T the size of the scores
        q = mul(self._project(x2, self.w_q, batch), 1.0 / math.sqrt(self.head_dim))
        k = self._project(x2, self.w_k, batch)
        return softmax_last(bmm(q, transpose_last(k)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.dim:
            raise ShapeMismatch("mhsa", x.shape, (self.dim,))
        batch, tokens, dim = x.shape
        x2 = reshape(x, (batch * tokens, dim))
        heads_out = bmm(self._attention(x2, batch), self._project(x2, self.w_v, batch))
        out = matmul(_merge_heads(heads_out, batch, self.heads), self.w_o)
        return reshape(out, (batch, tokens, dim))

    def attention_weights(self, x: Tensor) -> np.ndarray:
        """Per-head attention rows for inspection: (H, B, T, T)."""
        batch, tokens, dim = x.shape
        rows = self._attention(reshape(x, (batch * tokens, dim)), batch).data
        return rows.reshape(batch, self.heads, tokens, tokens).transpose(1, 0, 2, 3)


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU."""

    def __init__(self, dim: int, hidden: int, *, rng: np.random.Generator):
        self.lin1 = Linear(dim, hidden, rng=rng)
        self.lin2 = Linear(hidden, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.lin2.forward(relu(self.lin1.forward(x)))


class TransformerEncoderLayer(Module):
    """Post-norm encoder layer: LN(x + attention(x)), then LN(u + mlp(u))."""

    def __init__(self, dim: int, heads: int, d_ff: int, *, rng: np.random.Generator):
        self.attn = MultiHeadSelfAttention(dim, heads, rng=rng)
        self.ff = FeedForward(dim, d_ff, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        u = self.norm1.forward(add(x, self.attn.forward(x)))
        return self.norm2.forward(add(u, self.ff.forward(u)))
