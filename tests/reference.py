"""The transformer layer as a composition of small tape ops: the reference the
fused ops in `ecgdenoise.layers` are compared against.

Each op here records one tape node and keeps its own output, as the package
did before its attention, feed-forward and residual-plus-layernorm blocks
became one op each. The functions read the parameters of the package's
modules, so a reference and a fused forward of the same module share every
weight.
"""

import math

import numpy as np

from ecgdenoise.layers import NORM_EPS
from ecgdenoise.tensor import ShapeMismatch, Tensor, accumulate_grad, add, apply_op, mul


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g, a=a, out=out_data):
        accumulate_grad(a, g * (out > 0.0))

    return apply_op(out_data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch("matmul", a.shape, b.shape, detail="expects 2D @ 2D")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape, detail="inner dims differ")

    def backward(g, a=a, b=b):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return apply_op(a.data @ b.data, (a, b), backward)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: (B, m, k) @ (B, k, n) -> (B, m, n)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeMismatch("bmm", a.shape, b.shape)

    def backward(g, a=a, b=b):
        accumulate_grad(a, np.matmul(g, b.data.swapaxes(1, 2)))
        accumulate_grad(b, np.matmul(a.data.swapaxes(1, 2), g))

    return apply_op(np.matmul(a.data, b.data), (a, b), backward)


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes of a rank-2/3 tensor."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeMismatch("transpose_last", a.shape, detail="needs rank >= 2")

    def backward(g, a=a):
        accumulate_grad(a, np.swapaxes(g, -1, -2))

    return apply_op(np.swapaxes(a.data, -1, -2), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)

    def backward(g, a=a):
        accumulate_grad(a, g.reshape(a.shape))

    return apply_op(a.data.reshape(tuple(shape)), (a,), backward)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)

    def backward(g, a=a):
        accumulate_grad(a, np.full_like(a.data, g[0]))

    return apply_op(np.array([a.data.sum()]), (a,), backward)


def softmax_last(a: Tensor) -> Tensor:
    """Softmax over the last axis (rows sum to 1)."""
    a = _as_tensor(a)
    out_data = a.data - a.data.max(axis=-1, keepdims=True)
    np.exp(out_data, out=out_data)
    out_data /= out_data.sum(axis=-1, keepdims=True)

    def backward(g, a=a, s=out_data):
        gx = g - np.einsum("...i,...i->...", g, s)[..., None]
        gx *= s
        accumulate_grad(a, gx)

    return apply_op(out_data, (a,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last (feature) axis, one token at a time."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
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


def linear(lin, x: Tensor) -> Tensor:
    """x @ weight + bias over the last axis of a rank-2 or rank-3 input."""
    shape = x.shape
    if x.ndim == 3:
        x = reshape(x, (shape[0] * shape[1], shape[2]))
    y = add(matmul(x, lin.weight), lin.bias)
    return reshape(y, shape[:-1] + (lin.weight.shape[1],)) if len(shape) == 3 else y


def _split_heads(a: Tensor, batch: int, heads: int) -> Tensor:
    """(B*T, H*e) -> (B*H, T, e)."""
    tokens, width = a.shape[0] // batch, a.shape[1] // heads

    def backward(g, a=a):
        accumulate_grad(a, g.reshape(batch, heads, tokens, width).transpose(0, 2, 1, 3).reshape(a.shape))

    folded = a.data.reshape(batch, tokens, heads, width).transpose(0, 2, 1, 3)
    return apply_op(folded.reshape(batch * heads, tokens, width), (a,), backward)


def _merge_heads(a: Tensor, batch: int) -> Tensor:
    """(B*H, T, e) -> (B*T, H*e), the inverse of `_split_heads`."""
    folded, tokens, width = a.shape
    heads = folded // batch

    def backward(g, a=a):
        accumulate_grad(a, g.reshape(batch, tokens, heads, width).transpose(0, 2, 1, 3).reshape(a.shape))

    merged = a.data.reshape(batch, heads, tokens, width).transpose(0, 2, 1, 3)
    return apply_op(merged.reshape(batch * tokens, heads * width), (a,), backward)


def _attention(attn, x2: Tensor, batch: int) -> Tensor:
    """Attention rows (B*H, T, T) for token rows x2 of shape (B*T, d)."""
    q = mul(_split_heads(matmul(x2, attn.w_q), batch, attn.heads), 1.0 / math.sqrt(attn.head_dim))
    k = _split_heads(matmul(x2, attn.w_k), batch, attn.heads)
    return softmax_last(bmm(q, transpose_last(k)))


def mhsa(attn, x: Tensor) -> Tensor:
    """`MultiHeadSelfAttention.forward` as 15 tape ops."""
    batch, tokens, dim = x.shape
    x2 = reshape(x, (batch * tokens, dim))
    heads_out = bmm(_attention(attn, x2, batch), _split_heads(matmul(x2, attn.w_v), batch, attn.heads))
    return reshape(matmul(_merge_heads(heads_out, batch), attn.w_o), (batch, tokens, dim))


def attention_weights(attn, x: Tensor) -> np.ndarray:
    """`MultiHeadSelfAttention.attention_weights` from the unfused ops: (H, B, T, T)."""
    batch, tokens, dim = x.shape
    rows = _attention(attn, reshape(x, (batch * tokens, dim)), batch).data
    return rows.reshape(batch, attn.heads, tokens, tokens).transpose(1, 0, 2, 3)


def feedforward(ff, x: Tensor) -> Tensor:
    """`FeedForward.forward` as separate linear, ReLU and linear ops."""
    return linear(ff.lin2, relu(linear(ff.lin1, x)))


def residual_layer_norm(ln, x: Tensor, f: Tensor) -> Tensor:
    """`LayerNorm.forward(x, f)` as an add and a layer norm."""
    return layer_norm(add(x, f), ln.gamma, ln.beta)


def transformer_layer(layer, x: Tensor) -> Tensor:
    """`TransformerEncoderLayer.forward` as 28 tape ops."""
    u = residual_layer_norm(layer.norm1, x, mhsa(layer.attn, x))
    return residual_layer_norm(layer.norm2, u, feedforward(layer.ff, u))
