"""Compositions of small tape ops: the references the package's fused ops are
compared against.

Each op here records one tape node and keeps its own output. The transformer
layer is composed as the package computed it before its attention,
feed-forward and residual-plus-layernorm blocks became one op each, and the
dual loss as its two terms weighted by `mul` and summed by `add`, as the
package built it before `loss.total_loss` became one op. The functions read
the parameters of the package's modules, so a reference and a fused forward
of the same module share every weight. `conv_bn_relu` runs its stages as
unfused conv -> batchnorm -> relu ops: `conv1d` with a constant zero bias, the
stage's conv having none, then `BatchNorm1d.forward` and `relu`, each op
keeping its output; given room for a transposed conv, it copies its result
into the tail of a buffer (`into_tail`), where the package's op writes it.
`concat_channels` joins the transposed conv's output and the skip as the
package did before `conv_transpose1d` wrote both into one buffer.
`layer_norm_keeping_x_hat` is the residual layer norm as one op that keeps
x_hat, as the package ran it before its backward recomputed x_hat.

`synth_ecg`, `gen_bw` and `gen_em` are the synthesis loops as the package
ran them before it drew each record's jitter at once: one beat, one bump and
one electrode pop per iteration, each scalar drawn where the loop reaches it.
The package's vectorized synthesis must match them bit for bit.
"""

import math

import numpy as np

from ecgdenoise.data import _BEAT_BUMPS
from ecgdenoise.layers import NORM_EPS, _layernorm_grads, conv1d
from ecgdenoise.loss import LossReport, spectral_loss
from ecgdenoise.tensor import ShapeMismatch, Tensor, accumulate_grad, apply_op


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _align(op: str, a: Tensor, b: Tensor):
    """Match `b` against `a`: the same shape, or a's shape without its leading
    (batch) axis, broadcast over it.

    Returns (view of b.data broadcastable to a.shape, reducer) where
    `reducer(g)` collapses an upstream gradient of a.shape back to b.shape.
    """
    if b.shape == a.shape:
        return b.data, lambda g: g
    if b.ndim == a.ndim - 1 and b.shape == a.shape[1:]:
        return b.data[None], lambda g: g.sum(axis=0)
    raise ShapeMismatch(op, a.shape, b.shape)


def _binary(op: str, a: Tensor, b, fwd, dfa, dfb) -> Tensor:
    """Shared body of add/mul. dfa/dfb map upstream to operand grads."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)
        out_data = fwd(a.data, c)

        def backward(g, a=a, c=c):
            accumulate_grad(a, dfa(g, a.data, c))

        return apply_op(out_data, (a,), backward)

    b = _as_tensor(b)
    b_view, reduce_b = _align(op, a, b)
    out_data = fwd(a.data, b_view)

    def backward(g, a=a, b=b, b_view=b_view, reduce_b=reduce_b):
        accumulate_grad(a, dfa(g, a.data, b_view))
        accumulate_grad(b, reduce_b(dfb(g, a.data, b_view)))

    return apply_op(out_data, (a, b), backward)


def add(a, b) -> Tensor:
    return _binary(
        "add", a, b,
        fwd=lambda x, y: x + y,
        dfa=lambda g, x, y: g,
        dfb=lambda g, x, y: g,
    )


def mul(a, b) -> Tensor:
    return _binary(
        "mul", a, b,
        fwd=lambda x, y: x * y,
        dfa=lambda g, x, y: g * y,
        dfb=lambda g, x, y: g * x,
    )


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly 0 is taken as 0."""
    a = _as_tensor(a)
    out_data = np.maximum(a.data, 0.0)

    def backward(g, a=a, out=out_data):
        accumulate_grad(a, g * (out > 0.0))

    return apply_op(out_data, (a,), backward)


def conv_bn_relu(x: Tensor, stages, training: bool, room: int = 0) -> Tensor:
    """relu(bn.forward(conv1d(x, weight, 0), training)) for each (weight, bn) of
    `stages` in turn, three tape nodes per stage; with `room`, the result is
    copied into the tail of a buffer that leaves `room` channels ahead of it,
    one node more."""
    for weight, bn in stages:
        x = relu(bn.forward(conv1d(x, weight, Tensor(np.zeros(weight.shape[0]))), training))
    return into_tail(x, room) if room else x


def into_tail(a: Tensor, room: int) -> Tensor:
    """A copy of channel-major (C, B, L) `a` as the last C channels of a new
    (room + C, B, L) buffer: the layout `conv_transpose1d` takes its skip in."""
    buf = np.empty((room + a.shape[0], *a.shape[1:]), dtype=a.data.dtype)
    buf[room:] = a.data

    def backward(g, a=a):
        accumulate_grad(a, g)

    return apply_op(buf[room:], (a,), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack channel-major (C1, B, L) and (C2, B, L) into (C1+C2, B, L), a's
    channels first: two contiguous blocks one after the other."""
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeMismatch("concat_channels", a.shape, b.shape, detail="expects rank 3")
    if a.shape[1:] != b.shape[1:]:
        raise ShapeMismatch("concat_channels", a.shape, b.shape, detail="batch/length differ")
    split = a.shape[0]

    def backward(g, a=a, b=b):
        accumulate_grad(a, g[:split])
        accumulate_grad(b, g[split:])

    return apply_op(np.concatenate([a.data, b.data]), (a, b), backward)


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


def feedforward(ff, x: Tensor) -> Tensor:
    """`FeedForward.forward` as separate linear, ReLU and linear ops."""
    return linear(ff.lin2, relu(linear(ff.lin1, x)))


def layer_norm_keeping_x_hat(ln, x: Tensor, f: Tensor) -> Tensor:
    """`LayerNorm.forward(x, f)` as the package ran it before its backward
    recomputed x_hat: one op that normalizes the sum in place and keeps that
    x_hat for its backward, forming the output in a buffer of its own."""
    gamma, beta = ln.gamma, ln.beta
    s = x.data + f.data
    mean = s.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(s.var(axis=-1, keepdims=True) + NORM_EPS)
    x_hat = np.subtract(s, mean, out=s)
    x_hat *= inv_std
    gamma_dt = gamma.data.astype(s.dtype, copy=False)
    out = x_hat * gamma_dt
    out += beta.data.astype(s.dtype, copy=False)

    def backward(g, x=x, f=f):
        gs, ggamma, gbeta = _layernorm_grads(g, x_hat, inv_std, gamma_dt)
        accumulate_grad(x, gs)
        accumulate_grad(f, gs)
        accumulate_grad(gamma, ggamma)
        accumulate_grad(beta, gbeta)

    return apply_op(out, (x, f, gamma, beta), backward)


def residual_layer_norm(ln, x: Tensor, f: Tensor) -> Tensor:
    """`LayerNorm.forward(x, f)` as an add and a layer norm."""
    return layer_norm(add(x, f), ln.gamma, ln.beta)


def transformer_layer(layer, x: Tensor) -> Tensor:
    """`TransformerEncoderLayer.forward` as 28 tape ops."""
    u = residual_layer_norm(layer.norm1, x, mhsa(layer.attn, x))
    return residual_layer_norm(layer.norm2, u, feedforward(layer.ff, u))


def smooth_l1(y_hat: Tensor, y: Tensor, beta: float = 1.0) -> Tensor:
    """Mean of the C1 piecewise loss: 0.5 e^2/beta inside |e| < beta, |e| - beta/2 outside.

    Only `y_hat` receives a gradient; the target `y` is a constant."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if y_hat.shape != y.shape:
        raise ShapeMismatch("smooth_l1", y_hat.shape, y.shape)
    e = y_hat.data - y.data
    inside = np.abs(e) < beta
    out_data = np.array([np.where(inside, 0.5 * e * e / beta, np.abs(e) - 0.5 * beta).mean()])

    def backward(g, y_hat=y_hat):
        accumulate_grad(y_hat, np.where(inside, e / beta, np.sign(e)) * (g[0] / e.size))

    return apply_op(out_data, (y_hat,), backward)


def total_loss(y_hat: Tensor, y: Tensor, config) -> tuple[Tensor, LossReport]:
    """`loss.total_loss` as smooth-L1, the spectral term, two `mul` and an `add`."""
    config.validate()
    time_term = smooth_l1(y_hat, y, config.beta)
    spectral_term = spectral_loss(y_hat, y)
    total = add(mul(time_term, config.w_time), mul(spectral_term, config.w_spectral))
    time_value, spectral_value = time_term.item(), spectral_term.item()
    report = LossReport(time_loss=time_value, spectral_loss=spectral_value,
                        total=time_value * config.w_time + spectral_value * config.w_spectral)
    return total, report


def synth_ecg(duration_s: float, fs: float, bpm: float, seed: int) -> np.ndarray:
    """The samples of `data.synth_ecg`, one beat and one bump at a time."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    signal = np.zeros(n)
    period = 60.0 / bpm

    beat = 0.5 * period
    while beat < duration_s + 0.5 * period:
        for offset, width, amp in _BEAT_BUMPS:
            amp = amp * (1.0 + rng.uniform(-0.2, 0.2))
            width = width * (1.0 + rng.uniform(-0.1, 0.1))
            center = beat + offset
            lo = max(0, int((center - 5 * width) * fs))
            hi = min(n, int((center + 5 * width) * fs) + 1)
            if lo < hi:
                seg = t[lo:hi] - center
                signal[lo:hi] += amp * np.exp(-0.5 * (seg / width) ** 2)
        beat += period * (1.0 + rng.uniform(-0.02, 0.02))
    return signal


def gen_bw(rng, n, fs):
    """`data._gen_bw`, drawing each sinusoid's parameters as it adds it."""
    t = np.arange(n) / fs
    x = np.zeros(n)
    for _ in range(3):
        freq = rng.uniform(0.05, 0.5)
        amp = rng.uniform(0.5, 1.5)
        x += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return x


def gen_em(rng, n, fs):
    """`data._gen_em`, drawing each pop's sign with `Generator.choice`."""
    x = 0.15 * rng.standard_normal(n)
    t_arrival = rng.exponential(1.0)
    duration = n / fs
    while t_arrival < duration:
        i = int(t_arrival * fs)
        tau = rng.uniform(0.01, 0.15)
        amp = rng.uniform(1.0, 3.0) * rng.choice((-1.0, 1.0))
        span = min(n - i, int(6.0 * tau * fs) + 1)
        decay = np.exp(-np.arange(span) / (tau * fs))
        x[i : i + span] += amp * decay
        t_arrival += rng.exponential(1.0)
    return x
