"""Parameterized 1D layers: conv, transposed conv, pooling, norms, attention.

Activations inside the U-Net are channel-major: (C, B, L) arrays whose memory
is contiguous (C, B*L) rows, every segment of the batch one run of L samples
in each channel's row. A conv, a transposed conv or a per-channel map then
works on all B*L columns at once: one 2-D GEMM or one broadcast over rows, in
place of a loop of small per-segment products. Only the shifts of a conv's
outer taps, and the pairing of samples in pooling, are taken inside each
segment, so no sample reaches into its neighbour. The transformer layers take
token-major (B, T, d) input.

Convolutions use the cross-correlation convention (no kernel flip) and take
only the shapes the network builds. conv1d is length-preserving: odd kernel
k, stride 1, zero padding k // 2. Its forward is one GEMM whose k taps are
stacked on the smaller channel side, so the extra buffer is k times the
smaller of input and output. With C_in <= C_out, the k copies of the input,
each shifted to its tap within every segment and zero where the tap reads
padding, form a (k*C_in, B*L) stack, and one (C_out, k*C_in) product writes
the output. With C_in > C_out, one (k*C_out, C_in) product forms every tap's
output rows, and the outer taps are added shifted within each segment onto
the centre tap, into an output of its own. With k = 1 both are one plain GEMM.
The output is allocated before the stack: a prototype with the other order
read a 5-9% higher peak RSS under the pinned heap (`heap`). The input
gradient is the same forward on the upstream gradient, with the weights'
channel axes swapped and their taps reversed, so the rule picks its own side
there. The weight gradient stays one GEMM per tap over the unshifted rows
(`_segment_products`): forming it from the same stack measured no faster.
The transposed convolution up-samples 2x
(kernel 2, stride 2) as pooling down-samples with window 2: one GEMM computes
both taps, written interleaved into the first channels of the output. Given a
skip, as every decoder level gives it, the op copies the skip after them, so
the decoder's concatenation is no op of its own and keeps no second copy of
the up-sampled features; its backward hands the first channels' gradient to
the transposed-conv rule and the rest to the skip. Pooling is the pairwise
maximum of even and odd samples; its backward rebuilds the tie rule from the
input. The norms' momentum and eps are module constants.

The network's conv -> batchnorm -> relu stages run as one op per double conv,
`conv_bn_relu`, over a sequence of (weight, bn) stages; one stage is the
one-element case. Its convs have no bias, which batchnorm's mean would cancel.
In training each stage normalizes its conv output in place with the batch
statistics (that buffer becomes x_hat) and writes the affine map, then ReLU in
place, into one new buffer, the next stage's input. The tape keeps the op's
input, each stage's x_hat and inverse std, and the last stage's output. The
backward masks the upstream gradient with ``out > 0``, then per stage, last
first, applies the batchnorm closed form (built in x_hat's buffer) and forms
the conv's input gradient. Only then does it recompute the stage's input, the
stage before's output, from that stage's x_hat with the forward's own calls,
so the same bits: it serves the conv's weight gradient and the stage before's
ReLU mask, and is dropped. Formed after the input gradient, it does not sit
beside that gradient's tap stack, and each stage's saved arrays go as the
stage ends: the backward of the widest double conv sets the training step's
traced peak. In eval each stage's running statistics
fold into its conv weights (``w * scale``) and one per-channel shift, ReLU runs
in place, and nothing is recorded. `BatchNorm1d.forward` is the unfused
reference the tests compare against (the gradient checker's `batchnorm1d`
entry checks a two-stage fused op itself); it shares the statistics and the
eval fold with the fused op.

The transformer encoder layer is four ops, each keeping for its backward
only what that backward reads. Attention projects q, k and v with one GEMM
against w_q|w_k|w_v, stacked at call time, folds the heads into the batch
axis once, and runs softmax and its backward in place; it keeps q, k, v, the
attention rows and the merged heads, and forms its input gradient as one GEMM
against the stacked weights. The feed-forward keeps its post-ReLU hidden
activation. Each residual sum and its layer norm, LN(x + f), is one op that
keeps x_hat. The tests hold the unfused composition of small tape ops as the
reference these are compared against.

The parameters are float64, and every op runs in its input's dtype, float64
or float32: it casts its weights to that dtype per call, and its backward
rule reuses the cast its forward made, so a float32 forward and backward stay
float32 throughout and hand back float32 gradients for the float64
parameters. For float64 input the cast returns the same arrays. Batchnorm's
running estimates stay float64 whatever the input.

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

from .tensor import ShapeMismatch, Tensor, accumulate_grad, apply_op

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
    "positional_encoding",
    "uniform_param",
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


def uniform_param(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """A trainable tensor of `shape`, drawn uniform within 1/sqrt(fan_in)."""
    bound = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# convolution


def _rows(a: np.ndarray) -> np.ndarray:
    """A (C, B, L) array as its (C, B*L) rows: a view when `a` is C-contiguous."""
    return a.reshape(a.shape[0], -1)


def _tap_spans(length, kernel):
    """Per tap t: (t, outputs, inputs), slices of a segment pairing the outputs
    whose tap-t input, t - kernel//2 samples away, lies inside the segment with
    those inputs. Every other output would read padding there, which adds zero."""
    for t in range(kernel):
        shift = t - kernel // 2
        n = length - abs(shift)  # not positive when the tap reads only padding
        if n > 0:
            out0, in0 = max(0, -shift), max(0, shift)
            yield t, slice(out0, out0 + n), slice(in0, in0 + n)


def _conv1d_forward(x, w):
    # One GEMM whose k taps are stacked on the smaller channel side; the
    # output is allocated first (module docstring).
    c_out, c_in, kernel = w.shape
    _, batch, length = x.shape
    out = np.empty((c_out, batch, length), dtype=np.result_type(x, w))
    if kernel == 1:
        np.matmul(w[:, :, 0], _rows(x), out=_rows(out))
    elif c_in <= c_out:
        # (C_out, k*C_in) @ (k*C_in, B*L); row block t of the stack is x shifted
        # to tap t within each segment. Only the first and last k//2 samples of
        # a segment can read padding, so only they are zero-filled first.
        stack = np.empty((kernel, c_in, batch, length), dtype=out.dtype)
        stack[..., : kernel // 2] = 0.0
        stack[..., length - kernel // 2 :] = 0.0
        for t, outputs, inputs in _tap_spans(length, kernel):
            stack[t][:, :, outputs] = x[:, :, inputs]
        np.matmul(w.transpose(0, 2, 1).reshape(c_out, -1), stack.reshape(kernel * c_in, -1), out=_rows(out))
    else:
        # (k*C_out, C_in) @ (C_in, B*L); row block t is tap t's product. The
        # centre tap reaches every output and starts the sum; an outer tap is
        # added shifted within each segment.
        centre = kernel // 2
        taps = (w.transpose(2, 0, 1).reshape(-1, c_in) @ _rows(x)).reshape(kernel, *out.shape)
        out[...] = taps[centre]
        for t, outputs, inputs in _tap_spans(length, kernel):
            if t != centre:
                out[:, :, outputs] += taps[t][:, :, inputs]
    return out


def _segment_products(a, b, shift):
    """sum over segments s and samples i of a[:, s, i] b[:, s, i + shift]^T, a
    (C_a, C_b) array, for 0 <= shift < L: one GEMM over the flattened rows,
    less the products it also formed across each boundary between segments."""
    a2, b2 = _rows(a), _rows(b)
    out = a2[:, : a2.shape[1] - shift] @ b2[:, shift:].T
    out -= _rows(a[:, :-1, a.shape[2] - shift :]) @ _rows(b[:, 1:, :shift]).T
    return out


def _conv1d_input_grad(g, w):
    """The conv of upstream g with the channel-swapped, tap-reversed weights."""
    return _conv1d_forward(g, w.transpose(1, 0, 2)[:, :, ::-1])


def _conv1d_weight_grad(g, x, w):
    gw = np.zeros_like(w)  # a tap that reads only padding has zero gradient
    for t, _, _ in _tap_spans(x.shape[2], w.shape[2]):
        shift = t - w.shape[2] // 2
        gw[:, :, t] = _segment_products(g, x, shift) if shift >= 0 else _segment_products(x, g, -shift).T
    return gw


def _conv1d_grads(g, x, w):
    return _conv1d_input_grad(g, w), _conv1d_weight_grad(g, x, w)


def _check_conv1d(x_shape, w_shape) -> None:
    if len(x_shape) != 3 or len(w_shape) != 3:
        raise ShapeMismatch("conv1d", x_shape, w_shape, detail="expects rank-3 input and weight")
    if x_shape[0] != w_shape[1]:
        raise ShapeMismatch("conv1d", x_shape, w_shape, detail="channel counts differ")
    if w_shape[2] % 2 == 0:
        raise ShapeMismatch("conv1d", x_shape, w_shape, detail="kernel length must be odd")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Cross-correlate channel-major (C_in, B, L) with (C_out, C_in, k) weights,
    k odd, zero padding k // 2 at each end of every segment: (C_out, B, L)."""
    _check_conv1d(x.shape, weight.shape)
    dt = x.data.dtype
    w = weight.data.astype(dt, copy=False)
    out_data = _conv1d_forward(x.data, w)
    out_data += bias.data.astype(dt, copy=False)[:, None, None]

    def backward(g, x=x, weight=weight, bias=bias):
        gx, gw = _conv1d_grads(g, x.data, w)
        accumulate_grad(x, gx)
        accumulate_grad(weight, gw)
        accumulate_grad(bias, np.einsum("cbl->c", g))

    return apply_op(out_data, (x, weight, bias), backward)


def _conv_transpose1d_forward(x, w, skip=None):
    """The transposed conv of (C_in, B, L) `x`, its two taps interleaved into
    the first C_out channels of a (C_out + C_skip, B, 2L) buffer, and the
    (C_skip, B, 2L) `skip`, if one is given, copied after them."""
    c_in, batch, length = x.shape
    c_out = w.shape[1]
    # both taps at once: (C_out*2, C_in) @ (C_in, B*L); tap t lands on samples 2i + t
    taps = (w.reshape(c_in, c_out * 2).T @ _rows(x)).reshape(c_out, 2, batch, length)
    c_skip = 0 if skip is None else skip.shape[0]
    out = np.empty((c_out + c_skip, batch, length, 2), dtype=taps.dtype)
    out[:c_out, ..., 0], out[:c_out, ..., 1] = taps[:, 0], taps[:, 1]
    out = out.reshape(c_out + c_skip, batch, 2 * length)
    if c_skip:
        out[c_out:] = skip
    return out


def _conv_transpose1d_grads(g, x, w):
    c_in, c_out, _ = w.shape
    _, batch, length = x.shape
    # cols[o*2 + t, s*L + i] = g[o, s, 2i + t]
    cols = g.reshape(c_out, batch, length, 2).transpose(0, 3, 1, 2).reshape(c_out * 2, batch * length)
    gx = (w.reshape(c_in, c_out * 2) @ cols).reshape(x.shape)
    gw = (_rows(x) @ cols.T).reshape(w.shape)
    gb = np.einsum("cbl->c", g)
    return gx, gw, gb


def conv_transpose1d(x: Tensor, weight: Tensor, bias: Tensor, skip: Tensor | None = None) -> Tensor:
    """Adjoint of a kernel-2, stride-2 conv: channel-major (C_in, B, L) -> (C_out, B, 2L),
    followed along the channel axis by `skip` (C_skip, B, 2L) when one is given."""
    if x.ndim != 3 or weight.ndim != 3:
        raise ShapeMismatch("conv_transpose1d", x.shape, weight.shape)
    if x.shape[0] != weight.shape[0]:
        raise ShapeMismatch("conv_transpose1d", x.shape, weight.shape, detail="channel counts differ")
    if weight.shape[2] != 2:
        raise ShapeMismatch("conv_transpose1d", x.shape, weight.shape, detail="kernel length must be 2")
    if skip is not None and (skip.ndim != 3 or skip.shape[1:] != (x.shape[1], 2 * x.shape[2])):
        raise ShapeMismatch("conv_transpose1d", x.shape, skip.shape, detail="skip is not (C, B, 2L)")

    dt = x.data.dtype
    c_out = weight.shape[1]
    w = weight.data.astype(dt, copy=False)
    out_data = _conv_transpose1d_forward(x.data, w, None if skip is None else skip.data)
    out_data[:c_out] += bias.data.astype(dt, copy=False)[:, None, None]

    def backward(g, x=x, weight=weight, bias=bias, skip=skip):
        gx, gw, gb = _conv_transpose1d_grads(g[:c_out], x.data, w)
        accumulate_grad(x, gx)
        accumulate_grad(weight, gw)
        accumulate_grad(bias, gb)
        if skip is not None:
            accumulate_grad(skip, g[c_out:])

    inputs = (x, weight, bias) if skip is None else (x, weight, bias, skip)
    return apply_op(out_data, inputs, backward)


def maxpool1d(x: Tensor) -> Tensor:
    """Maxima of non-overlapping sample pairs within each segment of a
    channel-major (C, B, L) input; a tie routes gradient to the first."""
    if x.ndim != 3:
        raise ShapeMismatch("maxpool1d", x.shape, detail="expects rank 3")
    if x.shape[2] % 2 != 0:
        raise ShapeMismatch("maxpool1d", x.shape, detail="length not divisible by 2")
    out_data = np.maximum(x.data[:, :, 0::2], x.data[:, :, 1::2])

    def backward(g, x=x):
        first = x.data[:, :, 0::2] >= x.data[:, :, 1::2]
        gx = np.empty_like(x.data)
        gx[:, :, 0::2] = np.where(first, g, 0.0)
        gx[:, :, 1::2] = np.where(first, 0.0, g)
        accumulate_grad(x, gx)

    return apply_op(out_data, (x,), backward)


# ---------------------------------------------------------------------------
# normalization

BN_MOMENTUM = 0.1  # weight of each training batch in batchnorm's running estimates
NORM_EPS = 1e-5  # added to every variance before its square root


def _channel_dots(a, b):
    """Per-channel sums of a*b over batch and length: one dot per channel row."""
    return np.matmul(_rows(a)[:, None, :], _rows(b)[:, :, None]).reshape(-1)


def _batchnorm_grads(g, x_hat, inv_std, gamma):
    """Closed form gx = gamma*inv_std*(g - sum(g)/m - x_hat*sum(g*x_hat)/m),
    each sum over one channel of the (C, B, L) arrays.

    gx is built in x_hat's buffer, which the caller owns and no longer needs.
    """
    m = g.shape[1] * g.shape[2]
    gbeta = np.einsum("cbl->c", g)
    ggamma = _channel_dots(g, x_hat)
    gx = np.multiply(x_hat, (-ggamma / m)[:, None, None], out=x_hat)
    gx += g
    gx -= (gbeta / m)[:, None, None]
    gx *= (gamma * inv_std)[:, None, None]
    return gx, ggamma, gbeta


class BatchNorm1d(Module):
    """Per-channel normalization over (batch, length) with running statistics.

    Takes channel-major (C, B, L) input. Training mode normalizes with biased
    batch statistics and updates the running estimates by exponential moving
    average. Eval mode is inference only: one per-channel affine map folded
    from the running estimates, gamma and beta, recorded on no tape. The
    network runs it fused with its conv and ReLU (`conv_bn_relu`); `forward`
    is the unfused reference.
    """

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def _normalize_batch(self, y: np.ndarray, out=None):
        """x_hat of (C, B, L) `y` under its biased batch statistics, written to
        `out` (`y` itself normalizes in place); moves the running estimates.
        Returns (x_hat, inv_std)."""
        m = y.shape[1] * y.shape[2]
        if m < 2:
            raise ShapeMismatch("batchnorm1d", y.shape, detail="need batch*length >= 2 to estimate statistics")
        mean = np.einsum("cbl->c", y) / m
        x_hat = np.subtract(y, mean[:, None, None], out=out)
        var = _channel_dots(x_hat, x_hat) / m
        self.running_mean += BN_MOMENTUM * (mean - self.running_mean)
        self.running_var += BN_MOMENTUM * (var - self.running_var)
        inv_std = 1.0 / np.sqrt(var + NORM_EPS)
        x_hat *= inv_std[:, None, None]
        return x_hat, inv_std

    def _eval_affine(self):
        """Per-channel (scale, shift) of the eval-mode map x*scale + shift."""
        scale = self.gamma.data / np.sqrt(self.running_var + NORM_EPS)
        return scale, self.beta.data - self.running_mean * scale

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if x.ndim != 3 or x.shape[0] != self.gamma.size:
            raise ShapeMismatch("batchnorm1d", x.shape, (self.gamma.size,))
        dt = x.data.dtype
        if not training:
            scale, shift = (a.astype(dt, copy=False)[:, None, None] for a in self._eval_affine())
            return Tensor(x.data * scale + shift)

        gamma, beta = self.gamma, self.beta
        gamma_dt = gamma.data.astype(dt, copy=False)
        x_hat, inv_std = self._normalize_batch(x.data)
        out_data = x_hat * gamma_dt[:, None, None]
        out_data += beta.data.astype(dt, copy=False)[:, None, None]

        def backward(g, x=x, x_hat=x_hat, inv_std=inv_std):
            gx, ggamma, gbeta = _batchnorm_grads(g, x_hat, inv_std, gamma_dt)
            accumulate_grad(x, gx)
            accumulate_grad(gamma, ggamma)
            accumulate_grad(beta, gbeta)

        return apply_op(out_data, (x, gamma, beta), backward)


def _bn_relu(gamma, beta, x_hat):
    """relu(x_hat * gamma + beta) per channel: a stage's output. The backward
    recomputes it with these very calls, so it gets the forward's bits."""
    h = x_hat * gamma[:, None, None]
    h += beta[:, None, None]
    return np.maximum(h, 0.0, out=h)


def conv_bn_relu(x: Tensor, stages, training: bool) -> Tensor:
    """The conv -> batchnorm -> relu `stages`, a sequence of (weight, bn), in
    turn as one op, each stage relu(bn.forward(conv1d(h, weight, 0), training))
    (module docstring)."""
    shape = x.shape
    for weight, bn in stages:
        _check_conv1d(shape, weight.shape)
        if weight.shape[0] != bn.gamma.size:
            raise ShapeMismatch("conv_bn_relu", weight.shape, (bn.gamma.size,))
        shape = (weight.shape[0], *shape[1:])
    dt = x.data.dtype
    h = x.data
    if not training:
        for weight, bn in stages:
            scale, shift = bn._eval_affine()  # folded in float64, then cast to the input's dtype
            h = _conv1d_forward(h, (weight.data * scale[:, None, None]).astype(dt, copy=False))
            h += shift.astype(dt, copy=False)[:, None, None]
            np.maximum(h, 0.0, out=h)
        return Tensor(h)

    saved = []  # per stage: w, gamma and beta in the input's dtype, x_hat, inv_std
    for weight, bn in stages:
        w, gamma, beta = (a.data.astype(dt, copy=False) for a in (weight, bn.gamma, bn.beta))
        y = _conv1d_forward(h, w)
        x_hat, inv_std = bn._normalize_batch(y, out=y)
        saved.append((w, gamma, beta, x_hat, inv_std))
        h = _bn_relu(gamma, beta, x_hat)
    out = h

    def backward(g, x=x):
        g = g * (out > 0.0)
        while saved:
            # each array goes once spent: g before the input gradient builds its
            # tap stack, the stage's saved arrays as the stage ends. The stage
            # input is recomputed after that stack is gone, never beside it.
            weight, bn = stages[len(saved) - 1]
            w, gamma, _, x_hat, inv_std = saved.pop()
            gy, ggamma, gbeta = _batchnorm_grads(g, x_hat, inv_std, gamma)
            del g, x_hat
            g = _conv1d_input_grad(gy, w)
            # the stage's input: x, or the stage before's output, recomputed
            h = _bn_relu(*saved[-1][1:4]) if saved else x.data
            accumulate_grad(weight, _conv1d_weight_grad(gy, h, w))
            accumulate_grad(bn.gamma, ggamma)
            accumulate_grad(bn.beta, gbeta)
            if saved:
                g *= h > 0.0
            del gy, h
        accumulate_grad(x, g)

    params = [t for weight, bn in stages for t in (weight, bn.gamma, bn.beta)]
    return apply_op(out, (x, *params), backward)


# ---------------------------------------------------------------------------
# layer classes


class Conv1d(Module):
    """Length-preserving conv (`conv1d`) with an odd `kernel_size`."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, *, rng: np.random.Generator):
        self.weight = uniform_param(rng, (out_channels, in_channels, kernel_size), in_channels * kernel_size)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self.weight, self.bias)


class ConvTranspose1d(Module):
    """2x up-sampling transposed conv (`conv_transpose1d`): kernel 2, stride 2."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        self.weight = uniform_param(rng, (in_channels, out_channels, 2), in_channels * 2)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor, skip: Tensor | None = None) -> Tensor:
        return conv_transpose1d(x, self.weight, self.bias, skip)


class Linear(Module):
    """Weight (in, out) and bias (out,) of a token-wise affine map, which
    `FeedForward` applies inside its fused op."""

    def __init__(self, in_features: int, out_features: int, *, rng: np.random.Generator):
        self.weight = uniform_param(rng, (in_features, out_features), in_features)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)


# ---------------------------------------------------------------------------
# transformer encoder: token-major (B, T, d), one op per attention,
# feed-forward and residual-plus-layernorm block


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


def _fold_heads(a: np.ndarray, batch: int, heads: int, dim: int) -> np.ndarray:
    """(B*T, S*dim) token rows of S side-by-side projections -> (S, B*H, T, dim/H),
    each head of each projection its own batch entry: one copy."""
    tokens, stacks = a.shape[0] // batch, a.shape[1] // dim
    return (a.reshape(batch, tokens, stacks, heads, dim // heads).transpose(2, 0, 3, 1, 4)
            .reshape(stacks, batch * heads, tokens, dim // heads))


def _unfold_heads(a: np.ndarray, batch: int) -> np.ndarray:
    """(S, B*H, T, e) -> (B*T, S*H*e), the inverse of `_fold_heads`."""
    stacks, folded, tokens, width = a.shape
    heads = folded // batch
    return (a.reshape(stacks, batch, heads, tokens, width).transpose(1, 3, 0, 2, 4)
            .reshape(batch * tokens, stacks * heads * width))


def _attention_rows(x2, w_qkv, batch, heads):
    """Folded (q, k, v) as one (3, B*H, T, e) array, q scaled by 1/sqrt(e),
    and the attention rows softmax(q k^T) (B*H, T, T), for token rows x2
    (B*T, d) and the stacked projection weights w_q|w_k|w_v (d, 3d)."""
    qkv = _fold_heads(x2 @ w_qkv, batch, heads, x2.shape[1])
    q, k, _ = qkv
    # the scale goes on q, which is e/T the size of the scores
    q *= 1.0 / math.sqrt(q.shape[-1])
    p = np.matmul(q, k.swapaxes(1, 2))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return qkv, p


def _mhsa_grads(g2, x2, w_qkv, w_o, qkv, p, merged, batch):
    """(gx2, gw_qkv, gw_o) for upstream token rows g2 (B*T, d). The softmax
    backward runs in place on the probabilities' gradient, and the input
    gradient is one GEMM against the stacked projection weights."""
    q, k, v = qkv
    gw_o = merged.T @ g2
    gheads = _fold_heads(g2 @ w_o.T, batch, qkv.shape[1] // batch, g2.shape[1])[0]
    gqkv = np.empty_like(qkv)
    np.matmul(p.swapaxes(1, 2), gheads, out=gqkv[2])
    gp = np.matmul(gheads, v.swapaxes(1, 2))
    gp -= np.einsum("...i,...i->...", gp, p)[..., None]
    gp *= p
    np.matmul(gp, k, out=gqkv[0])
    gqkv[0] *= 1.0 / math.sqrt(q.shape[-1])
    # k's gradient as (q^T gp)^T, the product order of the unfused reference
    np.matmul(q.swapaxes(1, 2), gp, out=gqkv[1].swapaxes(1, 2))
    g_rows = _unfold_heads(gqkv, batch)
    return g_rows @ w_qkv.T, x2.T @ g_rows, gw_o


class MultiHeadSelfAttention(Module):
    """Scaled dot-product attention across H heads, concatenated and projected.

    Input is (B, T, d); each batch element's sequence attends to itself only.
    One op: the three projections are one GEMM against w_q|w_k|w_v, stacked at
    call time, whose result is folded into per-head batch entries once. The
    tape keeps q, k, v, the attention rows and the merged heads. Projections
    carry no bias terms.
    """

    def __init__(self, dim: int, heads: int, *, rng: np.random.Generator):
        if dim % heads != 0:
            raise ShapeMismatch("mhsa", (dim,), (heads,), detail="heads must divide dim")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        self.w_q = uniform_param(rng, (dim, dim), dim)
        self.w_k = uniform_param(rng, (dim, dim), dim)
        self.w_v = uniform_param(rng, (dim, dim), dim)
        self.w_o = uniform_param(rng, (dim, dim), dim)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[2] != self.dim:
            raise ShapeMismatch("mhsa", x.shape, (self.dim,))
        batch, dt = x.shape[0], x.data.dtype
        w_qkv = np.concatenate([self.w_q.data, self.w_k.data, self.w_v.data], axis=1, dtype=dt)
        x2 = x.data.reshape(-1, self.dim)
        qkv, p = _attention_rows(x2, w_qkv, batch, self.heads)
        merged = _unfold_heads(np.matmul(p, qkv[2])[None], batch)
        w_o_dt = self.w_o.data.astype(dt, copy=False)
        out = (merged @ w_o_dt).reshape(x.shape)
        w_q, w_k, w_v, w_o = self.w_q, self.w_k, self.w_v, self.w_o

        def backward(g, x=x):
            gx2, gw_qkv, gw_o = _mhsa_grads(g.reshape(x2.shape), x2, w_qkv, w_o_dt, qkv, p, merged, batch)
            accumulate_grad(x, gx2.reshape(x.shape))
            accumulate_grad(w_q, gw_qkv[:, : self.dim])
            accumulate_grad(w_k, gw_qkv[:, self.dim : 2 * self.dim])
            accumulate_grad(w_v, gw_qkv[:, 2 * self.dim :])
            accumulate_grad(w_o, gw_o)

        return apply_op(out, (x, w_q, w_k, w_v, w_o), backward)


def _feedforward_grads(g2, rows, h, w1, w2):
    """(g_rows, gw1, gb1, gw2, gb2) for upstream rows g2; `h` is the post-ReLU
    hidden activation, whose positive entries mark where the ReLU passed."""
    gh = g2 @ w2.T
    gh *= h > 0.0
    return gh @ w1.T, rows.T @ gh, gh.sum(axis=0), h.T @ g2, g2.sum(axis=0)


class FeedForward(Module):
    """Position-wise two-layer MLP with ReLU, as one op over the token rows
    of a (..., d) input; the tape keeps the post-ReLU hidden activation."""

    def __init__(self, dim: int, hidden: int, *, rng: np.random.Generator):
        self.lin1 = Linear(dim, hidden, rng=rng)
        self.lin2 = Linear(hidden, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        w1, b1, w2, b2 = self.lin1.weight, self.lin1.bias, self.lin2.weight, self.lin2.bias
        if x.shape[-1] != w1.shape[0]:
            raise ShapeMismatch("feedforward", x.shape, w1.shape)
        dt = x.data.dtype
        w1_dt, w2_dt = w1.data.astype(dt, copy=False), w2.data.astype(dt, copy=False)
        rows = x.data.reshape(-1, x.shape[-1])
        h = rows @ w1_dt
        h += b1.data.astype(dt, copy=False)
        np.maximum(h, 0.0, out=h)
        out = h @ w2_dt
        out += b2.data.astype(dt, copy=False)

        def backward(g, x=x):
            g_rows, gw1, gb1, gw2, gb2 = _feedforward_grads(g.reshape(-1, g.shape[-1]), rows, h, w1_dt, w2_dt)
            accumulate_grad(x, g_rows.reshape(x.shape))
            accumulate_grad(w1, gw1)
            accumulate_grad(b1, gb1)
            accumulate_grad(w2, gw2)
            accumulate_grad(b2, gb2)

        return apply_op(out.reshape(x.shape), (x, w1, b1, w2, b2), backward)


def _layernorm_grads(g, x_hat, inv_std, gamma):
    """(gs, ggamma, gbeta) of out = gamma * x_hat + beta for upstream g; gs,
    the gradient with respect to the normalized sum, is built in one new
    buffer, with x_hat's buffer, which the caller no longer needs, as scratch."""
    lead = tuple(range(g.ndim - 1))
    ggamma = (g * x_hat).sum(axis=lead)
    gbeta = g.sum(axis=lead)
    gs = g * gamma
    mean_ggx = (gs * x_hat).mean(axis=-1, keepdims=True)
    gs -= gs.mean(axis=-1, keepdims=True)
    x_hat *= mean_ggx
    gs -= x_hat
    gs *= inv_std
    return gs, ggamma, gbeta


class LayerNorm(Module):
    """Residual sum and layer normalization as one op: LN(x + f), normalized
    over the last (feature) axis one token at a time. The sum is normalized
    in place, so the tape keeps x_hat, the per-token inverse std and the
    output."""

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def forward(self, x: Tensor, f: Tensor) -> Tensor:
        gamma, beta = self.gamma, self.beta
        if x.shape != f.shape or x.shape[-1] != gamma.size:
            raise ShapeMismatch("layer_norm", x.shape, f.shape, detail=f"{gamma.size} features")
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


class TransformerEncoderLayer(Module):
    """Post-norm encoder layer: u = LN(x + attention(x)), then LN(u + mlp(u));
    four ops on the tape."""

    def __init__(self, dim: int, heads: int, d_ff: int, *, rng: np.random.Generator):
        self.attn = MultiHeadSelfAttention(dim, heads, rng=rng)
        self.ff = FeedForward(dim, d_ff, rng=rng)
        self.norm1 = LayerNorm(dim)
        self.norm2 = LayerNorm(dim)

    def forward(self, x: Tensor) -> Tensor:
        u = self.norm1.forward(x, self.attn.forward(x))
        return self.norm2.forward(u, self.ff.forward(u))
