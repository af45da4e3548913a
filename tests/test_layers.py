import math

import numpy as np
import pytest

import reference
from conftest import fd_wrt, rel_err, tape_grads, traced_peak
from ecgdenoise.layers import (
    BN_MOMENTUM,
    NORM_EPS,
    BatchNorm1d,
    Conv1d,
    ConvTranspose1d,
    FeedForward,
    LayerNorm,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
    _conv1d_forward,
    conv1d,
    conv_bn_relu,
    conv_transpose1d,
    maxpool1d,
    positional_encoding,
    uniform_param,
)
from ecgdenoise.tensor import ShapeMismatch, Tape, Tensor
from reference import mul, sum_all


def ref_cross_correlation(x, w, b, stride, padding):
    """Independent nested-loop oracle for conv1d (no kernel flip)."""
    batch, c_in, length = x.shape
    c_out, _, kernel = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    out_len = (length + 2 * padding - kernel) // stride + 1
    out = np.zeros((batch, c_out, out_len))
    for bi in range(batch):
        for o in range(c_out):
            for i in range(out_len):
                acc = b[o]
                for c in range(c_in):
                    for t in range(kernel):
                        acc += xp[bi, c, i * stride + t] * w[o, c, t]
                out[bi, o, i] = acc
    return out


def ref_scatter_transpose(x, w, b, stride):
    """Independent scatter-accumulate oracle for conv_transpose1d."""
    batch, c_in, length = x.shape
    _, c_out, kernel = w.shape
    out = np.zeros((batch, c_out, (length - 1) * stride + kernel))
    for bi in range(batch):
        for c in range(c_in):
            for i in range(length):
                for o in range(c_out):
                    for t in range(kernel):
                        out[bi, o, i * stride + t] += x[bi, c, i] * w[c, o, t]
    out += b.reshape(1, -1, 1)
    return out


def scalar_through(layer_forward, weights):
    return float((layer_forward().data * weights).sum())


def flip(a):
    """Swap the first two axes: (B, C, L) oracle layout <-> the layers' channel-major (C, B, L)."""
    return np.ascontiguousarray(np.swapaxes(a, 0, 1))


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_edge_detector_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
    b = Tensor(np.zeros(1))
    out = conv1d(x, w, b)
    expected = ref_cross_correlation(x.data, w.data, b.data, 1, 1)
    np.testing.assert_array_equal(out.data, expected)
    np.testing.assert_array_equal(out.data, [[[-2.0, -2.0, 2.0]]])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((3, 2, 7)))
    w = np.zeros((3, 3, 1))
    for c in range(3):
        w[c, c, 0] = 1.0
    out = conv1d(x, Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_matches_oracle_random():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 2, 9))
    b = rng.standard_normal(4)
    for kernel in (1, 3, 5, 7):
        w = rng.standard_normal((4, 2, kernel))
        out = conv1d(Tensor(flip(x)), Tensor(w), Tensor(b))
        assert out.shape == (4, 2, 9)  # length-preserving
        np.testing.assert_allclose(flip(out.data), ref_cross_correlation(x, w, b, 1, kernel // 2), atol=1e-12)


def test_conv1d_gradients_vs_fd():
    rng = np.random.default_rng(4)
    for kernel, length in [(3, 8), (1, 8), (5, 8), (5, 2)]:
        x = Tensor(rng.standard_normal((2, 2, length)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, kernel)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        probe = rng.standard_normal((3, 2, length))

        def run():
            return conv1d(x, w, b)

        grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), [x, w, b])
        for tensor, grad in zip([x, w, b], grads):
            fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
            assert rel_err(grad, fd) < 1e-5, (kernel, length)


def test_conv1d_channel_mismatch():
    with pytest.raises(ShapeMismatch):
        conv1d(Tensor(np.zeros((2, 1, 5))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))


def test_conv1d_too_short():
    # the outer taps read only padding; at L=2, k=7 a tap's unclamped slice stop wraps to -1
    rng = np.random.default_rng(23)
    for length, kernel in [(2, 5), (1, 7), (2, 7), (3, 7)]:
        x, w, b = (rng.standard_normal((2, 3, length)), rng.standard_normal((4, 3, kernel)),
                   rng.standard_normal(4))
        out = conv1d(Tensor(flip(x)), Tensor(w), Tensor(b))
        np.testing.assert_allclose(flip(out.data), ref_cross_correlation(x, w, b, 1, kernel // 2), atol=1e-12)


def test_conv1d_rejects_even_kernel():
    with pytest.raises(ShapeMismatch):
        conv1d(Tensor(np.zeros((1, 1, 6))), Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# conv_transpose1d


def test_conv_transpose_scatter_example():
    x = Tensor(np.array([[[1.0, 2.0]]]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    b = Tensor(np.zeros(1))
    out = conv_transpose1d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[1.0, 1.0, 2.0, 2.0]]])
    np.testing.assert_array_equal(out.data, ref_scatter_transpose(x.data, w.data, b.data, 2))


def test_conv_transpose_identity():
    # unit taps on the channel diagonal repeat every sample twice
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((3, 2, 6)))
    w = np.zeros((3, 3, 2))
    for c in range(3):
        w[c, c] = 1.0
    out = conv_transpose1d(x, Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, np.repeat(x.data, 2, axis=2))


def test_conv_transpose_rejects_kernel_other_than_2():
    for kernel in (1, 3):
        with pytest.raises(ShapeMismatch):
            conv_transpose1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, kernel))), Tensor(np.zeros(1)))


def test_conv_transpose_matches_oracle_random():
    rng = np.random.default_rng(22)
    w = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal(2)
    for length in (1, 5):
        x = rng.standard_normal((2, 3, length))
        out = conv_transpose1d(Tensor(flip(x)), Tensor(w), Tensor(b))
        np.testing.assert_allclose(flip(out.data), ref_scatter_transpose(x, w, b, 2), atol=1e-12)


def test_conv_transpose_is_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)> with shared weights, zero bias
    rng = np.random.default_rng(17)
    c_in, c_out, k, stride, length = 3, 4, 2, 2, 8
    w_conv = rng.standard_normal((c_out, c_in, k))
    x = rng.standard_normal((2, c_in, length))
    y = rng.standard_normal((2, c_out, length // stride))

    fwd = ref_cross_correlation(x, w_conv, np.zeros(c_out), stride, 0)
    # conv's (C_out, C_in, k) weight is already the transpose's (C_in, C_out, k)
    back = conv_transpose1d(Tensor(flip(y)), Tensor(w_conv), Tensor(np.zeros(c_in)))
    lhs = float((fwd * y).sum())
    rhs = float((x * flip(back.data)).sum())
    assert abs(lhs - rhs) < 1e-10


def test_conv_transpose_gradients_vs_fd():
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 2, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    probe = rng.standard_normal((3, 2, 10))

    def run():
        return conv_transpose1d(x, w, b)

    grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), [x, w, b])
    for tensor, grad in zip([x, w, b], grads):
        fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
        assert rel_err(grad, fd) < 1e-5


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_conv_transpose_with_skip_is_the_concat_of_both_bitwise(dtype):
    rng = np.random.default_rng(23)
    x0, skip0 = rng.standard_normal((4, 3, 7)), rng.standard_normal((5, 3, 14))
    probe = rng.standard_normal((7, 3, 14)).astype(dtype)
    tconv = ConvTranspose1d(4, 2, rng=rng)
    tconv.bias.data[:] = rng.standard_normal(2)
    runs = []
    for op in (lambda x, skip: tconv.forward(x, skip),
               lambda x, skip: reference.concat_channels(tconv.forward(x), skip)):
        x, skip = (Tensor(a.astype(dtype), requires_grad=True) for a in (x0, skip0))
        tensors = [x, skip, tconv.weight, tconv.bias]
        for t in tensors:
            t.zero_grad()
        with Tape() as tape:
            out = op(x, skip)
            tape.backward(out, probe)
        runs.append([out.data] + [t.grad for t in tensors])
    for fused, want in zip(*runs):
        assert _same_bits(fused, want)


# ---------------------------------------------------------------------------
# maxpool


def test_maxpool_example():
    out = maxpool1d(Tensor(np.array([[[1.0, 3.0, 2.0, 2.0]]])))
    np.testing.assert_array_equal(out.data, [[[3.0, 2.0]]])


def test_maxpool_tie_break_first_index():
    x = Tensor(np.full((1, 1, 6), 5.0), requires_grad=True)
    with_grads = tape_grads(lambda: sum_all(maxpool1d(x)), [x])
    np.testing.assert_array_equal(
        with_grads[0], [[[1.0, 0.0, 1.0, 0.0, 1.0, 0.0]]]
    )


def test_maxpool_rejects_odd_length():
    with pytest.raises(ShapeMismatch):
        maxpool1d(Tensor(np.zeros((1, 1, 5))))


def test_maxpool_gradient_vs_fd_away_from_ties():
    rng = np.random.default_rng(8)
    # spread values so no window has a near-tie at fd scale
    base = rng.permutation(24).astype(float).reshape(1, 2, 12)
    x = Tensor(base, requires_grad=True)
    probe = rng.standard_normal((1, 2, 6))
    (g,) = tape_grads(lambda: sum_all(mul(maxpool1d(x), Tensor(probe))), [x])
    fd = fd_wrt(x, lambda: scalar_through(lambda: maxpool1d(x), probe), eps=1e-4)
    assert rel_err(g, fd) < 1e-5


# ---------------------------------------------------------------------------
# batchnorm


def test_batchnorm_identity_on_standardized_input():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 2, 50))
    x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
    bn = BatchNorm1d(2)
    out = bn.forward(Tensor(flip(x)), training=True)
    np.testing.assert_allclose(flip(out.data), x, atol=1e-4)


def test_batchnorm_constant_channel_gives_beta():
    bn = BatchNorm1d(1)
    bn.beta.data[:] = 0.7
    out = bn.forward(Tensor(np.full((1, 2, 8), 3.0)), training=True)
    np.testing.assert_allclose(out.data, 0.7, atol=1e-12)


def test_batchnorm_train_statistics():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 4, 100)) * 5.0 + 2.0
    bn = BatchNorm1d(4)
    out = flip(bn.forward(Tensor(flip(x)), training=True).data)
    assert np.abs(out.mean(axis=(0, 2))).max() < 1e-10
    assert np.abs(out.var(axis=(0, 2)) - 1.0).max() < 1e-6


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(14)
    bn = BatchNorm1d(2)
    x = rng.standard_normal((4, 2, 30)) * 2.0 + 1.0
    bn.forward(Tensor(flip(x)), training=True)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    # one batch moves the estimates from (0, 1) a fraction BN_MOMENTUM of the way
    np.testing.assert_allclose(rm, BN_MOMENTUM * x.mean(axis=(0, 2)), atol=1e-15)
    np.testing.assert_allclose(rv, 1.0 + BN_MOMENTUM * (x.var(axis=(0, 2)) - 1.0), atol=1e-14)
    y = rng.standard_normal((1, 2, 30))
    out = flip(bn.forward(Tensor(flip(y)), training=False).data)
    expected = (y - rm.reshape(1, -1, 1)) / np.sqrt(rv.reshape(1, -1, 1) + NORM_EPS)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # eval pass must not move running stats
    np.testing.assert_array_equal(bn.running_mean, rm)
    # the folded affine map applies gamma and beta after normalizing
    bn.gamma.data[:] = [1.7, -0.4]
    bn.beta.data[:] = [0.3, -2.5]
    z = rng.standard_normal((3, 2, 30)) * 3.0 - 1.0
    with Tape() as tape:
        out = flip(bn.forward(Tensor(flip(z)), training=False).data)
    assert len(tape) == 0  # inference only: nothing is recorded
    expected = (bn.gamma.data.reshape(1, -1, 1) * (z - rm.reshape(1, -1, 1))
                / np.sqrt(rv.reshape(1, -1, 1) + NORM_EPS) + bn.beta.data.reshape(1, -1, 1))
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_batchnorm_rejects_single_element_training():
    bn = BatchNorm1d(1)
    with pytest.raises(ShapeMismatch):
        bn.forward(Tensor(np.zeros((1, 1, 1))), training=True)


def test_batchnorm_gradients_vs_fd():
    rng = np.random.default_rng(15)
    bn = BatchNorm1d(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    bn.beta.data[:] = rng.standard_normal(3)
    x = Tensor(rng.standard_normal((3, 2, 6)), requires_grad=True)
    probe = rng.standard_normal((3, 2, 6))

    def run():
        return bn.forward(x, training=True)

    grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), [x, bn.gamma, bn.beta])
    for tensor, grad in zip([x, bn.gamma, bn.beta], grads):
        state = (bn.running_mean.copy(), bn.running_var.copy())
        fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
        bn.running_mean, bn.running_var = state
        assert rel_err(grad, fd) < 1e-5


# ---------------------------------------------------------------------------
# fused conv -> batchnorm -> relu


def _stage(seed):
    """A k3 conv weight and batchnorm pair with non-trivial gamma, beta and running stats."""
    rng = np.random.default_rng(seed)
    weight = uniform_param(rng, (4, 3, 3), 9)
    bn = BatchNorm1d(4)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 4)
    bn.beta.data[:] = rng.standard_normal(4)
    bn.running_mean[:] = rng.standard_normal(4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 4)
    return weight, bn


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_conv_bn_relu_training_matches_unfused_bitwise():
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((3, 2, 40))
    probe = rng.standard_normal((4, 2, 40))
    runs = []
    for op in (conv_bn_relu, reference.conv_bn_relu):
        weight, bn = _stage(7)
        x = Tensor(x0.copy(), requires_grad=True)
        tensors = [x, weight, bn.gamma, bn.beta]
        with Tape() as tape:
            out = op(x, [(weight, bn)], True)
            tape.backward(sum_all(mul(out, Tensor(probe))))
        runs.append([out.data, bn.running_mean, bn.running_var] + [t.grad for t in tensors])
    assert 0 < (runs[0][0] == 0.0).mean() < 1  # ReLU clips some outputs, not all
    for fused, want in zip(*runs):
        assert _same_bits(fused, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_two_stage_conv_bn_relu_matches_two_unfused_stages_bitwise(dtype):
    # the backward recomputes the middle output from x_hat; it must be the
    # forward's bits, or its ReLU mask and the second conv's weight gradient move
    rng = np.random.default_rng(34)
    x0 = rng.standard_normal((3, 2, 40)).astype(dtype)
    probe = rng.standard_normal((4, 2, 40)).astype(dtype)
    runs = []
    for op in (conv_bn_relu, reference.conv_bn_relu):
        (weight, bn), (_, bn2) = _stage(7), _stage(8)
        second = uniform_param(np.random.default_rng(35), (4, 4, 3), 12)
        x = Tensor(x0.copy(), requires_grad=True)
        tensors = [x, weight, bn.gamma, bn.beta, second, bn2.gamma, bn2.beta]
        with Tape() as tape:
            out = op(x, [(weight, bn), (second, bn2)], True)
            tape.backward(out, probe)
        runs.append([out.data, bn.running_mean, bn.running_var, bn2.running_mean, bn2.running_var]
                    + [t.grad for t in tensors])
    assert 0 < (runs[0][0] == 0.0).mean() < 1  # ReLU clips some outputs, not all
    for fused, want in zip(*runs):
        assert _same_bits(fused, want)


def test_conv_bn_relu_eval_folds_batchnorm_into_the_conv():
    weight, bn = _stage(8)
    x = Tensor(np.random.default_rng(32).standard_normal((3, 3, 50)), requires_grad=True)
    with Tape() as tape:
        out = conv_bn_relu(x, [(weight, bn)], False)
    assert len(tape) == 0  # inference only: nothing is recorded
    assert not out.requires_grad
    want = reference.conv_bn_relu(x, [(weight, bn)], False).data
    assert 0 < (want == 0.0).mean() < 1
    # the fold only reorders roundings: a few ulps of the largest output
    assert np.max(np.abs(out.data - want)) <= 1e-15 * np.max(np.abs(want))


def test_conv_bn_relu_gradients_vs_fd():
    weight, bn = _stage(9)
    rng = np.random.default_rng(33)
    x = Tensor(rng.standard_normal((3, 2, 8)), requires_grad=True)
    probe = rng.standard_normal((4, 2, 8))

    def run():
        return conv_bn_relu(x, [(weight, bn)], True)

    tensors = [x, weight, bn.gamma, bn.beta]
    grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), tensors)
    for tensor, grad in zip(tensors, grads):
        state = (bn.running_mean.copy(), bn.running_var.copy())
        fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
        bn.running_mean, bn.running_var = state
        assert rel_err(grad, fd) < 1e-5


def test_conv_bn_relu_rejects_mismatched_batchnorm():
    weight, _ = _stage(10)
    with pytest.raises(ShapeMismatch):
        conv_bn_relu(Tensor(np.zeros((3, 1, 8))), [(weight, BatchNorm1d(5))], True)


# ---------------------------------------------------------------------------
# segments of a channel-major batch


def _segment_ops():
    """Ops on channel-major (3, B, L) input, each with seeded weights."""
    rng = np.random.default_rng(40)
    conv = Conv1d(3, 4, 5, rng=rng)  # taps shifted by 1 and 2 samples
    tconv = ConvTranspose1d(3, 4, rng=rng)
    stage_weight, bn = _stage(11)
    return {
        "conv1d": lambda x: conv1d(x, conv.weight, conv.bias),
        "conv_transpose1d": lambda x: conv_transpose1d(x, tconv.weight, tconv.bias),
        "maxpool1d": maxpool1d,
        "conv_bn_relu_eval": lambda x: conv_bn_relu(x, [(stage_weight, bn)], False),
    }


@pytest.mark.parametrize("name", ["conv1d", "conv_transpose1d", "maxpool1d", "conv_bn_relu_eval"])
def test_perturbing_a_segment_leaves_the_others_bitwise_unchanged(name):
    op = _segment_ops()[name]
    rng = np.random.default_rng(41)
    x = rng.standard_normal((3, 4, 10))
    base = op(Tensor(x)).data
    for s in range(x.shape[1]):
        bumped = x.copy()
        bumped[:, s] += rng.standard_normal((3, 10))
        out = op(Tensor(bumped)).data
        others = np.arange(x.shape[1]) != s
        assert out[:, others].tobytes() == base[:, others].tobytes(), s
        assert not np.array_equal(out[:, s], base[:, s])


@pytest.mark.parametrize("name", ["conv1d", "conv_transpose1d", "maxpool1d"])
def test_a_segment_output_has_zero_gradient_wrt_other_segments(name):
    op = _segment_ops()[name]
    rng = np.random.default_rng(42)
    x = Tensor(rng.standard_normal((3, 4, 10)), requires_grad=True)
    out_shape = op(x).shape
    for s in range(x.shape[1]):
        probe = np.zeros(out_shape)
        probe[:, s] = rng.standard_normal((out_shape[0], out_shape[2]))
        (gx,) = tape_grads(lambda: sum_all(mul(op(x), Tensor(probe))), [x])
        others = np.arange(x.shape[1]) != s
        assert np.all(gx[:, others] == 0.0), s
        assert np.any(gx[:, s] != 0.0)


# ---------------------------------------------------------------------------
# layernorm


def test_layernorm_token_mean_zero():
    rng = np.random.default_rng(19)
    ln = LayerNorm(16)
    x, f = (Tensor(rng.standard_normal((3, 5, 16)) * 4.0 + 1.0) for _ in range(2))
    out = ln.forward(x, f)
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10


def test_layernorm_gradients_vs_fd():
    rng = np.random.default_rng(20)
    ln = LayerNorm(6)
    ln.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    ln.beta.data[:] = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    f = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    probe = rng.standard_normal((4, 6))

    tensors = [x, f, ln.gamma, ln.beta]
    grads = tape_grads(lambda: sum_all(mul(ln.forward(x, f), Tensor(probe))), tensors)
    for tensor, grad in zip(tensors, grads):
        fd = fd_wrt(tensor, lambda: scalar_through(lambda: ln.forward(x, f), probe))
        assert rel_err(grad, fd) < 1e-5


def test_layernorm_rejects_mismatched_residual():
    with pytest.raises(ShapeMismatch):
        LayerNorm(6).forward(Tensor(np.zeros((2, 6))), Tensor(np.zeros((3, 6))))


# ---------------------------------------------------------------------------
# attention and friends


def test_positional_encoding_values():
    pe = positional_encoding(8, 6)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)  # sin 0
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)  # cos 0
    assert np.all(pe >= -1.0) and np.all(pe <= 1.0)
    assert abs(pe[1, 0] - math.sin(1.0)) < 1e-12


def test_positional_encoding_rejects_odd_dim():
    with pytest.raises(ShapeMismatch):
        positional_encoding(4, 5)


def test_mhsa_single_token():
    rng = np.random.default_rng(30)
    attn = MultiHeadSelfAttention(8, 2, rng=rng)
    x = rng.standard_normal((1, 1, 8))
    out = attn.forward(Tensor(x))
    expected = (x.reshape(1, 8) @ attn.w_v.data) @ attn.w_o.data
    np.testing.assert_allclose(out.data.reshape(1, 8), expected, atol=1e-12)


def test_mhsa_identical_tokens_uniform_attention():
    rng = np.random.default_rng(31)
    attn = MultiHeadSelfAttention(8, 4, rng=rng)
    token = rng.standard_normal(8)
    x = np.tile(token, (2, 5, 1))
    out = attn.forward(Tensor(x)).data
    for t in range(1, 5):
        np.testing.assert_allclose(out[:, t], out[:, 0], atol=1e-12)


def test_mhsa_rows_sum_to_one_and_fd():
    rng = np.random.default_rng(32)
    attn = MultiHeadSelfAttention(8, 2, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    probe = rng.standard_normal((2, 4, 8))
    tensors = [x] + [t for _, t in attn.parameters()]
    grads = tape_grads(lambda: sum_all(mul(attn.forward(x), Tensor(probe))), tensors)
    for tensor, grad in zip(tensors, grads):
        fd = fd_wrt(tensor, lambda: scalar_through(lambda: attn.forward(x), probe))
        assert rel_err(grad, fd) < 1e-5


def test_mhsa_heads_must_divide_dim():
    with pytest.raises(ShapeMismatch):
        MultiHeadSelfAttention(10, 3, rng=np.random.default_rng(0))


def test_feedforward_fd():
    rng = np.random.default_rng(33)
    ff = FeedForward(6, 12, rng=rng)
    x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    probe = rng.standard_normal((5, 6))
    tensors = [x] + [t for _, t in ff.parameters()]
    grads = tape_grads(lambda: sum_all(mul(ff.forward(x), Tensor(probe))), tensors)
    for tensor, grad in zip(tensors, grads):
        fd = fd_wrt(tensor, lambda: scalar_through(lambda: ff.forward(x), probe))
        assert rel_err(grad, fd) < 1e-4


def test_transformer_layer_shape_and_token_mean():
    rng = np.random.default_rng(34)
    layer = TransformerEncoderLayer(8, 2, 32, rng=rng)
    x = Tensor(rng.standard_normal((3, 6, 8)))
    out = layer.forward(x)
    assert out.shape == (3, 6, 8)
    # with unit gamma / zero beta the trailing LN pins each token's mean at 0
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10


def test_transformer_layer_fd():
    rng = np.random.default_rng(35)
    layer = TransformerEncoderLayer(8, 2, 16, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    probe = rng.standard_normal((2, 4, 8))
    tensors = [x] + [t for _, t in layer.parameters()]
    grads = tape_grads(lambda: sum_all(mul(layer.forward(x), Tensor(probe))), tensors)
    worst = 0.0
    for tensor, grad in zip(tensors, grads):
        fd = fd_wrt(tensor, lambda: scalar_through(lambda: layer.forward(x), probe), eps=1e-5)
        worst = max(worst, rel_err(grad, fd))
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# fused transformer ops against the unfused reference (tests/reference.py)


def _fused_and_reference(name, rng):
    """(fused forward, reference forward, input, tensors whose gradients count)."""
    layer = TransformerEncoderLayer(16, 4, 64, rng=rng)
    for _, t in layer.parameters():  # move the norms off their identity init
        t.data += 0.1 * rng.standard_normal(t.shape)
    x = Tensor(rng.standard_normal((3, 7, 16)), requires_grad=True)
    f = Tensor(rng.standard_normal((3, 7, 16)), requires_grad=True)
    cases = {
        "mhsa": (layer.attn, lambda: layer.attn.forward(x), lambda: reference.mhsa(layer.attn, x), [x]),
        "feedforward": (layer.ff, lambda: layer.ff.forward(x), lambda: reference.feedforward(layer.ff, x), [x]),
        "layernorm": (layer.norm1, lambda: layer.norm1.forward(x, f),
                      lambda: reference.residual_layer_norm(layer.norm1, x, f), [x, f]),
        "transformer_layer": (layer, lambda: layer.forward(x), lambda: reference.transformer_layer(layer, x), [x]),
    }
    module, fused, ref, inputs = cases[name]
    return fused, ref, inputs + [t for _, t in module.parameters()]


@pytest.mark.parametrize("name", ["mhsa", "feedforward", "layernorm", "transformer_layer"])
def test_fused_transformer_op_matches_unfused_reference(name):
    rng = np.random.default_rng(37)
    fused, ref, tensors = _fused_and_reference(name, rng)
    probe = rng.standard_normal((3, 7, 16))
    results = []
    for forward in (fused, ref):
        for t in tensors:
            t.zero_grad()
        with Tape() as tape:
            out = forward()
            tape.backward(out, probe)
        results.append((out.data, [t.grad for t in tensors]))
    (out, grads), (ref_out, ref_grads) = results
    if name in ("feedforward", "layernorm"):  # the same numpy calls in the same order
        assert out.tobytes() == ref_out.tobytes()
        assert all(g.tobytes() == r.tobytes() for g, r in zip(grads, ref_grads))
    # attention stacks the three projections into one GEMM, which may reorder sums
    assert np.max(np.abs(out - ref_out)) <= 1e-12 * np.max(np.abs(ref_out))
    for g, r in zip(grads, ref_grads):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))


def _eval_ops():
    """Every op of the eval forward, each with seeded weights and its input's shape."""
    rng = np.random.default_rng(44)
    attn = MultiHeadSelfAttention(16, 4, rng=rng)
    ff = FeedForward(16, 32, rng=rng)
    norm = LayerNorm(16)
    norm.gamma.data[:] = rng.uniform(0.5, 1.5, 16)
    norm.beta.data[:] = rng.standard_normal(16)
    token_ops = {"mhsa": attn.forward, "feedforward": ff.forward, "layernorm": lambda x: norm.forward(x, x)}
    return {**{name: (op, (3, 4, 10)) for name, op in _segment_ops().items()},
            **{name: (op, (3, 7, 16)) for name, op in token_ops.items()}}


@pytest.mark.parametrize("name", ["conv1d", "conv_transpose1d", "maxpool1d", "conv_bn_relu_eval",
                                  "mhsa", "feedforward", "layernorm"])
def test_float32_input_gives_float32_output(name):
    # one float64 operand would promote everything after it to float64
    op, shape = _eval_ops()[name]
    x = np.random.default_rng(45).standard_normal(shape)
    out, want = op(Tensor(x.astype(np.float32))).data, op(Tensor(x)).data
    assert out.dtype == np.float32 and want.dtype == np.float64
    assert np.max(np.abs(out - want)) <= 1e-5 * np.max(np.abs(want))


def _training_ops():
    """Every op of the training forward: (op, its parameters, its input's shape)."""
    rng = np.random.default_rng(47)
    conv = Conv1d(3, 4, 5, rng=rng)
    tconv = ConvTranspose1d(3, 4, rng=rng)
    stage_weight, bn = _stage(12)
    attn = MultiHeadSelfAttention(16, 4, rng=rng)
    ff = FeedForward(16, 32, rng=rng)
    norm = LayerNorm(16)
    norm.gamma.data[:] = rng.uniform(0.5, 1.5, 16)
    norm.beta.data[:] = rng.standard_normal(16)

    def params(*modules):
        return [t for m in modules for _, t in m.parameters()]

    segment, token = (3, 4, 10), (3, 7, 16)
    return {
        "conv1d": (conv.forward, params(conv), segment),
        "conv_transpose1d": (tconv.forward, params(tconv), segment),
        "maxpool1d": (maxpool1d, [], segment),
        "conv_bn_relu": (lambda x: conv_bn_relu(x, [(stage_weight, bn)], True), [stage_weight, *params(bn)], segment),
        "batchnorm": (lambda x: bn.forward(x, True), params(bn), (4, 4, 10)),
        "mhsa": (attn.forward, params(attn), token),
        "feedforward": (ff.forward, params(ff), token),
        "layernorm": (lambda x: norm.forward(x, x), params(norm), token),
    }


@pytest.mark.parametrize("name", ["conv1d", "conv_transpose1d", "maxpool1d", "conv_bn_relu", "batchnorm",
                                  "mhsa", "feedforward", "layernorm"])
def test_float32_backward_gives_float32_gradients(name):
    # one float64 weight in a backward rule would promote its gradients to float64
    op, params, shape = _training_ops()[name]
    rng = np.random.default_rng(48)
    x = rng.standard_normal(shape)
    probe = rng.standard_normal(op(Tensor(x)).shape)
    grads = {}
    for dt in (np.float64, np.float32):
        inp = Tensor(x.astype(dt), requires_grad=True)
        for t in params:
            t.zero_grad()
        with Tape() as tape:
            tape.backward(op(inp), probe)
        grads[dt] = [inp.grad, *(t.grad for t in params)]
    # relative to the op's largest gradient, the scale of float32's rounding in its sums
    scale = max(np.max(np.abs(g)) for g in grads[np.float64])
    for got, want in zip(grads[np.float32], grads[np.float64]):
        assert got.dtype == np.float32 and want.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-5 * scale


def test_transformer_layer_records_four_tape_nodes():
    rng = np.random.default_rng(39)
    layer = TransformerEncoderLayer(8, 2, 16, rng=rng)
    with Tape() as tape:
        layer.forward(Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True))
    assert len(tape) == 4  # attention, LN(x + attn), feed-forward, LN(u + ff)


def test_transformer_layer_traced_peak_is_bounded():
    # one default-width layer at the desk bottleneck's shape: 50.2 MB traced
    # peak as 28 unfused ops that kept every output and every gradient to the
    # end, 19.0 MB fused with a tape that frees as it goes
    rng = np.random.default_rng(40)
    layer = TransformerEncoderLayer(64, 4, 256, rng=rng)
    x = Tensor(rng.standard_normal((4, 225, 64)), requires_grad=True)
    probe = rng.standard_normal((4, 225, 64))

    def step():
        with Tape() as tape:
            tape.backward(layer.forward(x), probe)

    assert traced_peak(step) < 24 * 2**20


def test_conv_bn_relu_traced_peak_is_bounded():
    # down1's first stage at desk size, 8 -> 16 channels on 8 segments of 1800
    # samples: 5.6 MB traced peak as three GEMMs, one per tap; 7.2 MB as one
    # GEMM with the taps stacked on the smaller channel side; 9.7 MB when the
    # input gradient stacks its larger side, the 16 channels of the upstream
    rng = np.random.default_rng(47)
    weight, bn = uniform_param(rng, (16, 8, 3), 24), BatchNorm1d(16)
    x = Tensor(rng.standard_normal((8, 8, 1800)), requires_grad=True)
    probe = rng.standard_normal((16, 8, 1800))

    def step():
        with Tape() as tape:
            tape.backward(conv_bn_relu(x, [(weight, bn)], True), probe)

    assert traced_peak(step) < 8 * 2**20


def test_double_conv_traced_peak_is_bounded():
    # the desk model's first double conv, 1 -> 8 -> 8 channels on 8 float32
    # segments of 3600 samples: 7.0 MB traced peak as two ops, each keeping its
    # output; 6.2 MB as one op that recomputes the middle output after forming
    # the input gradient of the second conv
    rng = np.random.default_rng(49)
    stages = [(uniform_param(rng, (8, 1, 3), 3), BatchNorm1d(8)),
              (uniform_param(rng, (8, 8, 3), 24), BatchNorm1d(8))]
    x = Tensor(rng.standard_normal((1, 8, 3600)).astype(np.float32), requires_grad=True)
    probe = rng.standard_normal((8, 8, 3600)).astype(np.float32)

    def step():
        with Tape() as tape:
            tape.backward(conv_bn_relu(x, stages, True), probe)

    assert traced_peak(step) < 6.6 * 2**20


@pytest.mark.parametrize("c_in, c_out, kernel", [(2, 5, 3), (5, 2, 3), (3, 3, 5), (2, 5, 1), (5, 2, 1)])
def test_conv1d_forward_result_owns_its_memory(c_in, c_out, kernel):
    # a view into the product of all taps would keep k outputs' worth alive
    rng = np.random.default_rng(48)
    out = _conv1d_forward(rng.standard_normal((c_in, 2, 9)), rng.standard_normal((c_out, c_in, kernel)))
    assert out.shape == (c_out, 2, 9) and out.base is None


def test_shape_algebra_composition():
    # conv preserves the length, pool halves it, the transposed conv doubles it
    length = 3600
    for _ in range(4):
        length //= 2
    assert length == 225
    rng = np.random.default_rng(36)
    x = Tensor(rng.standard_normal((1, 1, 16)))
    conv = Conv1d(1, 2, 3, rng=rng)
    down = maxpool1d(conv.forward(x))
    assert down.shape == (2, 1, 8)  # channel-major
    up = ConvTranspose1d(2, 1, rng=rng)
    assert up.forward(down).shape == (1, 1, 16)
