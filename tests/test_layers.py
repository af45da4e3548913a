import math

import numpy as np
import pytest

from conftest import fd_wrt, rel_err, tape_grads
from ecgdenoise.layers import (
    BatchNorm1d,
    Conv1d,
    ConvTranspose1d,
    FeedForward,
    LayerNorm,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
    conv1d,
    conv_bn_relu,
    conv_out_len,
    conv_transpose1d,
    layer_norm,
    maxpool1d,
    positional_encoding,
)
from ecgdenoise.tensor import ShapeMismatch, Tape, Tensor, mul, relu, sum_all


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


# ---------------------------------------------------------------------------
# conv1d


def test_conv1d_edge_detector_example():
    x = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    w = Tensor(np.array([[[1.0, 0.0, -1.0]]]))
    b = Tensor(np.zeros(1))
    out = conv1d(x, w, b, stride=1, padding=1)
    expected = ref_cross_correlation(x.data, w.data, b.data, 1, 1)
    np.testing.assert_array_equal(out.data, expected)
    np.testing.assert_array_equal(out.data, [[[-2.0, -2.0, 2.0]]])


def test_conv1d_identity_kernel():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 7)))
    w = np.zeros((3, 3, 1))
    for c in range(3):
        w[c, c, 0] = 1.0
    out = conv1d(x, Tensor(w), Tensor(np.zeros(3)))
    np.testing.assert_array_equal(out.data, x.data)


def test_conv1d_matches_oracle_random():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((2, 2, 9))
    w = rng.standard_normal((4, 2, 3))
    b = rng.standard_normal(4)
    for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride, padding)
        ref = ref_cross_correlation(x, w, b, stride, padding)
        assert out.shape[2] == conv_out_len(9, 3, stride, padding)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)


def test_conv1d_gradients_vs_fd():
    rng = np.random.default_rng(4)
    for stride, padding, kernel in [(1, 1, 3), (2, 1, 3), (3, 2, 3), (1, 0, 1), (1, 2, 1)]:
        x = Tensor(rng.standard_normal((2, 2, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, kernel)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        probe = rng.standard_normal((2, 3, conv_out_len(8, kernel, stride, padding)))

        def run():
            return conv1d(x, w, b, stride, padding)

        grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), [x, w, b])
        for tensor, grad in zip([x, w, b], grads):
            fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
            assert rel_err(grad, fd) < 1e-5, (stride, padding, kernel)


def test_conv1d_channel_mismatch():
    with pytest.raises(ShapeMismatch):
        conv1d(Tensor(np.zeros((1, 2, 5))), Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros(1)))


def test_conv1d_too_short():
    with pytest.raises(ShapeMismatch):
        conv1d(Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 5))), Tensor(np.zeros(1)))


# ---------------------------------------------------------------------------
# conv_transpose1d


def test_conv_transpose_scatter_example():
    x = Tensor(np.array([[[1.0, 2.0]]]))
    w = Tensor(np.array([[[1.0, 1.0]]]))
    b = Tensor(np.zeros(1))
    out = conv_transpose1d(x, w, b, stride=2)
    np.testing.assert_array_equal(out.data, [[[1.0, 1.0, 2.0, 2.0]]])
    np.testing.assert_array_equal(out.data, ref_scatter_transpose(x.data, w.data, b.data, 2))


def test_conv_transpose_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 1, 6)))
    out = conv_transpose1d(x, Tensor(np.ones((1, 1, 1))), Tensor(np.zeros(1)), stride=1)
    np.testing.assert_array_equal(out.data, x.data)


def test_conv_transpose_matches_oracle_random():
    rng = np.random.default_rng(22)
    x = rng.standard_normal((2, 3, 5))
    w = rng.standard_normal((3, 2, 2))
    b = rng.standard_normal(2)
    for stride in (1, 2, 3):
        out = conv_transpose1d(Tensor(x), Tensor(w), Tensor(b), stride)
        np.testing.assert_allclose(out.data, ref_scatter_transpose(x, w, b, stride), atol=1e-12)


def test_conv_transpose_is_adjoint_of_conv():
    # <conv(x), y> == <x, conv_transpose(y)> with shared weights, zero bias
    rng = np.random.default_rng(17)
    c_in, c_out, k, stride, length = 3, 4, 2, 2, 8
    w_conv = rng.standard_normal((c_out, c_in, k))
    x = rng.standard_normal((2, c_in, length))
    out_len = conv_out_len(length, k, stride, 0)
    y = rng.standard_normal((2, c_out, out_len))

    fwd = conv1d(Tensor(x), Tensor(w_conv), Tensor(np.zeros(c_out)), stride, 0)
    # conv's (C_out, C_in, k) weight is already the transpose's (C_in, C_out, k)
    back = conv_transpose1d(Tensor(y), Tensor(w_conv), Tensor(np.zeros(c_in)), stride)
    lhs = float((fwd.data * y).sum())
    rhs = float((x * back.data[:, :, :length]).sum())
    assert abs(lhs - rhs) < 1e-10


def test_conv_transpose_gradients_vs_fd():
    rng = np.random.default_rng(6)
    for stride in (1, 2, 3):
        x = Tensor(rng.standard_normal((2, 2, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 3, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        probe = rng.standard_normal((2, 3, 4 * stride + 2))

        def run():
            return conv_transpose1d(x, w, b, stride)

        grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), [x, w, b])
        for tensor, grad in zip([x, w, b], grads):
            fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
            assert rel_err(grad, fd) < 1e-5, stride


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
    bn = BatchNorm1d(2, eps=1e-5)
    out = bn.forward(Tensor(x), training=True)
    np.testing.assert_allclose(out.data, x, atol=1e-4)


def test_batchnorm_constant_channel_gives_beta():
    bn = BatchNorm1d(1)
    bn.beta.data[:] = 0.7
    out = bn.forward(Tensor(np.full((2, 1, 8), 3.0)), training=True)
    np.testing.assert_allclose(out.data, 0.7, atol=1e-12)


def test_batchnorm_train_statistics():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3, 4, 100)) * 5.0 + 2.0
    bn = BatchNorm1d(4)
    out = bn.forward(Tensor(x), training=True).data
    assert np.abs(out.mean(axis=(0, 2))).max() < 1e-10
    assert np.abs(out.var(axis=(0, 2)) - 1.0).max() < 1e-6


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(14)
    bn = BatchNorm1d(2, momentum=0.5)
    x = rng.standard_normal((4, 2, 30)) * 2.0 + 1.0
    bn.forward(Tensor(x), training=True)
    rm, rv = bn.running_mean.copy(), bn.running_var.copy()
    y = rng.standard_normal((1, 2, 30))
    out = bn.forward(Tensor(y), training=False).data
    expected = (y - rm.reshape(1, -1, 1)) / np.sqrt(rv.reshape(1, -1, 1) + bn.eps)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    # eval pass must not move running stats
    np.testing.assert_array_equal(bn.running_mean, rm)
    # the folded affine map applies gamma and beta after normalizing
    bn.gamma.data[:] = [1.7, -0.4]
    bn.beta.data[:] = [0.3, -2.5]
    z = rng.standard_normal((3, 2, 30)) * 3.0 - 1.0
    with Tape() as tape:
        out = bn.forward(Tensor(z), training=False).data
    assert len(tape) == 0  # inference only: nothing is recorded
    expected = (bn.gamma.data.reshape(1, -1, 1) * (z - rm.reshape(1, -1, 1))
                / np.sqrt(rv.reshape(1, -1, 1) + bn.eps) + bn.beta.data.reshape(1, -1, 1))
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
    x = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
    probe = rng.standard_normal((2, 3, 6))

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
    """A conv k3 p1 and batchnorm pair with non-trivial gamma, beta and running stats."""
    rng = np.random.default_rng(seed)
    conv = Conv1d(3, 4, 3, padding=1, rng=rng)
    conv.bias.data[:] = rng.standard_normal(4)
    bn = BatchNorm1d(4)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 4)
    bn.beta.data[:] = rng.standard_normal(4)
    bn.running_mean[:] = rng.standard_normal(4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 4)
    return conv, bn


def _unfused(x, conv, bn, training):
    return relu(bn.forward(conv.forward(x), training))


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_conv_bn_relu_training_matches_unfused_bitwise():
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal((2, 3, 40))
    probe = rng.standard_normal((2, 4, 40))
    runs = []
    for op in (conv_bn_relu, _unfused):
        conv, bn = _stage(7)
        x = Tensor(x0.copy(), requires_grad=True)
        tensors = [x, conv.weight, conv.bias, bn.gamma, bn.beta]
        with Tape() as tape:
            out = op(x, conv, bn, True)
            tape.backward(sum_all(mul(out, Tensor(probe))))
        runs.append([out.data, bn.running_mean, bn.running_var] + [t.grad for t in tensors])
    assert 0 < (runs[0][0] == 0.0).mean() < 1  # ReLU clips some outputs, not all
    for fused, reference in zip(*runs):
        assert _same_bits(fused, reference)


def test_conv_bn_relu_eval_folds_batchnorm_into_the_conv():
    conv, bn = _stage(8)
    x = Tensor(np.random.default_rng(32).standard_normal((3, 3, 50)), requires_grad=True)
    with Tape() as tape:
        out = conv_bn_relu(x, conv, bn, False)
    assert len(tape) == 0  # inference only: nothing is recorded
    assert not out.requires_grad
    reference = _unfused(x, conv, bn, False).data
    assert 0 < (reference == 0.0).mean() < 1
    # the fold only reorders roundings: a few ulps of the largest output
    assert np.max(np.abs(out.data - reference)) <= 1e-15 * np.max(np.abs(reference))


def test_conv_bn_relu_gradients_vs_fd():
    conv, bn = _stage(9)
    rng = np.random.default_rng(33)
    x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
    probe = rng.standard_normal((2, 4, 8))

    def run():
        return conv_bn_relu(x, conv, bn, True)

    tensors = [x, conv.weight, conv.bias, bn.gamma, bn.beta]
    grads = tape_grads(lambda: sum_all(mul(run(), Tensor(probe))), tensors)
    for tensor, grad in zip(tensors, grads):
        state = (bn.running_mean.copy(), bn.running_var.copy())
        fd = fd_wrt(tensor, lambda: scalar_through(run, probe))
        bn.running_mean, bn.running_var = state
        if tensor is conv.bias:  # batchnorm removes any per-channel shift
            assert np.max(np.abs(grad)) < 1e-12 and np.max(np.abs(fd)) < 1e-8
        else:
            assert rel_err(grad, fd) < 1e-5


def test_conv_bn_relu_rejects_mismatched_batchnorm():
    conv, _ = _stage(10)
    with pytest.raises(ShapeMismatch):
        conv_bn_relu(Tensor(np.zeros((1, 3, 8))), conv, BatchNorm1d(5), True)


# ---------------------------------------------------------------------------
# layernorm


def test_layernorm_token_mean_zero():
    rng = np.random.default_rng(19)
    ln = LayerNorm(16)
    out = ln.forward(Tensor(rng.standard_normal((3, 5, 16)) * 4.0 + 1.0))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-10


def test_layernorm_gradients_vs_fd():
    rng = np.random.default_rng(20)
    ln = LayerNorm(6)
    ln.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    ln.beta.data[:] = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    probe = rng.standard_normal((4, 6))

    grads = tape_grads(lambda: sum_all(mul(ln.forward(x), Tensor(probe))), [x, ln.gamma, ln.beta])
    for tensor, grad in zip([x, ln.gamma, ln.beta], grads):
        fd = fd_wrt(tensor, lambda: scalar_through(lambda: ln.forward(x), probe))
        assert rel_err(grad, fd) < 1e-5


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
    weights = attn.attention_weights(Tensor(x))
    np.testing.assert_allclose(weights, 1.0, atol=1e-15)
    out = attn.forward(Tensor(x))
    expected = (x.reshape(1, 8) @ attn.w_v.data) @ attn.w_o.data
    np.testing.assert_allclose(out.data.reshape(1, 8), expected, atol=1e-12)


def test_mhsa_identical_tokens_uniform_attention():
    rng = np.random.default_rng(31)
    attn = MultiHeadSelfAttention(8, 4, rng=rng)
    token = rng.standard_normal(8)
    x = np.tile(token, (2, 5, 1))
    weights = attn.attention_weights(Tensor(x))
    np.testing.assert_allclose(weights, 1.0 / 5.0, atol=1e-12)
    out = attn.forward(Tensor(x)).data
    for t in range(1, 5):
        np.testing.assert_allclose(out[:, t], out[:, 0], atol=1e-12)


def test_mhsa_rows_sum_to_one_and_fd():
    rng = np.random.default_rng(32)
    attn = MultiHeadSelfAttention(8, 2, rng=rng)
    x0 = rng.standard_normal((2, 4, 8))
    weights = attn.attention_weights(Tensor(x0))
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    x = Tensor(x0.copy(), requires_grad=True)
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


def test_shape_algebra_composition():
    # kernel 3 / pad 1 / stride 1 preserves, pool halves, transpose k2 s2 doubles
    assert conv_out_len(3600, 3, 1, 1) == 3600
    length = 3600
    for _ in range(4):
        length //= 2
    assert length == 225
    rng = np.random.default_rng(36)
    x = Tensor(rng.standard_normal((1, 1, 16)))
    conv = Conv1d(1, 2, 3, padding=1, rng=rng)
    down = maxpool1d(conv.forward(x))
    assert down.shape == (1, 2, 8)
    up = ConvTranspose1d(2, 1, 2, stride=2, rng=rng)
    assert up.forward(down).shape == (1, 1, 16)
