import numpy as np
import pytest

from conftest import central_diff, rel_err, tape_grads
from ecgdenoise.tensor import (
    ShapeMismatch,
    Tape,
    TapeError,
    Tensor,
    add,
    bmm,
    concat_channels,
    matmul,
    mul,
    relu,
    softmax_last,
    sub,
    sum_all,
    transpose_last,
    Tensor as T,
)


def test_relu_definition():
    out = relu(Tensor([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_add_values():
    out = add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_mul_backward_product_rule():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(mul(a, b)))  # upstream of each element is 1
    np.testing.assert_array_equal(a.grad, [3.0, 4.0])
    np.testing.assert_array_equal(b.grad, [1.0, 2.0])


def test_add_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeMismatch) as exc:
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
    assert "(2, 3)" in str(exc.value) and "(2, 4)" in str(exc.value)


def test_scalar_and_channel_broadcast():
    a = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    bias = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        out = add(a, bias)
        tape.backward(sum_all(out))
    assert out.data[0, 1, 0] == 3.0
    np.testing.assert_array_equal(bias.grad, [8.0, 8.0, 8.0])
    np.testing.assert_array_equal(a.grad, np.ones((2, 3, 4)))


def test_leading_broadcast_over_batch():
    a = Tensor(np.zeros((2, 3, 4)), requires_grad=True)
    table = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(add(a, table)))
    np.testing.assert_array_equal(table.grad, np.full((3, 4), 2.0))


def test_matmul_identity_and_dot():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), m)
    np.testing.assert_array_equal(out.data, m.data)
    dot = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(dot.data, [[11.0]])


def test_matmul_dim_mismatch():
    with pytest.raises(ShapeMismatch):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_gradient_matches_central_differences():
    rng = np.random.default_rng(7)
    a0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal((4, 2))
    w = rng.standard_normal((3, 2))  # fixed weights make the scalar generic

    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    ga, gb = tape_grads(lambda: sum_all(mul(matmul(a, b), Tensor(w))), [a, b])

    fa = central_diff(lambda x: float((x @ b0 * w).sum()), a0.copy(), eps=1e-5)
    fb = central_diff(lambda x: float((a0 @ x * w).sum()), b0.copy(), eps=1e-5)
    assert rel_err(ga, fa) < 1e-6
    assert rel_err(gb, fb) < 1e-6


def test_concat_channels_order_and_roundtrip():
    a = Tensor(np.array([[[1.0, 2.0, 3.0]]]))
    b = Tensor(np.array([[[4.0, 5.0, 6.0]]]))
    out = concat_channels(a, b)
    assert out.shape == (1, 2, 3)
    np.testing.assert_array_equal(out.data[0, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(out.data[0, 1], [4.0, 5.0, 6.0])
    # slice-back round-trips both inputs exactly
    np.testing.assert_array_equal(out.data[:, :1], a.data)
    np.testing.assert_array_equal(out.data[:, 1:], b.data)


def test_concat_channels_backward_all_ones():
    a = Tensor(np.zeros((2, 2, 3)), requires_grad=True)
    b = Tensor(np.zeros((2, 1, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(concat_channels(a, b)))
    np.testing.assert_array_equal(a.grad, np.ones((2, 2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((2, 1, 3)))


def test_concat_channels_length_mismatch():
    with pytest.raises(ShapeMismatch):
        concat_channels(Tensor(np.zeros((1, 1, 3))), Tensor(np.zeros((1, 1, 4))))


def test_backward_of_sum_is_ones():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_accumulates_across_reuse():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
        tape.backward(sum_all(y))
    np.testing.assert_array_equal(x.grad, 2.0 * np.ones((2, 3)))


def test_shared_first_gradient_is_never_written_to():
    # add hands the same upstream array to both operands; a later
    # contribution to one of them must leave the other's gradient alone
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    y = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        twice = mul(x, 2.0)  # recorded first, so its gradient reaches x last
        tape.backward(sum_all(add(add(x, y), twice)))
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))
    np.testing.assert_array_equal(y.grad, np.ones((2, 3)))


def test_backward_rejects_nonscalar_root():
    x = Tensor(np.zeros(3), requires_grad=True)
    with Tape() as tape:
        y = add(x, 1.0)
        with pytest.raises(ShapeMismatch):
            tape.backward(y)


def test_backward_rejects_off_tape_root():
    x = Tensor(np.zeros(3), requires_grad=True)
    y = sum_all(x)  # no tape active: nothing recorded
    with Tape() as tape:
        with pytest.raises(TapeError):
            tape.backward(y)


def test_tape_single_use():
    x = Tensor([1.0], requires_grad=True)
    with Tape() as tape:
        y = sum_all(x)
        tape.backward(y)
        with pytest.raises(TapeError):
            tape.backward(y)


def test_no_grad_allocation_without_requires_grad():
    x = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = sum_all(add(x, 1.0))
    assert x.grad is None and y.requires_grad is False and len(tape) == 0


def test_gradient_accumulation_matches_batch_split():
    # Backprop of a summed batch loss equals the sum of per-sample backprops.
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4, 3))
    w0 = rng.standard_normal((3, 2))

    w = Tensor(w0.copy(), requires_grad=True)
    x = Tensor(x0.copy())
    with Tape() as tape:
        y = matmul(x, w)
        tape.backward(sum_all(mul(y, y)))
    batch_grad = w.grad.copy()

    w.zero_grad()
    with Tape() as tape:
        total = None
        for i in range(4):
            yi = matmul(Tensor(x0[i : i + 1]), w)
            li = sum_all(mul(yi, yi))
            total = li if total is None else add(total, li)
        tape.backward(total)
    assert np.max(np.abs(batch_grad - w.grad)) <= 1e-12


def test_gradients_deterministic_across_runs():
    def run():
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        with Tape() as tape:
            out = sum_all(relu(matmul(a, b)))
            tape.backward(out)
        return a.grad.copy(), b.grad.copy()

    (a1, b1), (a2, b2) = run(), run()
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_elementwise_fd_agreement_random_inputs():
    # Differentiable ops agree with central differences away from kinks.
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.2, 1.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    w = rng.standard_normal((4, 4))

    def scalar(arr):
        return float((np.maximum(arr, 0.0) * arr * w).sum())

    x = Tensor(x0.copy(), requires_grad=True)
    (g,) = tape_grads(lambda: sum_all(mul(mul(relu(x), x), Tensor(w))), [x])
    fd = central_diff(scalar, x0.copy(), eps=1e-5)
    assert rel_err(g, fd) < 1e-5


def test_softmax_rows_sum_to_one_and_backward():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((5, 7))
    out = softmax_last(Tensor(x0))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    w = rng.standard_normal((5, 7))
    x = Tensor(x0.copy(), requires_grad=True)
    (g,) = tape_grads(lambda: sum_all(mul(softmax_last(x), Tensor(w))), [x])

    def scalar(arr):
        e = np.exp(arr - arr.max(axis=-1, keepdims=True))
        s = e / e.sum(axis=-1, keepdims=True)
        return float((s * w).sum())

    fd = central_diff(scalar, x0.copy(), eps=1e-5)
    assert rel_err(g, fd) < 1e-6


def test_bmm_and_transpose_fd():
    rng = np.random.default_rng(13)
    a0 = rng.standard_normal((2, 3, 4))
    b0 = rng.standard_normal((2, 4, 5))
    w = rng.standard_normal((2, 3, 5))

    a = Tensor(a0.copy(), requires_grad=True)
    b = Tensor(b0.copy(), requires_grad=True)
    ga, gb = tape_grads(lambda: sum_all(mul(bmm(a, b), Tensor(w))), [a, b])

    fa = central_diff(lambda x: float((np.matmul(x, b0) * w).sum()), a0.copy())
    fb = central_diff(lambda x: float((np.matmul(a0, x) * w).sum()), b0.copy())
    assert rel_err(ga, fa) < 1e-6
    assert rel_err(gb, fb) < 1e-6

    t = transpose_last(Tensor(a0))
    assert t.shape == (2, 4, 3)
    np.testing.assert_array_equal(t.data, a0.swapaxes(1, 2))
