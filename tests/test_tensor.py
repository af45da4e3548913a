import tracemalloc

import numpy as np
import pytest

from conftest import central_diff, rel_err, tape_grads
from ecgdenoise.tensor import ShapeMismatch, Tape, TapeError, Tensor, apply_op, concat_channels
from reference import add, bmm, matmul, mul, relu, softmax_last, sum_all, transpose_last


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
    # channel-major (C, B, L): two segments of three samples per channel
    a = Tensor(np.array([[[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]]]))
    b = Tensor(np.array([[[4.0, 5.0, 6.0], [0.0, -1.0, -2.0]]]))
    out = concat_channels(a, b)
    assert out.shape == (2, 2, 3)
    np.testing.assert_array_equal(out.data[0], [[1.0, 2.0, 3.0], [7.0, 8.0, 9.0]])
    np.testing.assert_array_equal(out.data[1], [[4.0, 5.0, 6.0], [0.0, -1.0, -2.0]])
    # slice-back round-trips both inputs exactly
    np.testing.assert_array_equal(out.data[:1], a.data)
    np.testing.assert_array_equal(out.data[1:], b.data)


def test_concat_channels_backward_all_ones():
    a = Tensor(np.zeros((2, 2, 3)), requires_grad=True)
    b = Tensor(np.zeros((1, 2, 3)), requires_grad=True)
    with Tape() as tape:
        tape.backward(sum_all(concat_channels(a, b)))
    np.testing.assert_array_equal(a.grad, np.ones((2, 2, 3)))
    np.testing.assert_array_equal(b.grad, np.ones((1, 2, 3)))


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


def test_seeded_backward_matches_the_inner_product_root():
    rng = np.random.default_rng(15)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    seed = rng.standard_normal((3, 2))
    with Tape() as tape:
        tape.backward(matmul(a, b), seed)
    seeded = a.grad, b.grad
    composed = tape_grads(lambda: sum_all(mul(matmul(a, b), Tensor(seed))), [a, b])
    for got, want in zip(seeded, composed):
        assert got.tobytes() == want.tobytes()


def test_backward_seeds_from_a_stored_root_gradient():
    x = Tensor(np.arange(3.0), requires_grad=True)
    with Tape() as tape:
        y = mul(x, 2.0)
        y.grad = np.array([1.0, -1.0, 0.5])
        tape.backward(y)
    np.testing.assert_array_equal(x.grad, [2.0, -2.0, 1.0])


@pytest.mark.parametrize("seeding", ["argument", "stored", "scalar root"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_seeds_in_the_roots_dtype(dtype, seeding):
    other = np.float64 if dtype == np.float32 else np.float32
    x = Tensor(np.ones(1, dtype=dtype), requires_grad=True)
    seen = []
    with Tape() as tape:
        y = apply_op(2.0 * x.data, (x,), seen.append)
        if seeding == "stored":
            y.grad = np.full(1, 0.5, dtype=other)
        tape.backward(y, np.full(1, 0.5, dtype=other) if seeding == "argument" else None)
    assert y.data.dtype == seen[0].dtype == dtype


@pytest.mark.parametrize("shape", [(3,), (2, 4), (1,)])
def test_seeded_backward_rejects_a_seed_of_another_shape(shape):
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = mul(x, 2.0)
        with pytest.raises(ShapeMismatch) as exc:
            tape.backward(y, np.ones(shape))
    assert "(2, 3)" in str(exc.value) and str(shape) in str(exc.value)
    assert x.grad is None and y.grad is None


def test_backward_drops_intermediate_gradients_and_keeps_leaves():
    x = Tensor(np.ones(4), requires_grad=True)
    with Tape() as tape:
        y = mul(x, 3.0)
        z = add(y, y)
        tape.backward(z, np.ones(4))
    assert y.grad is None and z.grad is None and len(tape) == 0
    np.testing.assert_array_equal(x.grad, np.full(4, 6.0))


def _backward_excess(length, size=1 << 16):
    """Traced bytes allocated by backward over a chain of `length` full-size
    ops beyond what the forward holds, in units of one activation."""
    x = Tensor(np.ones(size), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = x
            for _ in range(length):
                y = mul(y, 1.5)
            seed = np.ones(size)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(y, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - start) / (8 * size)


def test_backward_peak_does_not_grow_with_chain_length():
    # a tape that kept every gradient to the end peaked at length + 1 extra
    # activations; freeing each node's gradient once its backward has run
    # leaves two at any length (the upstream gradient and the one formed)
    short, long = _backward_excess(4), _backward_excess(32)
    assert long < 3.0
    assert long <= short + 0.5


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
