"""Dense float64 tensors (rank 1-3) with reverse-mode autodiff on an explicit tape.

Gradients are recorded onto a `Tape` that is active inside a `with Tape() as t:`
block. Ops executed while no tape is active run without recording, which is how
eval-mode inference stays allocation-free. Backward replays the tape in reverse;
because nodes are appended in execution order the list is already topologically
sorted and every node is visited exactly once.

Gradients are shared, not copied: `accumulate_grad` stores the first
contribution to a tensor's `.grad` as handed in, which may be a view of an
upstream buffer or the same array another input received, and adds later
contributions out of place. No code writes into a `.grad` array; the
optimizer only reads them.

Broadcasting is deliberately limited to the patterns the network actually uses:
scalar, per-channel bias on (B, C, L), trailing feature bias on (N, D), and a
full trailing-shape broadcast over the leading (batch) axis.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatch",
    "add",
    "sub",
    "mul",
    "relu",
    "matmul",
    "bmm",
    "transpose_last",
    "reshape",
    "concat_channels",
    "sum_all",
    "softmax_last",
    "apply_op",
    "accumulate_grad",
]


class ShapeMismatch(ValueError):
    """Incompatible operand shapes; message names both shapes."""

    def __init__(self, op: str, a_shape, b_shape=None, detail: str = ""):
        self.op = op
        self.a_shape = tuple(a_shape)
        self.b_shape = tuple(b_shape) if b_shape is not None else None
        msg = f"{op}: shape {self.a_shape}"
        if self.b_shape is not None:
            msg += f" vs {self.b_shape}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class TapeError(RuntimeError):
    """Backward requested on an invalid root or a consumed/nested tape."""


_ACTIVE_TAPE = None


class Tensor:
    """A float64 array of rank 1-3 plus optional gradient storage.

    Tensors are value-semantic: operations never mutate their inputs (the
    optimizer updates parameter `.data` in place, but parameters are owned by
    their layer). A tensor with ``requires_grad=False`` never allocates a
    gradient buffer.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.ndim > 3:
            raise ShapeMismatch("tensor", arr.shape, detail="rank must be 1-3")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._tape = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ShapeMismatch("item", self.shape, detail="not a scalar")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this scalar through the tape that recorded it."""
        if self._tape is None:
            raise TapeError("backward: tensor was not recorded on a tape")
        self._tape.backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; constants are treated as non-differentiable
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Wengert list of recorded operations for one forward/backward pass.

    Single use: enter, run the forward pass, call ``backward(root)`` once,
    exit. Nodes are (output, backward_fn) pairs in execution order.
    """

    def __init__(self):
        self._nodes = []
        self._consumed = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise TapeError("a tape is already active; tapes do not nest")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, out: Tensor, backward_fn) -> None:
        out._tape = self
        self._nodes.append((out, backward_fn))

    def backward(self, root: Tensor) -> None:
        if self._consumed:
            raise TapeError("tape already consumed by a previous backward")
        if root.size != 1:
            raise ShapeMismatch("backward", root.shape, detail="root must be scalar")
        if root._tape is not self:
            raise TapeError("backward: root was not recorded on this tape")
        root.grad = np.ones_like(root.data)
        for out, backward_fn in reversed(self._nodes):
            if out.grad is not None:
                backward_fn(out.grad)
        # free activations; the tape is single-use by design
        self._nodes.clear()
        self._consumed = True


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add `g` to `t.grad` out of place; the first `g` is stored as is. No-op for constants.

    `g` may be a view of another buffer or the very array handed to a sibling
    input, so a stored gradient is never written to.
    """
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def apply_op(out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap an op result, recording `backward_fn` on the active tape.

    `backward_fn(upstream)` must route gradients into each input via
    `accumulate_grad`. Recording happens only when some input requires grad
    and a tape is active.
    """
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires and _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE._record(out, backward_fn)
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _align(op: str, a: Tensor, b: Tensor):
    """Match `b` against `a` under the supported broadcast patterns.

    Returns (view of b.data broadcastable to a.shape, reducer) where
    `reducer(g)` collapses an upstream gradient of a.shape back to b.shape.
    """
    if b.shape == a.shape:
        return b.data, lambda g: g
    if b.size == 1:
        return b.data.reshape((1,) * a.ndim), lambda g: g.sum().reshape(1)
    if b.ndim == a.ndim - 1 and b.shape == a.shape[1:]:
        return b.data[None], lambda g: g.sum(axis=0)
    if a.ndim == 3 and b.ndim == 1 and b.shape[0] == a.shape[1]:
        return b.data.reshape(1, -1, 1), lambda g: g.sum(axis=(0, 2))
    raise ShapeMismatch(op, a.shape, b.shape)


def _binary(op: str, a: Tensor, b, fwd, dfa, dfb) -> Tensor:
    """Shared body of add/sub/mul. dfa/dfb map upstream to operand grads."""
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


def sub(a, b) -> Tensor:
    return _binary(
        "sub", a, b,
        fwd=lambda x, y: x - y,
        dfa=lambda g, x, y: g,
        dfb=lambda g, x, y: -g,
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch("matmul", a.shape, b.shape, detail="expects 2D @ 2D")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch("matmul", a.shape, b.shape, detail="inner dims differ")
    out_data = a.data @ b.data

    def backward(g, a=a, b=b):
        accumulate_grad(a, g @ b.data.T)
        accumulate_grad(b, a.data.T @ g)

    return apply_op(out_data, (a, b), backward)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul: (B, m, k) @ (B, k, n) -> (B, m, n)."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeMismatch("bmm", a.shape, b.shape)
    out_data = np.matmul(a.data, b.data)

    def backward(g, a=a, b=b):
        accumulate_grad(a, np.matmul(g, b.data.swapaxes(1, 2)))
        accumulate_grad(b, np.matmul(a.data.swapaxes(1, 2), g))

    return apply_op(out_data, (a, b), backward)


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes of a rank-2/3 tensor."""
    a = _as_tensor(a)
    if a.ndim < 2:
        raise ShapeMismatch("transpose_last", a.shape, detail="needs rank >= 2")
    out_data = np.swapaxes(a.data, -1, -2)

    def backward(g, a=a):
        accumulate_grad(a, np.swapaxes(g, -1, -2))

    return apply_op(out_data, (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward(g, a=a):
        accumulate_grad(a, g.reshape(a.shape))

    return apply_op(out_data, (a,), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack (B, C1, L) and (B, C2, L) into (B, C1+C2, L), a's channels first."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 3 or b.ndim != 3:
        raise ShapeMismatch("concat_channels", a.shape, b.shape, detail="expects rank 3")
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ShapeMismatch("concat_channels", a.shape, b.shape, detail="batch/length differ")
    split = a.shape[1]

    def backward(g, a=a, b=b):
        accumulate_grad(a, g[:, :split])
        accumulate_grad(b, g[:, split:])

    return apply_op(np.concatenate([a.data, b.data], axis=1), (a, b), backward)


def sum_all(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out_data = np.array([a.data.sum()])

    def backward(g, a=a):
        accumulate_grad(a, np.full_like(a.data, g[0]))

    return apply_op(out_data, (a,), backward)


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
