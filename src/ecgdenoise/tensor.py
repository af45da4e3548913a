"""Dense tensors (rank 1-3) with reverse-mode autodiff on an explicit tape.

A tensor holds float64 data, or float32 when it is handed float32: training
steps and the model's `predict` compute in float32 from float64 weights,
while validation, gradcheck and checkpoints stay float64
(`model.TransformerUNet1D`, `training`).

The module records no op of its own. Every recorded op is a layer's
(`layers`), the loss's or one of the model's layout changes, wrapped by
`apply_op`; even the decoder's skip concatenation is part of the transposed
conv (`layers.conv_transpose1d`).

Gradients are recorded onto a `Tape` that is active inside a `with Tape() as t:`
block. Ops executed while no tape is active run without recording, which is how
eval-mode inference keeps no activation for a backward. Backward replays the
tape in reverse; because nodes are appended in execution order the list is
already topologically sorted and every node is visited exactly once.

Backward starts from the root's gradient: the `grad` handed to
`Tape.backward(root, grad)`, else one the caller already stored in
`root.grad`, else 1 for a scalar root, cast to the root's dtype, so a float32
forward runs a float32 backward. It frees as it goes. Each node is
popped off the tape before its backward runs, and its output's `.grad` is
dropped once that backward has run. A node's saved activations and its
upstream gradient are therefore released as soon as no node further up the
tape still needs them, and the backward's peak memory is what remains to be
differentiated, not the whole forward plus every gradient formed so far.
Leaves (parameters and inputs made by the caller) keep their gradients.

Gradients are shared, not copied: `accumulate_grad` stores the first
contribution to a tensor's `.grad` as handed in, which may be a view of an
upstream buffer or the same array another input received, and adds later
contributions out of place. No code writes into a `.grad` array; the
optimizer only reads them. A backward closure may reuse buffers it saved
itself, which nothing else reads once it has run.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeMismatch",
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
    """A float64 or float32 array of rank 1-3 plus optional gradient storage.
    Float32 data stays float32; any other dtype converts to float64.

    Tensors are value-semantic: operations never mutate their inputs (the
    optimizer updates parameter `.data` in place, but parameters are owned by
    their layer; a transposed conv writes into the room ahead of its skip in
    the skip's buffer, which no tensor's data covers). A tensor with
    ``requires_grad=False`` never allocates a gradient buffer.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


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

    def backward(self, root: Tensor, grad=None) -> None:
        """Propagate from `root`, seeded with `grad` (an array of root's shape),
        else with a gradient already stored in ``root.grad``, else with 1 for
        a scalar root; pops and frees every node on the way (module docstring)."""
        if self._consumed:
            raise TapeError("tape already consumed by a previous backward")
        if grad is None:
            grad = root.grad
        if grad is None:
            if root.size != 1:
                raise ShapeMismatch("backward", root.shape, detail="root must be scalar unless seeded")
            grad = np.ones_like(root.data)
        grad = np.asarray(grad, dtype=root.data.dtype)
        if grad.shape != root.shape:
            raise ShapeMismatch("backward", root.shape, grad.shape, detail="seed differs from root")
        if root._tape is not self:
            raise TapeError("backward: root was not recorded on this tape")
        self._consumed = True
        root.grad = grad
        nodes = self._nodes
        while nodes:
            out, backward_fn = nodes.pop()
            if out.grad is not None:
                backward_fn(out.grad)
                out.grad = None


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
