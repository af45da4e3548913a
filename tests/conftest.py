"""Shared helpers: an independent central-difference oracle and error measures.

The finite-difference code here only ever calls forward passes, so it stays
independent of every backward rule it is used to check.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np

from ecgdenoise.tensor import Tape


def central_diff(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Elementwise central finite differences of scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """Worst elementwise relative error, floored to avoid 0/0 blowups."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def tape_grads(loss_fn, tensors):
    """Run loss_fn under a fresh tape and return each tensor's gradient."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        loss = loss_fn()
        tape.backward(loss)
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def fd_wrt(tensor, scalar_fn, eps: float = 1e-5) -> np.ndarray:
    """Central differences of scalar_fn() with respect to a live Tensor.

    scalar_fn must re-run the forward pass reading tensor.data; the tensor is
    restored afterwards.
    """
    base = tensor.data.copy()

    def f(arr):
        tensor.data[...] = arr
        try:
            return scalar_fn()
        finally:
            tensor.data[...] = base

    g = central_diff(f, base.copy(), eps)
    tensor.data[...] = base
    return g


def traced_peak(fn) -> int:
    """Peak bytes that `fn()` holds at once of what it allocates itself, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def edit_checkpoint_header(prefix, edit) -> None:
    """Apply `edit` to the parsed JSON header of `<prefix>.ckpt` and write the
    file back with the new header's length, the array bytes unchanged."""
    path = Path(f"{prefix}.ckpt")
    blob = path.read_bytes()
    length = int.from_bytes(blob[:8], "little")
    header = json.loads(blob[8 : 8 + length])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(len(new).to_bytes(8, "little") + new + blob[8 + length :])
