"""Finite-difference verification of every backward rule in the stack.

Each check builds a tiny seeded instance of one layer type, compares tape
gradients against central differences for every parameter and the input, and
reports the worst relative error. Conv, pool and batchnorm inputs are
channel-major (C, B, L), as the model feeds them. The end-to-end check
samples parameters of a small full model under the combined training loss.

Only forward evaluations feed the finite differences, so the checks stay
independent of the backward implementations they judge.
"""

from __future__ import annotations

import numpy as np

from . import layers
from .loss import LossConfig, total_loss
from .model import DoubleConv, ModelConfig, TransformerUNet1D
from .tensor import Tape, Tensor

__all__ = ["CheckResult", "run_all_checks", "CHECK_ORDER"]

DEFAULT_TOL = 1e-4
MAX_DRAWS = 10  # entries tried per sample of the end-to-end check


class CheckResult:
    def __init__(self, name: str, worst_err: float, tol: float = DEFAULT_TOL):
        self.name = name
        self.worst_err = worst_err
        self.tol = tol

    @property
    def passed(self) -> bool:
        return self.worst_err < self.tol

    def __repr__(self):
        status = "ok" if self.passed else "FAIL"
        return f"{self.name}: worst rel err {self.worst_err:.3e} (tol {self.tol:g}) {status}"


def _finite_difference(scalar_fn, flat: np.ndarray, i: int, eps: float) -> float:
    """Central difference of `scalar_fn` in entry `i` of `flat`, a flat view of
    a tensor's data; the entry is restored."""
    orig = flat[i]
    flat[i] = orig + eps
    fp = scalar_fn()
    flat[i] = orig - eps
    fm = scalar_fn()
    flat[i] = orig
    return (fp - fm) / (2.0 * eps)


def _restoring_buffers(module, forward_fn):
    """`forward_fn` preceded by a reset of `module`'s buffers to their values
    now, so every forward starts from the same running statistics."""
    saved = [a.copy() for _, a in module.state_arrays()]

    def forward():
        for (_, a), s in zip(module.state_arrays(), saved):
            a[...] = s
        return forward_fn()

    return forward


def _tape_gradients(forward_fn, tensors, probe: np.ndarray):
    """Each tensor's tape gradient of `(forward_fn() * probe).sum()`, zeros where
    none arrived."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        tape.backward(forward_fn(), probe)
    return [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


def _worst_err(forward_fn, tensors, probe: np.ndarray, eps: float = 1e-5) -> float:
    """Compare tape and finite-difference gradients over whole tensors."""
    analytic = _tape_gradients(forward_fn, tensors, probe)

    def scalar():
        return float((forward_fn().data * probe).sum())

    worst = 0.0
    for t, an in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        fd = np.array([_finite_difference(scalar, flat, i, eps) for i in range(flat.size)]).reshape(t.shape)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1e-6)
        worst = max(worst, float(np.max(np.abs(fd - an) / denom)))
    return worst


def _layer_check(layer_type, args, x_shape, probe_shape):
    """The check of `layer_type(*args)`: it builds the layer from its `rng`, then
    draws the input, then the probe, and returns the worst error over the input
    and every parameter."""
    def check(rng) -> float:
        layer = layer_type(*args, rng=rng)
        x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
        probe = rng.standard_normal(probe_shape)
        tensors = [x] + [t for _, t in layer.parameters()]
        return _worst_err(lambda: layer.forward(x), tensors, probe)

    return check


def check_maxpool1d(rng) -> float:
    # a permutation guarantees every window is far from a tie
    x = Tensor(rng.permutation(24).astype(float).reshape(2, 1, 12), requires_grad=True)
    probe = rng.standard_normal((2, 1, 6))
    return _worst_err(lambda: layers.maxpool1d(x), [x], probe)


def check_batchnorm1d(rng) -> float:
    """The fused conv -> batchnorm -> relu stages of a double conv, as the model
    trains them: the backward's recomputed middle output and its ReLU mask are
    differentiated too."""
    block = DoubleConv(2, 3, rng=rng)
    for bn in (block.bn1, block.bn2):
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
        bn.beta.data[:] = rng.standard_normal(3)
    x = Tensor(rng.standard_normal((2, 2, 6)), requires_grad=True)
    probe = rng.standard_normal((3, 2, 6))
    forward = _restoring_buffers(block, lambda: block.forward(x, training=True))
    return _worst_err(forward, [x] + [t for _, t in block.parameters()], probe)


def check_layernorm(rng) -> float:
    """The fused residual sum and layer norm, LN(x + f)."""
    ln = layers.LayerNorm(6)
    ln.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    ln.beta.data[:] = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    f = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    probe = rng.standard_normal((4, 6))
    return _worst_err(lambda: ln.forward(x, f), [x, f, ln.gamma, ln.beta], probe)


def check_model_end_to_end(rng, samples: int = 24) -> float:
    """Sampled-parameter check of the full model under the combined loss.

    An entry whose central differences at eps and eps/10 disagree is not
    resolved at eps: a ReLU or maxpool kink lies within eps of it, and the
    difference straddles it. Another tensor and entry are drawn in its place,
    up to `MAX_DRAWS` draws per sample; an entry still unresolved then counts.
    """
    model = TransformerUNet1D(
        ModelConfig(base_channels=2, transformer_layers=1, heads=2, input_len=32, seed=3)
    )
    x = Tensor(rng.standard_normal((2, 1, 32)))
    target = Tensor(rng.standard_normal((2, 1, 32)))
    cfg = LossConfig()
    tensors = [t for _, t in model.parameters()]

    def loss():
        return total_loss(model.forward(x, training=True), target, cfg)

    grads = _tape_gradients(lambda: loss()[0], tensors, np.ones(1))
    scalar = _restoring_buffers(model, lambda: loss()[1].total)

    def rel(a, b):
        # unit floor: below 1 the error is absolute, so a near-0 gradient is not judged by rounding
        return abs(a - b) / max(abs(a), abs(b), 1.0)

    eps = 1e-4
    worst = 0.0
    for idx in rng.choice(len(tensors), size=min(samples, len(tensors)), replace=False):
        for draw in range(MAX_DRAWS):
            if draw:
                idx = int(rng.integers(len(tensors)))
            flat = tensors[idx].data.reshape(-1)
            i = int(rng.integers(flat.size))
            fd = _finite_difference(scalar, flat, i, eps)
            if rel(fd, _finite_difference(scalar, flat, i, eps / 10)) < DEFAULT_TOL:
                break
        worst = max(worst, rel(fd, grads[idx].reshape(-1)[i]))
    return worst


CHECK_ORDER = [
    ("conv1d", _layer_check(layers.Conv1d, (2, 3, 3), (2, 2, 8), (3, 2, 8))),
    ("conv_transpose1d", _layer_check(layers.ConvTranspose1d, (2, 3), (2, 2, 5), (3, 2, 10))),
    ("maxpool1d", check_maxpool1d),
    ("batchnorm1d", check_batchnorm1d),
    ("layernorm", check_layernorm),
    ("mhsa", _layer_check(layers.MultiHeadSelfAttention, (8, 2), (2, 4, 8), (2, 4, 8))),
    ("feedforward", _layer_check(layers.FeedForward, (6, 12), (5, 6), (5, 6))),
    ("transformer_layer", _layer_check(layers.TransformerEncoderLayer, (8, 2, 16), (2, 4, 8), (2, 4, 8))),
    ("model_end_to_end", check_model_end_to_end),
]


def run_all_checks(seed: int = 0):
    """One CheckResult per layer type, in a fixed order."""
    results = []
    for idx, (name, fn) in enumerate(CHECK_ORDER):
        rng = np.random.default_rng(1000 * seed + idx)
        results.append(CheckResult(name, fn(rng)))
    return results
