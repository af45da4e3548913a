"""Finite-difference verification of every backward rule in the stack.

Each check builds a tiny seeded instance of one layer type, compares tape
gradients against central differences for every parameter and the input, and
reports the worst relative error. The end-to-end check samples parameters of
a small full model under the combined training loss.

Only forward evaluations feed the finite differences, so the checks stay
independent of the backward implementations they judge.
"""

from __future__ import annotations

import numpy as np

from . import layers
from .loss import LossConfig, total_loss
from .model import ModelConfig, TransformerUNet1D
from .tensor import Tape, Tensor, mul, sum_all

__all__ = ["CheckResult", "run_all_checks", "CHECK_ORDER"]

DEFAULT_TOL = 1e-4


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


def _central_diff(scalar_fn, tensor: Tensor, eps: float) -> np.ndarray:
    flat = tensor.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = scalar_fn()
        flat[i] = orig - eps
        fm = scalar_fn()
        flat[i] = orig
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad.reshape(tensor.shape)


def _worst_err(forward_fn, tensors, probe: np.ndarray, eps: float = 1e-5,
               floor: float = 1e-6) -> float:
    """Compare tape and finite-difference gradients over whole tensors."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        tape.backward(sum_all(mul(forward_fn(), Tensor(probe))))
    analytic = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    def scalar():
        return float((forward_fn().data * probe).sum())

    worst = 0.0
    for t, an in zip(tensors, analytic):
        fd = _central_diff(scalar, t, eps)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(an)), floor)
        worst = max(worst, float(np.max(np.abs(fd - an) / denom)))
    return worst


def check_conv1d(rng) -> float:
    conv = layers.Conv1d(2, 3, 3, padding=1, rng=rng)
    x = Tensor(rng.standard_normal((2, 2, 8)), requires_grad=True)
    probe = rng.standard_normal((2, 3, 8))
    tensors = [x, conv.weight, conv.bias]
    return _worst_err(lambda: conv.forward(x), tensors, probe)


def check_conv_transpose1d(rng) -> float:
    tconv = layers.ConvTranspose1d(2, 3, 2, stride=2, rng=rng)
    x = Tensor(rng.standard_normal((2, 2, 5)), requires_grad=True)
    probe = rng.standard_normal((2, 3, 10))
    tensors = [x, tconv.weight, tconv.bias]
    return _worst_err(lambda: tconv.forward(x), tensors, probe)


def check_maxpool1d(rng) -> float:
    # a permutation guarantees every window is far from a tie
    x = Tensor(rng.permutation(24).astype(float).reshape(1, 2, 12), requires_grad=True)
    probe = rng.standard_normal((1, 2, 6))
    return _worst_err(lambda: layers.maxpool1d(x), [x], probe)


def check_batchnorm1d(rng) -> float:
    """The fused conv -> batchnorm -> relu stage the model trains with."""
    conv = layers.Conv1d(2, 3, 3, padding=1, rng=rng)
    bn = layers.BatchNorm1d(3)
    bn.gamma.data[:] = rng.uniform(0.5, 1.5, 3)
    bn.beta.data[:] = rng.standard_normal(3)
    x = Tensor(rng.standard_normal((2, 2, 6)), requires_grad=True)
    probe = rng.standard_normal((2, 3, 6))
    saved = [a.copy() for _, a in bn.state_arrays()]

    def forward():
        for (_, a), s in zip(bn.state_arrays(), saved):
            a[...] = s
        return layers.conv_bn_relu(x, conv, bn, training=True)

    # unit floor: the conv bias feeds batchnorm, so its gradient is exactly zero
    return max(_worst_err(forward, [x, conv.weight, bn.gamma, bn.beta], probe),
               _worst_err(forward, [conv.bias], probe, floor=1.0))


def check_layernorm(rng) -> float:
    ln = layers.LayerNorm(6)
    ln.gamma.data[:] = rng.uniform(0.5, 1.5, 6)
    ln.beta.data[:] = rng.standard_normal(6)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    probe = rng.standard_normal((4, 6))
    return _worst_err(lambda: ln.forward(x), [x, ln.gamma, ln.beta], probe)


def check_mhsa(rng) -> float:
    attn = layers.MultiHeadSelfAttention(8, 2, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    probe = rng.standard_normal((2, 4, 8))
    tensors = [x] + [t for _, t in attn.parameters()]
    return _worst_err(lambda: attn.forward(x), tensors, probe)


def check_feedforward(rng) -> float:
    ff = layers.FeedForward(6, 12, rng=rng)
    x = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    probe = rng.standard_normal((5, 6))
    tensors = [x] + [t for _, t in ff.parameters()]
    return _worst_err(lambda: ff.forward(x), tensors, probe)


def check_transformer_layer(rng) -> float:
    layer = layers.TransformerEncoderLayer(8, 2, 16, rng=rng)
    x = Tensor(rng.standard_normal((2, 4, 8)), requires_grad=True)
    probe = rng.standard_normal((2, 4, 8))
    tensors = [x] + [t for _, t in layer.parameters()]
    return _worst_err(lambda: layer.forward(x), tensors, probe, eps=1e-5)


def check_model_end_to_end(rng, samples: int = 24) -> float:
    """Sampled-parameter check of the full model under the combined loss."""
    model = TransformerUNet1D(
        ModelConfig(base_channels=2, transformer_layers=1, heads=2, input_len=32, seed=3)
    )
    x = Tensor(rng.standard_normal((2, 1, 32)))
    target = Tensor(rng.standard_normal((2, 1, 32)))
    cfg = LossConfig()
    params = model.parameters()
    tensors = [t for _, t in params]

    model.zero_grad()
    with Tape() as tape:
        loss, _ = total_loss(model.forward(x, training=True), target, cfg)
        tape.backward(loss)
    grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]

    saved = [a.copy() for _, a in model.state_arrays()]

    def scalar():
        for (_, a), s in zip(model.state_arrays(), saved):
            a[...] = s
        _, report = total_loss(model.forward(x, training=True), target, cfg)
        return report.total

    eps = 1e-4
    worst = 0.0
    picks = rng.choice(len(tensors), size=min(samples, len(tensors)), replace=False)
    for idx in picks:
        t = tensors[idx]
        flat = t.data.reshape(-1)
        i = int(rng.integers(flat.size))
        orig = flat[i]
        flat[i] = orig + eps
        fp = scalar()
        flat[i] = orig - eps
        fm = scalar()
        flat[i] = orig
        fd = (fp - fm) / (2.0 * eps)
        an = grads[idx].reshape(-1)[i]
        # unit floor: biases feeding batchnorm carry exactly-zero gradients
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1.0))
    return worst


CHECK_ORDER = [
    ("conv1d", check_conv1d),
    ("conv_transpose1d", check_conv_transpose1d),
    ("maxpool1d", check_maxpool1d),
    ("batchnorm1d", check_batchnorm1d),
    ("layernorm", check_layernorm),
    ("mhsa", check_mhsa),
    ("feedforward", check_feedforward),
    ("transformer_layer", check_transformer_layer),
    ("model_end_to_end", check_model_end_to_end),
]


def run_all_checks(seed: int = 0):
    """One CheckResult per layer type, in a fixed order."""
    results = []
    for idx, (name, fn) in enumerate(CHECK_ORDER):
        rng = np.random.default_rng(1000 * seed + idx)
        results.append(CheckResult(name, fn(rng)))
    return results
