"""AdamW with decoupled weight decay, plus the cosine learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AdamW", "CosineSchedule", "MissingGradient"]

BETA1, BETA2 = 0.9, 0.999  # AdamW's moment decay rates
EPS = 1e-8  # AdamW's denominator floor


class MissingGradient(RuntimeError):
    """A parameter arrived at step() without a populated gradient."""


@dataclass
class CosineSchedule:
    """Half-cosine decay from eta_max to eta_min over t_max epochs, then flat."""

    eta_max: float
    eta_min: float = 1e-6
    t_max: int = 100

    def __post_init__(self):
        if self.eta_min > self.eta_max:
            raise ValueError("eta_min must not exceed eta_max")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")

    def lr_at(self, epoch: int) -> float:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        t = min(epoch, self.t_max)
        return self.eta_min + 0.5 * (self.eta_max - self.eta_min) * (
            1.0 + math.cos(math.pi * t / self.t_max)
        )


class AdamW:
    """Decoupled-decay Adam over an ordered list of (name, Tensor) parameters."""

    def __init__(self, params, lr: float = 1e-3, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in self.params}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params}

    def step(self) -> None:
        for name, p in self.params:
            if p.grad is None:
                raise MissingGradient(f"parameter {name!r} has no gradient")
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for name, p in self.params:
            g = np.asarray(p.grad, dtype=np.float64)  # in float32, g * g underflows below about 1e-23
            m = self.m[name]
            v = self.v[name]
            m[...] = BETA1 * m + (1.0 - BETA1) * g
            v[...] = BETA2 * v + (1.0 - BETA2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p.data -= self.lr * (update + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.zero_grad()

    def state_arrays(self):
        """Moment buffers for checkpointing, in parameter order."""
        out = []
        for name, _ in self.params:
            out.append((f"adamw.m.{name}", self.m[name]))
            out.append((f"adamw.v.{name}", self.v[name]))
        return out

    def load_state_arrays(self, arrays: dict, step: int) -> None:
        for name, _ in self.params:
            self.m[name][...] = arrays[f"adamw.m.{name}"]
            self.v[name][...] = arrays[f"adamw.v.{name}"]
        self.t = step
