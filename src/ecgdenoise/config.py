"""Run configuration: one flat record covering model, loss, optimizer, data.

Configs load from JSON, accept command-line overrides (flag wins), and a
fully-resolved copy is written into every run directory so any artifact can
be regenerated from the directory alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .data import write_atomically
from .loss import LossConfig
from .model import ModelConfig
from .optim import CosineSchedule

__all__ = ["RunConfig"]

DEFAULT_MIXES = [["bw"], ["em"], ["ma"], ["pli"], ["bw", "em", "ma"]]


@dataclass
class RunConfig:
    # model
    base_channels: int = 16
    transformer_layers: int = 2
    heads: int = 4
    d_ff_ratio: int = 4
    input_len: int = 3600
    # loss
    beta: float = 1.0
    w_time: float = 1.0
    w_spectral: float = 0.1
    # optimizer and schedule
    lr: float = 1e-3
    eta_min: float = 1e-6
    t_max: int = 100
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    # training
    epochs: int = 100
    batch_size: int = 16
    patience: int = 15
    overfit_steps: int = 500
    # data synthesis
    records: int = 20
    record_duration_s: float = 40.0
    fs: float = 360.0
    bpm_low: float = 55.0
    bpm_high: float = 100.0
    stride: int = 3600
    snr_db: list = field(default_factory=lambda: [0.0, 5.0, 10.0])
    noise_mixes: list = field(default_factory=lambda: [list(m) for m in DEFAULT_MIXES])
    train_frac: float = 0.7
    val_frac: float = 0.15
    # global
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        write_atomically(path, lambda fh: fh.write(text.encode()))

    def override(self, **kwargs) -> "RunConfig":
        """New config with the given non-None fields replaced."""
        data = asdict(self)
        for key, value in kwargs.items():
            if value is not None:
                if key not in data:
                    raise ValueError(f"unknown config key: {key}")
                data[key] = value
        return RunConfig.from_dict(data)

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            base_channels=self.base_channels,
            transformer_layers=self.transformer_layers,
            heads=self.heads,
            d_ff_ratio=self.d_ff_ratio,
            input_len=self.input_len,
            seed=self.seed,
        )

    def loss_config(self) -> LossConfig:
        return LossConfig(beta=self.beta, w_time=self.w_time, w_spectral=self.w_spectral)

    def schedule(self) -> CosineSchedule:
        return CosineSchedule(eta_max=self.lr, eta_min=self.eta_min, t_max=self.t_max)
