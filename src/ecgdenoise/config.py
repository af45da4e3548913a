"""Run configuration: one flat record covering model, loss, optimizer, data.

Configs load from JSON through `model.read_config`, accept command-line
overrides (flag wins), and a fully-resolved copy is written into every run
directory so any artifact can be regenerated from the directory alone.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .data import write_atomically
from .loss import LossConfig
from .model import ConfigError, ModelConfig, read_config
from .optim import CosineSchedule

__all__ = ["RunConfig"]

DEFAULT_MIXES = [["bw"], ["em"], ["ma"], ["pli"], ["bw", "em", "ma"]]


@dataclass
class RunConfig:
    # model
    base_channels: int = 16
    transformer_layers: int = 2
    input_len: int = 3600
    # loss
    w_time: float = 1.0
    w_spectral: float = 0.1
    # optimizer and schedule
    lr: float = 1e-3
    t_max: int = 100
    # training
    epochs: int = 100
    batch_size: int = 16
    patience: int = 15
    overfit_steps: int = 500
    # data synthesis
    records: int = 20
    record_duration_s: float = 40.0
    fs: float = 360.0
    stride: int = 3600
    snr_db: list[float] = field(default_factory=lambda: [0.0, 5.0, 10.0])
    noise_mixes: list[list[str]] = field(default_factory=lambda: [list(m) for m in DEFAULT_MIXES])
    train_frac: float = 0.7
    val_frac: float = 0.15
    # global
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "epochs", "overfit_steps", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("train_frac", "val_frac"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if self.lr < CosineSchedule.eta_min:
            raise ConfigError(f"lr must be at least {CosineSchedule.eta_min:g}, the fixed floor (eta_min) "
                              f"of its cosine schedule, got {self.lr:g}")

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return read_config(cls, json.load(fh), str(path))

    def to_json(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"
        write_atomically(path, lambda fh: fh.write(text.encode()))

    def override(self, **kwargs) -> "RunConfig":
        """New config with the given non-None fields replaced."""
        data = asdict(self)
        data.update((key, value) for key, value in kwargs.items() if value is not None)
        return read_config(RunConfig, data, "config")

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            base_channels=self.base_channels,
            transformer_layers=self.transformer_layers,
            input_len=self.input_len,
            seed=self.seed,
            fs=self.fs,
        )

    def loss_config(self) -> LossConfig:
        return LossConfig(w_time=self.w_time, w_spectral=self.w_spectral)

    def schedule(self) -> CosineSchedule:
        return CosineSchedule(eta_max=self.lr, t_max=self.t_max)
