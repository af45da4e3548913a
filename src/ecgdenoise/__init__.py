"""End-to-end 1D ECG denoising: autodiff core, transformer U-Net, dual-domain
loss, noise-synthesis data pipeline, metrics, and a CLI tying them together."""

from .config import RunConfig
from .loss import LossConfig, LossReport, spectral_loss, total_loss
from .model import ModelConfig, TransformerUNet1D, load_checkpoint, save_checkpoint
from .optim import AdamW, CosineSchedule
from .tensor import Tape, Tensor

__all__ = [
    "AdamW",
    "CosineSchedule",
    "LossConfig",
    "LossReport",
    "ModelConfig",
    "RunConfig",
    "Tape",
    "Tensor",
    "TransformerUNet1D",
    "load_checkpoint",
    "save_checkpoint",
    "spectral_loss",
    "total_loss",
]
