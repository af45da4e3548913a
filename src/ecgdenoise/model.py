"""The denoising network: U-Net encoder/decoder around a transformer bottleneck.

Channel plan doubles per level from ``base_channels`` (c, 2c, 4c, 8c, 16c);
the deepest feature map is flipped to token-major layout, enriched with a
fixed sinusoidal positional table, run through the transformer encoder stack,
flipped back, and decoded with skip concatenations mirroring the encoder.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .layers import (
    BatchNorm1d,
    Conv1d,
    ConvTranspose1d,
    Module,
    TransformerEncoderLayer,
    conv_bn_relu,
    maxpool1d,
    positional_encoding,
)
from .tensor import ShapeMismatch, Tensor, add, concat_channels, transpose_last

__all__ = ["ModelConfig", "TransformerUNet1D", "save_checkpoint", "load_checkpoint"]


class ConfigError(ValueError):
    """Architecture hyperparameters that cannot be assembled."""


@dataclass
class ModelConfig:
    base_channels: int = 16
    depth: int = 4
    transformer_layers: int = 2
    heads: int = 4
    d_ff_ratio: int = 4
    input_len: int = 3600
    in_channels: int = 1
    out_channels: int = 1
    seed: int = 0

    @property
    def bottleneck_dim(self) -> int:
        return self.base_channels * 2**self.depth

    @property
    def token_count(self) -> int:
        return self.input_len // 2**self.depth

    def validate(self) -> None:
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if self.base_channels < 1:
            raise ConfigError("base_channels must be >= 1")
        if self.input_len % 2**self.depth != 0:
            raise ConfigError(
                f"input_len {self.input_len} not divisible by 2^depth = {2 ** self.depth}"
            )
        if self.bottleneck_dim % self.heads != 0:
            raise ConfigError(
                f"heads {self.heads} must divide bottleneck dim {self.bottleneck_dim}"
            )
        if self.bottleneck_dim % 2 != 0:
            raise ConfigError("bottleneck dim must be even for the positional table")


class DoubleConv(Module):
    """Two (conv k3 p1 -> batchnorm -> relu) stages, each one fused op."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        self.conv1 = Conv1d(in_channels, out_channels, 3, padding=1, rng=rng)
        self.bn1 = BatchNorm1d(out_channels)
        self.conv2 = Conv1d(out_channels, out_channels, 3, padding=1, rng=rng)
        self.bn2 = BatchNorm1d(out_channels)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        x = conv_bn_relu(x, self.conv1, self.bn1, training)
        return conv_bn_relu(x, self.conv2, self.bn2, training)


class Down(Module):
    """Halve the length, then double-conv to twice the channels."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        self.block = DoubleConv(in_channels, out_channels, rng=rng)

    def forward(self, x: Tensor, training: bool) -> Tensor:
        return self.block.forward(maxpool1d(x), training)


class Up(Module):
    """Double the length by transposed conv, concatenate the skip, double-conv."""

    def __init__(self, in_channels: int, *, rng: np.random.Generator):
        self.tconv = ConvTranspose1d(in_channels, in_channels // 2, 2, stride=2, rng=rng)
        self.block = DoubleConv(in_channels, in_channels // 2, rng=rng)

    def forward(self, x: Tensor, skip: Tensor, training: bool) -> Tensor:
        up = self.tconv.forward(x)
        return self.block.forward(concat_channels(up, skip), training)


class TransformerUNet1D(Module):
    """Shape-preserving denoiser for (B, 1, input_len) segments."""

    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    def _build(self, config: ModelConfig, rng) -> None:
        config.validate()
        self.config = config
        c = config.base_channels

        # attribute names are the checkpoint name prefixes (inc., down1., enc1., up1., out.)
        self.inc = DoubleConv(config.in_channels, c, rng=rng)
        self.down = [
            Down(c * 2**i, c * 2 ** (i + 1), rng=rng) for i in range(config.depth)
        ]
        d = config.bottleneck_dim
        self.pos_table = Tensor(positional_encoding(config.token_count, d))
        self.enc = [
            TransformerEncoderLayer(d, config.heads, config.d_ff_ratio * d, rng=rng)
            for _ in range(config.transformer_layers)
        ]
        self.up = [Up(c * 2 ** (i + 1), rng=rng) for i in reversed(range(config.depth))]
        self.out = Conv1d(c, config.out_channels, 1, rng=rng)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.in_channels or x.shape[2] != cfg.input_len:
            raise ShapeMismatch(
                "model", x.shape, (x.shape[0] if x.ndim == 3 else -1, cfg.in_channels, cfg.input_len)
            )
        skips = [self.inc.forward(x, training)]
        for down in self.down:
            skips.append(down.forward(skips[-1], training))

        z = skips.pop()  # deepest features (B, d, T)
        tokens = transpose_last(z)  # token-major (B, T, d)
        tokens = add(tokens, self.pos_table)
        for layer in self.enc:
            tokens = layer.forward(tokens)
        z = transpose_last(tokens)

        for up in self.up:
            z = up.forward(z, skips.pop(), training)
        return self.out.forward(z)

    def num_parameters(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()


# ---------------------------------------------------------------------------
# checkpoints: <prefix>.manifest.json + <prefix>.params.bin

FORMAT_VERSION = 1


def _entry(name: str, kind: str, arr: np.ndarray, offset: int) -> dict:
    return {"name": name, "kind": kind, "shape": list(arr.shape), "offset": offset}


class _NoDraw:
    """Init source for a model whose every value a checkpoint overwrites: it
    hands out uninitialized arrays instead of drawing random ones."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _write_then_replace(path: str, chunks) -> None:
    """Replace `path` by the concatenated byte chunks through a temporary
    file, so a process that dies mid-write leaves the previous file whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(prefix: str, model: TransformerUNet1D, *, optimizer_arrays=None,
                    rng_state=None, extra=None) -> None:
    """Write parameters (and optional optimizer arrays) as little-endian f64.

    `optimizer_arrays` is an iterable of (name, array); `extra` is any
    JSON-serializable training metadata. The parameter file is replaced
    before the manifest, each through a temporary file, so a save that fails
    part way leaves the previous checkpoint at `prefix` loadable.
    """
    entries = []
    chunks = []
    offset = 0
    params = [(name, tensor.data) for name, tensor in model.parameters()]
    for kind, named in (("param", params), ("buffer", model.state_arrays()),
                        ("optim", optimizer_arrays or [])):
        for name, arr in named:
            entries.append(_entry(name, kind, arr, offset))
            chunks.append(np.ascontiguousarray(arr, dtype="<f8"))
            offset += arr.size * 8

    manifest = {
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "rng_state": rng_state,
        "extra": extra or {},
        "entries": entries,
    }
    _write_then_replace(f"{prefix}.params.bin", chunks)
    _write_then_replace(f"{prefix}.manifest.json",
                        [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])


def load_checkpoint(prefix: str):
    """Rebuild the model from a checkpoint; returns (model, manifest, optim_arrays).

    Raises `ConfigError` unless the format version is known, the parameter
    file holds exactly the bytes the manifest lists, and every parameter and
    buffer of the model is present exactly once with its shape.
    """
    with open(f"{prefix}.manifest.json") as fh:
        manifest = json.load(fh)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ConfigError(f"{prefix}: unknown checkpoint format_version {manifest.get('format_version')!r}")
    entries = manifest["entries"]
    listed = 8 * sum(int(np.prod(e["shape"])) for e in entries)
    held = os.path.getsize(f"{prefix}.params.bin")
    if held != listed:
        raise ConfigError(f"{prefix}.params.bin holds {held} bytes; the manifest lists {listed}")
    raw = np.fromfile(f"{prefix}.params.bin", dtype="<f8")

    # every value is overwritten below, so the model draws no random init
    model = TransformerUNet1D.__new__(TransformerUNet1D)
    model._build(ModelConfig(**manifest["config"]), _NoDraw())
    targets = {"param": {n: t.data for n, t in model.parameters()},
               "buffer": dict(model.state_arrays())}
    optim_arrays = {}
    for entry in entries:
        size = int(np.prod(entry["shape"]))
        start = entry["offset"] // 8
        arr = raw[start : start + size].reshape(entry["shape"])
        kind, name = entry["kind"], entry["name"]
        if kind not in targets:
            optim_arrays[name] = arr.copy()
            continue
        target = targets[kind].pop(name, None)
        if target is None:
            raise ConfigError(f"{prefix}: {kind} {name!r} is unknown to the model or listed twice")
        if list(target.shape) != entry["shape"]:
            raise ConfigError(f"checkpoint shape mismatch for {name}")
        target[...] = arr
    missing = [n for names in targets.values() for n in names]
    if missing:
        raise ConfigError(f"{prefix}: checkpoint lacks {len(missing)} entries, first {missing[0]!r}")
    return model, manifest, optim_arrays
