"""The denoising network: U-Net encoder/decoder around a transformer bottleneck.

Channel plan doubles per level from ``base_channels`` (c, 2c, 4c, 8c, 16c);
the deepest feature map is flipped to token-major layout, enriched with a
fixed sinusoidal positional table, run through the transformer encoder stack,
flipped back, and decoded with skip concatenations mirroring the encoder.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import write_atomically
from .heap import keep_freed_memory_in_heap
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

__all__ = ["INFER_BATCH", "ModelConfig", "TransformerUNet1D", "save_checkpoint", "load_checkpoint"]

# segments per eval-mode forward when a caller names no batch size
INFER_BATCH = 16


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
    """Shape-preserving denoiser for (B, 1, input_len) segments.

    Every inference caller (validation, `evaluate`, `denoise`) goes through
    `predict`, and every forward pins the process's allocator policy first
    (`heap.keep_freed_memory_in_heap`).
    """

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
        keep_freed_memory_in_heap()  # once per process, before the first activations
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

    def predict(self, x: np.ndarray, batch_size: int = INFER_BATCH) -> np.ndarray:
        """Eval-mode outputs for an (N, input_len) array, `batch_size` segments per forward."""
        out = np.empty(x.shape)
        for start in range(0, len(x), batch_size):
            batch = Tensor(x[start : start + batch_size, None, :])
            out[start : start + batch_size] = self.forward(batch, training=False).data[:, 0]
        return out

    def num_parameters(self) -> int:
        return sum(t.size for _, t in self.parameters())

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()


# ---------------------------------------------------------------------------
# checkpoints: <prefix>.ckpt holds the JSON header's length as 8 little-endian
# bytes, the header, then every entry's array as little-endian f64 in entry order

FORMAT_VERSION = 2


class _NoDraw:
    """Init source for a model whose every value a checkpoint overwrites: it
    hands out uninitialized arrays instead of drawing random ones."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def save_checkpoint(prefix: str, model: TransformerUNet1D, *, optimizer_arrays=None, extra=None) -> None:
    """Write parameters, buffers and optional optimizer arrays, an iterable of
    (name, array), to `<prefix>.ckpt` with `write_atomically`. `extra` is
    any JSON-serializable training metadata."""
    named = [("param", name, tensor.data) for name, tensor in model.parameters()]
    named += [("buffer", name, arr) for name, arr in model.state_arrays()]
    named += [("optim", name, arr) for name, arr in optimizer_arrays or []]
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "config": asdict(model.config),
        "extra": extra or {},
        "entries": [{"name": name, "kind": kind, "shape": list(arr.shape)} for kind, name, arr in named],
    }, sort_keys=True).encode()

    def write(fh):
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for _, _, arr in named:
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))

    write_atomically(f"{prefix}.ckpt", write)


def _open_checkpoint(prefix: str):
    """(file at its first array byte, header bytes, format version) of the
    checkpoint at `prefix`: its `.ckpt`, else a format-1 pair, whose header
    is `.manifest.json` and whose arrays fill `.params.bin`."""
    if os.path.exists(f"{prefix}.ckpt") or not os.path.exists(f"{prefix}.manifest.json"):
        fh = open(f"{prefix}.ckpt", "rb")
        length = int.from_bytes(fh.read(8), "little")
        header = fh.read(min(length, os.fstat(fh.fileno()).st_size))
        if len(header) == length:
            return fh, header, FORMAT_VERSION
        fh.close()
        raise ConfigError(f"{prefix}.ckpt: its {length}-byte header is cut short at {len(header)}")
    with open(f"{prefix}.manifest.json", "rb") as fh:
        header = fh.read()
    return open(f"{prefix}.params.bin", "rb"), header, 1


def load_checkpoint(prefix: str):
    """Rebuild the model from a checkpoint; returns (model, header, optim_arrays).

    Raises `ConfigError` unless the header is JSON naming the format version
    of its file, it has a valid `config` and every entry a kind, name and
    shape of non-negative integers, the file holds exactly the array bytes the entries list, and every
    parameter and buffer of the model is present exactly once with its shape.
    Header and arrays come through one open file, so a save that replaces
    the checkpoint meanwhile cannot mix two of them.
    """
    fh, header_bytes, version = _open_checkpoint(prefix)
    with fh:
        try:
            header = json.loads(header_bytes)
            if header.get("format_version") != version:
                raise ConfigError(f"{prefix}: unknown format_version {header.get('format_version')!r}")
            config = ModelConfig(**header["config"])
            entries = [(e["kind"], e["name"], e["shape"], int(np.prod(e["shape"]))) for e in header["entries"]]
            if any(type(d) is not int or d < 0 for _, _, shape, _ in entries for d in shape):
                raise ConfigError(f"{prefix}: an entry's shape is not a list of non-negative integers")
        except (AttributeError, KeyError, TypeError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{prefix}: malformed checkpoint header ({exc!r})") from None
        listed = 8 * sum(size for *_, size in entries)
        held = os.fstat(fh.fileno()).st_size - fh.tell()
        if held != listed:
            raise ConfigError(f"{prefix}: the checkpoint holds {held} array bytes; its header lists {listed}")
        raw = np.fromfile(fh, dtype="<f8")

    # every value is overwritten below, so the model draws no random init
    model = TransformerUNet1D.__new__(TransformerUNet1D)
    model._build(config, _NoDraw())
    targets = {"param": {n: t.data for n, t in model.parameters()},
               "buffer": dict(model.state_arrays())}
    optim_arrays = {}
    start = 0
    for kind, name, shape, size in entries:
        arr = raw[start : start + size].reshape(shape)
        start += size
        if kind not in targets:
            optim_arrays[name] = arr.copy()
            continue
        target = targets[kind].pop(name, None)
        if target is None:
            raise ConfigError(f"{prefix}: {kind} {name!r} is unknown to the model or listed twice")
        if list(target.shape) != shape:
            raise ConfigError(f"checkpoint shape mismatch for {name}")
        target[...] = arr
    missing = [n for names in targets.values() for n in names]
    if missing:
        raise ConfigError(f"{prefix}: checkpoint lacks {len(missing)} entries, first {missing[0]!r}")
    return model, header, optim_arrays
