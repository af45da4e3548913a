"""The denoising network: U-Net encoder/decoder around a transformer bottleneck.

Channel plan doubles per level from ``base_channels`` (c, 2c, 4c, 8c, 16c).
Inside the U-Net the activations are channel-major (C, B, L), the layout the
layers take (see `layers`); the (B, 1, L) input and output of `forward` change
layout by moving the unit channel axis, which copies nothing. The deepest feature
map (d, B, T) is flipped to token-major (B, T, d) layout, enriched with a
fixed sinusoidal positional table, run through the transformer encoder stack,
flipped back to channel-major, and decoded level by level mirroring the
encoder. Each encoder double conv but the deepest writes its output, the
skip, as the tail of a buffer whose head the decoder's transposed conv
fills (`layers.conv_transpose1d`), so the concatenation copies nothing; each
double conv is one op (`layers.conv_bn_relu`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields

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
    uniform_param,
)
from .tensor import ShapeMismatch, Tensor, accumulate_grad, apply_op

__all__ = ["INFER_BATCH", "ModelConfig", "TransformerUNet1D", "save_checkpoint", "load_checkpoint"]

# segments per eval-mode forward in `denoise`, and in evaluation and validation
# when the caller names no batch size
INFER_BATCH = 16


class ConfigError(ValueError):
    """Settings that cannot be read or assembled."""


# the fixed architecture, with one ECG lead in and one out
DEPTH = 4
FF_RATIO = 4

# Former settings of ModelConfig and RunConfig, now constants of the package:
# config files and checkpoints written before name them, at these values.
RETIRED = {"depth": DEPTH, "d_ff_ratio": FF_RATIO, "in_channels": 1, "out_channels": 1, "heads": 4,
           "beta": 1.0, "eta_min": 1e-6, "weight_decay": 0.01, "adam_beta1": 0.9, "adam_beta2": 0.999,
           "adam_eps": 1e-8, "bpm_low": 55.0, "bpm_high": 100.0}


def _holds(value, kind: str) -> bool:
    """Whether the JSON `value` is of the field annotation `kind`, a string under
    `from __future__ import annotations`: an int (no bool is one), a float (a
    finite int or float), a str, or a list[...] of such."""
    if kind.startswith("list[") and kind.endswith("]"):
        return type(value) is list and all(_holds(v, kind[5:-1]) for v in value)
    if kind == "float":
        return type(value) in (int, float) and math.isfinite(value)
    return type(value).__name__ == kind


def read_config(cls, data, where: str):
    """A `cls` from the JSON object `data`: each key a field of `cls` holding a value
    of its type, or a `RETIRED` key at its fixed value; else a `ConfigError` naming it."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: settings must be a JSON object, got {type(data).__name__}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in data.items():
        if key not in types and key not in RETIRED:
            raise ConfigError(f"{where}: unknown key {key!r}")
        kind = types.get(key) or type(RETIRED[key]).__name__
        if not _holds(value, kind):
            raise ConfigError(f"{where}: {key!r} must be of type {kind}, got {value!r}")
        if key not in types and value != RETIRED[key]:
            raise ConfigError(f"{where}: {key!r} is no longer a setting: it is fixed at {RETIRED[key]!r}")
    return cls(**{key: value for key, value in data.items() if key in types})


@dataclass
class ModelConfig:
    base_channels: int = 16
    transformer_layers: int = 2
    heads: int = 4
    input_len: int = 3600
    seed: int = 0
    # sampling rate (Hz) of the data the model is trained on: a window spans
    # input_len / fs seconds. A checkpoint written without it means 360 Hz.
    fs: float = 360.0

    @property
    def bottleneck_dim(self) -> int:
        return self.base_channels * 2**DEPTH

    @property
    def token_count(self) -> int:
        return self.input_len // 2**DEPTH

    def validate(self) -> None:
        if self.base_channels < 1:
            raise ConfigError("base_channels must be >= 1")
        if not self.fs > 0:
            raise ConfigError(f"fs must be positive, got {self.fs}")
        if self.input_len < 2**DEPTH or self.input_len % 2**DEPTH != 0:
            raise ConfigError(f"input_len {self.input_len} not a positive multiple of 2^depth = {2 ** DEPTH}")
        if self.transformer_layers < 0:
            raise ConfigError(f"transformer_layers must be >= 0, got {self.transformer_layers}")
        if self.heads < 1 or self.bottleneck_dim % self.heads != 0:
            raise ConfigError(f"heads must divide bottleneck dim {self.bottleneck_dim}, got {self.heads}")


def _permute(a: Tensor, axes, table=None) -> Tensor:
    """A view of `a` with its axes in the order `axes`, or that view plus the
    constant `table` if one is given (the positional table, which so enters
    with the flip to token-major). A layer that needs `a` as contiguous rows
    copies the view; moving a unit axis leaves them contiguous."""
    moved = a.data.transpose(axes)
    back = np.argsort(axes)

    def backward(g, a=a):
        accumulate_grad(a, g.transpose(back))

    return apply_op(moved if table is None else moved + table, (a,), backward)


class DoubleConv(Module):
    """Two (length-preserving conv k3 -> batchnorm -> relu) stages as one fused
    op (`layers.conv_bn_relu`); `conv1` and `conv2` are the weights of its
    convs, which have no bias. Given `room`, its output is the tail of a
    buffer that leaves `room` channels ahead of it for the decoder's
    transposed conv, which takes that output as its skip."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        self.conv1 = uniform_param(rng, (out_channels, in_channels, 3), in_channels * 3)
        self.bn1 = BatchNorm1d(out_channels)
        self.conv2 = uniform_param(rng, (out_channels, out_channels, 3), out_channels * 3)
        self.bn2 = BatchNorm1d(out_channels)

    def forward(self, x: Tensor, training: bool, room: int = 0) -> Tensor:
        return conv_bn_relu(x, ((self.conv1, self.bn1), (self.conv2, self.bn2)), training, room)


class Down(Module):
    """Halve the length, then double-conv to twice the channels."""

    def __init__(self, in_channels: int, out_channels: int, *, rng: np.random.Generator):
        self.block = DoubleConv(in_channels, out_channels, rng=rng)

    def forward(self, x: Tensor, training: bool, room: int = 0) -> Tensor:
        return self.block.forward(maxpool1d(x), training, room)


class Up(Module):
    """Double the length by transposed conv, written into the head of the
    buffer whose tail is the skip (`DoubleConv`'s `room`), then double-conv."""

    def __init__(self, in_channels: int, *, rng: np.random.Generator):
        self.tconv = ConvTranspose1d(in_channels, in_channels // 2, rng=rng)
        self.block = DoubleConv(in_channels, in_channels // 2, rng=rng)

    def forward(self, x: Tensor, skip: Tensor, training: bool) -> Tensor:
        return self.block.forward(self.tconv.forward(x, skip), training)


class TransformerUNet1D(Module):
    """Shape-preserving denoiser for (B, 1, input_len) segments; channel-major
    (C, B, L) activations inside (module docstring).

    `forward` runs in its input's dtype from the float64 weights, each op
    casting them per call (`layers`). Training runs it in float32 and
    validation in float64 (`training`); `predict`, which `evaluate` and
    `denoise` call, runs the eval forward in float32 and returns float64.
    Every forward pins the process's allocator policy first
    (`heap.keep_freed_memory_in_heap`).
    """

    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    def _build(self, config: ModelConfig, rng) -> None:
        config.validate()
        self.config = config
        c = config.base_channels

        # attribute names are the checkpoint name prefixes (inc., down1., enc1., up1., out.)
        self.inc = DoubleConv(1, c, rng=rng)
        self.down = [Down(c * 2**i, c * 2 ** (i + 1), rng=rng) for i in range(DEPTH)]
        d = config.bottleneck_dim
        self.pos_table = Tensor(positional_encoding(config.token_count, d))
        self.enc = [
            TransformerEncoderLayer(d, config.heads, FF_RATIO * d, rng=rng)
            for _ in range(config.transformer_layers)
        ]
        self.up = [Up(c * 2 ** (i + 1), rng=rng) for i in reversed(range(DEPTH))]
        self.out = Conv1d(c, 1, 1, rng=rng)

    def forward(self, x: Tensor, training: bool = False) -> Tensor:
        keep_freed_memory_in_heap()  # once per process, before the first activations
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != 1 or x.shape[2] != cfg.input_len:
            raise ShapeMismatch("model", x.shape, (x.shape[0] if x.ndim == 3 else -1, 1, cfg.input_len))
        # each skip leaves room ahead of it for its decoder's transposed conv,
        # which writes as many channels as the skip holds; the deepest is no skip
        c = cfg.base_channels
        skips = [self.inc.forward(_permute(x, (1, 0, 2)), training, room=c)]
        for i, down in enumerate(self.down, start=1):
            skips.append(down.forward(skips[-1], training, room=c * 2**i if i < DEPTH else 0))

        # the deepest features (d, B, T) run through the transformer as (B, T, d)
        tokens = _permute(skips.pop(), (1, 2, 0), self.pos_table.data.astype(x.data.dtype, copy=False))
        for layer in self.enc:
            tokens = layer.forward(tokens)
        z = _permute(tokens, (2, 0, 1))

        for up in self.up:
            z = up.forward(z, skips.pop(), training)
        return _permute(self.out.forward(z), (1, 0, 2))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode outputs for an (N, input_len) array, in one float32
        forward, as float64; the caller picks N, which bounds the activation
        memory."""
        out = self.forward(Tensor(x[:, None, :].astype(np.float32)), training=False)
        return out.data[:, 0].astype(np.float64)

    def zero_grad(self) -> None:
        for _, t in self.parameters():
            t.zero_grad()


# ---------------------------------------------------------------------------
# checkpoints: <prefix>.ckpt holds the JSON header's length as 8 little-endian
# bytes, the header, then every entry's array as little-endian f64 in entry order

FORMAT_VERSION = 3


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


def load_checkpoint(prefix: str):
    """Rebuild the model from `<prefix>.ckpt`; returns (model, header, optim_arrays).

    Raises `FileNotFoundError` naming `<prefix>.ckpt` if there is none: a
    format-1 pair (`.manifest.json` plus `.params.bin`) does not load. Raises
    `ConfigError` unless the header is whole, is JSON naming `FORMAT_VERSION`,
    `read_config` takes its `config`, every entry has a kind, name and
    shape of non-negative integers, the file holds exactly the array bytes the entries list, and every
    parameter and buffer of the model is present exactly once with its shape.
    Header and arrays come through one open file, so a save that replaces
    the checkpoint meanwhile cannot mix two of them.
    """
    with open(f"{prefix}.ckpt", "rb") as fh:
        length = int.from_bytes(fh.read(8), "little")
        header_bytes = fh.read(min(length, os.fstat(fh.fileno()).st_size))
        if len(header_bytes) != length:
            raise ConfigError(f"{prefix}.ckpt: its {length}-byte header is cut short at {len(header_bytes)}")
        try:
            header = json.loads(header_bytes)
            if header.get("format_version") != FORMAT_VERSION:
                raise ConfigError(f"{prefix}: checkpoint format_version {header.get('format_version')!r} does "
                                  f"not load, only {FORMAT_VERSION}; retrain from the run's resolved_config.json")
            config = read_config(ModelConfig, header["config"], f"{prefix} config")
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
