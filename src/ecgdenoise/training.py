"""Training loop: batching, scheduling, logging, checkpoints, early stopping.

Every run directory receives the resolved config, an append-only CSV log, a
``best`` checkpoint (lowest validation total loss) and a ``last`` checkpoint
with optimizer state for resumption. A non-finite loss aborts immediately:
silently skipping corrupted batches would poison every later statistic.

Both loss terms depend only on the model output, so each step forms their
gradients with respect to the output directly and caps the weighted spectral
gradient at the weighted time gradient's norm before backpropagating once
(see `output_gradient`), from the same pass that yields the step's loss
report. The reported losses stay the plain weighted sum. The capped gradient
is stored as the output's `.grad`, where `Tape.backward` starts, so no loss
node is recorded.

A run takes `input_len` and `fs` from its dataset's manifest before anything
is checked or written, and a resumed run its widths and seed from its
checkpoint, so the model, `resolved_config.json` and the checkpoints agree.

Training computes in float32 over float64 master weights. `_stack` hands
each step float32 noisy inputs, the only place float32 enters, and every op
and backward rule follows its input's dtype (`layers`). The step's output
is upcast once, so the loss, its gradient and the cap are float64; the
backward casts that seed back to float32, and AdamW upcasts the float32
parameter gradients. The parameters, the AdamW moments and the checkpoints
stay float64. `train_step` runs in its batch's dtype, so a float64 batch
takes the float64 step.

Validation runs the model's eval-mode forward in float64, not the float32
`predict`, so the logged `val_total` and the choice of the `best` checkpoint
do not depend on float32 rounding. The model's forward pins the allocator
policy (`heap.keep_freed_memory_in_heap`) that keeps each step's
freed activations in the heap for the next step.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import DataError, load_manifest, split_pairs
from .loss import loss_and_gradients, total_loss
from .model import INFER_BATCH, TransformerUNet1D, load_checkpoint, save_checkpoint
from .optim import AdamW
from .tensor import Tape, Tensor

__all__ = ["TrainResult", "NumericFailure", "train_model", "run_overfit_one_batch",
           "output_gradient", "train_step"]

EPOCH_LOG_COLUMNS = ["epoch", "lr", "train_time_loss", "train_spectral_loss", "train_total", "val_total",
                     "train_time_grad_norm", "train_spectral_grad_norm"]
STEP_LOG_COLUMNS = ["step", "lr", "total"]


class NumericFailure(RuntimeError):
    """Loss became NaN/Inf; training aborted rather than continued."""


@dataclass
class TrainResult:
    epochs_run: int
    best_val: float
    best_epoch: int
    checkpoint_prefix: str


def _stack(pairs, indices):
    """A training batch: float32 noisy inputs, so the step computes in float32
    (module docstring), and float64 clean targets."""
    x = np.stack([pairs[i].noisy for i in indices], dtype=np.float32)[:, None, :]
    y = np.stack([pairs[i].clean for i in indices])[:, None, :]
    return x, y


def _check_finite(value: float, context: str) -> None:
    if not math.isfinite(value):
        raise NumericFailure(f"non-finite loss ({value}) during {context}")


def _capped_sum(time_grad, spectral_grad, loss_cfg):
    time_norm = float(np.linalg.norm(time_grad))
    if spectral_grad is None:
        return time_grad, time_norm, 0.0
    spectral_norm = float(np.linalg.norm(spectral_grad))
    if loss_cfg.w_time > 0 and spectral_norm > time_norm:
        spectral_grad *= time_norm / spectral_norm
    return time_grad + spectral_grad, time_norm, spectral_norm


def output_gradient(y_hat: np.ndarray, y: np.ndarray, loss_cfg):
    """Training gradient of the dual loss with respect to the model output.

    Returns ``(grad, time_norm, spectral_norm)``. ``grad`` is the sum of the
    weighted smooth-L1 gradient and the weighted spectral gradient, the latter
    scaled down to the former's norm when it is larger and both weights are
    positive. The unnormalized magnitude spectrum grows with the segment
    length, so on 3600-sample segments its raw gradient is hundreds of times
    the time term's and would otherwise drown the waveform (phase) signal.
    The norms are those before the cap.
    """
    _, time_grad, spectral_grad = loss_and_gradients(y_hat, y, loss_cfg)
    return _capped_sum(time_grad, spectral_grad, loss_cfg)


def train_step(model, optimizer, x, y, loss_cfg, context: str = "training"):
    """One optimizer step on a batch, its forward and backward in `x`'s dtype;
    returns (loss report, pre-cap gradient norms)."""
    optimizer.zero_grad()
    with Tape() as tape:
        out = model.forward(Tensor(x), training=True)
        y_hat = out.data.astype(np.float64, copy=False)
        report, time_grad, spectral_grad = loss_and_gradients(y_hat, y, loss_cfg)
        _check_finite(report.total, context)
        grad, time_norm, spectral_norm = _capped_sum(time_grad, spectral_grad, loss_cfg)
        out.grad = grad  # backward starts from the output's stored gradient
        tape.backward(out)
    optimizer.step()
    return report, (time_norm, spectral_norm)


def _train_epoch(model, pairs, optimizer, loss_cfg, rng, batch_size):
    """Returns epoch means: (time, spectral, total) weighted by batch size, then
    the per-step means of the two pre-cap output-gradient norms."""
    order = rng.permutation(len(pairs))
    sums = np.zeros(3)  # time, spectral, total weighted by batch size
    norms = []
    for start in range(0, len(order), batch_size):
        idx = order[start : start + batch_size]
        x, y = _stack(pairs, idx)
        report, step_norms = train_step(model, optimizer, x, y, loss_cfg)
        sums += len(idx) * np.array([report.time_loss, report.spectral_loss, report.total])
        norms.append(step_norms)
    means = sums / len(pairs)
    norm_means = np.mean(norms, axis=0)
    return (float(means[0]), float(means[1]), float(means[2]),
            float(norm_means[0]), float(norm_means[1]))


def validation_loss(model, pairs, loss_cfg, batch_size: int = INFER_BATCH):
    """Loss components of the float64 eval-mode forward over the pair list,
    taken `batch_size` pairs at a time and weighted by segment count:
    (time, spectral, total)."""
    sums = np.zeros(3)
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        noisy = np.stack([p.noisy for p in chunk])[:, None, :]
        out = model.forward(Tensor(noisy), training=False).data[:, 0]
        _, report = total_loss(Tensor(out), Tensor(np.stack([p.clean for p in chunk])), loss_cfg)
        sums += len(chunk) * np.array([report.time_loss, report.spectral_loss, report.total])
    return tuple(float(v) for v in sums / len(pairs))


def _append_log(path, columns, row) -> None:
    new = not Path(path).exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(columns)
        writer.writerow(row)


_SPLIT_PAIRS = {"train": "training", "val": "validation"}


def _open_run(cfg: RunConfig, dataset_dir, *split_names):
    """The run's config at its dataset's window and rate, its loss config and
    learning-rate schedule, and the pairs of each named split, all from one
    parse of the manifest, so a rebuild meanwhile cannot mix two of them. Each
    split must hold pairs; the caller then builds or loads the model, which
    checks the model settings, so a run that cannot train is rejected before its
    directory is made."""
    manifest = load_manifest(dataset_dir)
    cfg = cfg.override(input_len=manifest["window"], fs=manifest["fs"])
    loss_cfg = cfg.loss_config()
    loss_cfg.validate()
    splits = []
    for name in split_names:
        pairs = split_pairs(manifest, name, dataset_dir)
        if not pairs:
            raise ValueError(f"no {_SPLIT_PAIRS[name]} pairs under {dataset_dir}")
        splits.append(pairs)
    return cfg, loss_cfg, cfg.schedule(), splits


def train_model(cfg: RunConfig, dataset_dir, out_dir, resume: str | None = None,
                quiet: bool = False) -> TrainResult:
    cfg, loss_cfg, schedule, (train_pairs, val_pairs) = _open_run(cfg, dataset_dir, "train", "val")

    start_epoch = 0
    best_val = math.inf
    best_epoch = -1
    if resume:
        model, header, optim_arrays = load_checkpoint(resume)
        extra = header.get("extra")
        if not isinstance(extra, dict):
            raise DataError(f"{resume}: the header's 'extra' is not a JSON object")
        if "optimizer_step" not in extra:
            raise DataError(f"{resume} holds no optimizer state; resume from {Path(resume).with_name('last')}")
        for key in ("optimizer_step", "epoch", "best_epoch", "best_val"):
            kinds = (int, float) if key == "best_val" else (int,)  # a bool is neither
            if type(extra.get(key)) not in kinds:
                raise DataError(f"{resume}: training state {key!r} is {extra.get(key)!r}, "
                                f"not {'a number' if key == 'best_val' else 'an integer'}")
        # a `last` checkpoint of another dataset would record its own window and rate
        if (model.config.input_len, model.config.fs) != (cfg.input_len, cfg.fs):
            raise DataError(f"{resume} was trained on {model.config.input_len}-sample windows at "
                            f"{model.config.fs:g} Hz; the dataset holds {cfg.input_len}-sample windows "
                            f"at {cfg.fs:g} Hz")
        cfg = cfg.override(base_channels=model.config.base_channels, seed=model.config.seed,
                           transformer_layers=model.config.transformer_layers)
        optimizer = AdamW(model.parameters(), lr=cfg.lr)
        optimizer.load_state_arrays(optim_arrays, step=extra["optimizer_step"])
        start_epoch = extra["epoch"] + 1
        best_val = extra["best_val"]
        best_epoch = extra["best_epoch"]
        if start_epoch >= cfg.epochs:
            raise DataError(f"{resume} has already trained {start_epoch} epochs; "
                            f"--epochs {cfg.epochs} leaves none to run")
    else:
        model = TransformerUNet1D(cfg.model_config())
        optimizer = AdamW(model.parameters(), lr=cfg.lr)

    out_dir = Path(out_dir)
    cfg.to_json(out_dir / "resolved_config.json")  # makes the run directory

    log_path = out_dir / "log.csv"
    for epoch in range(start_epoch, cfg.epochs):
        t0 = time.time()
        lr = schedule.lr_at(epoch)
        optimizer.lr = lr
        rng = np.random.default_rng([cfg.seed, epoch, 0x5A])
        train_time, train_spec, train_total, time_grad, spec_grad = _train_epoch(
            model, train_pairs, optimizer, loss_cfg, rng, cfg.batch_size
        )
        val_time, val_spec, val_total = validation_loss(model, val_pairs, loss_cfg, cfg.batch_size)
        _check_finite(val_total, "validation")
        _append_log(log_path, EPOCH_LOG_COLUMNS,
                    [epoch, repr(lr), repr(train_time), repr(train_spec),
                     repr(train_total), repr(val_total), repr(time_grad), repr(spec_grad)])
        if not quiet:
            print(f"epoch {epoch:3d} lr {lr:.3e} train {train_total:.5f} "
                  f"val {val_total:.5f} ({time.time() - t0:.1f}s)", flush=True)

        if val_total < best_val:
            best_val = val_total
            best_epoch = epoch
            save_checkpoint(str(out_dir / "best"), model,
                            extra={"epoch": epoch, "val_total": val_total, "kind": "best"})
        save_checkpoint(str(out_dir / "last"), model,
                        optimizer_arrays=optimizer.state_arrays(),
                        extra={"epoch": epoch, "optimizer_step": optimizer.t,
                               "best_val": best_val, "best_epoch": best_epoch,
                               "kind": "last"})
        if epoch - best_epoch >= cfg.patience:
            if not quiet:
                print(f"early stop: no val improvement for {cfg.patience} epochs", flush=True)
            break

    return TrainResult(
        epochs_run=epoch - start_epoch + 1,
        best_val=best_val,
        best_epoch=best_epoch,
        checkpoint_prefix=str(out_dir / "best"),
    )


def run_overfit_one_batch(cfg: RunConfig, dataset_dir, out_dir, quiet: bool = False):
    """Drive the first training batch repeatedly; returns (first, last) losses.

    A sanity harness: a working model/loss/optimizer stack must be able to
    collapse the loss on a single memorized batch.
    """
    cfg, loss_cfg, _, (pairs,) = _open_run(cfg, dataset_dir, "train")
    x, y = _stack(pairs, range(min(cfg.batch_size, len(pairs))))
    model = TransformerUNet1D(cfg.model_config())
    optimizer = AdamW(model.parameters(), lr=cfg.lr)

    out_dir = Path(out_dir)
    cfg.to_json(out_dir / "resolved_config.json")  # makes the run directory
    log_path = out_dir / "log.csv"

    first = last = math.nan
    for step in range(cfg.overfit_steps):
        report, _ = train_step(model, optimizer, x, y, loss_cfg, f"overfit step {step}")
        last = report.total
        if step == 0:
            first = report.total
        _append_log(log_path, STEP_LOG_COLUMNS, [step, repr(optimizer.lr), repr(report.total)])
        if not quiet and step % 50 == 0:
            print(f"step {step:4d} total {report.total:.6f}", flush=True)
    save_checkpoint(str(out_dir / "best"), model, extra={"kind": "overfit", "steps": cfg.overfit_steps})
    return first, last
