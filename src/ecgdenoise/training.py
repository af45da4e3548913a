"""Training loop: batching, scheduling, logging, checkpoints, early stopping.

Every run directory receives the resolved config, an append-only CSV log, a
``best`` checkpoint (lowest validation total loss) and a ``last`` checkpoint
with optimizer state for resumption. A non-finite loss aborts immediately:
silently skipping corrupted batches would poison every later statistic.

Both loss terms depend only on the model output, so each step forms their
gradients with respect to the output directly and caps the weighted spectral
gradient at the weighted time gradient's norm before backpropagating once
(see `output_gradient`), from the same pass that yields the step's loss
report. The reported losses stay the plain weighted sum.

Validation runs the model's eval-mode `predict`. The model's forward pins the
allocator policy (`heap.keep_freed_memory_in_heap`) that keeps each step's
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
from .data import load_split
from .loss import loss_and_gradients, total_loss
from .model import INFER_BATCH, TransformerUNet1D, load_checkpoint, save_checkpoint
from .optim import AdamW
from .tensor import Tape, Tensor, mul, sum_all

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
    final_train_total: float
    checkpoint_prefix: str
    stopped_early: bool = False


def _stack(pairs, indices):
    x = np.stack([pairs[i].noisy for i in indices])[:, None, :]
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
    """One optimizer step on a batch; returns (loss report, pre-cap gradient norms)."""
    optimizer.zero_grad()
    with Tape() as tape:
        out = model.forward(Tensor(x), training=True)
        report, time_grad, spectral_grad = loss_and_gradients(out.data, y, loss_cfg)
        _check_finite(report.total, context)
        grad, time_norm, spectral_norm = _capped_sum(time_grad, spectral_grad, loss_cfg)
        tape.backward(sum_all(mul(out, Tensor(grad))))
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
    """Eval-mode loss components over the pair list, taken `batch_size` pairs at
    a time and weighted by segment count: (time, spectral, total)."""
    sums = np.zeros(3)
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        out = model.predict(np.stack([p.noisy for p in chunk]), batch_size)
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


def _make_optimizer(model, cfg: RunConfig) -> AdamW:
    return AdamW(model.parameters(), lr=cfg.lr, betas=(cfg.adam_beta1, cfg.adam_beta2),
                 eps=cfg.adam_eps, weight_decay=cfg.weight_decay)


def train_model(cfg: RunConfig, dataset_dir, out_dir, resume: str | None = None,
                quiet: bool = False) -> TrainResult:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out_dir / "resolved_config.json")

    train_pairs = load_split(dataset_dir, "train")
    val_pairs = load_split(dataset_dir, "val")
    if not train_pairs:
        raise ValueError(f"no training pairs under {dataset_dir}")
    if not val_pairs:
        raise ValueError(f"no validation pairs under {dataset_dir}")

    loss_cfg = cfg.loss_config()
    schedule = cfg.schedule()

    start_epoch = 0
    best_val = math.inf
    best_epoch = -1
    if resume:
        model, manifest, optim_arrays = load_checkpoint(resume)
        optimizer = _make_optimizer(model, cfg)
        extra = manifest["extra"]
        optimizer.load_state_arrays(optim_arrays, step=extra["optimizer_step"])
        start_epoch = extra["epoch"] + 1
        best_val = extra["best_val"]
        best_epoch = extra["best_epoch"]
    else:
        model = TransformerUNet1D(cfg.model_config())
        optimizer = _make_optimizer(model, cfg)

    log_path = out_dir / "log.csv"
    final_train_total = math.nan
    epoch = start_epoch - 1
    stopped_early = False
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
        final_train_total = train_total
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
            stopped_early = True
            if not quiet:
                print(f"early stop: no val improvement for {cfg.patience} epochs", flush=True)
            break

    return TrainResult(
        epochs_run=epoch - start_epoch + 1,
        best_val=best_val,
        best_epoch=best_epoch,
        final_train_total=final_train_total,
        checkpoint_prefix=str(out_dir / "best"),
        stopped_early=stopped_early,
    )


def run_overfit_one_batch(cfg: RunConfig, dataset_dir, out_dir, quiet: bool = False):
    """Drive the first training batch repeatedly; returns (first, last) losses.

    A sanity harness: a working model/loss/optimizer stack must be able to
    collapse the loss on a single memorized batch.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg.to_json(out_dir / "resolved_config.json")

    pairs = load_split(dataset_dir, "train")
    if not pairs:
        raise ValueError(f"no training pairs under {dataset_dir}")
    x, y = _stack(pairs, range(min(cfg.batch_size, len(pairs))))

    model = TransformerUNet1D(cfg.model_config())
    optimizer = _make_optimizer(model, cfg)
    loss_cfg = cfg.loss_config()
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
