"""The benchmark's workloads: seeded inputs, timed rounds, output checks.

A run sets up its inputs several times (`setup_s` is the median), then repeats
whole rounds until its time is up. A round is the user's pipeline:
``ecgdenoise train`` for a fixed number of epochs from a fresh model, then a
few passes of ``metrics.evaluate`` on the held-out split with the best
checkpoint and ``ecgdenoise denoise --pad`` on records from one window to ten
minutes with that checkpoint. Rounds and passes replay the same work, one
caller in a closed loop. Every train step, evaluate call and denoise call is one
operation; an exception, a non-zero exit code or a failed output check counts
it as failed. The training checks (loss falls, logged validation loss, one
probe step's losses and sampled gradients) run once per run on the last
round's run directory, and a failure there fails every round's steps.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import ecgdenoise.data as data_mod
import ecgdenoise.metrics as metrics_mod
import ecgdenoise.model as model_mod
import ecgdenoise.training as training_mod
from ecgdenoise.cli import main as cli_main
from ecgdenoise.config import RunConfig
from ecgdenoise.tensor import Tensor

import checks
from tracing import Tracer, per_layer

FS = 360.0
SETUPS = 5  # set-ups per run; setup_s is their median
# Model init and batch order. The workload seed makes the data; with the init
# seed varied too, 42 desk steps left test SNRI at 0.5 dB or below 0 on 3 of 12
# seeds (3-5 dB on the rest), so the SNRI gate would fail by chance.
TRAIN_SEED = 0
# Evaluate-and-denoise passes after each training: they spread the short
# evaluate and denoise measurements over more of the run, whose speed drifts.
PASSES = 3
PROBE_BATCH = 2   # training segments in the probe step
PROBE_PARAMS = 4  # parameters whose gradient is checked by central differences


@dataclass(frozen=True)
class Workload:
    name: str
    base_channels: int
    transformer_layers: int
    batch_size: int
    epochs: int
    records: int               # synthesized records; split by train_frac / val_frac
    record_duration_s: float
    train_frac: float
    val_frac: float
    require_gain: bool         # test SNRI must be above 0 after the epoch budget
    input_len: int = 3600
    stride: int = 1800
    window_calls: int = 5      # one-window denoise calls per pass
    record_windows: tuple = (1, 6, 60)  # whole windows of the longer records


WORKLOADS = {
    # Desk config and data as in acceptance c7 (0 dB bw+em+ma, stride 1800): 7 train
    # records of 7 windows, 6 epochs of 7 steps; 7 test records (49 segments).
    "desk": Workload("desk", base_channels=8, transformer_layers=1, batch_size=8, epochs=6,
                     records=16, record_duration_s=40.0, train_frac=0.45, val_frac=0.125,
                     require_gain=True),
    # The program's default model: one step of 16 segments per epoch, two epochs;
    # 8 test records (32 segments).
    "default": Workload("default", base_channels=16, transformer_layers=2, batch_size=16,
                        epochs=2, records=14, record_duration_s=25.0, train_frac=0.29,
                        val_frac=0.14, require_gain=False),
}


def run_config(w: Workload, seed: int) -> RunConfig:
    return RunConfig(
        base_channels=w.base_channels, transformer_layers=w.transformer_layers,
        batch_size=w.batch_size, epochs=w.epochs, t_max=w.epochs, patience=w.epochs,
        records=w.records, record_duration_s=w.record_duration_s, stride=w.stride,
        snr_db=[0.0], noise_mixes=[["bw", "em", "ma"]], train_frac=w.train_frac,
        val_frac=w.val_frac, input_len=w.input_len, seed=seed,
    )


def _quiet_main(argv):
    """Run the CLI with its stdout and stderr captured: (exit code, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, err.getvalue().strip()


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Record:
    path: Path
    samples: np.ndarray
    kind: str  # window, long, affine or constant


def _noisy_ecg(rng, n):
    """Synthetic ECG plus baseline wander, electrode motion and muscle noise at 0 dB."""
    clean = data_mod.synth_ecg(n / FS, FS, float(rng.uniform(55.0, 100.0)),
                               seed=int(rng.integers(2**63))).samples
    noise = sum(data_mod.generate_noise(data_mod.NoiseSpec(kind, int(rng.integers(2**63))), n, FS)
                for kind in ("bw", "em", "ma"))
    return data_mod.mix_at_snr(clean, noise, 0.0)[0]


def make_records(w: Workload, seed: int):
    """Denoise inputs as (samples, kind) in call order, the index of the record
    whose affine image is the affine record, and that map's (a, b)."""
    rng = np.random.default_rng([seed, 1])
    win = w.input_len
    windows = [(_noisy_ecg(rng, win), "window") for _ in range(w.window_calls)]
    others = [(_noisy_ecg(rng, whole * win + int(rng.integers(1, win))), "long")
              for whole in w.record_windows]
    base = min(1, len(others) - 1)
    a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-1.0, 1.0))
    others.append((a * others[base][0] + b, "affine"))
    # The same for every seed: numpy's mean of 2/3 repeated is off by one ulp,
    # so the window's std is 1e-16, not 0, and denoise does not pass it through.
    others.append((np.full(win + win // 3, 2.0 / 3.0), "constant"))
    # one-window calls alternate with the others, so their times spread over the pass
    records = []
    for i in range(max(len(windows), len(others))):
        records.extend(windows[i:i + 1] + others[i:i + 1])
    return records, next(i for i, r in enumerate(records) if r is others[base]), (a, b)


@dataclass
class Inputs:
    config: Path
    dataset: Path
    test_pairs: list
    n_train: int
    records: list
    affine_base: int
    affine: tuple


def setup(w: Workload, seed: int, root: Path) -> Inputs:
    """Synthesize the dataset and the denoise records under `root`."""
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    config = root / "config.json"
    run_config(w, seed).to_json(config)
    dataset = root / "dataset"
    code, err = _quiet_main(["synth-data", "--config", str(config), "--out", str(dataset)])
    if code != 0:
        raise RuntimeError(f"synth-data exited {code}: {err}")
    samples, affine_base, affine = make_records(w, seed)
    records = []
    for i, (x, kind) in enumerate(samples):
        path = root / "records" / f"r{i:02d}-{kind}.f64"
        path.parent.mkdir(exist_ok=True)
        data_mod.save_signal_file(path, data_mod.SignalRecord(f"r{i:02d}", FS, x))
        records.append(Record(path, x, kind))
    test_pairs = data_mod.load_split(dataset, "test")
    with open(dataset / "manifest.json") as fh:
        n_train = sum(1 for p in json.load(fh)["pairs"] if p["split"] == "train")
    return Inputs(config, dataset, test_pairs, n_train, records, affine_base, affine)


# ---------------------------------------------------------------------------
# one round


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    train_s: float = 0.0
    train_segs: int = 0
    eval_s: float = 0.0
    eval_segs: int = 0
    denoise_s: float = 0.0
    denoise_samples: int = 0
    trained_rounds: int = 0
    errors: list = field(default_factory=list)      # operations that raised or exited non-zero
    check_failures: list = field(default_factory=list)  # outputs that failed a check
    known_faults: list = field(default_factory=list)    # the constant record, see make_records

    def fail(self, what, exc, ops=1, known=False):
        self.failed += ops
        if known:
            kind = self.known_faults
        else:
            kind = self.check_failures if isinstance(exc, checks.CheckFailure) else self.errors
        kind.append(f"{what}: {type(exc).__name__}: {exc}")


def _steps(w: Workload, n_train: int) -> int:
    return w.epochs * math.ceil(n_train / w.batch_size)


def run_round(w: Workload, inputs: Inputs, run_dir: Path, tally: Tally, window_ms: list,
              snri: list, tracer: Tracer | None = None) -> float:
    """Train once, then evaluate and denoise PASSES times; returns the seconds
    its operations took."""
    call = tracer.call if tracer else (lambda _name, fn, *a, **k: fn(*a, **k))
    steps = _steps(w, inputs.n_train)
    tally.attempted += steps + PASSES * (1 + len(inputs.records))
    if run_dir.exists():
        shutil.rmtree(run_dir)

    t0 = time.perf_counter()
    code, err = _quiet_main(["train", "--config", str(inputs.config), "--seed", str(TRAIN_SEED),
                             "--data", str(inputs.dataset), "--out", str(run_dir), "--quiet"])
    op_s = time.perf_counter() - t0
    if code != 0:
        # nothing after it has a checkpoint to use
        tally.fail("train", RuntimeError(f"exited {code}: {err}"),
                   steps + PASSES * (1 + len(inputs.records)))
        return 0.0
    tally.trained_rounds += 1
    tally.train_s += op_s
    tally.train_segs += w.epochs * inputs.n_train
    best = str(run_dir / "best")
    model = model_mod.load_checkpoint(best)[0]
    for _ in range(PASSES):
        op_s += _evaluate(w, inputs, model, tally, snri, call)
        op_s += _denoise_all(inputs, best, run_dir, tally, window_ms, call)
    return op_s


def _evaluate(w, inputs, model, tally, snri, call) -> float:
    try:
        t0 = time.perf_counter()
        report = call("metrics.evaluate", metrics_mod.evaluate, model, inputs.test_pairs, 16)
        dt = time.perf_counter() - t0
        snri.append(checks.check_evaluation(report, len(inputs.test_pairs), w.require_gain))
    except Exception as exc:  # an operation's failure is counted, not fatal
        tally.fail("evaluate", exc)
        return 0.0
    tally.eval_s += dt
    tally.eval_segs += len(inputs.test_pairs)
    return dt


def _denoise_all(inputs, checkpoint, run_dir, tally, window_ms, call) -> float:
    op_s = 0.0
    outputs = {}
    for i, rec in enumerate(inputs.records):
        out_path = run_dir / "denoised" / rec.path.name
        out_path.parent.mkdir(exist_ok=True)
        argv = ["denoise", "--checkpoint", checkpoint, "--in", str(rec.path), "--out", str(out_path),
                "--pad"]
        try:
            t0 = time.perf_counter()
            code, err = call("cli.denoise", _quiet_main, argv)
            dt = time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"exited {code}: {err}")
            out = np.fromfile(out_path, dtype="<f8")
            checks.check_denoised(rec.samples, out)
            if rec.kind == "constant":
                try:
                    checks.check_constant(rec.samples, out)
                except checks.CheckFailure as exc:
                    tally.fail(f"denoise {rec.path.name}", exc, known=True)
                    continue
            if rec.kind == "affine":
                checks.check_affine(outputs[inputs.affine_base], out, *inputs.affine)
        except Exception as exc:
            tally.fail(f"denoise {rec.path.name}", exc)
            continue
        outputs[i] = out
        tally.denoise_s += dt
        tally.denoise_samples += rec.samples.size
        op_s += dt
        if rec.kind == "window":
            window_ms.append(1e3 * dt)
    return op_s


# ---------------------------------------------------------------------------
# training checks, once per run


class _CaptureGradients:
    """Optimizer stand-in for train_step: keeps the gradients, moves nothing."""

    def __init__(self, model):
        self.model = model
        self.grads = None

    def zero_grad(self):
        self.model.zero_grad()

    def step(self):
        self.grads = {name: t.grad.copy() for name, t in self.model.parameters()}


def _stack(pairs):
    return (np.stack([p.noisy for p in pairs])[:, None, :],
            np.stack([p.clean for p in pairs])[:, None, :])


def check_training(w: Workload, inputs: Inputs, run_dir: Path, seed: int) -> None:
    """Loss falls, logged validation loss, and one probe step against the references."""
    loss_cfg = RunConfig.from_json(inputs.config).loss_config()
    rows = checks.check_loss_falls(run_dir / "log.csv")

    model = model_mod.load_checkpoint(str(run_dir / "last"))[0]
    val = data_mod.load_split(inputs.dataset, "val")
    outs = [model.forward(Tensor(_stack(val[i:i + w.batch_size])[0]), training=False).data
            for i in range(0, len(val), w.batch_size)]
    checks.check_val_total(float(rows[-1]["val_total"]), np.concatenate(outs),
                           _stack(val)[1], loss_cfg)

    x, y = _stack(data_mod.load_split(inputs.dataset, "train")[:PROBE_BATCH])
    grads, loss_at = probe_step(model, x, y, loss_cfg)
    params = {name: t.data for name, t in model.parameters()}
    checks.check_gradients(loss_at, params, grads, probe_entries(grads, PROBE_PARAMS, seed))


def probe_step(model, x, y, loss_cfg):
    """One `train_step` that moves nothing: checks its reported losses and
    output-gradient norms, and returns its parameter gradients with the loss it
    descends (the spectral term scaled by the step's fixed cap)."""
    y_hat = model.forward(Tensor(x), training=True).data
    capture = _CaptureGradients(model)
    report, norms = training_mod.train_step(model, capture, x, y, loss_cfg)
    checks.check_loss_report(report.time_loss, report.spectral_loss, y_hat, y, loss_cfg.beta)
    checks.check_norms(norms, y_hat, y, loss_cfg)
    c = checks.cap_factor(*checks.output_gradient_norms(y_hat, y, loss_cfg.beta, loss_cfg.w_time,
                                                        loss_cfg.w_spectral),
                          loss_cfg.w_time, loss_cfg.w_spectral)

    def loss_at():
        out = model.forward(Tensor(x), training=True).data
        return (loss_cfg.w_time * checks.smooth_l1(out, y, loss_cfg.beta)
                + c * loss_cfg.w_spectral * checks.spectral(out, y))

    return capture.grads, loss_at


def probe_entries(grads, count, seed):
    """Seeded parameters, each at its entry of largest gradient magnitude."""
    top = max(float(np.max(np.abs(g))) for g in grads.values())
    names = sorted(n for n, g in grads.items() if np.max(np.abs(g)) > 1e-4 * top)
    rng = np.random.default_rng([seed, 2])
    chosen = rng.choice(len(names), size=min(count, len(names)), replace=False)
    return [(names[i], int(np.argmax(np.abs(grads[names[i]])))) for i in sorted(chosen)]


# ---------------------------------------------------------------------------
# a run


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Returns (result dict for the last stdout line, details for the output file)."""
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            inputs = setup(w, seed, work / "inputs")
        setup_times.append(time.perf_counter() - t0)

    tally = Tally()
    window_ms, snri, rounds = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1  # trace runs alternate, untraced first
        before = (tally.train_s, tally.eval_s, tally.denoise_s)
        with tracer if traced else contextlib.nullcontext():
            op_s = run_round(w, inputs, work / "run", tally, window_ms, snri,
                             tracer if traced else None)
        after = (tally.train_s, tally.eval_s, tally.denoise_s)
        rounds.append({"traced": traced, "op_s": op_s,
                       **{k: a - b for k, a, b in zip(("train_s", "eval_s", "denoise_s"), after, before)}})

    if tally.trained_rounds:
        try:
            check_training(w, inputs, work / "run", seed)
        except Exception as exc:
            # the rounds replay the same training, so every round's steps fail with it
            tally.fail("training", exc, tally.trained_rounds * _steps(w, inputs.n_train))

    details = {"rounds": rounds, "setup_s": setup_times, "test_snri_db": snri,
               "denoise_window_ms": window_ms, "errors": tally.errors,
               "check_failures": tally.check_failures, "known_faults": tally.known_faults}
    if trace:
        layer = per_layer(tracer.spans, tracer.absent)
        traced = [r["op_s"] for r in rounds if r["traced"]]
        untraced = [r["op_s"] for r in rounds if not r["traced"]]
        layer["trace.overhead_pct"] = (
            100.0 * (statistics.mean(traced) / statistics.mean(untraced) - 1.0), "%")
        values = layer
        details["trace"] = tracer.to_json()
    else:
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "train_seg_per_s": (tally.train_s and tally.train_segs / tally.train_s, "seg/s"),
            "eval_seg_per_s": (tally.eval_s and tally.eval_segs / tally.eval_s, "seg/s"),
            "denoise_samples_per_s": (tally.denoise_s and tally.denoise_samples / tally.denoise_s,
                                      "samples/s"),
            "denoise_window_ms": (window_ms and statistics.median(window_ms), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    # an operation kind that never succeeded has no figure; run.py then exits 1
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items() if v or trace}
    result = {"correct": not tally.check_failures, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, details
