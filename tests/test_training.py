import ctypes
import os
import subprocess
import sys
import textwrap
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import ecgdenoise

from conftest import tape_grads
from ecgdenoise.loss import LossConfig, total_loss
from ecgdenoise.model import ModelConfig, TransformerUNet1D
from ecgdenoise.optim import AdamW
from ecgdenoise.tensor import Tape, Tensor
from ecgdenoise.training import output_gradient, train_step


def _pair(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape), rng.standard_normal(shape)


def _tape_output_grad(y_hat, y, cfg):
    t = Tensor(y_hat.copy(), requires_grad=True)
    (g,) = tape_grads(lambda: total_loss(t, Tensor(y), cfg)[0], [t])
    return g


def test_output_gradient_time_only_is_bitwise_tape_gradient():
    y_hat, y = _pair((3, 1, 3600), 0)
    cfg = LossConfig(w_time=1.0, w_spectral=0.0)
    grad, time_norm, spectral_norm = output_gradient(y_hat, y, cfg)
    assert np.array_equal(grad, _tape_output_grad(y_hat, y, cfg))
    assert time_norm == float(np.linalg.norm(grad))
    assert spectral_norm == 0.0


def test_output_gradient_below_cap_matches_tape_gradient():
    y_hat, y = _pair((2, 1, 64), 1)
    cfg = LossConfig(w_time=1.0, w_spectral=1e-4)
    grad, time_norm, spectral_norm = output_gradient(y_hat, y, cfg)
    assert 0.0 < spectral_norm < time_norm
    assert np.max(np.abs(grad - _tape_output_grad(y_hat, y, cfg))) < 1e-12


def test_output_gradient_cap_scales_spectral_part_to_time_norm():
    y_hat, y = _pair((4, 1, 3600), 2)
    cfg = LossConfig(w_time=1.0, w_spectral=0.1)
    grad, time_norm, spectral_norm = output_gradient(y_hat, y, cfg)
    assert spectral_norm > 100.0 * time_norm  # the imbalance the cap exists for
    time_part, _, _ = output_gradient(y_hat, y, LossConfig(w_time=1.0, w_spectral=0.0))
    capped = grad - time_part
    assert abs(np.linalg.norm(capped) - time_norm) < 1e-12 * time_norm
    # the cap only rescales: the spectral part keeps the tape gradient's direction
    spectral_tape = _tape_output_grad(y_hat, y, cfg) - time_part
    cos = np.vdot(capped, spectral_tape) / (np.linalg.norm(capped) * np.linalg.norm(spectral_tape))
    assert cos > 1.0 - 1e-12


def test_output_gradient_spectral_only_is_not_zeroed():
    y_hat, y = _pair((2, 1, 3600), 3)
    cfg = LossConfig(w_time=0.0, w_spectral=0.1)
    grad, time_norm, spectral_norm = output_gradient(y_hat, y, cfg)
    assert time_norm == 0.0
    assert spectral_norm > 0.0
    assert abs(np.linalg.norm(grad) - spectral_norm) < 1e-12 * spectral_norm
    tape = _tape_output_grad(y_hat, y, cfg)
    assert np.max(np.abs(grad - tape)) < 1e-12 * np.max(np.abs(tape))


class _RecordingOptimizer:
    """Stands in for AdamW: keeps the gradients a step leaves, updates nothing."""

    def __init__(self, params):
        self.params = params
        self.grads = None

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()

    def step(self):
        self.grads = [p.grad.copy() for _, p in self.params]


def test_train_step_time_only_matches_total_loss_backprop():
    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, heads=2,
                                          input_len=64, seed=0))
    x, y = _pair((2, 1, 64), 4)
    cfg = LossConfig(w_time=1.0, w_spectral=0.0)
    opt = _RecordingOptimizer(model.parameters())
    report, norms = train_step(model, opt, x, y, cfg)

    opt.zero_grad()
    with Tape() as tape:
        loss, expected = total_loss(model.forward(Tensor(x), training=True), Tensor(y), cfg)
        tape.backward(loss)
    assert report == expected
    assert norms[1] == 0.0
    for got, (_, p) in zip(opt.grads, model.parameters()):
        assert np.array_equal(got, p.grad)


def test_train_step_transforms_output_and_target_once(monkeypatch):
    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, heads=2,
                                          input_len=64, seed=0))
    x, y = _pair((2, 1, 64), 5)
    calls = []
    rfft = np.fft.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(args[0].shape)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    train_step(model, _RecordingOptimizer(model.parameters()), x, y, LossConfig())
    assert calls == [(2, 64), (2, 64)]  # the output's rows, then the target's


def _libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_train_step_reuses_freed_memory_without_page_faults():
    resource = pytest.importorskip("resource")
    model = TransformerUNet1D(ModelConfig(base_channels=4, transformer_layers=1, seed=0))
    optimizer = AdamW(model.parameters(), lr=1e-3)
    x, y = _pair((4, 1, 3600), 6)
    for _ in range(2):  # the heap grows to the step's peak
        train_step(model, optimizer, x, y, LossConfig())
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        train_step(model, optimizer, x, y, LossConfig())
    per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
    # a step that hands its freed buffers back to the OS faults them in again: ~12 k here
    assert per_step < 100


# A fresh process runs the command twice and prints the minor page faults of
# the second run; the first grows the heap to the run's peak.
_FAULTS_OF_SECOND_RUN = textwrap.dedent("""
    import resource, sys, types
    from pathlib import Path
    import numpy as np
    from ecgdenoise.cli import main
    from ecgdenoise.data import SignalRecord, save_signal_file
    from ecgdenoise.loss import LossConfig
    from ecgdenoise.metrics import evaluate
    from ecgdenoise.model import ModelConfig, TransformerUNet1D, save_checkpoint
    from ecgdenoise.training import validation_loss

    model = TransformerUNet1D(ModelConfig(base_channels=4, transformer_layers=1, seed=0))
    rng = np.random.default_rng(0)
    if sys.argv[1] in ("evaluate", "validation"):
        pairs = [types.SimpleNamespace(clean=c, noisy=c + rng.standard_normal(c.size),
                                       noise_mix=("ma",), target_snr_db=0.0)
                 for c in rng.standard_normal((8, 3600))]
        if sys.argv[1] == "evaluate":
            run = lambda: evaluate(model, pairs, batch_size=4)
        else:
            run = lambda: validation_loss(model, pairs, LossConfig(), batch_size=4)
    else:
        tmp = Path(sys.argv[2])
        save_checkpoint(str(tmp / "ckpt"), model)
        save_signal_file(tmp / "in.f64", SignalRecord("r", 360.0, rng.standard_normal(4 * 3600)))
        run = lambda: main(["denoise", "--checkpoint", str(tmp / "ckpt"), "--in",
                            str(tmp / "in.f64"), "--out", str(tmp / "out.f64")])
    run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
@pytest.mark.parametrize("command", ["evaluate", "denoise", "validation"])
def test_standalone_inference_reuses_freed_memory_without_page_faults(command, tmp_path):
    pytest.importorskip("resource")
    src = str(Path(ecgdenoise.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, "-c", _FAULTS_OF_SECOND_RUN, command, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    faults = int(proc.stdout.split()[-1])
    # unpinned, the second run faults its freed buffers in again: ~2 k (denoise), ~6 k (evaluate)
    assert faults < 200


@pytest.mark.parametrize("command", ["evaluate", "validation"])
def test_inference_memory_follows_the_batch_not_the_split(command):
    from ecgdenoise.metrics import evaluate
    from ecgdenoise.training import validation_loss

    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, seed=0))
    rng = np.random.default_rng(0)
    pairs = [types.SimpleNamespace(clean=c, noisy=c + rng.standard_normal(c.size),
                                   noise_mix=("ma",), target_snr_db=0.0)
             for c in rng.standard_normal((256, 3600))]
    run = {"evaluate": lambda p: evaluate(model, p),
           "validation": lambda p: validation_loss(model, p, LossConfig())}[command]
    peaks = []
    for n in (64, 256):
        tracemalloc.start()
        run(pairs[:n])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # holding the whole split adds ~11 MB from 64 to 256 segments
    assert peaks[1] - peaks[0] < 2e6
