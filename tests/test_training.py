import ctypes
import math
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import ecgdenoise

from conftest import tape_grads, traced_peak
from ecgdenoise import training
from ecgdenoise.data import make_pair, segment_and_normalize, synth_ecg
from ecgdenoise.loss import LossConfig, loss_and_gradients
from ecgdenoise.model import FORMAT_VERSION, ModelConfig, TransformerUNet1D, load_checkpoint, save_checkpoint
from ecgdenoise.optim import AdamW
from ecgdenoise.tensor import Tape, Tensor
from ecgdenoise.training import _stack, output_gradient, train_step
from reference import mul, sum_all, total_loss


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


def test_train_step_gradients_equal_the_inner_product_root_bitwise():
    # train_step seeds backward with the capped output gradient; the root it
    # replaces, sum(out * grad), hands backward the same array
    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, heads=2,
                                          input_len=64, seed=0))
    x, y = _pair((2, 1, 64), 6)
    cfg = LossConfig()
    opt = _RecordingOptimizer(model.parameters())
    train_step(model, opt, x, y, cfg)

    opt.zero_grad()
    with Tape() as tape:
        out = model.forward(Tensor(x), training=True)
        grad = output_gradient(out.data, y, cfg)[0]
        tape.backward(sum_all(mul(out, Tensor(grad))))
    for got, (_, p) in zip(opt.grads, model.parameters()):
        assert got.tobytes() == p.grad.tobytes()


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


DESK = ModelConfig(base_channels=8, transformer_layers=1, seed=0)


def _desk_batch():
    """Eight 3600-sample windows of synthetic ECG at 0 dB under the bw+em+ma mix,
    stacked as training stacks them: float32 noisy inputs, float64 clean targets."""
    record = synth_ecg(81.0, seed=3)
    pairs = [make_pair(record.id, offset, window, mean, std, 0.0, ("bw", "em", "ma"), 5, record.fs)
             for offset, window, mean, std in segment_and_normalize(record)[:8]]
    return _stack(pairs, range(8))


def test_float32_step_gradients_track_the_float64_step():
    x, y = _desk_batch()
    model = TransformerUNet1D(DESK)
    names = [name for name, _ in model.parameters()]
    grads = {}
    for dt in (np.float64, np.float32):
        opt = _RecordingOptimizer(model.parameters())
        train_step(model, opt, x.astype(dt), y, LossConfig())
        grads[dt] = dict(zip(names, opt.grads))
    g32, g64 = grads[np.float32], grads[np.float64]
    assert all(g.dtype == np.float32 for g in g32.values())
    # measured: 5.7e-5 globally, at worst 4.0e-3 for one parameter (down4.block.bn2.beta)
    diff = math.sqrt(sum(np.sum((g32[n] - g64[n]) ** 2) for n in names))
    assert diff <= 1e-3 * math.sqrt(sum(np.sum(g64[n] ** 2) for n in names))
    # no parameter has a gradient that batchnorm cancels to rounding, which
    # float32 would round differently: every one is held to 1e-2
    top = max(np.max(np.abs(g)) for g in g64.values())
    assert [n for n in names if np.max(np.abs(g64[n])) < 1e-6 * top] == []
    for n in names:
        assert np.linalg.norm(g32[n] - g64[n]) <= 1e-2 * np.linalg.norm(g64[n]), n


def test_float32_training_losses_track_float64_training():
    x, y = _desk_batch()
    losses = {}
    for dt in (np.float64, np.float32):
        model = TransformerUNet1D(DESK)
        opt = AdamW(model.parameters(), lr=1e-3)
        losses[dt] = np.array([train_step(model, opt, x.astype(dt), y, LossConfig())[0].total
                               for _ in range(20)])
    assert losses[np.float64][-1] < 0.75 * losses[np.float64][0]
    # each of the 20 losses within 1% of its float64 twin (5.5e-4 at worst, measured)
    assert np.all(np.abs(losses[np.float32] - losses[np.float64]) <= 1e-2 * losses[np.float64])


def test_float32_step_keeps_float64_weights_moments_and_checkpoints(monkeypatch, tmp_path):
    class RecordingTape(Tape):
        """Notes each node's output dtype and the dtype of the gradient its backward receives."""

        def backward(self, root, grad=None):
            outputs.extend(out.data.dtype for out, _ in self._nodes)
            self._nodes = [(out, lambda g, fn=fn: (upstream.append(g.dtype), fn(g)))
                           for out, fn in self._nodes]
            super().backward(root, grad)

    def recording_loss(y_hat, *args):
        loss_inputs.append(y_hat.dtype)
        return loss_and_gradients(y_hat, *args)

    outputs, upstream, loss_inputs = [], [], []
    monkeypatch.setattr(training, "Tape", RecordingTape)
    monkeypatch.setattr(training, "loss_and_gradients", recording_loss)
    pairs = [types.SimpleNamespace(noisy=n, clean=n) for n in np.random.default_rng(7).standard_normal((2, 64))]
    x, y = _stack(pairs, range(2))
    assert (x.dtype, y.dtype) == (np.float32, np.float64)  # where float32 enters training
    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, heads=2, input_len=64, seed=0))
    opt = AdamW(model.parameters(), lr=1e-3)
    for _ in range(2):
        train_step(model, opt, x, y, LossConfig())
    assert len(outputs) == len(upstream) > 0
    assert set(outputs) == set(upstream) == {np.dtype(np.float32)}
    assert loss_inputs == [np.float64, np.float64]  # the output is upcast for the loss and the cap
    params = model.parameters()
    assert all(p.grad.dtype == np.float32 and p.data.dtype == np.float64 for _, p in params)
    assert all(a.dtype == np.float64 for _, a in [*opt.state_arrays(), *model.state_arrays()])

    save_checkpoint(str(tmp_path / "last"), model, optimizer_arrays=opt.state_arrays())
    loaded, header, optim_arrays = load_checkpoint(str(tmp_path / "last"))
    assert header["format_version"] == FORMAT_VERSION == 3
    for (_, p), (_, q) in zip(params, loaded.parameters()):
        assert q.data.dtype == np.float64 and q.data.tobytes() == p.data.tobytes()
    assert all(optim_arrays[name].tobytes() == a.tobytes() for name, a in opt.state_arrays())


@pytest.mark.parametrize("run", ["train", "overfit"])
def test_a_run_parses_its_manifest_once(run, monkeypatch, tmp_path):
    from ecgdenoise import data
    from ecgdenoise.config import RunConfig

    records = [dict(record_id=f"r{i}", duration_s=1.0, fs=360.0, bpm=60.0, seed=i) for i in range(2)]
    data.build_dataset(records, {"train": ["r0"], "val": ["r1"]}, [0.0], [("bw",)], tmp_path / "ds",
                       window=64, stride=64)
    parses = []

    def counted(dataset_dir, load_manifest=data.load_manifest):
        parses.append(dataset_dir)
        return load_manifest(dataset_dir)

    # `load_split` reads the manifest through the data module's name, a run through its own
    monkeypatch.setattr(data, "load_manifest", counted)
    monkeypatch.setattr(training, "load_manifest", counted)
    cfg = RunConfig(base_channels=2, transformer_layers=1, epochs=1, batch_size=4, overfit_steps=1)
    start = {"train": training.train_model, "overfit": training.run_overfit_one_batch}[run]
    start(cfg, tmp_path / "ds", tmp_path / "run", quiet=True)
    assert parses == [tmp_path / "ds"]


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


def test_validation_total_is_the_dual_loss_of_the_float64_eval_forward():
    from ecgdenoise.training import validation_loss

    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, seed=0))
    rng = np.random.default_rng(46)
    noisy = rng.standard_normal((7, 3600))
    y_hat = model.forward(Tensor(noisy[:, None, :]), training=False).data[:, 0]
    # targets as near the outputs as after long training, where the loss is
    # small enough that float32 outputs would move it by about 1e-6 of itself
    clean = y_hat + 1e-5 * rng.standard_normal(y_hat.shape)
    pairs = [types.SimpleNamespace(clean=c, noisy=x) for c, x in zip(clean, noisy)]
    cfg = LossConfig(w_time=1.0, w_spectral=0.1)

    e = y_hat - clean
    time_term = np.mean(np.where(np.abs(e) < cfg.beta, 0.5 * e * e / cfg.beta, np.abs(e) - 0.5 * cfg.beta))
    mag = np.abs(np.fft.rfft(y_hat)) - np.abs(np.fft.rfft(clean))
    spectral_term = np.mean((mag**2).sum(axis=-1) / mag.shape[-1])
    want = cfg.w_time * time_term + cfg.w_spectral * spectral_term
    assert validation_loss(model, pairs, cfg, batch_size=4)[2] == pytest.approx(want, rel=1e-8, abs=0)


def test_the_dual_loss_records_no_tape_node():
    from ecgdenoise.training import validation_loss

    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, seed=0))
    for _, t in model.parameters():
        t.requires_grad = False  # so the eval forward records nothing either
    rng = np.random.default_rng(47)
    noisy, clean = rng.standard_normal((2, 3, 3600))
    pairs = [types.SimpleNamespace(clean=c, noisy=x) for c, x in zip(clean, noisy)]
    cfg = LossConfig()
    with Tape() as tape:
        ecgdenoise.loss.total_loss(noisy, clean, cfg)
        validation_loss(model, pairs, cfg)
        assert len(tape) == 0


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
    peaks = [traced_peak(lambda: run(pairs[:n])) for n in (64, 256)]
    # holding the whole split adds ~11 MB from 64 to 256 segments
    assert peaks[1] - peaks[0] < 2e6
