"""The benchmark's own tests: tiny runs of every workload, and each output
check rejecting a deliberately corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import csv
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ecgdenoise import layers  # noqa: E402
from ecgdenoise.loss import LossConfig  # noqa: E402
from ecgdenoise.metrics import MetricReport  # noqa: E402
from ecgdenoise.model import ModelConfig, TransformerUNet1D  # noqa: E402
from ecgdenoise.tensor import Tensor  # noqa: E402
from ecgdenoise.training import output_gradient  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at a size that runs in seconds: 256-sample windows, base 2."""
    return dataclasses.replace(
        workloads.WORKLOADS[name], input_len=256, records=6, record_duration_s=3.0, stride=128,
        epochs=2, base_channels=2, transformer_layers=1, window_calls=2, record_windows=(1, 3),
        require_gain=False)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace, tmp_path):
    w = tiny(name)
    result, details = workloads.run(w, seed=3, seconds=0.0, trace=trace, work=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["check_failures"]
    assert details["errors"] == []
    rounds = len(details["rounds"])
    assert rounds == (2 if trace else 1)
    inputs = workloads.setup(w, 3, tmp_path / "again")
    per_round = workloads._steps(w, inputs.n_train) + workloads.PASSES * (1 + len(inputs.records))
    assert result["attempted"] == rounds * per_round
    # the one operation expected to fail, once a pass: the constant record (see make_records)
    assert result["failed"] == rounds * workloads.PASSES == len(details["known_faults"])
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if trace:
        spans = details["trace"]["spans"]
        steps = sum(s["name"] == "training.train_step" for s in spans)
        assert steps == workloads._steps(w, inputs.n_train)  # one traced round
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_absent_name_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(layers, "maxpool1d")  # the model keeps its own binding
    model, x, y = _tiny_model()
    tracer = tracing.Tracer()
    with tracer:
        workloads.probe_step(model, x, y, LossConfig())
    assert "layers.maxpool1d.fwd" in tracer.absent
    metrics = tracing.per_layer(tracer.spans, tracer.absent)
    assert "layers.maxpool1d.fwd_ms" not in metrics
    assert metrics["layers.conv1d.fwd_ms"][0] > 0


# ---------------------------------------------------------------------------
# each check rejects a corrupted output


def _tiny_model(seed=0):
    model = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, input_len=64,
                                          seed=seed))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((2, 1, 64))
    return model, y + 0.5 * rng.standard_normal(y.shape), y


def test_loss_report_check():
    model, x, y = _tiny_model()
    y_hat = model.forward(Tensor(x), training=True).data
    time_loss, spectral_loss = checks.smooth_l1(y_hat, y, 1.0), checks.spectral(y_hat, y)
    checks.check_loss_report(time_loss, spectral_loss, y_hat, y, 1.0)
    with pytest.raises(checks.CheckFailure):
        checks.check_loss_report(time_loss, 1.01 * spectral_loss, y_hat, y, 1.0)
    with pytest.raises(checks.CheckFailure):
        checks.check_loss_report(1.01 * time_loss, spectral_loss, y_hat, y, 1.0)


def test_gradient_norm_check_agrees_with_the_package():
    rng = np.random.default_rng(1)
    y_hat, y = rng.standard_normal((2, 3, 100))
    cfg = LossConfig()
    _, time_norm, spectral_norm = output_gradient(y_hat, y, cfg)
    checks.check_norms((time_norm, spectral_norm), y_hat, y, cfg)
    with pytest.raises(checks.CheckFailure):
        checks.check_norms((time_norm, 1.01 * spectral_norm), y_hat, y, cfg)


def test_gradient_check():
    model, x, y = _tiny_model()
    grads, loss_at = workloads.probe_step(model, x, y, LossConfig())
    params = {name: t.data for name, t in model.parameters()}
    entries = workloads.probe_entries(grads, 6, seed=0)
    assert checks.check_gradients(loss_at, params, grads, entries) < 1e-4
    scaled = {name: 1.01 * g for name, g in grads.items()}
    with pytest.raises(checks.CheckFailure):
        checks.check_gradients(loss_at, params, scaled, entries)


def _write_log(path, totals):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_total", "val_total"])
        writer.writerows([i, t, t] for i, t in enumerate(totals))


def test_loss_falls_check(tmp_path):
    _write_log(tmp_path / "log.csv", [0.5, 0.4, 0.3])
    checks.check_loss_falls(tmp_path / "log.csv")
    _write_log(tmp_path / "log.csv", [0.5, 0.4, 0.51])
    with pytest.raises(checks.CheckFailure):
        checks.check_loss_falls(tmp_path / "log.csv")
    _write_log(tmp_path / "log.csv", [0.5, math.nan, 0.3])
    with pytest.raises(checks.CheckFailure):
        checks.check_loss_falls(tmp_path / "log.csv")


def test_validation_total_check():
    rng = np.random.default_rng(2)
    out, target = rng.standard_normal((2, 4, 1, 64))
    cfg = LossConfig()
    total = cfg.w_time * checks.smooth_l1(out, target, 1.0) + cfg.w_spectral * checks.spectral(out, target)
    checks.check_val_total(total, out, target, cfg)
    with pytest.raises(checks.CheckFailure):
        checks.check_val_total(1.01 * total, out, target, cfg)


def test_evaluation_check():
    report = MetricReport(n_segments=4, aggregates={"snri": (1.5, 0.2)})
    assert checks.check_evaluation(report, 4, require_gain=True) == 1.5
    with pytest.raises(checks.CheckFailure):
        checks.check_evaluation(report, 5, require_gain=False)
    report.aggregates["snri"] = (-0.1, 0.2)
    checks.check_evaluation(report, 4, require_gain=False)
    with pytest.raises(checks.CheckFailure):
        checks.check_evaluation(report, 4, require_gain=True)


def test_denoised_length_and_finite_check():
    x = np.linspace(-1.0, 1.0, 500)
    checks.check_denoised(x, x.copy())
    with pytest.raises(checks.CheckFailure):
        checks.check_denoised(x, x[:-1])
    bad = x.copy()
    bad[7] = np.nan
    with pytest.raises(checks.CheckFailure):
        checks.check_denoised(x, bad)


def test_affine_check():
    out = np.sin(np.linspace(0.0, 20.0, 4000))
    a, b = 1.7, -0.3
    checks.check_affine(out, a * out + b, a, b)
    with pytest.raises(checks.CheckFailure):
        checks.check_affine(out, np.roll(a * out + b, 1), a, b)


def test_constant_check():
    x = np.full(4800, 0.25)
    checks.check_constant(x, x.copy())
    with pytest.raises(checks.CheckFailure):
        checks.check_constant(x, x + 1e-12)
