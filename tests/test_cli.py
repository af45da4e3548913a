import ast
import csv
import inspect
import json
import math
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ecgdenoise.cli
import ecgdenoise.layers
import ecgdenoise.loss
import ecgdenoise.training
from conftest import edit_checkpoint_header
from ecgdenoise.cli import main
from ecgdenoise.config import RunConfig
from ecgdenoise.data import SignalRecord, build_dataset, load_manifest, load_split, save_signal_file, synth_ecg
from ecgdenoise.loss import LossConfig, LossReport
from ecgdenoise.model import RETIRED, ModelConfig, TransformerUNet1D, load_checkpoint
from ecgdenoise.optim import AdamW, CosineSchedule


# one 10 s record at 360 Hz, as `synth_ecg` keyword arguments
ONE_RECORD = dict(record_id="r", duration_s=10.0, fs=360.0, bpm=60.0, seed=0)

TINY_TRAIN = [
    "--batch-size", "4", "--base-channels", "2", "--transformer-layers", "1",
    "--seed", "11",
]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ds")
    code = main([
        "synth-data", "--out", str(root), "--records", "6", "--duration", "20",
        "--seed", "11", "--snr", "0,5", "--noise", "bw;bw,em,ma",
    ])
    assert code == 0
    return root


@pytest.fixture(scope="module")
def run_dir(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_run")
    code = main([
        "train", "--data", str(dataset), "--out", str(out), "--epochs", "2",
        "--quiet", *TINY_TRAIN,
    ])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# synth-data


def test_synth_data_split_files_disjoint(dataset):
    manifest = load_manifest(dataset)
    splits = manifest["split_records"]
    assert set(splits) == {"train", "val", "test"}
    all_ids = [rid for ids in splits.values() for rid in ids]
    assert len(all_ids) == len(set(all_ids))


def test_synth_data_writes_only_its_manifest_and_config(dataset):
    assert sorted(p.name for p in dataset.iterdir()) == ["manifest.json", "synth_config.json"]


def test_synth_data_flags_control_plan(dataset):
    manifest = load_manifest(dataset)
    assert manifest["snr_list"] == [0.0, 5.0]
    assert manifest["mixes"] == [["bw"], ["bw", "em", "ma"]]
    combos = {(tuple(e["noise_mix"]), e["target_snr_db"]) for e in manifest["pairs"]}
    assert combos == {
        (("bw",), 0.0), (("bw",), 5.0),
        (("bw", "em", "ma"), 0.0), (("bw", "em", "ma"), 5.0),
    }


def test_synth_data_rerun_identical_manifest(dataset, tmp_path):
    code = main([
        "synth-data", "--out", str(tmp_path / "again"), "--records", "6",
        "--duration", "20", "--seed", "11", "--snr", "0,5", "--noise", "bw;bw,em,ma",
    ])
    assert code == 0
    assert (tmp_path / "again" / "manifest.json").read_bytes() == (dataset / "manifest.json").read_bytes()


def test_synth_data_that_fails_to_build_writes_no_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"noise_mixes": [["xyz"]]}))
    out = tmp_path / "ds"
    assert main(["synth-data", "--config", str(config), "--out", str(out),
                 "--records", "6", "--duration", "10"]) == 2
    assert "unknown noise kind" in capsys.readouterr().err
    assert not (out / "synth_config.json").exists()
    assert not out.exists()


def test_synth_data_with_a_non_positive_rate_names_fs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"fs": -360.0}))
    out = tmp_path / "ds"
    assert main(["synth-data", "--config", str(config), "--out", str(out),
                 "--records", "6", "--duration", "10"]) == 2
    assert "fs must be positive, got -360.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source, key", [
    ('{"snr_db": [true]}', "snr_db"),
    ('{"snr_db": [[0]]}', "snr_db"),
    ('{"snr_db": [NaN]}', "snr_db"),
    ('{"snr_db": ["a"]}', "snr_db"),
    ('{"noise_mixes": ["bw"]}', "noise_mixes"),
    ('{"noise_mixes": [["bw", 1]]}', "noise_mixes"),
    (["--snr", "nan"], "snr_db"),
    (["--snr", "0,inf"], "snr_db"),
], ids=["snr_bool", "snr_list", "snr_nan", "snr_text", "mix_text", "mix_number", "snr_flag_nan", "snr_flag_inf"])
def test_config_list_holding_another_type_is_rejected(tmp_path, capsys, source, key):
    argv = source
    if isinstance(source, str):
        (tmp_path / "config.json").write_text(source)
        argv = ["--config", str(tmp_path / "config.json")]
    assert main(["synth-data", *argv, "--out", str(tmp_path / "ds"), "--records", "8", "--duration", "10"]) == 2
    assert f"{key!r} must be of type" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_synth_data_single_mix_flag(tmp_path):
    code = main([
        "synth-data", "--out", str(tmp_path / "ds"), "--records", "6",
        "--duration", "10", "--seed", "2", "--snr", "0", "--noise", "bw,em,ma",
    ])
    assert code == 0
    manifest = load_manifest(tmp_path / "ds")
    assert all(e["noise_mix"] == ["bw", "em", "ma"] for e in manifest["pairs"])
    assert all(e["target_snr_db"] == 0.0 for e in manifest["pairs"])


# ---------------------------------------------------------------------------
# train


def test_train_log_columns_and_schedule(run_dir):
    with open(run_dir / "log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == [
        "epoch", "lr", "train_time_loss", "train_spectral_loss", "train_total", "val_total",
        "train_time_grad_norm", "train_spectral_grad_norm",
    ]
    assert float(rows[0]["lr"]) == 1e-3  # epoch 0 runs at the schedule peak
    assert (run_dir / "resolved_config.json").exists()
    assert (run_dir / "best.ckpt").exists()
    assert (run_dir / "last.ckpt").exists()
    assert not list(run_dir.glob("*.manifest.json")) and not list(run_dir.glob("*.params.bin"))


def test_train_lr_reaches_floor_at_t_max(dataset, tmp_path):
    out = tmp_path / "sched"
    assert main([
        "train", "--data", str(dataset), "--out", str(out), "--epochs", "3",
        "--t-max", "2", "--quiet", *TINY_TRAIN,
    ]) == 0
    with open(out / "log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["lr"]) == 1e-3
    assert float(rows[2]["lr"]) == 1e-6


def test_train_deterministic_across_runs(dataset, tmp_path):
    logs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([
            "train", "--data", str(dataset), "--out", str(out), "--epochs", "2",
            "--quiet", *TINY_TRAIN,
        ]) == 0
        logs.append((out / "log.csv").read_bytes())
    assert logs[0] == logs[1]


def test_train_resume_matches_uninterrupted(dataset, tmp_path):
    straight = tmp_path / "straight"
    assert main([
        "train", "--data", str(dataset), "--out", str(straight), "--epochs", "4",
        "--quiet", *TINY_TRAIN,
    ]) == 0

    # the resumed run continues the checkpoint's model, whatever widths and seed the flags give
    other_model = ["--base-channels", "4", "--transformer-layers", "2", "--seed", "9"]
    for name, resume_flags in (("staged", TINY_TRAIN), ("reflagged", [*TINY_TRAIN, *other_model])):
        stage = tmp_path / name
        assert main([
            "train", "--data", str(dataset), "--out", str(stage), "--epochs", "2",
            "--quiet", *TINY_TRAIN,
        ]) == 0
        assert main([
            "train", "--data", str(dataset), "--out", str(stage), "--epochs", "4",
            "--quiet", "--resume", str(stage / "last"), *resume_flags,
        ]) == 0

        resolved = json.loads((stage / "resolved_config.json").read_text())
        assert (resolved["base_channels"], resolved["transformer_layers"], resolved["seed"]) == (2, 1, 11)
        for file in ("resolved_config.json", "log.csv", "last.ckpt"):
            assert (stage / file).read_bytes() == (straight / file).read_bytes(), (name, file)


def test_train_aborts_on_nan_loss(dataset, tmp_path, monkeypatch):
    # the training step's own loss pass reports NaN; its gradients stay finite
    real = ecgdenoise.training.loss_and_gradients

    def poisoned(y_hat, y, cfg):
        _, time_grad, spectral_grad = real(y_hat, y, cfg)
        report = LossReport(time_loss=math.nan, spectral_loss=0.0, total=math.nan)
        return report, time_grad, spectral_grad

    monkeypatch.setattr(ecgdenoise.training, "loss_and_gradients", poisoned)
    code = main([
        "train", "--data", str(dataset), "--out", str(tmp_path / "nan"), "--epochs", "1",
        "--quiet", *TINY_TRAIN,
    ])
    assert code == 3


def test_overfit_one_batch_mode(dataset, tmp_path):
    out = tmp_path / "overfit"
    code = main([
        "train", "--data", str(dataset), "--out", str(out), "--overfit-one-batch",
        "--overfit-steps", "40", "--quiet", *TINY_TRAIN,
    ])
    assert code == 0
    with open(out / "log.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == ["step", "lr", "total"]
    assert len(rows) == 40
    assert float(rows[-1]["total"]) < float(rows[0]["total"])


def test_resume_from_a_checkpoint_without_optimizer_state_is_a_data_error(run_dir, dataset, tmp_path,
                                                                         capsys):
    out = tmp_path / "resumed"
    assert main(["train", "--data", str(dataset), "--out", str(out), "--epochs", "3", "--quiet",
                 "--resume", str(run_dir / "best"), *TINY_TRAIN]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "best") in err and str(run_dir / "last") in err
    assert not out.exists()


def _drop_extra(header):
    del header["extra"]


@pytest.mark.parametrize("edit, key", [
    (lambda h: h["extra"].pop("best_val"), "best_val"),
    (_drop_extra, "extra"),
    (lambda h: h["extra"].update(epoch="1"), "epoch"),
    (lambda h: h["extra"].update(best_epoch=1.0), "best_epoch"),
    (lambda h: h["extra"].update(best_val=True), "best_val"),
], ids=["no_best_val", "no_extra", "epoch_as_text", "best_epoch_as_float", "best_val_as_bool"])
def test_resume_from_a_checkpoint_with_a_malformed_training_state_is_a_data_error(
        run_dir, dataset, tmp_path, capsys, edit, key):
    shutil.copy(run_dir / "last.ckpt", tmp_path / "last.ckpt")
    edit_checkpoint_header(tmp_path / "last", edit)
    out = tmp_path / "resumed"
    assert main(["train", "--data", str(dataset), "--out", str(out), "--epochs", "3", "--quiet",
                 "--resume", str(tmp_path / "last"), *TINY_TRAIN]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


def test_resume_of_a_run_that_has_trained_its_epochs_is_a_data_error(run_dir, dataset, tmp_path, capsys):
    out = tmp_path / "resumed"
    assert main(["train", "--data", str(dataset), "--out", str(out), "--epochs", "2", "--quiet",
                 "--resume", str(run_dir / "last"), *TINY_TRAIN]) == 2
    assert "already trained 2 epochs" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def short_window_dataset(tmp_path_factory):
    """256-sample windows at 250 Hz."""
    root = tmp_path_factory.mktemp("short_ds")
    RunConfig(input_len=256, stride=256, fs=250.0).to_json(root / "config.json")
    assert main(["synth-data", "--config", str(root / "config.json"), "--out", str(root / "ds"),
                 "--records", "6", "--duration", "8", "--seed", "3", "--snr", "0", "--noise", "bw"]) == 0
    return root / "ds"


@pytest.mark.parametrize("mode", [[], ["--overfit-one-batch", "--overfit-steps", "2"]])
def test_train_takes_window_and_rate_from_the_dataset(short_window_dataset, tmp_path, mode):
    config = tmp_path / "config.json"
    RunConfig(input_len=512, fs=360.0).to_json(config)
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(short_window_dataset), "--out", str(out),
                 "--epochs", "1", "--quiet", *TINY_TRAIN, *mode]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    model = load_checkpoint(str(out / "best"))[0]
    assert (resolved["input_len"], resolved["fs"]) == (256, 250.0)
    assert (model.config.input_len, model.config.fs) == (256, 250.0)


def test_resume_on_a_dataset_of_another_window_is_a_data_error(run_dir, short_window_dataset, tmp_path,
                                                               capsys):
    out = tmp_path / "resumed"
    assert main(["train", "--data", str(short_window_dataset), "--out", str(out), "--epochs", "3",
                 "--quiet", "--resume", str(run_dir / "last"), *TINY_TRAIN]) == 2
    err = capsys.readouterr().err
    assert "3600-sample windows at 360 Hz" in err and "256-sample windows at 250 Hz" in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# denoise


def test_denoise_single_window(run_dir, tmp_path):
    rec = synth_ecg(10.0, 360.0, 70.0, seed=3, record_id="one")
    src = tmp_path / "one.csv"
    save_signal_file(src, rec)
    out = tmp_path / "one_out.csv"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out)]) == 0
    assert np.loadtxt(out).size == 3600


def test_denoise_is_idempotent_per_input(run_dir, tmp_path):
    rec = synth_ecg(10.0, 360.0, 70.0, seed=4, record_id="rep")
    src = tmp_path / "rep.f64"
    save_signal_file(src, rec)
    outs = []
    for name in ("o1.f64", "o2.f64"):
        out = tmp_path / name
        assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                     "--in", str(src), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_denoise_two_windows_concatenated(run_dir, tmp_path):
    rec = synth_ecg(20.0, 360.0, 70.0, seed=5, record_id="two")
    src = tmp_path / "two.f64"
    save_signal_file(src, rec)
    out = tmp_path / "two_out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out)]) == 0
    full = np.fromfile(out)
    assert full.size == 7200

    # each window is processed independently: denoising the halves separately
    # must reproduce the joined output
    half_outs = []
    for i in (0, 1):
        part = tmp_path / f"part{i}.f64"
        save_signal_file(part, SignalRecord("p", 360.0, rec.samples[i * 3600 : (i + 1) * 3600]))
        out_i = tmp_path / f"part{i}_out.f64"
        assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                     "--in", str(part), "--out", str(out_i)]) == 0
        half_outs.append(np.fromfile(out_i))
    np.testing.assert_allclose(full, np.concatenate(half_outs), atol=1e-12)


def test_denoise_pad_flag(run_dir, tmp_path):
    rec = synth_ecg(12.0, 360.0, 70.0, seed=6, record_id="odd")
    src = tmp_path / "odd.f64"
    save_signal_file(src, rec)
    out = tmp_path / "odd_out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out)]) == 2  # length violation
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out), "--pad"]) == 0
    assert np.fromfile(out).size == rec.samples.size


def test_denoise_constant_record_passes_through_bit_for_bit(run_dir, tmp_path):
    # the mean of a repeated 2/3 is one ulp off, so the window's std is not 0.0
    samples = np.full(4800, 2.0 / 3.0)
    src = tmp_path / "flat.f64"
    save_signal_file(src, SignalRecord("flat", 360.0, samples))
    out = tmp_path / "flat_out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out), "--pad"]) == 0
    assert np.array_equal(np.fromfile(out), samples)


def test_denoise_of_an_affine_image_is_the_affine_image_of_the_denoised(run_dir, tmp_path):
    # each window is z-normalized in float64 before the float32 forward
    rng = np.random.default_rng(47)
    for i, duration in enumerate((12.5, 20.25, 33.3)):
        x = synth_ecg(duration, 360.0, 70.0, seed=i, record_id="x").samples
        x = x + 0.3 * rng.standard_normal(x.size)
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        outs = []
        for name, samples in (("x", x), ("ax", a * x + b)):
            save_signal_file(tmp_path / f"{name}.f64", SignalRecord(name, 360.0, samples))
            assert main(["denoise", "--checkpoint", str(run_dir / "best"), "--in", str(tmp_path / f"{name}.f64"),
                         "--out", str(tmp_path / f"{name}_out.f64"), "--pad"]) == 0
            outs.append(np.fromfile(tmp_path / f"{name}_out.f64"))
        want = a * outs[0] + b
        assert np.max(np.abs(outs[1] - want)) <= 1e-9 * np.max(np.abs(want)), i


def test_denoise_rejects_truncated_f64(run_dir, tmp_path):
    src = tmp_path / "cut.f64"
    src.write_bytes(np.arange(3600.0).tobytes()[:-4])
    out = tmp_path / "cut_out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out), "--pad"]) == 2
    assert not out.exists()


def test_denoise_rejects_a_record_at_another_sampling_rate(run_dir, tmp_path, capsys):
    src = tmp_path / "fast.f64"
    save_signal_file(src, synth_ecg(10.0, 500.0, 70.0, seed=7, record_id="fast"))
    out = tmp_path / "fast_out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out), "--pad"]) == 2
    err = capsys.readouterr().err
    assert "500 Hz" in err and "360 Hz" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.f64", "fast.f64.json"]


@pytest.mark.parametrize("sidecar", ["[]", '{"fs": null}', '{"id": 5}', '{"fs": true}'],
                         ids=["a_list", "fs_null", "id_as_number", "fs_as_bool"])
def test_denoise_rejects_a_malformed_sidecar(run_dir, tmp_path, capsys, sidecar):
    src = tmp_path / "in.f64"
    save_signal_file(src, synth_ecg(10.0, 360.0, 70.0, seed=7, record_id="in"))
    (tmp_path / "in.f64.json").write_text(sidecar)
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(tmp_path / "out.f64"), "--pad"]) == 2
    assert "in.f64.json" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.f64", "in.f64.json"]


@pytest.mark.parametrize("rate, shown", [("NaN", "nan"), ("Infinity", "inf")])
def test_denoise_rejects_a_sidecar_rate_that_is_not_finite(run_dir, tmp_path, capsys, rate, shown):
    # Python's json reads NaN and Infinity, so the sidecar itself loads
    src = tmp_path / "in.f64"
    save_signal_file(src, synth_ecg(10.0, 360.0, 70.0, seed=7, record_id="in"))
    (tmp_path / "in.f64.json").write_text(f'{{"id": "in", "fs": {rate}}}')
    out = tmp_path / "out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"), "--in", str(src), "--out", str(out), "--pad"]) == 2
    err = capsys.readouterr().err
    assert f"{shown} Hz" in err and "finite and positive" in err
    assert not out.exists()


def test_checkpoint_without_a_rate_means_360_hz(run_dir, tmp_path):
    assert load_checkpoint(str(run_dir / "best"))[0].config.fs == 360.0
    shutil.copy(run_dir / "best.ckpt", tmp_path / "old.ckpt")
    edit_checkpoint_header(tmp_path / "old", lambda h: h["config"].pop("fs"))
    src = tmp_path / "plain.csv"  # a CSV without a sidecar is taken as 360 Hz
    np.savetxt(src, synth_ecg(10.0, 360.0, 70.0, seed=8).samples)
    fast = tmp_path / "fast.f64"
    save_signal_file(fast, synth_ecg(10.0, 500.0, 70.0, seed=8))
    denoise = ["denoise", "--checkpoint", str(tmp_path / "old"), "--pad", "--out"]
    assert main([*denoise, str(tmp_path / "plain_out.csv"), "--in", str(src)]) == 0
    assert main([*denoise, str(tmp_path / "fast_out.f64"), "--in", str(fast)]) == 2
    assert not (tmp_path / "fast_out.f64").exists()


def test_train_records_the_dataset_rate_in_the_checkpoint(tmp_path):
    config = tmp_path / "config.json"
    RunConfig(fs=250.0).to_json(config)
    assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "ds"),
                 "--records", "6", "--duration", "16", "--seed", "3", "--snr", "0", "--noise", "bw"]) == 0
    assert main(["train", "--data", str(tmp_path / "ds"), "--out", str(tmp_path / "run"),
                 "--epochs", "1", "--quiet", *TINY_TRAIN]) == 0
    assert load_checkpoint(str(tmp_path / "run" / "best"))[0].config.fs == 250.0
    record = synth_ecg(16.0, 250.0, 70.0, seed=9)
    for fs, code in ((250.0, 0), (360.0, 2)):
        src = tmp_path / f"r{fs:g}.f64"
        save_signal_file(src, SignalRecord("r", fs, record.samples))
        assert main(["denoise", "--checkpoint", str(tmp_path / "run" / "best"), "--pad",
                     "--in", str(src), "--out", str(tmp_path / f"out{fs:g}.f64")]) == code


def _drop_entries(header):
    del header["entries"]


def _drop_first_shape(header):
    del header["entries"][0]["shape"]


@pytest.mark.parametrize("edit, key", [
    (lambda h: h["config"].update(kernel_size=5), "kernel_size"),
    (_drop_entries, "entries"),
    (_drop_first_shape, "shape"),
    (lambda h: h["config"].update(base_channels="8"), "base_channels"),
    (lambda h: h["config"].update(depth=5), "depth"),
    (lambda h: h["config"].update(in_channels=2), "in_channels"),
], ids=["unknown_config_key", "no_entries", "entry_without_shape", "width_as_text", "retired_depth_5",
        "retired_two_input_channels"])
def test_denoise_rejects_malformed_manifest(run_dir, tmp_path, capsys, edit, key):
    shutil.copy(run_dir / "best.ckpt", tmp_path / "ckpt.ckpt")
    edit_checkpoint_header(tmp_path / "ckpt", edit)
    src = tmp_path / "in.f64"
    src.write_bytes(np.arange(3600.0).tobytes())
    assert main(["denoise", "--checkpoint", str(tmp_path / "ckpt"),
                 "--in", str(src), "--out", str(tmp_path / "out.f64")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.ckpt", "in.f64"]


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_grouping_matches_manifest(run_dir, dataset, tmp_path, capsys):
    code = main(["evaluate", "--checkpoint", str(run_dir / "best"),
                 "--data", str(dataset), "--split", "test", "--out", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out
    manifest = load_manifest(dataset)
    combos = {
        ("+".join(e["noise_mix"]), e["target_snr_db"])
        for e in manifest["pairs"] if e["split"] == "test"
    }
    for mix, snr in combos:
        assert mix in printed
    for column in ("MAE", "PCC", "SNRI"):
        assert column in printed
    with open(tmp_path / "metrics_test.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["noise_mix"], float(r["target_snr"])) for r in rows} == combos
    groups = json.loads((tmp_path / "metrics_test.json").read_text())["groups"]
    assert {(g["noise_mix"], g["target_snr"]) for g in groups} == combos
    for g in groups:  # the printed table is the JSON one, rounded
        assert (f"{g['noise_mix']:>12} {g['target_snr']:>6g} {g['n']:>4d} {g['mae']:>9.4f} "
                f"{g['pcc']:>8.4f} {g['snri']:>8.2f} {g['prd']:>9.2f}") in printed.splitlines()


def test_evaluate_group_means_exclude_infinite_snr(dataset, tmp_path, capsys, monkeypatch):
    perfect = load_split(dataset, "test")[0]

    class _OnePerfect:
        """Identity, except that one segment comes back as its clean target."""

        def predict(self, x):
            out = x.copy()
            for row in out:
                if np.array_equal(row, perfect.noisy):
                    row[...] = perfect.clean
            return out

    monkeypatch.setattr(ecgdenoise.cli, "load_checkpoint", lambda prefix: (_OnePerfect(), {}, {}))
    assert main(["evaluate", "--checkpoint", "stub", "--data", str(dataset),
                 "--split", "test", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    mix = "+".join(perfect.noise_mix)
    with open(tmp_path / "metrics_test.csv") as fh:
        group = [r for r in csv.DictReader(fh)
                 if r["noise_mix"] == mix and float(r["target_snr"]) == perfect.target_snr_db]
    finite = [r for r in group if math.isfinite(float(r["snr_out"]))]
    assert len(group) - len(finite) == 1 and finite

    line = next(row.split() for row in printed.splitlines()
                if row.split()[:2] == [mix, f"{perfect.target_snr_db:g}"])
    mae_m, pcc_m, snri_m, prd_m = map(float, line[3:])
    assert int(line[2]) == len(group)
    assert snri_m == 0.0  # the identity rows alone
    assert abs(pcc_m - np.mean([float(r["pcc"]) for r in finite])) < 1e-4
    assert abs(mae_m - np.mean([float(r["mae"]) for r in finite])) < 1e-4


def test_evaluate_identity_baseline_zero_snri(dataset, tmp_path, capsys):
    code = main(["evaluate", "--baseline", "identity", "--data", str(dataset),
                 "--split", "test", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "metrics_test.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["snri"]) == 0.0 for r in rows)


def test_evaluate_requires_model_or_baseline(dataset):
    assert main(["evaluate", "--data", str(dataset)]) == 1


def test_evaluate_takes_only_one_model_source(run_dir, dataset, tmp_path):
    assert main(["evaluate", "--checkpoint", str(run_dir / "best"), "--baseline", "identity",
                 "--data", str(dataset), "--out", str(tmp_path)]) == 1
    assert not list(tmp_path.glob("metrics_*"))


def test_evaluate_missing_split(run_dir, dataset, capsys):
    assert main(["evaluate", "--checkpoint", str(run_dir / "best"),
                 "--data", str(dataset), "--split", "nope"]) == 2
    err = capsys.readouterr().err
    assert "no split 'nope'" in err and "it lists test, train, val" in err


def test_evaluate_listed_split_without_pairs_is_empty(tmp_path, capsys):
    build_dataset([ONE_RECORD], {"train": ["r"], "test": []},
                  [0.0], [("bw",)], tmp_path)
    assert main(["evaluate", "--baseline", "identity", "--data", str(tmp_path), "--split", "test"]) == 2
    err = capsys.readouterr().err
    assert "split 'test'" in err and "is empty" in err


@pytest.mark.parametrize("command", ["synth-data", "train", "evaluate"])
def test_out_naming_an_existing_file_is_a_data_error(command, dataset, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    args = {"synth-data": ["--records", "6", "--duration", "20", "--seed", "11"],
            "train": ["--data", str(dataset), "--epochs", "1", "--quiet", *TINY_TRAIN],
            "evaluate": ["--baseline", "identity", "--data", str(dataset), "--split", "test"]}[command]
    assert main([command, *args, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(taken) in err
    assert list(tmp_path.iterdir()) == [taken] and taken.read_bytes() == b"not a directory\n"


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_lists_each_layer_once(capsys):
    assert main(["gradcheck"]) == 0
    printed = capsys.readouterr().out
    for name in ("conv1d", "conv_transpose1d", "maxpool1d", "batchnorm1d",
                 "layernorm", "mhsa", "feedforward", "transformer_layer",
                 "model_end_to_end"):
        assert printed.count(f"{name}:") == 1


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_passes_at_every_seed(seed, capsys):
    assert main(["gradcheck", "--seed", str(seed)]) == 0, capsys.readouterr().out


def test_gradcheck_detects_a_wrong_training_loss_gradient(monkeypatch, capsys):
    # the end-to-end check differentiates the gradient every training step seeds from
    true_gradients = ecgdenoise.loss.loss_and_gradients

    def scaled(y_hat, y, cfg):
        report, time_grad, spectral_grad = true_gradients(y_hat, y, cfg)
        return report, time_grad, spectral_grad * 1.5

    monkeypatch.setattr(ecgdenoise.loss, "loss_and_gradients", scaled)
    assert main(["gradcheck"]) == 3
    failed = [line for line in capsys.readouterr().out.splitlines() if line.endswith(" FAIL")]
    assert [line.split(":")[0] for line in failed] == ["model_end_to_end"]


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    true_grads = ecgdenoise.layers._conv1d_grads

    def corrupted(*args, **kwargs):
        gx, gw = true_grads(*args, **kwargs)
        return gx * 1.5, gw  # wrong input gradient

    monkeypatch.setattr(ecgdenoise.layers, "_conv1d_grads", corrupted)
    assert main(["gradcheck"]) == 3
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_evaluate_takes_no_batch_size(dataset, tmp_path):
    # evaluate runs INFER_BATCH segments per forward, as denoise does
    assert main(["evaluate", "--baseline", "identity", "--data", str(dataset), "--out", str(tmp_path / "eval"),
                 "--batch-size", "4"]) == 1
    assert not (tmp_path / "eval").exists()


def test_empty_snr_and_noise_flags_keep_config_values(tmp_path):
    out = tmp_path / "ds"
    assert main(["synth-data", "--out", str(out), "--records", "6", "--duration", "10",
                 "--snr", "", "--noise", ""]) == 0
    written = json.loads((out / "synth_config.json").read_text())
    defaults = RunConfig()
    assert written["snr_db"] == defaults.snr_db
    assert written["noise_mixes"] == defaults.noise_mixes
    assert written["record_duration_s"] == 10.0


def test_bad_snr_flag_is_usage_error(tmp_path):
    assert main(["synth-data", "--out", str(tmp_path / "x"), "--snr", "abc"]) == 1


@pytest.mark.parametrize("argv, field", [
    (["train", "--batch-size", "-1"], "batch_size"),
    (["train", "--batch-size", "0"], "batch_size"),
    (["train", "--t-max", "0"], "t_max"),
    (["train", "--overfit-one-batch", "--batch-size", "-2"], "batch_size"),
    (["train", "--overfit-one-batch", "--batch-size", "0"], "batch_size"),
    (["train", "--epochs", "0"], "epochs"),
    (["train", "--overfit-one-batch", "--overfit-steps", "0"], "overfit_steps"),
])
def test_non_positive_batch_size_and_t_max_are_rejected(dataset, tmp_path, capsys, argv, field):
    if argv[0] == "train":
        argv = [*argv[:1], *TINY_TRAIN, "--epochs", "1", *argv[1:], "--quiet"]
    assert main([*argv, "--data", str(dataset), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    assert not list(tmp_path.glob("metrics_*")) and not list(tmp_path.glob("*.ckpt"))


@pytest.mark.parametrize("mode", [[], ["--overfit-one-batch"]])
@pytest.mark.parametrize("flags", [
    ["--t-max", "0"],
    ["--w-time", "-1"],
    ["--base-channels", "0"],
    ["--lr", "-1"],  # below the fixed eta_min
    ["--epochs", "0"],
    ["--overfit-steps", "0"],
    ["--transformer-layers", "-1"],
    ["--patience", "0"],
])
def test_rejected_train_config_leaves_no_run_directory(dataset, tmp_path, capsys, flags, mode):
    out = tmp_path / "D"
    assert main(["train", "--data", str(dataset), "--out", str(out), *TINY_TRAIN, "--epochs", "1",
                 "--overfit-steps", "1", "--quiet", *mode, *flags]) == 2
    assert not out.exists()
    if flags[0] == "--lr":  # the setting the user gave, and the floor it is under
        assert "lr must be at least 1e-06, the fixed floor (eta_min) of its cosine schedule, got -1" \
            in capsys.readouterr().err


@pytest.mark.parametrize("split, mode, message", [
    ({"train": [], "val": ["r"]}, [], "no training pairs"),
    ({"train": ["r"], "val": []}, [], "no validation pairs"),
    ({"train": [], "val": ["r"]}, ["--overfit-one-batch"], "no training pairs"),
])
def test_training_on_an_empty_split_writes_nothing(tmp_path, capsys, split, mode, message):
    build_dataset([ONE_RECORD], split, [0.0], [("bw",)], tmp_path / "ds")
    out = tmp_path / "run"
    assert main(["train", "--data", str(tmp_path / "ds"), "--out", str(out), *TINY_TRAIN,
                 "--epochs", "1", "--overfit-steps", "1", "--quiet", *mode]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_format_1_dataset_is_rejected(dataset, tmp_path, capsys):
    old = tmp_path / "old"
    shutil.copytree(dataset, old)
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["format_version"] = 1
    (old / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "run"
    assert main(["train", "--data", str(old), "--out", str(out), "--epochs", "1", "--quiet"]) == 2
    assert "rerun synth-data" in capsys.readouterr().err
    assert not out.exists()
    assert main(["evaluate", "--baseline", "identity", "--data", str(old)]) == 2


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda m: {k: v for k, v in m.items() if k != "window"}, "'window'", id="no_window"),
    pytest.param(lambda m: [], "JSON object", id="a_list"),
    # pairs 32-39 are val's: rec0004, 2 windows x 2 mixes x 2 SNRs
    pytest.param(lambda m: {**m, "pairs": [{**e, "clean_mean": e["clean_mean"] + 1e-9} if i == 33 else e
                                           for i, e in enumerate(m["pairs"])]},
                 "val pair 1 (rec0004 at offset 0) lists clean_mean", id="edited_clean_mean"),
    pytest.param(lambda m: {**m, "global_seed": m["global_seed"] + 1}, "at offset 0) lists seed",
                 id="edited_global_seed"),
    pytest.param(lambda m: {**m, "records": [r for r in m["records"] if r["record_id"] != "rec0004"]},
                 "does not derive split 'val': KeyError('rec0004')", id="a_record_without_its_arguments"),
])
def test_malformed_dataset_manifest_is_a_data_error(dataset, tmp_path, capsys, edit, message):
    ds = tmp_path / "ds"
    shutil.copytree(dataset, ds)
    manifest = json.loads((ds / "manifest.json").read_text())
    (ds / "manifest.json").write_text(json.dumps(edit(manifest)))
    before = sorted(p.name for p in ds.iterdir())
    for argv in (["train", *TINY_TRAIN, "--epochs", "1", "--out", str(tmp_path / "run"), "--quiet"],
                 ["evaluate", "--baseline", "identity", "--split", "val", "--out", str(tmp_path / "eval")]):
        assert main([*argv, "--data", str(ds)]) == 2
        assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds"]
    assert sorted(p.name for p in ds.iterdir()) == before


def test_format_1_checkpoint_is_rejected(run_dir, dataset, tmp_path, capsys):
    """Format 1, a `.manifest.json` header beside a `.params.bin` of the arrays,
    does not load: without `<prefix>.ckpt` the checkpoint is missing."""
    blob = (run_dir / "last.ckpt").read_bytes()
    length = int.from_bytes(blob[:8], "little")
    header = json.loads(blob[8 : 8 + length])
    header["format_version"] = 1
    offset = 0
    for entry in header["entries"]:
        entry["offset"] = offset
        offset += 8 * math.prod(entry["shape"])
    old = tmp_path / "old"
    old.mkdir()
    (old / "last.manifest.json").write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    (old / "last.params.bin").write_bytes(blob[8 + length :])
    prefix = str(old / "last")
    _assert_every_command_rejects(prefix, dataset, tmp_path, capsys, [f"{prefix}.ckpt"])
    assert sorted(p.name for p in old.iterdir()) == ["last.manifest.json", "last.params.bin"]


def test_format_2_checkpoint_is_rejected(run_dir, dataset, tmp_path, capsys):
    """Format 2, whose double-conv stages had conv biases, does not load; the
    message names the run's resolved_config.json to retrain from."""
    old = tmp_path / "old"
    old.mkdir()
    shutil.copy(run_dir / "last.ckpt", old / "last.ckpt")
    prefix = str(old / "last")
    edit_checkpoint_header(prefix, lambda h: h.update(format_version=2))
    blob = (old / "last.ckpt").read_bytes()
    _assert_every_command_rejects(prefix, dataset, tmp_path, capsys, ["format_version 2", "resolved_config.json"])
    assert (old / "last.ckpt").read_bytes() == blob


def _assert_every_command_rejects(prefix, dataset, tmp_path, capsys, messages):
    """`denoise`, `evaluate` and `train --resume` given the checkpoint `prefix`
    in `tmp_path/old` exit 2 with every one of `messages` and write nothing."""
    record = tmp_path / "in.f64"
    save_signal_file(record, synth_ecg(10.0, record_id="in"))
    for argv in (["denoise", "--checkpoint", prefix, "--in", str(record), "--out", str(tmp_path / "out.f64")],
                 ["evaluate", "--checkpoint", prefix, "--data", str(dataset), "--out", str(tmp_path / "eval")],
                 ["train", "--data", str(dataset), "--out", str(tmp_path / "run"), "--resume", prefix,
                  "--epochs", "3", "--quiet"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert all(message in err for message in messages), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.f64", "in.f64.json", "old"]


def test_missing_dataset_is_data_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "out"), "--epochs", "1", "--quiet"]) == 2


# ---------------------------------------------------------------------------
# config files


# A config file written while RunConfig had 30 fields, with the settings of
# the `dataset` and `run_dir` fixtures.
OLD_CONFIG = {
    "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08, "base_channels": 2, "batch_size": 4,
    "beta": 1.0, "bpm_high": 100.0, "bpm_low": 55.0, "d_ff_ratio": 4, "epochs": 2, "eta_min": 1e-06,
    "fs": 360.0, "heads": 4, "input_len": 3600, "lr": 0.001, "noise_mixes": [["bw"], ["bw", "em", "ma"]],
    "overfit_steps": 500, "patience": 15, "record_duration_s": 20.0, "records": 6, "seed": 11,
    "snr_db": [0.0, 5.0], "stride": 3600, "t_max": 100, "train_frac": 0.7, "transformer_layers": 1,
    "val_frac": 0.15, "w_spectral": 0.1, "w_time": 1.0, "weight_decay": 0.01,
}


def test_fixed_values_are_the_ones_the_package_uses():
    assert len(fields(RunConfig)) == 20 and not RETIRED.keys() & {f.name for f in fields(RunConfig)}
    assert len(fields(ModelConfig)) == 6 and RETIRED.keys() & {f.name for f in fields(ModelConfig)} == {"heads"}

    # the architecture the model builds: 4 halvings, feed-forward 4x, one channel in and out
    c = 2
    model = TransformerUNet1D(ModelConfig(base_channels=c, transformer_layers=1, input_len=3600))
    shapes = {name: t.shape for name, t in model.parameters()}
    d = c * 2 ** RETIRED["depth"]
    assert model.config.token_count == 3600 // 2 ** RETIRED["depth"] == 225
    assert shapes["enc1.ff.lin1.weight"] == (d, RETIRED["d_ff_ratio"] * d) == (32, 128)
    assert shapes["inc.conv1"] == (c, RETIRED["in_channels"], 3) == (2, 1, 3)
    assert shapes["out.weight"] == (RETIRED["out_channels"], c, 1) == (1, 2, 1)

    adamw = inspect.signature(AdamW).parameters
    assert RETIRED == {
        "depth": 4, "d_ff_ratio": 4, "in_channels": 1, "out_channels": 1,
        "heads": ModelConfig.heads, "beta": LossConfig.beta,
        "eta_min": CosineSchedule.eta_min, "weight_decay": adamw["weight_decay"].default,
        "adam_beta1": adamw["betas"].default[0], "adam_beta2": adamw["betas"].default[1],
        "adam_eps": adamw["eps"].default, "bpm_low": ecgdenoise.cli.BPM_RANGE[0],
        "bpm_high": ecgdenoise.cli.BPM_RANGE[1],
    }


def test_config_naming_removed_keys_builds_and_trains_byte_identically(dataset, run_dir, tmp_path):
    assert len(OLD_CONFIG) == 30
    config = tmp_path / "old.json"
    config.write_text(json.dumps(OLD_CONFIG))
    trimmed = {k: v for k, v in OLD_CONFIG.items() if k not in RETIRED}

    assert main(["synth-data", "--config", str(config), "--out", str(tmp_path / "ds")]) == 0
    assert json.loads((tmp_path / "ds" / "synth_config.json").read_text()) == trimmed
    assert (tmp_path / "ds" / "manifest.json").read_bytes() == (dataset / "manifest.json").read_bytes()

    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--data", str(dataset), "--out", str(out), "--quiet"]) == 0
    assert json.loads((out / "resolved_config.json").read_text()) == trimmed
    for name in ("log.csv", "best.ckpt", "last.ckpt"):
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


@pytest.mark.parametrize("command, key, value, fixed", [
    ("train", "heads", 8, "4"),
    ("train", "adam_eps", 1e-6, "1e-08"),
    ("synth-data", "bpm_low", 40.0, "55.0"),
])
def test_removed_key_at_another_value_is_rejected(dataset, tmp_path, capsys, command, key, value, fixed):
    config = tmp_path / "old.json"
    config.write_text(json.dumps({**OLD_CONFIG, key: value}))
    out = tmp_path / "out"
    argv = ["--data", str(dataset)] if command == "train" else []
    assert main([command, "--config", str(config), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and f"fixed at {fixed}" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("train_frac", -2.0), ("val_frac", 1.5)])
def test_split_fraction_outside_0_1_is_rejected(tmp_path, capsys, key, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"train_frac": 0.5, "val_frac": 0.0, key: value}))
    out = tmp_path / "ds"
    assert main(["synth-data", "--config", str(config), "--out", str(out), "--records", "6", "--duration", "10"]) == 2
    assert f"{key} must lie in [0, 1], got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("epochs", "2"), ("batch_size", True), ("epochs", 2.0)])
def test_config_value_of_another_type_is_rejected(dataset, tmp_path, capsys, key, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**OLD_CONFIG, key: value}))
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--data", str(dataset), "--out", str(out), "--quiet"]) == 2
    assert f"{key!r} must be of type int, got {value!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


def _config_spreads(tree):
    """(enclosing function, line) of each call that spreads a mapping into
    `ModelConfig`, `RunConfig` or a classmethod's `cls`."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or all(k.arg is not None for k in node.keywords):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name in ("ModelConfig", "RunConfig", "cls"):
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            yield getattr(scope, "name", "<module>"), node.lineno


def test_only_read_config_builds_a_config_from_outside_data():
    allowed = {("model.py", "read_config")}
    found = {(path.name, scope, line)
             for path in Path(ecgdenoise.cli.__file__).parent.glob("*.py")
             for scope, line in _config_spreads(ast.parse(path.read_text()))}
    assert {(name, scope) for name, scope, _ in found} >= allowed  # the guard sees the reader
    assert sorted(w for w in found if w[:2] not in allowed) == []
