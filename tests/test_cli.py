import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

import ecgdenoise.cli
import ecgdenoise.layers
import ecgdenoise.training
from conftest import edit_checkpoint_header
from ecgdenoise.cli import main
from ecgdenoise.config import RunConfig
from ecgdenoise.data import SignalRecord, load_manifest, load_split, save_signal_file, synth_ecg
from ecgdenoise.loss import LossReport


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


def test_synth_data_split_directories_disjoint(dataset):
    manifest = load_manifest(dataset)
    splits = manifest["split_records"]
    assert set(splits) == {"train", "val", "test"}
    all_ids = [rid for ids in splits.values() for rid in ids]
    assert len(all_ids) == len(set(all_ids))
    for name in splits:
        assert (dataset / name).is_dir()


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

    stage = tmp_path / "staged"
    assert main([
        "train", "--data", str(dataset), "--out", str(stage), "--epochs", "2",
        "--quiet", *TINY_TRAIN,
    ]) == 0
    assert main([
        "train", "--data", str(dataset), "--out", str(stage), "--epochs", "4",
        "--quiet", "--resume", str(stage / "last"), *TINY_TRAIN,
    ]) == 0

    with open(straight / "log.csv") as fh:
        straight_rows = list(csv.DictReader(fh))
    with open(stage / "log.csv") as fh:
        staged_rows = list(csv.DictReader(fh))
    assert straight_rows[-1] == staged_rows[-1]


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


def test_denoise_rejects_truncated_f64(run_dir, tmp_path):
    src = tmp_path / "cut.f64"
    src.write_bytes(np.arange(3600.0).tobytes()[:-4])
    out = tmp_path / "cut_out.f64"
    assert main(["denoise", "--checkpoint", str(run_dir / "best"),
                 "--in", str(src), "--out", str(out), "--pad"]) == 2
    assert not out.exists()


def _drop_entries(header):
    del header["entries"]


def _drop_first_shape(header):
    del header["entries"][0]["shape"]


@pytest.mark.parametrize("edit", [lambda h: h["config"].update(kernel_size=5), _drop_entries,
                                  _drop_first_shape],
                         ids=["unknown_config_key", "no_entries", "entry_without_shape"])
def test_denoise_rejects_malformed_manifest(run_dir, tmp_path, edit):
    shutil.copy(run_dir / "best.ckpt", tmp_path / "ckpt.ckpt")
    edit_checkpoint_header(tmp_path / "ckpt", edit)
    src = tmp_path / "in.f64"
    src.write_bytes(np.arange(3600.0).tobytes())
    assert main(["denoise", "--checkpoint", str(tmp_path / "ckpt"),
                 "--in", str(src), "--out", str(tmp_path / "out.f64")]) == 2


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

        def predict(self, x, batch_size=16):
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


def test_evaluate_missing_split(run_dir, dataset):
    assert main(["evaluate", "--checkpoint", str(run_dir / "best"),
                 "--data", str(dataset), "--split", "nope"]) == 2


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_lists_each_layer_once(capsys):
    assert main(["gradcheck"]) == 0
    printed = capsys.readouterr().out
    for name in ("conv1d", "conv_transpose1d", "maxpool1d", "batchnorm1d",
                 "layernorm", "mhsa", "feedforward", "transformer_layer",
                 "model_end_to_end"):
        assert printed.count(f"{name}:") == 1


def test_gradcheck_detects_corrupted_backward(monkeypatch, capsys):
    true_grads = ecgdenoise.layers._conv1d_grads

    def corrupted(*args, **kwargs):
        gx, gw, gb = true_grads(*args, **kwargs)
        return gx * 1.5, gw, gb  # wrong input gradient

    monkeypatch.setattr(ecgdenoise.layers, "_conv1d_grads", corrupted)
    assert main(["gradcheck"]) == 3
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 1


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


def test_missing_dataset_is_data_error(tmp_path):
    assert main(["train", "--data", str(tmp_path / "missing"), "--out",
                 str(tmp_path / "out"), "--epochs", "1", "--quiet"]) == 2
