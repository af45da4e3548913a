import errno
import json
import os

import numpy as np
import pytest

from ecgdenoise.data import (
    DataError,
    NoiseSpec,
    SignalRecord,
    build_dataset,
    generate_noise,
    load_manifest,
    load_pair,
    load_signal_file,
    load_split,
    make_pair,
    mix_at_snr,
    save_signal_file,
    segment_and_normalize,
    segment_seed,
    synth_ecg,
)
from ecgdenoise.data import _composite_noise
from ecgdenoise.loss import dft


def naive_peak_count(x: np.ndarray) -> int:
    """Local maxima above half the global peak."""
    threshold = 0.5 * x.max()
    return int(
        np.sum((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:]) & (x[1:-1] > threshold))
    )


def measured_snr_db(clean: np.ndarray, noisy: np.ndarray) -> float:
    residual = noisy - clean
    return 10.0 * np.log10((clean**2).sum() / (residual**2).sum())


# ---------------------------------------------------------------------------
# synthetic ECG


def test_synth_ecg_sample_count():
    rec = synth_ecg(10.0, fs=360.0, bpm=60.0, seed=0)
    assert rec.samples.size == 3600
    assert rec.fs == 360.0


def test_synth_ecg_beat_count():
    rec = synth_ecg(10.0, fs=360.0, bpm=60.0, seed=1)
    assert abs(naive_peak_count(rec.samples) - 10) <= 1


def test_synth_ecg_deterministic():
    a = synth_ecg(5.0, bpm=80.0, seed=7)
    b = synth_ecg(5.0, bpm=80.0, seed=7)
    np.testing.assert_array_equal(a.samples, b.samples)


def test_synth_ecg_rejects_bad_args():
    with pytest.raises(DataError):
        synth_ecg(0.0)
    with pytest.raises(DataError):
        synth_ecg(10.0, bpm=500.0)


# ---------------------------------------------------------------------------
# noise


def test_pli_dominant_bin():
    n, fs = 3600, 360.0
    noise = generate_noise(NoiseSpec("pli", seed=3), n, fs)
    mags = np.abs(dft(noise, onesided=True))
    assert int(np.argmax(mags)) == round(50.0 * n / fs)


def test_bw_energy_below_one_hertz():
    n, fs = 3600, 360.0
    noise = generate_noise(NoiseSpec("bw", seed=4), n, fs)
    mags = np.abs(dft(noise, onesided=True)) ** 2
    cut = int(np.ceil(1.0 * n / fs))  # first bin at or above 1 Hz
    assert mags[:cut].sum() / mags.sum() > 0.95


@pytest.mark.parametrize("kind", ["bw", "em", "ma", "pli"])
def test_noise_zero_mean_unit_rms_deterministic(kind):
    a = generate_noise(NoiseSpec(kind, seed=11), 2000, 360.0)
    b = generate_noise(NoiseSpec(kind, seed=11), 2000, 360.0)
    np.testing.assert_array_equal(a, b)
    assert abs(a.mean()) < 1e-6
    assert abs(np.sqrt(np.mean(a * a)) - 1.0) < 1e-9
    c = generate_noise(NoiseSpec(kind, seed=12), 2000, 360.0)
    assert not np.array_equal(a, c)


def test_unknown_noise_kind():
    with pytest.raises(DataError):
        NoiseSpec("thermal", seed=0)


# ---------------------------------------------------------------------------
# SNR mixing


def test_mix_equal_power_zero_db():
    rng = np.random.default_rng(5)
    clean = rng.standard_normal(1000)
    noise = rng.standard_normal(1000)
    noise *= np.sqrt((clean**2).mean() / (noise**2).mean())
    _, scale = mix_at_snr(clean, noise, 0.0)
    assert scale == pytest.approx(1.0, abs=1e-12)


def test_mix_equal_power_ten_db():
    rng = np.random.default_rng(6)
    clean = rng.standard_normal(1000)
    noise = rng.standard_normal(1000)
    noise *= np.sqrt((clean**2).mean() / (noise**2).mean())
    _, scale = mix_at_snr(clean, noise, 10.0)
    assert scale == pytest.approx(10.0 ** (-0.5), abs=1e-12)


@pytest.mark.parametrize("target", [-5.0, 0.0, 5.0, 10.0, 24.0])
def test_mix_achieves_target_snr(target):
    rng = np.random.default_rng(int(target) + 100)
    clean = rng.standard_normal(3600) * 2.0
    noise = rng.standard_normal(3600) * 0.3
    noisy, _ = mix_at_snr(clean, noise, target)
    assert abs(measured_snr_db(clean, noisy) - target) < 1e-9


def test_mix_rejects_zero_power():
    with pytest.raises(DataError):
        mix_at_snr(np.zeros(10), np.ones(10), 0.0)
    with pytest.raises(DataError):
        mix_at_snr(np.ones(10), np.zeros(10), 0.0)


# ---------------------------------------------------------------------------
# windowing


def test_window_count_non_overlapping():
    rec = SignalRecord("r", 360.0, np.random.default_rng(0).standard_normal(7200))
    windows = segment_and_normalize(rec, window=3600, stride=3600)
    assert [w[0] for w in windows] == [0, 3600]


def test_constant_window_skipped(caplog):
    samples = np.concatenate([np.full(3600, 2.0), np.random.default_rng(1).standard_normal(3600)])
    rec = SignalRecord("r", 360.0, samples)
    with caplog.at_level("WARNING"):
        windows = segment_and_normalize(rec, 3600, 3600)
    assert [w[0] for w in windows] == [3600]
    assert "zero-variance" in caplog.text


def test_flat_window_with_one_ulp_std_skipped(caplog):
    # the computed std of 3600 samples at 2/3 is about 1e-16, not zero
    samples = np.full(7200, 2.0 / 3.0)
    assert samples[:3600].std() > 0.0
    rec = SignalRecord("flat", 360.0, samples)
    with caplog.at_level("WARNING"):
        assert segment_and_normalize(rec, 3600, 3600) == []
    assert caplog.text.count("zero-variance") == 2


def test_window_statistics():
    rec = synth_ecg(30.0, seed=3)
    for offset, win, mean, std in segment_and_normalize(rec, 3600, 1800):
        assert abs(win.mean()) < 1e-10
        assert abs(win.std() - 1.0) < 1e-9
        restored = win * std + mean
        np.testing.assert_allclose(restored, rec.samples[offset : offset + 3600], atol=1e-12)


def test_short_record_rejected():
    rec = SignalRecord("r", 360.0, np.ones(100) + np.arange(100))
    with pytest.raises(DataError):
        segment_and_normalize(rec, 3600, 3600)


# ---------------------------------------------------------------------------
# dataset builds


def small_records():
    return [synth_ecg(20.0, bpm=60.0 + 10 * i, seed=i, record_id=f"rec{i}") for i in range(3)]


def test_build_dataset_combinatorial_count(tmp_path):
    manifest = build_dataset(
        small_records(),
        split={"train": ["rec0", "rec1"], "test": ["rec2"]},
        snr_list=[0.0, 5.0, 10.0],
        mixes=[("bw", "em", "ma")],
        out_dir=tmp_path / "ds",
        global_seed=9,
    )
    # 3 records x 2 windows x 3 SNRs x 1 mix
    assert len(manifest["pairs"]) == 18
    train = load_split(tmp_path / "ds", "train")
    assert len(train) == 12


def test_build_dataset_rejects_overlapping_splits(tmp_path):
    with pytest.raises(DataError):
        build_dataset(
            small_records(),
            split={"train": ["rec0", "rec1"], "test": ["rec1"]},
            snr_list=[0.0],
            mixes=[("bw",)],
            out_dir=tmp_path / "ds",
        )


def test_build_dataset_reproducible_bytes(tmp_path):
    kwargs = dict(
        split={"train": ["rec0"], "val": ["rec1"], "test": ["rec2"]},
        snr_list=[0.0, 10.0],
        mixes=[("bw",), ("em", "ma")],
        global_seed=4,
    )
    build_dataset(small_records(), out_dir=tmp_path / "a", **kwargs)
    build_dataset(small_records(), out_dir=tmp_path / "b", **kwargs)
    a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert a_files == b_files
    for rel in a_files:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel


def test_pairs_hit_target_snr_and_reconstruct_noise(tmp_path):
    manifest = build_dataset(
        small_records(),
        split={"train": ["rec0", "rec1", "rec2"]},
        snr_list=[0.0, 5.0, 10.0],
        mixes=[("bw",), ("pli",), ("bw", "em", "ma")],
        out_dir=tmp_path / "ds",
        global_seed=21,
    )
    for entry in manifest["pairs"]:
        pair = load_pair(tmp_path / "ds", entry, manifest["window"])
        assert abs(measured_snr_db(pair.clean, pair.noisy) - pair.target_snr_db) < 1e-9
        noise = _composite_noise(
            manifest["global_seed"], pair.record_id, pair.offset,
            pair.target_snr_db, pair.noise_mix, pair.clean.size, manifest["fs"],
        )
        np.testing.assert_allclose(pair.noisy - pair.clean, pair.scale * noise, atol=1e-12)


def test_load_split_rejects_truncated_pair_file(tmp_path):
    manifest = build_dataset(
        small_records(),
        split={"train": ["rec0"]},
        snr_list=[0.0],
        mixes=[("bw",)],
        out_dir=tmp_path / "ds",
    )
    path = tmp_path / "ds" / manifest["pairs"][0]["file"]
    path.write_bytes(path.read_bytes()[:-16])  # one sample short of each half
    with pytest.raises(DataError):
        load_split(tmp_path / "ds", "train")


def test_segment_seed_stable_and_distinct():
    base = segment_seed(1, "rec0", 0, 0.0, ("bw", "em"))
    assert base == segment_seed(1, "rec0", 0, 0.0, ("bw", "em"))
    assert base != segment_seed(2, "rec0", 0, 0.0, ("bw", "em"))
    assert base != segment_seed(1, "rec0", 3600, 0.0, ("bw", "em"))
    assert base != segment_seed(1, "rec0", 0, 5.0, ("bw", "em"))
    assert base != segment_seed(1, "rec0", 0, 0.0, ("bw", "ma"))


def test_make_pair_mix_sums_components_before_scaling():
    rec = synth_ecg(10.0, seed=30, record_id="rec")
    offset, win, mean, std = segment_and_normalize(rec)[0]
    pair = make_pair("rec", offset, win, mean, std, 0.0, ("bw", "em", "ma"), 17, 360.0)
    parts = sum(
        generate_noise(
            NoiseSpec(kind, segment_seed(17, "rec", offset, 0.0, ("bw", "em", "ma"), extra=kind)),
            3600,
            360.0,
        )
        for kind in ("bw", "em", "ma")
    )
    np.testing.assert_allclose(pair.noisy, pair.clean + pair.scale * parts, atol=1e-12)


# ---------------------------------------------------------------------------
# file I/O


@pytest.mark.parametrize("ext", [".csv", ".f64"])
def test_signal_file_roundtrip(tmp_path, ext):
    rec = SignalRecord("probe", 250.0, np.random.default_rng(2).standard_normal(500))
    path = tmp_path / f"sig{ext}"
    save_signal_file(path, rec)
    back = load_signal_file(path)
    assert back.id == "probe"
    assert back.fs == 250.0
    np.testing.assert_allclose(back.samples, rec.samples, atol=1e-15)


def test_load_signal_rejects_truncated_f64(tmp_path):
    path = tmp_path / "sig.f64"
    path.write_bytes(np.arange(2.0).tobytes()[:12])  # one sample and half of the next
    with pytest.raises(DataError, match="12 bytes"):
        load_signal_file(path)


@pytest.mark.parametrize("ext", [".csv", ".f64"])
def test_failed_signal_save_leaves_previous_file(tmp_path, monkeypatch, ext):
    path = tmp_path / f"sig{ext}"
    save_signal_file(path, SignalRecord("old", 360.0, np.ones(5)))
    before = path.read_bytes()

    def disk_full(src, dst):
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError):
        save_signal_file(path, SignalRecord("new", 360.0, np.arange(7.0)))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"sig{ext}", f"sig{ext}.json"]


def test_load_signal_rejects_unknown_format(tmp_path):
    path = tmp_path / "sig.wav"
    path.write_bytes(b"")
    with pytest.raises(DataError):
        load_signal_file(path)
