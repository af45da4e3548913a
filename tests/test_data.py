import ast
import errno
import hashlib
import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ecgdenoise
from ecgdenoise.cli import build_parser, cmd_evaluate
from ecgdenoise.config import RunConfig
from ecgdenoise.data import (
    DataError,
    NoiseSpec,
    SignalRecord,
    build_dataset,
    generate_noise,
    load_manifest,
    load_signal_file,
    load_split,
    make_pair,
    mix_at_snr,
    normalize_windows,
    save_signal_file,
    segment_and_normalize,
    segment_seed,
    synth_ecg,
)
from ecgdenoise.data import _composite_noise


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
    for fs in (0.0, -360.0):
        with pytest.raises(DataError, match="fs must be positive"):
            synth_ecg(10.0, fs=fs)


# ---------------------------------------------------------------------------
# noise


def test_pli_dominant_bin():
    n, fs = 3600, 360.0
    noise = generate_noise(NoiseSpec("pli", seed=3), n, fs)
    mags = np.abs(np.fft.rfft(noise))
    assert int(np.argmax(mags)) == round(50.0 * n / fs)


def test_bw_energy_below_one_hertz():
    n, fs = 3600, 360.0
    noise = generate_noise(NoiseSpec("bw", seed=4), n, fs)
    mags = np.abs(np.fft.rfft(noise)) ** 2
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


@pytest.mark.parametrize("fs", [0.0, -360.0, float("nan"), float("inf")])
def test_signal_record_rejects_a_rate_that_is_not_finite_and_positive(fs):
    with pytest.raises(DataError, match=f"got {fs} Hz"):
        SignalRecord("r", fs, np.ones(10))


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


def test_normalize_windows_is_the_per_window_loop_bitwise():
    rng = np.random.default_rng(4)
    for _ in range(40):
        window = int(rng.integers(8, 1000))
        stride = int(rng.integers(1, 2 * window))
        samples = rng.standard_normal(window + int(rng.integers(0, 3 * window))) * rng.uniform(0.01, 100.0)
        samples[: window + 2] = 2.0 / 3.0  # the first windows are flat
        starts = range(0, samples.size - window + 1, stride)
        normalized, means, stds, flat = normalize_windows(
            np.stack([samples[s : s + window] for s in starts]))
        for row, start in enumerate(starts):
            chunk = samples[start : start + window]
            assert flat[row] == (chunk.max() == chunk.min())
            mean, std = chunk.mean(), 1.0 if flat[row] else chunk.std()
            assert (means[row, 0], stds[row, 0]) == (mean, std)
            assert normalized[row].tobytes() == ((chunk - mean) / std).tobytes()


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
    """Three 20 s records at 360 Hz as `synth_ecg` keyword arguments, two windows each."""
    return [dict(record_id=f"rec{i}", duration_s=20.0, fs=360.0, bpm=60.0 + 10 * i, seed=i) for i in range(3)]


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


def test_build_dataset_rejects_records_at_two_sampling_rates(tmp_path):
    records = small_records()
    records[1] = {**records[1], "fs": 250.0}
    with pytest.raises(DataError, match=r"rec0 \(360 Hz\) and rec1 \(250 Hz\)"):
        build_dataset(records, split={"train": ["rec0", "rec1"], "test": ["rec2"]},
                      snr_list=[0.0], mixes=[("bw",)], out_dir=tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


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
    pairs = load_split(tmp_path / "ds", "train")
    assert len(pairs) == len(manifest["pairs"])
    for pair in pairs:
        assert abs(measured_snr_db(pair.clean, pair.noisy) - pair.target_snr_db) < 1e-9
        noise = _composite_noise(
            manifest["global_seed"], pair.record_id, pair.offset,
            pair.target_snr_db, pair.noise_mix, pair.clean.size, manifest["fs"],
        )
        np.testing.assert_allclose(pair.noisy - pair.clean, pair.scale * noise, atol=1e-12)


def _build(out_dir, snr, mix, **kwargs):
    return build_dataset(small_records(), split={"train": ["rec0", "rec1"], "test": ["rec2"]},
                         snr_list=[snr], mixes=[mix], out_dir=out_dir, **kwargs)


def test_rebuild_that_dies_before_its_manifest_loads_the_old_dataset_whole(tmp_path, monkeypatch):
    ds = tmp_path / "ds"
    _build(ds, 0.0, ("bw",))
    before = sorted(p.name for p in ds.iterdir())
    old = load_split(ds, "train")
    replace = os.replace

    def die_at_manifest(src, dst):
        if Path(dst).name == "manifest.json":
            raise OSError(errno.EIO, "killed")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", die_at_manifest)
    with pytest.raises(OSError):
        _build(ds, 10.0, ("em",))
    monkeypatch.undo()
    assert sorted(p.name for p in ds.iterdir()) == before
    pairs = load_split(ds, "train")
    assert [(p.noise_mix, p.target_snr_db) for p in pairs] == [(("bw",), 0.0)] * len(old)
    for pair, want in zip(pairs, old):
        assert pair.noisy.tobytes() == want.noisy.tobytes()
        assert abs(measured_snr_db(pair.clean, pair.noisy)) < 1e-9


def test_load_split_draws_noise_at_the_record_rate(tmp_path):
    record = {**small_records()[0], "fs": 250.0}
    build_dataset([record], {"train": ["rec0"]}, [0.0], [("bw", "em", "pli")], tmp_path / "ds")
    (pair,) = load_split(tmp_path / "ds", "train")
    noise = _composite_noise(0, "rec0", 0, 0.0, ("bw", "em", "pli"), 3600, 250.0)
    np.testing.assert_allclose(pair.noisy - pair.clean, pair.scale * noise, atol=1e-12)


def test_build_dataset_writes_only_its_manifest(tmp_path):
    manifest = build_dataset(
        small_records(),
        split={"train": ["rec0", "rec1"], "val": [], "test": ["rec2"]},
        snr_list=[0.0, 5.0],
        mixes=[("bw",)],
        out_dir=tmp_path / "ds",
    )
    assert [p.name for p in (tmp_path / "ds").iterdir()] == ["manifest.json"]
    assert manifest == load_manifest(tmp_path / "ds")
    assert manifest["records"] == small_records()
    assert load_split(tmp_path / "ds", "val") == []
    # 2 records x 2 windows x 2 SNRs
    assert len(load_split(tmp_path / "ds", "train")) == 8


@pytest.mark.parametrize("mix, message", [
    ((), "names no kind"),
    (("bw", "xyz"), "unknown noise kind 'xyz'"),
], ids=["empty", "unknown_kind"])
def test_build_dataset_rejects_a_bad_mix_before_writing(tmp_path, mix, message):
    with pytest.raises(DataError, match=message):
        build_dataset(small_records(), split={"train": ["rec0"]}, snr_list=[0.0],
                      mixes=[("bw",), mix], out_dir=tmp_path / "ds")
    assert not (tmp_path / "ds").exists()


# A build of 3 records, windows overlapping by half, 2 SNRs and 2 mixes, one split each.
PINNED_BUILD = dict(records=small_records(), split={"train": ["rec0"], "val": ["rec1"], "test": ["rec2"]},
                    snr_list=[0.0, 6.0], mixes=[("bw",), ("bw", "em", "ma")], global_seed=25, stride=1800)


def test_load_split_is_bit_for_bit_the_pinned_pairs(tmp_path):
    """The sha256 over every split's pairs, in order: clean and noisy bytes and
    every other field, noise scale included. The hex is what the format-3
    datasets, which stored these samples, loaded for the same build."""
    build_dataset(out_dir=tmp_path / "ds", **PINNED_BUILD)
    digest = hashlib.sha256()
    for split in PINNED_BUILD["split"]:
        pairs = load_split(tmp_path / "ds", split)
        assert len(pairs) == 12  # 3 windows x 2 mixes x 2 SNRs
        for pair in pairs:
            digest.update(pair.clean.tobytes())
            digest.update(pair.noisy.tobytes())
            digest.update(json.dumps({f.name: getattr(pair, f.name) for f in fields(pair)
                                      if f.name not in ("clean", "noisy")}, sort_keys=True).encode())
    assert digest.hexdigest() == "8548982defca1ab8c4f6c1a195f0436da7572830f267c27ee2605850eaf969c0"


def test_format_3_dataset_is_rejected_and_a_rebuild_removes_its_split_files(tmp_path):
    # format 3 stored each split's samples in a file its manifest named under split_files
    ds = tmp_path / "ds"
    ds.mkdir()
    files = {"train": "train-0123456789abcdef.f64", "test": "test-fedcba9876543210.f64"}
    for name in [*files.values(), "other-0123456789abcdef.f64", "notes.txt"]:
        (ds / name).write_bytes(bytes(16))
    (ds / "manifest.json").write_text(json.dumps({"format_version": 3, "split_files": files, "pairs": []}))
    with pytest.raises(DataError, match="format_version 3 is not 4; rerun synth-data"):
        load_split(ds, "train")
    _build(ds, 0.0, ("bw",))
    assert sorted(p.name for p in ds.iterdir()) == ["manifest.json", "notes.txt", "other-0123456789abcdef.f64"]
    assert len(load_split(ds, "train")) == 4


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


def _evaluate_into(out, variant):
    """`evaluate --baseline identity` writing into `out`, on a one-record dataset
    whose seed is the variant. It calls the command's handler, which raises the
    write's OSError; `main` would turn it into exit 2."""
    data = out.parent / f"ds{variant}"
    build_dataset(small_records()[:1], {"test": ["rec0"]}, [0.0], [("bw",)], data, global_seed=variant)
    args = build_parser().parse_args(["evaluate", "--baseline", "identity", "--data", str(data), "--out", str(out)])
    assert cmd_evaluate(args) == 0


def _save_signal(name):
    return name, lambda d, v: save_signal_file(d / name, SignalRecord("r", 360.0, np.arange(5.0 + v)))


# artifact -> (file name, save(directory, variant)); each variant writes different bytes
ATOMIC_SAVES = {
    ".csv": _save_signal("sig.csv"),
    ".f64": _save_signal("sig.f64"),
    "manifest": ("manifest.json", lambda d, v: build_dataset(
        small_records()[:1], {"train": ["rec0"]}, [0.0], [("bw",)], d, global_seed=v)),
    "config": ("synth_config.json", lambda d, v: RunConfig(seed=v).to_json(d / "synth_config.json")),
    "metrics_csv": ("metrics_test.csv", _evaluate_into),
    "metrics_json": ("metrics_test.json", _evaluate_into),
}


@pytest.mark.parametrize("artifact", list(ATOMIC_SAVES))
def test_failed_signal_save_leaves_previous_file(tmp_path, monkeypatch, artifact):
    """A disk that fills while the artifact is replaced leaves its previous
    bytes, and no temporary file, in place."""
    name, save = ATOMIC_SAVES[artifact]
    out = tmp_path / "out"
    out.mkdir()
    save(out, 0)
    before = (out / name).read_bytes()
    listing = sorted(p.name for p in out.iterdir())
    replace = os.replace

    def disk_full(src, dst):
        if Path(dst).name == name:
            raise OSError(errno.ENOSPC, "no space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", disk_full)
    with pytest.raises(OSError):
        save(out, 1)
    monkeypatch.undo()
    assert (out / name).read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == listing


def _file_writes(tree):
    """(enclosing function, line) of each `open` call with a writing mode and
    each `write_bytes`/`write_text` call in a parsed module."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            writes = any(not isinstance(m, ast.Constant) or not set("wax+").isdisjoint(m.value)
                         for m in modes)
        else:
            writes = isinstance(node.func, ast.Attribute) and node.func.attr in ("write_bytes", "write_text")
        if writes:
            scope = node
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parents[scope]
            yield getattr(scope, "name", "<module>"), node.lineno


def test_package_writes_files_only_through_write_atomically():
    allowed = {("data.py", "write_atomically"), ("training.py", "_append_log")}
    found = {(path.name, scope, line)
             for path in Path(ecgdenoise.__file__).parent.glob("*.py")
             for scope, line in _file_writes(ast.parse(path.read_text()))}
    assert {(name, scope) for name, scope, _ in found} >= allowed  # the guard sees both
    assert sorted(w for w in found if w[:2] not in allowed) == []


def test_load_signal_rejects_unknown_format(tmp_path):
    path = tmp_path / "sig.wav"
    path.write_bytes(b"")
    with pytest.raises(DataError):
        load_signal_file(path)
