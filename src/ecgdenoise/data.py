"""Paired (clean, noisy) segment synthesis: windows, normalization, noise, SNR.

A synthetic ECG generator stands in for real recordings so everything runs
self-contained; real signals can be ingested from CSV (one float per line) or
raw little-endian float64 files with a JSON sidecar ``{"id": ..., "fs": ...}``.
The synthesis draws each record's jitter at once, in the per-beat order, and
sums overlapping bumps in beat order, so it is bit-identical to the per-beat
loops in `tests/reference.py`; so are the bw and em noise generators.

Pipeline order per segment: window the clean record, z-normalize the window,
generate a seeded noise instance, scale it to the target SNR against the
normalized window, and add. The noisy signal is not re-normalized afterwards,
which keeps the achieved SNR exact. Per-segment seeds are stable hashes of
(global seed, record id, offset, SNR, mix), so rebuilds are byte-identical
and independent of iteration order.

A dataset is its recipe: `manifest.json` holds the build settings, each
record's `synth_ecg` arguments and an entry per pair, and nothing else is
written. `load_split` synthesizes a split's records again and makes each pair
with `make_pair` in the build's order, so its pairs are bit for bit the ones
the build listed; an entry the recipe does not derive is a `DataError`.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "SignalRecord",
    "SegmentPair",
    "NoiseSpec",
    "NOISE_KINDS",
    "synth_ecg",
    "generate_noise",
    "mix_at_snr",
    "normalize_windows",
    "segment_and_normalize",
    "build_dataset",
    "load_manifest",
    "load_split",
    "split_pairs",
    "load_signal_file",
    "save_signal_file",
    "segment_seed",
    "stable_seed",
    "write_atomically",
]

log = logging.getLogger(__name__)

NOISE_KINDS = ("bw", "em", "ma", "pli")

WINDOW = 3600
DATASET_FORMAT = 4


class DataError(ValueError):
    """Invalid signals, specs, or dataset layouts."""


@dataclass
class SignalRecord:
    id: str
    fs: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not (np.isfinite(self.fs) and self.fs > 0):
            raise DataError(f"record {self.id}: sample rate must be finite and positive, got {self.fs} Hz")
        if self.samples.size == 0 or not np.all(np.isfinite(self.samples)):
            raise DataError(f"record {self.id}: samples must be non-empty and finite")


@dataclass
class SegmentPair:
    clean: np.ndarray
    noisy: np.ndarray
    record_id: str
    offset: int
    noise_mix: tuple
    target_snr_db: float
    seed: int
    scale: float = 0.0
    clean_mean: float = 0.0
    clean_std: float = 1.0

    def __post_init__(self):
        self.noise_mix = tuple(self.noise_mix)


# a manifest entry holds a pair's split and these fields: all but its samples and noise scale
_ENTRY_FIELDS = [f.name for f in fields(SegmentPair) if f.name not in ("clean", "noisy", "scale")]


@dataclass
class NoiseSpec:
    """One noise source. Baseline wander (bw), electrode motion (em),
    muscle artifact (ma), or powerline interference (pli)."""

    kind: str
    seed: int

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise DataError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")


# ---------------------------------------------------------------------------
# synthetic ECG

# per-beat bumps: (offset from the R peak in s, width in s, amplitude);
# the narrow Q/R/S trio keeps genuine high-frequency content in the signal
_BEAT_BUMPS = (
    (-0.200, 0.030, 0.15),   # P
    (-0.030, 0.006, -0.12),  # Q
    (0.000, 0.009, 1.00),    # R
    (0.030, 0.007, -0.28),   # S
    (0.300, 0.060, 0.35),    # T
)


def _uniform(u, low, high):
    """`Generator.uniform(low, high)` from its standard draw `u`, bit for bit."""
    return low + (high - low) * u


def synth_ecg(duration_s: float, fs: float = 360.0, bpm: float = 60.0,
              seed: int = 0, record_id: str | None = None) -> SignalRecord:
    """Gaussian-bump ECG: five bumps per beat, RR intervals jittered <= 2%.

    Successive beats vary: each bump's amplitude wobbles by up to 20% and its
    width by up to 10% around the template (like real beat-to-beat morphology
    drift), so a denoiser has to read the waveform out of the observation
    instead of memorizing one cycle.

    The draws come in per-beat order: each bump's amplitude then its width,
    five times, then the next RR interval. Overlapping bumps add in beat
    order, so the samples are bit-identical to a loop over beats and bumps
    (`tests/reference.py`).
    """
    if duration_s <= 0:
        raise DataError(f"duration must be positive, got {duration_s}")
    if not fs > 0:
        raise DataError(f"fs must be positive, got {fs}")
    if not 30.0 <= bpm <= 220.0:
        raise DataError(f"bpm out of range [30, 220]: {bpm}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    period = 60.0 / bpm
    offset, width, amp = (np.array(col) for col in zip(*_BEAT_BUMPS))

    # every RR interval is at least 0.98 periods, so these rows hold every beat
    # before duration_s + period / 2, where the first beat past it ends the record
    u = rng.random((int(duration_s / (0.97 * period)) + 2, 11))
    steps = period * (1.0 + _uniform(u[:-1, 10], -0.02, 0.02))
    beats = np.cumsum(np.concatenate(([0.5 * period], steps)))  # the first beat fully inside
    u = u[: np.count_nonzero(beats < duration_s + 0.5 * period)]
    amp = (amp * (1.0 + _uniform(u[:, 0:10:2], -0.2, 0.2))).ravel()
    width = (width * (1.0 + _uniform(u[:, 1:10:2], -0.1, 0.1))).ravel()
    center = (beats[: len(u), None] + offset).ravel()

    # each bump covers samples lo..hi-1; its samples run beat by beat, bump by bump
    lo = np.maximum(0, ((center - 5 * width) * fs).astype(np.int64))
    hi = np.minimum(n, ((center + 5 * width) * fs).astype(np.int64) + 1)
    size = np.maximum(hi - lo, 0)
    ends = np.cumsum(size)
    index = np.arange(ends[-1]) + np.repeat(lo - (ends - size), size)
    # amp * exp(-0.5 * ((t - center) / width) ** 2) in place, op for op
    z = index / fs
    z -= np.repeat(center, size)
    z /= np.repeat(width, size)
    z *= z
    z *= -0.5
    np.exp(z, out=z)
    z *= np.repeat(amp, size)
    # bincount adds each sample's bumps in input order, starting from zero, so
    # they round in beat order, as the loop in `tests/reference.py` adds them
    signal = np.bincount(index, weights=z, minlength=n)
    return SignalRecord(record_id or f"synth{seed:04d}", fs, signal)


# ---------------------------------------------------------------------------
# noise generators


def _gen_bw(rng, n, fs):
    # three sinusoids of 0.05-0.5 Hz, each drawing its frequency, amplitude, phase
    t = np.arange(n) / fs
    params = _uniform(rng.random((3, 3)), np.array([0.05, 0.5, 0.0]), np.array([0.5, 1.5, 2.0 * np.pi]))
    x = np.zeros(n)
    for freq, amp, phase in params.tolist():
        x += amp * np.sin(2.0 * np.pi * freq * t + phase)
    return x


def _gen_pli(rng, n, fs):
    # 50 Hz mains, amplitude-modulated 10% deep at 0.5-2 Hz
    t = np.arange(n) / fs
    carrier = np.sin(2.0 * np.pi * 50.0 * t + rng.uniform(0.0, 2.0 * np.pi))
    envelope = 1.0 + 0.1 * np.sin(
        2.0 * np.pi * rng.uniform(0.5, 2.0) * t + rng.uniform(0.0, 2.0 * np.pi)
    )
    return envelope * carrier


def _gen_ma(rng, n, fs):
    # moving difference suppresses the low band, a 2-tap average tames Nyquist;
    # band edges are recorded for provenance rather than sharpness
    white = rng.standard_normal(n + 2)
    hp = np.diff(white)
    return 0.5 * (hp[1:] + hp[:-1])


def _gen_em(rng, n, fs):
    # fast decays overlap the QRS timescale, like real electrode pops: about
    # one pop per second (1 s mean gap), decay 0.01-0.15 s, over a 0.15 floor
    x = 0.15 * rng.standard_normal(n)
    t_arrival = rng.exponential(1.0)
    duration = n / fs
    while t_arrival < duration:
        i = int(t_arrival * fs)
        tau = rng.uniform(0.01, 0.15)
        # the draw `rng.choice((-1.0, 1.0))` makes, without its array set-up
        amp = rng.uniform(1.0, 3.0) * (-1.0, 1.0)[rng.integers(2)]
        span = min(n - i, int(6.0 * tau * fs) + 1)
        decay = np.exp(-np.arange(span) / (tau * fs))
        x[i : i + span] += amp * decay
        t_arrival += rng.exponential(1.0)
    return x


_GENERATORS = {"bw": _gen_bw, "pli": _gen_pli, "ma": _gen_ma, "em": _gen_em}


def generate_noise(spec: NoiseSpec, n: int, fs: float) -> np.ndarray:
    """One centered, unit-RMS noise instance of length n."""
    if n < 1:
        raise DataError(f"noise length must be >= 1, got {n}")
    rng = np.random.default_rng(spec.seed)
    x = _GENERATORS[spec.kind](rng, n, fs)
    x = x - x.mean()
    rms = np.sqrt(np.mean(x * x))
    if rms > 0:
        x = x / rms
    return x


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, target_snr_db: float):
    """Scale `noise` so clean-vs-scaled-noise power hits the target SNR.

    Returns (noisy, scale) with noisy = clean + scale * noise.
    """
    clean = np.asarray(clean, dtype=np.float64)
    noise = np.asarray(noise, dtype=np.float64)
    if clean.shape != noise.shape:
        raise DataError(f"mix_at_snr: shapes differ {clean.shape} vs {noise.shape}")
    p_clean = float(np.mean(clean * clean))
    p_noise = float(np.mean(noise * noise))
    if p_clean == 0.0:
        raise DataError("mix_at_snr: clean signal has zero power")
    if p_noise == 0.0:
        raise DataError("mix_at_snr: noise has zero power")
    scale = np.sqrt(p_clean / (p_noise * 10.0 ** (target_snr_db / 10.0)))
    return clean + scale * noise, float(scale)


def normalize_windows(windows: np.ndarray):
    """Z-normalize each row of (N, L) windows: (normalized, means, stds, flat).

    `means` and `stds` are (N, 1) columns, so `normalized * stds + means`
    restores the windows. A flat row (every sample equal) is divided by 1, and
    `stds` holds 1 there: its computed std can be one ulp rather than zero.
    """
    means = windows.mean(axis=1, keepdims=True)
    flat = windows.max(axis=1) == windows.min(axis=1)
    stds = np.where(flat[:, None], 1.0, windows.std(axis=1, keepdims=True))
    return (windows - means) / stds, means, stds, flat


def segment_and_normalize(record: SignalRecord, window: int = WINDOW, stride: int = WINDOW):
    """Z-normalized sliding windows: list of (offset, window, mean, std).

    Flat windows (`normalize_windows`) are skipped with a warning.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    if record.samples.size < window:
        raise DataError(
            f"record {record.id}: {record.samples.size} samples < window {window}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(record.samples, window)[::stride]
    normalized, means, stds, flat = normalize_windows(windows)
    out = []
    for row, offset in enumerate(range(0, record.samples.size - window + 1, stride)):
        if flat[row]:
            log.warning("record %s offset %d: zero-variance window skipped", record.id, offset)
            continue
        out.append((offset, normalized[row], float(means[row, 0]), float(stds[row, 0])))
    return out


# ---------------------------------------------------------------------------
# dataset build


def stable_seed(*parts) -> int:
    """Platform-independent 64-bit seed from string-able parts."""
    key = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


def segment_seed(global_seed: int, record_id: str, offset: int,
                 target_snr_db: float, mix, extra: str = "") -> int:
    """Stable per-segment seed; identical regardless of worker or iteration order."""
    return stable_seed(global_seed, record_id, offset, f"{target_snr_db:.6f}", "+".join(mix), extra)


def _composite_noise(global_seed, record_id, offset, snr, mix, n, fs):
    """Sum the per-kind instances first; the sum is then scaled as one."""
    total = np.zeros(n)
    for kind in sorted(mix):
        seed = segment_seed(global_seed, record_id, offset, snr, mix, extra=kind)
        total += generate_noise(NoiseSpec(kind, seed), n, fs)
    return total


def make_pair(record_id, offset, window, mean, std, snr, mix, global_seed, fs) -> SegmentPair:
    mix = tuple(sorted(mix))
    noise = _composite_noise(global_seed, record_id, offset, snr, mix, window.size, fs)
    noisy, scale = mix_at_snr(window, noise, snr)
    return SegmentPair(
        clean=window,
        noisy=noisy,
        record_id=record_id,
        offset=offset,
        noise_mix=mix,
        target_snr_db=snr,
        seed=segment_seed(global_seed, record_id, offset, snr, mix),
        scale=scale,
        clean_mean=mean,
        clean_std=std,
    )


def _derive(manifest: dict, split_name: str):
    """Each pair of the split in the build's order, from the manifest's recipe:
    its manifest entry and the `make_pair` arguments that make it. The split's
    records are synthesized again; no noise is drawn."""
    records = {args["record_id"]: args for args in manifest["records"]}
    for rid in manifest["split_records"][split_name]:
        record = synth_ecg(**records[rid])
        for offset, win, mean, std in segment_and_normalize(record, manifest["window"], manifest["stride"]):
            for mix in manifest["mixes"]:
                mix = tuple(sorted(mix))
                for snr in manifest["snr_list"]:
                    entry = {"split": split_name, "record_id": rid, "offset": offset, "noise_mix": list(mix),
                             "target_snr_db": snr, "clean_mean": mean, "clean_std": std,
                             "seed": segment_seed(manifest["global_seed"], rid, offset, snr, mix)}
                    yield entry, (rid, offset, win, mean, std, snr, mix, manifest["global_seed"], record.fs)


def _format_3_split_files(out_dir: Path) -> list:
    """The split files named by a format-3 manifest in `out_dir`, if one is there."""
    try:
        with open(out_dir / "manifest.json") as fh:
            old = json.load(fh)
    except (OSError, ValueError):  # no manifest, or not JSON
        return []
    if not (isinstance(old, dict) and old.get("format_version") == 3 and isinstance(old.get("split_files"), dict)):
        return []
    return [name for name in old["split_files"].values()
            if isinstance(name, str) and name.endswith(".f64") and Path(name).name == name]


def build_dataset(records, split: dict, snr_list, mixes, out_dir,
                  global_seed: int = 0, window: int = WINDOW, stride: int = WINDOW) -> dict:
    """Write the dataset, its recipe and pair list, as one `manifest.json`; returns it.

    `records` holds each record's `synth_ecg` keyword arguments, `record_id`
    and `fs` among them; `split` maps split name -> list of record ids
    (disjoint); `mixes` is a list of noise-kind tuples. The build synthesizes
    the split records only to list their windows and draws no noise:
    `load_split` derives the pairs. The manifest is written with
    `write_atomically`, so a rebuild switches the whole dataset at once; a
    build that fails leaves the previous one, and removes `out_dir` if it made
    it. A rebuild over a format-3 dataset removes the split files its manifest
    names. Records of two sampling rates, and a mix that is empty or names an
    unknown kind, are a `DataError` before anything is written.
    """
    for mix in mixes:
        if not mix:
            raise DataError("a noise mix names no kind")
        for kind in mix:
            if kind not in NOISE_KINDS:
                raise DataError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")
    seen = {}
    for name, ids in split.items():
        for rid in ids:
            if rid in seen:
                raise DataError(f"record {rid!r} appears in splits {seen[rid]!r} and {name!r}")
            seen[rid] = name
    by_id = {args["record_id"]: args for args in records}
    missing = [rid for rid in seen if rid not in by_id]
    if missing:
        raise DataError(f"split references unknown records: {missing}")
    rates = {}
    for rid in seen:
        rates.setdefault(by_id[rid]["fs"], rid)
    if len(rates) > 1:
        raise DataError("a dataset holds one sampling rate, but records "
                        + " and ".join(f"{rid} ({fs:g} Hz)" for fs, rid in rates.items()) + " differ")

    manifest = {
        "format_version": DATASET_FORMAT,
        "global_seed": global_seed,
        "window": window,
        "stride": stride,
        "fs": next(iter(rates), None),
        "snr_list": [float(s) for s in snr_list],
        "mixes": [list(m) for m in mixes],
        "split_records": {name: list(ids) for name, ids in split.items()},
        "records": [dict(by_id[rid]) for rid in seen],
    }
    manifest["pairs"] = [entry for name in split for entry, _ in _derive(manifest, name)]
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    out_dir = Path(out_dir)
    created = not out_dir.exists()
    out_dir.mkdir(parents=True, exist_ok=True)
    stale = _format_3_split_files(out_dir)
    try:
        write_atomically(out_dir / "manifest.json", lambda fh: fh.write(text.encode()))
    except BaseException:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    for name in stale:
        (out_dir / name).unlink(missing_ok=True)
    return manifest


# the keys readers take from a manifest, and their JSON types (no records: a null fs)
_MANIFEST_KEYS = {"global_seed": int, "window": int, "stride": int, "fs": (int, float, type(None)),
                  "snr_list": list, "mixes": list, "split_records": dict, "records": list, "pairs": list}
_PAIR_KEYS = {"split", *_ENTRY_FIELDS}


def load_manifest(dataset_dir) -> dict:
    """The dataset's manifest: a format-4 JSON object holding `_MANIFEST_KEYS`
    and each pair's split and entry fields; else a `DataError` naming what is
    missing."""
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest.json under {dataset_dir}")
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: a manifest is a JSON object, not {type(manifest).__name__}")
    if manifest.get("format_version") != DATASET_FORMAT:
        raise DataError(f"{path}: dataset format_version {manifest.get('format_version')!r} is not "
                        f"{DATASET_FORMAT}; rerun synth-data to rebuild the dataset")
    for key, kind in _MANIFEST_KEYS.items():
        if key not in manifest or not isinstance(manifest[key], kind):
            raise DataError(f"{path}: the manifest lacks {key!r} or holds it as another type")
    if not all(isinstance(e, dict) and _PAIR_KEYS <= e.keys() for e in manifest["pairs"]):
        raise DataError(f"{path}: a pair lacks one of {sorted(_PAIR_KEYS)}")
    return manifest


def load_split(dataset_dir, split_name: str):
    """The split's pairs, derived from the dataset's manifest (`split_pairs`)."""
    return split_pairs(load_manifest(dataset_dir), split_name, dataset_dir)


def split_pairs(manifest: dict, split_name: str, dataset_dir):
    """The split's pairs in manifest order, derived from `manifest`, the one
    `load_manifest(dataset_dir)` returned: the split's records synthesized
    again and each pair made by `make_pair` in the build's order, so the pairs
    the build listed, bit for bit. A split the manifest does not list, or a
    listed entry that is not the one its recipe derives, is a `DataError`
    naming `dataset_dir`."""
    if split_name not in manifest["split_records"]:
        raise DataError(f"no split {split_name!r} under {dataset_dir}; it lists "
                        f"{', '.join(manifest['split_records'])}")
    listed = [e for e in manifest["pairs"] if e["split"] == split_name]
    try:
        derived = list(_derive(manifest, split_name))
    except (KeyError, TypeError) as exc:  # a recipe edited to lack a record or hold another type
        raise DataError(f"{dataset_dir}: the recipe does not derive split {split_name!r}: {exc!r}") from None
    for i, ((entry, _), want) in enumerate(zip(derived, listed)):
        if entry != want:
            key = next(k for k in sorted(entry.keys() | want.keys()) if entry.get(k) != want.get(k))
            raise DataError(f"{dataset_dir}: {split_name} pair {i} ({entry['record_id']} at offset "
                            f"{entry['offset']}) lists {key} {want.get(key)!r}, but its recipe derives "
                            f"{entry.get(key)!r}; rerun synth-data to rebuild the dataset")
    if len(derived) != len(listed):
        raise DataError(f"{dataset_dir}: split {split_name!r} lists {len(listed)} pairs, but its recipe "
                        f"derives {len(derived)}; rerun synth-data to rebuild the dataset")
    return [make_pair(*args) for _, args in derived]


# ---------------------------------------------------------------------------
# signal file I/O


def load_signal_file(path) -> SignalRecord:
    """Read a CSV (one float per line) or raw `.f64` file with its JSON sidecar."""
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".json")
    meta = {}
    if sidecar.exists():
        with open(sidecar) as fh:
            meta = json.load(fh)
        if not (isinstance(meta, dict) and isinstance(meta.get("id", ""), str)
                and type(meta.get("fs", 0.0)) in (int, float)):
            raise DataError(f"{sidecar}: expected a JSON object whose 'id' is a string and 'fs' a number")
    if path.suffix == ".csv":
        samples = np.loadtxt(path, dtype=np.float64, ndmin=1)
    elif path.suffix == ".f64":
        size = path.stat().st_size
        if size % 8:
            raise DataError(f"{path}: {size} bytes is not a whole number of 8-byte samples")
        samples = np.fromfile(path, dtype="<f8")
    else:
        raise DataError(f"unsupported signal format {path.suffix!r} (use .csv or .f64)")
    return SignalRecord(meta.get("id", path.stem), float(meta.get("fs", 360.0)), samples)


def write_atomically(path, write) -> None:
    """Call `write(fh)` on a temporary binary file beside `path`, then
    `os.replace` it onto `path`: a write that fails or dies part way leaves
    the previous file whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def save_signal_file(path, record: SignalRecord) -> None:
    """Write the samples and then the JSON sidecar, each with `write_atomically`."""
    path = Path(path)
    if path.suffix not in (".csv", ".f64"):
        raise DataError(f"unsupported signal format {path.suffix!r} (use .csv or .f64)")
    if path.suffix == ".csv":
        write_atomically(path, lambda fh: np.savetxt(fh, record.samples, fmt="%.17g"))
    else:
        write_atomically(path, np.ascontiguousarray(record.samples, dtype="<f8").tofile)
    sidecar = json.dumps({"id": record.id, "fs": record.fs}, sort_keys=True) + "\n"
    write_atomically(path.with_suffix(path.suffix + ".json"), lambda fh: fh.write(sidecar.encode()))
