"""Paired (clean, noisy) segment synthesis: windows, normalization, noise, SNR.

A synthetic ECG generator stands in for real recordings so everything runs
self-contained; real signals can be ingested from CSV (one float per line) or
raw little-endian float64 files with a JSON sidecar ``{"id": ..., "fs": ...}``.

Pipeline order per segment: window the clean record, z-normalize the window,
generate a seeded noise instance, scale it to the target SNR against the
normalized window, and add. The noisy signal is not re-normalized afterwards,
which keeps the achieved SNR exact. Per-segment seeds are stable hashes of
(global seed, record id, offset, SNR, mix), so rebuilds are byte-identical
and independent of iteration order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass
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
    "segment_and_normalize",
    "build_dataset",
    "load_manifest",
    "load_pair",
    "load_signal_file",
    "save_signal_file",
    "segment_seed",
    "stable_seed",
    "write_atomically",
]

log = logging.getLogger(__name__)

NOISE_KINDS = ("bw", "em", "ma", "pli")

WINDOW = 3600


class DataError(ValueError):
    """Invalid signals, specs, or dataset layouts."""


@dataclass
class SignalRecord:
    id: str
    fs: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.fs <= 0:
            raise DataError(f"sample rate must be positive, got {self.fs}")
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


def synth_ecg(duration_s: float, fs: float = 360.0, bpm: float = 60.0,
              seed: int = 0, record_id: str | None = None) -> SignalRecord:
    """Gaussian-bump ECG: five bumps per beat, RR intervals jittered <= 2%.

    Successive beats vary: each bump's amplitude wobbles by up to 20% and its
    width by up to 10% around the template (like real beat-to-beat morphology
    drift), so a denoiser has to read the waveform out of the observation
    instead of memorizing one cycle.
    """
    if duration_s <= 0:
        raise DataError(f"duration must be positive, got {duration_s}")
    if not 30.0 <= bpm <= 220.0:
        raise DataError(f"bpm out of range [30, 220]: {bpm}")
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    signal = np.zeros(n)
    period = 60.0 / bpm

    beat = 0.5 * period  # keep the first beat fully inside the record
    while beat < duration_s + 0.5 * period:
        for offset, width, amp in _BEAT_BUMPS:
            amp = amp * (1.0 + rng.uniform(-0.2, 0.2))
            width = width * (1.0 + rng.uniform(-0.1, 0.1))
            center = beat + offset
            lo = max(0, int((center - 5 * width) * fs))
            hi = min(n, int((center + 5 * width) * fs) + 1)
            if lo < hi:
                seg = t[lo:hi] - center
                signal[lo:hi] += amp * np.exp(-0.5 * (seg / width) ** 2)
        beat += period * (1.0 + rng.uniform(-0.02, 0.02))

    return SignalRecord(record_id or f"synth{seed:04d}", fs, signal)


# ---------------------------------------------------------------------------
# noise generators


def _gen_bw(rng, n, fs):
    # three sinusoids of 0.05-0.5 Hz
    t = np.arange(n) / fs
    x = np.zeros(n)
    for _ in range(3):
        freq = rng.uniform(0.05, 0.5)
        amp = rng.uniform(0.5, 1.5)
        x += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
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
        amp = rng.uniform(1.0, 3.0) * rng.choice((-1.0, 1.0))
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


def segment_and_normalize(record: SignalRecord, window: int = WINDOW, stride: int = WINDOW):
    """Z-normalized sliding windows: list of (offset, window, mean, std).

    Constant windows (every sample equal) are skipped with a warning: their
    computed std can be one ulp rather than zero.
    """
    if stride < 1:
        raise DataError(f"stride must be >= 1, got {stride}")
    if record.samples.size < window:
        raise DataError(
            f"record {record.id}: {record.samples.size} samples < window {window}"
        )
    out = []
    for offset in range(0, record.samples.size - window + 1, stride):
        chunk = record.samples[offset : offset + window]
        if chunk.max() == chunk.min():
            log.warning("record %s offset %d: zero-variance window skipped", record.id, offset)
            continue
        mean = float(chunk.mean())
        std = float(chunk.std())
        out.append((offset, (chunk - mean) / std, mean, std))
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


def pair_file_name(pair: SegmentPair) -> str:
    mix = "-".join(pair.noise_mix)
    return f"{pair.record_id}_o{pair.offset}_{mix}_snr{pair.target_snr_db:g}.f64"


def build_dataset(records, split: dict, snr_list, mixes, out_dir,
                  global_seed: int = 0, window: int = WINDOW, stride: int = WINDOW) -> dict:
    """Write split subdirectories of pair files plus a provenance manifest.

    `split` maps split name -> list of record ids (disjoint); `mixes` is a
    list of noise-kind tuples. Each pair file holds clean then noisy samples
    as little-endian float64.
    """
    seen = {}
    for name, ids in split.items():
        for rid in ids:
            if rid in seen:
                raise DataError(f"record {rid!r} appears in splits {seen[rid]!r} and {name!r}")
            seen[rid] = name
    by_id = {rec.id: rec for rec in records}
    missing = [rid for rid in seen if rid not in by_id]
    if missing:
        raise DataError(f"split references unknown records: {missing}")

    out_dir = Path(out_dir)
    entries = []
    for split_name in split:
        (out_dir / split_name).mkdir(parents=True, exist_ok=True)
        for rid in split[split_name]:
            rec = by_id[rid]
            for offset, win, mean, std in segment_and_normalize(rec, window, stride):
                for mix in mixes:
                    for snr in snr_list:
                        pair = make_pair(rid, offset, win, mean, std, float(snr),
                                         tuple(mix), global_seed, rec.fs)
                        rel = f"{split_name}/{pair_file_name(pair)}"
                        blob = np.concatenate([pair.clean, pair.noisy]).astype("<f8")
                        (out_dir / rel).write_bytes(blob.tobytes())
                        entries.append({
                            "split": split_name,
                            "file": rel,
                            "record_id": rid,
                            "offset": offset,
                            "noise_mix": list(pair.noise_mix),
                            "target_snr_db": float(snr),
                            "seed": pair.seed,
                            "scale": pair.scale,
                            "clean_mean": mean,
                            "clean_std": std,
                        })

    manifest = {
        "format_version": 1,
        "global_seed": global_seed,
        "window": window,
        "stride": stride,
        "fs": by_id[next(iter(seen))].fs if seen else None,
        "snr_list": [float(s) for s in snr_list],
        "mixes": [list(m) for m in mixes],
        "split_records": {name: list(ids) for name, ids in split.items()},
        "pairs": entries,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def load_manifest(dataset_dir) -> dict:
    path = Path(dataset_dir) / "manifest.json"
    if not path.exists():
        raise DataError(f"no manifest.json under {dataset_dir}")
    with open(path) as fh:
        return json.load(fh)


def load_pair(dataset_dir, entry: dict, window: int) -> SegmentPair:
    """Read one pair file: `window` clean samples, then `window` noisy ones."""
    raw = np.fromfile(Path(dataset_dir) / entry["file"], dtype="<f8")
    if raw.size != 2 * window:
        raise DataError(f"{entry['file']}: {raw.size} samples, expected 2 x window = {2 * window}")
    return SegmentPair(
        clean=raw[:window],
        noisy=raw[window:],
        record_id=entry["record_id"],
        offset=entry["offset"],
        noise_mix=tuple(entry["noise_mix"]),
        target_snr_db=entry["target_snr_db"],
        seed=entry["seed"],
        scale=entry["scale"],
        clean_mean=entry["clean_mean"],
        clean_std=entry["clean_std"],
    )


def load_split(dataset_dir, split_name: str):
    manifest = load_manifest(dataset_dir)
    return [
        load_pair(dataset_dir, e, manifest["window"]) for e in manifest["pairs"] if e["split"] == split_name
    ]


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
