"""Command-line entry point: synth-data, train, denoise, evaluate, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import (
    DataError,
    SignalRecord,
    build_dataset,
    load_signal_file,
    load_split,
    normalize_windows,
    save_signal_file,
    stable_seed,
    write_atomically,
)
from .gradcheck import run_all_checks
from .metrics import evaluate, write_segment_csv
from .model import INFER_BATCH, load_checkpoint
from .training import NumericFailure, run_overfit_one_batch, train_model

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_snr_list(text: str):
    """Comma-separated dB values; none (None) keeps the config's."""
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""] or None
    except ValueError as exc:
        raise UsageError(f"bad --snr value {text!r}: {exc}") from None


def _parse_mixes(text: str):
    """Semicolons separate mixes, commas combine kinds: 'bw;em;bw,em,ma'; '' keeps the config's."""
    if not text:
        return None
    mixes = []
    for group in text.split(";"):
        kinds = [k.strip().lower() for k in group.split(",") if k.strip()]
        if kinds:
            mixes.append(kinds)
    if not mixes:
        raise UsageError(f"no noise kinds in {text!r}")
    return mixes


def _load_config(args) -> RunConfig:
    """The --config file (or the defaults) with every flag given on the command line."""
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    names = {f.name for f in fields(RunConfig)}
    return cfg.override(**{k: v for k, v in vars(args).items() if k in names})


BPM_RANGE = (55.0, 100.0)  # heart rates of the stand-in recordings


def make_records(cfg: RunConfig):
    """The `synth_ecg` keyword arguments of the stand-in recordings, one seed per record."""
    records = []
    for i in range(cfg.records):
        rec_seed = stable_seed("ecg", cfg.seed, i)
        bpm = float(np.random.default_rng(rec_seed).uniform(*BPM_RANGE))
        records.append(dict(record_id=f"rec{i:04d}", duration_s=cfg.record_duration_s, fs=cfg.fs,
                            bpm=bpm, seed=rec_seed))
    return records


def record_splits(cfg: RunConfig):
    ids = [f"rec{i:04d}" for i in range(cfg.records)]
    n_train = max(1, round(cfg.records * cfg.train_frac))
    n_val = max(1, round(cfg.records * cfg.val_frac))
    if n_train + n_val >= cfg.records:
        raise DataError(
            f"records={cfg.records} too few for fractions train={cfg.train_frac} val={cfg.val_frac}"
        )
    return {
        "train": ids[:n_train],
        "val": ids[n_train : n_train + n_val],
        "test": ids[n_train + n_val :],
    }


def cmd_synth_data(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out)
    records = make_records(cfg)
    splits = record_splits(cfg)
    manifest = build_dataset(
        records, splits, cfg.snr_db, [tuple(m) for m in cfg.noise_mixes],
        out_dir, global_seed=cfg.seed, window=cfg.input_len, stride=cfg.stride,
    )
    cfg.to_json(out_dir / "synth_config.json")  # only a config that built a dataset
    print(f"wrote {len(manifest['pairs'])} pairs to {out_dir} "
          f"(splits: {', '.join(f'{k}={len(v)} records' for k, v in splits.items())})")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if args.overfit_one_batch:
        first, last = run_overfit_one_batch(cfg, args.data, args.out, quiet=args.quiet)
        ratio = first / last if last > 0 else float("inf")
        print(f"overfit-one-batch: first {first:.6f} last {last:.6f} ratio {ratio:.1f}x")
        return 0
    result = train_model(cfg, args.data, args.out, resume=args.resume, quiet=args.quiet)
    print(f"trained {result.epochs_run} epochs; best val {result.best_val:.6f} "
          f"at epoch {result.best_epoch}; checkpoint {result.checkpoint_prefix}")
    return 0


def _denoise_windows(model, windows: np.ndarray) -> np.ndarray:
    """Z-normalize each window, run eval-mode inference (float32, in `predict`),
    restore the scale; normalizing and restoring stay float64."""
    normalized, means, stds, flat = normalize_windows(windows)
    restored = model.predict(normalized) * stds + means
    restored[flat] = windows[flat]  # constant windows pass through unchanged
    return restored


def cmd_denoise(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    window = model.config.input_len
    record = load_signal_file(args.input)
    if record.fs != model.config.fs:
        raise DataError(f"{args.input} is sampled at {record.fs:g} Hz, but the model was trained "
                        f"at {model.config.fs:g} Hz; resample the record to {model.config.fs:g} Hz")
    samples = record.samples
    n = samples.size
    remainder = n % window
    if remainder and not args.pad:
        raise DataError(
            f"input length {n} is not a multiple of {window}; rerun with --pad"
        )
    padded = np.concatenate([samples, np.full(window - remainder, samples[-1])]) if remainder else samples
    windows = padded.reshape(-1, window)
    denoised = np.concatenate([
        _denoise_windows(model, windows[i : i + INFER_BATCH]).reshape(-1)
        for i in range(0, windows.shape[0], INFER_BATCH)
    ])[:n]
    save_signal_file(args.out, SignalRecord(record.id + "-denoised", record.fs, denoised))
    print(f"denoised {n} samples ({windows.shape[0]} windows) -> {args.out}")
    return 0


class _IdentityModel:
    """Baseline that returns its input; SNRI is zero by construction."""

    def predict(self, x):
        return x


def _print_grouped(report) -> None:
    print(f"{'mix':>12} {'snr':>6} {'n':>4} {'MAE':>9} {'PCC':>8} {'SNRI':>8} {'PRD':>9}")
    for g in report.groups:
        print(f"{g['noise_mix']:>12} {g['target_snr']:>6g} {g['n']:>4d} {g['mae']:>9.4f} "
              f"{g['pcc']:>8.4f} {g['snri']:>8.2f} {g['prd']:>9.2f}")
    agg = report.aggregates
    print(f"{'overall':>12} {'-':>6} {report.n_segments:>4d} {agg['mae'][0]:>9.4f} "
          f"{agg['pcc'][0]:>8.4f} {agg['snri'][0]:>8.2f} {agg['prd'][0]:>9.2f}")
    if report.n_excluded_inf:
        print(f"({report.n_excluded_inf} segments with infinite SNR excluded from aggregates)")


def cmd_evaluate(args) -> int:
    pairs = load_split(args.data, args.split)
    if not pairs:
        raise DataError(f"split {args.split!r} under {args.data} is empty")
    if args.baseline == "identity":
        model = _IdentityModel()
    else:
        model, _, _ = load_checkpoint(args.checkpoint)
    report = evaluate(model, pairs)
    _print_grouped(report)
    out_dir = Path(args.out) if args.out else Path(args.data)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"metrics_{args.split}.csv"
    write_segment_csv(csv_path, report)
    summary = json.dumps({"aggregates": report.aggregates, "groups": report.groups,
                          "n_segments": report.n_segments, "n_excluded_inf": report.n_excluded_inf},
                         indent=2, sort_keys=True) + "\n"
    write_atomically(out_dir / f"metrics_{args.split}.json", lambda fh: fh.write(summary.encode()))
    print(f"per-segment metrics -> {csv_path}")
    return 0


def cmd_gradcheck(args) -> int:
    results = run_all_checks(args.seed)
    failed = False
    for result in results:
        print(result)
        failed = failed or not result.passed
    if failed:
        print("gradient check FAILED")
        return 3
    print("all gradient checks passed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="ecgdenoise", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("synth-data", help="synthesize a paired clean/noisy dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--records", type=int)
    p.add_argument("--duration", dest="record_duration_s", type=float, help="seconds per record")
    p.add_argument("--stride", type=int)
    p.add_argument("--snr", dest="snr_db", type=_parse_snr_list,
                   help="comma-separated dB targets, e.g. 0,5,10")
    p.add_argument("--noise", dest="noise_mixes", type=_parse_mixes,
                   help="mixes: commas combine, semicolons separate (bw;em;bw,em,ma)")

    p = sub.add_parser("train", help="train a model on a synthesized dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--w-time", dest="w_time", type=float)
    p.add_argument("--w-spectral", dest="w_spectral", type=float)
    p.add_argument("--base-channels", dest="base_channels", type=int)
    p.add_argument("--transformer-layers", dest="transformer_layers", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--resume", help="checkpoint prefix to continue from")
    p.add_argument("--overfit-one-batch", action="store_true")
    p.add_argument("--overfit-steps", type=int)
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("denoise", help="denoise a signal file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pad", action="store_true",
                   help="edge-pad input to a whole number of windows (stripped on output)")

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset split")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--baseline", choices=["identity"])
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out")

    p = sub.add_parser("gradcheck", help="finite-difference check of every layer type")
    p.add_argument("--seed", type=int, default=0)

    return parser


_HANDLERS = {
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "denoise": cmd_denoise,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # DataError, MetricError and ConfigError among them
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
