"""Denoising quality metrics: SNR, SNRI, PRD, PCC, MAE plus batch evaluation.

All metrics are computed in the same z-normalized domain the model trains in.
A perfectly reconstructed segment has infinite output SNR; such segments are
reported with an infinity sentinel and left out of the aggregate statistics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .heap import keep_freed_memory_in_heap
from .tensor import Tensor

__all__ = ["MetricReport", "snr_db", "prd_pct", "pcc", "mae", "evaluate", "write_segment_csv"]

CSV_COLUMNS = [
    "segment_id", "noise_mix", "target_snr", "snr_in", "snr_out",
    "snri", "prd", "pcc", "mae",
]


class MetricError(ValueError):
    pass


def snr_db(clean: np.ndarray, test: np.ndarray) -> float:
    """10 log10 of clean power over residual power; +inf for a perfect match."""
    clean = np.asarray(clean, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if clean.shape != test.shape:
        raise MetricError(f"snr_db: shapes differ {clean.shape} vs {test.shape}")
    p_clean = float((clean**2).sum())
    if p_clean == 0.0:
        raise MetricError("snr_db: clean signal has zero power")
    p_residual = float(((test - clean) ** 2).sum())
    if p_residual == 0.0:
        return math.inf
    return 10.0 * math.log10(p_clean / p_residual)


def prd_pct(clean: np.ndarray, denoised: np.ndarray) -> float:
    """Root-mean-square reconstruction error as a percentage of clean power."""
    clean = np.asarray(clean, dtype=np.float64)
    denoised = np.asarray(denoised, dtype=np.float64)
    p_clean = float((clean**2).sum())
    if p_clean == 0.0:
        raise MetricError("prd_pct: clean signal has zero power")
    return 100.0 * math.sqrt(float(((clean - denoised) ** 2).sum()) / p_clean)


def pcc(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    denom = math.sqrt(float((da**2).sum()) * float((db**2).sum()))
    if denom == 0.0:
        raise MetricError("pcc: an input has zero variance")
    return float((da * db).sum()) / denom


def mae(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"mae: shapes differ {a.shape} vs {b.shape}")
    return float(np.abs(a - b).mean())


@dataclass
class MetricReport:
    rows: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    n_segments: int = 0
    n_excluded_inf: int = 0

    def mean(self, metric: str) -> float:
        return self.aggregates[metric][0]


_AGG_METRICS = ("snr_in", "snr_out", "snri", "prd", "pcc", "mae")


def _segment_row(segment_id, pair, denoised) -> dict:
    snr_in = snr_db(pair.clean, pair.noisy)
    snr_out = snr_db(pair.clean, denoised)
    return {
        "segment_id": segment_id,
        "noise_mix": "+".join(pair.noise_mix),
        "target_snr": pair.target_snr_db,
        "snr_in": snr_in,
        "snr_out": snr_out,
        "snri": snr_out - snr_in,
        "prd": prd_pct(pair.clean, denoised),
        "pcc": pcc(pair.clean, denoised),
        "mae": mae(pair.clean, denoised),
    }


def evaluate(model, pairs, batch_size: int = 16) -> MetricReport:
    """Run eval-mode inference over segment pairs and score each one.

    `model` exposes forward(Tensor, training=False); pairs are scored in
    their stored (normalized) domain.
    """
    if not pairs:
        raise MetricError("evaluate: empty dataset")
    keep_freed_memory_in_heap()
    report = MetricReport()
    for start in range(0, len(pairs), batch_size):
        chunk = pairs[start : start + batch_size]
        x = np.stack([p.noisy for p in chunk])[:, None, :]
        out = model.forward(Tensor(x), training=False).data[:, 0, :]
        for i, pair in enumerate(chunk):
            report.rows.append(_segment_row(start + i, pair, out[i]))

    report.n_segments = len(report.rows)
    finite = [r for r in report.rows if math.isfinite(r["snr_out"])]
    report.n_excluded_inf = report.n_segments - len(finite)
    for metric in _AGG_METRICS:
        vals = np.array([r[metric] for r in finite], dtype=np.float64)
        if vals.size:
            report.aggregates[metric] = (float(vals.mean()), float(vals.std()))
        else:
            report.aggregates[metric] = (math.nan, math.nan)
    return report


def write_segment_csv(path, report: MetricReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in report.rows:
            writer.writerow({
                "segment_id": row["segment_id"],
                "noise_mix": row["noise_mix"],
                "target_snr": row["target_snr"],
                "snr_in": repr(row["snr_in"]),
                "snr_out": repr(row["snr_out"]),
                "snri": repr(row["snri"]),
                "prd": repr(row["prd"]),
                "pcc": repr(row["pcc"]),
                "mae": repr(row["mae"]),
            })
