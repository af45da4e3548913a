import csv
import math

import numpy as np
import pytest

from ecgdenoise.data import make_pair, segment_and_normalize, synth_ecg
from ecgdenoise.metrics import (
    CSV_COLUMNS,
    MetricError,
    MetricReport,
    evaluate,
    mae,
    pcc,
    prd_pct,
    snr_db,
    write_segment_csv,
)


def brute_snr(clean, test):
    num = sum(c * c for c in clean)
    den = sum((t - c) ** 2 for c, t in zip(clean, test))
    return 10.0 * math.log10(num / den)


def brute_prd(clean, denoised):
    num = sum((c - d) ** 2 for c, d in zip(clean, denoised))
    den = sum(c * c for c in clean)
    return 100.0 * math.sqrt(num / den)


def brute_pcc(a, b):
    ma_, mb = sum(a) / len(a), sum(b) / len(b)
    num = sum((x - ma_) * (y - mb) for x, y in zip(a, b))
    da = sum((x - ma_) ** 2 for x in a)
    db = sum((y - mb) ** 2 for y in b)
    return num / math.sqrt(da * db)


def brute_mae(a, b):
    return sum(abs(x - y) for x, y in zip(a, b)) / len(a)


class IdentityModel:
    def predict(self, x):
        return x


class OracleModel:
    """Returns the clean target for every batch element (set per call)."""

    def __init__(self, pairs):
        self.pairs = pairs
        self.cursor = 0

    def predict(self, x):
        batch = x.shape[0]
        out = np.stack([p.clean for p in self.pairs[self.cursor : self.cursor + batch]])
        self.cursor += batch
        return out


def sample_pairs(n=6, snr=0.0):
    rec = synth_ecg(20.0 + 10.0 * n, seed=50, record_id="m")
    windows = segment_and_normalize(rec, 3600, 1800)[:n]
    return [
        make_pair("m", off, win, mean, std, snr, ("bw", "em"), 33, 360.0)
        for off, win, mean, std in windows
    ]


# ---------------------------------------------------------------------------
# single metrics


def test_snr_equal_powers_is_zero_db():
    clean = np.random.default_rng(0).standard_normal(100)
    assert snr_db(clean, clean + clean) == pytest.approx(0.0, abs=1e-12)


def test_snr_ten_db_closed_form():
    clean = np.random.default_rng(1).standard_normal(400)
    residual = clean / math.sqrt(10.0)
    assert snr_db(clean, clean + residual) == pytest.approx(10.0, abs=1e-9)


def test_snr_perfect_match_is_inf():
    clean = np.ones(10)
    assert snr_db(clean, clean.copy()) == math.inf


def test_snr_zero_clean_power_rejected():
    with pytest.raises(MetricError):
        snr_db(np.zeros(5), np.ones(5))


def test_prd_examples():
    clean = np.random.default_rng(2).standard_normal(256)
    assert prd_pct(clean, clean.copy()) == 0.0
    assert prd_pct(clean, np.zeros_like(clean)) == pytest.approx(100.0, abs=1e-12)
    assert prd_pct(clean, 1.1 * clean) == pytest.approx(10.0, abs=1e-9)


def test_pcc_examples():
    a = np.random.default_rng(3).standard_normal(128)
    assert pcc(a, a) == pytest.approx(1.0, abs=1e-12)
    assert pcc(a, -a) == pytest.approx(-1.0, abs=1e-12)
    assert pcc(a, 2.0 * a + 3.0) == pytest.approx(1.0, abs=1e-12)


def test_pcc_zero_variance_rejected():
    with pytest.raises(MetricError):
        pcc(np.ones(10), np.random.default_rng(0).standard_normal(10))


def test_mae_examples():
    a = np.random.default_rng(4).standard_normal(64)
    assert mae(a, a) == 0.0
    assert mae(np.zeros(2), np.array([1.0, -1.0])) == pytest.approx(1.0, abs=1e-15)


def test_metrics_match_brute_force_on_random_pairs():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(16, 64))
        clean = rng.standard_normal(n)
        test = clean + rng.standard_normal(n) * rng.uniform(0.1, 2.0)
        for fast, slow in (
            (snr_db(clean, test), brute_snr(clean, test)),
            (prd_pct(clean, test), brute_prd(clean, test)),
            (pcc(clean, test), brute_pcc(clean, test)),
            (mae(clean, test), brute_mae(clean, test)),
        ):
            assert abs(fast - slow) / max(abs(slow), 1e-12) < 1e-10


def test_prd_snr_consistency_identity():
    rng = np.random.default_rng(7)
    clean = rng.standard_normal(512)
    test = clean + rng.standard_normal(512) * 0.4
    assert snr_db(clean, test) == pytest.approx(
        20.0 * math.log10(100.0 / prd_pct(clean, test)), abs=1e-9
    )


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_needs_only_predict():
    pairs = sample_pairs(5)
    calls = []

    class PredictOnly:
        def predict(self, x):
            calls.append(x.shape)
            return x

    report = evaluate(PredictOnly(), pairs, batch_size=3)
    assert calls == [(3, 3600), (2, 3600)]  # one call per batch
    assert [r["snri"] for r in report.rows] == [0.0] * 5


def test_identity_model_snri_exactly_zero():
    report = evaluate(IdentityModel(), sample_pairs(4), batch_size=2)
    for row in report.rows:
        assert row["snri"] == 0.0


def test_oracle_model_perfect_scores():
    pairs = sample_pairs(4)
    report = evaluate(OracleModel(pairs), pairs, batch_size=2)
    assert report.n_excluded_inf == 4  # perfect output -> infinite SNR sentinel
    for row in report.rows:
        assert row["mae"] == 0.0
        assert row["prd"] == 0.0
        assert row["pcc"] == pytest.approx(1.0, abs=1e-12)
        assert row["snr_out"] == math.inf


def test_evaluate_aggregates_and_determinism():
    pairs = sample_pairs(6)
    a = evaluate(IdentityModel(), pairs, batch_size=4)
    b = evaluate(IdentityModel(), pairs, batch_size=3)
    assert a.n_segments == 6
    for metric in ("snri", "pcc", "mae"):
        assert a.aggregates[metric] == b.aggregates[metric]
    mean_mae = np.mean([r["mae"] for r in a.rows])
    assert a.mean("mae") == pytest.approx(mean_mae, abs=1e-15)


def test_evaluate_rejects_empty():
    with pytest.raises(MetricError):
        evaluate(IdentityModel(), [])


def test_segment_csv_columns(tmp_path):
    report = evaluate(IdentityModel(), sample_pairs(3), batch_size=2)
    path = tmp_path / "segments.csv"
    write_segment_csv(path, report)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 3
    assert rows[0]["noise_mix"] == "bw+em"


def test_evaluate_groups_hold_finite_means_per_mix_and_snr():
    pairs = sample_pairs(4) + sample_pairs(3, snr=5.0)
    report = evaluate(IdentityModel(), pairs, batch_size=3)
    assert [(g["noise_mix"], g["target_snr"], g["n"]) for g in report.groups] == [
        ("bw+em", 0.0, 4), ("bw+em", 5.0, 3)]
    for group, rows in zip(report.groups, (report.rows[:4], report.rows[4:])):
        for metric in ("mae", "pcc", "prd", "snr_in"):
            assert group[metric] == np.mean([r[metric] for r in rows])
        assert group["snri"] == 0.0


def test_segment_csv_writes_every_float_as_its_repr(tmp_path):
    values = [math.inf, 5e-324, 0.1 + 0.2, -0.0, 1e22, math.nan]
    row = {"segment_id": 0, "noise_mix": "bw", "target_snr": 0.1 + 0.2}
    report = MetricReport(rows=[{**row, **dict(zip(CSV_COLUMNS[3:], values))}])
    path = tmp_path / "segments.csv"
    write_segment_csv(path, report)
    assert path.read_text().splitlines()[1] == ",".join(
        ["0", "bw", repr(0.1 + 0.2)] + [repr(v) for v in values])
