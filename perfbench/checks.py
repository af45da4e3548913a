"""Output checks, computed apart from the package or from properties the method must have.

Every check raises `CheckFailure` with a message that says what differed. The
numpy references here share no code with ``ecgdenoise``: the smooth-L1 and
magnitude-spectrum losses, their gradients with respect to the model output
(the spectral one through a full-length inverse FFT, not the package's
one-sided adjoint), and a central-difference gradient that runs forward passes
only.
"""

from __future__ import annotations

import csv
import math

import numpy as np


class CheckFailure(AssertionError):
    """A benchmark output that the method could not have produced."""


def _close(name, got, want, rtol):
    if not (math.isfinite(got) and abs(got - want) <= rtol * abs(want)):
        raise CheckFailure(f"{name}: package {got!r} vs reference {want!r} (rtol {rtol:g})")


# ---------------------------------------------------------------------------
# reference losses and output gradients


def smooth_l1(y_hat, y, beta):
    e = y_hat - y
    a = np.abs(e)
    return float(np.mean(np.where(a < beta, 0.5 * e * e / beta, a - 0.5 * beta)))


def spectral(y_hat, y):
    n = y_hat.shape[-1]
    k = n // 2 + 1
    mag_hat = np.abs(np.fft.rfft(y_hat.reshape(-1, n), axis=-1))
    mag_ref = np.abs(np.fft.rfft(y.reshape(-1, n), axis=-1))
    return float(np.mean(((mag_hat - mag_ref) ** 2).sum(axis=-1) / k))


def output_gradient_norms(y_hat, y, beta, w_time, w_spectral):
    """Norms of the two weighted loss terms' gradients with respect to y_hat."""
    e = y_hat - y
    g_time = w_time * np.where(np.abs(e) < beta, e / beta, np.sign(e)) / e.size
    n = y_hat.shape[-1]
    k = n // 2 + 1
    spec = np.fft.rfft(y_hat.reshape(-1, n), axis=-1)
    mag = np.abs(spec)
    coeff = w_spectral * (2.0 / k) * (mag - np.abs(np.fft.rfft(y.reshape(-1, n), axis=-1)))
    coeff /= spec.shape[0]
    unit = np.divide(spec, mag, out=np.zeros_like(spec), where=mag >= 1e-12)
    # d|X_k|/dx_t = Re(conj(u_k) exp(-2 pi i k t / n)); sum over one-sided bins
    full = np.zeros((spec.shape[0], n), dtype=complex)
    full[:, :k] = coeff * unit
    g_spec = n * np.fft.ifft(full, axis=-1).real
    return float(np.linalg.norm(g_time)), float(np.linalg.norm(g_spec))


def cap_factor(time_norm, spectral_norm, w_time, w_spectral):
    """The training step's fixed scale on the spectral term."""
    if w_time > 0 and w_spectral > 0 and spectral_norm > time_norm:
        return time_norm / spectral_norm
    return 1.0


# ---------------------------------------------------------------------------
# training checks


def check_loss_report(report_time, report_spectral, y_hat, y, beta):
    """The package's reported loss terms equal the numpy references."""
    _close("time loss", report_time, smooth_l1(y_hat, y, beta), 1e-9)
    _close("spectral loss", report_spectral, spectral(y_hat, y), 1e-9)


def check_norms(norms, y_hat, y, loss_cfg):
    want = output_gradient_norms(y_hat, y, loss_cfg.beta, loss_cfg.w_time, loss_cfg.w_spectral)
    _close("time gradient norm", norms[0], want[0], 1e-8)
    _close("spectral gradient norm", norms[1], want[1], 1e-8)


def check_gradients(loss_at, params, grads, entries, h=1e-7, rtol=1e-3):
    """Sampled gradient entries against central differences of `loss_at()`.

    `params` maps names to arrays that `loss_at` reads; `entries` lists
    (name, flat index) pairs. The tolerance is a tenth of a 1% error. The step
    is small because ReLU kinks and maxpool switches crossed within +-h bias
    the difference; at h = 1e-7 the worst of 36 sampled entries was 1.7e-5.
    """
    worst = 0.0
    for name, index in entries:
        flat = params[name].reshape(-1)
        orig = flat[index]
        flat[index] = orig + h
        up = loss_at()
        flat[index] = orig - h
        down = loss_at()
        flat[index] = orig
        fd = (up - down) / (2.0 * h)
        got = float(grads[name].reshape(-1)[index])
        err = abs(got - fd) / max(abs(fd), 1e-12)
        worst = max(worst, err)
        if not err <= rtol:
            raise CheckFailure(
                f"gradient {name}[{index}]: step {got!r} vs central difference {fd!r} "
                f"(relative error {err:.2e} > {rtol:g})")
    return worst


def check_loss_falls(log_path):
    """Epoch rows of log.csv: finite totals, and the last below the first."""
    with open(log_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    totals = [float(r["train_total"]) for r in rows]
    if len(totals) < 2 or not all(math.isfinite(t) for t in totals):
        raise CheckFailure(f"{log_path}: need two or more finite epoch losses, got {totals}")
    if not totals[-1] < totals[0]:
        raise CheckFailure(f"{log_path}: training loss did not fall ({totals[0]!r} -> {totals[-1]!r})")
    return rows


def check_val_total(logged, outputs, targets, loss_cfg):
    """The logged validation total equals w_t*time + w_s*spectral recomputed."""
    want = (loss_cfg.w_time * smooth_l1(outputs, targets, loss_cfg.beta)
            + loss_cfg.w_spectral * spectral(outputs, targets))
    _close("validation total", logged, want, 1e-8)


def check_evaluation(report, n_pairs, require_gain):
    if report.n_segments != n_pairs:
        raise CheckFailure(f"evaluate scored {report.n_segments} of {n_pairs} segments")
    snri = report.aggregates["snri"][0]
    if not math.isfinite(snri):
        raise CheckFailure(f"evaluate: mean SNRI is {snri!r}")
    if require_gain and not snri > 0:
        raise CheckFailure(f"evaluate: mean test SNRI {snri:.3f} dB is not above 0")
    return snri


# ---------------------------------------------------------------------------
# denoise checks


def check_denoised(inp, out):
    if out.shape != inp.shape:
        raise CheckFailure(f"denoise: {out.size} samples out for {inp.size} in")
    if not np.all(np.isfinite(out)):
        raise CheckFailure("denoise: output has non-finite samples")


def check_affine(out_x, out_ax, a, b, rtol=1e-9):
    """denoise(a*x + b) = a*denoise(x) + b for a > 0 (windows are z-normalized)."""
    want = a * out_x + b
    scale = float(np.max(np.abs(want)))
    err = float(np.max(np.abs(out_ax - want))) if out_ax.shape == want.shape else math.inf
    if not err <= rtol * scale:
        raise CheckFailure(f"denoise: affine error {err:.3e} > {rtol:g} x {scale:.3g}")
    return err / scale


def check_constant(inp, out):
    if out.shape != inp.shape or not np.array_equal(out, inp):
        raise CheckFailure("denoise: a constant record did not come back unchanged")
