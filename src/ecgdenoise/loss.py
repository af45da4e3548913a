"""Dual-domain training loss: smooth-L1 in time plus magnitude-spectrum MSE.

The spectral term compares one-sided DFT magnitudes over K = N//2 + 1 bins
(real signals carry no extra information in the mirrored half; counting it
would only double every interior bin). Arbitrary segment lengths are
supported directly; padding a segment to a power of two would change the bin
grid and is deliberately not done. Both terms carry exact analytic gradients.

The dual loss has one gradient: `loss_and_gradients`, which seeds every
training step from one pair of FFTs. `total_loss` is the same loss's report
alone, a plain function on arrays that records no tape node; validation reads
it, and gradcheck's end-to-end check takes its finite differences from it.
`spectral_loss` is the spectral term alone as a tape op, sharing its
`_spectral_*` helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeMismatch, Tensor, accumulate_grad, apply_op

__all__ = ["LossConfig", "LossReport", "dft", "spectral_loss", "total_loss", "loss_and_gradients"]


@dataclass
class LossConfig:
    beta: float = 1.0
    w_time: float = 1.0
    w_spectral: float = 0.1

    def validate(self) -> None:
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.w_time < 0 or self.w_spectral < 0 or self.w_time + self.w_spectral == 0:
            raise ValueError("loss weights must be non-negative and not both zero")


@dataclass
class LossReport:
    time_loss: float
    spectral_loss: float
    total: float


def _smooth_l1_value(e: np.ndarray, beta: float) -> float:
    return np.where(np.abs(e) < beta, 0.5 * e * e / beta, np.abs(e) - 0.5 * beta).mean()


def _smooth_l1_grad(e: np.ndarray, beta: float, scale: float) -> np.ndarray:
    """Gradient of scale * sum(smooth-L1(e)) with respect to e."""
    return np.where(np.abs(e) < beta, e / beta, np.sign(e)) * scale


def dft(x: np.ndarray) -> np.ndarray:
    """Two-sided discrete Fourier transform of a real signal along the last axis.

    Any length is supported (segment lengths here are not powers of two).
    """
    return np.fft.fft(np.asarray(x, dtype=np.float64), axis=-1)


def _halved_duplicate_bins(n: int) -> np.ndarray:
    """Weights that undo the doubling irfft applies to conjugate-paired bins."""
    k = n // 2 + 1
    w = np.full(k, 0.5)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def _magnitude_adjoint(spectrum: np.ndarray, coeff: np.ndarray, n: int) -> np.ndarray:
    """Map per-bin magnitude-gradient coefficients back to the time domain.

    `coeff` holds dL/d|X_k| on one-sided bins; zero-magnitude bins contribute
    nothing (the magnitude has no derivative at the origin, and the stable
    subgradient there is zero).
    """
    mag = np.abs(spectrum)
    safe = mag >= 1e-12
    unit = np.zeros_like(spectrum)
    np.divide(spectrum, mag, out=unit, where=safe)
    g = coeff * unit * _halved_duplicate_bins(n)
    # irfft reconstructs sum over the implied conjugate-symmetric spectrum / n
    return np.fft.irfft(g, n=n, axis=-1) * n


def _spectral_terms(y_hat: np.ndarray, y: np.ndarray):
    """Both one-sided spectra, one row per segment, and the loss value."""
    n = y_hat.shape[-1]
    spec_hat = np.fft.rfft(y_hat.reshape(-1, n), axis=-1)
    spec_ref = np.fft.rfft(y.reshape(-1, n), axis=-1)
    per_segment = ((np.abs(spec_ref) - np.abs(spec_hat)) ** 2).sum(axis=-1) / spec_hat.shape[-1]
    return spec_hat, spec_ref, per_segment.mean()


def _spectral_grad(spec: np.ndarray, spec_other: np.ndarray, n: int, scale: float) -> np.ndarray:
    """Gradient with respect to the rows behind `spec` of scale * the summed per-row error."""
    k = n // 2 + 1
    coeff = (2.0 / k) * (np.abs(spec) - np.abs(spec_other)) * scale
    return _magnitude_adjoint(spec, coeff, n)


def spectral_loss(y_hat: Tensor, y: Tensor) -> Tensor:
    """Mean over segments of the one-sided magnitude-spectrum squared error;
    only `y_hat` receives a gradient, the target `y` is a constant."""
    if y_hat.shape != y.shape:
        raise ShapeMismatch("spectral_loss", y_hat.shape, y.shape)
    n = y_hat.shape[-1]
    spec_hat, spec_ref, value = _spectral_terms(y_hat.data, y.data)
    out_data = np.array([value])

    def backward(g, y_hat=y_hat, spec_hat=spec_hat, spec_ref=spec_ref):
        scale = g[0] / spec_hat.shape[0]
        accumulate_grad(y_hat, _spectral_grad(spec_hat, spec_ref, n, scale).reshape(y_hat.shape))

    return apply_op(out_data, (y_hat,), backward)


def _terms(y_hat: np.ndarray, y: np.ndarray, config: LossConfig):
    """The report, the waveform error and both one-sided spectra."""
    config.validate()
    if y_hat.shape != y.shape:
        raise ShapeMismatch("loss", y_hat.shape, y.shape)
    e = y_hat - y
    time_value = _smooth_l1_value(e, config.beta)
    spec_hat, spec_ref, spectral_value = _spectral_terms(y_hat, y)
    total = time_value * config.w_time + spectral_value * config.w_spectral
    report = LossReport(time_loss=float(time_value), spectral_loss=float(spectral_value), total=float(total))
    return report, e, spec_hat, spec_ref


def total_loss(y_hat: np.ndarray, y: np.ndarray, config: LossConfig) -> LossReport:
    """Both domains' terms and their weighted sum. Raises `ShapeMismatch`
    unless `y_hat` and `y` have one shape."""
    return _terms(y_hat, y, config)[0]


def loss_and_gradients(y_hat: np.ndarray, y: np.ndarray, config: LossConfig):
    """`total_loss`'s report plus each weighted term's gradient with respect to y_hat.

    Returns ``(report, time_grad, spectral_grad)``; ``spectral_grad`` is None
    when the spectral weight is zero. Both spectra are computed once. Raises
    `ShapeMismatch` unless `y_hat` and `y` have one shape.
    """
    report, e, spec_hat, spec_ref = _terms(y_hat, y, config)
    time_grad = _smooth_l1_grad(e, config.beta, config.w_time / e.size)
    if config.w_spectral == 0:
        return report, time_grad, None
    scale = config.w_spectral / spec_hat.shape[0]
    spectral_grad = _spectral_grad(spec_hat, spec_ref, y_hat.shape[-1], scale).reshape(y_hat.shape)
    return report, time_grad, spectral_grad
