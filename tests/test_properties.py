"""Property tests over randomly drawn inputs.

Both convolutions are bilinear in (input, weight), so their backward rules
must be adjoint to the forward: for any upstream g,
<conv(x, w), g> = <x, gx> = <w, gw>, and the bias gradient is g summed over
batch and length. Batch, channels, length and the conv's odd kernel are drawn
at random, lengths down to 1, shorter than the kernel's reach. The conv's
forward is also drawn in float32, which the eval path runs, and checked
against a float64 reference at a float32 tolerance.

`mix_at_snr` must hit its target SNR, SNR and PRD must obey
SNR = -20 log10(PRD / 100), and a checkpoint must round-trip bitwise with
any JSON `extra` and any optimizer-array shapes.
"""

import math
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ecgdenoise.data import mix_at_snr  # noqa: E402
from ecgdenoise.layers import (  # noqa: E402
    _conv1d_forward,
    _conv1d_grads,
    _conv_transpose1d_forward,
    _conv_transpose1d_grads,
)
from ecgdenoise.metrics import prd_pct, snr_db  # noqa: E402
from ecgdenoise.model import ModelConfig, TransformerUNet1D, load_checkpoint, save_checkpoint  # noqa: E402

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def conv_cases(draw, transposed=False, dtypes=(np.float64,)):
    dtype = draw(st.sampled_from(dtypes))
    batch = draw(st.integers(1, 3))
    c_in = draw(st.integers(1, 4))
    c_out = draw(st.integers(1, 4))
    kernel = 2 if transposed else draw(st.sampled_from((1, 3, 5, 7)))
    length = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((c_in, batch, length)).astype(dtype)  # channel-major, as the layers take it
    w = rng.standard_normal((c_in, c_out, kernel) if transposed else (c_out, c_in, kernel)).astype(dtype)
    return x, w, rng


def _assert_adjoint(y, g, x, gx, w, gw, scale):
    """scale bounds every product summed by the three inner products."""
    tol = 1e-12 * max(scale, 1e-300)
    assert gx.shape == x.shape and gw.shape == w.shape
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) <= tol
    assert abs(np.vdot(y, g) - np.vdot(w, gw)) <= tol


@PROPERTY
@given(conv_cases(dtypes=(np.float64, np.float32)))
def test_conv1d_grads_are_adjoint_to_the_forward(case):
    x, w, rng = case
    y = _conv1d_forward(x, w)
    assert y.dtype == x.dtype
    kernel, length = w.shape[2], x.shape[2]
    x, w = x.astype(np.float64), w.astype(np.float64)  # the reference sums in float64
    padded = np.pad(x.transpose(1, 0, 2), ((0, 0), (0, 0), (kernel // 2, kernel // 2)))
    reference = sum(np.matmul(w[:, :, t], padded[:, :, t : t + length]) for t in range(kernel)).transpose(1, 0, 2)
    if y.dtype == np.float32:
        # the eval path's conv: each output sums at most 28 rounded products,
        # so its error stays far below 1e-5 of the sum of their magnitudes
        assert np.all(np.abs(y - reference) <= 1e-5 * _conv1d_forward(np.abs(x), np.abs(w)))
        return  # the backward rules are float64 only
    np.testing.assert_allclose(y, reference, rtol=1e-12, atol=1e-12)
    g = rng.standard_normal(y.shape)
    gx, gw = _conv1d_grads(g, x, w)
    scale = np.vdot(_conv1d_forward(np.abs(x), np.abs(w)), np.abs(g))
    _assert_adjoint(y, g, x, gx, w, gw, scale)


@PROPERTY
@given(conv_cases(transposed=True))
def test_conv_transpose1d_grads_are_adjoint_to_the_forward(case):
    x, w, rng = case
    y = _conv_transpose1d_forward(x, w)
    assert y.shape[2] == 2 * x.shape[2]
    g = rng.standard_normal(y.shape)
    gx, gw, gb = _conv_transpose1d_grads(g, x, w)
    scale = np.vdot(_conv_transpose1d_forward(np.abs(x), np.abs(w)), np.abs(g))
    _assert_adjoint(y, g, x, gx, w, gw, scale)
    np.testing.assert_allclose(gb, g.sum(axis=(1, 2)), rtol=1e-12, atol=1e-12)


@st.composite
def signal_pairs(draw):
    """A signal and a non-zero disturbance of the same length, on scales 1e-3..1e3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 512))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    return scale * rng.standard_normal(n), rng.standard_normal(n)


@PROPERTY
@given(signal_pairs(), st.floats(-30.0, 40.0))
def test_mix_at_snr_hits_the_target_snr(pair, target_db):
    clean, noise = pair
    noisy, _ = mix_at_snr(clean, noise, target_db)
    assert abs(snr_db(clean, noisy) - target_db) < 1e-9


@PROPERTY
@given(signal_pairs(), st.floats(1e-6, 10.0))
def test_snr_is_minus_20_log10_of_prd(pair, amount):
    clean, noise = pair
    denoised = clean + amount * noise * np.sqrt(np.mean(clean**2) / np.mean(noise**2))
    assert abs(snr_db(clean, denoised) + 20.0 * math.log10(prd_pct(clean, denoised) / 100.0)) < 1e-9


_MODEL = TransformerUNet1D(ModelConfig(base_channels=2, transformer_layers=1, heads=2, input_len=32,
                                       seed=5))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@PROPERTY
@given(st.dictionaries(st.text(), _JSON, max_size=4),
       st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=4),
       st.integers(0, 2**32 - 1))
def test_checkpoint_roundtrip_is_bitwise(extra, shapes, seed):
    rng = np.random.default_rng(seed)
    arrays = [(f"opt{i}", rng.standard_normal(shape)) for i, shape in enumerate(shapes)]
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(f"{tmp}/ckpt", _MODEL, optimizer_arrays=arrays, extra=extra)
        model, header, optim = load_checkpoint(f"{tmp}/ckpt")
    assert header["extra"] == extra
    assert list(optim) == [name for name, _ in arrays]
    for (name, want) in arrays:
        assert optim[name].shape == want.shape and optim[name].tobytes() == want.tobytes()
    for (name, a), (_, b) in zip(_MODEL.parameters(), model.parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    for (name, a), (_, b) in zip(_MODEL.state_arrays(), model.state_arrays()):
        assert a.tobytes() == b.tobytes(), name
