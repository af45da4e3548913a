"""Property tests over randomly drawn inputs.

Both convolutions are bilinear in (input, weight), so their backward rules
must be adjoint to the forward: for any upstream g,
<conv(x, w), g> = <x, gx> = <w, gw>, and the bias gradient is g summed over
batch and length. Batch, channels, length and the conv's odd kernel are drawn
at random, lengths down to 1, shorter than the kernel's reach. The conv is
also drawn in float32, which inference and every training step run: its
forward is checked against a float64 reference and its backward's adjoint
identity holds, both at a float32 tolerance.

The synthesis (`synth_ecg` and the bw and em noise generators) must be
bit-identical to the loops in `tests/reference.py` for any seed, rate,
heart rate and length, records shorter than one beat among them.

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

import reference  # noqa: E402
from ecgdenoise.data import _gen_bw, _gen_em, mix_at_snr, synth_ecg  # noqa: E402
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


def _assert_adjoint(y, g, x, gx, w, gw, scale, rtol=1e-12):
    """scale bounds every product summed by the three inner products, which
    are taken in float64 whatever the arrays' dtype."""
    tol = rtol * max(scale, 1e-300)
    assert gx.shape == x.shape and gw.shape == w.shape
    y, g, x, gx, w, gw = (a.astype(np.float64) for a in (y, g, x, gx, w, gw))
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) <= tol
    assert abs(np.vdot(y, g) - np.vdot(w, gw)) <= tol


@PROPERTY
@given(conv_cases(dtypes=(np.float64, np.float32)))
def test_conv1d_grads_are_adjoint_to_the_forward(case):
    x, w, rng = case
    y = _conv1d_forward(x, w)
    g = rng.standard_normal(y.shape).astype(x.dtype)
    gx, gw = _conv1d_grads(g, x, w)
    assert y.dtype == gx.dtype == gw.dtype == x.dtype
    kernel, length = w.shape[2], x.shape[2]
    x64, w64 = x.astype(np.float64), w.astype(np.float64)  # the reference sums in float64
    padded = np.pad(x64.transpose(1, 0, 2), ((0, 0), (0, 0), (kernel // 2, kernel // 2)))
    reference = sum(np.matmul(w64[:, :, t], padded[:, :, t : t + length]) for t in range(kernel)).transpose(1, 0, 2)
    bound = _conv1d_forward(np.abs(x64), np.abs(w64))
    scale = np.vdot(bound, np.abs(g))
    if y.dtype == np.float32:
        # the float32 conv of inference and training: an output or input-gradient
        # entry sums at most 28 rounded products, a weight-gradient entry at most
        # 72, so each identity's error stays far below 1e-5 of the magnitudes' sum
        assert np.all(np.abs(y - reference) <= 1e-5 * bound)
        _assert_adjoint(y, g, x, gx, w, gw, scale, rtol=1e-5)
        return
    np.testing.assert_allclose(y, reference, rtol=1e-12, atol=1e-12)
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


SEEDS = st.integers(0, 2**63 - 1)
RATES = st.sampled_from((128.0, 250.0, 360.0, 500.0, 1000.0))


@PROPERTY
@given(st.one_of(st.floats(0.1, 2.0), st.floats(0.1, 700.0)), RATES, st.floats(30.0, 220.0), SEEDS)
def test_synth_ecg_is_bit_identical_to_the_beat_loop(duration_s, fs, bpm, seed):
    samples = synth_ecg(duration_s, fs, bpm, seed).samples
    assert samples.tobytes() == reference.synth_ecg(duration_s, fs, bpm, seed).tobytes()


@PROPERTY
@given(st.sampled_from(("bw", "em")), st.integers(1, 216_000), RATES, SEEDS)
def test_noise_generators_are_bit_identical_to_their_loops(kind, n, fs, seed):
    package, loop = {"bw": (_gen_bw, reference.gen_bw), "em": (_gen_em, reference.gen_em)}[kind]
    x = package(np.random.default_rng(seed), n, fs)
    assert x.tobytes() == loop(np.random.default_rng(seed), n, fs).tobytes()


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
