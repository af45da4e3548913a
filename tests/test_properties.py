"""Property tests of the conv kernels the layers and the fused stage call directly.

Both convolutions are bilinear in (input, weight), so their backward rules
must be adjoint to the forward: for any upstream g,
<conv(x, w), g> = <x, gx> = <w, gw>, and the bias gradient is g summed over
batch and length. Shapes, strides and padding are drawn at random.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ecgdenoise.layers import (  # noqa: E402
    _conv1d_forward,
    _conv1d_grads,
    _conv_transpose1d_forward,
    _conv_transpose1d_grads,
)

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def conv_cases(draw, transposed=False):
    batch = draw(st.integers(1, 3))
    c_in = draw(st.integers(1, 4))
    c_out = draw(st.integers(1, 4))
    kernel = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 3))
    padding = 0 if transposed else draw(st.integers(0, kernel))
    length = draw(st.integers(max(1, kernel - 2 * padding), 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((batch, c_in, length))
    w = rng.standard_normal((c_in, c_out, kernel) if transposed else (c_out, c_in, kernel))
    return x, w, stride, padding, rng


def _assert_adjoint(y, g, x, gx, w, gw, gb, scale):
    """scale bounds every product summed by the three inner products."""
    tol = 1e-12 * max(scale, 1e-300)
    assert gx.shape == x.shape and gw.shape == w.shape
    assert abs(np.vdot(y, g) - np.vdot(x, gx)) <= tol
    assert abs(np.vdot(y, g) - np.vdot(w, gw)) <= tol
    np.testing.assert_allclose(gb, g.sum(axis=(0, 2)), rtol=1e-12, atol=1e-12)


@PROPERTY
@given(conv_cases())
def test_conv1d_grads_are_adjoint_to_the_forward(case):
    x, w, stride, padding, rng = case
    y = _conv1d_forward(x, w, stride, padding)
    g = rng.standard_normal(y.shape)
    gx, gw, gb = _conv1d_grads(g, x, w, stride, padding)
    scale = np.vdot(_conv1d_forward(np.abs(x), np.abs(w), stride, padding), np.abs(g))
    _assert_adjoint(y, g, x, gx, w, gw, gb, scale)


@PROPERTY
@given(conv_cases(transposed=True))
def test_conv_transpose1d_grads_are_adjoint_to_the_forward(case):
    x, w, stride, _, rng = case
    y = _conv_transpose1d_forward(x, w, stride)
    g = rng.standard_normal(y.shape)
    gx, gw, gb = _conv_transpose1d_grads(g, x, w, stride)
    scale = np.vdot(_conv_transpose1d_forward(np.abs(x), np.abs(w), stride), np.abs(g))
    _assert_adjoint(y, g, x, gx, w, gw, gb, scale)
