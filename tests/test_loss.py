import numpy as np
import pytest

from conftest import central_diff, fd_wrt, rel_err, tape_grads
import reference
from ecgdenoise.loss import LossConfig, dft, loss_and_gradients, spectral_loss, total_loss
from ecgdenoise.tensor import ShapeMismatch, Tensor
from ecgdenoise.training import output_gradient
from reference import smooth_l1


def direct_dft(x: np.ndarray, chunk: int = 128) -> np.ndarray:
    """O(N^2) direct-summation DFT oracle, evaluated in bin chunks."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    out = np.zeros(n, dtype=np.complex128)
    ns = np.arange(n)
    for start in range(0, n, chunk):
        ks = np.arange(start, min(start + chunk, n))
        out[ks] = np.exp(-2j * np.pi * np.outer(ks, ns) / n) @ x
    return out


def spectral_loss_oracle(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Direct-DFT evaluation of the one-sided magnitude-spectrum MSE."""
    n = y_hat.shape[-1]
    k = n // 2 + 1
    vals = []
    for row_hat, row_ref in zip(y_hat.reshape(-1, n), y.reshape(-1, n)):
        mh = np.abs(direct_dft(row_hat)[:k])
        mr = np.abs(direct_dft(row_ref)[:k])
        vals.append(((mr - mh) ** 2).sum() / k)
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# smooth L1


def test_smooth_l1_zero_at_equality():
    x = Tensor(np.array([1.0, -2.0, 3.0]))
    assert smooth_l1(x, x, 1.0).item() == 0.0


def test_smooth_l1_boundary_value():
    assert smooth_l1(Tensor([1.0]), Tensor([0.0]), 1.0).item() == pytest.approx(0.5, abs=1e-15)


def test_smooth_l1_linear_branch():
    assert smooth_l1(Tensor([2.0]), Tensor([0.0]), 1.0).item() == pytest.approx(1.5, abs=1e-15)


def test_smooth_l1_is_c1_at_boundary():
    # numerical derivative approaching beta from both sides stays continuous
    beta, h = 1.0, 1e-7

    def val(e):
        return smooth_l1(Tensor([e]), Tensor([0.0]), beta).item()

    left = (val(beta - h) - val(beta - 3 * h)) / (2 * h)
    right = (val(beta + 3 * h) - val(beta + h)) / (2 * h)
    assert abs(left - right) < 1e-6
    assert abs(left - 1.0) < 1e-6  # slope of both branches at the joint


def test_smooth_l1_gradient_vs_fd():
    rng = np.random.default_rng(2)
    y_hat = Tensor(rng.standard_normal((2, 1, 10)) * 2.0, requires_grad=True)
    y = Tensor(rng.standard_normal((2, 1, 10)))
    (gh,) = tape_grads(lambda: smooth_l1(y_hat, y, 1.0), [y_hat])
    fd_h = fd_wrt(y_hat, lambda: smooth_l1(y_hat, y, 1.0).item())
    assert rel_err(gh, fd_h) < 1e-6


def test_smooth_l1_rejects_bad_args():
    with pytest.raises(ShapeMismatch):
        smooth_l1(Tensor([1.0, 2.0]), Tensor([1.0]), 1.0)
    with pytest.raises(ValueError):
        smooth_l1(Tensor([1.0]), Tensor([1.0]), 0.0)


# ---------------------------------------------------------------------------
# DFT


def test_dft_impulse():
    np.testing.assert_allclose(dft(np.array([1.0, 0.0, 0.0, 0.0])), np.ones(4), atol=1e-15)


def test_dft_constant():
    out = dft(np.full(8, 3.0))
    assert out[0] == pytest.approx(24.0)
    np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)


@pytest.mark.parametrize("n", [16, 225, 3600])
def test_dft_matches_direct_summation(n):
    x = np.random.default_rng(n).standard_normal(n)
    fast = dft(x)
    slow = direct_dft(x)
    assert np.max(np.abs(fast - slow)) < 1e-8


@pytest.mark.parametrize("n", [16, 225, 3600])
def test_parseval_identity(n):
    x = np.random.default_rng(n + 1).standard_normal(n)
    spectral_energy = (np.abs(dft(x)) ** 2).sum() / n
    assert abs(spectral_energy - (x**2).sum()) < 1e-8


# ---------------------------------------------------------------------------
# spectral loss


def test_spectral_loss_zero_at_equality():
    x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 16)))
    assert spectral_loss(x, x).item() == 0.0


def test_spectral_loss_impulse_vs_zero():
    y = Tensor(np.array([[[1.0, 0.0, 0.0, 0.0]]]))
    y_hat = Tensor(np.zeros((1, 1, 4)))
    # one-sided magnitudes of the impulse are (1, 1, 1) over K=3 bins
    assert spectral_loss(y_hat, y).item() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [16, 225])
def test_spectral_loss_matches_direct_oracle(n):
    rng = np.random.default_rng(n + 2)
    y_hat = rng.standard_normal((3, 1, n))
    y = rng.standard_normal((3, 1, n))
    fast = spectral_loss(Tensor(y_hat), Tensor(y)).item()
    assert abs(fast - spectral_loss_oracle(y_hat, y)) < 1e-8


def test_spectral_loss_gradient_vs_fd():
    rng = np.random.default_rng(8)
    for trial in range(3):
        y_hat = Tensor(rng.standard_normal((2, 1, 16)), requires_grad=True)
        y = Tensor(rng.standard_normal((2, 1, 16)))
        (gh,) = tape_grads(lambda: spectral_loss(y_hat, y), [y_hat])
        fd_h = fd_wrt(y_hat, lambda: spectral_loss(y_hat, y).item(), eps=1e-6)
        assert rel_err(gh, fd_h, floor=1e-6) < 1e-6


def test_spectral_loss_invariant_to_joint_circular_shift():
    rng = np.random.default_rng(10)
    y_hat = rng.standard_normal(32)
    y = rng.standard_normal(32)
    base = spectral_loss(Tensor(y_hat), Tensor(y)).item()
    for shift in (1, 7, 16):
        shifted = spectral_loss(
            Tensor(np.roll(y_hat, shift)), Tensor(np.roll(y, shift))
        ).item()
        assert abs(shifted - base) < 1e-10


def test_spectral_loss_nonnegative_and_zero_only_at_match():
    rng = np.random.default_rng(11)
    y = rng.standard_normal((1, 1, 16))
    y_hat = y + rng.standard_normal((1, 1, 16)) * 0.1
    assert spectral_loss(Tensor(y_hat), Tensor(y)).item() > 0.0


# ---------------------------------------------------------------------------
# combined


def test_total_loss_weighted_composition():
    y = np.array([[[1.0, 0.0, 0.0, 0.0]]])
    y_hat = np.zeros((1, 1, 4))
    cfg = LossConfig(beta=1.0, w_time=1.0, w_spectral=0.1)
    report = total_loss(y_hat, y, cfg)
    assert report.time_loss == pytest.approx(0.125, abs=1e-15)
    assert report.spectral_loss == pytest.approx(1.0, abs=1e-12)
    assert report.total == pytest.approx(0.225, abs=1e-12)


def test_total_loss_time_only_when_spectral_weight_zero():
    rng = np.random.default_rng(12)
    y_hat = rng.standard_normal((2, 1, 8))
    y = rng.standard_normal((2, 1, 8))
    cfg = LossConfig(w_time=1.0, w_spectral=0.0)
    report = total_loss(y_hat, y, cfg)
    assert report.total == smooth_l1(Tensor(y_hat), Tensor(y), cfg.beta).item()
    assert report.total == report.time_loss


def test_total_loss_zero_when_equal_and_time_weight_zero():
    x = np.random.default_rng(13).standard_normal((1, 1, 8))
    assert total_loss(x, x, LossConfig(w_time=0.0, w_spectral=1.0)).total == 0.0


def test_total_loss_report_identity_is_exact():
    rng = np.random.default_rng(14)
    y_hat = rng.standard_normal((2, 1, 12))
    y = rng.standard_normal((2, 1, 12))
    cfg = LossConfig(beta=0.7, w_time=0.9, w_spectral=0.2)
    report = total_loss(y_hat, y, cfg)
    assert report.total == cfg.w_time * report.time_loss + cfg.w_spectral * report.spectral_loss


def test_summed_training_gradient_is_the_gradient_of_total_loss():
    rng = np.random.default_rng(15)
    y_hat = rng.standard_normal((1, 1, 16))
    y = rng.standard_normal((1, 1, 16))
    cfg = LossConfig(w_time=0.5, w_spectral=0.25)
    _, time_grad, spectral_grad = loss_and_gradients(y_hat, y, cfg)
    fd = central_diff(lambda a: total_loss(a, y, cfg).total, y_hat.copy(), eps=1e-6)
    assert rel_err(time_grad + spectral_grad, fd, floor=1e-6) < 1e-6


def test_total_loss_and_the_training_gradient_match_the_composed_reference():
    rng = np.random.default_rng(16)
    y_hat = Tensor(rng.standard_normal((2, 1, 24)), requires_grad=True)
    y = Tensor(rng.standard_normal((2, 1, 24)))
    cfg = LossConfig(beta=0.8, w_time=0.7, w_spectral=0.3)
    report = total_loss(y_hat.data, y.data, cfg)
    expected, time_grad, spectral_grad = loss_and_gradients(y_hat.data, y.data, cfg)
    assert report == expected
    # against the composition of both terms that the package no longer builds
    assert reference.total_loss(y_hat, y, cfg)[1] == report
    (g,) = tape_grads(lambda: reference.total_loss(y_hat, y, cfg)[0], [y_hat])
    assert np.array_equal(g, time_grad + spectral_grad)


@pytest.mark.parametrize("loss_fn", [
    lambda y_hat, y, cfg: loss_and_gradients(y_hat, y, cfg),
    lambda y_hat, y, cfg: output_gradient(y_hat, y, cfg),
    lambda y_hat, y, cfg: total_loss(y_hat, y, cfg),
], ids=["loss_and_gradients", "output_gradient", "total_loss"])
def test_loss_rejects_mismatched_shapes(loss_fn):
    # (2, 1, 8) against (2, 8) would broadcast to a (2, 2, 8) gradient
    rng = np.random.default_rng(17)
    with pytest.raises(ShapeMismatch):
        loss_fn(rng.standard_normal((2, 1, 8)), rng.standard_normal((2, 8)), LossConfig())


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(beta=-1.0).validate()
    with pytest.raises(ValueError):
        LossConfig(w_time=0.0, w_spectral=0.0).validate()
