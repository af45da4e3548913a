import numpy as np
import pytest

from ecgdenoise.optim import AdamW, CosineSchedule, MissingGradient
from ecgdenoise.tensor import Tensor


def make_param(values):
    t = Tensor(np.array(values, dtype=float), requires_grad=True)
    return ("p", t), t


def test_zero_gradient_zero_decay_leaves_params():
    named, p = make_param([1.0, -2.0, 3.0])
    opt = AdamW([named], lr=0.01, weight_decay=0.0)
    p.grad = np.zeros_like(p.data)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_first_step_hand_value():
    named, p = make_param(np.zeros(5))
    opt = AdamW([named], lr=0.001, weight_decay=0.0)
    p.grad = np.ones(5)
    opt.step()
    expected = -0.001 * (1.0 / (1.0 + 1e-8))
    assert np.max(np.abs(p.data - expected)) < 1e-12


def test_weight_decay_shrinks_toward_zero():
    named, p = make_param([4.0, -4.0])
    opt = AdamW([named], lr=0.1, weight_decay=0.5)
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    np.testing.assert_allclose(p.data, before * (1.0 - 0.1 * 0.5), atol=1e-15)


def test_missing_gradient_raises():
    named, p = make_param([1.0])
    opt = AdamW([named])
    with pytest.raises(MissingGradient):
        opt.step()


def test_step_counter_increments_once_per_step():
    named, p = make_param([1.0])
    opt = AdamW([named])
    for expected in (1, 2, 3):
        p.grad = np.ones(1)
        opt.step()
        assert opt.t == expected


def test_steps_are_bitwise_deterministic():
    def run():
        named, p = make_param([0.3, -0.7])
        opt = AdamW([named], lr=0.02, weight_decay=0.01)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p.grad = rng.standard_normal(2)
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def test_float32_gradient_steps_as_its_float64_upcast():
    # the moments are formed in float64: in float32, g * g underflows to 0 for
    # |g| below about 1e-23, and v would never see those entries
    rng = np.random.default_rng(9)
    grads = [(rng.standard_normal(6) * 10.0 ** rng.integers(-30, 2, 6)).astype(np.float32) for _ in range(5)]
    assert all(g.dtype == np.float32 for g in grads)
    steps = []
    for upcast in (False, True):
        named, p = make_param(np.linspace(-1.0, 1.0, 6))
        opt = AdamW([named], lr=0.01, weight_decay=0.01)
        for g in grads:
            p.grad = g.astype(np.float64) if upcast else g
            opt.step()
        steps.append((p.data.tobytes(), opt.m["p"].tobytes(), opt.v["p"].tobytes()))
        assert p.data.dtype == opt.m["p"].dtype == opt.v["p"].dtype == np.float64
    assert steps[0] == steps[1]


def test_quadratic_convergence_sanity():
    # single-parameter quadratic reaches its minimum within 1e-6 in <= 2000 steps
    named, p = make_param([5.0])
    opt = AdamW([named], lr=0.01, weight_decay=0.0)
    target = 3.0
    for step in range(2000):
        p.grad = 2.0 * (p.data - target)
        opt.step()
        if abs(p.data[0] - target) < 1e-6:
            break
    assert abs(p.data[0] - target) < 1e-6


def test_optimizer_state_roundtrip():
    named, p = make_param([1.0, 2.0])
    opt = AdamW([named], lr=0.05)
    for _ in range(3):
        p.grad = np.array([0.1, -0.2])
        opt.step()
    arrays = dict(opt.state_arrays())

    named2, p2 = make_param([1.0, 2.0])
    opt2 = AdamW([named2], lr=0.05)
    opt2.load_state_arrays({k: v.copy() for k, v in arrays.items()}, step=opt.t)
    p2.data[...] = p.data
    p.grad = p2.grad = np.array([0.3, 0.4])
    opt.step()
    opt2.step()
    np.testing.assert_array_equal(p.data, p2.data)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_endpoints_exact():
    sched = CosineSchedule(eta_max=1e-3, eta_min=1e-6, t_max=100)
    assert sched.lr_at(0) == 1e-3
    assert sched.lr_at(100) == 1e-6
    assert sched.lr_at(250) == 1e-6  # clamped past t_max


def test_schedule_midpoint_exact():
    sched = CosineSchedule(eta_max=1e-3, eta_min=1e-6, t_max=100)
    # the faithful float evaluation of the midpoint (eta_max + eta_min) / 2
    assert sched.lr_at(50) == 1e-6 + 0.5 * (1e-3 - 1e-6)


def test_schedule_monotone_nonincreasing():
    sched = CosineSchedule(eta_max=5e-3, eta_min=1e-6, t_max=77)
    values = [sched.lr_at(e) for e in range(0, 120)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        CosineSchedule(eta_max=1e-6, eta_min=1e-3)
    with pytest.raises(ValueError):
        CosineSchedule(eta_max=1e-3).lr_at(-1)
