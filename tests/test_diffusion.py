import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duetdiff.diffusion import NoiseSchedule, ddim_step, forward_diffuse, sdedit_init
from duetdiff.model import DiffusionModel, ModelConfig
from duetdiff.rng import Rng
from duetdiff.tensor import ShapeError, Tensor

from tiny import TINY


def _schedule(total_steps: int, **betas) -> NoiseSchedule:
    """The schedule of a config with ``total_steps``, at the default betas unless given."""
    return NoiseSchedule(ModelConfig(total_steps=total_steps, **betas))


def test_single_step_schedule():
    sched = _schedule(1, beta_start=0.1, beta_end=0.1)
    assert sched.alpha_bar(1) == pytest.approx(0.9)


def test_two_step_schedule_hand_product():
    sched = _schedule(2, beta_start=0.1, beta_end=0.2)
    assert sched.alpha_bar(1) == pytest.approx(0.9)
    assert sched.alpha_bar(2) == pytest.approx(0.72)


def test_default_schedule_endpoint():
    sched = _schedule(1000)
    assert sched.alpha_bar(1000) < 1e-4


def test_schedule_equality_is_identity():
    a, b = _schedule(10), _schedule(10)
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a)
    assert np.array_equal(a.betas, b.betas)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=1e-5, max_value=0.01),
    st.floats(min_value=0.011, max_value=0.5),
)
def test_schedule_recurrence_and_monotonicity(total, b0, b1):
    sched = _schedule(total, beta_start=b0, beta_end=b1)
    bars = sched.alpha_bar(np.arange(1, total + 1))
    assert np.all(np.diff(bars) < 0) or total == 1
    assert bars[-1] < 1.0
    prev = 1.0
    for t in range(1, total + 1):
        expected = prev * (1.0 - sched.betas[t - 1])
        assert sched.alpha_bar(t) == pytest.approx(expected, rel=1e-12)
        prev = expected


def test_forward_noiseless():
    sched = _schedule(10)
    x0 = Tensor(np.linspace(-1, 1, 8))
    out = forward_diffuse(x0, 5, Tensor(np.zeros(8)), sched)
    assert np.allclose(out.data, np.sqrt(sched.alpha_bar(5)) * x0.data)


def test_forward_pure_noise():
    sched = _schedule(10)
    eps = Tensor(Rng(0).gaussian((8,)))
    out = forward_diffuse(Tensor(np.zeros(8)), 7, eps, sched)
    assert np.allclose(out.data, np.sqrt(1 - sched.alpha_bar(7)) * eps.data)


def test_forward_inverse_identity():
    sched = _schedule(50)
    rng = Rng(5)
    for case in range(30):
        t = int(rng.integers(1, 50)[0]) + 1
        x0 = rng.gaussian((4, 4))
        eps = rng.gaussian((4, 4))
        xt = forward_diffuse(Tensor(x0), t, Tensor(eps), sched).data
        abar = sched.alpha_bar(t)
        rec = (xt - np.sqrt(1 - abar) * eps) / np.sqrt(abar)
        assert np.max(np.abs(rec - x0)) <= 1e-6


def test_forward_batched_matches_scalar():
    sched = _schedule(30)
    rng = Rng(6)
    x0 = rng.gaussian((3, 2, 4, 4))
    eps = rng.gaussian((3, 2, 4, 4))
    t = np.array([1, 13, 30])
    batched = forward_diffuse(Tensor(x0), t, Tensor(eps), sched).data
    for i, ti in enumerate(t):
        single = forward_diffuse(Tensor(x0[i]), int(ti), Tensor(eps[i]), sched).data
        assert np.allclose(batched[i], single, atol=1e-12)


def test_forward_rejects_bad_t():
    sched = _schedule(10)
    x = Tensor(np.zeros(3))
    with pytest.raises(ValueError):
        forward_diffuse(x, 0, x, sched)
    with pytest.raises(ValueError):
        forward_diffuse(x, 11, x, sched)
    with pytest.raises(ShapeError):
        forward_diffuse(x, 1, Tensor(np.zeros(4)), sched)


@pytest.mark.parametrize("rows, t", [(1, [5, 6, 7]), (2, [[5], [6]]), (2, [5, 6, 7])],
                         ids=["grows-one-row", "column-t", "too-many-steps"])
def test_forward_rejects_a_t_that_is_not_one_step_per_row(rows, t):
    # the schedule's per_row makes the call for forward_diffuse and predict_eps alike
    model = DiffusionModel(TINY, dtype=np.float64)
    x = Tensor(np.zeros((rows, 3, TINY.canvas, TINY.canvas)))
    cond = model.conditioner.fuse_null(rows)
    t = np.array(t)
    calls = {"forward_diffuse": lambda: forward_diffuse(x, t, x, model.schedule),
             "predict_eps": lambda: model.predict_eps(x, t, cond)}
    for call in calls.values():
        with pytest.raises(ShapeError, match=re.escape(f"t shape {t.shape} != ({rows},)")):
            call()


@pytest.mark.parametrize("t", [5, np.int64(5), np.array(5), np.array([5, 6, 7]),
                               np.array([5, 6, 7], dtype=np.int32)],
                         ids=["int", "int64", "0d-array", "row-array", "row-array-int32"])
def test_per_row_gives_one_step_per_row(t):
    rows = _schedule(10).per_row(t, 3)
    assert rows.shape == (3,) and rows.dtype == np.asarray(t).dtype
    assert np.array_equal(rows, np.broadcast_to(t, (3,)))


def test_forward_takes_an_int_or_0d_t_for_any_batch():
    sched = _schedule(10)
    for shape in ((8,), (1, 3, 4, 4), (3, 3, 4, 4)):
        x = Tensor(np.ones(shape))
        expected = np.full(shape, np.sqrt(sched.alpha_bar(4)))
        for t in (4, np.int64(4), np.array(4)):
            assert np.array_equal(forward_diffuse(x, t, Tensor(np.zeros(shape)), sched).data, expected)


def test_ddim_t_prev_zero_returns_x0_hat():
    sched = _schedule(20)
    rng = Rng(7)
    x0 = rng.gaussian((3, 3))
    eps = rng.gaussian((3, 3))
    t = 14
    xt = forward_diffuse(Tensor(x0), t, Tensor(eps), sched)
    out = ddim_step(xt, t, 0, Tensor(eps), sched)
    assert np.max(np.abs(out.data - x0)) <= 1e-10


def test_ddim_zero_eps_is_exact_rescale():
    sched = _schedule(20)
    xt = Tensor(Rng(8).gaussian((4,)))
    out = ddim_step(xt, 15, 5, Tensor(np.zeros(4)), sched)
    factor = np.sqrt(sched.alpha_bar(5) / sched.alpha_bar(15))
    assert np.allclose(out.data, factor * xt.data, rtol=1e-12)
    assert factor >= 1.0


def test_ddim_rejects_non_decreasing_pair():
    sched = _schedule(20)
    x = Tensor(np.zeros(2))
    with pytest.raises(ValueError):
        ddim_step(x, 5, 5, x, sched)
    with pytest.raises(ValueError):
        ddim_step(x, 5, 9, x, sched)


@pytest.mark.parametrize("arg, ts", [
    ("t", (np.array([5, 6]), 2)),
    ("t", (np.array([5]), np.array([2]))),
    ("t_prev", (5, np.array([2, 3]))),
], ids=["ddim-t", "ddim-1-entry-t", "ddim-t-prev"])
def test_reverse_steps_reject_a_step_that_is_not_0d_by_name(arg, ts):
    sched = _schedule(20)
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=rf"^ddim_step: {arg} must be a single step \(0-d\)"):
        ddim_step(x, *ts, x, sched)


def test_reverse_steps_take_a_0d_array_step():
    sched = _schedule(20)
    x, eps = Tensor(Rng(9).gaussian((2, 3))), Tensor(Rng(10).gaussian((2, 3)))
    assert np.array_equal(ddim_step(x, np.asarray(15), np.asarray(5), eps, sched).data,
                          ddim_step(x, 15, 5, eps, sched).data)


def test_ddim_rejects_steps_outside_the_schedule():
    sched = _schedule(20)
    x = Tensor(np.zeros(2))
    with pytest.raises(ValueError, match=r"t=21 outside schedule range \[0, 20\]"):
        ddim_step(x, 21, 5, x, sched)
    with pytest.raises(ValueError, match=r"t=-1 outside schedule range \[0, 20\]"):
        ddim_step(x, 5, -1, x, sched)


def _oracle_eps(x_star):
    def eps_star(xt, t, sched):
        abar = sched.alpha_bar(t)
        return (xt - np.sqrt(abar) * x_star) / np.sqrt(1.0 - abar)

    return eps_star


def _sampler_times(total, n):
    return [round(total * (n - i) / n) for i in range(n)]


def test_ddim_single_point_oracle_recovers_target():
    # optimal predictor for a one-point dataset: any trajectory must land on it
    sched = _schedule(1000)
    x_star = Rng(10).gaussian((2, 4, 4))
    eps_star = _oracle_eps(x_star)
    times = _sampler_times(1000, 50)
    for start in range(10):
        x = Rng(1000 + start).gaussian((2, 4, 4))
        for i, t in enumerate(times):
            t_prev = times[i + 1] if i + 1 < len(times) else 0
            x = ddim_step(Tensor(x), t, t_prev, Tensor(eps_star(x, t, sched)), sched).data
        assert np.max(np.abs(x - x_star)) <= 1e-4


def test_sdedit_boundaries():
    sched = _schedule(1000)
    times = _sampler_times(1000, 50)
    source = Tensor(Rng(13).gaussian((1, 4, 4)))
    x, idx = sdedit_init(source, 0.0, times, sched, Rng(0))
    assert idx == 0
    assert x is source
    x, idx = sdedit_init(source, 1.0, times, sched, Rng(0))
    assert idx == 50
    expected = forward_diffuse(source, times[0], Tensor(Rng(0).gaussian(source.shape)), sched)
    assert np.array_equal(x.data, expected.data)


def test_sdedit_index_arithmetic():
    sched = _schedule(1000)
    times = _sampler_times(1000, 50)
    source = Tensor(np.zeros((1, 2, 2)))
    _, idx = sdedit_init(source, 0.8, times, sched, Rng(1))
    assert idx == 40
    x, _ = sdedit_init(source, 0.8, times, sched, Rng(1))
    # noised at the 10th entry of the descending time list
    expected = forward_diffuse(source, times[10], Tensor(Rng(1).gaussian(source.shape)), sched)
    assert np.array_equal(x.data, expected.data)


def test_sdedit_float_floor_guard():
    sched = _schedule(1000)
    times = _sampler_times(1000, 50)
    source = Tensor(np.zeros((1, 2, 2)))
    _, idx = sdedit_init(source, 0.7, times, sched, Rng(1))
    assert idx == 35


def test_sdedit_rejects_bad_strength():
    sched = _schedule(10)
    times = _sampler_times(10, 5)
    source = Tensor(np.zeros(2))
    with pytest.raises(ValueError):
        sdedit_init(source, -0.1, times, sched, Rng(0))
    with pytest.raises(ValueError):
        sdedit_init(source, 1.5, times, sched, Rng(0))
