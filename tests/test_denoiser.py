import numpy as np
import pytest

from duetdiff.denoiser import Denoiser, DenoiserConfig
from duetdiff.rng import Rng
from duetdiff.tensor import Tensor

from tiny import TINY

CANVAS = TINY.canvas


def _denoiser() -> Denoiser:
    den = Denoiser(Rng(0), TINY)
    w = den.out_conv.w
    w.data[...] = Rng(1).gaussian(w.shape) * 0.1
    return den


def _inputs(rows: int):
    rng = Rng(2)
    x = Tensor(rng.gaussian((rows, 3, CANVAS, CANVAS)))
    cond = Tensor(rng.gaussian((rows, 5, 16)))
    return x, cond


def test_config_channels():
    assert TINY.denoiser.channels() == (4, 8)
    assert DenoiserConfig(base_channels=8, channel_mult=(1, 2, 4)).channels() == (8, 16, 32)


def test_output_shape_equals_input_shape():
    x, cond = _inputs(2)
    out = _denoiser()(x, np.array([3, 400]), cond)
    assert out.shape == x.shape and np.all(np.isfinite(out.data)) and np.any(out.data)


def test_attention_only_at_the_listed_resolutions():
    den = _denoiser()
    assert ["attn" in e for stage in den.down for e in stage["blocks"]] == [False, False, True, True]
    assert ["attn" in e for stage in den.up for e in stage["blocks"]] == [True, True, False, False]
    assert den.down[-1]["down"] is None and den.up[-1]["up"] is None


def test_scalar_t_equals_a_repeated_t_array():
    x, cond = _inputs(2)
    den = _denoiser()
    assert np.array_equal(den(x, 250, cond).data, den(x, np.array([250, 250]), cond).data)


def test_timestep_and_condition_change_the_output():
    x, cond = _inputs(1)
    den = _denoiser()
    base = den(x, 10, cond).data
    assert not np.array_equal(base, den(x, 900, cond).data)
    assert not np.array_equal(base, den(x, 10, Tensor(cond.data + 1.0)).data)


def test_bad_input_is_rejected():
    x, cond = _inputs(2)
    den = _denoiser()
    with pytest.raises(ValueError, match="t batch"):
        den(x, np.array([1, 2, 3]), cond)
