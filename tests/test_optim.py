import numpy as np
import pytest

from duetdiff.optim import Adam, clip_global_norm
from duetdiff.tensor import NonFiniteError, ShapeError, Tensor


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]))
    opt = Adam({"p": p}, lr=0.1)
    opt.step({"p": np.ones(3)})
    after_real_step = p.data.copy()
    opt.step({"p": np.zeros(3)})
    # with zero grad the first moment decays but corrected update shrinks,
    # params still move slightly; a *fresh* optimizer with zero grad must not
    fresh = Tensor(np.array([1.0, -2.0, 3.0]))
    opt2 = Adam({"p": fresh}, lr=0.1)
    opt2.step({"p": np.zeros(3)})
    assert np.array_equal(fresh.data, [1.0, -2.0, 3.0])
    assert not np.array_equal(p.data, after_real_step)


def test_first_step_magnitude_matches_closed_form():
    # constant gradient g: first update is lr * g / (|g| + eps') ~ lr * sign(g)
    p = Tensor(np.array([0.5, -0.5]))
    opt = Adam({"p": p}, lr=0.01)
    g = np.array([3.0, -7.0])
    opt.step({"p": g})
    expected = np.array([0.5, -0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.data, expected, rtol=1e-10)


def test_scalar_quadratic_descent():
    p = Tensor(np.array([1.0]))
    opt = Adam({"p": p}, lr=0.1)
    for _ in range(100):
        opt.step({"p": 2.0 * p.data})
    assert abs(p.data[0]) < 0.05


def test_shape_mismatch_rejected():
    p = Tensor(np.ones((2, 2)))
    opt = Adam({"p": p}, lr=1e-3)
    with pytest.raises(ShapeError):
        opt.step({"p": np.ones(3)})


@pytest.mark.parametrize("bad, error, message", [
    ({"p": np.ones(3)}, ShapeError, r"gradient 'p' has shape \(3,\), expected \(1, 3\)"),
    ({"p": np.array([[1.0, np.nan, 0.0]])}, NonFiniteError, r"gradient 'p' has non-finite values"),
    ({"p": np.array([[1.0, 0.0, -np.inf]])}, NonFiniteError, r"gradient 'p' has non-finite values"),
    # 'p' is missing here too: the unknown-name check runs before the missing-name one
    ({"q": np.ones(2)}, KeyError, r"gradient for unknown parameter 'q'"),
    ({"p": np.ones((1, 3)), "q": np.ones(2)}, KeyError, r"gradient for unknown parameter 'q'"),
    ({}, KeyError, r"gradient missing for 'p'"),
    ({"a": None}, KeyError, r"gradient missing for 'a', 'p'"),
], ids=["shape", "nan", "inf", "unknown-name", "unknown-name-and-every-parameter",
        "missing-name", "every-name-missing"])
def test_adam_step_checks_every_gradient_before_updating_any(bad, error, message):
    # 'a' comes first, so a check made inside the update loop would fail
    # only after 'a', its moments and the step count had moved; a None
    # entry drops that name
    opt = _stepped_adam()
    before = {name: (p.data.copy(), opt.m[name].copy(), opt.v[name].copy())
              for name, p in opt.params.items()}
    grads = {name: g for name, g in {"a": np.array([0.5, -1.0]), **bad}.items() if g is not None}
    with pytest.raises(error, match=rf"adam: {message}"):
        opt.step(grads)
    assert opt.step_count == 1
    for name, p in opt.params.items():
        for got, want in zip((p.data, opt.m[name], opt.v[name]), before[name]):
            assert np.array_equal(got, want), name


def test_state_roundtrip_resumes_identically():
    rng = np.random.default_rng(0)
    p1 = Tensor(rng.normal(size=4))
    p2 = Tensor(p1.data.copy())
    opt1 = Adam({"p": p1}, lr=0.05)
    opt2 = Adam({"p": p2}, lr=0.05)
    grads = [rng.normal(size=4) for _ in range(6)]
    for g in grads[:3]:
        opt1.step({"p": g})
        opt2.step({"p": g})
    opt2.load_state({k: v.copy() for k, v in opt1.m.items()},
                    {k: v.copy() for k, v in opt1.v.items()}, opt1.step_count)
    for g in grads[3:]:
        opt1.step({"p": g})
        opt2.step({"p": g})
    assert np.array_equal(p1.data, p2.data)


def _stepped_adam():
    params = {"a": Tensor(np.ones(2)), "p": Tensor(np.ones((1, 3)))}
    opt = Adam(params, lr=1e-3)
    opt.step({"a": np.array([0.5, -1.0]), "p": np.array([[1.0, 2.0, -3.0]])})
    return opt


@pytest.mark.parametrize("entry, bad, error, message", [
    ("m", np.array([[np.nan, 0.0, 0.0]]), NonFiniteError, r"m 'p' has non-finite values"),
    ("v", np.array([[0.0, np.inf, 0.0]]), NonFiniteError, r"v 'p' has non-finite values"),
    ("v", np.array([[0.0, -1.0, 0.0]]), ValueError, r"negative values in v for 'p'"),
    ("m", np.zeros(3), ShapeError, r"m 'p' has shape \(3,\), expected \(1, 3\)"),
    ("v", np.zeros((3, 1)), ShapeError, r"v 'p' has shape \(3, 1\), expected \(1, 3\)"),
    ("m", None, KeyError, r"m missing for 'p'"),
    ("step_count", -7, ValueError, r"step_count must be an integer >= 0, got -7"),
    ("step_count", -1, ValueError, r"step_count must be an integer >= 0, got -1"),
    ("step_count", 2.5, ValueError, r"step_count must be an integer >= 0, got 2.5"),
], ids=["nan-m", "inf-v", "negative-v", "m-shape", "v-shape", "missing-m", "step-count--7",
        "step-count--1", "float-step-count"])
def test_adam_load_state_checks_every_entry_before_copying_any(entry, bad, error, message):
    opt = _stepped_adam()
    before = ({k: a.copy() for k, a in opt.m.items()}, {k: a.copy() for k, a in opt.v.items()})
    state = {"m": {"a": np.full(2, 0.5), "p": np.zeros((1, 3))},
             "v": {"a": np.full(2, 0.5), "p": np.zeros((1, 3))}, "step_count": 3}
    if entry == "step_count":
        state[entry] = bad
    elif bad is None:
        del state[entry]["p"]
    else:
        state[entry]["p"] = bad
    # a KeyError's str() is the repr of its message, so the anchor allows a quote
    with pytest.raises(error, match=rf"^[\"']?adam: {message}"):
        opt.load_state(state["m"], state["v"], state["step_count"])
    assert opt.step_count == 1
    for name in ("a", "p"):
        assert np.array_equal(opt.m[name], before[0][name])
        assert np.array_equal(opt.v[name], before[1][name])


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))
    assert total == pytest.approx(1.0)
    # below the cap nothing changes
    grads2 = {"a": np.array([0.3, 0.4])}
    clip_global_norm(grads2, 1.0)
    assert np.allclose(grads2["a"], [0.3, 0.4])


def test_clip_global_norm_sums_float32_squares_in_float64():
    # 3e19 squared overflows float32; the norm and the clipped gradients stay finite
    grads = {"a": np.full(4, 3e19, dtype=np.float32), "b": np.full(2, -3e19, dtype=np.float32)}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(3e19 * np.sqrt(6.0), rel=1e-6)
    assert all(g.dtype == np.float32 and np.all(np.isfinite(g)) for g in grads.values())
    assert np.allclose(grads["a"], 1.0 / np.sqrt(6.0), rtol=1e-6)
    assert np.allclose(grads["b"], -1.0 / np.sqrt(6.0), rtol=1e-6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_global_norm_names_the_first_non_finite_gradient(bad):
    ok = np.array([1.0, 2.0], dtype=np.float32)
    grads = {"ok": ok, "bad": np.array([0.5, bad], dtype=np.float32),
             "also_bad": np.array([bad], dtype=np.float32)}
    with pytest.raises(NonFiniteError, match="gradient 'bad' has non-finite values"):
        clip_global_norm(grads, 1.0)
    assert grads["ok"] is ok and np.array_equal(ok, [1.0, 2.0])


def test_clip_global_norm_rejects_a_float64_norm_that_overflows():
    grads = {"a": np.full(2, 1e200)}
    with pytest.raises(NonFiniteError, match="overflows float64"):
        clip_global_norm(grads, 1.0)
    assert np.array_equal(grads["a"], [1e200, 1e200])


@pytest.mark.parametrize("max_norm", [-1.0, 0.0, np.nan, np.inf])
def test_clip_global_norm_rejects_a_max_norm_that_is_not_finite_and_positive(max_norm):
    g = np.array([3.0, 4.0])
    grads = {"a": g}
    with pytest.raises(ValueError, match=r"^max_norm must be finite and > 0"):
        clip_global_norm(grads, max_norm)
    assert grads["a"] is g and np.array_equal(g, [3.0, 4.0])


@pytest.mark.parametrize("arg, value", [("lr", np.nan), ("lr", -1.0), ("lr", 0.0), ("lr", np.inf)])
def test_adam_rejects_bad_hyperparameters_by_name(arg, value):
    with pytest.raises(ValueError, match=rf"^{arg} must "):
        Adam({"p": Tensor(np.ones(2))}, **{arg: value})
