"""Whole-model tests on a tiny config: the parameter registry, golden
outputs, gradients against finite differences, and checkpoint loading.

The tiny config keeps the default topology (two U-Net levels of two res
blocks, attention on the lower level, two fusion layers) at a 12x12 canvas,
so it registers the same 300 parameter names as the default config.
"""

from pathlib import Path

import numpy as np
import pytest

from duetdiff.conditioning import Conditioner
from duetdiff.denoiser import Denoiser, DenoiserConfig
from duetdiff.diffusion import ddpm_step, forward_diffuse
from duetdiff.model import DiffusionModel, ModelConfig
from duetdiff.nn import named_params, trunc_normal
from duetdiff.rng import Rng
from duetdiff.synthdata import generate_dataset
from duetdiff.tensor import GradTape, Tensor, mul, sub, tmean, tsum

from fdcheck import max_rel_err, numeric_grad

TINY = ModelConfig(
    canvas=12, d_embed=16, fusion_heads=2, fusion_hidden=32,
    encoder_channels=(4, 8), encoder_out_channels=8,
    denoiser=DenoiserConfig(base_channels=4, attn_resolutions=(6,), temb_dim=16,
                            cond_dim=16, n_heads=2),
)
GOLDEN_NAMES = Path(__file__).parent / "golden" / "param_names.txt"
# rates and stream for the dropout in ``dropout_loss``: at these values the
# 4-row batch has both dropped and kept rows for text and for image
DROP_RATE = 0.5
DROP_SEED = 5


def tiny_model(dtype=np.float64, seed=0) -> DiffusionModel:
    """Tiny model with a seeded non-zero ``out_conv``, so eps is not 0."""
    model = DiffusionModel(TINY, rng=Rng(seed), dtype=dtype)
    w = model.denoiser.out_conv.w
    kh, kw, c_in, c_out = w.shape
    oihw = trunc_normal(Rng(seed).split("out_conv"), (c_out, c_in, kh, kw), dtype=dtype)
    w.data[...] = oihw.transpose(2, 3, 1, 0)
    return model


def tiny_batch(model, rows: int, seed: int = 1):
    """(prompts, layouts, x_t, t) for ``rows`` synthetic scenes."""
    samples = generate_dataset(rows, TINY.canvas, seed)
    rng = Rng(seed).split("noise")
    layouts = Tensor(np.stack([s.layout for s in samples]).astype(model.dtype))
    shape = (rows, TINY.image_channels, TINY.canvas, TINY.canvas)
    x_t = Tensor(rng.gaussian(shape, dtype=model.dtype))
    t = 1 + rng.integers(rows, TINY.total_steps)
    return [s.prompt for s in samples], layouts, x_t, t


def dropout_loss(model, batch, weights: np.ndarray):
    """Weighted sum of eps through encoders, condition dropout and fusion."""
    prompts, layouts, x_t, t = batch
    cond = model.conditioner
    text, image = cond.encode_prompt(prompts), cond.encode_image(layouts)
    text, image, flags = cond.apply_condition_dropout(text, image, Rng(DROP_SEED),
                                                      DROP_RATE, DROP_RATE)
    eps = model.predict_eps(x_t, t, cond.fuse(text, image))
    return tsum(mul(eps, Tensor(weights))), flags


def _loss_setup(dtype):
    model = tiny_model(dtype)
    batch = tiny_batch(model, 4)
    weights = Rng(2).gaussian(batch[2].shape, dtype=dtype)
    return model, batch, weights


# ---------------------------------------------------------------------------
# registry


def test_param_names_and_shapes_match_golden_list():
    lines = GOLDEN_NAMES.read_text().splitlines()
    got = [f"{name} {tuple(p.shape)}" for name, p in DiffusionModel(ModelConfig()).params().items()]
    assert len(got) == 300
    assert got == lines


def test_a_default_train_step_puts_271_records_on_the_tape():
    # encode, dropout, fuse, forward_diffuse, predict_eps and the eps-MSE
    # loss; the count does not depend on the batch, and a lost fusion of
    # an op into its layer's record raises it
    config = ModelConfig()
    model = DiffusionModel(config, rng=Rng(0), dtype=np.float32)
    cond = model.conditioner
    samples = generate_dataset(2, config.canvas, 1)
    prompts = [s.prompt for s in samples]
    layouts = Tensor(np.stack([s.layout for s in samples]).astype(np.float32))
    x0 = Tensor(np.stack([s.target for s in samples]).astype(np.float32))
    rng = Rng(2)
    t = 1 + rng.integers(2, config.total_steps)
    eps = Tensor(rng.gaussian(x0.shape, dtype=np.float32))
    with GradTape() as tape:
        text, image, _ = cond.apply_condition_dropout(
            cond.encode_prompt(prompts), cond.encode_image(layouts), rng, 0.1, 0.1)
        x_t = forward_diffuse(x0, t, eps, model.schedule)
        diff = sub(model.predict_eps(x_t, t, cond.fuse(text, image)), eps)
        tmean(mul(diff, diff))
        assert len(tape._records) == 271


def test_tiny_config_registers_the_same_names():
    golden = [line.split(" ", 1)[0] for line in GOLDEN_NAMES.read_text().splitlines()]
    assert list(tiny_model().params()) == golden


def test_buffers_hold_the_frozen_prompt_table():
    model = tiny_model()
    assert model.buffers() == {"cond.prompt_encoder.table": model.conditioner.prompt_encoder.table.data}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_model_casts_every_tensor_to_its_dtype(dtype):
    model = DiffusionModel(TINY, rng=Rng(0), dtype=dtype)
    assert model.dtype == dtype
    assert all(p.dtype == dtype for p in model.params().values())
    assert all(b.dtype == dtype for b in model.buffers().values())


def test_a_float64_model_cast_to_float32_is_the_float32_model():
    m64 = _tensors(DiffusionModel(TINY, rng=Rng(3), dtype=np.float64))
    m32 = _tensors(DiffusionModel(TINY, rng=Rng(3), dtype=np.float32))
    assert list(m64) == list(m32)
    for name, arr in m64.items():
        assert np.array_equal(arr.astype(np.float32), m32[name]), name


def test_the_model_dtype_is_float32_or_float64():
    with pytest.raises(ValueError, match="float32 or float64"):
        DiffusionModel(TINY, dtype=np.float16)


def test_layers_built_alone_are_float64():
    model = DiffusionModel(TINY, rng=Rng(0), dtype=np.float64)
    den = Denoiser(Rng(0).split("denoiser"), TINY.denoiser, TINY.canvas)
    cond = Conditioner(Rng(0).split("conditioner"), model.vocab, canvas=TINY.canvas,
                       cond_channels=TINY.cond_channels, d_embed=TINY.d_embed,
                       encoder_channels=TINY.encoder_channels,
                       encoder_out_channels=TINY.encoder_out_channels,
                       n_layers=TINY.fusion_layers, n_heads=TINY.fusion_heads,
                       d_hidden=TINY.fusion_hidden)
    leaves = {**named_params(cond, "cond"), **named_params(den, "denoiser")}
    assert len(leaves) == len(model.params()) + len(model.buffers())
    assert all(t.dtype == np.float64 for t in leaves.values())


def test_params_are_seed_deterministic():
    a, b = DiffusionModel(TINY, rng=Rng(7)), DiffusionModel(TINY, rng=Rng(7))
    for (na, pa), (nb, pb) in zip(a.params().items(), b.params().items()):
        assert na == nb and np.array_equal(pa.data, pb.data)
    c = DiffusionModel(TINY, rng=Rng(8))
    assert not np.array_equal(a.params()["denoiser.in_conv.w"].data,
                              c.params()["denoiser.in_conv.w"].data)


# ---------------------------------------------------------------------------
# prediction

# float64 predict_eps of ``tiny_model()`` on ``tiny_batch(model, 2)`` under
# the joint condition: sum, sum of squares, and two runs of entries
GOLDEN_EPS_SUM = 21.013671180125932
GOLDEN_EPS_SUMSQ = 4.95754212782801
GOLDEN_EPS_ROW0 = [0.04165448191368176, 0.040366403313408836,
                   0.12320035868672408, 0.05166278333187753]
GOLDEN_EPS_ROW1 = [-0.013716727010693482, -0.07286977472416685,
                   -0.052875757360602404, -0.05764706457151207]


def test_predict_eps_matches_float64_golden_values():
    model = tiny_model()
    prompts, layouts, x_t, t = tiny_batch(model, 2)
    eps = model.predict_eps(x_t, t, model.conditioner.fuse_joint(prompts, layouts)).data
    assert eps.shape == x_t.shape
    np.testing.assert_allclose(eps.sum(), GOLDEN_EPS_SUM, rtol=1e-11)
    np.testing.assert_allclose(np.square(eps).sum(), GOLDEN_EPS_SUMSQ, rtol=1e-11)
    np.testing.assert_allclose(eps[0, 0, 0, :4], GOLDEN_EPS_ROW0, rtol=1e-11, atol=1e-16)
    np.testing.assert_allclose(eps[1, 2, -1, -4:], GOLDEN_EPS_ROW1, rtol=1e-11, atol=1e-16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_zero_init_out_conv_predicts_zero(dtype):
    model = DiffusionModel(TINY, rng=Rng(0), dtype=dtype)
    prompts, layouts, x_t, t = tiny_batch(model, 2)
    eps = model.predict_eps(x_t, t, model.conditioner.fuse_joint(prompts, layouts))
    assert eps.shape == x_t.shape and eps.data.dtype == dtype
    assert not np.any(eps.data)


def test_rows_do_not_depend_on_other_rows():
    model = tiny_model()
    prompts, layouts, x_t, t = tiny_batch(model, 3)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    batched = model.predict_eps(x_t, t, cond).data
    for i in range(3):
        alone = model.predict_eps(Tensor(x_t.data[i:i + 1]), t[i:i + 1],
                                  Tensor(cond.data[i:i + 1])).data
        np.testing.assert_allclose(alone[0], batched[i], rtol=0,
                                   atol=1e-12 * np.max(np.abs(batched)))


def test_predict_eps_rejects_bad_input():
    model = tiny_model()
    prompts, layouts, x_t, t = tiny_batch(model, 1)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    with pytest.raises(ValueError, match="x_t shape"):
        model.predict_eps(Tensor(np.zeros((1, 3, 8, 8))), t, cond)
    with pytest.raises(ValueError, match="condition shape"):
        model.predict_eps(x_t, t, Tensor(cond.data[:, 1:]))
    with pytest.raises(ValueError, match="outside schedule range"):
        model.predict_eps(x_t, 0, cond)


def test_predict_eps_takes_one_batched_form():
    model = tiny_model()
    prompts, layouts, x_t, t = tiny_batch(model, 2)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    with pytest.raises(ValueError, match="x_t shape"):
        model.predict_eps(Tensor(x_t.data[0]), int(t[0]), cond)
    with pytest.raises(ValueError, match="condition shape"):
        model.predict_eps(x_t, t, Tensor(cond.data[0]))
    with pytest.raises(ValueError, match=r"condition shape \(1, 17, 16\) != \(2, 17, 16\)"):
        model.predict_eps(x_t, t, Tensor(cond.data[:1]))


def test_a_0d_t_is_the_int_t():
    model = tiny_model()
    prompts, layouts, x_t, _ = tiny_batch(model, 3)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    expected = model.predict_eps(x_t, 5, cond).data
    assert np.array_equal(model.predict_eps(x_t, np.asarray(5), cond).data, expected)
    with pytest.raises(ValueError, match=r"t batch \(1,\) != input batch 3"):
        model.predict_eps(x_t, np.array([5]), cond)


@pytest.mark.parametrize("bad", [0, TINY.total_steps + 1])
def test_every_step_index_is_checked_by_the_schedule(bad):
    model = tiny_model()
    sched = model.schedule
    prompts, layouts, x_t, _ = tiny_batch(model, 2)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    calls = {
        "forward_diffuse": lambda t: forward_diffuse(x_t, t, x_t, sched),
        "ddpm_step": lambda t: ddpm_step(x_t, t, x_t, None, sched),
        "predict_eps (int t)": lambda t: model.predict_eps(x_t, t, cond),
        "predict_eps (per-row t)": lambda t: model.predict_eps(x_t, np.array([1, t]), cond),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value).endswith(f"outside schedule range [1, {sched.total_steps}]"), name
    for t in (-1, sched.total_steps + 1):
        with pytest.raises(ValueError, match=rf"^t={t} outside schedule range \[0, {sched.total_steps}\]$"):
            sched.alpha_bar(t)


def test_non_integer_steps_are_rejected_by_dtype():
    model = tiny_model()
    sched = model.schedule
    prompts, layouts, x_t, _ = tiny_batch(model, 2)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    calls = {
        "predict_eps": lambda t: model.predict_eps(x_t, t, cond),
        "forward_diffuse": lambda t: forward_diffuse(x_t, t, x_t, sched),
        "alpha_bar": sched.alpha_bar,
    }
    for call in calls.values():
        for bad in (5.5, np.array([5.5, 5.5])):
            with pytest.raises(TypeError, match=r"^t=.* has dtype float64; a step must be an integer$"):
                call(bad)
        for good in (5, np.int64(5), np.array(5), np.array([5, 5])):
            call(good)


@pytest.mark.parametrize("arg", ["x_t", "cond"])
def test_predict_eps_rejects_another_dtype_by_name(arg):
    model = tiny_model(np.float32)
    prompts, layouts, x_t, t = tiny_batch(model, 1)
    inputs = {"x_t": x_t, "cond": model.conditioner.fuse_joint(prompts, layouts)}
    inputs[arg] = Tensor(inputs[arg].data.astype(np.float64))
    with pytest.raises(TypeError, match=f"{arg} dtype float64 != model dtype float32"):
        model.predict_eps(inputs["x_t"], t, inputs["cond"])


def test_encode_image_rejects_another_dtype_by_name():
    model = tiny_model(np.float32)
    _, layouts, _, _ = tiny_batch(model, 1)
    with pytest.raises(TypeError, match="images dtype float64 != model dtype float32"):
        model.conditioner.encode_image(Tensor(layouts.data.astype(np.float64)))


# ---------------------------------------------------------------------------
# gradients


def test_every_parameter_gets_a_gradient():
    model, batch, weights = _loss_setup(np.float32)
    params = model.params()
    with GradTape() as tape:
        loss, (text_dropped, image_dropped) = dropout_loss(model, batch, weights)
    for flags in (text_dropped, image_dropped):
        assert flags.any() and not flags.all()
    grads = tape.backward(loss)
    missing = [name for name, p in params.items() if p not in grads]
    assert not missing
    for name, p in params.items():
        assert grads[p].shape == p.shape and np.all(np.isfinite(grads[p])), name
    assert np.any(grads[params["cond.null_image"]])
    assert len(grads) == len(params)


def test_whole_model_gradient_matches_finite_differences():
    model, batch, weights = _loss_setup(np.float64)
    params = model.params()
    with GradTape() as tape:
        loss, _ = dropout_loss(model, batch, weights)
    grads = tape.backward(loss)

    rng = Rng(11)
    names = sorted(params)
    picked = {names[i] for i in rng.integers(48, len(names))}
    picked |= {"cond.null_image", "cond.fusion.pos", "denoiser.out_conv.w",
               "denoiser.in_conv.w", "cond.image_encoder.blocks.0.conv1.w"}
    picked = sorted(picked)
    arrays = [params[name].data for name in picked]
    coords = {i: [int(rng.integers(1, a.size)[0])] for i, a in enumerate(arrays)}
    analytic = [grads[params[name]] for name in picked]
    # at h=1e-5 the truncation error reaches 1e-3 on the early conv weights,
    # where the loss curves strongly; at h=1e-6 the worst of two coordinates
    # of every parameter was 1.2e-5
    numeric = numeric_grad(lambda: dropout_loss(model, batch, weights)[0].item(),
                           arrays, h=1e-6, coords=coords)
    assert max_rel_err(analytic, numeric, coords) <= 1e-4


# ---------------------------------------------------------------------------
# checkpoint loading


def _tensors(model) -> dict:
    out = {name: p.data.copy() for name, p in model.params().items()}
    out.update({name: b.copy() for name, b in model.buffers().items()})
    return out


def test_load_tensors_round_trips():
    src, dst = tiny_model(seed=0), tiny_model(seed=5)
    dst.load_tensors(_tensors(src))
    for (name, a), b in zip(src.params().items(), dst.params().values()):
        assert np.array_equal(a.data, b.data), name
    prompts, layouts, x_t, t = tiny_batch(src, 2)
    outs = [m.predict_eps(x_t, t, m.conditioner.fuse_joint(prompts, layouts)).data
            for m in (src, dst)]
    assert np.array_equal(outs[0], outs[1])


def test_load_tensors_casts_to_the_model_dtype():
    src, dst = tiny_model(np.float64), tiny_model(np.float32, seed=5)
    dst.load_tensors(_tensors(src))
    w = dst.params()["denoiser.out_conv.w"].data
    assert w.dtype == np.float32
    assert np.array_equal(w, src.params()["denoiser.out_conv.w"].data.astype(np.float32))


@pytest.mark.parametrize("name", ["denoiser.out_conv.b", "cond.prompt_encoder.table"])
def test_load_tensors_rejects_a_missing_entry(name):
    model = tiny_model()
    tensors = _tensors(model)
    del tensors[name]
    with pytest.raises(KeyError, match=name):
        model.load_tensors(tensors)


@pytest.mark.parametrize("name", ["denoiser.out_conv.w", "cond.prompt_encoder.table"])
def test_load_tensors_rejects_a_mis_shaped_entry(name):
    # a (1, d) prompt table would broadcast over every row of the frozen table
    model = tiny_model()
    before = _tensors(model)
    tensors = dict(before)
    tensors[name] = np.zeros((1,) + tensors[name].shape[1:])
    with pytest.raises(ValueError, match=name):
        model.load_tensors(tensors)
    assert all(np.array_equal(before[k], v) for k, v in _tensors(model).items())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_tensors_rejects_a_non_finite_entry(value):
    model = tiny_model()
    before = _tensors(model)
    tensors = dict(before)
    tensors["denoiser.mid_attn.cross_attn.q.w"] = tensors["denoiser.mid_attn.cross_attn.q.w"].copy()
    tensors["denoiser.mid_attn.cross_attn.q.w"][0, 1] = value
    with pytest.raises(ValueError, match="denoiser.mid_attn.cross_attn.q.w"):
        model.load_tensors(tensors)
    assert all(np.array_equal(before[k], v) for k, v in _tensors(model).items())
