"""Whole-model tests on the tiny config: config checks, the parameter
registry, golden outputs, gradients against finite differences, and
checkpoint loading."""

import importlib
import shutil
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duetdiff import nn
from duetdiff.conditioning import Conditioner
from duetdiff.denoiser import Denoiser, DenoiserConfig
from duetdiff.diffusion import forward_diffuse
from duetdiff.model import DiffusionModel, ModelConfig
from duetdiff.nn import named_params, trunc_normal
from duetdiff.rng import Rng
from duetdiff.synthdata import generate_dataset
from duetdiff.tensor import GradTape, NonFiniteError, ShapeError, Tensor, mul, sub, tmean, tsum

from fdcheck import max_rel_err, numeric_grad
from tiny import TINY

GOLDEN_NAMES = Path(__file__).parent / "golden" / "param_names.txt"
# rates and stream for the dropout in ``dropout_loss``: at these values the
# 4-row batch has both dropped and kept rows for text and for image
DROP_RATE = 0.5
DROP_SEED = 5


def tiny_model(dtype=np.float64, seed=0, config=TINY) -> DiffusionModel:
    """Tiny model with a seeded non-zero ``out_conv``, so eps is not 0."""
    model = DiffusionModel(config, rng=Rng(seed), dtype=dtype)
    w = model.denoiser.out_conv.w
    kh, kw, c_in, c_out = w.shape
    oihw = trunc_normal(Rng(seed).split("out_conv"), (c_out, c_in, kh, kw), dtype=dtype)
    w.data[...] = oihw.transpose(2, 3, 1, 0)
    return model


def tiny_batch(model, rows: int, seed: int = 1):
    """(prompts, layouts, x_t, t) for ``rows`` synthetic scenes."""
    samples = generate_dataset(rows, TINY.canvas, seed, "scene")
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
# config

# each config breaks one rule, and the message names the field at fault
BAD_CONFIGS = [
    pytest.param({"fusion_heads": 3}, "fusion_heads 3 must divide d_embed 64", id="fusion_heads"),
    pytest.param({"denoiser": DenoiserConfig(n_heads=3)},
                 r"denoiser.n_heads 3 must divide the attention channels \[32\]", id="n_heads"),
    pytest.param({"denoiser": DenoiserConfig(temb_dim=63)},
                 "denoiser.temb_dim must be even, got 63", id="temb_dim"),
    pytest.param({"text_len": 0}, "text_len must be at least 1, got 0", id="text_len"),
    pytest.param({"d_embed": 4, "fusion_heads": 2, "denoiser": DenoiserConfig(cond_dim=4)},
                 r"d_embed 4 must be at least the 8 prompt tokens \('<pad>', 'red', 'green', "
                 r"'blue', 'yellow', 'circle', 'square', 'triangle'\)", id="d_embed_below_tokens"),
    pytest.param({"canvas": 12}, r"denoiser.attn_resolutions \(8,\) must be U-Net resolutions "
                 r"of canvas 12: \[12, 6\]", id="canvas_misses_attn_resolution"),
    pytest.param({"denoiser": DenoiserConfig(attn_resolutions=(5,))},
                 r"denoiser.attn_resolutions \(5,\)", id="attn_resolutions"),
    pytest.param({"denoiser": DenoiserConfig(cond_dim=32)}, "denoiser.cond_dim 32 != d_embed 64",
                 id="cond_dim"),
    pytest.param({"canvas": 10, "encoder_channels": (8,),
                  "denoiser": DenoiserConfig(channel_mult=(1, 2, 2), attn_resolutions=(10,))},
                 r"canvas 10 not divisible by the denoiser's downsampling factor 4 "
                 r"\(denoiser.channel_mult\)", id="denoiser_downsampling"),
    pytest.param({"canvas": 18, "denoiser": DenoiserConfig(attn_resolutions=(9,))},
                 r"canvas 18 not divisible by the image encoder's stride 4 \(encoder_channels\)",
                 id="encoder_stride"),
    pytest.param({"image_channels": 0}, "image_channels must be at least 1, got 0",
                 id="image_channels"),
    pytest.param({"cond_channels": 0}, "cond_channels must be at least 1, got 0",
                 id="cond_channels"),
    pytest.param({"denoiser": DenoiserConfig(res_blocks=0)},
                 "denoiser.res_blocks must be at least 1, got 0", id="res_blocks"),
    pytest.param({"denoiser": DenoiserConfig(base_channels=0)},
                 "denoiser.base_channels must be at least 1, got 0", id="base_channels"),
    pytest.param({"encoder_channels": (16, 0)}, r"encoder_channels must be at least 1, got \(16, 0\)",
                 id="encoder_channels"),
    pytest.param({"denoiser": DenoiserConfig(channel_mult=(), attn_resolutions=())},
                 "denoiser.channel_mult must name at least one U-Net level", id="no_levels"),
    pytest.param({"total_steps": 0}, "total_steps must be at least 1, got 0", id="total_steps"),
    pytest.param({"beta_start": 0.0},
                 "need 0 < beta_start <= beta_end < 1, got beta_start 0.0 and beta_end 0.02",
                 id="beta_start"),
    pytest.param({"beta_start": 0.5, "beta_end": 0.2},
                 "need 0 < beta_start <= beta_end < 1, got beta_start 0.5 and beta_end 0.2",
                 id="betas_decrease"),
    pytest.param({"beta_end": 1.0},
                 "need 0 < beta_start <= beta_end < 1, got beta_start 0.0001 and beta_end 1.0",
                 id="beta_end"),
]


@pytest.mark.parametrize("overrides, message", BAD_CONFIGS)
def test_a_bad_config_is_rejected_when_built(overrides, message):
    with pytest.raises(ValueError, match=message):
        ModelConfig(**overrides)


@pytest.mark.parametrize("overrides, message", [
    pytest.param({"canvas": 16.0}, r"canvas must be an int, got 16\.0", id="float-canvas"),
    pytest.param({"text_len": 8.5}, r"text_len must be an int, got 8\.5", id="float-text_len"),
    pytest.param({"encoder_channels": [16, 0]},
                 r"encoder_channels must be a tuple of ints, got \[16, 0\]", id="list-entries"),
    pytest.param({"denoiser": DenoiserConfig(n_heads=2.0)},
                 r"denoiser.n_heads must be an int, got 2\.0", id="float-n_heads"),
])
def test_a_size_of_another_type_is_rejected_by_name(overrides, message):
    with pytest.raises(TypeError, match=rf"^{message}$"):
        ModelConfig(**overrides)


# ``json.loads`` gives a dict for the nested config and may give a string
@pytest.mark.parametrize("overrides, message", [
    pytest.param({"denoiser": {"n_heads": 2}},
                 r"denoiser must be a DenoiserConfig, got \{'n_heads': 2\}", id="dict-denoiser"),
    pytest.param({"beta_start": "0.001"}, r"beta_start must be a number, got '0\.001'",
                 id="str-beta_start"),
    pytest.param({"beta_end": True}, r"beta_end must be a number, got True", id="bool-beta_end"),
])
def test_a_denoiser_or_beta_of_another_type_is_rejected_by_name(overrides, message):
    with pytest.raises(TypeError, match=rf"^{message}$"):
        ModelConfig(**overrides)


# the sizes ``small_configs`` draws, each from 1 to its largest value
SMALL_SIZES = {"image_channels": 3, "cond_channels": 2, "text_len": 2, "fusion_layers": 2,
               "fusion_heads": 2, "fusion_hidden": 8, "encoder_out_channels": 4, "total_steps": 3}
SMALL_DENOISER_SIZES = {"base_channels": 4, "res_blocks": 2, "n_heads": 2}


@st.composite
def small_configs(draw) -> tuple[dict, dict]:
    """``ModelConfig`` and ``DenoiserConfig`` overrides for a small model; in
    half the draws one size, or one entry of a tuple, is 0."""
    canvas, levels = draw(st.sampled_from([4, 8])), draw(st.integers(1, 2))
    top = {name: draw(st.integers(1, hi)) for name, hi in SMALL_SIZES.items()}
    den = {name: draw(st.integers(1, hi)) for name, hi in SMALL_DENOISER_SIZES.items()}
    top.update(canvas=canvas, encoder_channels=tuple(draw(st.lists(st.integers(1, 4), max_size=2))))
    den.update(temb_dim=2 * draw(st.integers(1, 2)),
               channel_mult=tuple(draw(st.lists(st.integers(1, 2), min_size=levels,
                                                max_size=levels))),
               attn_resolutions=tuple(canvas // 2**lvl for lvl in range(levels)
                                      if draw(st.booleans())))
    zero = draw(st.one_of(st.none(), st.sampled_from([(top, name) for name in top]
                                                     + [(den, name) for name in den])))
    if zero is not None:
        sizes, name = zero
        sizes[name] = (0,) + sizes[name][1:] if isinstance(sizes[name], tuple) else 0
    return top, den


@settings(max_examples=40, deadline=None)
@example(({"canvas": 4, "encoder_channels": (2,)},
          {"base_channels": 2, "res_blocks": 0, "attn_resolutions": (), "n_heads": 1}))
@given(small_configs())
def test_every_config_that_builds_also_runs(overrides):
    top, den = overrides
    try:
        config = ModelConfig(d_embed=8, **top, denoiser=DenoiserConfig(cond_dim=8, **den))
    except ValueError:
        return
    model = tiny_model(config=config)
    hw = config.canvas
    layouts = Tensor(np.ones((1, config.cond_channels, hw, hw)))
    x_t = Tensor(Rng(1).gaussian((1, config.image_channels, hw, hw)))
    cond = model.conditioner.fuse_joint([["red"]], layouts)
    eps = model.predict_eps(x_t, config.total_steps, cond).data
    assert eps.shape == (1, config.image_channels, hw, hw) and np.all(np.isfinite(eps))


def test_n_heads_must_divide_only_the_channels_that_attend():
    # channels (6, 12): level 0 does not attend, and the middle block always does
    ModelConfig(denoiser=DenoiserConfig(base_channels=6, n_heads=4))
    with pytest.raises(ValueError, match=r"channels \[12\]"):
        ModelConfig(denoiser=DenoiserConfig(base_channels=6, attn_resolutions=(), n_heads=5))


# ---------------------------------------------------------------------------
# registry


def test_param_names_and_shapes_match_golden_list():
    lines = GOLDEN_NAMES.read_text().splitlines()
    got = [f"{name} {tuple(p.shape)}" for name, p in DiffusionModel(ModelConfig()).params().items()]
    assert len(got) == 288
    assert got == lines


def _default_train_forward():
    """The default float32 model and a B=2 batch, built once; returns a
    function that runs encode, dropout, fuse, forward_diffuse, predict_eps
    and the eps-MSE loss inside the context it is given, a fresh
    ``GradTape`` to record them, and returns that context and the loss."""
    config = ModelConfig()
    model = DiffusionModel(config, rng=Rng(0), dtype=np.float32)
    cond = model.conditioner
    samples = generate_dataset(2, config.canvas, 1, "scene")
    prompts = [s.prompt for s in samples]
    layouts = Tensor(np.stack([s.layout for s in samples]).astype(np.float32))
    x0 = Tensor(np.stack([s.target for s in samples]).astype(np.float32))
    rng = Rng(2)
    t = 1 + rng.integers(2, config.total_steps)
    eps = Tensor(rng.gaussian(x0.shape, dtype=np.float32))

    def forward(context):
        with context as tape:
            text, image, _ = cond.apply_condition_dropout(
                cond.encode_prompt(prompts), cond.encode_image(layouts), rng, 0.1, 0.1)
            x_t = forward_diffuse(x0, t, eps, model.schedule)
            diff = sub(model.predict_eps(x_t, t, cond.fuse(text, image)), eps)
            loss = tmean(mul(diff, diff))
        return tape, loss

    return forward


def test_a_default_train_step_puts_213_records_on_the_tape():
    # the count does not depend on the batch, and a lost fusion of an op
    # into its layer's record raises it: each ResBlock half and each
    # fc1-SiLU-fc2 chain, the time MLP's too, is one record (271 while they
    # were three each, 217 while the time MLP was, 215 while the condition
    # dropout tiled the null image over the batch)
    tape, _ = _default_train_forward()(GradTape())
    assert len(tape._records) == 213


# bytes a default B=2 train forward leaves live, nearly all of them on the
# tape: what the vjps keep (13.78 MB while every conv kept its im2col
# columns and silu its sigmoid, 6.94 MB while every record also kept its
# inputs and output, 5.22 MB while each ResBlock half and each MLP kept its
# normalized input, hidden state and activation, 3.23 MB while the time
# MLP did, 3.18 MB while each attention kept its softmax weights, 2.28 MB
# since), and the tracemalloc peak of its backward, which frees each
# record as it consumes it (8.77 MB while the tape was kept whole until the
# end, 5.35 MB before the fused records, 3.60 MB before attention rebuilt
# its weights, 2.70 MB since). Keeping the weights again fails both pins.
TAPE_BYTES_PIN = 2.5e6
BACKWARD_PEAK_BYTES_PIN = 3.0e6


def test_the_tape_of_a_default_train_step_stays_under_its_pin():
    forward = _default_train_forward()
    forward(GradTape())  # lazy set-up outside the count
    tracemalloc.start()
    try:
        tape, loss = forward(GradTape())
        held = tracemalloc.get_traced_memory()[0]
        records = len(tape._records)
        tracemalloc.reset_peak()
        grads = tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert records == 213 and len(grads) == 288
    assert held < TAPE_BYTES_PIN, (
        f"a default B=2 train forward leaves {held / 1e6:.2f} MB live, over the "
        f"{TAPE_BYTES_PIN / 1e6} MB pin: keep less on the tape, or move TAPE_BYTES_PIN "
        f"in the same diff and say why in CHANGES.md")
    assert peak < BACKWARD_PEAK_BYTES_PIN, (
        f"the backward of a default B=2 train step peaks at {peak / 1e6:.2f} MB, over the "
        f"{BACKWARD_PEAK_BYTES_PIN / 1e6} MB pin: free each record as it is consumed, or move "
        f"BACKWARD_PEAK_BYTES_PIN in the same diff and say why in CHANGES.md")


# the tracemalloc peak of the same forward with no tape, which falls in a
# level-0 ResBlock half (0.50 MB, as for the composed ops): a fused record
# that kept its normalized map alive through its conv reads 0.63 MB
NO_TAPE_PEAK_BYTES_PIN = 0.56e6


def test_a_default_forward_without_a_tape_stays_under_its_peak_pin():
    forward = _default_train_forward()
    forward(nullcontext())  # lazy set-up outside the count
    tracemalloc.start()
    try:
        forward(nullcontext())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < NO_TAPE_PEAK_BYTES_PIN, (
        f"a default B=2 train forward with no tape peaks at {peak / 1e6:.2f} MB, over the "
        f"{NO_TAPE_PEAK_BYTES_PIN / 1e6} MB pin: free each stage's intermediates before the next, "
        f"or move NO_TAPE_PEAK_BYTES_PIN in the same diff and say why in CHANGES.md")


def test_a_copy_of_the_package_under_another_name_registers_the_same_names(tmp_path):
    # how a parent tree is loaded beside this one to compare them in one process
    name = "duetdiff_copy"
    shutil.copytree(Path(nn.__file__).parent, tmp_path / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(tmp_path))
    try:
        copy = importlib.import_module(f"{name}.model")
        params = copy.DiffusionModel(copy.ModelConfig()).params()
    finally:
        sys.path.remove(str(tmp_path))
        for module in [m for m in sys.modules if m.partition(".")[0] == name]:
            del sys.modules[module]
    got = [f"{key} {tuple(p.shape)}" for key, p in params.items()]
    assert got == GOLDEN_NAMES.read_text().splitlines()


def test_tiny_config_registers_the_same_names():
    golden = [line.split(" ", 1)[0] for line in GOLDEN_NAMES.read_text().splitlines()]
    assert list(tiny_model().params()) == golden


def test_buffers_hold_the_frozen_prompt_table():
    model = tiny_model()
    assert model.buffers() == {"cond.prompt_table": model.conditioner.prompt_table.data}


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
    den = Denoiser(Rng(0).split("denoiser"), TINY)
    cond = Conditioner(Rng(0).split("conditioner"), TINY)
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
    with pytest.raises(ValueError, match=r"x_t shape \(3, 12, 12\)"):
        model.predict_eps(Tensor(x_t.data[0]), t, cond)


def test_an_empty_batch_is_rejected_by_the_first_conv():
    model = tiny_model()
    _, _, x_t, _ = tiny_batch(model, 1)
    with pytest.raises(ShapeError, match=r"conv2d: input \(0, 12, 12, 3\) has an extent of 0"):
        model.predict_eps(Tensor(x_t.data[:0]), 5, model.conditioner.fuse_null(0))


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
    with pytest.raises(ShapeError, match=r"t shape \(1,\) != \(3,\)"):
        model.predict_eps(x_t, np.array([5]), cond)


def test_scalar_t_equals_a_repeated_t_array():
    model = tiny_model()
    prompts, layouts, x_t, _ = tiny_batch(model, 2)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    assert np.array_equal(model.predict_eps(x_t, 250, cond).data,
                          model.predict_eps(x_t, np.array([250, 250]), cond).data)


@pytest.mark.parametrize("bad", [0, TINY.total_steps + 1])
def test_every_step_index_is_checked_by_the_schedule(bad):
    model = tiny_model()
    sched = model.schedule
    prompts, layouts, x_t, _ = tiny_batch(model, 2)
    cond = model.conditioner.fuse_joint(prompts, layouts)
    calls = {
        "forward_diffuse": lambda t: forward_diffuse(x_t, t, x_t, sched),
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


def test_no_parameter_has_a_dead_gradient():
    # a parameter whose gradient is 0 up to rounding cannot change a result
    model, batch, weights = _loss_setup(np.float64)
    params = model.params()
    with GradTape() as tape:
        loss, _ = dropout_loss(model, batch, weights)
    grads = tape.backward(loss)
    largest = {name: np.abs(grads[p]).max() for name, p in params.items()}
    top = max(largest.values())
    dead = [name for name, g in largest.items() if not g > 1e-12 * top]
    assert not dead, f"{dead}: largest gradient entry at most 1e-12 of the largest, {top:.3g}"


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
    # a name the model does not register is ignored
    src, dst = tiny_model(seed=0), tiny_model(seed=5)
    dst.load_tensors({**_tensors(src), "denoiser.unknown.w": np.full(3, np.nan)})
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


@pytest.mark.parametrize("names", [("denoiser.out_conv.b",), ("cond.prompt_table",),
                                   ("cond.prompt_table", "denoiser.out_conv.b")],
                         ids=["denoiser.out_conv.b", "cond.prompt_table", "both"])
def test_load_tensors_rejects_a_missing_entry(names):
    # every missing name is listed in one message
    model = tiny_model()
    before = _tensors(model)
    tensors = {k: v for k, v in before.items() if k not in names}
    with pytest.raises(KeyError, match="missing for " + ", ".join(f"'{n}'" for n in names)):
        model.load_tensors(tensors)
    assert all(np.array_equal(before[k], v) for k, v in _tensors(model).items())


@pytest.mark.parametrize("name", ["denoiser.out_conv.w", "cond.prompt_table"])
def test_load_tensors_rejects_a_mis_shaped_entry(name):
    # a (1, d) prompt table would broadcast over every row of the frozen table
    model = tiny_model()
    before = _tensors(model)
    tensors = dict(before)
    tensors[name] = np.zeros((1,) + tensors[name].shape[1:])
    with pytest.raises(ShapeError, match=name):
        model.load_tensors(tensors)
    assert all(np.array_equal(before[k], v) for k, v in _tensors(model).items())


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_tensors_rejects_a_non_finite_entry(value):
    model = tiny_model()
    before = _tensors(model)
    tensors = dict(before)
    tensors["denoiser.mid_attn.cross_attn.q.w"] = tensors["denoiser.mid_attn.cross_attn.q.w"].copy()
    tensors["denoiser.mid_attn.cross_attn.q.w"][0, 1] = value
    with pytest.raises(NonFiniteError, match="'denoiser.mid_attn.cross_attn.q.w' has non-finite"):
        model.load_tensors(tensors)
    assert all(np.array_equal(before[k], v) for k, v in _tensors(model).items())
