import re

import numpy as np
import pytest

from duetdiff.conditioning import TOKENS, Conditioner, ImageEncoder, frozen_orthogonal_table
from duetdiff.rng import Rng
from duetdiff.synthdata import COLOR_NAMES, SHAPES, SceneSpec, make_prompt
from duetdiff.tensor import GradTape, Tensor, tsum

from tiny import TINY

D = TINY.d_embed
CANVAS = TINY.canvas


def _conditioner() -> Conditioner:
    return Conditioner(Rng(0), TINY)


def _layouts(rows: int, dtype=np.float64) -> Tensor:
    bits = Rng(1).uniform(rows * CANVAS * CANVAS) < 0.3
    return Tensor(bits.reshape(rows, 1, CANVAS, CANVAS).astype(dtype))


def test_encode_prompt_pads_to_text_len_and_rejects_bad_prompts():
    cond = _conditioner()
    table = cond.prompt_table.data
    emb = cond.encode_prompt([["red", "circle"], []]).data
    assert np.array_equal(emb[0], table[[1, 5, 0, 0, 0, 0, 0, 0]])
    assert np.array_equal(emb[1], np.broadcast_to(table[0], (8, D)))
    with pytest.raises(KeyError, match="unknown token 'purple'"):
        cond.encode_prompt([["purple"]])
    with pytest.raises(ValueError, match="prompt longer than text_len=8"):
        cond.encode_prompt([["red"] * 9])


def test_every_synthdata_prompt_encodes_to_its_table_rows():
    # the table's rows are drawn in this order, so the order is part of the seed's output
    assert TOKENS == ("<pad>", "red", "green", "blue", "yellow", "circle", "square", "triangle")
    cond = _conditioner()
    table = cond.prompt_table.data
    for c, color in enumerate(COLOR_NAMES):
        for s, shape in enumerate(SHAPES):
            prompt = make_prompt(SceneSpec(shape, color, (6, 6), 3))
            ids = [1 + c, 1 + len(COLOR_NAMES) + s] + [0] * (TINY.text_len - 2)
            assert np.array_equal(cond.encode_prompt([prompt]).data[0], table[ids]), prompt


def test_frozen_table_rows_are_orthonormal():
    table = frozen_orthogonal_table(Rng(2), 8, D)
    np.testing.assert_allclose(table @ table.T, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError):
        frozen_orthogonal_table(Rng(2), D + 1, D)


def test_prompt_embedding_is_constant_table_rows():
    cond = _conditioner()
    emb = cond.encode_prompt([["blue", "square"]])
    assert not emb.requires_grad
    table = cond.prompt_table.data
    assert np.array_equal(emb.data[0, :2], table[[3, 6]])
    assert np.array_equal(emb.data[0, 2:], np.broadcast_to(table[0], (6, D)))


def test_image_encoder_gives_one_token_per_cell_of_its_last_grid():
    enc = ImageEncoder(Rng(3), 1, (4, 8), 8, D)
    assert enc(_layouts(2)).shape == (2, 9, D)
    assert _conditioner().null_image.shape == (9, D)


@pytest.mark.parametrize("shape", [(1, CANVAS, CANVAS), (1, 1, 10, 10), (1, 1, 8, 8),
                                   (1, 3, CANVAS, CANVAS)],
                         ids=["rank-3", "10x10", "8x8", "3-channels"])
def test_encode_image_rejects_another_shape_by_name(shape):
    # 8x8 halves evenly too, but the encoder's last grid is then 2x2: 4 tokens, not 9
    with pytest.raises(ValueError, match=re.escape(
            f"encode_image: images shape {shape} != (N, 1, {CANVAS}, {CANVAS})")):
        _conditioner().encode_image(Tensor(np.zeros(shape)))


def test_fusion_modes_share_the_joint_sequence_shape():
    cond = _conditioner()
    prompts = [["red", "circle"], []]
    layouts = _layouts(2)
    seq = cond.text_len + cond.null_image.shape[0]
    joint = cond.fuse_joint(prompts, layouts)
    for out in (joint, cond.fuse_text_only(prompts), cond.fuse_image_only(layouts),
                cond.fuse_null(2)):
        assert out.shape == (2, seq, D)
    np.testing.assert_array_equal(
        cond.fuse_text_only(prompts).data,
        cond.fuse(cond.encode_prompt(prompts), cond.null_image_batch(2)).data)
    np.testing.assert_array_equal(
        cond.fuse_null(2).data,
        cond.fuse(cond.null_text(2), cond.null_image_batch(2)).data)
    with pytest.raises(ValueError, match="concat: incompatible shapes"):
        cond.fuse(cond.null_text(2), Tensor(np.zeros((2, cond.null_image.shape[0], D + 1))))


def test_condition_dropout_swaps_in_nulls():
    cond = _conditioner()
    text = cond.encode_prompt([["red", "circle"]] * 3)
    image = cond.encode_image(_layouts(3))
    t_all, i_all, (td, idr) = cond.apply_condition_dropout(text, image, Rng(4), 1.0, 1.0)
    assert td.all() and idr.all()
    assert np.array_equal(t_all.data, cond.null_text(3).data)
    assert np.array_equal(i_all.data, cond.null_image_batch(3).data)
    t_none, i_none, (td, idr) = cond.apply_condition_dropout(text, image, Rng(4), 0.0, 0.0)
    assert not td.any() and not idr.any()
    assert np.array_equal(t_none.data, text.data) and np.array_equal(i_none.data, image.data)
    with pytest.raises(ValueError, match="dropout rates"):
        cond.apply_condition_dropout(text, image, Rng(4), 1.5, 0.0)


def test_condition_dropout_rates_match_their_frequencies():
    cond = _conditioner()
    rows = 2000
    text = Tensor(np.zeros((rows, cond.text_len, D)))
    image = Tensor(np.zeros((rows, cond.null_image.shape[0], D)))
    _, _, (td, idr) = cond.apply_condition_dropout(text, image, Rng(5), 0.1, 0.3)
    for flags, p in ((td, 0.1), (idr, 0.3)):
        assert abs(flags.mean() - p) <= 4 * np.sqrt(p * (1 - p) / rows)
    assert abs((td & idr).mean() - 0.03) <= 4 * np.sqrt(0.03 * 0.97 / rows)


def test_null_image_trains_only_through_dropped_rows():
    cond = _conditioner()
    text = cond.encode_prompt([["red"], ["blue"]])
    image = cond.encode_image(_layouts(2))
    with GradTape() as tape:
        _, out, (_, dropped) = cond.apply_condition_dropout(text, image, Rng(8), 0.0, 0.5)
        loss = tsum(out)
    assert dropped.any() and not dropped.all()
    g = tape.backward(loss)[cond.null_image]
    assert np.all(g == float(dropped.sum()))
