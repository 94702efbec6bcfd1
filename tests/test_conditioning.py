import numpy as np
import pytest

from duetdiff.conditioning import (
    PAD_TOKEN,
    Conditioner,
    ImageEncoder,
    PromptVocab,
    frozen_orthogonal_table,
)
from duetdiff.rng import Rng
from duetdiff.tensor import GradTape, Tensor, tsum

D = 16
CANVAS = 12


def _conditioner() -> Conditioner:
    return Conditioner(Rng(0), PromptVocab(), canvas=CANVAS, d_embed=D,
                       encoder_channels=(4, 8), encoder_out_channels=8,
                       n_layers=2, n_heads=2, d_hidden=32)


def _layouts(rows: int, dtype=np.float64) -> Tensor:
    bits = Rng(1).uniform(rows * CANVAS * CANVAS) < 0.3
    return Tensor(bits.reshape(rows, 1, CANVAS, CANVAS).astype(dtype))


def test_vocab_pads_to_text_len_and_rejects_bad_prompts():
    vocab = PromptVocab()
    assert vocab.encode(["red", "circle"]).tolist() == [1, 5, 0, 0, 0, 0, 0, 0]
    assert not vocab.encode([]).any()
    with pytest.raises(KeyError, match="purple"):
        vocab.encode(["purple"])
    with pytest.raises(ValueError, match="longer than"):
        vocab.encode(["red"] * 9)
    with pytest.raises(ValueError, match="PAD"):
        PromptVocab(tokens=("red", PAD_TOKEN))


def test_frozen_table_rows_are_orthonormal():
    table = frozen_orthogonal_table(Rng(2), 8, D, dtype=np.float64)
    np.testing.assert_allclose(table @ table.T, np.eye(8), atol=1e-12)
    with pytest.raises(ValueError):
        frozen_orthogonal_table(Rng(2), D + 1, D)


def test_prompt_embedding_is_constant_table_rows():
    cond = _conditioner()
    emb = cond.encode_prompt([["blue", "square"]])
    assert not emb.requires_grad
    table = cond.prompt_encoder.table.data
    assert np.array_equal(emb.data[0, :2], table[[3, 6]])
    assert np.array_equal(emb.data[0, 2:], np.broadcast_to(table[0], (6, D)))


def test_image_encoder_tokens_and_shape():
    enc = ImageEncoder(Rng(3), 1, (4, 8), 8, D)
    assert enc.token_count(CANVAS, CANVAS) == 9
    with pytest.raises(ValueError, match="not divisible"):
        enc.token_count(10, 10)
    with pytest.raises(ValueError, match="expects"):
        enc(Tensor(np.zeros((1, CANVAS, CANVAS))))
    out = enc(_layouts(2))
    assert out.shape == (2, 9, D)


def test_fusion_modes_share_the_joint_sequence_shape():
    cond = _conditioner()
    prompts = [["red", "circle"], []]
    layouts = _layouts(2)
    seq = cond.vocab.text_len + cond.image_tokens
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
    with pytest.raises(ValueError, match="widths differ"):
        cond.fuse(cond.null_text(2), Tensor(np.zeros((2, cond.image_tokens, D + 1))))


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
    text = Tensor(np.zeros((rows, cond.vocab.text_len, D)))
    image = Tensor(np.zeros((rows, cond.image_tokens, D)))
    _, _, (td, idr) = cond.apply_condition_dropout(text, image, Rng(5), 0.1, 0.3)
    for flags, p in ((td, 0.1), (idr, 0.3)):
        assert abs(flags.mean() - p) <= 4 * np.sqrt(p * (1 - p) / rows)
    assert abs((td & idr).mean() - 0.03) <= 4 * np.sqrt(0.03 * 0.97 / rows)


def test_null_image_trains_only_through_dropped_rows():
    cond = _conditioner()
    text = cond.encode_prompt([["red"], ["blue"]])
    image = cond.encode_image(_layouts(2))
    with GradTape() as tape:
        _, out, (_, dropped) = cond.apply_condition_dropout(text, image, Rng(6), 0.0, 0.5)
        loss = tsum(out)
    assert dropped.any() and not dropped.all()
    g = tape.backward(loss)[cond.null_image]
    assert np.all(g == float(dropped.sum()))
