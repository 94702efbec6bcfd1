import numpy as np
import pytest

from duetdiff.metrics import color_adherence, foreground_mask, layout_iou
from duetdiff.synthdata import PALETTE, SceneSpec, render, to_unit


def _colorize(layout, color):
    """Paint a silhouette with a palette color on background gray."""
    fg = to_unit(PALETTE[color]).reshape(3, 1, 1)
    bg = to_unit((128, 128, 128)).reshape(3, 1, 1)
    mask = layout[0] > 0
    return np.where(mask, fg, bg)


def test_exact_colorized_layout_is_perfect():
    scene = SceneSpec("circle", "red", (8, 8), 4)
    _, layout = render(scene, 16)
    gen = _colorize(layout, "red")
    assert layout_iou(gen, layout) == 1.0


def test_all_background_scores_zero():
    scene = SceneSpec("square", "red", (8, 8), 4)
    _, layout = render(scene, 16)
    gen = np.broadcast_to(to_unit((128, 128, 128)).reshape(3, 1, 1), (3, 16, 16)).copy()
    assert layout_iou(gen, layout) == 0.0


def test_iou_set_identities():
    left = np.full((1, 8, 8), -1.0)
    left[0, :, :2] = 1.0
    right = np.full((1, 8, 8), -1.0)
    right[0, :, 6:] = 1.0
    gen_left = _colorize(left, "blue")
    assert layout_iou(gen_left, right) == 0.0
    # half-overlapping equal-area masks -> IoU 1/3
    mid = np.full((1, 8, 8), -1.0)
    mid[0, :, 1:3] = 1.0
    assert layout_iou(_colorize(mid, "blue"), left) == pytest.approx(1 / 3)


def test_empty_vs_empty_is_one():
    empty = np.full((1, 4, 4), -1.0)
    gen = _colorize(empty, "red")
    assert layout_iou(gen, empty) == 1.0


def test_extent_mismatch_rejected():
    with pytest.raises(ValueError):
        layout_iou(np.zeros((3, 4, 4)), np.zeros((1, 5, 5)))


def test_a_layout_is_only_the_1hw_silhouette():
    _, layout = render(SceneSpec("circle", "red", (8, 8), 4), 16)
    gen = _colorize(layout, "red")
    for metric in (layout_iou, lambda g, lay: color_adherence(g, lay, "red")):
        with pytest.raises(ValueError, match=r"layout \(16, 16\) != \(1, H, W\)"):
            metric(gen, layout[0])


def test_render_target_matches_perfectly():
    scene = SceneSpec("triangle", "yellow", (7, 8), 5)
    gen, layout = render(scene, 16)
    assert layout_iou(gen, layout) == 1.0


def test_color_adherence_exact():
    scene = SceneSpec("circle", "green", (8, 8), 4)
    _, layout = render(scene, 16)
    gen = _colorize(layout, "green")
    ok, mean_rgb = color_adherence(gen, layout, "green")
    assert ok
    assert np.allclose(mean_rgb, to_unit(PALETTE["green"]))


def test_color_adherence_wrong_color():
    scene = SceneSpec("circle", "green", (8, 8), 4)
    _, layout = render(scene, 16)
    gen = _colorize(layout, "blue")
    ok, _ = color_adherence(gen, layout, "green")
    assert not ok


def test_color_adherence_tie_breaks_by_palette_index():
    layout = np.full((1, 4, 4), 1.0)
    red = np.array(to_unit(PALETTE["red"]))
    blue = np.array(to_unit(PALETTE["blue"]))
    gen = np.empty((3, 4, 4))
    gen[:, :2] = red.reshape(3, 1, 1)
    gen[:, 2:] = blue.reshape(3, 1, 1)
    # 50/50 mean is equidistant from red and blue; red wins (lower index)
    ok, _ = color_adherence(gen, layout, "red")
    assert ok
    ok, _ = color_adherence(gen, layout, "blue")
    assert not ok


def test_color_adherence_empty_mask():
    layout = np.full((1, 4, 4), -1.0)
    ok, mean_rgb = color_adherence(np.zeros((3, 4, 4)), layout, "red")
    assert not ok and mean_rgb is None


def test_foreground_mask_threshold():
    img = np.broadcast_to(to_unit((128, 128, 128)).reshape(3, 1, 1), (3, 2, 2)).copy()
    assert not foreground_mask(img).any()
    img[:, 0, 0] = to_unit(PALETTE["red"])
    assert foreground_mask(img)[0, 0]
    assert foreground_mask(img).sum() == 1
