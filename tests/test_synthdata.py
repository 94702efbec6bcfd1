import numpy as np
import pytest

from duetdiff.rng import Rng
from duetdiff.synthdata import (
    COLOR_NAMES,
    PALETTE,
    SHAPES,
    SceneSpec,
    generate_dataset,
    make_prompt,
    max_size,
    render,
    sample_scene,
    shape_mask,
    to_unit,
)


def test_full_canvas_square_is_all_color():
    # 9x9 canvas, half-extent 3 centered -> covers rows/cols 1..7 (margin 1)
    scene = SceneSpec("square", "red", (4, 4), 3)
    img, _ = render(scene, 9)
    fg = to_unit(PALETTE["red"])
    inner = img[:, 1:8, 1:8]
    assert np.allclose(inner, np.array(fg).reshape(3, 1, 1))


def test_circle_center_and_corner():
    scene = SceneSpec("circle", "blue", (8, 8), 3)
    img, _ = render(scene, 16)
    assert np.allclose(img[:, 8, 8], to_unit(PALETTE["blue"]))
    assert np.allclose(img[:, 0, 0], to_unit((128, 128, 128)))


@pytest.mark.parametrize("radius", [3, 4, 5, 6])
def test_circle_area_close_to_analytic(radius):
    scene = SceneSpec("circle", "green", (8, 8), radius)
    area = shape_mask(scene, 16).sum()
    assert abs(area - np.pi * radius**2) <= 0.15 * np.pi * radius**2


def test_layout_matches_target_threshold():
    for shape in SHAPES:
        scene = SceneSpec(shape, "yellow", (7, 8), 4)
        target, layout = render(scene, 16)
        assert target.shape == (3, 16, 16) and target.dtype == np.float64
        assert layout.shape == (1, 16, 16) and layout.dtype == np.float64
        bg = to_unit((128, 128, 128)).reshape(3, 1, 1)
        fg_from_target = np.sqrt(((target - bg) ** 2).sum(axis=0)) > 0.25
        assert np.array_equal(fg_from_target, layout[0] > 0)


def test_color_change_keeps_layout():
    (red, a), (blue, b) = (render(SceneSpec("triangle", color, (8, 8), 5), 16)
                           for color in ("red", "blue"))
    for image, channels in ((red, 3), (blue, 3), (a, 1), (b, 1)):
        assert image.shape == (channels, 16, 16) and image.dtype == np.float64
    assert np.array_equal(a, b) and not np.array_equal(red, blue)


def test_disjoint_centers_low_iou():
    a = shape_mask(SceneSpec("square", "red", (5, 5), 3), 16)
    b = shape_mask(SceneSpec("square", "red", (11, 11), 3), 16)
    inter = np.logical_and(a, b).sum()
    union = np.logical_or(a, b).sum()
    assert inter / union < 0.5


def test_scene_invariant_violations_rejected():
    with pytest.raises(ValueError):
        SceneSpec("circle", "red", (3, 8), 4).validate(16)  # touches margin
    with pytest.raises(ValueError):
        SceneSpec("circle", "red", (8, 8), 2).validate(16)  # too small
    with pytest.raises(ValueError):
        SceneSpec("hexagon", "red", (8, 8), 3).validate(16)
    with pytest.raises(ValueError):
        SceneSpec("circle", "pink", (8, 8), 3).validate(16)


def test_prompt_tokens():
    scene = SceneSpec("square", "green", (8, 8), 4)
    assert make_prompt(scene) == ["green", "square"]


def test_dataset_deterministic():
    a = generate_dataset(16, 16, seed=9, namespace="scene")
    b = generate_dataset(16, 16, seed=9, namespace="scene")
    for sa, sb in zip(a, b):
        assert sa.scene == sb.scene
        assert np.array_equal(sa.target, sb.target)
        assert np.array_equal(sa.layout, sb.layout)


def test_dataset_prefix_stable():
    # per-index streams: the first k samples do not depend on n
    a = generate_dataset(4, 16, seed=3, namespace="scene")
    b = generate_dataset(32, 16, seed=3, namespace="scene")
    for sa, sb in zip(a, b[:4]):
        assert sa.scene == sb.scene


def test_dataset_valid_and_balanced():
    samples = generate_dataset(4096, 16, seed=1, namespace="scene")
    counts = {}
    for s in samples:
        s.scene.validate(16)
        counts[(s.scene.shape, s.scene.color)] = counts.get((s.scene.shape, s.scene.color), 0) + 1
    expected = 4096 / (len(SHAPES) * len(COLOR_NAMES))
    for shape in SHAPES:
        for color in COLOR_NAMES:
            assert abs(counts[(shape, color)] - expected) <= 0.2 * expected


def test_sample_scene_respects_canvas():
    rng = Rng(4)
    for canvas in (12, 16, 24, 32):
        for i in range(50):
            sample_scene(rng.split(f"{canvas}/{i}"), canvas).validate(canvas)
    assert max_size(16) == 6


def test_value_ranges():
    samples = generate_dataset(8, 16, seed=2, namespace="scene")
    for s in samples:
        assert s.target.min() >= -1.0 and s.target.max() <= 1.0
        assert set(np.unique(s.layout)) <= {-1.0, 1.0}
