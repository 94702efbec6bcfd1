"""Synthetic shapes dataset with exact geometric ground truth.

Each sample is a colored shape on mid-gray (the target), its binary
silhouette (the image condition), and a two-token prompt naming color and
shape. ``render`` draws both images of a scene from one mask, so layout
metrics have an exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import Rng

SHAPES = ("circle", "square", "triangle")

# 8-bit RGB palette; order also defines the tie-break for nearest-color
PALETTE = {
    "red": (200, 40, 40),
    "green": (40, 200, 40),
    "blue": (40, 40, 200),
    "yellow": (220, 220, 40),
}
COLOR_NAMES = tuple(PALETTE)
BACKGROUND = (128, 128, 128)

MIN_SIZE = 3
MARGIN = 1


def to_unit(values) -> np.ndarray:
    """Map 8-bit channel values linearly onto [-1, 1]."""
    return np.asarray(values, dtype=np.float64) * (2.0 / 255.0) - 1.0


@dataclass(frozen=True)
class SceneSpec:
    """One shape instance: kind, palette color, center (row, col), size.

    size is the radius for circles and the half-extent for squares and
    triangles.
    """

    shape: str
    color: str
    center: tuple[int, int]
    size: int

    def validate(self, canvas: int) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape '{self.shape}'")
        if self.color not in PALETTE:
            raise ValueError(f"unknown color '{self.color}'")
        if self.size < MIN_SIZE:
            raise ValueError(f"size {self.size} below minimum {MIN_SIZE}")
        r, c = self.center
        lo = MARGIN + self.size
        hi = canvas - 1 - MARGIN - self.size
        if not (lo <= r <= hi and lo <= c <= hi):
            raise ValueError(
                f"shape of size {self.size} at {self.center} does not fit a "
                f"{canvas}x{canvas} canvas with a {MARGIN}-pixel margin"
            )


def shape_mask(scene: SceneSpec, canvas: int) -> np.ndarray:
    """Boolean (H, W) mask of the filled shape on integer pixel centers."""
    scene.validate(canvas)
    rows, cols = np.mgrid[0:canvas, 0:canvas]
    dr = rows - scene.center[0]
    dc = cols - scene.center[1]
    s = scene.size
    if scene.shape == "circle":
        return dr * dr + dc * dc <= s * s
    if scene.shape == "square":
        return (np.abs(dr) <= s) & (np.abs(dc) <= s)
    # up-pointing triangle: apex at (center_r - s), base halfwidth grows
    # linearly to s at the bottom row
    return (dr >= -s) & (dr <= s) & (2 * np.abs(dc) <= (dr + s))


def render(scene: SceneSpec, canvas: int) -> tuple[np.ndarray, np.ndarray]:
    """(target, layout) of one scene, both float64 from one ``shape_mask``: the
    (3, H, W) palette shape on mid-gray in [-1, 1], and its (1, H, W) silhouette,
    +1 on the shape and -1 elsewhere."""
    mask = shape_mask(scene, canvas)
    fg = to_unit(PALETTE[scene.color])[:, None, None]
    bg = to_unit(BACKGROUND)[:, None, None]
    return np.where(mask, fg, bg), np.where(mask, 1.0, -1.0)[None]


def make_prompt(scene: SceneSpec) -> list[str]:
    return [scene.color, scene.shape]


def max_size(canvas: int) -> int:
    return (canvas - 1 - 2 * MARGIN) // 2


def sample_scene(rng: Rng, canvas: int) -> SceneSpec:
    """Uniform scene over valid (shape, color, size, center) tuples.

    Draw order is fixed: shape, color, size, row, col.
    """
    top = max_size(canvas)
    if top < MIN_SIZE:
        raise ValueError(f"canvas {canvas} too small for size-{MIN_SIZE} shapes")
    shape = SHAPES[int(rng.integers(1, len(SHAPES))[0])]
    color = COLOR_NAMES[int(rng.integers(1, len(COLOR_NAMES))[0])]
    size = MIN_SIZE + int(rng.integers(1, top - MIN_SIZE + 1)[0])
    span = canvas - 1 - 2 * (MARGIN + size)
    r = MARGIN + size + int(rng.integers(1, span + 1)[0])
    c = MARGIN + size + int(rng.integers(1, span + 1)[0])
    return SceneSpec(shape=shape, color=color, center=(r, c), size=size)


@dataclass(frozen=True)
class Sample:
    scene: SceneSpec
    target: np.ndarray      # (3, H, W) in [-1, 1]
    layout: np.ndarray      # (1, H, W) in {-1, +1}
    prompt: list[str]


def generate_dataset(n: int, canvas: int, seed: int, namespace: str) -> list[Sample]:
    """n deterministic samples; index i uses the stream split(f"{namespace}/{i}").

    Per-index streams make generation order-independent and parallelizable.
    """
    base = Rng(seed)
    samples = []
    for i in range(n):
        scene = sample_scene(base.split(f"{namespace}/{i}"), canvas)
        target, layout = render(scene, canvas)
        samples.append(Sample(scene=scene, target=target.astype(np.float32),
                              layout=layout.astype(np.float32), prompt=make_prompt(scene)))
    return samples

