"""Layout and color-adherence metrics for generated images.

Foreground detection: a pixel is foreground when its RGB distance from the
background gray exceeds 0.25 in [-1, 1] units. That threshold sits far from
both the background (distance 0) and every palette color (distance > 0.6).

A layout is the (1, H, W) silhouette that ``synthdata.render`` draws and
``Sample.layout`` holds, +1 on the shape; ``layout_iou`` and
``color_adherence`` take no other form.
"""

from __future__ import annotations

import numpy as np

from .synthdata import BACKGROUND, COLOR_NAMES, PALETTE, to_unit

FOREGROUND_THRESHOLD = 0.25


def foreground_mask(image: np.ndarray) -> np.ndarray:
    """Boolean (H, W) mask of pixels far enough from background gray."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a (3, H, W) image, got {image.shape}")
    bg = to_unit(BACKGROUND).reshape(3, 1, 1)
    dist = np.sqrt(((image - bg) ** 2).sum(axis=0))
    return dist > FOREGROUND_THRESHOLD


def _layout_mask(generated: np.ndarray, layout: np.ndarray) -> np.ndarray:
    """Boolean (H, W) mask of a (1, H, W) layout's +1 pixels, after checking it
    covers the (3, H, W) ``generated`` image's extent."""
    if layout.shape != (1,) + generated.shape[1:]:
        raise ValueError(f"layout {layout.shape} != (1, H, W) of generated {generated.shape}")
    return layout[0] > 0


def layout_iou(generated: np.ndarray, layout: np.ndarray) -> float:
    """IoU between the generated foreground and the (1, H, W) silhouette's +1 mask.

    Two empty masks count as a perfect match (IoU 1.0).
    """
    ref_mask = _layout_mask(generated, layout)
    gen_mask = foreground_mask(generated)
    union = np.logical_or(gen_mask, ref_mask).sum()
    if union == 0:
        return 1.0
    inter = np.logical_and(gen_mask, ref_mask).sum()
    return float(inter) / float(union)


def color_adherence(generated: np.ndarray, layout: np.ndarray, target_color: str):
    """Mean foreground RGB and whether its nearest palette entry matches.

    Foreground pixels are the +1 pixels of the (1, H, W) layout. Distance
    ties break toward the lower palette index (palette order: red, green,
    blue, yellow). An empty mask fails adherence and reports no mean.
    """
    if target_color not in PALETTE:
        raise ValueError(f"unknown palette color '{target_color}'")
    mask = _layout_mask(generated, layout)
    if not mask.any():
        return False, None
    mean_rgb = generated[:, mask].mean(axis=1)
    dists = [np.linalg.norm(mean_rgb - to_unit(PALETTE[name])) for name in COLOR_NAMES]
    nearest = COLOR_NAMES[int(np.argmin(dists))]
    return nearest == target_color, tuple(float(v) for v in mean_rgb)
