"""Gaussian pseudo-attention crops for per-detection features.

Each detection's box is expanded to an M x M square window,
M = ceil(expand_ratio * max(width, height)), centered on the box center.
The attention map over that window is exactly 1 on the original box and an
unnormalized Gaussian of the center offset elsewhere:

    A(ix, iy) = exp(-1/2 * ((ix - cx)^2 / (s*W)^2 + (iy - cy)^2 / (s*H)^2))

with s the sigma_scale knob. The window is always square, so resizing it to
the fixed crop side uses equal scale factors on both axes and the crop
never distorts the box's aspect ratio.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import BBox, center

# A box on a u32-sized grid has sides below 2**32, so with this ratio its
# window side stays below 2**62 and every window coordinate fits int64.
MAX_EXPAND_RATIO = 2.0**30


@dataclass
class AttentionConfig:
    expand_ratio: float = 1.5
    sigma_scale: float = 0.5

    def __post_init__(self) -> None:
        if not 1.0 <= self.expand_ratio <= MAX_EXPAND_RATIO:
            raise ValueError(f"expand_ratio must be in [1, 2**30], got {self.expand_ratio}")
        if not (math.isfinite(self.sigma_scale) and self.sigma_scale > 0.0):
            raise ValueError(f"sigma_scale must be finite and positive, got {self.sigma_scale}")


@dataclass(frozen=True)
class CropWindow:
    """Square pixel window; may extend past the frame bounds."""

    x0: int
    y0: int
    size: int

    @property
    def x1(self) -> int:
        return self.x0 + self.size - 1

    @property
    def y1(self) -> int:
        return self.y0 + self.size - 1


@dataclass
class AttentionMap:
    """Attention values over an expanded window, plus the box placement.

    ``values[wy, wx]`` weights window pixel (x0 + wx, y0 + wy);
    ``box_window`` is the original box in window-local coordinates.
    """

    values: np.ndarray
    window: CropWindow
    box_window: tuple[int, int, int, int]


@dataclass
class CropFeature:
    """Fixed-size per-detection tensor: D feature channels + 1 attention."""

    tensor: np.ndarray


def expanded_window(b: BBox, cfg: AttentionConfig) -> CropWindow:
    """M x M square window centered on the box center (round-half-up)."""
    m = math.ceil(cfg.expand_ratio * max(b.width, b.height))
    cx, cy = center(b)
    x0 = math.floor(cx - (m - 1) / 2.0 + 0.5)
    y0 = math.floor(cy - (m - 1) / 2.0 + 0.5)
    return CropWindow(x0, y0, m)


def _attention_at(b: BBox, cfg: AttentionConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Attention at every (ys[i], xs[j]) frame pixel: 1 in the box, else
    the Gaussian of the center offset."""
    cx, cy = center(b)
    sx = cfg.sigma_scale * b.width
    sy = cfg.sigma_scale * b.height
    q = ((xs - cx) / sx)[None, :] ** 2 + ((ys - cy) / sy)[:, None] ** 2
    values = np.exp(-0.5 * q)
    inside = (
        ((xs >= b.x0) & (xs <= b.x1))[None, :]
        & ((ys >= b.y0) & (ys <= b.y1))[:, None]
    )
    values[inside] = 1.0
    return values


def attention_map(b: BBox, cfg: AttentionConfig) -> AttentionMap:
    """Exact-interior Gaussian attention over the expanded window.

    In-box pixels are set to 1 directly (no exponential evaluated there);
    outside values follow the diagonal-covariance Gaussian with axis sigmas
    sigma_scale * width and sigma_scale * height.
    """
    win = expanded_window(b, cfg)
    xs = np.arange(win.x0, win.x0 + win.size, dtype=np.float64)
    ys = np.arange(win.y0, win.y0 + win.size, dtype=np.float64)
    return AttentionMap(
        values=_attention_at(b, cfg, xs, ys),
        window=win,
        box_window=(b.x0 - win.x0, b.y0 - win.y0, b.x1 - win.x0, b.y1 - win.y0),
    )


# The feature stub's scales and local window, and the crop side. Per scale
# the stub gives three channels and a crop adds the attention channel, so
# every crop has CROP_SHAPE; its size is the input size of every activity
# model that the frame loop runs or `train` writes.
STUB_SCALES = (1, 2, 4)
LOCAL_WINDOW = 3
CROP_SIDE = 16
CROP_SHAPE = (3 * len(STUB_SCALES) + 1, CROP_SIDE, CROP_SIDE)


@dataclass
class FeatureGrid:
    """Feature channels of an (H, W) frame, each kept at its own scale.

    ``levels`` holds (scale, array) pairs with array of shape
    (C, ceil(H / scale), ceil(W / scale)); channel c of a level at frame
    pixel (y, x) is ``array[c, y // scale, x // scale]``. Crops read the
    levels directly, so no frame-size tensor is built per scale.
    """

    shape: tuple[int, int]
    levels: list[tuple[int, np.ndarray]]

    @property
    def depth(self) -> int:
        return sum(len(array) for _, array in self.levels)

    @property
    def nbytes(self) -> int:
        return sum(array.nbytes for _, array in self.levels)


@functools.lru_cache(maxsize=1024)
def _resize_taps(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Source lines and bilinear weights of an m -> n resize, m != n.

    Returns the window lines the resize reads (the n low, then the n high
    source lines of the output lines) and the low and high lines' weights.
    Window sides recur from frame to frame, since a tracked box keeps or
    slowly changes its size, so the plans are cached: at most 1024 of
    4 n values each (under 1.2 MB at the crop side of 16), enough
    for every side up to 1024 px. A miss costs what computing the plan
    per call costs. The arrays are read-only because callers share them.
    """
    src = np.minimum(np.maximum((np.arange(n) + 0.5) * (m / n) - 0.5, 0.0), m - 1.0)
    lo = src.astype(int)
    high = src - lo
    low = 1.0 - high
    taps = np.concatenate([lo, np.minimum(lo + 1, m - 1)])
    for array in (taps, low, high):
        array.flags.writeable = False
    return taps, low, high


def crop_and_resize(features: FeatureGrid, b: BBox, cfg: AttentionConfig) -> CropFeature:
    """Expanded-window crop of the features with its attention channel.

    The M x M window is resized square-to-square to CROP_SIDE by bilinear
    sampling at half-pixel centers, with zero features outside the frame,
    and the equally resized attention map is appended as channel D + 1.
    Only the window rows and columns that the resize reads are gathered
    from each level, and attention is evaluated only there.

    The taps and weights come from `_resize_taps`. Each resize pass
    multiplies the low source lines by their weights into a fresh array
    and adds the high lines' products in place: the same products and sum
    as `low_lines * low + high_lines * high`, one temporary fewer.
    """
    height, width = features.shape
    win = expanded_window(b, cfg)
    m, n = win.size, CROP_SIDE
    if m == n:
        taps = np.arange(m)
    else:
        taps, low, high = _resize_taps(m, n)
    ys = win.y0 + taps
    xs = win.x0 + taps
    iy = np.minimum(np.maximum(ys, 0), height - 1)
    ix = np.minimum(np.maximum(xs, 0), width - 1)
    stack = np.empty((features.depth + 1, len(taps), len(taps)))
    c = 0
    for scale, array in features.levels:
        flat = np.add.outer(iy // scale * array.shape[2], ix // scale)
        k = len(array)
        # The indices are in range; mode "clip" lets take write into out
        # without an intermediate buffer.
        array.reshape(k, -1).take(flat, axis=1, out=stack[c : c + k], mode="clip")
        c += k
    if win.y0 < 0 or win.y1 >= height:
        stack[:c, (ys < 0) | (ys >= height), :] = 0.0
    if win.x0 < 0 or win.x1 >= width:
        stack[:c, :, (xs < 0) | (xs >= width)] = 0.0
    stack[c] = _attention_at(b, cfg, xs, ys)
    if m != n:
        rows = stack[:, :n, :] * low[:, None]
        rows += stack[:, n:, :] * high[:, None]
        stack = rows[:, :, :n] * low
        stack += rows[:, :, n:] * high
    return CropFeature(stack)
