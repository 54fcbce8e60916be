"""Dense segmentation / regression map encoding and per-pixel decode.

A frame's ground truth is rasterized into two grids over the pixel lattice:

* ``seg``: 1 at every pixel covered by a box (inclusive bounds), else 0.
* ``reg``: two channels of diagonal projections, normalized by the box
  diagonal length. With theta and alpha the box's diagonal angle and
  length, an in-box pixel (ix, iy) encodes

      r0 = ((x1 - ix) * cos(theta) + (y1 - iy) * sin(theta)) / alpha
      r1 = ((ix - x0) * cos(theta) + (iy - y0) * sin(theta)) / alpha

  so r0 peaks at exactly 1 on the top-left corner, r1 at the bottom-right
  corner, and r0 + r1 = 1 everywhere inside the box. Outside boxes both
  channels are 0.

When boxes overlap, each contested pixel is assigned to the box with the
nearest center; ties go to the smaller box, then to input order.

Substituting cos(theta) = W / alpha and sin(theta) = H / alpha turns each
projection into a ratio of integers, ((x1 - ix) * W + (y1 - iy) * H) over
W^2 + H^2, so the corner peaks are exactly 1.0 and the r0 + r1 identity
holds to one rounding step. Maps live in float64 in memory; the tensor
file narrows them to the format's float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensorio
from .geometry import BBox, PixelCoord

SEG_CHANNEL = 0
REG0_CHANNEL = 1
REG1_CHANNEL = 2


@dataclass
class DenseMaps:
    """Segmentation grid plus two-channel regression grid for one frame.

    ``seg`` has shape (H, W); ``reg`` has shape (2, H, W). For clean
    encodings the regression channels are zero wherever ``seg`` is zero;
    corrupted or model-produced maps may break that identity, which is why
    the decode path re-masks before use.
    """

    seg: np.ndarray
    reg: np.ndarray

    @property
    def width(self) -> int:
        return self.seg.shape[1]

    @property
    def height(self) -> int:
        return self.seg.shape[0]


def zero_maps(grid: tuple[int, int]) -> DenseMaps:
    width, height = grid
    return DenseMaps(
        seg=np.zeros((height, width), dtype=np.float64),
        reg=np.zeros((2, height, width), dtype=np.float64),
    )


def encode(boxes: Sequence[BBox], grid: tuple[int, int]) -> DenseMaps:
    """Rasterize ground-truth boxes into dense maps.

    Every box must lie fully inside the grid. Boxes are visited in input
    order; a box takes a pixel, and writes its projections there, when its
    center is nearer than the holder's (ties: smaller area), so the last
    box to take a pixel is its owner.
    """
    width, height = grid
    for b in boxes:
        if not b.within_grid(width, height):
            raise ValueError(f"box {b.as_tuple()} outside {width}x{height} grid")

    maps = zero_maps(grid)
    best_d2 = np.full((height, width), np.inf, dtype=np.float64)
    best_area = np.full((height, width), np.inf, dtype=np.float64)
    for b in boxes:
        ys = np.arange(b.y0, b.y1 + 1, dtype=np.float64)
        xs = np.arange(b.x0, b.x1 + 1, dtype=np.float64)
        cx = (b.x0 + b.x1) / 2.0
        cy = (b.y0 + b.y1) / 2.0
        d2 = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
        win = (slice(b.y0, b.y1 + 1), slice(b.x0, b.x1 + 1))
        take = (d2 < best_d2[win]) | ((d2 == best_d2[win]) & (b.area < best_area[win]))
        best_d2[win][take] = d2[take]
        best_area[win][take] = b.area
        # cos(theta) = W / alpha and sin(theta) = H / alpha, so each channel
        # is an integer numerator over the integer W^2 + H^2: corner peaks
        # come out exactly 1.0 and values never leave [0, 1].
        alpha_sq = float(b.width**2 + b.height**2)
        r0 = ((b.x1 - xs)[None, :] * b.width + (b.y1 - ys)[:, None] * b.height) / alpha_sq
        r1 = ((xs - b.x0)[None, :] * b.width + (ys - b.y0)[:, None] * b.height) / alpha_sq
        maps.reg[0][win][take] = r0[take]
        maps.reg[1][win][take] = r1[take]

    maps.seg[best_d2 < np.inf] = 1.0
    return maps


def decode_pixel(maps: DenseMaps, pixel: PixelCoord) -> tuple[float, float, float]:
    """Stored (s, r0, r1) at one pixel; rejects out-of-grid coordinates."""
    ix, iy = pixel
    if not (0 <= ix < maps.width and 0 <= iy < maps.height):
        raise ValueError(f"pixel {pixel} outside {maps.width}x{maps.height} grid")
    return (
        float(maps.seg[iy, ix]),
        float(maps.reg[0, iy, ix]),
        float(maps.reg[1, iy, ix]),
    )


def save_maps(path: str, maps: DenseMaps) -> None:
    """Write maps as one rank-3 tensor with dims (3, H, W): S then r0, r1."""
    tensorio.save_tensor(path, np.stack([maps.seg, maps.reg[0], maps.reg[1]]).astype(np.float32))


def load_maps(path: str) -> DenseMaps:
    """A map file's grids; a malformed file raises TensorFormatError naming `path`."""
    tensor = tensorio.load_tensor(path)
    if tensor.ndim != 3 or tensor.shape[0] != 3:
        raise tensorio.TensorFormatError(f"{path}: expected dims (3, H, W), got {tensor.shape}")
    if 0 in tensor.shape:
        raise tensorio.TensorFormatError(f"{path}: map grid {tensor.shape[2]}x{tensor.shape[1]} has a zero dimension")
    grids = np.asarray(tensor, dtype=np.float64)
    return DenseMaps(seg=grids[SEG_CHANNEL], reg=grids[REG0_CHANNEL : REG1_CHANNEL + 1])
