"""Axis-aligned box arithmetic shared by every pipeline stage.

Coordinates are integer pixels at map resolution. A box stores inclusive
corner coordinates (x0, y0, x1, y1); the pixel set it covers is
``{(ix, iy) : x0 <= ix <= x1, y0 <= iy <= y1}``. Areas for overlap metrics
use the continuous convention ``(x1 - x0) * (y1 - y0)`` so IoU values stay
comparable with standard detection tooling.
"""

from __future__ import annotations

from dataclasses import dataclass

# Pixel location (i_x, i_y): column then row, both zero-based.
PixelCoord = tuple[int, int]


@dataclass(frozen=True)
class BBox:
    """Axis-aligned pixel-space bounding box with inclusive corners."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValueError(f"degenerate box {self.as_tuple()}")
        if self.width < 2 or self.height < 2:
            raise ValueError(f"box below minimum 2 px side: {self.as_tuple()}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Continuous-convention area (x1 - x0) * (y1 - y0)."""
        return float(self.width * self.height)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)

    def contains(self, ix: int, iy: int) -> bool:
        """Inclusive-bounds pixel membership test."""
        return self.x0 <= ix <= self.x1 and self.y0 <= iy <= self.y1

    def within_grid(self, width: int, height: int) -> bool:
        return 0 <= self.x0 and 0 <= self.y0 and self.x1 < width and self.y1 < height


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x1, b.x1) - max(a.x0, b.x0)
    iy = min(a.y1, b.y1) - max(a.y0, b.y0)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = float(ix * iy)
    union = a.area + b.area - inter
    return inter / union


def center(b: BBox) -> tuple[float, float]:
    """Box center ((x0 + x1) / 2, (y0 + y1) / 2)."""
    return ((b.x0 + b.x1) / 2.0, (b.y0 + b.y1) / 2.0)


def separation(a: BBox, b: BBox) -> int:
    """Empty-pixel gap between the occupied regions of two boxes.

    Returns the largest per-axis count of empty pixel rows/columns between
    the boxes: 0 when they touch, negative when they overlap on both axes.
    """
    dx = b.x0 - a.x1 - 1 if b.x0 > a.x1 else a.x0 - b.x1 - 1
    dy = b.y0 - a.y1 - 1 if b.y0 > a.y1 else a.y0 - b.y1 - 1
    return max(dx, dy)
