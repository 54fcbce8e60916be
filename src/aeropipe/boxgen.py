"""Decode dense maps back into bounding boxes.

The decode runs four stages: mask the regression grid with the
segmentation grid, drop connected patches under MIN_PATCH_AREA pixels,
find the pixels of each channel above PEAK_FLOOR that are the maximum of
their PEAK_WINDOW window (channel 0 maxima are top-left corner
candidates, channel 1 maxima bottom-right), then combine corner pairs into
boxes and keep those whose enclosed area is at least a ``delta`` fraction
segmented. Only ``delta`` is configurable. A pair whose diagonal exceeds
half the grid diagonal is not a candidate, so a box that large is not
decoded.

Only masking and denoising pass over the whole grid. Peak finding tests
only the pixels above the peak floor, against their window ring by ring,
and groups tied plateaus on candidate coordinates; pairing tests all corner
pairs in one broadcast and counts segmented pixels inside each surviving
pair's box. Comparisons, equality and integer counts involve no rounding,
so the result is the one a full-grid decode gives.

Map values come from outside the program, so `mask_maps` raises ValueError
when the masked grid holds a NaN or an infinity (the CLI exits with code 2).
Rejecting them there is also what keeps the support-only peak test exact.

Every stage is a pure function; `box_generator` is their composition and is
deterministic for fixed input and config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .densemaps import DenseMaps
from .geometry import BBox, PixelCoord
from .worker import both

_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)
# Neighbour values the peak ring test gathers per piece (at least one offset's worth).
_GATHER_LIMIT = 1 << 20


# The decode's geometry follows from the map encoding and the scene rules.
# A true corner carries a regression value of exactly 1, so a floor in
# [0, 1) rejects mid-box plateaus without touching real corners. The peak
# window must stay small enough that same-channel corners of distinct boxes
# never share a window: half the window below min box side + gap keeps
# clean decodes exact. It must also be large enough that regression noise
# cannot raise a duplicate peak outside the true corner's window; 13 holds
# both for boxes >= 8 px with >= 3 px gaps under 0.05-amplitude noise.
# Support patches smaller than MIN_PATCH_AREA pixels are noise.
PEAK_WINDOW = 13
PEAK_FLOOR = 0.5
MIN_PATCH_AREA = 9


@dataclass
class BoxGeneratorConfig:
    """delta is the minimum segmented fraction a candidate box must enclose."""

    delta: float = 0.9

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")


@dataclass
class CornerCandidates:
    """Peak locations: p1 top-left candidates, p2 bottom-right candidates."""

    p1: list[PixelCoord]
    p2: list[PixelCoord]


def mask_maps(maps: DenseMaps) -> np.ndarray:
    """Elementwise product S * R per channel; zero outside segmentation.

    Raises ValueError when the product holds a NaN or an infinity. The
    worker thread takes channel 1.
    """
    masked = np.empty(maps.reg.shape, np.result_type(maps.reg, maps.seg))

    def channel(c: int) -> bool:
        # errstate is per thread, so each task sets its own.
        with np.errstate(invalid="ignore", over="ignore"):  # reported below
            np.multiply(maps.reg[c], maps.seg, out=masked[c])
        return bool(np.isfinite(masked[c]).all())

    if not all(both(lambda: channel(0), lambda: channel(1))):
        raise ValueError("dense maps hold non-finite values")
    return masked


def remove_noise(masked: np.ndarray, min_patch_area: int) -> np.ndarray:
    """Zero 8-connected support patches smaller than min_patch_area.

    Support is the set of pixels where either channel is nonzero; both
    channels of a removed patch are cleared. The input is not modified; it
    is returned as is when no patch is removed.
    """
    support = (masked[0] > 0) | (masked[1] > 0)
    labels, count = ndimage.label(support, structure=_EIGHT_CONNECTED)
    where = np.flatnonzero(support)
    patch = labels.ravel()[where]
    tiny = np.bincount(patch, minlength=count + 1) < min_patch_area
    drop = where[tiny[patch]]
    if not drop.size:
        return masked
    out = masked.copy()
    out.reshape(2, -1)[:, drop] = 0.0
    return out


def _plateau_heads(ys: np.ndarray, xs: np.ndarray, width: int, half: int) -> np.ndarray:
    """First member of each group of candidates chained by Chebyshev
    distance <= half; the candidates come in row-major order.

    Each candidate is linked to the next one in its row when that is within
    half, and, in each of the next half rows, to the leftmost and rightmost
    candidate within half of its column. Any candidate between those two
    lies within half of one of them in its row, so the links chain every
    pair within half and the groups are the same. Groups are then found by
    propagating the smallest index over the links, with pointer jumping,
    until no label changes; each group ends labelled by its first member.
    No rows past the candidates' row span are searched: they hold none.
    """
    flat = ys * width + xs
    lo = np.maximum(xs - half, 0)
    hi = np.minimum(xs + half, width - 1)
    src: list[np.ndarray] = []
    dst: list[np.ndarray] = []
    for dy in range(min(half, int(ys[-1] - ys[0])) + 1):
        row = (ys + dy) * width
        first = np.searchsorted(flat, row + (xs + 1 if dy == 0 else lo))
        last = np.searchsorted(flat, row + hi, side="right") - 1
        linked = np.flatnonzero(first <= last)
        src += [linked, linked]
        dst += [first[linked], last[linked]]
    a, b = np.concatenate(src), np.concatenate(dst)
    label = np.arange(len(flat))
    while True:
        new = label.copy()
        low = np.minimum(label[a], label[b])
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        while not np.array_equal(new, new[new]):
            new = new[new]
        if np.array_equal(new, label):
            return np.unique(label)
        label = new


def _channel_peaks(values: np.ndarray, window: int, floor: float) -> list[PixelCoord]:
    """Window-maximum pixels above the floor, one per tied plateau.

    Only pixels above the floor are tested, in a copy of the channel padded
    with zeros by reach = min(half, max(H, W) - 1). At each r = 1..reach the
    remaining candidates gather their 8r pixels at Chebyshev distance r and
    drop out if one is larger, so the survivors equal their full-grid window
    maximum. This is exact: candidates exceed the floor (>= 0), so padding
    zeros act as the filter's cval 0 (mask_maps has rejected NaN), and rings
    past max(H, W) - 1 read only padding. The channel's maximum always
    survives. A ring costs 8r gathers per remaining candidate, read in
    pieces of about _GATHER_LIMIT values: noisy support mostly drops out at
    r = 1, while plateau pixels last through every ring and cost the most.

    Candidates carrying the same value inside each other's window both
    equal the shared window maximum, so they are one plateau. Candidates
    within half a window of each other always carry the same value, since
    each is the maximum of a window holding the other, and 8-adjacent ones
    are such a pair. Plateaus are therefore grouped transitively on the
    candidate coordinates alone, by Chebyshev distance <= half, and each
    group keeps its lexicographically smallest (i_y, i_x) pixel. Equal
    peaks farther apart, such as corners of distinct boxes, stay separate.
    """
    height, width = values.shape
    half = window // 2
    reach = min(half, max(height, width) - 1)
    flat = np.pad(values, reach).ravel()
    pitch = width + 2 * reach
    cand = np.flatnonzero(flat > floor)
    if not cand.size:
        return []
    for r in range(1, reach + 1):
        side = np.arange(-r, r + 1)
        edge = side[1:-1] * pitch
        ring = np.concatenate([side - r * pitch, side + r * pitch, edge - r, edge + r])
        step = max(1, _GATHER_LIMIT // cand.size)
        for s in range(0, ring.size, step):
            near = flat[ring[s : s + step, None] + cand]
            cand = cand[near.max(axis=0) <= flat[cand]]
    ys, xs = np.divmod(cand - reach * (pitch + 1), pitch)
    heads = _plateau_heads(ys, xs, width, half)
    return list(zip(xs[heads].tolist(), ys[heads].tolist()))


def find_peaks(masked: np.ndarray) -> CornerCandidates:
    """Per-channel local maxima of the masked regression grid.

    Masking guarantees any pixel above the (nonnegative) floor lies on
    segmented support.
    """
    return CornerCandidates(
        p1=_channel_peaks(masked[0], PEAK_WINDOW, PEAK_FLOOR),
        p2=_channel_peaks(masked[1], PEAK_WINDOW, PEAK_FLOOR),
    )


def generate_boxes(
    candidates: CornerCandidates, seg: np.ndarray, cfg: BoxGeneratorConfig
) -> list[BBox]:
    """Combine corner candidates and keep delta-segmented boxes.

    A pair (a, b) forms a candidate only when b lies strictly right of and
    below a by at least the 2 px minimum box side, with diagonal at most
    half the grid diagonal. The kept set is deduplicated and sorted by
    (y0, x0, y1, x1).

    All p1 x p2 pairs are tested in one broadcast; the segmented pixels of
    each surviving pair are counted directly on the segmentation grid.
    """
    height, width = seg.shape
    max_diag = math.hypot(width, height) / 2.0
    p1 = np.array(candidates.p1, dtype=np.int64).reshape(-1, 2)
    p2 = np.array(candidates.p2, dtype=np.int64).reshape(-1, 2)
    dx = p2[None, :, 0] - p1[:, 0, None]
    dy = p2[None, :, 1] - p1[:, 1, None]
    # The square root of the exact integer sum of squares rounds as
    # math.hypot(dx, dy) does; np.hypot can differ in the last bit.
    fits = (dx >= 2) & (dy >= 2) & (np.sqrt(dx * dx + dy * dy) <= max_diag)
    occupied = seg > 0
    kept: set[tuple[int, int, int, int]] = set()
    for i, j in zip(*np.nonzero(fits)):
        (ax, ay), (bx, by) = p1[i].tolist(), p2[j].tolist()
        count = int(np.count_nonzero(occupied[ay : by + 1, ax : bx + 1]))
        if count / ((bx - ax + 1) * (by - ay + 1)) >= cfg.delta:
            kept.add((ax, ay, bx, by))
    return [BBox(*t) for t in sorted(kept, key=lambda t: (t[1], t[0], t[3], t[2]))]


def box_generator(maps: DenseMaps, cfg: BoxGeneratorConfig | None = None) -> list[BBox]:
    """Full decode: mask, denoise, peak-find, combine, filter."""
    cfg = cfg or BoxGeneratorConfig()
    masked = mask_maps(maps)
    masked = remove_noise(masked, MIN_PATCH_AREA)
    candidates = find_peaks(masked)
    return generate_boxes(candidates, maps.seg, cfg)
