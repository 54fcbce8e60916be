"""Deterministic synthetic scenes, sequences and crop datasets.

Everything here is driven by the counter-based generator in `rng`, so any
seed reproduces a fixture bit for bit. Scenes are sets of labeled,
non-overlapping boxes rasterized through the dense-map encoder; sequences
move the same tracks with per-track velocities and edge reflection; the
crop dataset draws class-separable feature vectors for head training.

Every scene carries one guarantee beyond the minimum side and pairwise
gap: no rectangle spanned by one box's top-left corner and another box's
bottom-right corner is filled with segmented pixels beyond
``MAX_CROSS_FILL``. Without it, two similar boxes that happen to align can
span a mostly-segmented rectangle that the corner combiner legitimately
keeps, and the decode roundtrip would not be bijective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .annotations import AnnotationRecord, check_frame_id, parse_int
from .attention import CROP_SHAPE
from .densemaps import DenseMaps, encode
from .geometry import BBox, separation
from .rng import SplitMix64
from .temporal import PRIMARY_CLASSES, SECONDARY_CLASSES

# Height / width bounds. Near-isotropic boxes match the overhead-view domain
# and keep the regression ramp along the short axis steeper than the decode
# noise floor; very elongated boxes would make the corner peaks
# unrecoverable under noise for any windowed decode.
ASPECT_RANGE = (0.6, 1.6)
MIN_GAP = 3
MAX_CROSS_FILL = 0.85
# Segmentation bit-flip rate of `aeropipe synth --noise`.
FLIP_PROBABILITY = 0.01
# Elements per block of the span-by-box overlap arrays in `_cross_fill_ok`.
_SPAN_BLOCK = 1 << 16


class SceneGenerationError(ValueError):
    """Packing failed within the attempt budget."""


@dataclass
class SceneConfig:
    """Scene parameters; defaults model tiny aerial pedestrian footprints."""

    grid: tuple[int, int] = (640, 360)
    box_count: tuple[int, int] = (1, 12)
    side_range: tuple[int, int] = (8, 48)
    velocity_range: tuple[float, float] = (-3.0, 3.0)
    max_attempts: int = 10_000

    def __post_init__(self) -> None:
        # A box's left and top edges are drawn from 0..W-1-side and 0..H-1-side.
        top = min(self.grid) - 1
        if not 8 <= self.side_range[0] <= self.side_range[1] <= top:
            raise ValueError(f"side_range {self.side_range} must be a range with min side >= 8 and max side <= {top}")
        if not 0 <= self.box_count[0] <= self.box_count[1]:
            raise ValueError(f"box_count {self.box_count} must be a range 0 <= low <= high")
        # Boxes extended by MIN_GAP on their right and bottom edges are
        # disjoint and lie in the grid extended the same way, so no more
        # fit than the extended grid holds extended minimum boxes.
        width, height = self.grid
        most = (width + MIN_GAP) * (height + MIN_GAP) // (self.side_range[0] + 1 + MIN_GAP) ** 2
        if self.box_count[1] > most:
            raise ValueError(
                f"box_count {self.box_count} exceeds {most}, the most boxes a {width}x{height} grid holds"
            )


@dataclass
class Scene:
    frame_id: int
    records: list[AnnotationRecord]
    maps: DenseMaps

    @property
    def boxes(self) -> list[BBox]:
        return [r.box for r in self.records]


def _cross_fill_ok(boxes: list[BBox]) -> bool:
    """Check the decodability certificate over all ordered corner pairs.

    A span runs from box a's top-left to box b's bottom-right corner (a != b,
    at least 2 px each way); its fill is the summed inclusive pixel overlap
    of every box with it over its area. The sums are exact int64 and the
    float64 division rounds as Python's int / int does.
    """
    if len(boxes) < 2:
        return True
    x0, y0, x1, y1 = np.array([b.as_tuple() for b in boxes], dtype=np.int64).T
    a, b = np.nonzero((x1 - x0[:, None] >= 2) & (y1 - y0[:, None] >= 2))
    a, b = a[a != b], b[a != b]
    sx0, sy0, sx1, sy1 = x0[a, None], y0[a, None], x1[b, None], y1[b, None]
    total = (sx1 - sx0 + 1) * (sy1 - sy0 + 1)
    step = max(1, _SPAN_BLOCK // len(boxes))
    for s in range(0, len(a), step):
        cut = slice(s, s + step)
        w = np.minimum(x1, sx1[cut]) - np.maximum(x0, sx0[cut]) + 1
        h = np.minimum(y1, sy1[cut]) - np.maximum(y0, sy0[cut]) + 1
        occupied = (np.maximum(w, 0) * np.maximum(h, 0)).sum(axis=1, keepdims=True)
        if (occupied / total[cut] >= MAX_CROSS_FILL).any():
            return False
    return True


def _valid_against(candidate: BBox, others: list[BBox]) -> bool:
    if any(separation(candidate, other) < MIN_GAP for other in others):
        return False
    return _cross_fill_ok(others + [candidate])


def _place_boxes(cfg: SceneConfig, rng: SplitMix64, count: int) -> list[BBox]:
    width, height = cfg.grid
    boxes: list[BBox] = []
    attempts = 0
    while len(boxes) < count:
        if attempts >= cfg.max_attempts:
            raise SceneGenerationError(
                f"failed to pack {count} boxes on {width}x{height} "
                f"after {attempts} attempts"
            )
        attempts += 1
        w = rng.randint(cfg.side_range[0], cfg.side_range[1])
        ratio = rng.uniform(ASPECT_RANGE[0], ASPECT_RANGE[1])
        h = min(cfg.side_range[1], max(cfg.side_range[0], int(round(w * ratio))))
        x0 = rng.randint(0, width - 1 - w)
        y0 = rng.randint(0, height - 1 - h)
        candidate = BBox(x0, y0, x0 + w, y0 + h)
        if _valid_against(candidate, boxes):
            boxes.append(candidate)
    return boxes


def generate_scene(cfg: SceneConfig, seed: int) -> Scene:
    """One labeled scene with clean encoded maps: frame 0 of the seed's sequence."""
    return next(generate_sequence(cfg, 1, seed))


@dataclass
class _MovingTrack:
    track_id: int
    fx: float
    fy: float
    w: int
    h: int
    vx: float
    vy: float
    primary: int
    secondary: int

    def box(self) -> BBox:
        x0 = int(round(self.fx))
        y0 = int(round(self.fy))
        return BBox(x0, y0, x0 + self.w, y0 + self.h)


def generate_sequence(cfg: SceneConfig, frames: int, seed: int) -> Iterator[Scene]:
    """Frames of the same tracks moving at constant velocity.

    Boxes reflect off the frame edges. A move that would break the scene
    invariants against another track is resolved by reflecting the
    velocity, or skipped for one frame when even that collides; track ids,
    sizes and labels persist throughout. Placement and every random draw
    run at the call, so a packing failure raises here; each frame is moved
    and encoded only as the iterator reaches it.
    """
    rng = SplitMix64(seed)
    count = rng.randint(cfg.box_count[0], cfg.box_count[1])
    boxes = _place_boxes(cfg, rng, count)
    tracks = []
    for k, b in enumerate(boxes):
        tracks.append(
            _MovingTrack(
                track_id=k,
                fx=float(b.x0),
                fy=float(b.y0),
                w=b.width,
                h=b.height,
                vx=rng.uniform(cfg.velocity_range[0], cfg.velocity_range[1]),
                vy=rng.uniform(cfg.velocity_range[0], cfg.velocity_range[1]),
                primary=rng.randint(0, PRIMARY_CLASSES - 1),
                secondary=rng.randint(0, SECONDARY_CLASSES - 1),
            )
        )
    return _moving_frames(cfg.grid, tracks, frames)


def _moving_frames(grid: tuple[int, int], tracks: list[_MovingTrack], frames: int) -> Iterator[Scene]:
    width, height = grid
    for t in range(frames):
        if t > 0:
            for idx, track in enumerate(tracks):
                nfx, nvx = _reflect(track.fx + track.vx, track.vx, width - 1 - track.w)
                nfy, nvy = _reflect(track.fy + track.vy, track.vy, height - 1 - track.h)
                others = [o.box() for j, o in enumerate(tracks) if j != idx]
                moved = replace(track, fx=nfx, fy=nfy, vx=nvx, vy=nvy)
                if _valid_against(moved.box(), others):
                    tracks[idx] = moved
                else:
                    tracks[idx] = replace(track, vx=-track.vx, vy=-track.vy)
        records = [
            AnnotationRecord(
                frame_id=t,
                box=track.box(),
                track_id=track.track_id,
                primary_action=track.primary,
                secondary_action=track.secondary,
            )
            for track in tracks
        ]
        yield Scene(frame_id=t, records=records, maps=encode([r.box for r in records], grid))


def _reflect(pos: float, vel: float, limit: float) -> tuple[float, float]:
    """Reflect a coordinate into [0, limit], flipping velocity on contact."""
    if pos < 0.0:
        return -pos, -vel
    if pos > limit:
        return 2.0 * limit - pos, -vel
    return pos, vel


def corrupt_maps(maps: DenseMaps, amplitude: float, flip_probability: float, seed: int) -> DenseMaps:
    """Additive uniform regression noise (clamped to [0, 1]) plus
    independent segmentation bit flips; draw order is reg noise first."""
    rng = SplitMix64(seed)
    noise = (rng.random_array((2, maps.height, maps.width)) * 2.0 - 1.0) * amplitude
    reg = np.clip(maps.reg + noise, 0.0, 1.0)
    flips = rng.random_array((maps.height, maps.width)) < flip_probability
    seg = maps.seg.copy()
    seg[flips] = 1.0 - seg[flips]
    return DenseMaps(seg=seg, reg=reg)


def render_intensity(records: list[AnnotationRecord], grid: tuple[int, int]) -> np.ndarray:
    """Flat stand-in imagery: constant background, per-track box shading."""
    width, height = grid
    frame = np.full((height, width), 0.1, dtype=np.float64)
    for rec in records:
        if not rec.box.within_grid(width, height):
            raise ValueError(f"frame {rec.frame_id}: box {rec.box.as_tuple()} outside {width}x{height} grid")
        shade = 0.3 + 0.6 * ((rec.track_id * 0.6180339887498949) % 1.0)
        frame[rec.box.y0 : rec.box.y1 + 1, rec.box.x0 : rec.box.x1 + 1] = shade
    return frame


# ---------------------------------------------------------------------------
# Crop dataset for head training
# ---------------------------------------------------------------------------


@dataclass
class CropDataset:
    features: np.ndarray
    primary_labels: np.ndarray
    secondary_labels: np.ndarray
    pedestrian: np.ndarray


def crop_dataset(
    seed: int,
    n_samples: int = 512,
    feature_shape: tuple[int, ...] = CROP_SHAPE,
    noise: float = 0.1,
    background_fraction: float = 0.25,
) -> CropDataset:
    """Class-separable synthetic crop features.

    Every (primary, secondary) class pair owns a mean pattern drawn once in
    [-1, 1]; samples add component-wise uniform noise bounded by ``noise``.
    Background (non-pedestrian) samples are noise around the zero pattern.
    With the default sizes the pairwise mean distances dwarf the noise
    radius, so a nearest-mean classifier is exact.
    """
    rng = SplitMix64(seed)
    n_primary, n_secondary = PRIMARY_CLASSES, SECONDARY_CLASSES
    dim = int(np.prod(feature_shape))
    means = rng.random_array((n_primary * n_secondary, dim)) * 2.0 - 1.0

    features = np.zeros((n_samples, dim), dtype=np.float64)
    primary = np.zeros(n_samples, dtype=np.int64)
    secondary = np.zeros(n_samples, dtype=np.int64)
    pedestrian = np.zeros(n_samples, dtype=bool)
    for i in range(n_samples):
        is_ped = rng.random() >= background_fraction
        sample_noise = (rng.random_array((dim,)) * 2.0 - 1.0) * noise
        if is_ped:
            p = rng.randint(0, n_primary - 1)
            s = rng.randint(0, n_secondary - 1)
            features[i] = means[p * n_secondary + s] + sample_noise
            primary[i], secondary[i], pedestrian[i] = p, s, True
        else:
            features[i] = sample_noise
            primary[i] = secondary[i] = -1
    return CropDataset(
        features=features.reshape((n_samples,) + feature_shape),
        primary_labels=primary,
        secondary_labels=secondary,
        pedestrian=pedestrian,
    )


# ---------------------------------------------------------------------------
# Manifest files
# ---------------------------------------------------------------------------


def write_manifest(path: str, seed: int, grid: tuple[int, int], entries: Iterable[tuple[int, str, str]]) -> None:
    """Frame index for a generated sequence: annotation and map files."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"seed {seed}\n")
        fh.write(f"grid {grid[0]} {grid[1]}\n")
        for fid, ann, maps in entries:
            fh.write(f"frame {fid} {ann} {maps}\n")


def read_manifest(path: str) -> tuple[int, tuple[int, int], list[tuple[int, str, str]]]:
    """Seed, grid and frame entries; a line that is not a seed, grid or frame
    line, a truncated one, a number not in ASCII digits, a frame id outside
    the report's u32 or a missing grid line raises ValueError."""
    seed = 0
    grid: tuple[int, int] | None = None
    entries: list[tuple[int, str, str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            fields = {"seed": 2, "grid": 3, "frame": 4}.get(parts[0])
            if fields is None:
                raise ValueError(f"{path} line {lineno}: {raw.strip()!r} is not a seed, grid or frame line")
            if len(parts) < fields:
                raise ValueError(f"{path} line {lineno}: truncated {parts[0]!r} line {raw.strip()!r}")
            where = f"{path} line {lineno}"
            if parts[0] == "seed":
                seed = parse_int(parts[1], where)
            elif parts[0] == "grid":
                grid = (parse_int(parts[1], where), parse_int(parts[2], where))
            else:
                entries.append((check_frame_id(parse_int(parts[1], where), where), parts[2], parts[3]))
    if grid is None:
        raise ValueError(f"{path}: no 'grid' line")
    return seed, grid, entries
