"""Per-frame orchestration: decode, features, crops, temporal prediction,
suppression and report emission.

The trained backbone is deliberately absent. Detection consumes dense maps
supplied with the frame (encoded ground truth, corrupted variants, or any
external producer writing the map tensor format); crop features come from
a deterministic multiscale intensity stub so every downstream stage runs
on real data.

Decode runs before the stub. The two read independent inputs (the maps and
the intensity), and in this order the decode's frame-sized grids (masked
maps, denoised copy, labels, padded peak channels) are freed before the
stub allocates its levels. `run_frame` then peaks at 5.8 frame-sized
float64 arrays on a noisy 27-box 640x360 frame, against 8.7 with the stub
first: the stub's scale-1 level and row-sweep buffer (5) beside the
worker's coarser block means, or its levels and variance temporary
beside the worker's scale-2 sweep.

One worker thread (`worker.both`) gives a frame a second core: it runs the
stub's coarser block means and coarser levels and the mask's channel 1,
each into arrays nothing else writes, so the bytes are those of a serial
run.

A frame that raises leaves the loop as it was: `run_frame` commits its
stepped copy of the track store and the frame id once the report is encoded.
"""

from __future__ import annotations

import copy
import math
import time
import typing
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .annotations import AnnotationRecord, parse_float, parse_int
from .attention import CROP_SHAPE, LOCAL_WINDOW, STUB_SCALES, AttentionConfig, FeatureGrid, crop_and_resize
from .boxgen import BoxGeneratorConfig, box_generator
from .densemaps import DenseMaps
from .evaluate import nms
from .geometry import BBox
from .synth import SceneConfig, generate_sequence, render_intensity
from .temporal import ActivityModel, TrackStore, predict
from .wire import ReportMessage, build_report, check_header, encode_message
from .worker import both

STAGES = ("features", "decode", "attention", "temporal", "nms", "wire")
BUDGET_STAGES = STAGES[1:]
# Largest intensity magnitude the stub takes: past it, its squares and
# window sums overflow to inf and then to NaN.
MAX_INTENSITY = 2.0**500


@dataclass
class NmsConfig:
    iou_threshold: float = 0.5
    score_floor: float = 0.3

    def __post_init__(self) -> None:
        for name in ("iou_threshold", "score_floor"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass
class AssociateConfig:
    max_dist: float = 40.0
    max_age: int = 5

    def __post_init__(self) -> None:
        if not self.max_dist >= 0.0:
            raise ValueError(f"max_dist must be >= 0, got {self.max_dist}")
        if self.max_age < 0:
            raise ValueError(f"max_age must be >= 0, got {self.max_age}")


@dataclass
class LoopConfig:
    """Nominal frame spacing: every report's timestamp is frame id times the
    period, and the latest-only benchmark spaces arrivals by it."""

    frame_period_ms: int = 100

    def __post_init__(self) -> None:
        # A report's timestamp, frame id (u32) times the period, must fit its u64.
        top = (2**64 - 1) // (2**32 - 1)
        if not 0 <= self.frame_period_ms <= top:
            raise ValueError(f"pipeline.frame_period_ms must be in 0..{top}, got {self.frame_period_ms}")


@dataclass
class PipelineConfig:
    """One field per config-file section: the key `section.field` sets
    `getattr(cfg, section).field`."""

    boxgen: BoxGeneratorConfig = field(default_factory=BoxGeneratorConfig)
    attention: AttentionConfig = field(default_factory=AttentionConfig)
    nms: NmsConfig = field(default_factory=NmsConfig)
    associate: AssociateConfig = field(default_factory=AssociateConfig)
    pipeline: LoopConfig = field(default_factory=LoopConfig)


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `section.key = value` pairs; blank lines and # comments skipped,
    and a key given twice raises ValueError naming both lines."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in lines:
                raise ValueError(f"{path}:{lineno}: config key {key!r} is already set on line {lines[key]}")
            values[key], lines[key] = value, lineno
    return values


def config_keys() -> dict[str, type]:
    """Every valid config-file key, `section.field`, with its annotated type."""
    return {
        f"{name}.{attr}": hint
        for name, section in typing.get_type_hints(PipelineConfig).items()
        for attr, hint in typing.get_type_hints(section).items()
    }


def config_from_mapping(values: dict[str, str]) -> PipelineConfig:
    """Build a config from `section.field` keys; each section goes through
    its constructor, so its checks run on the overridden values."""
    keys = config_keys()
    sections = typing.get_type_hints(PipelineConfig)
    overrides: dict[str, dict] = {name: {} for name in sections}
    for key, raw in values.items():
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}")
        section, _, attr = key.partition(".")
        overrides[section][attr] = (parse_int if keys[key] is int else parse_float)(raw, key)
    return PipelineConfig(**{name: sections[name](**kw) for name, kw in overrides.items()})


@dataclass
class FrameRecord:
    """Input for one pipeline step.

    Dense maps must be present (the learned map producer is out of scope);
    intensity defaults to a zero frame when only maps are available.
    """

    frame_id: int
    maps: DenseMaps
    intensity: np.ndarray | None = None
    drone_lat: float = 0.0
    drone_lon: float = 0.0
    drone_alt_m: float = 0.0


def _downsample(frame: np.ndarray, factor: int) -> np.ndarray:
    """Block-average by `factor`, edge-padding to a multiple first."""
    if factor == 1:
        return frame
    h, w = frame.shape
    pad_h = (-h) % factor
    pad_w = (-w) % factor
    # np.pad returns a copy; without padding a C-ordered frame already has
    # the copy's layout, so the block means sum in the same order.
    if pad_h or pad_w or not frame.flags.c_contiguous:
        frame = np.pad(frame, ((0, pad_h), (0, pad_w)), mode="edge")
    out_h, out_w = (h + pad_h) // factor, (w + pad_w) // factor
    # The strided sum adds in the reshape-mean's order, so equals it bit for
    # bit, except where numpy sums pairwise (from 8 terms) or in another
    # order (one output column; a Fortran frame stays Fortran after np.pad).
    if factor >= 8 or out_w < 2 or not frame.flags.c_contiguous:
        return frame.reshape(out_h, factor, out_w, factor).mean(axis=(1, 3))
    out = np.zeros((out_h, out_w))
    row = np.empty_like(out)
    for a in range(factor):
        np.copyto(row, frame[a::factor, 0::factor])
        for b in range(1, factor):
            row += frame[a::factor, b::factor]
        out += row
    out /= factor * factor
    return out


def _sweep_rows(stack: np.ndarray, size: int) -> None:
    """Box-mean a (C, H, W) stack along axis 1 in place, byte for byte as
    `ndimage.uniform_filter1d(stack, size, axis=1, mode="nearest")`.

    scipy sums the first edge-clamped window into 0.0, then per step adds
    (entering - leaving) to the running sum and writes sum / size. This
    repeats that arithmetic one row at a time, each row across all columns
    and channels at once. The running sums are held row-major, (H, C, W),
    so each of the H - 1 sequential adds works on one contiguous block; the
    bulk difference and the final divide go through the (C, H, W) view.
    """
    n = stack.shape[1]
    lead = size // 2
    trail = size - lead - 1
    buffer = np.empty((n, stack.shape[0], stack.shape[2]))
    sums = buffer.transpose(1, 0, 2)
    rows = list(buffer)
    # inf - inf and sums past the float range give NaN or inf silently, as
    # in scipy's C pass.
    with np.errstate(invalid="ignore", over="ignore"):
        if n > size:
            np.subtract(stack[:, size:], stack[:, : n - size], out=sums[:, lead + 1 : n - trail])
        for i in range(1, n):
            if not lead < i < n - trail:
                np.subtract(stack[:, min(i + trail, n - 1)], stack[:, max(i - 1 - lead, 0)], out=rows[i])
        buffer[0] = 0.0
        for k in range(-lead, trail + 1):
            rows[0] += stack[:, min(max(k, 0), n - 1)]
        for prev, row in zip(rows, rows[1:]):
            np.add(prev, row, out=row)
    np.divide(sums, size, out=stack)


def _swept_level(down: np.ndarray, level: np.ndarray | None = None) -> np.ndarray:
    """A level's (intensity, mean, square) stack with the vertical pass of
    the mean and the square done, in `level` when given."""
    if level is None:
        level = np.empty((3, *down.shape))
    level[0] = level[1] = down
    np.multiply(down, down, out=level[2])
    _sweep_rows(level[1:], LOCAL_WINDOW)
    return level


def _finish_level(level: np.ndarray) -> np.ndarray:
    """Horizontal pass, then variance, over a swept level."""
    _, mean, var = level
    ndimage.uniform_filter1d(level[1:], LOCAL_WINDOW, axis=2, mode="nearest", output=level[1:])
    var -= mean * mean
    np.clip(var, 0.0, None, out=var)
    return level


def feature_stub(intensity: np.ndarray) -> FeatureGrid:
    """Deterministic multiscale features from a grayscale frame.

    Per scale of STUB_SCALES, one level at the downsampled resolution
    holding the block-averaged intensity, its local mean and its local
    variance (a LOCAL_WINDOW square, nearest-edge handling). Levels are not
    upsampled; crops read them through `crop_and_resize`.

    The vertical pass of the box filter is `_sweep_rows`, which repeats
    scipy's running sum in scipy's order and so gives scipy's bytes; scipy
    runs the horizontal pass.

    While the caller builds and sweeps the first scale's level, the worker
    thread takes the coarser block means. Then the caller finishes the
    first level while the worker builds and finishes the coarser ones.
    """
    frame = np.asarray(intensity, dtype=np.float64)
    first, *coarse = STUB_SCALES
    fine, downs = both(
        lambda: _swept_level(_downsample(frame, first)),
        lambda: [_downsample(frame, scale) for scale in coarse],
    )
    # The caller allocates the worker's levels too, in the memory the first
    # level's sweep buffer just freed; a worker thread's own allocations
    # grow a heap of their own.
    coarser = [(down, np.empty((3, *down.shape))) for down in downs]
    _, rest = both(lambda: _finish_level(fine), lambda: [_finish_level(_swept_level(*pair)) for pair in coarser])
    return FeatureGrid(frame.shape, list(zip(STUB_SCALES, [fine, *rest])))


@dataclass
class FrameResult:
    detections: list[AnnotationRecord]
    message: ReportMessage
    payload: bytes
    timings_ms: dict[str, float]


class Pipeline:
    """Stateful frame-by-frame runner; frames must arrive in id order."""

    def __init__(self, cfg: PipelineConfig | None = None, model: ActivityModel | None = None) -> None:
        self.cfg = cfg or PipelineConfig()
        size = math.prod(CROP_SHAPE)
        self.model = model or ActivityModel.build(size)
        if self.model.cell.input_size != size:
            raise ValueError(f"model input size {self.model.cell.input_size} != crop size {size}")
        n_primary, n_secondary = self.model.heads.w_primary.shape[1], self.model.heads.w_secondary.shape[1]
        if max(n_primary, n_secondary) > 256:
            raise ValueError(f"model has {n_primary} and {n_secondary} action labels; u8 report actions hold 256")
        self.store = TrackStore(
            hidden_size=self.model.cell.hidden_size,
            max_dist=self.cfg.associate.max_dist,
            max_age=self.cfg.associate.max_age,
        )
        self.last_frame_id: int | None = None

    def run_frame(self, frame: FrameRecord) -> FrameResult:
        """Decode, build features, crop, predict, suppress and serialize one
        frame. Header fields that `check_header` rejects, a map grid with a
        zero side or one above 65536 px (report boxes are u16), and an
        intensity whose shape is not the maps' (height, width) or that holds
        NaN, inf or a magnitude above MAX_INTENSITY raise ValueError before
        any stage runs; None stands for a zero frame. A frame that raises
        leaves the loop as it was."""
        check_header(frame.frame_id, frame.drone_lat, frame.drone_lon, frame.drone_alt_m)
        if self.last_frame_id is not None and frame.frame_id <= self.last_frame_id:
            raise ValueError(
                f"frame ids must increase: got {frame.frame_id} after {self.last_frame_id}"
            )
        grid = (frame.maps.height, frame.maps.width)
        if not 0 < min(grid) <= max(grid) <= 2**16:
            raise ValueError(f"map grid {frame.maps.width}x{frame.maps.height} has a zero side or one above 65536 px")
        if frame.intensity is not None:
            if np.shape(frame.intensity) != grid:
                raise ValueError(f"intensity shape {np.shape(frame.intensity)} != maps (height, width) {grid}")
            # NaN propagates through both; initial=0 passes a zero-size frame.
            lo, hi = np.min(frame.intensity, initial=0.0), np.max(frame.intensity, initial=0.0)
            if not -MAX_INTENSITY <= lo <= hi <= MAX_INTENSITY:
                raise ValueError(f"intensity must be finite and within +-2**500, got values in [{lo}, {hi}]")
        timings: dict[str, float] = {}

        # Decode first: its frame-sized grids are freed before the stub
        # allocates its levels, so the two working sets never coexist.
        start = time.perf_counter()
        boxes = box_generator(frame.maps, self.cfg.boxgen)
        timings["decode"] = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        intensity = frame.intensity if frame.intensity is not None else np.zeros(grid)
        features = feature_stub(intensity)
        timings["features"] = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        crops = [crop_and_resize(features, b, self.cfg.attention) for b in boxes]
        timings["attention"] = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        store = copy.copy(self.store)
        detections = self._predict(store, boxes, crops, frame.frame_id)
        timings["temporal"] = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        kept = nms(detections, self.cfg.nms.iou_threshold, self.cfg.nms.score_floor)
        timings["nms"] = (time.perf_counter() - start) * 1e3

        start = time.perf_counter()
        message = build_report(
            frame_id=frame.frame_id,
            detections=kept,
            timestamp_ms=frame.frame_id * self.cfg.pipeline.frame_period_ms,
            drone_lat=frame.drone_lat,
            drone_lon=frame.drone_lon,
            drone_alt_m=frame.drone_alt_m,
        )
        payload = encode_message(message)
        timings["wire"] = (time.perf_counter() - start) * 1e3

        self.store, self.last_frame_id = store, frame.frame_id
        return FrameResult(kept, message, payload, timings)

    def _predict(self, store: TrackStore, boxes: list[BBox], crops, frame_id: int) -> list[AnnotationRecord]:
        tracks = store.step(boxes)
        if not tracks:
            return []
        x = np.stack([c.tensor.reshape(-1) for c in crops])
        h_prev = np.stack([t.h for t in tracks])
        c_prev = np.stack([t.c for t in tracks])
        a_primary, a_secondary, conf, h, c_state = predict(self.model, x, h_prev, c_prev)
        primary, secondary = a_primary.argmax(axis=1).tolist(), a_secondary.argmax(axis=1).tolist()
        detections = []
        for i, track in enumerate(tracks):
            track.h = h[i]
            track.c = c_state[i]
            detections.append(
                AnnotationRecord(
                    box=boxes[i],
                    confidence=float(conf[i]),
                    primary_action=primary[i],
                    secondary_action=secondary[i],
                    track_id=track.track_id,
                    frame_id=frame_id,
                )
            )
        return detections


# ---------------------------------------------------------------------------
# Latency benchmark
# ---------------------------------------------------------------------------


@dataclass
class BenchReport:
    frames: int
    skipped: int
    stats: dict[str, tuple[float, float]]

    def csv_lines(self) -> list[str]:
        lines = ["stage,mean_ms,p95_ms"]
        for stage in (*STAGES, "total"):
            mean, p95 = self.stats[stage]
            lines.append(f"{stage},{mean:.3f},{p95:.3f}")
        return lines


def bench_frames(
    cfg: PipelineConfig,
    frames: int = 100,
    boxes: int = 10,
    grid: tuple[int, int] = (640, 360),
    seed: int = 0,
    warmup: int = 3,
    latest_only: bool = False,
) -> BenchReport:
    """Per-stage latency over a synthetic moving sequence.

    The `total` row sums the non-stub stages (decode through wire). With
    latest_only, frames whose nominal arrival passed while the previous
    frame was processing are dropped, mirroring a live-feed consumer that
    always grabs the newest frame.
    """
    scene_cfg = SceneConfig(grid=grid, box_count=(boxes, boxes))
    scenes = generate_sequence(scene_cfg, frames + warmup, seed)
    pipeline = Pipeline(cfg)
    rows: list[dict[str, float]] = []
    skipped = 0
    clock_ms = 0.0
    for idx, scene in enumerate(scenes):
        if latest_only and idx >= warmup:
            arrival = idx * cfg.pipeline.frame_period_ms
            if arrival < clock_ms:
                skipped += 1
                continue
        record = FrameRecord(
            frame_id=scene.frame_id,
            maps=scene.maps,
            intensity=render_intensity(scene.records, grid),
        )
        result = pipeline.run_frame(record)
        if idx >= warmup:
            rows.append(result.timings_ms)
            clock_ms = max(clock_ms, idx * cfg.pipeline.frame_period_ms) + sum(
                result.timings_ms[s] for s in STAGES
            )
    stats: dict[str, tuple[float, float]] = {}
    for stage in STAGES:
        xs = np.array([r[stage] for r in rows])
        stats[stage] = (float(xs.mean()), float(np.percentile(xs, 95)))
    totals = np.array([sum(r[s] for s in BUDGET_STAGES) for r in rows])
    stats["total"] = (float(totals.mean()), float(np.percentile(totals, 95)))
    return BenchReport(frames=len(rows), skipped=skipped, stats=stats)
