"""The tests' reference implementations, each defined once.

Every exact speedup keeps the code it replaced here, unchanged, as the
reference its property tests compare against byte for byte. The stage
references compose into `reference_run_frame`, one frame of the loop that
`tests/test_reference_loop.py` checks `Pipeline.run_frame` against, frame
by frame and with the track state carried between frames; a later exact
speedup gates on that property and needs no new copy of its parent.

The module has no `test_` prefix, so pytest imports it from the test
modules but does not collect it.
"""

import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from aeropipe import attention, boxgen, tensorio
from aeropipe.annotations import AnnotationRecord
from aeropipe.attention import (
    CROP_SIDE,
    LOCAL_WINDOW,
    STUB_SCALES,
    AttentionConfig,
    CropFeature,
    CropWindow,
    FeatureGrid,
    attention_map,
    expanded_window,
)
from aeropipe.boxgen import BoxGeneratorConfig, CornerCandidates, mask_maps
from aeropipe.densemaps import REG0_CHANNEL, REG1_CHANNEL, SEG_CHANNEL, DenseMaps, zero_maps
from aeropipe.evaluate import EvalConfig, _ap_from_flags
from aeropipe.geometry import BBox, PixelCoord, center, iou
from aeropipe.pipeline import AssociateConfig, FrameRecord, PipelineConfig, _downsample
from aeropipe.temporal import ActivityModel, Association, Track, predict
from aeropipe.wire import (
    _ENTRY,
    _HEADER,
    _MAGIC_BYTES,
    CRC_SIZE,
    ENTRY_SIZE,
    HEADER_SIZE,
    MAGIC,
    MAX_ENTRIES,
    VERSION,
    BadCountError,
    BadMagicError,
    BadVersionError,
    ChecksumError,
    LengthMismatchError,
    ReportEntry,
    ReportMessage,
    WireError,
    build_report,
    decode_message,
    encode_message,
    message_size,
)


# ---------------------------------------------------------------------------
# Decode: the full-grid implementation the support-only decode replaced. A
# maximum filter and a labelling pass over the whole grid per channel, a
# summed-area table and a Python loop over corner pairs.
# ---------------------------------------------------------------------------


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)

def _full_grid_remove_noise(masked: np.ndarray, min_patch_area: int) -> np.ndarray:
    """Zero 8-connected support patches smaller than min_patch_area.

    Support is the set of pixels where either channel is nonzero; both
    channels of a removed patch are cleared.
    """
    support = (masked[0] > 0) | (masked[1] > 0)
    labels, count = ndimage.label(support, structure=_EIGHT_CONNECTED)
    if count == 0:
        return masked.copy()
    areas = np.bincount(labels.ravel(), minlength=count + 1)
    tiny = areas < min_patch_area
    tiny[0] = False
    out = masked.copy()
    out[:, tiny[labels]] = 0.0
    return out

class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        self.parent[self.find(j)] = self.find(i)

def _full_grid_channel_peaks(values: np.ndarray, window: int, floor: float) -> list[PixelCoord]:
    """Window-maximum pixels above the floor, one per tied plateau.

    Candidates carrying the same value inside each other's window both
    equal the shared window maximum, so they are one plateau; plateaus are
    grouped transitively (8-connected flats first, then equal-valued
    groups whose pixels come within half a window of each other) and each
    group keeps its lexicographically smallest (i_y, i_x) pixel. Equal
    peaks farther apart, such as corners of distinct boxes, stay separate.
    """
    local_max = ndimage.maximum_filter(values, size=window, mode="constant", cval=0.0)
    cand = (values == local_max) & (values > floor)
    if not cand.any():
        return []
    labels, _ = ndimage.label(cand, structure=_EIGHT_CONNECTED)
    ys, xs = np.nonzero(cand)  # row-major: lexicographic (i_y, i_x) order
    comp = labels[ys, xs]
    comp_ids, first, comp_index = np.unique(comp, return_index=True, return_inverse=True)

    half = window // 2
    uf = _UnionFind(len(comp_ids))
    by_value: dict[float, list[int]] = {}
    for i in range(len(ys)):
        by_value.setdefault(float(values[ys[i], xs[i]]), []).append(i)
    for members in by_value.values():
        if len({int(comp_index[m]) for m in members}) == 1:
            continue
        my = ys[members]
        mx = xs[members]
        close = (np.abs(my[:, None] - my[None, :]) <= half) & (
            np.abs(mx[:, None] - mx[None, :]) <= half
        )
        for a, b in zip(*np.nonzero(close)):
            uf.union(int(comp_index[members[a]]), int(comp_index[members[b]]))

    best: dict[int, int] = {}
    for k, f in enumerate(first):
        root = uf.find(k)
        if root not in best or f < best[root]:
            best[root] = int(f)
    peaks = [(int(xs[i]), int(ys[i])) for i in best.values()]
    peaks.sort(key=lambda p: (p[1], p[0]))
    return peaks

def _full_grid_generate_boxes(
    candidates: CornerCandidates, seg: np.ndarray, cfg: BoxGeneratorConfig
) -> list[BBox]:
    """Combine corner candidates and keep delta-segmented boxes.

    A pair (a, b) forms a candidate only when b lies strictly right of and
    below a by at least the 2 px minimum box side, with diagonal at most
    half the grid diagonal. The kept set is deduplicated and sorted by
    (y0, x0, y1, x1).
    """
    height, width = seg.shape
    max_diag = math.hypot(width, height) / 2.0
    # Summed-area table: occupied(y1, x1) - ... gives segmented pixel counts.
    integral = np.zeros((height + 1, width + 1), dtype=np.int64)
    integral[1:, 1:] = np.cumsum(np.cumsum(seg > 0, axis=0), axis=1)

    kept: set[tuple[int, int, int, int]] = set()
    for ax, ay in candidates.p1:
        for bx, by in candidates.p2:
            if bx - ax < 2 or by - ay < 2:
                continue
            if math.hypot(bx - ax, by - ay) > max_diag:
                continue
            total = (bx - ax + 1) * (by - ay + 1)
            occupied = int(
                integral[by + 1, bx + 1]
                - integral[ay, bx + 1]
                - integral[by + 1, ax]
                + integral[ay, ax]
            )
            if occupied / total >= cfg.delta:
                kept.add((ax, ay, bx, by))
    return [BBox(*t) for t in sorted(kept, key=lambda t: (t[1], t[0], t[3], t[2]))]

def _full_grid_find_peaks(masked, window, floor):
    return CornerCandidates(
        p1=_full_grid_channel_peaks(masked[0], window, floor),
        p2=_full_grid_channel_peaks(masked[1], window, floor),
    )

def _full_grid_box_generator(maps, cfg, knobs):
    masked = _full_grid_remove_noise(mask_maps(maps), knobs["MIN_PATCH_AREA"])
    candidates = _full_grid_find_peaks(masked, knobs["PEAK_WINDOW"], knobs["PEAK_FLOOR"])
    return _full_grid_generate_boxes(candidates, maps.seg, cfg)

def _knobs(window=boxgen.PEAK_WINDOW, floor=boxgen.PEAK_FLOOR, area=boxgen.MIN_PATCH_AREA):
    """Values for the decode's constants, to patch in with `mock.patch.multiple`."""
    return {"PEAK_WINDOW": window, "PEAK_FLOOR": floor, "MIN_PATCH_AREA": area}


# ---------------------------------------------------------------------------
# Feature stub and crops. The dense-tensor path: the stub upsampled every
# scale to a (D, H, W) tensor; crops copied the whole expanded window and
# resized it. Then the reshape-mean block average the strided block sum
# replaced, the stub before its vertical pass became `_sweep_rows` (one
# stacked scipy call per level), and `crop_and_resize` before it took its
# taps from `_resize_taps`, its gather index became one `np.add.outer` and
# each resize pass one product plus an in-place add.
# ---------------------------------------------------------------------------


def _grid(dense):
    """A dense (D, H, W) array as a one-level, scale-1 feature grid."""
    dense = np.asarray(dense, dtype=np.float64)
    return FeatureGrid(dense.shape[1:], [(1, dense)])

def _dense(grid):
    """The (D, H, W) tensor of a feature grid, each level upsampled."""
    height, width = grid.shape
    return np.concatenate([
        np.repeat(np.repeat(array, scale, axis=1), scale, axis=2)[:, :height, :width]
        for scale, array in grid.levels
    ])

def _reshape_mean_reference(frame: np.ndarray, factor: int) -> np.ndarray:
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
    return frame.reshape(
        (h + pad_h) // factor, factor, (w + pad_w) // factor, factor
    ).mean(axis=(1, 3))

def _upsample_reference(grid: np.ndarray, factor: int, shape: tuple[int, int]) -> np.ndarray:
    if factor == 1:
        return grid
    full = np.repeat(np.repeat(grid, factor, axis=0), factor, axis=1)
    return full[: shape[0], : shape[1]]

def _feature_stub_reference(intensity: np.ndarray) -> np.ndarray:
    """Deterministic (D, H, W) dense features from a grayscale frame.

    Per scale: the block-averaged intensity upsampled back to frame size,
    its local mean, and its local variance (window `LOCAL_WINDOW` at the
    downsampled resolution, nearest-edge handling).
    """
    frame = np.asarray(intensity, dtype=np.float64)
    shape = frame.shape
    channels: list[np.ndarray] = []
    for scale in STUB_SCALES:
        down = _reshape_mean_reference(frame, scale)
        mean = ndimage.uniform_filter(down, size=LOCAL_WINDOW, mode="nearest")
        sq_mean = ndimage.uniform_filter(down * down, size=LOCAL_WINDOW, mode="nearest")
        var = np.clip(sq_mean - mean * mean, 0.0, None)
        channels.append(_upsample_reference(down, scale, shape))
        channels.append(_upsample_reference(mean, scale, shape))
        channels.append(_upsample_reference(var, scale, shape))
    return np.stack(channels)

def _extract_window_reference(features: np.ndarray, win: CropWindow) -> np.ndarray:
    """Copy the window from a (C, H, W) grid, zero-filling beyond the frame."""
    channels, height, width = features.shape
    out = np.zeros((channels, win.size, win.size), dtype=np.float64)
    x_lo, x_hi = max(win.x0, 0), min(win.x0 + win.size, width)
    y_lo, y_hi = max(win.y0, 0), min(win.y0 + win.size, height)
    if x_lo < x_hi and y_lo < y_hi:
        out[:, y_lo - win.y0 : y_hi - win.y0, x_lo - win.x0 : x_hi - win.x0] = features[
            :, y_lo:y_hi, x_lo:x_hi
        ]
    return out

def _resize_square_reference(stack: np.ndarray, out_size: int) -> np.ndarray:
    """Bilinear (C, M, M) -> (C, out, out) with half-pixel-center sampling."""
    m = stack.shape[-1]
    if m == out_size:
        return stack.copy()
    src = (np.arange(out_size, dtype=np.float64) + 0.5) * (m / out_size) - 0.5
    src = np.clip(src, 0.0, m - 1.0)
    lo = np.floor(src).astype(int)
    hi = np.minimum(lo + 1, m - 1)
    frac = src - lo
    rows = stack[:, lo, :] * (1.0 - frac)[None, :, None] + stack[:, hi, :] * frac[None, :, None]
    return rows[:, :, lo] * (1.0 - frac)[None, None, :] + rows[:, :, hi] * frac[None, None, :]

def _crop_and_resize_reference(features: np.ndarray, b: BBox, cfg: AttentionConfig) -> CropFeature:
    """Expanded-window crop of the feature grid with its attention channel.

    The window is cut from the (D, H, W) grid with zero fill outside the
    frame, resized square-to-square to CROP_SIDE, and the equally resized
    attention map is appended as channel D + 1.
    """
    attn = attention_map(b, cfg)
    window = _extract_window_reference(np.asarray(features, dtype=np.float64), attn.window)
    stack = np.concatenate([window, attn.values[None, :, :]], axis=0)
    resized = _resize_square_reference(stack, CROP_SIDE)
    return CropFeature(resized)

def _stacked_stub_reference(intensity: np.ndarray) -> FeatureGrid:
    frame = np.asarray(intensity, dtype=np.float64)
    levels = []
    for scale in STUB_SCALES:
        down = _downsample(frame, scale)
        level = np.empty((3, *down.shape))
        level[0] = level[1] = down
        np.multiply(down, down, out=level[2])
        # One call for both: scipy filters each line of the stack on its own.
        ndimage.uniform_filter(level[1:], size=LOCAL_WINDOW, axes=(1, 2), mode="nearest", output=level[1:])
        level[2] -= level[1] * level[1]
        np.clip(level[2], 0.0, None, out=level[2])
        levels.append((scale, level))
    return FeatureGrid(frame.shape, levels)

def _two_temporary_crop_reference(features: FeatureGrid, b: BBox, cfg: AttentionConfig) -> CropFeature:
    height, width = features.shape
    win = expanded_window(b, cfg)
    m, n = win.size, CROP_SIDE
    if m == n:
        taps = np.arange(m)
    else:
        src = np.minimum(np.maximum((np.arange(n) + 0.5) * (m / n) - 0.5, 0.0), m - 1.0)
        lo = src.astype(int)
        frac = src - lo
        taps = np.concatenate([lo, np.minimum(lo + 1, m - 1)])
    ys = win.y0 + taps
    xs = win.x0 + taps
    iy = np.minimum(np.maximum(ys, 0), height - 1)
    ix = np.minimum(np.maximum(xs, 0), width - 1)
    stack = np.empty((features.depth + 1, len(taps), len(taps)))
    c = 0
    for scale, array in features.levels:
        flat = (iy // scale * array.shape[2])[:, None] + ix // scale
        k = len(array)
        # The indices are in range; mode "clip" lets take write into out
        # without an intermediate buffer.
        np.take(array.reshape(k, -1), flat, axis=1, out=stack[c : c + k], mode="clip")
        c += k
    if win.y0 < 0 or win.y1 >= height:
        stack[:c, (ys < 0) | (ys >= height), :] = 0.0
    if win.x0 < 0 or win.x1 >= width:
        stack[:c, :, (xs < 0) | (xs >= width)] = 0.0
    stack[c] = attention._attention_at(b, cfg, xs, ys)
    if m != n:
        rows = stack[:, :n, :] * (1.0 - frac)[None, :, None] + stack[:, n:, :] * frac[None, :, None]
        stack = rows[:, :, :n] * (1.0 - frac)[None, None, :] + rows[:, :, n:] * frac[None, None, :]
    return CropFeature(stack)


# ---------------------------------------------------------------------------
# Association: `associate` before it ordered pairs with np.lexsort.
# ---------------------------------------------------------------------------


def _reference_associate(tracks: list[Track], detections: list[BBox], max_dist: float) -> Association:
    """Repeatedly pair the globally closest (track, detection) by center
    distance, never exceeding max_dist; each side is used at most once.

    Distance ties break on (track index, detection index) for determinism.
    """
    if not tracks or not detections:
        return Association([], list(range(len(tracks))), list(range(len(detections))))
    t_centers = np.array([center(t.last_box) for t in tracks])
    d_centers = np.array([center(d) for d in detections])
    dist = np.sqrt(((t_centers[:, None, :] - d_centers[None, :, :]) ** 2).sum(axis=2))
    pairs = sorted(
        ((dist[ti, di], ti, di) for ti in range(len(tracks)) for di in range(len(detections))),
        key=lambda p: (p[0], p[1], p[2]),
    )
    matches: list[tuple[int, int]] = []
    used_t: set[int] = set()
    used_d: set[int] = set()
    for d, ti, di in pairs:
        if d > max_dist:
            break
        if ti in used_t or di in used_d:
            continue
        matches.append((ti, di))
        used_t.add(ti)
        used_d.add(di)
    return Association(
        matches=matches,
        unmatched_tracks=[i for i in range(len(tracks)) if i not in used_t],
        unmatched_detections=[i for i in range(len(detections)) if i not in used_d],
    )


# ---------------------------------------------------------------------------
# Evaluation: suppression with its own overlap arithmetic, the per-action
# AP before it read labels by attribute name, and `_interpolated_ap` before
# it used np.maximum.accumulate.
# ---------------------------------------------------------------------------


def _reference_nms(detections, iou_threshold, score_floor):
    """Pick-highest-then-delete formulation with its own overlap arithmetic."""
    pool = [d for d in detections if d.confidence >= score_floor]
    kept = []
    while pool:
        best = min(pool, key=lambda d: (-d.confidence, d.box.y0, d.box.x0))
        kept.append(best)
        survivors = []
        for d in pool:
            if d is best:
                continue
            iw = min(best.box.x1, d.box.x1) - max(best.box.x0, d.box.x0)
            ih = min(best.box.y1, d.box.y1) - max(best.box.y0, d.box.y0)
            inter = iw * ih if (iw > 0 and ih > 0) else 0
            union = (
                (best.box.x1 - best.box.x0) * (best.box.y1 - best.box.y0)
                + (d.box.x1 - d.box.x0) * (d.box.y1 - d.box.y0)
                - inter
            )
            if inter / union <= iou_threshold:
                survivors.append(d)
        pool = survivors
    return kept

def _reference_match_predictions(
    predictions: dict[int, list[AnnotationRecord]],
    ground_truth: dict[int, list[AnnotationRecord]],
    iou_threshold: float,
    gt_label=None,
    det_label=None,
    wanted_label: int | None = None,
) -> tuple[np.ndarray, int]:
    """Global confidence-sorted TP flags plus the ground-truth count.

    When wanted_label is given, only predictions whose extracted label
    equals it participate and only ground truth with that label counts.
    """
    gts: dict[int, list[AnnotationRecord]] = {}
    total_gt = 0
    for fid, records in ground_truth.items():
        rows = [r for r in records if wanted_label is None or gt_label(r) == wanted_label]
        gts[fid] = rows
        total_gt += len(rows)

    flat: list[tuple[float, int, int, AnnotationRecord]] = []
    for fid, dets in predictions.items():
        for k, det in enumerate(dets):
            if wanted_label is not None and det_label(det) != wanted_label:
                continue
            flat.append((det.confidence, fid, k, det))
    # Highest confidence first; frame and in-frame order break ties.
    flat.sort(key=lambda item: (-item[0], item[1], item[2]))

    tp = np.zeros(len(flat), dtype=bool)
    used: dict[int, set[int]] = {fid: set() for fid in gts}
    for rank, (_, fid, _, det) in enumerate(flat):
        candidates = gts.get(fid, [])
        best_iou, best_idx = 0.0, -1
        for gi, record in enumerate(candidates):
            if gi in used.get(fid, set()):
                continue
            value = iou(det.box, record.box)
            if value > best_iou:
                best_iou, best_idx = value, gi
        if best_idx >= 0 and best_iou >= iou_threshold:
            tp[rank] = True
            used.setdefault(fid, set()).add(best_idx)
    return tp, total_gt

def _reference_per_class_ap(
    predictions: dict[int, list[AnnotationRecord]],
    ground_truth: dict[int, list[AnnotationRecord]],
    iou_threshold: float,
    gt_label,
    det_label,
    classes: list[int],
) -> float:
    """Macro-average AP over classes that appear in the ground truth."""
    aps = []
    for cls in classes:
        tp, total_gt = _reference_match_predictions(
            predictions,
            ground_truth,
            iou_threshold,
            gt_label=gt_label,
            det_label=det_label,
            wanted_label=cls,
        )
        if total_gt == 0:
            continue
        ap, _ = _ap_from_flags(tp, total_gt)
        aps.append(ap)
    return float(np.mean(aps)) if aps else 0.0

def _reference_action_map(
    predictions: dict[int, list[AnnotationRecord]],
    ground_truth: dict[int, list[AnnotationRecord]],
    cfg: EvalConfig | None = None,
) -> tuple[float, float]:
    """Per-action AP for the two action heads.

    A prediction is a true positive for class c only when its argmax action
    is c, the matched ground truth carries label c, and the boxes overlap at
    the IoU threshold. Classes absent from the ground truth are skipped in
    the macro average.
    """
    cfg = cfg or EvalConfig()
    primary_classes = sorted(
        {r.primary_action for rows in ground_truth.values() for r in rows}
        | {d.primary_action for dets in predictions.values() for d in dets}
    )
    secondary_classes = sorted(
        {r.secondary_action for rows in ground_truth.values() for r in rows}
        | {d.secondary_action for dets in predictions.values() for d in dets}
    )
    primary_ap = _reference_per_class_ap(
        predictions,
        ground_truth,
        cfg.iou_threshold,
        gt_label=lambda r: r.primary_action,
        det_label=lambda d: d.primary_action,
        classes=primary_classes,
    )
    secondary_ap = _reference_per_class_ap(
        predictions,
        ground_truth,
        cfg.iou_threshold,
        gt_label=lambda r: r.secondary_action,
        det_label=lambda d: d.secondary_action,
        classes=secondary_classes,
    )
    return primary_ap, secondary_ap

def _reference_interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the all-point-interpolated precision envelope."""
    r = np.concatenate([[0.0], recall, [1.0]])
    p = np.concatenate([[0.0], precision, [0.0]])
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    steps = np.nonzero(r[1:] != r[:-1])[0]
    return float(((r[steps + 1] - r[steps]) * p[steps + 1]).sum())


# ---------------------------------------------------------------------------
# Wire: the two-path receiver (framed fast path plus magic resync) the
# single scan replaced, and the field checks and decode that report entries
# had before they were checked by packing. The entry constructor also
# rejects, after those checks, what still does not pack.
# ---------------------------------------------------------------------------


def _try_raw_decode(data: bytes, pos: int) -> ReportMessage | None:
    """Attempt to decode a message starting exactly at `pos`."""
    if pos + HEADER_SIZE + CRC_SIZE > len(data):
        return None
    count = data[pos + HEADER_SIZE - 1]
    end = pos + message_size(count)
    if end > len(data):
        return None
    try:
        return decode_message(data[pos:end])
    except WireError:
        return None

def _reference_unframe_stream(data: bytes) -> tuple[list[ReportMessage], int]:
    """Recover framed messages; returns (messages, skipped byte count).

    After a framing error the parser scans forward for the message magic,
    validates the candidate message in place, and counts everything passed
    over as skipped. A matching length prefix directly before a recovered
    message is treated as framing, not garbage.
    """
    messages: list[ReportMessage] = []
    skipped = 0
    pos = 0
    n = len(data)
    while pos < n:
        framed = None
        if pos + 2 <= n:
            (length,) = struct.unpack_from("<H", data, pos)
            if pos + 2 + length <= n:
                try:
                    framed = decode_message(data[pos + 2 : pos + 2 + length])
                except WireError:
                    framed = None
        if framed is not None:
            messages.append(framed)
            pos += 2 + length
            continue
        # Resync: find the next decodable message by its magic bytes.
        scan = pos
        recovered = None
        while True:
            idx = data.find(_MAGIC_BYTES, scan)
            if idx < 0:
                break
            recovered = _try_raw_decode(data, idx)
            if recovered is not None:
                break
            scan = idx + 1
        if recovered is None:
            skipped += n - pos
            break
        count = data[idx + HEADER_SIZE - 1]
        end = idx + message_size(count)
        prefix_start = idx - 2
        if prefix_start >= pos and struct.unpack_from("<H", data, prefix_start)[0] == message_size(count):
            skipped += prefix_start - pos
        else:
            skipped += idx - pos
        messages.append(recovered)
        pos = end
    return messages, skipped

def _reference_entry_checks(box, track_id, primary_action, secondary_action, confidence_q) -> None:
    for coord in box:
        if not 0 <= coord <= 0xFFFF:
            raise ValueError(f"box coordinate {coord} does not fit u16")
    if not 0 <= track_id <= 0xFFFFFFFF:
        raise ValueError(f"track id {track_id} does not fit u32")
    for value in (primary_action, secondary_action, confidence_q):
        if not 0 <= value <= 0xFF:
            raise ValueError(f"byte field value {value} out of range")

def _reference_entry(box, track_id, primary_action, secondary_action, confidence_q) -> None:
    _reference_entry_checks(box, track_id, primary_action, secondary_action, confidence_q)
    try:
        _ENTRY.pack(*box, track_id, primary_action, secondary_action, confidence_q)
    except struct.error as exc:
        raise ValueError(f"report entry does not pack: {exc}") from None

def _reference_decode_message(data: bytes) -> ReportMessage:
    """Strict decode: magic, version, entry count, exact length, then CRC."""
    if len(data) < HEADER_SIZE + CRC_SIZE:
        raise LengthMismatchError(f"{len(data)} bytes is shorter than any valid message")
    magic, version, flags, frame_id, ts, lat, lon, alt, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise BadMagicError(f"magic 0x{magic:04X} != 0x{MAGIC:04X}")
    if version != VERSION:
        raise BadVersionError(f"version {version} unsupported")
    if count > MAX_ENTRIES:
        raise BadCountError(f"count {count} exceeds the cap of {MAX_ENTRIES}")
    expected = message_size(count)
    if len(data) != expected:
        raise LengthMismatchError(f"{len(data)} bytes but count {count} implies {expected}")
    (crc_stored,) = struct.unpack_from("<I", data, expected - CRC_SIZE)
    crc_actual = zlib.crc32(data[: expected - CRC_SIZE])
    if crc_stored != crc_actual:
        raise ChecksumError(f"crc 0x{crc_stored:08X} != computed 0x{crc_actual:08X}")
    entries = []
    for k in range(count):
        x0, y0, x1, y1, track_id, primary, secondary, conf_q = _ENTRY.unpack_from(
            data, HEADER_SIZE + k * ENTRY_SIZE
        )
        entries.append(ReportEntry((x0, y0, x1, y1), track_id, primary, secondary, conf_q))
    return ReportMessage(
        frame_id=frame_id,
        timestamp_ms=ts,
        drone_lat_e7=lat,
        drone_lon_e7=lon,
        drone_alt_dm=alt,
        entries=tuple(entries),
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Dense maps: the loader that converted all three channels, then copied
# again, and the two-pass `encode`.
# ---------------------------------------------------------------------------


def _load_tensor_reference(path: str) -> np.ndarray:
    """A well-formed single-tensor file decoded from its bytes in one piece."""
    raw = Path(path).read_bytes()
    tag, rank = raw[5], raw[6]
    dims = struct.unpack_from(f"<{rank}I", raw, 7)
    dtype = np.dtype("<f4") if tag == 0 else np.dtype("<f8")
    return np.frombuffer(raw, dtype=dtype, offset=7 + 4 * rank).reshape(dims).copy()

def _load_maps_reference(path: str) -> DenseMaps:
    """The loader that converted all three channels, then copied again."""
    tensor = _load_tensor_reference(path)
    if tensor.ndim != 3 or tensor.shape[0] != 3:
        raise tensorio.TensorFormatError(f"expected dims (3, W, H), got {tensor.shape}")
    grids = tensor.transpose(0, 2, 1).astype(np.float64)
    return DenseMaps(
        seg=np.ascontiguousarray(grids[SEG_CHANNEL]),
        reg=np.ascontiguousarray(grids[[REG0_CHANNEL, REG1_CHANNEL]]),
    )

def _encode_two_pass(boxes, grid):
    """The two-pass `encode` (assign every pixel, then fill), kept verbatim
    as the reference for the one-pass version."""
    width, height = grid
    for b in boxes:
        if not b.within_grid(width, height):
            raise ValueError(f"box {b.as_tuple()} outside {width}x{height} grid")

    maps = zero_maps(grid)
    if not boxes:
        return maps

    # Assignment pass: nearest box center wins each contested pixel.
    owner = np.full((height, width), -1, dtype=np.int32)
    best_d2 = np.full((height, width), np.inf, dtype=np.float64)
    best_area = np.full((height, width), np.inf, dtype=np.float64)
    for k, b in enumerate(boxes):
        ys = np.arange(b.y0, b.y1 + 1, dtype=np.float64)
        xs = np.arange(b.x0, b.x1 + 1, dtype=np.float64)
        cx = (b.x0 + b.x1) / 2.0
        cy = (b.y0 + b.y1) / 2.0
        d2 = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
        win = (slice(b.y0, b.y1 + 1), slice(b.x0, b.x1 + 1))
        closer = d2 < best_d2[win]
        tie_smaller = (d2 == best_d2[win]) & (b.area < best_area[win])
        take = closer | tie_smaller
        owner[win][take] = k
        best_d2[win][take] = d2[take]
        best_area[win][take] = b.area

    # Fill pass: write each box's projections on the pixels it owns.
    # cos(theta) = W / alpha and sin(theta) = H / alpha, so each channel is
    # an integer numerator over the integer W^2 + H^2: corner peaks come
    # out exactly 1.0 and values never leave [0, 1].
    for k, b in enumerate(boxes):
        alpha_sq = float(b.width**2 + b.height**2)
        ys = np.arange(b.y0, b.y1 + 1, dtype=np.float64)
        xs = np.arange(b.x0, b.x1 + 1, dtype=np.float64)
        r0 = ((b.x1 - xs)[None, :] * b.width + (b.y1 - ys)[:, None] * b.height) / alpha_sq
        r1 = ((xs - b.x0)[None, :] * b.width + (ys - b.y0)[:, None] * b.height) / alpha_sq
        win = (slice(b.y0, b.y1 + 1), slice(b.x0, b.x1 + 1))
        mine = owner[win] == k
        maps.reg[0][win][mine] = r0[mine]
        maps.reg[1][win][mine] = r1[mine]

    maps.seg[owner >= 0] = 1.0
    return maps


# ---------------------------------------------------------------------------
# Scenes: the cross-fill certificate as a pure-Python loop over ordered box
# pairs, one overlap sum per pair, which the vectorized `_cross_fill_ok`
# replaced.
# ---------------------------------------------------------------------------


def _rect_overlap(box: BBox, x0: int, y0: int, x1: int, y1: int) -> int:
    """Inclusive pixel count of box ∩ rectangle."""
    w = min(box.x1, x1) - max(box.x0, x0) + 1
    h = min(box.y1, y1) - max(box.y0, y0) + 1
    return w * h if (w > 0 and h > 0) else 0

def _span_fill(boxes: list[BBox], x0: int, y0: int, x1: int, y1: int) -> float:
    total = (x1 - x0 + 1) * (y1 - y0 + 1)
    occupied = sum(_rect_overlap(b, x0, y0, x1, y1) for b in boxes)
    return occupied / total

def _reference_cross_fill_ok(boxes: list[BBox], threshold: float) -> bool:
    """Check the decodability certificate over all ordered corner pairs."""
    if threshold >= 1.0:
        return True
    for i, a in enumerate(boxes):
        for j, b in enumerate(boxes):
            if i == j:
                continue
            if b.x1 - a.x0 >= 2 and b.y1 - a.y0 >= 2:
                if _span_fill(boxes, a.x0, a.y0, b.x1, b.y1) >= threshold:
                    return False
    return True


# ---------------------------------------------------------------------------
# The frame loop composed from the references above.
# ---------------------------------------------------------------------------


@dataclass
class LoopState:
    """What one frame leaves for the next: the tracks, the next track id
    and the last frame id."""

    tracks: list[Track] = field(default_factory=list)
    next_id: int = 0
    last_frame_id: int | None = None


def _reference_track_step(state: LoopState, boxes: list[BBox], cfg: AssociateConfig, hidden_size: int) -> list[Track]:
    """Match the boxes to the tracks, age the unmatched tracks, retire those
    unmatched for more than `cfg.max_age` frames and spawn a zero-state track
    per unmatched box in box order; returns each box's track."""
    assoc = _reference_associate(state.tracks, boxes, cfg.max_dist)
    owner: dict[int, Track] = {}
    for ti, di in assoc.matches:
        owner[di] = state.tracks[ti]
        owner[di].last_box, owner[di].age = boxes[di], 0
    for ti in assoc.unmatched_tracks:
        state.tracks[ti].age += 1
    state.tracks = [t for t in state.tracks if t.age <= cfg.max_age]
    for di in assoc.unmatched_detections:
        owner[di] = Track(state.next_id, np.zeros(hidden_size), np.zeros(hidden_size), boxes[di])
        state.next_id += 1
        state.tracks.append(owner[di])
    return [owner[di] for di in range(len(boxes))]


def reference_run_frame(
    state: LoopState, cfg: PipelineConfig, model: ActivityModel, frame: FrameRecord
) -> tuple[list[AnnotationRecord], bytes]:
    """One frame of the loop from the references: the full-grid decode, the
    dense stub and crops, the track lifecycle on `_reference_associate`, the
    package's `predict` (it has no exact reference), `_reference_nms`, then
    `build_report` and `encode_message`. Returns the kept detections and
    the payload, and updates `state`. The frame must be one `run_frame`
    accepts."""
    boxes = _full_grid_box_generator(frame.maps, cfg.boxgen, _knobs())
    intensity = frame.intensity if frame.intensity is not None else np.zeros(frame.maps.seg.shape)
    dense = _feature_stub_reference(intensity)
    crops = [_crop_and_resize_reference(dense, b, cfg.attention).tensor.reshape(-1) for b in boxes]
    tracks = _reference_track_step(state, boxes, cfg.associate, model.cell.hidden_size)
    detections = []
    if tracks:
        h_prev = np.stack([t.h for t in tracks])
        c_prev = np.stack([t.c for t in tracks])
        a_primary, a_secondary, conf, h, c_state = predict(model, np.stack(crops), h_prev, c_prev)
        for i, (box, track) in enumerate(zip(boxes, tracks)):
            track.h, track.c = h[i], c_state[i]
            detections.append(
                AnnotationRecord(
                    frame_id=frame.frame_id,
                    box=box,
                    track_id=track.track_id,
                    primary_action=int(a_primary[i].argmax()),
                    secondary_action=int(a_secondary[i].argmax()),
                    confidence=float(conf[i]),
                )
            )
    kept = _reference_nms(detections, cfg.nms.iou_threshold, cfg.nms.score_floor)
    message = build_report(
        frame_id=frame.frame_id,
        detections=kept,
        timestamp_ms=frame.frame_id * cfg.pipeline.frame_period_ms,
        drone_lat=frame.drone_lat,
        drone_lon=frame.drone_lon,
        drone_alt_m=frame.drone_alt_m,
    )
    state.last_frame_id = frame.frame_id
    return kept, encode_message(message)
