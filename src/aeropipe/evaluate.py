"""Confidence-driven non-maximum suppression and average-precision scoring.

NMS keeps a confidence-descending antichain: a detection survives only if
no already-kept detection overlaps it beyond the IoU threshold. The AP
harness greedily matches predictions to ground truth, highest confidence
first, one use per ground-truth box, and integrates the all-point
interpolated precision-recall curve.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .annotations import AnnotationRecord
from .geometry import iou


@dataclass
class EvalConfig:
    iou_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must be in (0, 1), got {self.iou_threshold}")


def nms(
    detections: list[AnnotationRecord], iou_threshold: float, score_floor: float = 0.3
) -> list[AnnotationRecord]:
    """Suppress low-confidence overlapping detections.

    Candidates below score_floor are removed first; the rest are visited by
    descending confidence (ties by (y0, x0)) and kept only when every
    previously kept box overlaps them with IoU <= iou_threshold.
    """
    alive = [d for d in detections if d.confidence >= score_floor]
    alive.sort(key=lambda d: (-d.confidence, d.box.y0, d.box.x0))
    kept: list[AnnotationRecord] = []
    for det in alive:
        if all(iou(det.box, k.box) <= iou_threshold for k in kept):
            kept.append(det)
    return kept


def _interpolated_ap(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the all-point-interpolated precision envelope."""
    r = np.concatenate([[0.0], recall, [1.0]])
    p = np.maximum.accumulate(np.concatenate([[0.0], precision, [0.0]])[::-1])[::-1]
    steps = np.nonzero(r[1:] != r[:-1])[0]
    return float(((r[steps + 1] - r[steps]) * p[steps + 1]).sum())


@dataclass
class PrCurve:
    recall: np.ndarray
    precision: np.ndarray

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("recall,precision\n")
            for r, p in zip(self.recall, self.precision):
                fh.write(f"{r:.6f},{p:.6f}\n")


def _match_predictions(
    predictions: dict[int, list[AnnotationRecord]],
    ground_truth: dict[int, list[AnnotationRecord]],
    iou_threshold: float,
    label: str | None = None,
    wanted: int | None = None,
) -> tuple[np.ndarray, int]:
    """Global confidence-sorted TP flags plus the ground-truth count.

    When label names an action attribute, only predictions and ground
    truth whose value of it equals wanted participate.
    """
    gts: dict[int, list[AnnotationRecord]] = {}
    total_gt = 0
    for fid, records in ground_truth.items():
        rows = [r for r in records if label is None or getattr(r, label) == wanted]
        gts[fid] = rows
        total_gt += len(rows)

    flat: list[tuple[float, int, int, AnnotationRecord]] = []
    for fid, dets in predictions.items():
        for k, det in enumerate(dets):
            if label is not None and getattr(det, label) != wanted:
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


def _ap_from_flags(tp: np.ndarray, total_gt: int) -> tuple[float, PrCurve]:
    if total_gt == 0:
        if len(tp):
            warnings.warn("predictions scored against empty ground truth; AP defined as 0")
        return 0.0, PrCurve(np.zeros(0), np.zeros(0))
    if len(tp) == 0:
        return 0.0, PrCurve(np.zeros(0), np.zeros(0))
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, len(tp) + 1)
    recall = cum_tp / total_gt
    precision = cum_tp / ranks
    return _interpolated_ap(recall, precision), PrCurve(recall, precision)


def evaluate_map(
    predictions: dict[int, list[AnnotationRecord]],
    ground_truth: dict[int, list[AnnotationRecord]],
    cfg: EvalConfig | None = None,
) -> tuple[float, PrCurve]:
    """Detection AP at the configured IoU threshold, plus the PR curve."""
    cfg = cfg or EvalConfig()
    tp, total_gt = _match_predictions(predictions, ground_truth, cfg.iou_threshold)
    return _ap_from_flags(tp, total_gt)


def action_map(
    predictions: dict[int, list[AnnotationRecord]],
    ground_truth: dict[int, list[AnnotationRecord]],
    cfg: EvalConfig | None = None,
) -> tuple[float, float]:
    """Per-action AP for the two action heads.

    A prediction is a true positive for class c only when its action is c,
    the matched ground truth carries label c, and the boxes overlap at the
    IoU threshold. A prediction whose action is -1 (unknown) counts for no
    labelled class. Classes absent from the ground truth are skipped in the
    macro average.
    """
    cfg = cfg or EvalConfig()
    aps: dict[str, float] = {}
    for label in ("primary_action", "secondary_action"):
        classes = sorted(
            {getattr(r, label) for rows in ground_truth.values() for r in rows}
            | {getattr(d, label) for dets in predictions.values() for d in dets}
        )
        class_aps = []
        for cls in classes:
            tp, total_gt = _match_predictions(predictions, ground_truth, cfg.iou_threshold, label, cls)
            if total_gt:
                class_aps.append(_ap_from_flags(tp, total_gt)[0])
        aps[label] = float(np.mean(class_aps)) if class_aps else 0.0
    return aps["primary_action"], aps["secondary_action"]
