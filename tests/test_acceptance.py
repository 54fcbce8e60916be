"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.

Tolerances are pinned here and nowhere else; the suite regenerates every
fixture from seeds, so a run is self-contained.
"""

import math
import time

import numpy as np
import pytest

from aeropipe.annotations import AnnotationRecord
from aeropipe.attention import AttentionConfig, attention_map
from aeropipe.boxgen import box_generator
from aeropipe.densemaps import encode
from aeropipe.evaluate import EvalConfig, evaluate_map, nms
from aeropipe.geometry import BBox, center, iou
from aeropipe.pipeline import FrameRecord, Pipeline, PipelineConfig, bench_frames
from aeropipe.synth import SceneConfig, corrupt_maps, crop_dataset, generate_scene, generate_sequence, render_intensity
from aeropipe.temporal import (
    ActivityModel,
    AdamConfig,
    BnLstmCell,
    LossBatch,
    bnlstm_step,
    loss_gradient,
    multi_activity_loss,
    softmax,
    train_toy,
)
from aeropipe.wire import ReportEntry, ReportMessage, WireError, decode_message, encode_message, frame_stream, message_size, unframe_stream


def _report(index: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {index:2d} ({name}): {detail}", flush=True)


def _greedy_match(decoded, truth, threshold):
    """One-to-one matching; returns (matched pairs, unmatched decoded)."""
    matched = set()
    pairs = []
    spurious = []
    for d in decoded:
        candidates = [(iou(d, g), i) for i, g in enumerate(truth) if i not in matched]
        best, bi = max(candidates, default=(0.0, -1))
        if bi >= 0 and best >= threshold:
            matched.add(bi)
            pairs.append((d, bi, best))
        else:
            spurious.append(d)
    return pairs, spurious


def test_criterion_01_clean_roundtrip():
    cfg = SceneConfig()
    scenes = 1000
    start = time.perf_counter()
    failures = 0
    spurious_total = 0
    worst_iou = 1.0
    for seed in range(scenes):
        scene = generate_scene(cfg, seed)
        decoded = box_generator(scene.maps)
        pairs, spurious = _greedy_match(decoded, scene.boxes, 0.9)
        spurious_total += len(spurious)
        if len(pairs) != len(scene.boxes) or spurious:
            failures += 1
        if pairs:
            worst_iou = min(worst_iou, min(p[2] for p in pairs))
    elapsed = time.perf_counter() - start
    passed = failures == 0 and spurious_total == 0 and elapsed < 60.0
    _report(
        1,
        "clean roundtrip",
        passed,
        f"{scenes} scenes, {failures} failed, {spurious_total} spurious, "
        f"worst IoU {worst_iou:.4f}, {elapsed:.1f}s (< 60s)",
    )
    assert failures == 0
    assert spurious_total == 0
    assert elapsed < 60.0


def test_criterion_02_regression_identity():
    rng = np.random.default_rng(202)
    worst_sum = 0.0
    peak_ok = True
    for _ in range(100):
        w, h = int(rng.integers(2, 60)), int(rng.integers(2, 60))
        x0, y0 = int(rng.integers(0, 80 - w)), int(rng.integers(0, 80 - h))
        box = BBox(x0, y0, x0 + w, y0 + h)
        maps = encode([box], (80, 80))
        inside = maps.seg > 0
        worst_sum = max(worst_sum, np.abs(maps.reg[0][inside] + maps.reg[1][inside] - 1.0).max())
        r0, r1 = maps.reg[0], maps.reg[1]
        if r0[box.y0, box.x0] != 1.0 or r1[box.y1, box.x1] != 1.0:
            peak_ok = False
        masked0 = r0.copy()
        masked0[box.y0, box.x0] = 0.0
        masked1 = r1.copy()
        masked1[box.y1, box.x1] = 0.0
        if masked0.max() >= 1.0 or masked1.max() >= 1.0:
            peak_ok = False
    passed = worst_sum < 1e-9 and peak_ok
    _report(2, "regression identity", passed,
            f"max |r0+r1-1| = {worst_sum:.2e} (< 1e-9), corner peaks exact: {peak_ok}")
    assert worst_sum < 1e-9
    assert peak_ok


def test_criterion_03_noise_robustness():
    cfg = SceneConfig()
    tp = fp = total_gt = 0
    for seed in range(500):
        scene = generate_scene(cfg, 10_000 + seed)
        noisy = corrupt_maps(scene.maps, 0.05, 0.01, seed=20_000 + seed)
        decoded = box_generator(noisy)
        pairs, spurious = _greedy_match(decoded, scene.boxes, 0.8)
        tp += len(pairs)
        fp += len(spurious)
        total_gt += len(scene.boxes)
    recall = tp / total_gt
    precision = tp / max(tp + fp, 1)
    passed = recall >= 0.95 and precision >= 0.95
    _report(3, "noise robustness", passed,
            f"recall {recall:.4f}, precision {precision:.4f} at IoU 0.8 over 500 scenes (>= 0.95)")
    assert recall >= 0.95
    assert precision >= 0.95


def test_criterion_04_attention_exactness():
    rng = np.random.default_rng(404)
    cfg = AttentionConfig()
    interior_exact = True
    worst_err = 0.0
    monotone = True
    for _ in range(100):
        w, h = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        x0, y0 = int(rng.integers(0, 50)), int(rng.integers(0, 50))
        box = BBox(x0, y0, x0 + w, y0 + h)
        attn = attention_map(box, cfg)
        win = attn.window
        cx, cy = center(box)
        sx, sy = cfg.sigma_scale * box.width, cfg.sigma_scale * box.height
        for wy in range(win.size):
            for wx in range(win.size):
                ix, iy = win.x0 + wx, win.y0 + wy
                if box.contains(ix, iy):
                    if attn.values[wy, wx] != 1.0:
                        interior_exact = False
                else:
                    q = ((ix - cx) / sx) ** 2 + ((iy - cy) / sy) ** 2
                    worst_err = max(worst_err, abs(attn.values[wy, wx] - math.exp(-0.5 * q)))
        # axis-aligned rays out of the center must not increase
        row_y = int(round(cy)) - win.y0
        col_x = int(round(cx)) - win.x0
        if np.any(np.diff(attn.values[row_y, col_x:]) > 1e-15):
            monotone = False
        if np.any(np.diff(attn.values[row_y, : col_x + 1]) < -1e-15):
            monotone = False
        if np.any(np.diff(attn.values[row_y:, col_x]) > 1e-15):
            monotone = False
        if np.any(np.diff(attn.values[: row_y + 1, col_x]) < -1e-15):
            monotone = False
    passed = interior_exact and worst_err < 1e-12 and monotone
    _report(4, "attention exactness", passed,
            f"interior exact: {interior_exact}, max off-box error {worst_err:.2e} (< 1e-12), "
            f"monotone: {monotone}")
    assert interior_exact
    assert worst_err < 1e-12
    assert monotone


def test_criterion_05_loss_and_gradient():
    batch = LossBatch(
        primary_pred=[np.array([[0.5, 0.5]])],
        secondary_pred=[np.array([[0.5, 0.5]])],
        primary_target=[np.array([[1.0, 0.0]])],
        secondary_target=[np.array([[0.0, 1.0]])],
        lambda_w=0.5,
    )
    value = multi_activity_loss(batch)
    hand = math.log(2) / 2 + 0.5 * math.log(2) / 2  # 0.346574 + 0.173287 = 0.519861
    loss_err = abs(value - hand)

    rng = np.random.default_rng(505)
    step = 1e-5
    worst_rel = 0.0
    for _ in range(100):
        frames = int(rng.integers(1, 4))
        lp = [rng.normal(size=(int(rng.integers(1, 5)), 4)) for _ in range(frames)]
        ls = [rng.normal(size=(p.shape[0], 5)) for p in lp]
        tp_ = [np.eye(4)[rng.integers(0, 4, size=p.shape[0])] for p in lp]
        ts_ = [np.eye(5)[rng.integers(0, 5, size=p.shape[0])] for p in lp]

        def batch_of():
            return LossBatch(
                primary_pred=[softmax(z) for z in lp],
                secondary_pred=[softmax(z) for z in ls],
                primary_target=tp_,
                secondary_target=ts_,
            )

        gp, gs = loss_gradient(batch_of())
        for grads, logits in ((gp, lp), (gs, ls)):
            t = int(rng.integers(0, frames))
            i = int(rng.integers(0, logits[t].shape[0]))
            j = int(rng.integers(0, logits[t].shape[1]))
            logits[t][i, j] += step
            up = multi_activity_loss(batch_of())
            logits[t][i, j] -= 2 * step
            down = multi_activity_loss(batch_of())
            logits[t][i, j] += step
            fd = (up - down) / (2 * step)
            worst_rel = max(worst_rel, abs(grads[t][i, j] - fd) / max(abs(fd), 1e-8))
    passed = loss_err < 1e-9 and worst_rel < 1e-4
    _report(5, "loss and gradient", passed,
            f"|loss - 0.519860| = {loss_err:.2e} (< 1e-9), "
            f"max FD rel err {worst_rel:.2e} (< 1e-4) over 100 batches")
    assert loss_err < 1e-9
    assert worst_rel < 1e-4


def test_criterion_06_bnlstm_normalization():
    cell = BnLstmCell(32, 16, seed=606)
    rng = np.random.default_rng(606)
    x = rng.normal(size=(64, 32))
    normalized = cell.bn_x.standardize(x @ cell.w_xh, training=True)
    mean_err = np.abs(normalized.mean(axis=0)).max()
    var_err = np.abs(normalized.var(axis=0) - 1.0).max()

    zero_cell = BnLstmCell(8, 4)
    h0, c0 = zero_cell.zero_state(3)
    x = rng.normal(size=(3, 8))
    h_zero, c_zero = bnlstm_step(zero_cell, x, h0, c0)
    c_prev = rng.normal(size=(3, 4))
    _, c_out = bnlstm_step(zero_cell, x, h0, c_prev)
    # sigmoid(0) = 0.5 and tanh(0) = 0 force c = 0.5 * c_prev + 0.5 * 0
    gates_exact = bool(
        np.all(c_zero == 0.0)
        and np.all(h_zero == 0.0)
        and np.all(c_out == 0.5 * c_prev)
    )

    passed = mean_err < 1e-6 and var_err < 1e-4 and gates_exact
    _report(6, "recurrent normalization", passed,
            f"|mean| {mean_err:.2e} (< 1e-6), |var-1| {var_err:.2e} (< 1e-4), "
            f"zero-weight gates exact: {gates_exact}")
    assert mean_err < 1e-6
    assert var_err < 1e-4
    assert gates_exact


def _reference_nms(detections, iou_threshold, score_floor):
    pool = [d for d in detections if d.confidence >= score_floor]
    kept = []
    while pool:
        best = min(pool, key=lambda d: (-d.confidence, d.box.y0, d.box.x0))
        kept.append(best)
        pool = [d for d in pool if d is not best and iou(best.box, d.box) <= iou_threshold]
    return kept


def test_criterion_07_nms_oracle():
    rng = np.random.default_rng(707)
    mismatches = 0
    idempotence_ok = True
    for _ in range(1000):
        n = int(rng.integers(0, 11))
        dets = []
        for _ in range(n):
            x0, y0 = rng.integers(0, 40, size=2)
            w, h = rng.integers(2, 20, size=2)
            conf = float(rng.choice([0.2, 0.35, 0.5, 0.5, 0.7, 0.9]))
            dets.append(AnnotationRecord(frame_id=0, box=BBox(int(x0), int(y0), int(x0 + w), int(y0 + h)), confidence=conf))
        ours = nms(dets, 0.5, score_floor=0.3)
        if ours != _reference_nms(dets, 0.5, score_floor=0.3):
            mismatches += 1
        if nms(ours, 0.5, score_floor=0.3) != ours:
            idempotence_ok = False
    passed = mismatches == 0 and idempotence_ok
    _report(7, "suppression oracle", passed,
            f"{mismatches} mismatches vs exhaustive reference over 1000 instances, "
            f"idempotent: {idempotence_ok}")
    assert mismatches == 0
    assert idempotence_ok


def test_criterion_08_map_harness():
    gt = {
        0: [
            AnnotationRecord(frame_id=0, box=BBox(0, 0, 20, 20)),
            AnnotationRecord(frame_id=0, box=BBox(60, 60, 80, 80)),
        ]
    }
    preds = {
        0: [
            AnnotationRecord(frame_id=0, box=BBox(0, 0, 20, 16), confidence=0.9),   # IoU 0.8: TP
            AnnotationRecord(frame_id=0, box=BBox(100, 100, 120, 120), confidence=0.8),  # FP
        ]
    }
    ap_hand, _ = evaluate_map(preds, gt, EvalConfig())
    perfect = {0: [AnnotationRecord(frame_id=0, box=r.box, confidence=1.0) for r in gt[0]]}
    ap_perfect, _ = evaluate_map(perfect, gt, EvalConfig())
    ap_empty, _ = evaluate_map({0: []}, gt, EvalConfig())
    passed = abs(ap_hand - 0.5) < 1e-9 and ap_perfect == 1.0 and ap_empty == 0.0
    _report(8, "average precision harness", passed,
            f"hand case AP {ap_hand:.9f} (0.5 +- 1e-9), perfect {ap_perfect}, empty {ap_empty}")
    assert abs(ap_hand - 0.5) < 1e-9
    assert ap_perfect == 1.0
    assert ap_empty == 0.0


def test_criterion_09_toy_training():
    ds = crop_dataset(seed=42)
    model = ActivityModel.build(input_size=int(np.prod(ds.features.shape[1:])), seed=7)
    result = train_toy(
        model,
        ds.features,
        ds.primary_labels,
        ds.secondary_labels,
        ds.pedestrian,
        adam_cfg=AdamConfig(learning_rate=1e-4, beta1=0.9, beta2=0.999, epsilon=1e-8),
        epochs=500,
    )
    ma = np.convolve(result.loss_curve, np.ones(20) / 20, mode="valid")
    non_increasing = bool(np.all(np.diff(ma) <= 1e-9))
    passed = result.holdout_primary_accuracy >= 0.95 and non_increasing
    _report(9, "toy head training", passed,
            f"holdout primary accuracy {result.holdout_primary_accuracy:.4f} (>= 0.95), "
            f"20-epoch moving average non-increasing: {non_increasing}")
    assert result.holdout_primary_accuracy >= 0.95
    assert non_increasing


def test_criterion_10_wire_protocol():
    rng = np.random.default_rng(1010)

    def random_message(count):
        entries = tuple(
            ReportEntry(
                box=tuple(int(v) for v in rng.integers(0, 65536, size=4)),
                track_id=int(rng.integers(0, 2**32)),
                primary_action=int(rng.integers(0, 256)),
                secondary_action=int(rng.integers(0, 256)),
                confidence_q=int(rng.integers(0, 256)),
            )
            for _ in range(count)
        )
        return ReportMessage(
            frame_id=int(rng.integers(0, 2**32)),
            timestamp_ms=int(rng.integers(0, 2**63)),
            drone_lat_e7=int(rng.integers(-(2**31), 2**31)),
            drone_lon_e7=int(rng.integers(-(2**31), 2**31)),
            drone_alt_dm=int(rng.integers(0, 2**16)),
            entries=entries,
            flags=int(rng.integers(0, 256)),
        )

    roundtrip_failures = 0
    for k in range(10_000):
        msg = random_message(k % 32)
        if decode_message(encode_message(msg)) != msg:
            roundtrip_failures += 1

    size_law_ok = all(
        len(encode_message(random_message(c))) == 31 + 15 * c == message_size(c)
        for c in range(32)
    )
    envelope_ok = all(100 <= message_size(c) <= 500 for c in range(5, 32))

    corruption_missed = 0
    corpus = 0
    while corpus < 10_000:
        msg = random_message(int(rng.integers(0, 32)))
        payload = bytearray(encode_message(msg))
        pos = int(rng.integers(0, len(payload)))
        flip = int(rng.integers(1, 256))
        payload[pos] ^= flip
        corpus += 1
        try:
            decode_message(bytes(payload))
            corruption_missed += 1
        except WireError:
            pass

    msgs = [random_message(2), random_message(0), random_message(5)]
    garbage = bytes(rng.integers(0, 256, size=37, dtype=np.uint8))
    recovered, skipped = unframe_stream(garbage + frame_stream(msgs))
    resync_ok = recovered == msgs and skipped >= 1

    passed = (
        roundtrip_failures == 0
        and size_law_ok
        and envelope_ok
        and corruption_missed == 0
        and resync_ok
    )
    _report(10, "wire protocol", passed,
            f"roundtrip failures {roundtrip_failures}/10000, size law: {size_law_ok}, "
            f"envelope 100-500B for 5-31 entries: {envelope_ok}, "
            f"corruptions missed {corruption_missed}/10000, resync: {resync_ok}")
    assert roundtrip_failures == 0
    assert size_law_ok
    assert envelope_ok
    assert corruption_missed == 0
    assert resync_ok


def test_criterion_11_end_to_end_pipeline():
    scene_cfg = SceneConfig(box_count=(3, 8))
    scenes = list(generate_sequence(scene_cfg, frames=100, seed=1111))

    # clean pass: bijection per frame, stable ids, valid reports
    pipeline = Pipeline(PipelineConfig())
    id_map: dict[int, int] = {}
    stable = True
    clean_ok = True
    reports_ok = True
    for scene in scenes:
        frame = FrameRecord(
            frame_id=scene.frame_id,
            maps=scene.maps,
            intensity=render_intensity(scene.records, scene_cfg.grid),
        )
        result = pipeline.run_frame(frame)
        try:
            decode_message(result.payload)
        except WireError:
            reports_ok = False
        truth = scene.boxes
        pairs, spurious = _greedy_match([d.box for d in result.detections], truth, 0.9)
        if len(pairs) != len(truth) or spurious:
            clean_ok = False
        for det in result.detections:
            best = max(range(len(truth)), key=lambda i: iou(det.box, truth[i]))
            gt_tid = scene.records[best].track_id
            if gt_tid in id_map:
                if id_map[gt_tid] != det.track_id:
                    stable = False
            else:
                id_map[gt_tid] = det.track_id

    # noisy pass: detection quality at mAP@0.5
    from aeropipe.annotations import group_by_frame

    noisy_pipeline = Pipeline(PipelineConfig())
    predictions = {}
    ground_truth = group_by_frame([r for s in scenes for r in s.records])
    for scene in scenes:
        noisy = corrupt_maps(scene.maps, 0.05, 0.01, seed=30_000 + scene.frame_id)
        result = noisy_pipeline.run_frame(FrameRecord(frame_id=scene.frame_id, maps=noisy))
        predictions[scene.frame_id] = result.detections
    ap, _ = evaluate_map(predictions, ground_truth, EvalConfig(iou_threshold=0.5))

    passed = clean_ok and stable and reports_ok and ap >= 0.9
    _report(11, "end-to-end pipeline", passed,
            f"clean bijection: {clean_ok}, stable track ids: {stable}, "
            f"reports decode: {reports_ok}, noisy mAP@0.5 {ap:.4f} (>= 0.9)")
    assert clean_ok
    assert stable
    assert reports_ok
    assert ap >= 0.9


def test_criterion_12_latency_budget():
    report = bench_frames(PipelineConfig(), frames=100, boxes=10, grid=(640, 360), seed=12)
    mean_ms, p95_ms = report.stats["total"]
    passed = mean_ms < 50.0 and p95_ms < 50.0
    _report(12, "latency budget", passed,
            f"non-stub frame path mean {mean_ms:.2f} ms, p95 {p95_ms:.2f} ms (< 50 ms) "
            f"over {report.frames} frames")
    assert mean_ms < 50.0
    assert p95_ms < 50.0
