#!/usr/bin/env python3
"""Run the whole per-frame loop on a moving synthetic sequence and score it.

Each frame: decode boxes from (noisy) dense maps, cut attention crops from
the stub features, associate to tracks, predict actions and confidence,
suppress overlaps, and emit the binary report. Afterwards the detections
are scored against ground truth at IoU 0.5.
"""

from aeropipe import EvalConfig, evaluate_map
from aeropipe.annotations import group_by_frame
from aeropipe.pipeline import FrameRecord, Pipeline, PipelineConfig, bench_frames
from aeropipe.synth import SceneConfig, corrupt_maps, generate_sequence, render_intensity
from aeropipe.wire import decode_message

cfg = SceneConfig(box_count=(4, 8))
scenes = list(generate_sequence(cfg, frames=30, seed=5))
pipeline = Pipeline(PipelineConfig())

predictions = {}
report_bytes = 0
for scene in scenes:
    noisy = corrupt_maps(scene.maps, 0.05, 0.01, seed=900 + scene.frame_id)
    frame = FrameRecord(
        frame_id=scene.frame_id,
        maps=noisy,
        intensity=render_intensity(scene.records, cfg.grid),
        drone_lat=35.36,
        drone_lon=138.72,
        drone_alt_m=38.0,
    )
    result = pipeline.run_frame(frame)
    predictions[scene.frame_id] = result.detections
    report_bytes += len(result.payload)
    decode_message(result.payload)  # every report must parse

ground_truth = group_by_frame([r for s in scenes for r in s.records])
ap, _ = evaluate_map(predictions, ground_truth, EvalConfig(iou_threshold=0.5))
n_det = sum(len(v) for v in predictions.values())
print(f"30 noisy frames -> {n_det} detections, AP@0.5 = {ap:.4f}")
print(f"total telemetry: {report_bytes} bytes ({report_bytes / len(scenes):.0f} B/frame)")

print("\nper-stage latency (640x360, 10 boxes, 30 frames):")
bench = bench_frames(PipelineConfig(), frames=30, boxes=10, seed=1)
for line in bench.csv_lines():
    print(" ", line)
