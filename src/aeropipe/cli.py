"""Command-line front end.

Subcommands cover every capability: `encode` annotations into map tensors,
`detect` boxes from map tensors, `pipeline` for the full per-frame loop,
`eval` for average precision, `synth` for seeded sequence fixtures,
`train` for the toy head trainer, `bench` for latency statistics, `send`
and `recv` as wire endpoints, and `overlay` to render boxes into a PPM.
Config values are set only through `--config`, and `bench` and `recv`
print their results only to stdout.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import os
import socket
import sys
import traceback

import numpy as np

from . import synth, wire
from .annotations import AnnotationRecord, append_annotations, check_frame_id, group_by_frame, parse_int, read_annotations
from .boxgen import box_generator
from .densemaps import encode, load_maps, save_maps
from .evaluate import EvalConfig, action_map, evaluate_map
from .pipeline import (
    FrameRecord,
    Pipeline,
    PipelineConfig,
    bench_frames,
    config_from_mapping,
    parse_config_file,
)
from .synth import SceneConfig, corrupt_maps, generate_sequence, render_intensity
from .temporal import ActivityModel, AdamConfig, load_model, save_model, train_toy


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: A003 - argparse hook
        raise _UsageError(message)


def _parse_grid(text: str) -> tuple[int, int]:
    width, _, height = text.partition("x")
    grid = (parse_int(width, f"--grid {text!r}"), parse_int(height, f"--grid {text!r}"))
    if min(grid) < 0:
        raise ValueError(f"expected WIDTHxHEIGHT, got --grid {text!r}")
    return grid


def _at_least(low: int, parse=int):
    """An argparse type: `parse` the text and require a finite value >= `low`."""
    def check(text: str):
        value = parse(text)
        if not low <= value < math.inf:
            noun = "an integer" if parse is int else "a finite number"
            raise argparse.ArgumentTypeError(f"expected {noun} >= {low}, got {value}")
        return value

    check.__name__ = parse.__name__  # argparse's "invalid int value" names the type
    return check


def _frame_id(text: str) -> int:
    """An argparse type: an integer >= 0 that fits the report's u32 frame id."""
    value = _at_least(0)(text)
    try:
        return check_frame_id(value, "--frame-id")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_frame_id.__name__ = "int"


# One map file per frame: `encode DIR` and `synth` write it, `detect DIR` reads it.
_MAPS_NAME = "frame_{:06d}.aero"


def _load_pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return config_from_mapping(parse_config_file(args.config) if args.config else {})


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_encode(args: argparse.Namespace) -> int:
    records = read_annotations(args.ann)
    frames = group_by_frame(records)
    grid = _parse_grid(args.grid)
    if args.out.endswith(".aero"):
        if len(frames) != 1:
            raise ValueError(
                f"{len(frames)} frames in {args.ann}; single-file output needs exactly one"
            )
        (records,) = frames.values()
        save_maps(args.out, encode([r.box for r in records], grid))
        return 0
    os.makedirs(args.out, exist_ok=True)
    for fid in sorted(frames):
        maps = encode([r.box for r in frames[fid]], grid)
        save_maps(os.path.join(args.out, _MAPS_NAME.format(fid)), maps)
    return 0


def _maps_inputs(path: str) -> list[tuple[int, str]]:
    if os.path.isdir(path):
        prefix, _, suffix = _MAPS_NAME.partition("{:06d}")
        entries = []
        for name in sorted(os.listdir(path)):
            if name.startswith(prefix) and name.endswith(suffix):
                file = os.path.join(path, name)
                fid = check_frame_id(parse_int(name[len(prefix) : -len(suffix)], file), file)
                if name != _MAPS_NAME.format(fid):
                    raise ValueError(f"{file}: the map file of frame {fid} is named {_MAPS_NAME.format(fid)}")
                entries.append((fid, file))
        if not entries:
            raise ValueError(f"no frame_*.aero files under {path}")
        return entries
    return [(0, path)]


def cmd_detect(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    if args.frame_id is not None and os.path.isdir(args.maps):
        raise ValueError(f"--frame-id is for single-file input, but {args.maps} is a directory")
    inputs = _maps_inputs(args.maps)
    count = 0
    with open(args.out, "w", encoding="utf-8") as fh:
        for fid, path in inputs:
            if args.frame_id is not None:
                fid = args.frame_id
            boxes = box_generator(load_maps(path), cfg.boxgen)
            append_annotations(fh, (AnnotationRecord(frame_id=fid, box=box) for box in boxes))
            count += len(boxes)
    print(f"wrote {count} boxes to {args.out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    os.makedirs(args.out, exist_ok=True)
    scene_cfg = SceneConfig()
    scenes = generate_sequence(scene_cfg, args.frames, args.seed)
    with open(os.path.join(args.out, "annotations.txt"), "w", encoding="utf-8") as fh:
        for k, scene in enumerate(scenes):
            maps = scene.maps
            if args.noise > 0.0:
                maps = corrupt_maps(maps, args.noise, synth.FLIP_PROBABILITY, args.seed + 1000 + k)
            save_maps(os.path.join(args.out, _MAPS_NAME.format(scene.frame_id)), maps)
            append_annotations(fh, scene.records)
    # Last, so a manifest exists only for a complete fixture.
    entries = ((fid, "annotations.txt", _MAPS_NAME.format(fid)) for fid in range(args.frames))
    synth.write_manifest(os.path.join(args.out, "manifest.txt"), args.seed, scene_cfg.grid, entries)
    print(f"wrote {args.frames} frames to {args.out}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    seed, grid, entries = synth.read_manifest(args.manifest)
    if not entries:
        raise ValueError(f"manifest {args.manifest} lists no frames")
    base = os.path.dirname(os.path.abspath(args.manifest))
    by_file = {
        name: group_by_frame(read_annotations(os.path.join(base, name)))
        for name in dict.fromkeys(ann_name for _, ann_name, _ in entries)
    }

    os.makedirs(args.out, exist_ok=True)
    model = load_model(args.model) if args.model else None
    pipeline = Pipeline(cfg, model=model)
    pred_path = os.path.join(args.out, "predictions.txt")
    reports_path = os.path.join(args.out, "reports.bin")
    with open(pred_path, "w", encoding="utf-8") as preds, open(reports_path, "wb") as reports:
        for fid, ann_name, maps_name in entries:
            maps = load_maps(os.path.join(base, maps_name))
            if (maps.width, maps.height) != grid:
                raise ValueError(
                    f"frame {fid}: map {maps_name} is {maps.width}x{maps.height}, "
                    f"but {args.manifest} has grid {grid[0]}x{grid[1]}"
                )
            intensity = render_intensity(by_file[ann_name].get(fid, []), (maps.width, maps.height))
            result = pipeline.run_frame(FrameRecord(frame_id=fid, maps=maps, intensity=intensity))
            reports.write(wire.frame_payload(result.payload))
            reports.flush()
            append_annotations(preds, result.detections, with_confidence=True)
            total = sum(result.timings_ms.values())
            print(
                f"frame {fid}: {len(result.detections)} detections, "
                f"{len(result.payload)} B report, {total:.1f} ms",
                file=sys.stderr,
            )
    print(f"wrote {pred_path} and {reports_path}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = EvalConfig() if args.iou is None else EvalConfig(iou_threshold=args.iou)
    gt_records = read_annotations(args.gt)
    gt = group_by_frame(gt_records)
    pred_records = read_annotations(args.pred)
    preds = group_by_frame(pred_records)
    ap, curve = evaluate_map(preds, gt, cfg)
    print(f"ap={ap:.6f}")
    has_actions = any(r.primary_action >= 0 for r in pred_records)
    if has_actions:
        for head, head_ap in zip(("primary", "secondary"), action_map(preds, gt, cfg)):
            if any(getattr(r, f"{head}_action") >= 0 for r in gt_records):
                print(f"{head}_ap={head_ap:.6f}")
            else:
                print(f"{head}_ap=n/a")
                print(f"note: {args.gt} holds no {head} action label; {head}_ap is undefined", file=sys.stderr)
    if args.curve:
        curve.write_csv(args.curve)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = synth.crop_dataset(seed=args.seed)
    model = ActivityModel.build(
        input_size=int(np.prod(dataset.features.shape[1:])),
        seed=args.seed + 1,
    )
    result = train_toy(
        model,
        dataset.features,
        dataset.primary_labels,
        dataset.secondary_labels,
        dataset.pedestrian,
        adam_cfg=AdamConfig(),
        epochs=args.epochs,
    )
    if args.out:
        save_model(args.out, model)
        print(f"saved model to {args.out}")
    if args.curve:
        with open(args.curve, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss\n")
            for i, value in enumerate(result.loss_curve):
                fh.write(f"{i},{value:.6f}\n")
    print(
        f"final_loss={result.loss_curve[-1]:.6f} "
        f"train_accuracy={result.train_accuracy:.4f} "
        f"holdout_primary_accuracy={result.holdout_primary_accuracy:.4f} "
        f"holdout_secondary_accuracy={result.holdout_secondary_accuracy:.4f}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cfg = _load_pipeline_config(args)
    report = bench_frames(
        cfg,
        frames=args.frames,
        boxes=args.boxes,
        seed=args.seed,
        latest_only=args.latest_only,
    )
    sys.stdout.write("\n".join(report.csv_lines()) + "\n")
    if report.skipped:
        print(f"skipped {report.skipped} frames (latest-only)", file=sys.stderr)
    return 0


def cmd_send(args: argparse.Namespace) -> int:
    with open(args.reports, "rb") as fh:
        stream = fh.read()
    messages, skipped = wire.unframe_stream(stream)
    if skipped:
        raise ValueError(f"{args.reports} contains {skipped} undecodable bytes")
    host, port = wire.parse_address(args.addr)
    with socket.create_connection((host, port)) as sock:
        sock.sendall(stream)
    print(f"sent {len(messages)} reports ({len(stream)} bytes) to {args.addr}")
    return 0


def cmd_recv(args: argparse.Namespace) -> int:
    host, port = wire.parse_address(args.addr)
    with socket.create_server((host, port)) as server:
        print(f"listening on {host}:{port}", file=sys.stderr)
        conn, peer = server.accept()
        with conn:
            messages, skipped = wire.unframe_stream(conn.makefile("rb").read())
    for m in messages:
        print(f"frame={m.frame_id} entries={len(m.entries)} size={m.encoded_size}")
    print(f"received {len(messages)} reports from {peer[0]}, skipped {skipped} bytes", file=sys.stderr)
    return 0


def cmd_overlay(args: argparse.Namespace) -> int:
    records = [r for r in read_annotations(args.ann) if r.frame_id == args.frame_id]
    grid = _parse_grid(args.grid)
    intensity = render_intensity(records, grid)
    rgb = np.repeat((intensity * 255).astype(np.uint8)[:, :, None], 3, axis=2)
    for rec in records:
        b = rec.box
        rgb[b.y0, b.x0 : b.x1 + 1] = (255, 40, 40)
        rgb[b.y1, b.x0 : b.x1 + 1] = (255, 40, 40)
        rgb[b.y0 : b.y1 + 1, b.x0] = (255, 40, 40)
        rgb[b.y0 : b.y1 + 1, b.x1] = (255, 40, 40)
    with open(args.out, "wb") as fh:
        fh.write(f"P6\n{grid[0]} {grid[1]}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())
    print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="aeropipe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    config_help = "flat key-value config file (section.key = value)"

    p = sub.add_parser("encode", help="rasterize annotations into map tensors")
    p.add_argument("--ann", required=True)
    p.add_argument("--grid", required=True, help="WIDTHxHEIGHT")
    p.add_argument("--out", required=True, help=".aero file (single frame) or directory")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("detect", help="decode boxes from map tensors")
    p.add_argument("--config", help=config_help)
    p.add_argument("--maps", required=True, help=".aero file or directory of frame_*.aero")
    p.add_argument("--frame-id", type=_frame_id, help="frame id for single-file input")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("synth", help="generate synthetic fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=_at_least(1), default=10)
    p.add_argument("--noise", type=_at_least(0, float), default=0.0, help="regression noise amplitude")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pipeline", help="run the full per-frame loop on a manifest")
    p.add_argument("--config", help=config_help)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", help="trained model parameter file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("eval", help="average precision of predictions vs ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--iou", type=float)
    p.add_argument("--curve", help="write the PR curve CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("train", help="toy Adam training of the linear heads")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=_at_least(1), default=500)
    p.add_argument("--out", help="model parameter file")
    p.add_argument("--curve", help="write the loss curve CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bench", help="per-stage latency statistics")
    p.add_argument("--config", help=config_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=_at_least(1), default=100)
    p.add_argument("--boxes", type=_at_least(0), default=10)
    p.add_argument("--latest-only", action="store_true", help="drop frames that arrive mid-processing")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("send", help="stream a reports file to a receiver")
    p.add_argument("--addr", required=True)
    p.add_argument("--reports", required=True, help="framed reports file")
    p.set_defaults(func=cmd_send)

    p = sub.add_parser("recv", help="receive one report stream and decode it")
    p.add_argument("--addr", required=True)
    p.set_defaults(func=cmd_recv)

    p = sub.add_parser("overlay", help="render annotated boxes into a PPM image")
    p.add_argument("--ann", required=True)
    p.add_argument("--grid", required=True, help="WIDTHxHEIGHT")
    p.add_argument("--frame-id", type=_frame_id, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_overlay)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_help(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
