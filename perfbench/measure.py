"""The measured process: one fresh interpreter runs one workload over
pre-generated inputs and prints its raw samples as one JSON line.

Frame workloads run `Pipeline.run_frame` with one frame in flight; each
frame is timed from the start of reading its input files to `run_frame`
returning the payload. `wire_rx` times `wire.unframe_stream` per burst.
`--spawn-ns` is run.py's CLOCK_MONOTONIC reading just before it started
this process, so `setup_s` covers interpreter start, imports, pipeline
construction and warm-up. Between frames the loop times a fixed reference
kernel every 100 ms, so run.py can tell the program's speed from the
machine's. Outputs are checked after the timed loop.
`perfbench/run.py` starts this process; it is not meant to be run alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import struct
import sys
import time
import traceback
import zlib
from time import perf_counter_ns

import numpy as np
import scipy
from scipy import ndimage

from aeropipe import wire
from aeropipe.annotations import group_by_frame, read_annotations
from aeropipe.densemaps import load_maps
from aeropipe.evaluate import EvalConfig, evaluate_map
from aeropipe.pipeline import FrameRecord, Pipeline, PipelineConfig
from aeropipe.tensorio import load_tensor
from spans import Tracer, install_frame_layers, install_rx_layers
from workloads import WARMUP_FRAMES, WORKLOADS, unique_index

REF_PERIOD_NS = 100_000_000
SETUP_REF_SAMPLES = 5
# Reference kernel state, allocated once so the allocator state the
# program leaves behind cannot change the kernel's time.
_REF_GRID = np.random.default_rng(12345).random((360, 640))
_REF_OUT = np.empty((2, 360, 640))
_REF_BYTES = bytes(range(256)) * 2
_REF_HEADER = struct.Struct("<HBBIQiiHB")


def _numpy_pass() -> None:
    ndimage.uniform_filter(_REF_GRID, size=3, output=_REF_OUT[0], mode="nearest")
    ndimage.maximum_filter(_REF_GRID[:, :128], size=13, output=_REF_OUT[1, :, :128], mode="constant")
    np.multiply(_REF_GRID, _REF_OUT[0], out=_REF_OUT[1])


def _python_pass() -> int:
    acc = 0
    for i in range(3000):
        at = i % 256
        fields = _REF_HEADER.unpack_from(_REF_BYTES, at)
        acc ^= zlib.crc32(_REF_BYTES[at : at + 64]) ^ fields[3]
    return acc


def reference_ns() -> list[int]:
    """Time a fixed kernel that no aeropipe code changes, in two parts:
    scipy filters and a streaming numpy pass over a frame-sized grid, like
    the feature stub's and decode's, then a struct/CRC loop like the wire
    layer's. A first untimed pass loads code and data into the caches."""
    _numpy_pass()
    _python_pass()
    t0 = perf_counter_ns()
    _numpy_pass()
    t1 = perf_counter_ns()
    _python_pass()
    return [t1 - t0, perf_counter_ns() - t1]


def timed_loop(step, first: int, seconds: float):
    """Call step(i) for i = first, first + 1, ... for `seconds` of loop time.

    step returns the elapsed ns of its timed part, or None when it failed.
    Every REF_PERIOD_NS a reference sample is taken between two steps; its
    time is left out of the loop time. Returns the samples as
    [i, end_ns, elapsed_ns], the reference samples as [at_ns, numpy_ns,
    python_ns], the loop time and the number of steps.
    """
    samples: list[list[int]] = []
    refs: list[list[int]] = []
    ref_total = 0
    start = next_ref = perf_counter_ns()
    i = first
    while True:
        now = perf_counter_ns()
        if now >= next_ref:
            refs.append([now, *reference_ns()])
            ref_total += perf_counter_ns() - now
            next_ref = now + REF_PERIOD_NS
        if perf_counter_ns() - start - ref_total >= seconds * 1e9:
            break
        elapsed = step(i)
        if elapsed is not None:
            samples.append([i, perf_counter_ns(), elapsed])
        i += 1
    return samples, refs, perf_counter_ns() - start - ref_total, i - first


def _setup_done(args) -> dict:
    setup_s = (time.monotonic_ns() - args.spawn_ns) / 1e9
    refs = [[perf_counter_ns(), *reference_ns()] for _ in range(SETUP_REF_SAMPLES)] if args.setup_only else []
    return {"setup_s": setup_s, "setup_refs": refs}


def _report_error(what: str, errors: list[str]) -> None:
    if len(errors) < 3:
        print(f"measure: {what} failed:\n{traceback.format_exc()}", file=sys.stderr)
    errors.append(what)


def _hash_outputs(digest):
    """Feed decoded box lists and crop tensors to `digest`; returns the
    function that removes the hooks again."""
    from aeropipe import pipeline as mod

    originals = {name: getattr(mod, name) for name in ("box_generator", "crop_and_resize")}

    def box_generator(*args, **kwargs):
        boxes = originals["box_generator"](*args, **kwargs)
        digest.update(repr([b.as_tuple() for b in boxes]).encode())
        return boxes

    def crop_and_resize(*args, **kwargs):
        crop = originals["crop_and_resize"](*args, **kwargs)
        digest.update(np.ascontiguousarray(crop.tensor).tobytes())
        return crop

    def unhook() -> None:
        for name, fn in originals.items():
            setattr(mod, name, fn)

    mod.box_generator = box_generator
    mod.crop_and_resize = crop_and_resize
    return unhook


def run_frames(args, params: dict, tracer: Tracer | None) -> dict:
    unique = params["unique_frames"]
    maps_paths = [os.path.join(args.inputs, f"frame_{k:06d}.aero") for k in range(unique)]
    intensity_paths = [os.path.join(args.inputs, f"intensity_{k:06d}.aero") for k in range(unique)]
    read_mb = [(os.path.getsize(m) + os.path.getsize(i)) / 1e6 for m, i in zip(maps_paths, intensity_paths)]
    pipeline = Pipeline()
    # The untraced digest covers frames 0..unique-1: their decoded box
    # lists and crop tensors through hooks removed after that, then their
    # report bytes.
    digest = hashlib.sha256()
    unhook = None if tracer else _hash_outputs(digest)
    finish_frame = install_frame_layers(tracer, tuple(params["grid"])) if tracer else None

    def frame(fid: int):
        k = unique_index(fid, unique)
        if tracer:
            tracer.frame_id = fid
            minflt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = perf_counter_ns()
        if tracer:
            tracer.open("frame", t0)
            tracer.open("ingest", t0)
        record = FrameRecord(frame_id=fid, maps=load_maps(maps_paths[k]), intensity=load_tensor(intensity_paths[k]))
        if tracer:
            tm = perf_counter_ns()
            tracer.close(tm)
            tracer.open("run_frame", tm)
        result = pipeline.run_frame(record)
        t1 = perf_counter_ns()
        if tracer:
            tracer.close_all(t1)
            finish_frame(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - minflt, read_mb[k])
        if unhook is not None and fid < unique:
            digest.update(result.payload)
            if fid == unique - 1:
                unhook()
        return result, t1 - t0

    errors: list[str] = []
    outputs = []

    def step(fid: int):
        try:
            result, elapsed = frame(fid)
        except Exception:
            _report_error(f"frame {fid}", errors)
            if tracer:
                tracer.close_all(perf_counter_ns())
            return None
        outputs.append((fid, result.payload, result.message, result.detections))
        return elapsed

    for fid in range(WARMUP_FRAMES):
        frame(fid)
    out = _setup_done(args)
    if args.setup_only:
        return out
    if tracer:
        tracer.spans.clear()
        tracer.counts.clear()
    samples, refs, wall_ns, attempted = timed_loop(step, WARMUP_FRAMES, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    gt = group_by_frame(read_annotations(os.path.join(args.inputs, "annotations.txt")))
    predictions, truth = {}, {}
    for fid, payload, message, detections in outputs:
        k = unique_index(fid, unique)
        try:
            ok = wire.decode_message(payload) == message
        except wire.WireError:
            ok = False
        if ok and params["exact_boxes"]:
            ok = sorted(e.box for e in message.entries) == sorted(r.box.as_tuple() for r in gt.get(k, []))
        if not ok:
            errors.append(f"frame {fid}: output check")
        predictions[fid] = detections
        truth[fid] = gt.get(k, [])
    ap50, _ = evaluate_map(predictions, truth, EvalConfig(iou_threshold=0.5))
    return {
        **out,
        "samples": samples,
        "refs": refs,
        "wall_ns": wall_ns,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:10],
        "peak_rss_mb": peak_rss_mb,
        "named": {
            "frame_error_frac": [len(errors) / attempted, "ratio"],
            "detect_ap50": [ap50, "ratio"],
        },
        "digest": None if tracer else digest.hexdigest(),
    }


def run_rx(args, params: dict, tracer: Tracer | None) -> dict:
    with open(os.path.join(args.inputs, "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    with open(os.path.join(args.inputs, "bursts.bin"), "rb") as fh:
        data = fh.read()
    bursts = [data[offset : offset + size] for offset, size in index["bursts"]]
    if tracer:
        install_rx_layers(tracer)

    def burst(i: int):
        stream = bursts[i % len(bursts)]
        if tracer:
            tracer.frame_id = i
        t0 = perf_counter_ns()
        if tracer:
            tracer.open("frame", t0)
            tracer.open("unframe_stream", t0)
        messages, skipped = wire.unframe_stream(stream)
        t1 = perf_counter_ns()
        if tracer:
            tracer.close_all(t1)
            tracer.count("wire.rx_bytes", len(stream))
            tracer.count("wire.skipped_bytes", skipped)
            tracer.count("wire.messages", len(messages))
        return messages, skipped, t1 - t0

    errors: list[str] = []
    failed_at: set[int] = set()
    for i in range(WARMUP_FRAMES):
        burst(i)
    out = _setup_done(args)
    if args.setup_only:
        return out

    # Check every burst once, untimed; timed passes must repeat the
    # (message count, skipped bytes) of this pass.
    with open(os.path.join(args.inputs, "sent.bin"), "rb") as fh:
        sent_bytes = fh.read()
    sent = {fid: (sent_bytes[offset : offset + size], intact) for fid, offset, size, intact in index["sent"]}
    digest = hashlib.sha256()
    false_msgs = recovered = 0
    bad_bursts = set()
    expected = []
    for b, stream in enumerate(bursts):
        messages, skipped = wire.unframe_stream(stream)
        expected.append((len(messages), skipped))
        digest.update(skipped.to_bytes(4, "little"))
        for msg in messages:
            payload = wire.encode_message(msg)
            digest.update(payload)
            truth = sent.get(msg.frame_id)
            if truth is None or truth[0] != payload:
                false_msgs += 1
                bad_bursts.add(b)
            elif truth[1]:
                recovered += 1
    intact = sum(1 for _, flag in sent.values() if flag)
    if bad_bursts:
        errors.append(f"bursts {sorted(bad_bursts)} returned {false_msgs} messages that were never sent")
    del messages, sent, sent_bytes
    if tracer:
        tracer.spans.clear()
        tracer.counts.clear()

    rx_bytes = 0

    def step(i: int):
        nonlocal rx_bytes
        b = i % len(bursts)
        try:
            messages, skipped, elapsed = burst(i)
        except Exception:
            _report_error(f"burst {i}", errors)
            failed_at.add(i)
            if tracer:
                tracer.close_all(perf_counter_ns())
            return None
        rx_bytes += len(bursts[b])
        if b in bad_bursts or (len(messages), skipped) != expected[b]:
            failed_at.add(i)
        return elapsed

    samples, refs, wall_ns, attempted = timed_loop(step, WARMUP_FRAMES, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if failed_at - {i for i in failed_at if i % len(bursts) in bad_bursts}:
        errors.append("a timed pass differed from the checked pass over the same bytes")
    return {
        **out,
        "samples": samples,
        "refs": refs,
        "wall_ns": wall_ns,
        "attempted": attempted,
        "failed": len(failed_at),
        "errors": errors[:10],
        "peak_rss_mb": peak_rss_mb,
        "rx_bytes": rx_bytes,
        "named": {
            "rx_recovered_frac": [recovered / intact, "ratio"],
            "rx_false_msgs": [false_msgs, "count"],
        },
        "digest": digest.hexdigest(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", help="write spans and counters of the timed frames to this file")
    args = parser.parse_args()
    params = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    run = run_frames if params["kind"] == "frames" else run_rx
    out = run(args, params, tracer)
    if tracer:
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    if not args.setup_only:
        out["environment"] = {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
        }
        out["pipeline_config"] = dataclasses.asdict(PipelineConfig())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
