"""Spans and counters recorded from outside aeropipe, and their analysis.

`Tracer` replaces public functions at the names their callers look up at
call time (module globals and one class attribute) with wrappers that
record a span per call: name, start, end, parent span and frame id.
Counters come from each wrapped call's arguments and return value. Hook
work runs inside child spans named "trace", so it never counts as any
layer's self time. Spans stay in memory and are written out at the end.

`analyse` needs neither numpy nor aeropipe, so run.py can use it.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter_ns

# Span names of the six `run_frame` stages and the four decode sub-stages;
# each appears exactly once per frame.
ONCE_PER_FRAME = (
    "feature_stub",
    "box_generator",
    "mask_maps",
    "remove_noise",
    "find_peaks",
    "generate_boxes",
    "TrackStore.step",
    "nms",
    "build_report",
    "encode_message",
)

# metric -> (workload kind, "self" or "incl", span names); per-frame p50 in ms.
TIME_METRICS = {
    "tensorio.load_ms": ("frames", "self", ("ingest",)),
    "pipeline.features_ms": ("frames", "self", ("feature_stub",)),
    "pipeline.run_frame_self_ms": ("frames", "self", ("run_frame",)),
    "boxgen.decode_ms": ("frames", "incl", ("box_generator",)),
    "boxgen.mask_ms": ("frames", "self", ("mask_maps",)),
    "boxgen.denoise_ms": ("frames", "self", ("remove_noise",)),
    "boxgen.peaks_ms": ("frames", "self", ("find_peaks",)),
    "boxgen.combine_ms": ("frames", "self", ("generate_boxes",)),
    "attention.crop_ms": ("frames", "self", ("crop_and_resize",)),
    "temporal.associate_ms": ("frames", "self", ("TrackStore.step",)),
    "temporal.predict_ms": ("frames", "self", ("predict",)),
    "evaluate.nms_ms": ("frames", "self", ("nms",)),
    "wire.encode_ms": ("frames", "self", ("build_report", "encode_message")),
}

# metric -> workload kind; per-frame mean of the counter of the same name.
COUNT_METRICS = {
    "tensorio.read_mb": "frames",
    "pipeline.features_mb": "frames",
    "pipeline.minflt_per_frame": "frames",
    "boxgen.support_px": "frames",
    "boxgen.noise_px_removed": "frames",
    "boxgen.corners": "frames",
    "boxgen.pairs_tested": "frames",
    "boxgen.boxes": "frames",
    "attention.crops": "frames",
    "attention.window_frac": "frames",
    "temporal.tracks_matched": "frames",
    "temporal.tracks_spawned": "frames",
    "temporal.tracks_retired": "frames",
    "evaluate.nms_in": "frames",
    "evaluate.nms_suppressed": "frames",
    "wire.report_bytes": "frames",
    "wire.decode_attempts": "rx",
    "wire.decode_rejects": "rx",
    "wire.skipped_bytes": "rx",
}

# metric -> (workload kind, numerator counter, denominator counter); ratio of sums.
RATIO_METRICS = {
    "boxgen.pair_yield": ("frames", "boxgen.boxes", "boxgen.pairs_tested"),
    "wire.decode_yield": ("rx", "wire.messages", "wire.decode_attempts"),
}


class Tracer:
    """In-memory recorder; spans are [name, start_ns, end_ns, parent, frame]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.frame_id = -1
        self._stack: list[int] = []

    def open(self, name: str, start: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, start, start, parent, self.frame_id])

    def close(self, end: int) -> None:
        self.spans[self._stack.pop()][2] = end

    def close_all(self, end: int) -> None:
        while self._stack:
            self.close(end)

    def count(self, key: str, value: float = 1) -> None:
        frame = self.counts.setdefault(self.frame_id, {})
        frame[key] = frame.get(key, 0) + value

    def wrap(self, owner, attr: str, name: str | None = None, before=None, after=None, error_key=None) -> None:
        """Trace every call of `owner.attr`.

        before(args) runs ahead of the call and its result reaches
        after(args, out, state); error_key counts calls that raise.
        """
        name = name or attr
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = None
            if before is not None:
                self.open("trace", perf_counter_ns())
                state = before(args)
                self.close(perf_counter_ns())
            self.open(name, perf_counter_ns())
            try:
                out = original(*args, **kwargs)
            except Exception:
                self.close(perf_counter_ns())
                if error_key:
                    self.count(error_key)
                raise
            self.close(perf_counter_ns())
            if error_key:
                self.count(error_key, 0)
            if after is not None:
                self.open("trace", perf_counter_ns())
                after(args, out, state)
                self.close(perf_counter_ns())
            return out

        setattr(owner, attr, traced)


def install_frame_layers(tracer: Tracer, grid: tuple[int, int]):
    """Wrap the per-frame loop's layers; returns finish_frame(), which
    records the per-frame counters that need the whole frame."""
    import numpy as np

    from aeropipe import boxgen, pipeline, temporal
    from aeropipe.attention import expanded_window

    width, height = grid
    windows = []

    def support(masked) -> int:
        return int(np.count_nonzero((masked[0] > 0) | (masked[1] > 0)))

    def denoised(args, out, _):
        before = support(args[0])
        tracer.count("boxgen.support_px", before)
        tracer.count("boxgen.noise_px_removed", before - support(out))

    def combined(args, out, _):
        tracer.count("boxgen.pairs_tested", len(args[0].p1) * len(args[0].p2))
        tracer.count("boxgen.boxes", len(out))

    def cropped(args, out, _):
        tracer.count("attention.crops")
        windows.append(expanded_window(args[1], args[2]))

    def stepped(args, out, before):
        after = {t.track_id for t in args[0].tracks}
        matched = sum(1 for t in out if t.track_id in before)
        tracer.count("temporal.tracks_matched", matched)
        tracer.count("temporal.tracks_spawned", len(out) - matched)
        tracer.count("temporal.tracks_retired", len(before - after))

    def suppressed(args, out, _):
        tracer.count("evaluate.nms_in", len(args[0]))
        tracer.count("evaluate.nms_suppressed", len(args[0]) - len(out))

    tracer.wrap(pipeline, "feature_stub",
                after=lambda a, out, s: tracer.count("pipeline.features_mb", out.nbytes / 1e6))
    tracer.wrap(pipeline, "box_generator")
    tracer.wrap(boxgen, "mask_maps")
    tracer.wrap(boxgen, "remove_noise", after=denoised)
    tracer.wrap(boxgen, "find_peaks", after=lambda a, out, s: tracer.count("boxgen.corners", len(out.p1) + len(out.p2)))
    tracer.wrap(boxgen, "generate_boxes", after=combined)
    tracer.wrap(pipeline, "crop_and_resize", after=cropped)
    tracer.wrap(
        temporal.TrackStore, "step", name="TrackStore.step",
        before=lambda a: {t.track_id for t in a[0].tracks}, after=stepped,
    )
    tracer.wrap(pipeline, "predict")
    tracer.wrap(pipeline, "nms", after=suppressed)
    tracer.wrap(pipeline, "build_report")
    tracer.wrap(pipeline, "encode_message", after=lambda a, out, s: tracer.count("wire.report_bytes", len(out)))

    def finish_frame(minflt: int, read_mb: float) -> None:
        covered = np.zeros((height, width), dtype=bool)
        for w in windows:
            covered[max(w.y0, 0) : max(w.y1 + 1, 0), max(w.x0, 0) : max(w.x1 + 1, 0)] = True
        windows.clear()
        tracer.count("attention.window_frac", float(covered.mean()))
        tracer.count("pipeline.minflt_per_frame", minflt)
        tracer.count("tensorio.read_mb", read_mb)

    return finish_frame


def install_rx_layers(tracer: Tracer) -> None:
    from aeropipe import wire

    tracer.wrap(wire, "decode_message", error_key="wire.decode_rejects",
                before=lambda a: tracer.count("wire.decode_attempts"))


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def _self_times(spans: list[list]) -> tuple[list[int], list[int], list[str]]:
    """Self and child-covered time of every span, plus nesting problems.

    Spans are stored in the order they opened, so siblings come in start
    order and a child follows its parent.
    """
    child_ns = [0] * len(spans)
    last_end: dict[int, int] = {}
    problems: list[str] = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent < 0:
            continue
        _, p_start, p_end, _, _ = spans[parent]
        if start < p_start or end > p_end:
            problems.append(f"span {i} ({name}) lies outside its parent {spans[parent][0]}")
        if start < last_end.get(parent, start):
            problems.append(f"span {i} ({name}) overlaps its previous sibling")
        last_end[parent] = end
        child_ns[parent] += end - start
    self_ns = [end - start - child_ns[i] for i, (_, start, end, _, _) in enumerate(spans)]
    problems += [f"span {i} ({spans[i][0]}) has negative self time" for i, v in enumerate(self_ns) if v < 0]
    return self_ns, child_ns, problems


def analyse(
    spans: list[list], counts: dict[str, dict[str, float]], kind: str, scale: dict[int, float]
) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced run and the self-check problems.

    Each frame's times are multiplied by scale[frame id]. Metrics of layers
    the workload does not run are 0.
    """
    self_ns, child_ns, problems = _self_times(spans)
    frames = [i for i, s in enumerate(spans) if s[0] == "frame"]
    # Top-level spans (ingest + run_frame, or unframe_stream) tile the frame.
    for i in frames:
        if child_ns[i] != spans[i][2] - spans[i][1]:
            frame_ns = spans[i][2] - spans[i][1]
            problems.append(f"frame {spans[i][4]}: top-level spans cover {child_ns[i]} of {frame_ns} ns")

    own: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    incl: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for i, (name, start, end, _, fid) in enumerate(spans):
        own[fid][name] += self_ns[i]
        incl[fid][name] += end - start
        calls[fid][name] += 1
    fids = [spans[i][4] for i in frames]
    if not fids:
        return {}, problems + ["no frames traced"]
    if kind == "frames":
        for fid in fids:
            bad = [n for n in ONCE_PER_FRAME if calls[fid][n] != 1]
            boxes = counts.get(str(fid), {}).get("boxgen.boxes", 0)
            if calls[fid]["crop_and_resize"] != boxes or calls[fid]["predict"] != (1 if boxes else 0):
                bad.append("crop_and_resize/predict")
            if bad:
                problems.append(f"frame {fid}: stage spans missing or repeated: {bad}")

    metrics: dict[str, float] = {}
    for metric, (applies, mode, names) in TIME_METRICS.items():
        table = own if mode == "self" else incl
        if applies != kind:
            metrics[metric] = 0.0
        elif not any(calls[f][n] for f in fids for n in names):
            problems.append(f"{metric}: no {names} spans")
        else:
            metrics[metric] = statistics.median(sum(table[f][n] for n in names) / 1e6 * scale[f] for f in fids)

    def total(key: str) -> float:
        return sum(counts.get(str(f), {}).get(key, 0) for f in fids)

    def seen(key: str) -> bool:
        return any(key in counts.get(str(f), {}) for f in fids)

    for metric, applies in COUNT_METRICS.items():
        if applies != kind:
            metrics[metric] = 0.0
        elif not seen(metric):
            problems.append(f"{metric}: counter never recorded")
        else:
            metrics[metric] = total(metric) / len(fids)
    for metric, (applies, num, den) in RATIO_METRICS.items():
        if applies != kind:
            metrics[metric] = 0.0
        elif not (seen(num) and seen(den)):
            problems.append(f"{metric}: counters {num}, {den} never recorded")
        else:
            metrics[metric] = total(num) / total(den) if total(den) else 0.0
    if kind == "rx":
        metrics["wire.unframe_ms_per_mb"] = statistics.median(
            incl[f]["unframe_stream"] / 1e6 * scale[f] / (counts[str(f)]["wire.rx_bytes"] / 1e6) for f in fids
        )
    else:
        metrics["wire.unframe_ms_per_mb"] = 0.0
    return metrics, problems
