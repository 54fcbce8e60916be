"""Workload parameters shared by the generator, the measured process and
run.py.

This module is plain data plus one index helper; it imports nothing from
aeropipe, so run.py can read it without loading the program.
"""

from __future__ import annotations

# Frames run through the loop before timing starts; part of `setup_s`.
WARMUP_FRAMES = 3

WORKLOADS: dict[str, dict] = {
    # Default criterion-12 traffic: ~96 % of pixels carry no support, so the
    # full-frame passes (feature stub and decode) dominate the frame.
    "sparse_clean": {
        "kind": "frames",
        "grid": [640, 360],
        "box_count": [10, 10],
        "unique_frames": 40,
        "noise_amplitude": 0.0,
        "flip_probability": 0.0,
        "exact_boxes": True,
    },
    # About 3x the boxes on corrupted maps: the per-box layers (attention,
    # temporal, nms, wire) carry the load, corner pairs rise about ninefold
    # and bit flips scatter support over the whole grid.
    "crowd_noisy": {
        "kind": "frames",
        "grid": [640, 360],
        "box_count": [27, 27],
        "unique_frames": 32,
        "noise_amplitude": 0.05,
        "flip_probability": 0.01,
        "exact_boxes": False,
    },
    # The ground-station side: framed report bursts with 0-31 entries per
    # report and seeded byte corruption, fed to `wire.unframe_stream`.
    "wire_rx": {
        "kind": "rx",
        "bursts": 64,
        "reports_per_burst": 128,
        "byte_flip_rate": 1e-4,
        "drop_span_probability": 0.25,
        "drop_span_max": 64,
    },
}


def unique_index(frame_id: int, unique: int) -> int:
    """Input frame played at `frame_id`: the sequence runs forward, then
    backward, then forward again, so motion stays continuous while frame
    ids keep increasing."""
    period = 2 * unique - 2
    r = frame_id % period
    return r if r < unique else period - r
