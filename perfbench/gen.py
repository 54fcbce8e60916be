"""Input generator step: write one workload's seeded inputs to a directory.

Frame workloads get what `aeropipe synth` writes (one `.aero` map file per
frame, `annotations.txt`, `manifest.txt`) plus one pre-rendered intensity
tensor per frame. `wire_rx` gets the corrupted report bursts and the list
of sent messages with a flag for each one the corruption left intact.

Run as its own process so the measured process never runs `synth` code:

    PYTHONPATH=src python3 perfbench/gen.py --workload sparse_clean --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

from aeropipe import synth, tensorio, wire
from aeropipe.annotations import write_annotations
from aeropipe.densemaps import save_maps
from aeropipe.rng import SplitMix64
from workloads import WORKLOADS


def generate_frames(params: dict, seed: int, out: str) -> None:
    cfg = synth.SceneConfig(grid=tuple(params["grid"]), box_count=tuple(params["box_count"]))
    scenes = synth.generate_sequence(cfg, params["unique_frames"], seed)
    entries = []
    records = []
    for k, scene in enumerate(scenes):
        maps = scene.maps
        if params["noise_amplitude"] > 0.0 or params["flip_probability"] > 0.0:
            # Same corruption seeds as `aeropipe synth --noise`.
            maps = synth.corrupt_maps(
                maps, params["noise_amplitude"], params["flip_probability"], seed + 1000 + k
            )
        maps_name = f"frame_{k:06d}.aero"
        save_maps(os.path.join(out, maps_name), maps)
        tensorio.save_tensor(
            os.path.join(out, f"intensity_{k:06d}.aero"),
            synth.render_intensity(scene.records, cfg.grid),
        )
        records.extend(scene.records)
        entries.append((k, "annotations.txt", maps_name))
    write_annotations(os.path.join(out, "annotations.txt"), records)
    synth.write_manifest(os.path.join(out, "manifest.txt"), seed, cfg.grid, entries)


def _random_message(rng: SplitMix64, frame_id: int, count: int) -> wire.ReportMessage:
    entries = []
    for _ in range(count):
        x0, y0 = rng.randint(0, 590), rng.randint(0, 310)
        entries.append(
            wire.ReportEntry(
                box=(x0, y0, x0 + rng.randint(8, 48), y0 + rng.randint(8, 48)),
                track_id=rng.randint(0, 5000),
                primary_action=rng.randint(0, 3),
                secondary_action=rng.randint(0, 4),
                confidence_q=rng.randint(0, 255),
            )
        )
    return wire.ReportMessage(
        frame_id=frame_id,
        timestamp_ms=1_700_000_000_000 + 100 * frame_id,
        drone_lat_e7=rng.randint(-900_000_000, 900_000_000),
        drone_lon_e7=rng.randint(-1_800_000_000, 1_800_000_000),
        drone_alt_dm=rng.randint(0, 0xFFFF),
        entries=tuple(entries),
    )


def generate_rx(params: dict, seed: int, out: str) -> None:
    """Corrupted bursts; a message is intact when no flipped or dropped
    byte touches its length prefix or payload.

    Every burst carries each entry count 0-31 equally often, in random
    order, so bursts differ only in their contents and corruption.
    """
    rng = SplitMix64(seed)
    bursts = bytearray()
    sent = bytearray()
    burst_index = []
    sent_index = []
    frame_id = 0
    for _ in range(params["bursts"]):
        buf = bytearray()
        extents = []
        counts = [k % (wire.MAX_ENTRIES + 1) for k in range(params["reports_per_burst"])]
        for k in range(len(counts) - 1, 0, -1):
            j = rng.randint(0, k)
            counts[k], counts[j] = counts[j], counts[k]
        for count in counts:
            msg = _random_message(rng, frame_id, count)
            payload = wire.encode_message(msg)
            extents.append((frame_id, payload, len(buf), len(buf) + 2 + len(payload)))
            buf += wire.frame_stream([msg])
            frame_id += 1
        touched = np.zeros(len(buf), dtype=bool)
        flips = np.flatnonzero(rng.random_array((len(buf),)) < params["byte_flip_rate"])
        for pos in flips:
            buf[pos] ^= 1 << rng.randint(0, 7)
            touched[pos] = True
        if rng.random() < params["drop_span_probability"]:
            start = rng.randint(0, len(buf) - 1)
            stop = start + rng.randint(1, params["drop_span_max"])
            touched[start:stop] = True
            del buf[start:stop]
        for fid, payload, lo, hi in extents:
            sent_index.append([fid, len(sent), len(payload), not bool(touched[lo:hi].any())])
            sent += payload
        burst_index.append([len(bursts), len(buf)])
        bursts += buf
    with open(os.path.join(out, "bursts.bin"), "wb") as fh:
        fh.write(bursts)
    with open(os.path.join(out, "sent.bin"), "wb") as fh:
        fh.write(sent)
    with open(os.path.join(out, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"bursts": burst_index, "sent": sent_index}, fh)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    params = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    if params["kind"] == "frames":
        generate_frames(params, args.seed, args.out)
    else:
        generate_rx(params, args.seed, args.out)


if __name__ == "__main__":
    main()
