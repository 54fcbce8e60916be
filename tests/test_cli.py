import dataclasses
import os
import re
import socket
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeropipe import cli, pipeline
from aeropipe.annotations import AnnotationRecord, read_annotations, write_annotations
from aeropipe.cli import build_parser, main
from aeropipe.densemaps import encode, load_maps, save_maps
from aeropipe.geometry import BBox
from aeropipe.synth import SceneGenerationError, render_intensity
from aeropipe.wire import unframe_stream


def _write_gt(path, boxes, frame_id=0):
    records = [
        AnnotationRecord(frame_id=frame_id, box=b, track_id=i, primary_action=0, secondary_action=1)
        for i, b in enumerate(boxes)
    ]
    write_annotations(str(path), records)
    return records


class TestEncodeDetect:
    def test_encode_single_frame(self, tmp_path):
        ann = tmp_path / "gt.txt"
        _write_gt(ann, [BBox(4, 4, 20, 20)])
        out = tmp_path / "maps.aero"
        assert main(["encode", "--ann", str(ann), "--grid", "64x48", "--out", str(out)]) == 0
        maps = load_maps(str(out))
        assert (maps.width, maps.height) == (64, 48)
        assert maps.seg[4, 4] == 1.0

    def test_encode_then_detect_roundtrip(self, tmp_path):
        boxes = [BBox(4, 4, 20, 20), BBox(40, 10, 56, 30)]
        ann = tmp_path / "gt.txt"
        _write_gt(ann, boxes)
        maps_path = tmp_path / "maps.aero"
        main(["encode", "--ann", str(ann), "--grid", "80x48", "--out", str(maps_path)])
        out = tmp_path / "boxes.txt"
        assert main(["detect", "--maps", str(maps_path), "--out", str(out)]) == 0
        detected = read_annotations(str(out))
        assert sorted(r.box.as_tuple() for r in detected) == sorted(b.as_tuple() for b in boxes)
        assert all(r.track_id == -1 for r in detected)

    def test_multi_frame_encode_to_directory(self, tmp_path):
        records = _write_gt(tmp_path / "gt.txt", [BBox(4, 4, 20, 20)], frame_id=0)
        records += _write_gt(tmp_path / "gt2.txt", [BBox(10, 10, 30, 30)], frame_id=1)
        write_annotations(str(tmp_path / "gt.txt"), records)
        out_dir = tmp_path / "maps"
        assert main(["encode", "--ann", str(tmp_path / "gt.txt"), "--grid", "64x48", "--out", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == ["frame_000000.aero", "frame_000001.aero"]


class TestSynthAndPipeline:
    def test_synth_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--seed", "7", "--frames", "3", "--out", str(out)]) == 0
        for name in sorted(os.listdir(a)):
            with open(a / name, "rb") as fa, open(b / name, "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_pipeline_then_eval(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--seed", "5", "--frames", "3", "--out", str(data)])
        run = tmp_path / "run"
        assert main(["pipeline", "--manifest", str(data / "manifest.txt"), "--out", str(run)]) == 0
        reports = (run / "reports.bin").read_bytes()
        messages, skipped = unframe_stream(reports)
        assert skipped == 0
        assert len(messages) == 3
        capsys.readouterr()
        assert main([
            "eval",
            "--pred", str(run / "predictions.txt"),
            "--gt", str(data / "annotations.txt"),
        ]) == 0
        out = capsys.readouterr().out
        assert "ap=1.000000" in out

    def test_eval_gt_against_itself(self, tmp_path, capsys):
        ann = tmp_path / "gt.txt"
        _write_gt(ann, [BBox(4, 4, 20, 20), BBox(40, 10, 56, 30)])
        assert main(["eval", "--pred", str(ann), "--gt", str(ann)]) == 0
        out = capsys.readouterr().out
        assert "ap=1.000000" in out
        assert "primary_ap=1.000000" in out
        assert "secondary_ap=1.000000" in out

    def test_eval_scores_an_unknown_action_in_no_class(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("0 4 4 20 20 0 0 1\n0 40 10 56 30 1 1 1\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("0 4 4 20 20 0 -1 1 0.9\n0 40 10 56 30 1 1 1 0.8\n")
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
        out = capsys.readouterr().out
        # Class 0 has no prediction (AP 0), class 1 is found (AP 1).
        assert "ap=1.000000" in out
        assert "primary_ap=0.500000" in out

    def test_eval_reports_n_a_for_a_head_without_labels(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("0 4 4 20 20 0 -1 1\n0 40 10 56 30 1 -1 0\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("0 4 4 20 20 0 0 1 0.9\n0 40 10 56 30 1 1 0 0.8\n")
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 0
        captured = capsys.readouterr()
        assert "primary_ap=n/a" in captured.out.splitlines()
        assert "secondary_ap=1.000000" in captured.out.splitlines()
        assert "no primary action label" in captured.err

    def test_pipeline_with_trained_model(self, tmp_path):
        model_path = tmp_path / "model.aero"
        assert main(["train", "--seed", "2", "--epochs", "2", "--out", str(model_path)]) == 0
        data = tmp_path / "data"
        main(["synth", "--seed", "6", "--frames", "2", "--out", str(data)])
        run = tmp_path / "run"
        code = main([
            "pipeline", "--manifest", str(data / "manifest.txt"),
            "--model", str(model_path), "--out", str(run),
        ])
        assert code == 0
        preds = read_annotations(str(run / "predictions.txt"))
        assert preds and all(0.0 <= p.confidence <= 1.0 for p in preds)

    def test_pipeline_reads_each_lines_annotation_file(self, tmp_path, monkeypatch):
        grid = (64, 48)
        for fid in (0, 1):
            save_maps(str(tmp_path / f"m{fid}.aero"), encode([BBox(8, 6, 30, 28)], grid))
        _write_gt(tmp_path / "a0.txt", [BBox(4, 4, 20, 20)], frame_id=0)
        boxes = [BBox(2 + 10 * k, 2 + 20 * (k % 2), 8 + 10 * k, 12 + 20 * (k % 2)) for k in range(6)]
        _write_gt(tmp_path / "a1.txt", boxes, frame_id=1)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("seed 1\ngrid 64 48\nframe 0 a0.txt m0.aero\nframe 1 a1.txt m1.aero\n")
        rendered = []

        def spy(records, size):
            rendered.append([r.box for r in records])
            return render_intensity(records, size)

        monkeypatch.setattr(cli, "render_intensity", spy)
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 0
        assert rendered == [[BBox(4, 4, 20, 20)], boxes]

    @pytest.mark.parametrize(
        "flag",
        [["--config", "cfg.txt"], ["--delta", "0.8"], ["--iou", "0.4"], ["--addr", "h:1"]],
        ids=["config", "delta", "iou", "addr"],
    )
    def test_synth_rejects_flags_it_ignores(self, tmp_path, capsys, flag):
        assert main(["synth", "--frames", "1", "--out", str(tmp_path / "s"), *flag]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("detect", ["--seed", "1"]),
            ("detect", ["--iou", "0.4"]),
            ("detect", ["--addr", "h:1"]),
            ("pipeline", ["--seed", "1"]),
            ("pipeline", ["--addr", "h:1"]),
            ("bench", ["--addr", "h:1"]),
        ],
        ids=["detect-seed", "detect-iou", "detect-addr", "pipeline-seed", "pipeline-addr", "bench-addr"],
    )
    def test_subcommands_reject_flags_they_ignore(self, tmp_path, capsys, command, flag):
        out = str(tmp_path / "out")
        if command == "detect":
            save_maps(str(tmp_path / "maps.aero"), encode([BBox(8, 6, 30, 28)], (40, 36)))
            args = ["--maps", str(tmp_path / "maps.aero"), "--out", out]
        elif command == "pipeline":
            main(["synth", "--frames", "1", "--out", str(tmp_path / "data")])
            args = ["--manifest", str(tmp_path / "data" / "manifest.txt"), "--out", out]
        else:
            args = ["--frames", "1", "--boxes", "1"]
        capsys.readouterr()
        assert main([command, *args, *flag]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestTrainBenchOverlay:
    def test_train_quick(self, tmp_path, capsys):
        model_path = tmp_path / "model.aero"
        curve_path = tmp_path / "curve.csv"
        code = main([
            "train", "--seed", "1", "--epochs", "3",
            "--out", str(model_path), "--curve", str(curve_path),
        ])
        assert code == 0
        assert model_path.exists()
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 4
        assert "holdout_primary_accuracy" in capsys.readouterr().out

    def test_bench_csv(self, capsys):
        code = main(["bench", "--frames", "4", "--boxes", "2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "stage,mean_ms,p95_ms"
        assert len(lines) == 8

    def test_overlay_writes_ppm(self, tmp_path):
        ann = tmp_path / "gt.txt"
        _write_gt(ann, [BBox(4, 4, 20, 20)])
        out = tmp_path / "frame.ppm"
        assert main(["overlay", "--ann", str(ann), "--grid", "64x48", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P6\n64 48\n255\n")
        assert len(raw) == len(b"P6\n64 48\n255\n") + 64 * 48 * 3


class TestWireEndpoints:
    def test_send_recv_over_loopback(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--seed", "9", "--frames", "2", "--out", str(data)])
        run = tmp_path / "run"
        main(["pipeline", "--manifest", str(data / "manifest.txt"), "--out", str(run)])

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        addr = f"127.0.0.1:{port}"

        codes = {}

        def run_recv():
            codes["recv"] = main(["recv", "--addr", addr])

        thread = threading.Thread(target=run_recv)
        thread.start()
        import time

        # recv accepts exactly one connection; retry the send until the
        # listener is up (a refused connection exits with a data error)
        deadline = time.time() + 10
        code = 2
        while time.time() < deadline:
            code = main(["send", "--addr", addr, "--reports", str(run / "reports.bin")])
            if code == 0:
                break
            time.sleep(0.05)
        codes["send"] = code
        thread.join(timeout=10)
        assert codes == {"send": 0, "recv": 0}
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("frame=")]
        assert len(lines) == 2
        assert lines[0].startswith("frame=0 entries=")


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["detect", "--nope"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["detect", "--maps", str(tmp_path / "nope.aero"), "--out", str(tmp_path / "o.txt")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_maps_are_data_error(self, tmp_path, capsys):
        maps = encode([BBox(8, 6, 30, 28)], (40, 36))
        maps.reg[1, 12, 12] = np.inf
        save_maps(str(tmp_path / "maps.aero"), maps)
        assert main(["detect", "--maps", str(tmp_path / "maps.aero"), "--out", str(tmp_path / "o.txt")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_empty_manifest_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("seed 1\ngrid 64 48\n")
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert "no frames" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed", "grid 640", "frame 5 annotations.txt"])
    def test_truncated_manifest_line_is_data_error(self, tmp_path, capsys, line):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"{line}\n")
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert f"line 1: truncated {line.split()[0]!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("frame_id", [-7, 2**32])
    def test_manifest_frame_id_outside_u32_is_data_error(self, tmp_path, capsys, frame_id):
        main(["synth", "--frames", "1", "--out", str(tmp_path / "data")])
        manifest = tmp_path / "data" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("frame 0 ", f"frame {frame_id} "))
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert f"frame id {frame_id} outside 0..4294967295" in capsys.readouterr().err

    def test_annotation_frame_id_outside_u32_is_data_error(self, tmp_path, capsys):
        ann = tmp_path / "gt.txt"
        ann.write_text("-5 10 10 40 36 -1 -1 -1\n")
        out = tmp_path / "maps"
        assert main(["encode", "--ann", str(ann), "--grid", "80x48", "--out", str(out)]) == 2
        assert "frame id -5 outside 0..4294967295: '-5 10 10 40 36 -1 -1 -1'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "overlay"])
    def test_negative_frame_id_flag_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "detect":
            save_maps(str(tmp_path / "maps.aero"), encode([BBox(8, 6, 30, 28)], (80, 48)))
            args = ["detect", "--maps", str(tmp_path / "maps.aero")]
        else:
            _write_gt(tmp_path / "gt.txt", [BBox(4, 4, 20, 20)])
            args = ["overlay", "--ann", str(tmp_path / "gt.txt"), "--grid", "64x48"]
        assert main([*args, "--frame-id", "-5", "--out", str(out)]) == 1
        assert "expected an integer >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["detect", "overlay"])
    def test_frame_id_flag_beyond_u32_is_usage_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        if command == "detect":
            save_maps(str(tmp_path / "frame_000000.aero"), encode([BBox(8, 6, 30, 28)], (80, 48)))
            args = ["detect", "--maps", str(tmp_path / "frame_000000.aero")]
        else:
            _write_gt(tmp_path / "gt.txt", [BBox(4, 4, 20, 20)])
            args = ["overlay", "--ann", str(tmp_path / "gt.txt"), "--grid", "64x48"]
        assert main([*args, "--frame-id", str(2**32), "--out", str(out)]) == 1
        assert "frame id 4294967296 outside 0..4294967295" in capsys.readouterr().err
        assert not out.exists()
        assert main([*args, "--frame-id", str(2**32 - 1), "--out", str(out)]) == 0

    def test_detect_frame_id_flag_on_a_directory_is_data_error(self, tmp_path, capsys):
        maps_dir = tmp_path / "maps"
        maps_dir.mkdir()
        for fid in (0, 1):
            save_maps(str(maps_dir / f"frame_{fid:06d}.aero"), encode([BBox(8, 6, 30, 28)], (80, 48)))
        out = tmp_path / "o.txt"
        assert main(["detect", "--maps", str(maps_dir), "--frame-id", "5", "--out", str(out)]) == 2
        assert f"--frame-id is for single-file input, but {maps_dir} is a directory" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, opener", [("send", "create_connection"), ("recv", "create_server")])
    @pytest.mark.parametrize("port", [65536, 99999])
    def test_port_beyond_u16_is_data_error(self, tmp_path, capsys, monkeypatch, command, opener, port):
        def opened(*args, **kwargs):
            raise AssertionError(f"{opener} called with {args}")

        monkeypatch.setattr(socket, opener, opened)
        reports = tmp_path / "reports.bin"
        reports.write_bytes(b"")
        extra = ["--reports", str(reports)] if command == "send" else []
        assert main([command, "--addr", f"127.0.0.1:{port}", *extra]) == 2
        assert f"port {port} outside 0..65535" in capsys.readouterr().err

    def test_frame_period_overflowing_the_timestamp_is_data_error(self, tmp_path, capsys):
        main(["synth", "--frames", "2", "--out", str(tmp_path / "data")])
        (tmp_path / "cfg.txt").write_text("pipeline.frame_period_ms = 100000000000000000000\n")
        args = ["pipeline", "--manifest", str(tmp_path / "data" / "manifest.txt"), "--out", str(tmp_path / "run")]
        assert main([*args, "--config", str(tmp_path / "cfg.txt")]) == 2
        assert "pipeline.frame_period_ms must be in 0..4294967297" in capsys.readouterr().err

    def test_bad_grid_is_data_error(self, tmp_path):
        ann = tmp_path / "gt.txt"
        _write_gt(ann, [BBox(4, 4, 20, 20)])
        assert main(["encode", "--ann", str(ann), "--grid", "64by48", "--out", str(tmp_path / "m.aero")]) == 2

    @pytest.mark.parametrize(
        "args",
        [["train", "--epochs", "-1"], ["synth", "--frames", "-3"], ["bench", "--frames", "0"]],
        ids=["train-epochs", "synth-frames", "bench-frames"],
    )
    def test_non_positive_count_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        if args[0] == "synth":
            args = [*args, "--out", str(out)]
        assert main(args) == 1
        assert "expected an integer >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["bench", "--frames", "1", "--boxes", "-1"], "expected an integer >= 0, got -1"),
            (["synth", "--noise", "-1"], "expected a finite number >= 0, got -1.0"),
            (["synth", "--noise", "nan"], "expected a finite number >= 0, got nan"),
            (["synth", "--noise", "inf"], "expected a finite number >= 0, got inf"),
        ],
        ids=["bench-boxes-neg", "synth-noise-neg", "synth-noise-nan", "synth-noise-inf"],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        if args[0] == "synth":
            args = [*args, "--frames", "1", "--out", str(out)]
        assert main(args) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_synth_takes_zero_noise(self, tmp_path):
        assert main(["synth", "--frames", "1", "--noise", "0", "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "frame_000000.aero").exists()

    def test_bench_packing_failure_is_data_error(self, capsys, monkeypatch):
        def give_up(*args, **kwargs):
            raise SceneGenerationError("failed to pack 400 boxes on 640x360 after 2000 attempts")

        monkeypatch.setattr(pipeline, "generate_sequence", give_up)
        assert main(["bench", "--frames", "1", "--boxes", "400"]) == 2
        assert "failed to pack" in capsys.readouterr().err

    def test_bench_box_count_past_the_grid_bound_is_data_error(self, capsys, monkeypatch):
        def packer(*args, **kwargs):
            raise AssertionError("packer ran")

        monkeypatch.setattr(pipeline, "generate_sequence", packer)
        assert main(["bench", "--frames", "1", "--boxes", "1621"]) == 2
        assert "exceeds 1620" in capsys.readouterr().err

    def test_key_error_is_an_internal_error(self, capsys, monkeypatch):
        # No input reaches a KeyError, so one raised is a program fault.
        def fault(*args, **kwargs):
            raise KeyError("boxes")

        monkeypatch.setattr(pipeline, "generate_sequence", fault)
        assert main(["bench", "--frames", "1", "--boxes", "3"]) == 3
        assert "KeyError: 'boxes'" in capsys.readouterr().err

    def test_bench_takes_a_scene_without_boxes(self, capsys):
        assert main(["bench", "--frames", "2", "--boxes", "0"]) == 0
        assert capsys.readouterr().out.startswith("stage,mean_ms,p95_ms")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_confidence_is_data_error(self, tmp_path, capsys, value):
        gt = tmp_path / "gt.txt"
        _write_gt(gt, [BBox(4, 4, 20, 20)])
        pred = tmp_path / "pred.txt"
        pred.write_text(f"0 4 4 20 20 -1 0 1 {value}\n")
        assert main(["eval", "--pred", str(pred), "--gt", str(gt)]) == 2
        err = capsys.readouterr().err
        assert "non-finite confidence" in err and f"0 4 4 20 20 -1 0 1 {value}" in err

    def test_overlay_box_off_the_grid_is_data_error(self, tmp_path, capsys):
        ann = tmp_path / "gt.txt"
        _write_gt(ann, [BBox(4, 4, 20, 20), BBox(4, 4, 9010, 20)], frame_id=3)
        args = ["overlay", "--ann", str(ann), "--grid", "64x48", "--frame-id", "3", "--out", str(tmp_path / "f.ppm")]
        assert main(args) == 2
        assert "frame 3: box (4, 4, 9010, 20) outside 64x48 grid" in capsys.readouterr().err

    def test_pipeline_box_off_the_grid_is_data_error(self, tmp_path, capsys):
        save_maps(str(tmp_path / "frame_000000.aero"), encode([BBox(8, 6, 30, 28)], (640, 360)))
        _write_gt(tmp_path / "annotations.txt", [BBox(8, 6, 30, 28), BBox(4, 4, 9010, 20)])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("seed 1\ngrid 640 360\nframe 0 annotations.txt frame_000000.aero\n")
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "run")]) == 2
        assert "frame 0: box (4, 4, 9010, 20) outside 640x360 grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            "boxgen.delta = 0\n",
            "boxgen.max_filter_window = 4\n",
            "stub.scales = 0\n",
            "nms.iou_threshold = 5\n",
            "nms.score_floor = -0.1\n",
            "associate.max_dist = -1\n",
            "associate.max_age = -1\n",
            "pipeline.frame_period_ms = -5\n",
            "stub.local_window = 0\n",
            "boxgen.peak_floor = -1\n",
            "boxgen.peak_floor = 1\n",
            "boxgen.max_box_diag = 0\n",
            "attention.sigma_scale = nan\n",
            "attention.expand_ratio = inf\n",
            "attention.expand_ratio = 1e18\n",
            "attention.expand_ratio = nan\n",
            "temporal.hidden_size = 1000000000\n",
        ],
        ids=[
            "delta-0", "max-filter-window-4", "stub-scales-0", "nms-iou-5", "nms-score-floor-neg",
            "max-dist-neg", "max-age-neg", "frame-period-neg", "local-window-0", "peak-floor-neg",
            "peak-floor-1", "max-box-diag-0", "sigma-scale-nan", "expand-ratio-inf",
            "expand-ratio-1e18", "expand-ratio-nan", "removed-temporal-hidden-size",
        ],
    )
    def test_bad_config_value_is_data_error(self, tmp_path, capsys, config):
        save_maps(str(tmp_path / "maps.aero"), encode([BBox(8, 6, 30, 28)], (40, 36)))
        (tmp_path / "cfg.txt").write_text(config)
        args = ["detect", "--maps", str(tmp_path / "maps.aero"), "--out", str(tmp_path / "o.txt")]
        args += ["--config", str(tmp_path / "cfg.txt")]
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ("attention.out_size = 100000\n", "unknown config key 'attention.out_size'"),
            ("stub.scales = 1,1000000\n", "unknown config key 'stub.scales'"),
        ],
        ids=["out-size-1e5", "stub-scale-1e6"],
    )
    def test_oversized_config_is_data_error(self, tmp_path, capsys, config, message):
        """Each once exited 3 with numpy's _ArrayMemoryError (186 TiB and
        7.28 TiB). The crop shape is constants now, so no key sizes an
        array and both keys are unknown."""
        (tmp_path / "cfg.txt").write_text(config)
        assert main(["bench", "--frames", "1", "--boxes", "2", "--config", str(tmp_path / "cfg.txt")]) == 2
        assert f"error: {message}" in capsys.readouterr().err


# Each numeric flag of the subcommands that take one, with the cap of its
# large values: frames, epochs, boxes and grid are capped so that no case
# runs long or allocates much.
_NUMERIC_FLAGS = {
    "synth": {"--seed": 2**70, "--frames": 3, "--noise": 1e300},
    "bench": {"--seed": 2**70, "--frames": 3, "--boxes": 12},
    "train": {"--seed": 2**70, "--epochs": 20},
    "detect": {"--frame-id": 2**70},
    "overlay": {"--frame-id": 2**70, "--grid": 200},
}


def _flag_value(flag, cap):
    large = st.integers(1, cap) if isinstance(cap, int) else st.floats(0, cap)
    value = st.one_of(
        st.just("0"),
        st.one_of(st.integers(-(2**70), -1), st.floats(max_value=-1e-300)).map(str),
        st.one_of(st.sampled_from(["", "abc", "1.5x", "0x10", "1e", "--"]), st.text(max_size=4)),
        st.sampled_from(["nan", "inf", "-inf"]),
        large.map(str),
    )
    if flag == "--grid":
        return st.tuples(value, value).map("x".join)
    return value


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    flags = _NUMERIC_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    return command, [part for flag in chosen for part in (flag, draw(_flag_value(flag, flags[flag])))]


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_generated_argv_never_exits_with_an_internal_error(case):
    command, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        required = ["--out", out] if command == "synth" else []
        if command == "detect":
            save_maps(os.path.join(tmp, "maps.aero"), encode([BBox(8, 6, 30, 28)], (80, 48)))
            required = ["--maps", os.path.join(tmp, "maps.aero"), "--out", out]
        elif command == "overlay":
            _write_gt(os.path.join(tmp, "gt.txt"), [BBox(4, 4, 20, 20)])
            required = ["--ann", os.path.join(tmp, "gt.txt"), "--out", out]
            if "--grid" not in flags:
                required += ["--grid", "64x48"]
        assert main([command, *required, *flags]) in (0, 1, 2)


_README = Path(__file__).parent.parent / "README.md"


def _readme_commands():
    """Each `aeropipe ...` line of README.md's command-line block, without
    its comment and a trailing `&`."""
    text = _README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```bash\n(.*?)```", text, re.S).group(1)
    lines = [line.split("#")[0].strip().removesuffix("&").split() for line in block.splitlines()]
    return [line[1:] for line in lines if line[:1] == ["aeropipe"]]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_config_keys_exist():
    """The config text of README.md's command-line section names exactly
    the keys `config_keys()` accepts, and lists exactly `PipelineConfig`'s
    sections."""
    text = _README.read_text(encoding="utf-8")
    section = re.search(r"## Command line\n(.*?)\n## ", text, re.S).group(1)
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = re.findall(r"`([a-z_]+\.[a-z_]+)(?:\s*=[^`]*)?`", prose)
    keys = [key for key in named if not key.startswith("section.")]
    assert set(keys) == set(pipeline.config_keys())
    listed = re.search(r"`PipelineConfig`, whose \w+ sections are (.*?);", prose, re.S).group(1)
    sections = [f.name for f in dataclasses.fields(pipeline.PipelineConfig)]
    assert re.findall(r"`(\w+)`", listed) == sections


# Manifest and annotation text for the input-boundary property: lines that
# are mostly well formed on a 64x48 grid, with boxes that may run off it,
# and some with one field replaced by a bad value or cut short.
_BAD_FIELDS = st.sampled_from(
    ["-1", "-7", str(2**32 - 1), str(2**32), str(2**70), "1e400", "nan", "inf", "1.5", "abc", "", "0x10"]
)


def _damaged(draw, fields, clean):
    fields = [str(f) for f in fields]
    if clean:
        return " ".join(fields)
    if draw(st.integers(0, 7)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(_BAD_FIELDS)
    if draw(st.integers(0, 15)) == 0:
        fields = fields[: draw(st.integers(0, len(fields) - 1))]
    return " ".join(fields)


@st.composite
def _annotation_text(draw):
    lines, clean = [], draw(st.booleans())
    for _ in range(draw(st.integers(0, 6))):
        x0, y0 = draw(st.integers(0, 58)), draw(st.integers(0, 42))
        fields = [
            draw(st.integers(0, 3)),
            x0,
            y0,
            x0 + draw(st.integers(2, 8)),
            y0 + draw(st.integers(2, 8)),
            *draw(st.lists(st.integers(-1, 4), min_size=3, max_size=3)),
        ]
        if draw(st.booleans()):
            fields.append(draw(st.floats(-0.5, 1.5)))
        lines.append(_damaged(draw, fields, clean))
    return "".join(line + "\n" for line in lines)


@st.composite
def _manifest_text(draw):
    """Frame ids mostly increase; annotation and map names may be missing
    files, and `m1.aero` is a 40x36 grid that some boxes fall outside."""
    clean = draw(st.booleans())
    lines = [_damaged(draw, ["seed", draw(st.integers(0, 99))], clean), _damaged(draw, ["grid", 64, 48], clean)]
    fid = draw(st.integers(0, 1))
    for _ in range(draw(st.integers(1, 4))):
        ann = draw(st.sampled_from(["a0.txt", "a1.txt"] * 4 + ["missing.txt"]))
        maps = draw(st.sampled_from(["m0.aero"] * 6 + ["m1.aero", "bad.aero", "missing.aero"]))
        lines.append(_damaged(draw, ["frame", fid, ann, maps], clean))
        fid += draw(st.sampled_from([1, 1, 1, 0, 2]))
    return "".join(line + "\n" for line in lines)


@settings(max_examples=200, deadline=None)
@given(
    manifest=_manifest_text(),
    annotations=st.tuples(_annotation_text(), _annotation_text()),
    frame_id=st.integers(0, 4),
)
def test_generated_manifests_and_annotations_never_exit_with_an_internal_error(manifest, annotations, frame_id):
    with tempfile.TemporaryDirectory() as tmp:
        def path(name):
            return os.path.join(tmp, name)

        save_maps(path("m0.aero"), encode([BBox(8, 6, 30, 28)], (64, 48)))
        save_maps(path("m1.aero"), encode([BBox(4, 4, 20, 20)], (40, 36)))
        with open(path("bad.aero"), "wb") as fh:
            fh.write(b"AERO\x01\x00\x03garbage")
        with open(path("manifest.txt"), "w") as fh:
            fh.write(manifest)
        for name, text in zip(("a0.txt", "a1.txt"), annotations):
            with open(path(name), "w") as fh:
                fh.write(text)
        runs = [
            ["pipeline", "--manifest", path("manifest.txt"), "--out", path("run")],
            ["eval", "--pred", path("a0.txt"), "--gt", path("a1.txt")],
            ["encode", "--ann", path("a0.txt"), "--grid", "64x48", "--out", path("maps")],
            ["encode", "--ann", path("a1.txt"), "--grid", "64x48", "--out", path("one.aero")],
            ["overlay", "--ann", path("a0.txt"), "--grid", "64x48", "--frame-id", str(frame_id), "--out", path("f.ppm")],
        ]
        for argv in runs:
            assert main(argv) in (0, 1, 2), argv
