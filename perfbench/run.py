"""Frame-loop benchmark for aeropipe.

For one workload and seed it generates the inputs in a separate process,
runs the program over them in fresh processes, checks the outputs and
prints the metrics that BENCHMARK.json names. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload sparse_clean --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1
prints the per-layer metrics of a traced run, plus `trace.overhead_frac`
against an untraced run on the same inputs; each takes half of --seconds. Run it from
the root of a checkout; it reads the program from `src/` and writes only
under `.perfbench_work/`.

Times are reported at a fixed nominal machine speed: each frame's time is
scaled by a nominal time over the time the reference kernel in measure.py
took around that frame. On a shared host the same code ran 30-90 % slower
for seconds to minutes at a time; the reference kernel slows with it, so the
scaled times keep what the program does and drop most of what the host
does. The wall-clock values are printed beside them.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import analyse
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Extra fresh processes that only set up and warm up; with the measured
# process they give the samples whose median is `setup_s`.
SETUP_PROBES = 4
# The whole run must end within 180 s; leave room for start-up and output.
BUDGET_S = 170.0
# One frame in flight on one core: BLAS may not spread work over threads.
# glibc's adaptive mmap threshold leaves a fresh process in one of two
# states at random: frame-sized arrays reuse heap memory (~100 page faults
# per frame) or are mapped and unmapped every frame (~4000 faults, 20-30 %
# slower). Fixed thresholds keep every run in the first state.
RUN_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=268435456",
}
# A frame is scaled by the median reference time within this distance.
REF_WINDOW_NS = 500_000_000


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.deadline = time.monotonic() + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **RUN_ENV)

    def _child(self, script: str, *args: str) -> dict:
        """Run one perfbench script in a fresh interpreter; its last
        stdout line is JSON."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget used up")
        cmd = [sys.executable, str(HERE / script), "--workload", self.workload, *args]
        spawn_ns = time.monotonic_ns()
        if script == "measure.py":
            cmd += ["--spawn-ns", str(spawn_ns)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{script} did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{script} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}

    def generate(self, seed: int, out: Path) -> None:
        self._child("gen.py", "--seed", str(seed), "--out", str(out))

    def measure(self, inputs: Path, seconds: float, *extra: str) -> dict:
        return self._child("measure.py", "--inputs", str(inputs), "--seconds", str(seconds), *extra)


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Scaler:
    """Scales times to a nominal machine speed by one part of the
    [at_ns, numpy_ns, python_ns] reference samples."""

    def __init__(self, part: slice, nominal_ns: int) -> None:
        self.part = part
        self.nominal = nominal_ns

    def ref_ns(self, refs: list[list[int]]) -> float:
        return statistics.median(sum(r[self.part]) for r in refs)

    def factors(self, run: dict) -> dict[int, float]:
        """Per frame id, the nominal time over the median reference time
        taken within REF_WINDOW_NS of the frame's end."""
        refs = sorted(run["refs"])
        at = [r[0] for r in refs]
        factors = {}
        for i, end, _ in run["samples"]:
            near = refs[bisect.bisect_left(at, end - REF_WINDOW_NS) : bisect.bisect_right(at, end + REF_WINDOW_NS)]
            factors[i] = self.nominal / self.ref_ns(near or refs)
        return factors

    def frame_stats(self, run: dict, scaled: bool = True) -> dict[str, float]:
        factors = self.factors(run) if scaled else {}
        lat_ms = [elapsed * factors.get(i, 1.0) / 1e6 for i, _, elapsed in run["samples"]]
        # The loop time is scaled by the frames' time-weighted factor.
        wall_s = run["wall_ns"] / 1e9 * sum(lat_ms) / (sum(s[2] for s in run["samples"]) / 1e6)
        return {
            "frame_p50_ms": statistics.median(lat_ms),
            "frame_p90_ms": _percentile(lat_ms, 90),
            "fps": len(lat_ms) / wall_s,
        }

    def setup_s(self, run: dict) -> float:
        return run["setup_s"] * self.nominal / self.ref_ns(run["setup_refs"] or run["refs"])


# The nominal times are about the reference medians inside the loop on a
# 2-core x86-64 VM (Python 3.11, numpy 2.4, scipy 1.17). Frame loops and
# set-up (mostly imports) are scaled by the whole kernel; the receiver,
# which is pure Python, by the kernel's Python part, which tracks it best.
WHOLE_KERNEL = Scaler(slice(1, 3), 6_000_000)
SCALERS = {"frames": WHOLE_KERNEL, "rx": Scaler(slice(2, 3), 2_000_000)}


def _emit(label: str, payload) -> None:
    print(json.dumps({label: payload}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "aeropipe" / "__init__.py").is_file():
        print(f"perfbench: no aeropipe sources under {ROOT / 'src'}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    params = WORKLOADS[args.workload]
    kind = params["kind"]
    scaler = SCALERS[kind]
    runner = Runner(args.workload)
    work_root = ROOT / ".perfbench_work"
    inputs = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner.generate(args.seed, inputs)
        # A traced run splits its time between an untraced and a traced pass.
        seconds = args.seconds if args.trace == 0 else args.seconds / 2
        plain = runner.measure(inputs, seconds)
        runs = [plain]
        if args.trace == 0:
            setups = [plain] + [runner.measure(inputs, args.seconds, "--setup-only") for _ in range(SETUP_PROBES)]
            values = {
                **scaler.frame_stats(plain),
                "setup_s": statistics.median(WHOLE_KERNEL.setup_s(r) for r in setups),
                "peak_rss_mb": plain["peak_rss_mb"],
            }
            wall = {
                **scaler.frame_stats(plain, scaled=False),
                "setup_s": statistics.median(r["setup_s"] for r in setups),
            }
            names = [m["name"] for m in spec["end_to_end"]]
            problems: list[str] = []
        else:
            spans_path = work_root / f"{args.workload}.spans.json"
            traced = runner.measure(inputs, seconds, "--trace", str(spans_path))
            runs.append(traced)
            with open(spans_path, encoding="utf-8") as fh:
                recorded = json.load(fh)
            values, problems = analyse(recorded["spans"], recorded["counts"], kind, scaler.factors(traced))
            values["trace.overhead_frac"] = (
                scaler.frame_stats(traced)["frame_p50_ms"] / scaler.frame_stats(plain)["frame_p50_ms"] - 1.0
            )
            wall = scaler.frame_stats(traced, scaled=False)
            names = [m["name"] for m in spec["per_layer"]]
            problems += [f"{n}: not emitted" for n in names if n not in values]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    _emit("header", {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "environment": plain["environment"],
        "run_env": RUN_ENV,
        "pipeline_config": plain["pipeline_config"],
    })
    named = {**plain["named"], **{k: [v, units[k]] for k, v in scaler.frame_stats(plain).items()}}
    if kind == "rx":
        factors = scaler.factors(plain)
        scaled_s = sum(elapsed * factors[i] for i, _, elapsed in plain["samples"]) / 1e9
        named["rx_mb_s"] = [plain["rx_bytes"] / 1e6 / scaled_s, "MB/s"]
    _emit("named_metrics", {k: {"value": v, "unit": u} for k, (v, u) in named.items()})
    _emit("wall_clock", {
        **{k: {"value": v, "unit": units[k]} for k, v in wall.items()},
        "ref_ms": {"value": scaler.ref_ns(runs[-1]["refs"]) / 1e6, "unit": "ms"},
    })
    _emit("digest_sha256", plain["digest"])
    errors = [e for run in runs for e in run["errors"]]
    if errors or problems:
        _emit("problems", errors + problems[:20])
    print(json.dumps({
        "correct": not errors and not problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {n: {"value": values.get(n, 0.0), "unit": units[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
