"""Every committed BENCH_*.json parses and records what a measurement needs
to be read and repeated: what was measured, the machine, the Python, numpy
and scipy versions, both commits, the source size, the command and the
pipeline config."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED_KEYS = {
    "name",
    "what",
    "machine",
    "python",
    "numpy",
    "scipy",
    "parent_commit",
    "change_commit",
    "src_lines",
    "command",
    "pipeline_config",
}


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_parses_with_the_required_keys(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    assert not REQUIRED_KEYS - record.keys(), f"{path.name} lacks {sorted(REQUIRED_KEYS - record.keys())}"
