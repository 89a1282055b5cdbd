"""Committed benchmark results: every BENCH_*.json is whole and complete.

Each file holds the last JSON line that ``perfbench/run.py`` printed for the
parent commit and for the change, as ``{"parent": side, "change": side}``
where a side lists ``runs`` (``--trace 0``) and optionally ``traced``
(``--trace 1``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_a_committed_bench_file_is_correct_and_complete(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        runs = bench[side]["runs"]
        assert runs, f"{path.name}: no {side} runs"
        for result in runs + bench[side].get("traced", []):
            assert result["correct"] is True, f"{path.name}: {side} run not correct"
        for result in runs:
            missing = [name for name in END_TO_END if name not in result["metrics"]]
            assert not missing, f"{path.name}: {side} run lacks {missing}"
