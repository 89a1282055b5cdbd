"""Tests of the benchmark's own code: spans, self time, percentiles, stub.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import metrics
from perfbench.spans import (
    Span,
    SpanRecorder,
    beyond,
    covered,
    percentile,
    samples_needed,
    self_times,
)

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_children_at_every_level():
    spans = [
        Span("mcts.search", 0.0, 10.0, None, 0),
        Span("routing.route", 1.0, 4.0, 0, 0),
        Span("memory.best_match", 2.0, 3.5, 1, 0),
        Span("envs.replay", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_covered_takes_the_union_of_overlapping_children_inside_the_parent():
    assert covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_recorder_nests_spans_and_tags_them_with_the_task():
    rec = SpanRecorder()
    inner = rec.wrap("memory.best_match", lambda: rec.count("scanned", 3))
    outer = rec.wrap("routing.route", lambda: [inner(), inner()])
    rec.count("outside")  # not inside a task: ignored
    rec.task = 7
    root = rec.open("mcts.search")
    outer()
    rec.close(root)
    rec.task = None

    assert [(s.name, s.parent, s.task) for s in rec.spans] == [
        ("mcts.search", None, 7),
        ("routing.route", 0, 7),
        ("memory.best_match", 1, 7),
        ("memory.best_match", 1, 7),
    ]
    assert dict(rec.counts) == {"scanned": 6}
    own = self_times(rec.spans)
    assert sum(own) == pytest.approx(rec.spans[0].end - rec.spans[0].start)
    assert all(0.0 <= t <= s.end - s.start for t, s in zip(own, rec.spans))


def test_recorder_refuses_spans_closed_out_of_order():
    rec = SpanRecorder()
    outer = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 90) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0], 90) == 10.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert samples_needed(90) == 100
    assert samples_needed(50) == 20
    assert samples_needed(99) == 1000


def _passes(count: int, per_pass: int) -> list[dict]:
    return [
        {
            "task_s": [0.001 * (i + 1) for i in range(per_pass)],
            "wall_s": 0.1,
            "setup_s": 0.5 + 0.1 * p,
            "peak_rss_kb": 1024 * (p + 1),
        }
        for p in range(count)
    ]


def test_end_to_end_refuses_a_run_too_short_for_p90():
    with pytest.raises(ValueError):
        metrics.end_to_end(_passes(1, 99))
    values = metrics.end_to_end(_passes(3, 34))
    assert values["task_ms_p90"]["value"] == pytest.approx(31.0)
    assert values["setup_s"]["value"] == pytest.approx(0.6)
    assert values["peak_rss_mb"]["value"] == pytest.approx(2.0)
    assert values["tasks_per_s"]["value"] == pytest.approx(340.0)


def test_benchmark_file_lists_exactly_the_metrics_and_workloads_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    workloads = pytest.importorskip("perfbench.workloads")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    why = {w["name"]: w["why"] for w in spec["workloads"]}["llm-stub"]
    assert f"{workloads.STUB_LATENCY_S * 1000:g} ms" in why
    assert f"{workloads.STUB_FAILURE_PER_MILLE} in 1000" in why


def test_stub_answers_as_a_specialist_of_its_own_family_only():
    pytest.importorskip("council")
    from council.envs import SynthEnv, make_synth_tasks
    from council.errors import ProviderError
    from council.gateway import StubBackend, complete, compose_prompt, request_for
    from council.trajectory import Trajectory

    from perfbench.stub import StubReplies
    from perfbench.workloads import SYNTH

    env = SynthEnv(SYNTH)
    amber, basalt = make_synth_tasks(2, seed=3, config=SYNTH)
    replies = StubReplies("amber", latency_s=0.0, failure_per_mille=0)
    backend = StubBackend(replies)

    def ask(task, mode):
        prefix = Trajectory(pending=env.initial(task)[1])
        bundle = compose_prompt(prefix.pending.text, prefix, None, mode)
        return complete(backend, request_for(bundle, 0.7), sleep=lambda _: None)

    proposals = [ask(amber, "act") for _ in range(20)]
    assert env.hidden(amber)[0] in proposals
    assert all(p.startswith("amber") for p in proposals)
    assert ask(amber, "evaluate") == "0"
    assert ask(basalt, "evaluate") == "5"
    assert all(ask(basalt, "act").startswith("amber") for _ in range(5))
    assert replies.sends == 27 and replies.failures == 0

    failing = StubReplies("amber", latency_s=0.0, failure_per_mille=1000)
    with pytest.raises(ProviderError):
        failing(request_for(compose_prompt("x", Trajectory(), None, "act"), 0.7))
    assert failing.failures == 1
