"""The metrics the benchmark reports, computed from the worker results.

``END_TO_END`` and ``PER_LAYER`` name every metric with its unit; their
names are the ones ``BENCHMARK.json`` lists. Standard library only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from perfbench.spans import Span, beyond, percentile, self_times

TAIL_PERCENTILE = 90

END_TO_END = {
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("mcts", "routing", "memory", "values", "experts", "gateway", "envs", "embedding")

# Per-task span totals: (metric, span name, what is taken from the span).
_SPAN_METRICS = [
    ("memory.best_match.calls_per_task", "memory.best_match", "calls"),
    ("memory.best_match.self_ms_per_task", "memory.best_match", "self"),
    ("memory.match_scores.self_ms_per_task", "memory.match_scores", "self"),
    ("memory.prune.self_ms_per_task", "memory.prune", "self"),
    ("memory.finalize_episode.self_ms_per_task", "memory.finalize_episode", "self"),
    ("memory.insert.calls_per_task", "memory.insert", "calls"),
    ("embedding.embed.calls_per_task", "embedding.embed", "calls"),
    ("embedding.embed.self_ms_per_task", "embedding.embed", "self"),
    ("envs.replay.calls_per_task", "envs.replay", "calls"),
    ("envs.replay.self_ms_per_task", "envs.replay", "self"),
    ("routing.route.calls_per_task", "routing.route", "calls"),
    ("routing.route.self_ms_per_task", "routing.route", "self"),
    ("values.llm_value.self_ms_per_task", "values.llm_value", "self"),
    ("values.sms_value.self_ms_per_task", "values.sms_value", "self"),
    ("values.fuse_batch.self_ms_per_task", "values.fuse_batch", "self"),
    ("mcts.search.self_ms_per_task", "mcts.search", "self"),
    ("gateway.complete.calls_per_task", "gateway.complete", "calls"),
    ("gateway.complete.wait_ms_per_task", "gateway.complete", "total"),
    ("experts.propose_actions.self_ms_per_task", "experts.propose_actions", "self"),
    ("experts.evaluate_plausibility.calls_per_task", "experts.evaluate_plausibility", "calls"),
]

# Per-task counter totals kept by the tracing wrappers.
_COUNT_METRICS = [
    ("memory.segments_scanned_per_task", "memory.segments_scanned"),
    ("memory.evictions_per_task", "memory.evictions"),
    ("envs.actions_replayed_per_task", "envs.actions_replayed"),
    ("envs.apply.calls_per_task", "envs.apply.calls"),
    ("gateway.retries_per_task", "gateway.retries"),
    ("gateway.unavailable_per_task", "gateway.unavailable"),
    ("experts.eval_fallbacks_per_task", "experts.eval_fallbacks"),
]


def _unit(metric: str) -> str:
    if metric.endswith("ms_per_task"):
        return "ms/task"
    return "count/task"


PER_LAYER = {
    **{name: _unit(name) for name, _, _ in _SPAN_METRICS},
    **{name: "count/task" for name, _ in _COUNT_METRICS},
    "memory.insert.new_ratio": "ratio",
    "embedding.embed.calls_per_route": "count/call",
    "experts.proposals_per_call": "ratio",
    "mcts.nodes_per_task": "count/task",
    "mcts.iterations_per_task": "count/task",
    "gateway.sends_per_task": "count/task",
    "harness.load_memory.s": "s",
    "harness.write_run_files.ms": "ms",
    "harness.solve_rate": "ratio",
    "trace.task_ms_per_task": "ms/task",
    "trace.overhead": "ratio",
    **{f"layers.{layer}.self_share": "ratio" for layer in LAYERS},
}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> dict:
    """Throughput and latency of untraced passes, each in its own process.

    Set-up time and peak memory are medians over the passes, every one of
    which imported and built the planner afresh.
    """
    durations = [t for p in passes for t in p["task_s"]]
    if beyond(len(durations), TAIL_PERCENTILE) < 10:
        raise ValueError(
            f"{len(durations)} tasks leave fewer than ten beyond p{TAIL_PERCENTILE}"
        )
    values = {
        "tasks_per_s": len(durations) / sum(p["wall_s"] for p in passes),
        "task_ms_p50": 1000.0 * percentile(durations, 50),
        "task_ms_p90": 1000.0 * percentile(durations, TAIL_PERCENTILE),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def read_spans(path: str) -> list[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle]


def _within(spans: list[Span], index: int, ancestor: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def per_layer(pairs: list[tuple[dict, dict]], summaries: list[dict]) -> tuple[dict, float]:
    """Per-layer metrics from (untraced, traced) pass pairs.

    Returns the metrics and the largest gap, in seconds, between a task's
    traced wall time and the sum of the self times of its spans.
    """
    tasks = 0
    task_s = 0.0
    # Per span name: calls, inclusive seconds, self seconds.
    totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    shares: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    embeds_in_route = 0
    loads, writes, gap = [], [], 0.0
    for _plain, traced in pairs:
        spans = read_spans(traced["spans"])
        own = self_times(spans)
        self_by_task: dict[int, float] = defaultdict(float)
        for i, (span, self_s) in enumerate(zip(spans, own)):
            if span.task is None:
                if span.name == "harness.load_memory":
                    loads.append(span.end - span.start)
                elif span.name == "harness.write_run_files":
                    writes.append(span.end - span.start)
                continue
            self_by_task[span.task] += self_s
            shares[span.name.split(".", 1)[0]] += self_s
            entry = totals[span.name]
            entry[0] += 1
            entry[1] += span.end - span.start
            entry[2] += self_s
            if span.name == "embedding.embed" and _within(spans, i, "routing.route"):
                embeds_in_route += 1
        roots = [s for s in spans if s.name == "mcts.search"]
        for root in roots:
            gap = max(gap, abs(self_by_task[root.task] - (root.end - root.start)))
        tasks += len(roots)
        task_s += sum(s.end - s.start for s in roots)
        for name, value in traced["counts"].items():
            counts[name] += value
        counts["gateway.sends"] += traced["sends"]

    def per_task(value: float) -> float:
        return value / tasks

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values: dict[str, float] = {}
    field = {"calls": 0, "total": 1, "self": 2}
    for name, span, taken in _SPAN_METRICS:
        scale = 1.0 if taken == "calls" else 1000.0
        values[name] = per_task(scale * totals[span][field[taken]])
    for name, counter in _COUNT_METRICS:
        values[name] = per_task(counts[counter])
    values["memory.insert.new_ratio"] = ratio(
        counts["memory.insert.new"], totals["memory.insert"][0]
    )
    values["embedding.embed.calls_per_route"] = ratio(embeds_in_route, totals["routing.route"][0])
    values["experts.proposals_per_call"] = ratio(
        counts["experts.proposals"], counts["experts.proposals_requested"]
    )
    rows = [row for summary in summaries for row in summary["rows"]]
    values["mcts.nodes_per_task"] = per_task(sum(r["nodes_expanded"] for r in rows))
    values["mcts.iterations_per_task"] = per_task(sum(r["iterations_used"] for r in rows))
    values["gateway.sends_per_task"] = per_task(counts["gateway.sends"])
    values["harness.load_memory.s"] = statistics.median(loads) if loads else 0.0
    values["harness.write_run_files.ms"] = 1000.0 * statistics.median(writes)
    values["harness.solve_rate"] = solve_rate(summaries)
    values["trace.task_ms_per_task"] = per_task(1000.0 * task_s)
    values["trace.overhead"] = (
        sum(t["wall_s"] for _, t in pairs) / sum(p["wall_s"] for p, _ in pairs) - 1.0
    )
    for layer in LAYERS:
        values[f"layers.{layer}.self_share"] = shares[layer] / task_s
    return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}, gap


def solve_rate(summaries: list[dict]) -> float:
    """Scored successes over scored tasks, pooled over passes."""
    scored = sum(s["summary"]["scored_tasks"] for s in summaries)
    return sum(s["summary"]["scored_successes"] for s in summaries) / scored
