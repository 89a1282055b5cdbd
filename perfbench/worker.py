"""One pass of the benchmark, in a fresh interpreter.

``run.py`` starts this script once per pass and hands it a JSON spec naming
the workload, the pass's run config, the output directory and whether to
trace. A pass is one complete planner run over one task file, driven through
the entry points a user calls: ``harness.run`` (the path ``council run``
takes) or, for the stub-backed council, ``harness.run_tasks``. Per-task time
comes from one timer around the harness's call into ``mcts.search``.
Set-up time runs from before the planner is imported to the first task
start. With tracing on, each layer's public functions are wrapped at the
names their callers look up, and the spans are written after the run.

The report goes to the JSON file the spec names.
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()  # before the planner is imported: set-up time starts here

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

import council.experts as experts  # noqa: E402
import council.harness as harness  # noqa: E402
import council.mcts as mcts  # noqa: E402
import council.values as values  # noqa: E402
from council.config import load_config  # noqa: E402
from council.embedding import TrigramEmbedder  # noqa: E402
from council.envs import build_environment  # noqa: E402
from council.envs.base import Environment  # noqa: E402
from council.envs.synth import SynthEnv  # noqa: E402
from council.errors import ExpertUnavailableError  # noqa: E402
from council.experts import Council, LLMExpert  # noqa: E402
from council.gateway import StubBackend  # noqa: E402
from council.memory import ExpertProfile  # noqa: E402

from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.stub import StubReplies  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    STUB_FAILURE_PER_MILLE,
    STUB_LATENCY_S,
    SYNTH,
    WORKLOADS,
    Workload,
    expert_id,
)


class TaskError(Exception):
    def __init__(self, index: int):
        super().__init__(f"task {index} raised")
        self.index = index


def timed_search(search, times: list, recorder: SpanRecorder | None):
    """``search`` timed per call; with a recorder, each call is a task's root span."""

    def call(*args, **kwargs):
        index = len(times)
        start = perf_counter()
        if recorder is not None:
            recorder.task = index
            span = recorder.open("mcts.search")
        try:
            return search(*args, **kwargs)
        except Exception as exc:
            raise TaskError(index) from exc
        finally:
            if recorder is not None:
                recorder.close(span)
                recorder.task = None
            times.append((start, perf_counter()))

    return call


@contextmanager
def patched(replacements):
    """Set each ``(owner, attribute, value)`` and restore the originals after."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


def tracing(rec: SpanRecorder):
    """Wrappers for every layer boundary, at the names the caller looks up."""

    def scanning(name, fn):
        def scan(profile, query):
            rec.count("memory.segments_scanned", len(profile))
            return fn(profile, query)

        return rec.wrap(name, scan)

    def insert(profile, prefix):
        before = len(profile)
        segment = original_insert(profile, prefix)
        rec.count("memory.insert.new", len(profile) > before)
        return segment

    def prune(profile):
        evicted = original_prune(profile)
        rec.count("memory.evictions", len(evicted))
        return evicted

    def replay(env, task, actions):
        rec.count("envs.actions_replayed", len(actions))
        return original_replay(env, task, actions)

    def apply(env, task, state, action):
        rec.count("envs.apply.calls")
        return original_apply(env, task, state, action)

    def propose_actions(expert, prefix, exemplar, k):
        proposals = original_propose(expert, prefix, exemplar, k)
        rec.count("experts.proposals", len(proposals))
        rec.count("experts.proposals_requested", k)
        return proposals

    last_plausibility_raised = [False]

    def plausibility(expert, prefix):
        last_plausibility_raised[0] = True
        score = original_plausibility(expert, prefix)
        last_plausibility_raised[0] = False
        return score

    def evaluate_plausibility(expert, prefix):
        last_plausibility_raised[0] = False
        score = original_evaluate(expert, prefix)
        rec.count("experts.eval_fallbacks", last_plausibility_raised[0])
        return score

    def complete(backend, request, *args, **kwargs):
        sent = backend.usage.requests
        try:
            return original_complete(backend, request, *args, **kwargs)
        except ExpertUnavailableError:
            rec.count("gateway.unavailable")
            raise
        finally:
            rec.count("gateway.retries", backend.usage.requests - sent - 1)

    original_insert = ExpertProfile.insert
    original_prune = ExpertProfile.prune
    original_replay = Environment.replay
    original_apply = SynthEnv.apply
    original_propose = mcts.propose_actions
    original_plausibility = LLMExpert.plausibility
    original_evaluate = values.evaluate_plausibility
    original_complete = experts.complete
    return [
        (harness, "load_memory", rec.wrap("harness.load_memory", harness.load_memory)),
        (harness, "write_run_files", rec.wrap("harness.write_run_files", harness.write_run_files)),
        (mcts, "route", rec.wrap("routing.route", mcts.route)),
        (mcts, "propose_actions", rec.wrap("experts.propose_actions", propose_actions)),
        (mcts, "llm_value", rec.wrap("values.llm_value", mcts.llm_value)),
        (mcts, "sms_value", rec.wrap("values.sms_value", mcts.sms_value)),
        (mcts, "fuse_batch", rec.wrap("values.fuse_batch", mcts.fuse_batch)),
        (mcts, "finalize_episode", rec.wrap("memory.finalize_episode", mcts.finalize_episode)),
        (values, "evaluate_plausibility",
         rec.wrap("experts.evaluate_plausibility", evaluate_plausibility)),
        (LLMExpert, "plausibility", plausibility),
        (experts, "complete", rec.wrap("gateway.complete", complete)),
        (ExpertProfile, "best_match", scanning("memory.best_match", ExpertProfile.best_match)),
        (ExpertProfile, "match_scores",
         scanning("memory.match_scores", ExpertProfile.match_scores)),
        (ExpertProfile, "insert", rec.wrap("memory.insert", insert)),
        (ExpertProfile, "prune", rec.wrap("memory.prune", prune)),
        (TrigramEmbedder, "embed", rec.wrap("embedding.embed", TrigramEmbedder.embed)),
        (Environment, "replay", rec.wrap("envs.replay", replay)),
        (SynthEnv, "apply", apply),
    ]


def run_pass(workload: Workload, config_path: str, out_dir: Path):
    """One run over one task file, through the same entry points a user calls.

    Returns the stub reply functions (empty for the scripted councils) so
    their send counts can be reported.
    """
    config = load_config(config_path)
    config.out_dir = str(out_dir)
    if not workload.llm:
        harness.run(config)
        return {}

    replies = {
        family: StubReplies(family, STUB_LATENCY_S, STUB_FAILURE_PER_MILLE, SYNTH)
        for family in SYNTH.families
    }
    embedder = TrigramEmbedder(config.embedding_dim)
    profiles = harness.load_memory(
        config.memory.load_path,
        embedder=embedder,
        capacity=config.memory.capacity,
        cold_start=config.memory.cold_start,
    )
    council = Council(
        [
            LLMExpert(expert_id(family), backend=StubBackend(reply, backend_id=f"{family}-stub"))
            for family, reply in replies.items()
        ],
        profiles=profiles,
        embedder=embedder,
        capacity=config.memory.capacity,
        cold_start=config.memory.cold_start,
    )
    harness.run_tasks(
        harness.read_tasks(config.tasks_path),
        build_environment(config.env.name, config.env.params),
        config.planner,
        config.seed,
        council=council,
        warmup_tasks=config.warmup_tasks,
        out_dir=config.out_dir,
    )
    return replies


def main(spec_path: str) -> int:
    """Run the pass the spec names with the task timer (and tracing) in place."""
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]]
    out_dir = Path(spec["out"])
    times: list[tuple[float, float]] = []
    rec = SpanRecorder() if spec["traced"] else None
    replacements = [(harness, "search", timed_search(harness.search, times, rec))]
    if rec is not None:
        replacements += tracing(rec)
    report: dict = {"error": None}
    replies = {}
    try:
        with patched(replacements):
            replies = run_pass(workload, spec["config"], out_dir)
    except TaskError as exc:
        report["error"] = {"task": exc.index, "traceback": traceback.format_exc()}
    end = perf_counter()
    first = times[0][0] if times else end
    report.update(
        setup_s=first - T0,
        tasks=len(times),
        wall_s=end - first,
        task_s=[stop - start for start, stop in times],
        sends=sum(reply.sends for reply in replies.values()),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        council_file=harness.__file__,
    )
    if rec is not None:
        spans_path = out_dir / "spans.jsonl"
        rec.write(spans_path)
        report.update(spans=str(spans_path), counts=dict(rec.counts))
    Path(spec["result"]).write_text(json.dumps(report), encoding="utf-8")
    return 1 if report["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
