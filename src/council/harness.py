"""Experiment harness: task files, deterministic runs, ablation sweeps.

A run maps a task file through the planner and writes two artifacts into the
output directory: ``metrics.jsonl`` (one row per task, then one summary line)
and ``trace.jsonl`` (per-iteration search events). Each task's trace lines
are written as the task finishes, in task order, to a temp file that is
renamed into place after the last task, so a run holds the trace of no task
it has finished with. All output is generated with sorted keys and no timestamps,
so a rerun with the same seed produces byte-identical files.
"""

from __future__ import annotations

import copy
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, suppress
from dataclasses import asdict, dataclass
from itertools import takewhile
from pathlib import Path
from random import Random
from typing import Callable, Collection, Iterable

from .config import (
    ROUTING_STRATEGIES,
    VALUE_MODES,
    EnvSpec,
    LLMParams,
    PlannerConfig,
    RunConfig,
    SynthSpecialistParams,
    council_params,
)
from .embedding import TrigramEmbedder
from .envs import build_environment
from .envs.base import Environment, TaskSpec
from .envs.synth import SynthConfig
from .errors import ConfigKeyError
from .experts import Council, Expert, Game24OracleExpert, LLMExpert, SynthSpecialistExpert
from .gateway import HTTPBackend
from .mcts import search
from .memory import DEFAULT_CAPACITY, DEFAULT_COLD_START
from .memory import profile_records, read_segments, restore_profiles
from .seeding import derived_seed

METRICS_FILENAME = "metrics.jsonl"
TRACE_FILENAME = "trace.jsonl"


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_json(obj) -> str:
    """Canonical one-line JSON: sorted keys, compact, strict floats."""
    return _ENCODER.encode(obj)


def check_destination(path: str | Path) -> Path:
    """Check that a file can be written at ``path``, before any work whose
    result goes there: ``path`` must not be a directory, and the nearest of
    its parents that exists must be a writable directory. Nothing is made:
    the missing parents are made when the file is written (see
    :class:`LineWriter`). A failure raises ValueError naming ``path`` and
    what is wrong with it. Returns ``path`` as a Path."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"cannot write '{path}': it is a directory")
    parent = next(parent for parent in path.parents if parent.exists())
    if not parent.is_dir():
        raise ValueError(f"cannot write '{path}': '{parent}' is not a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write '{path}': '{parent}' is not writable")
    return path


class LineWriter:
    """One file of canonical JSON lines, written atomically.

    Opening checks ``path`` with :func:`check_destination`, makes its
    missing parents and opens a temp file beside it. :meth:`commit` moves
    the temp file onto ``path`` once every line is written. Leaving the
    ``with`` block without a commit, by an error or otherwise, deletes the
    temp file and the parents that opening made, so a failed or interrupted
    write leaves the file system, and any earlier file at ``path``, as it
    was.
    """

    def __init__(self, path: str | Path):
        self.path = check_destination(path)
        self.count = 0
        self._tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        self._made = list(takewhile(lambda parent: not parent.exists(), self.path.parents))
        self._handle = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self._tmp, "w", encoding="utf-8")
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> LineWriter:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def write(self, row) -> None:
        self._handle.write(dump_json(row) + "\n")
        self.count += 1

    def flush(self) -> None:
        """Hand the lines written so far to the temp file."""
        self._handle.flush()

    def commit(self) -> Path:
        """Move the finished file onto ``path``; returns ``path``."""
        self._handle.close()
        os.replace(self._tmp, self.path)
        self._made.clear()
        return self.path

    def close(self) -> None:
        """Drop an uncommitted file and the parents opening made; after a
        commit, nothing is left to drop."""
        if self._handle is not None:
            self._handle.close()
        self._tmp.unlink(missing_ok=True)
        for directory in self._made:
            with suppress(OSError):
                directory.rmdir()
        self._made.clear()


def write_jsonl(path: str | Path, rows: Iterable) -> int:
    """Write one canonical JSON line per row through a :class:`LineWriter`,
    so atomically; returns the line count.

    A ``path`` that :func:`check_destination` refuses is refused before any
    row is read. ``rows`` is consumed as it is written, so a generator's
    rows need never all be held at once.
    """
    with LineWriter(path) as out:
        for row in rows:
            out.write(row)
        out.commit()
    return out.count


def _read_jsonl(path: str | Path, kind: str, consume: Callable[[Iterable], object]):
    """Stream the values of a JSON-lines file, blank lines skipped, into
    ``consume`` and return its result. A ValueError, from bad UTF-8 or JSON
    or from ``consume``'s checks, is reported as ``{kind} file {path}: line N``."""
    lineno = 0

    def values():
        nonlocal lineno
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                if line.strip():
                    try:
                        yield json.loads(line.decode("utf-8"))
                    except json.JSONDecodeError:
                        raise ValueError("not valid JSON") from None

    try:
        return consume(values())
    except ValueError as exc:
        raise ValueError(f"{kind} file {path}: line {lineno}: {exc}") from None


# ---------------------------------------------------------------------------
# Task files
# ---------------------------------------------------------------------------


def _task(data) -> TaskSpec:
    if not isinstance(data, dict):
        raise ValueError("expected an object")
    keys = ("task_id", "environment", "payload")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key '{key}'")
    unknown = data.keys() - set(keys)
    if unknown:
        raise ValueError(f"unknown key '{min(unknown)}'")
    task_id, environment = data["task_id"], data["environment"]
    if not isinstance(task_id, str) or task_id == "":
        raise ValueError("key 'task_id': expected a non-empty string")
    if not isinstance(environment, str):
        raise ValueError("key 'environment': expected a string")
    return TaskSpec(task_id=task_id, environment=environment, payload=data["payload"])


def read_tasks(path: str | Path) -> list[TaskSpec]:
    """Load a JSONL task file; a bad line is reported by its line number."""
    return _read_jsonl(path, "tasks", lambda values: [_task(data) for data in values])


def write_tasks(path: str | Path, tasks: list[TaskSpec]) -> None:
    write_jsonl(path, map(asdict, tasks))


# ---------------------------------------------------------------------------
# Memory persistence
# ---------------------------------------------------------------------------

def save_memory(path: str | Path, profiles: dict) -> int:
    """Write every stored segment as one JSON line; returns the line count."""
    return write_jsonl(
        path, profile_records({eid: profile.segments() for eid, profile in profiles.items()})
    )


def read_memory(path: str | Path) -> dict:
    """Each expert's segments in a memory file, checked but not embedded; a
    bad line is reported by number and key."""
    return _read_jsonl(path, "memory", read_segments)


def load_memory(
    path: str | Path,
    embedder: TrigramEmbedder | None = None,
    capacity: int = DEFAULT_CAPACITY,
    cold_start: float = DEFAULT_COLD_START,
    expert_ids: Collection[str] | None = None,
) -> dict:
    """Rebuild profiles from a memory file; a bad line, or given
    ``expert_ids`` a line of any other expert, is reported by number and
    key before any segment is embedded."""
    return _read_jsonl(
        path,
        "memory",
        lambda records: restore_profiles(records, embedder, capacity, cold_start, expert_ids),
    )


# ---------------------------------------------------------------------------
# Council construction
# ---------------------------------------------------------------------------


def build_expert(expert_id: str, params, env: EnvSpec, run_seed: int) -> Expert:
    """The expert of one council entry, from its checked params (see
    :func:`~council.config.council_params`), by their type.

    Scripted experts are seeded from (run seed, expert id) so a council is
    reproducible as a unit. An llm-backed expert gets a backend of its own,
    named by its expert id, under which ``summary.backend_usage`` reports
    it. Its credential stays in the environment variable named by
    ``credential_env``; only the variable's name is ever stored or logged.
    """
    if isinstance(params, LLMParams):
        backend = HTTPBackend(
            backend_id=expert_id,
            endpoint=params.endpoint,
            model=params.model,
            credential_env=params.credential_env,
            concurrency=params.concurrency,
        )
        return LLMExpert(
            expert_id,
            backend=backend,
            act_temperature=params.act_temperature,
            eval_temperature=params.eval_temperature,
            max_tokens=params.max_tokens,
            timeout=params.timeout,
        )
    if isinstance(params, SynthSpecialistParams):
        return SynthSpecialistExpert(
            expert_id,
            family=params.family,
            config=SynthConfig.from_params(env.params),
            seed=derived_seed(run_seed, "expert", expert_id),
            eval_noise=params.eval_noise,
        )
    return Game24OracleExpert(expert_id)


def build_experts(config: RunConfig) -> list[Expert]:
    """The experts a config's council names, once the config has passed
    every check of :func:`~council.config.council_params`; an empty council
    raises ConfigKeyError."""
    params = council_params(config)
    if not params:
        raise ConfigKeyError("council", "at least one expert is required")
    return [
        build_expert(spec.expert_id, checked, config.env, config.seed)
        for spec, checked in zip(config.council, params)
    ]


def _backend_usage(council: Council) -> dict:
    usage: dict[str, dict] = {}
    for expert in council.experts:
        backend = getattr(expert, "backend", None)
        if backend is not None:
            usage[backend.backend_id] = {
                "requests": backend.usage.requests,
                "input_chars": backend.usage.input_chars,
                "output_chars": backend.usage.output_chars,
            }
    return usage


# ---------------------------------------------------------------------------
# Core run loop
# ---------------------------------------------------------------------------


@dataclass
class RunOutput:
    rows: list[dict]
    summary: dict
    out_dir: Path | None = None


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def summarize(rows: list[dict], warmup_tasks: int, backend_usage: dict | None = None) -> dict:
    """Aggregate metric rows. Scored aggregates exclude the warm-up block so
    comparisons across runs are not diluted by the cold-memory phase."""
    scored = [row for row in rows if not row["warmup"]]
    successes = [row for row in rows if row["success"]]
    scored_successes = [row for row in scored if row["success"]]
    return {
        "tasks": len(rows),
        "warmup_tasks": warmup_tasks,
        "successes": len(successes),
        "success_rate": (len(successes) / len(rows)) if rows else None,
        "scored_tasks": len(scored),
        "scored_successes": len(scored_successes),
        "scored_success_rate": (len(scored_successes) / len(scored)) if scored else None,
        "mean_reward": _mean([row["reward"] for row in rows]),
        "mean_iterations": _mean([row["iterations_used"] for row in rows]),
        "mean_nodes_expanded": _mean([row["nodes_expanded"] for row in rows]),
        "mean_success_depth": _mean([row["depth"] for row in successes]),
        "nodes_per_success": _mean([row["nodes_expanded"] for row in scored_successes]),
        "backend_usage": backend_usage or {},
    }


def run_tasks(
    tasks: list[TaskSpec],
    env: Environment,
    planner: PlannerConfig,
    seed: int,
    council: Council,
    warmup_tasks: int = 0,
    out_dir: str | Path | None = None,
    workers: int = 1,
    shared: bool = True,
) -> RunOutput:
    """Run the planner over a task list and aggregate the results.

    With ``shared`` memory each task's episode is folded into the council's
    profiles before the next task starts, so tasks run one after another.
    Unshared, every task reads the council's memory as it was at the start
    and none writes to it, which is what makes ``workers > 1`` sound: the
    worker threads share the one council, whose profiles lock their scans.

    Results are taken in task order, from the pool's in-order iterator under
    ``workers > 1``. Given ``out_dir``, each task's trace lines go to the
    trace's temp file as soon as the task's result is taken, and
    :func:`write_run_files` writes the metrics and renames the trace into
    place after the last task; a task that raises leaves neither file. With
    no ``out_dir``, no trace is recorded.
    """
    if shared and workers > 1:
        raise ValueError("shared memory cannot run with workers > 1")

    def run_one(pair: tuple[int, TaskSpec]) -> tuple[dict, list[dict] | None]:
        index, task = pair
        rng = Random(derived_seed(seed, "task", index, task.task_id))
        episode_id = f"{task.task_id}|{index}"
        trace: list[dict] | None = None if out_dir is None else []
        result = search(
            task, env, council, planner, rng, episode_id=episode_id, trace=trace,
            update_memory=shared,
        )
        row = {
            "index": index,
            "task_id": task.task_id,
            "episode_id": episode_id,
            "warmup": index < warmup_tasks,
            "success": result.success,
            "reward": result.reward,
            "iterations_used": result.iterations_used,
            "nodes_expanded": result.nodes_expanded,
            "max_depth_reached": result.max_depth_reached,
            "depth": result.best_trajectory.depth,
            "per_step_expert": list(result.episode.per_step_expert),
        }
        return row, trace

    rows: list[dict] = []
    with ExitStack() as stack:
        trace_file = None
        if out_dir is not None:
            trace_file = stack.enter_context(LineWriter(Path(out_dir) / TRACE_FILENAME))
        if workers > 1:
            pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))
            results = pool.map(run_one, enumerate(tasks))
        else:
            results = map(run_one, enumerate(tasks))
        for row, trace in results:
            rows.append(row)
            if trace_file is not None:
                head = {key: row[key] for key in ("index", "task_id", "episode_id")}
                for event in trace:
                    trace_file.write({**head, **event})
                trace_file.flush()
        summary = summarize(rows, warmup_tasks, _backend_usage(council))
        output = RunOutput(rows=rows, summary=summary)
        if trace_file is not None:
            output.out_dir = write_run_files(out_dir, rows, summary, trace_file)
    return output


def write_run_files(
    out_dir: str | Path, rows: list[dict], summary: dict, trace: LineWriter
) -> Path:
    """Write ``metrics.jsonl`` into ``out_dir``, then move the finished
    trace, whose lines ``trace`` already holds, into place beside it."""
    out_dir = Path(out_dir)
    write_jsonl(out_dir / METRICS_FILENAME, [*rows, {"summary": summary}])
    trace.commit()
    return out_dir


def check_tasks(tasks: list[TaskSpec], env: Environment, env_name: str, source: str) -> None:
    """Check that every task belongs to ``env_name`` and carries a payload
    ``env`` accepts; an error names ``source`` and the task."""
    for task in tasks:
        if task.environment != env_name:
            raise ValueError(
                f"{source}: task {task.task_id!r} has environment {task.environment!r}, "
                f"expected {env_name!r}"
            )
        try:
            env.check_task(task)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None


def _check_output_paths(config: RunConfig) -> None:
    """Check that a run can write its outputs before it reads a task: the
    two files it writes in ``out_dir`` and ``memory.save_path`` must pass
    :func:`check_destination`. Nothing is made. A path that fails raises
    ConfigKeyError naming its key."""
    paths = []
    if config.out_dir is not None:
        paths = [("out_dir", Path(config.out_dir) / METRICS_FILENAME),
                 ("out_dir", Path(config.out_dir) / TRACE_FILENAME)]
    if config.memory.save_path is not None:
        paths.append(("memory.save_path", config.memory.save_path))
    for key, path in paths:
        try:
            check_destination(path)
        except ValueError as exc:
            raise ConfigKeyError(key, str(exc)) from None


def run(config: RunConfig, tasks: list[TaskSpec] | None = None) -> RunOutput:
    """Run one configuration: the entry point behind ``council run``.

    The config is checked here too, so one built in code gets the same checks
    as one read from a file. The environment, every council check and the
    output paths are checked before any task or memory file is read. Every
    task must belong to the run's environment and carry a payload that
    environment accepts, and every line of a loaded memory file must name a
    council member.
    """
    env = build_environment(config.env.name, config.env.params)
    experts = build_experts(config)
    _check_output_paths(config)
    source = "tasks"
    if tasks is None:
        if config.tasks_path is None:
            raise ConfigKeyError("tasks_path", "required when no tasks are passed")
        tasks = read_tasks(config.tasks_path)
        source = f"tasks file {config.tasks_path}"
    check_tasks(tasks, env, config.env.name, source)

    embedder = TrigramEmbedder(config.embedding_dim)
    loaded_profiles: dict | None = None
    if config.memory.load_path is not None:
        loaded_profiles = load_memory(
            config.memory.load_path,
            embedder=embedder,
            capacity=config.memory.capacity,
            cold_start=config.memory.cold_start,
            expert_ids={expert.expert_id for expert in experts},
        )
        # The file may hold more than this run's capacity; prune by the
        # rule every later prune uses before any task reads it.
        for profile in loaded_profiles.values():
            profile.prune()
    council = Council(
        experts,
        profiles=loaded_profiles,
        embedder=embedder,
        capacity=config.memory.capacity,
        cold_start=config.memory.cold_start,
    )
    output = run_tasks(
        tasks,
        env,
        config.planner,
        config.seed,
        council=council,
        warmup_tasks=config.warmup_tasks,
        out_dir=config.out_dir,
        workers=config.workers,
        shared=config.memory.shared,
    )
    if config.memory.save_path is not None:
        save_memory(config.memory.save_path, council.profiles)
    return output


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

ABLATION_AXES = ("routing", "value-signal", "council-size")


def _council_subsets(count: int) -> list[tuple[int, ...]]:
    """Index groups for the council-size axis: singles, pairs, full set."""
    groups: list[tuple[int, ...]] = [(i,) for i in range(count)]
    if count > 2:
        groups.extend((i, j) for i in range(count) for j in range(i + 1, count))
    if count > 1:
        groups.append(tuple(range(count)))
    return groups


def ablation_variants(config: RunConfig, axis: str) -> list[tuple[str, RunConfig]]:
    """Enumerate the configs an ablation axis sweeps over."""
    variants: list[tuple[str, RunConfig]] = []
    if axis == "routing":
        for strategy in ROUTING_STRATEGIES:
            variant = copy.deepcopy(config)
            variant.planner.routing_strategy = strategy
            variants.append((strategy, variant))
    elif axis == "value-signal":
        for mode in VALUE_MODES:
            variant = copy.deepcopy(config)
            variant.planner.value_mode = mode
            variants.append((mode, variant))
    elif axis == "council-size":
        for group in _council_subsets(len(config.council)):
            variant = copy.deepcopy(config)
            variant.council = [variant.council[i] for i in group]
            name = "+".join(config.council[i].expert_id for i in group)
            variants.append((name, variant))
    else:
        raise ValueError(f"unknown ablation axis: {axis}; expected one of {ABLATION_AXES}")
    return variants


def run_ablation(
    config: RunConfig,
    axis: str,
    seeds: list[int],
    tasks: list[TaskSpec] | None = None,
) -> dict:
    """Run every variant of an axis across seeds; write and return a report.

    Per-variant aggregates are means over seeds of the scored success rate
    and of expanded nodes per successful task.
    """
    base_out = Path(config.out_dir)
    rows: list[dict] = []
    for name, variant in ablation_variants(config, axis):
        for seed in seeds:
            run_config = copy.deepcopy(variant)
            run_config.seed = seed
            run_config.out_dir = str(base_out / f"{axis}-{name}-s{seed}")
            output = run(run_config, tasks=tasks)
            rows.append(
                {
                    "variant": name,
                    "seed": seed,
                    "scored_success_rate": output.summary["scored_success_rate"],
                    "success_rate": output.summary["success_rate"],
                    "nodes_per_success": output.summary["nodes_per_success"],
                    "mean_nodes_expanded": output.summary["mean_nodes_expanded"],
                }
            )
    variants_seen = list(dict.fromkeys(row["variant"] for row in rows))
    aggregates = {}
    for name in variants_seen:
        mine = [row for row in rows if row["variant"] == name]
        rates = [row["scored_success_rate"] for row in mine if row["scored_success_rate"] is not None]
        nodes = [row["nodes_per_success"] for row in mine if row["nodes_per_success"] is not None]
        aggregates[name] = {
            "mean_scored_success_rate": _mean(rates),
            "mean_nodes_per_success": _mean(nodes),
            "seeds": len(mine),
        }
    report = {"axis": axis, "seeds": seeds, "rows": rows, "aggregates": aggregates}
    write_jsonl(base_out / "ablation.json", [report])
    return report


def ablation_table(report: dict) -> str:
    """Fixed-width text table of per-variant aggregates."""
    width = max([len("variant")] + [len(name) for name in report["aggregates"]])
    lines = [f"axis: {report['axis']}  seeds: {len(report['seeds'])}"]
    header = f"{'variant':<{width}} {'success':>8} {'nodes/success':>14}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, agg in report["aggregates"].items():
        rate = agg["mean_scored_success_rate"]
        nodes = agg["mean_nodes_per_success"]
        rate_text = "n/a" if rate is None else f"{rate:.3f}"
        nodes_text = "n/a" if nodes is None else f"{nodes:.1f}"
        lines.append(f"{name:<{width}} {rate_text:>8} {nodes_text:>14}")
    return "\n".join(lines)
