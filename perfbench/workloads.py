"""The benchmark's workloads and the input files each one runs on.

Every input is generated from the workload seed and the pass index before
anything is timed: a task file, a run configuration in the format
``council run --config`` reads, and for the workloads that preload memory a
memory file. The planner only ever sees those files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

from council.embedding import TrigramEmbedder
from council.envs import SynthConfig, SynthEnv, make_synth_tasks
from council.envs.base import TaskSpec
from council.envs.synth import family_vocab
from council.harness import save_memory, write_tasks
from council.memory import EpisodeContext, ExpertProfile, finalize_episode
from council.seeding import derived_seed
from council.trajectory import Action, EpisodeRecord, Trajectory

SYNTH = SynthConfig()
EMBEDDING_DIM = 1024
PLANNER = {
    "budget": {"iterations": 12, "expansion_width": 2, "max_depth": 9},
    "routing_strategy": "task-aware",
    "routing_temperature": 0.15,
    "value_mode": "full",
}

# The stub gateway of llm-stub. BENCHMARK.json states both values in the
# workload's description; change them together.
STUB_LATENCY_S = 0.005
STUB_FAILURE_PER_MILLE = 1


@dataclass(frozen=True)
class Workload:
    name: str
    tasks_per_pass: int
    warmup_tasks: int
    capacity: int
    memory_segments: int = 0  # per expert; 0 means memory starts empty
    llm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Profiles stay far below capacity over a pass: nothing is evicted.
        Workload("synth-online", tasks_per_pass=150, warmup_tasks=50, capacity=512),
        # Loaded at capacity, so every success inserts and then evicts.
        Workload("synth-recall", tasks_per_pass=50, warmup_tasks=0, capacity=4096,
                 memory_segments=4096),
        # A small preloaded memory lets routing find the right family from the
        # first task, so a pass is not decided by which expert wins early.
        Workload("llm-stub", tasks_per_pass=50, warmup_tasks=0, capacity=512,
                 memory_segments=256, llm=True),
    )
}


def expert_id(family: str) -> str:
    return f"{family}-specialist"


def memory_file(workload: Workload, seed: int, pass_index: int, cache: Path) -> Path | None:
    """The memory file a pass preloads, generated once per (seed, pass, size).

    Each pass gets its own memory, so a run averages over several rather
    than resting on one draw.
    """
    if not workload.memory_segments:
        return None
    path = cache / f"memory-s{seed}-p{pass_index}-n{workload.memory_segments}.jsonl"
    if not path.exists():
        cache.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(".partial")
        generate_memory(partial, derived_seed(seed, pass_index), workload.memory_segments)
        partial.replace(path)
    return path


def prepare(
    workload: Workload, seed: int, pass_index: int, work: Path, memory_path: Path | None
) -> Path:
    """Write one pass's task file and run config; returns the config path.

    Every pass of a run has its own tasks and run seed, drawn from (seed,
    pass index), so pooling passes averages over independent runs rather
    than repeating one.
    """
    work.mkdir(parents=True, exist_ok=True)
    tasks_path = work / "tasks.jsonl"
    tasks = make_synth_tasks(
        workload.tasks_per_pass,
        seed=derived_seed("perfbench-tasks", seed, pass_index),
        config=SYNTH,
    )
    write_tasks(tasks_path, tasks)
    config = {
        "seed": derived_seed("perfbench-run", seed, pass_index) % 2**31,
        "env": {"name": "synth", "params": {}},
        # The stub-backed council cannot be written as config; the worker builds it.
        "council": [] if workload.llm else [
            {"expert_id": expert_id(family),
             "params": {"role": "synth-specialist", "family": family}}
            for family in SYNTH.families
        ],
        "tasks_path": str(tasks_path),
        "planner": PLANNER,
        "memory": {
            "capacity": workload.capacity,
            "load_path": None if memory_path is None else str(memory_path),
        },
        "warmup_tasks": workload.warmup_tasks,
        "workers": 1,
        "embedding_dim": EMBEDDING_DIM,
    }
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return config_path


def generate_memory(path: Path, seed: int, segments: int) -> None:
    """A memory file holding exactly ``segments`` segments per specialist.

    Episodes are synthesised on the real environment: each reaches the end
    of a task, some after a wrong token, and consults a few stored segments
    first. About a third are scored as failures, so utilities spread and
    pruning has real choices. Profiles are written only through
    ``EpisodeContext.record``, ``finalize_episode`` and ``save_memory``.
    """
    env = SynthEnv(SYNTH)
    rng = Random(derived_seed("perfbench-memory", seed, segments))
    embedder = TrigramEmbedder(EMBEDDING_DIM)
    ids = {family: expert_id(family) for family in SYNTH.families}
    profiles = {
        eid: ExpertProfile(eid, capacity=segments, embedder=embedder) for eid in ids.values()
    }
    stored: dict[str, list[str]] = {}
    episode = 0
    while any(len(profile) < segments for profile in profiles.values()):
        for family, eid in ids.items():
            profile = profiles[eid]
            if len(profile) >= segments:
                continue
            if episode % 48 < len(ids):
                # Listing a profile costs its size; a list a few episodes old
                # still names only live segments, since nothing is evicted
                # before the profile is full.
                stored[eid] = [segment.segment_id for segment in profile.segments()]
            episode += 1
            task = TaskSpec(
                task_id=f"memory-{episode}",
                environment="synth",
                payload={"family": family, "seed": rng.randrange(1_000_000)},
            )
            actions = _episode_actions(env, task, rng)
            replay = env.replay(task, actions)
            prefix = _trajectory(env, task, actions, replay)
            context = EpisodeContext(task.task_id)
            known = stored[eid]
            for segment_id in rng.sample(known, min(len(known), rng.randint(1, 4))):
                context.record(profile, segment_id)
            success = rng.random() < 0.67
            record = EpisodeRecord(
                episode_id=task.task_id,
                task_id=task.task_id,
                final_trajectory=prefix,
                reward=1.0 if success else 0.0,
                success=success,
                per_step_expert=[eid] * len(actions),
                retrievals=context.retrievals(),
            )
            finalize_episode(profiles, record)
    save_memory(path, profiles)


def _episode_actions(env: SynthEnv, task: TaskSpec, rng: Random) -> list[str]:
    """The hidden tokens in order, some after a wrong guess that the
    attempt budget survives."""
    answer = env.hidden(task)
    decoys = [t for t in family_vocab(task.payload["family"], SYNTH) if t not in answer]
    actions: list[str] = []
    for token in answer:
        for _ in range(SYNTH.budget - 1):
            if rng.random() < 0.3:
                actions.append(rng.choice(decoys))
        actions.append(token)
    return actions


def _trajectory(env: SynthEnv, task: TaskSpec, actions: list[str], replay) -> Trajectory:
    prefix = Trajectory(pending=env.initial(task)[1])
    for action, outcome in zip(actions, replay.outcomes):
        prefix = prefix.extend(Action(action), outcome.observation)
    return prefix.completed()
