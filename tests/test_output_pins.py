"""Pinned SHA-256 of the run files of four small runs.

A change that means to alter output bytes updates these pins in the same
change and says why; any other change must leave them holding. Each run is
pinned at workers 1 in its own memory mode and at workers 2 with unshared
memory, because shared memory runs its tasks one after another. The
preloaded synth run is also pinned at workers 1 under every other routing
strategy and value mode, so each exemplar and memory-value path is checked.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from council.config import EnvSpec, ExpertSpec, MemoryConfig, PlannerConfig, RunConfig, SearchBudget
from council.embedding import TrigramEmbedder
from council.envs.game24 import make_game24_tasks
from council.envs.synth import (
    DEFAULT_FAMILIES,
    SynthConfig,
    SynthEnv,
    family_vocab,
    hidden_sequence,
    make_synth_tasks,
    parse_view,
)
from council.experts import Council, LLMExpert
from council.gateway import DEFAULT_TEMPLATES, ChatRequest, StubBackend
from council.harness import load_memory, run, run_tasks

PLANNER = PlannerConfig(
    budget=SearchBudget(iterations=12, expansion_width=2, max_depth=9),
    routing_strategy="task-aware",
    routing_temperature=0.15,
)

PINS = {
    ("game24", 1): (
        "aa0103c23f0944b7442419715f883e655168e61d232099af3f941036b2398e72",
        "b82ca995dd9d195c232d6a2115381ed1d777dea409add881d21de4a820af7919",
    ),
    ("game24", 2): (
        "aa0103c23f0944b7442419715f883e655168e61d232099af3f941036b2398e72",
        "2aaa4a2571f26a346a04a41148e50be860bc90b0cde30f7080b40dc5ab4324e4",
    ),
    ("synth", 1): (
        "5c20056e8aa070e6ae051522b78253ef71151533e555aa0622c4e964c6c430c6",
        "69a15261e0a2741c4b44274b2b159e9e3358bde613e2529fb5f0318cbd6ceede",
    ),
    ("synth", 2): (
        "6ac6a3254376d02d25e5eb990f2c22395277e80bf2b4f2bfbcc8c47a0fcc1db3",
        "3d5ba5b049d14166f9dcf0648ea0fb1d8a6391be3f7610e15b44e0019bca4086",
    ),
    ("synth-preloaded", 1): (
        "b4a9e026e6fd4152aae51708efe2cab0bec561bfe5cb6b1cd8c397e59887acfa",
        "92b5ecace6f29de12cb6a86a41f23dbf156652b5f5a142ac248c8ce82812e2ba",
    ),
    ("synth-preloaded", 2): (
        "6251c29588f58e24e19884682d3f239ae8f35de00d4aa78b3e484d3f3ae63bb7",
        "2509983faeb1e99c426e79eb3672b060d6da09e0a1e9c306f44ed37ec7bf0419",
    ),
    ("llm-stub", 1): (
        "f87891cd61e8aae7896f05082563755bc02d141e02414612d3d09b053e5488d3",
        "3125ddb4bbc3918c9a20d1e3a0a15874ef79eb14fd985323c17ced3245001393",
    ),
    ("llm-stub", 2): (
        "7ffd4d7134b02509da18daef24efd64dd7ac2050b9fa25f528075f6ba9d7217a",
        "1992b06f33e23f55c1db9183a0af15d457adfd20081ea7216c79cd010c09d418",
    ),
}

VARIANT_PINS = {
    ("routing_strategy", "round-robin"): (
        "b204ec24eb0442ba806dc0ed7704a530e580c1597dc16558139272cd9e5aea70",
        "d7e4255af0a5a3832b47da6013ffcab0104d5fb08d086cb99d1a01d29e00dfcd",
    ),
    ("routing_strategy", "random"): (
        "79d82f226e5563f14a3a9f5d81e26361dce834ebc8486a377efe462939c23875",
        "3e1131dae5dc4cf7d7ed4da575c17af53723d70c764637dbffd295baa38386b1",
    ),
    ("routing_strategy", "voting"): (
        "bfea4fd8a9ddaa9d5ac55158dca900698f3cfc8a63d7e80cf76e91dfbcb76f72",
        "615a756d1dde45c44b09e6a2cd65e6800ba424a682af0e0233726e3d3a904206",
    ),
    ("routing_strategy", "collaborative"): (
        "7a22e42be3d51c000d926a1d3cef8e5bfa683729a4339b7e21b7710b4ec692c4",
        "4ac409b90cadbf17948ef806f0b7334d77add9381cb9f06b84af8b7cfaff72fe",
    ),
    ("value_mode", "sms-only"): (
        "b170902de233ad503f5638ef7be1abc8251180cf1ecf86600860a1d150c006c6",
        "06a7c7c252b7ddb40ac7286997e3a7ca6cc8dae61f1c6e1163cae91aaa10c942",
    ),
    ("value_mode", "llm-only"): (
        "e15022db236a7ef02833fe3fd7f13ad6a247f719aa5c46d81e20aa77ab221954",
        "12ccd171291d028f3bc823ed0dacb5361a8784a7ffef460277b0cf786508adaf",
    ),
    ("value_mode", "env-only"): (
        "dc182a9356357316c7e7732bbda7b82bfa75fb6612c4a1d30b20adf0dfbb2244",
        "d54e1845b7162da196da217dc8396ef409215bac46755388e6614830917860fc",
    ),
}


def _digests(out_dir: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("metrics.jsonl", "trace.jsonl")
    )


def _synth_config(out_dir: Path, **overrides) -> RunConfig:
    """The run of acceptance criterion 12: one specialist per family."""
    base = dict(
        seed=9,
        env=EnvSpec(name="synth"),
        council=[
            ExpertSpec(f"{family}-specialist", params={"role": "synth-specialist", "family": family})
            for family in DEFAULT_FAMILIES
        ],
        planner=PLANNER,
        out_dir=str(out_dir),
        warmup_tasks=5,
        embedding_dim=1024,
    )
    base.update(overrides)
    return RunConfig(**base)


def _unshared(memory: MemoryConfig, workers: int) -> MemoryConfig:
    return memory if workers == 1 else replace(memory, shared=False)


@pytest.fixture(scope="module")
def memory_file(tmp_path_factory) -> Path:
    """Profiles saved by a shared run over tasks the pinned runs never see."""
    out = tmp_path_factory.mktemp("memory")
    path = out / "memory.jsonl"
    memory = MemoryConfig(save_path=str(path))
    run(_synth_config(out, memory=memory), tasks=make_synth_tasks(30, seed=31))
    return path


def _reply(family: str):
    """A fixed reply function, a pure function of the request. On a task of
    its own family it proposes the next hidden token three times in four
    and scores by progress; otherwise a hash of the request picks one of
    its family's tokens or a score from 0 to 10."""
    config = SynthConfig()
    vocab = family_vocab(family, config)

    def reply(request: ChatRequest) -> str:
        text = "\n".join(message.content for message in request.messages)
        draw = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")
        observation = [line for line in text.splitlines() if line.startswith("OBS: ")][-1]
        view = parse_view(observation[len("OBS: "):], config)
        mine = view is not None and view.family == family and not (view.solved or view.failed)
        if request.messages[0].content == DEFAULT_TEMPLATES.system_act:
            if mine and draw % 4:
                return hidden_sequence(family, view.seed, config)[view.done]
            return vocab[draw % len(vocab)]
        return str(round(10 * view.done / view.depth)) if mine else str(draw % 11)

    return reply


def _run_preloaded(out: Path, memory_file: Path, workers: int, planner: PlannerConfig) -> None:
    # Loaded past capacity, so every success inserts and then evicts.
    memory = _unshared(MemoryConfig(capacity=8, load_path=str(memory_file)), workers)
    config = _synth_config(out, workers=workers, memory=memory, planner=planner)
    run(config, tasks=make_synth_tasks(20, seed=37))


def _run(case: str, workers: int, out: Path, memory_file: Path) -> None:
    if case == "game24":
        config = RunConfig(
            seed=1,
            env=EnvSpec(name="game24"),
            council=[ExpertSpec("solver", params={"role": "game24-oracle"})],
            out_dir=str(out),
            workers=workers,
            memory=_unshared(MemoryConfig(), workers),
        )
        run(config, tasks=make_game24_tasks(100, seed=11))
    elif case == "synth":
        memory = _unshared(MemoryConfig(), workers)
        run(_synth_config(out, workers=workers, memory=memory), tasks=make_synth_tasks(20, seed=29))
    elif case == "synth-preloaded":
        _run_preloaded(out, memory_file, workers, PLANNER)
    else:
        embedder = TrigramEmbedder(1024)
        council = Council(
            [
                LLMExpert(
                    f"{family}-specialist",
                    StubBackend(_reply(family), backend_id=f"{family}-stub"),
                )
                for family in DEFAULT_FAMILIES
            ],
            profiles=load_memory(memory_file, embedder=embedder, capacity=16),
            embedder=embedder,
            capacity=16,
        )
        run_tasks(
            make_synth_tasks(12, seed=41),
            SynthEnv(),
            PLANNER,
            seed=5,
            council=council,
            warmup_tasks=2,
            out_dir=out,
            workers=workers,
            shared=workers == 1,
        )


@pytest.mark.parametrize("case, workers", sorted(PINS))
def test_run_files_match_their_pins(case, workers, tmp_path, memory_file):
    _run(case, workers, tmp_path, memory_file)
    assert _digests(tmp_path) == PINS[case, workers]


@pytest.mark.parametrize("field, value", sorted(VARIANT_PINS))
def test_preloaded_run_files_match_their_pins_under_each_strategy_and_mode(
    field, value, tmp_path, memory_file
):
    _run_preloaded(tmp_path, memory_file, 1, replace(PLANNER, **{field: value}))
    assert _digests(tmp_path) == VARIANT_PINS[field, value]
