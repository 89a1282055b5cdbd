"""Harness: task files, memory files, runs, summaries, ablation sweeps."""

from __future__ import annotations

import hashlib
import json
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import council.harness as harness
from council.config import (
    EnvSpec,
    ExpertSpec,
    LLMParams,
    OracleParams,
    PlannerConfig,
    RunConfig,
    SearchBudget,
    MemoryConfig,
    SynthSpecialistParams,
    config_from_dict,
)
from council.embedding import TrigramEmbedder
from council.envs.base import TaskSpec
from council.envs.game24 import make_game24_tasks
from council.envs.synth import SynthConfig, SynthEnv, family_vocab, make_synth_tasks
from council.errors import ConfigKeyError
from council.experts import Council, Game24OracleExpert, LLMExpert, SynthSpecialistExpert
from council.gateway import DEFAULT_TEMPLATES, StubBackend
from council.harness import (
    ABLATION_AXES,
    ablation_table,
    ablation_variants,
    build_expert,
    build_experts,
    dump_json,
    load_memory,
    read_tasks,
    run,
    run_ablation,
    run_tasks,
    save_memory,
    summarize,
    write_jsonl,
    write_tasks,
)
from council.memory import ExpertProfile, profile_records

from conftest import make_trajectory, record_history


def test_dump_json_is_canonical():
    assert dump_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
    with pytest.raises(ValueError):
        dump_json({"x": float("nan")})


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [{"a": 1}, {"b": 2}])
    before = path.read_bytes()
    assert before == b'{"a":1}\n{"b":2}\n'
    with pytest.raises(ValueError):
        write_jsonl(path, [{"a": 3}, {"x": float("nan")}])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.jsonl"]


def test_a_write_takes_its_rows_as_it_goes_and_returns_their_count(tmp_path):
    path = tmp_path / "rows.jsonl"
    assert write_jsonl(path, ({"i": i} for i in range(3))) == 3
    assert path.read_bytes() == b'{"i":0}\n{"i":1}\n{"i":2}\n'
    assert write_jsonl(path, iter([])) == 0
    assert path.read_bytes() == b""
    # A save streams its records: they are yielded, never built as a list.
    records = profile_records({eid: p.segments() for eid, p in seeded_profiles().items()})
    assert iter(records) is records
    assert write_jsonl(path, records) == 3


def test_a_destination_below_an_unwritable_directory_is_refused_and_nothing_made(
    tmp_path, monkeypatch
):
    path = tmp_path / "a" / "b" / "rows.jsonl"
    assert harness.check_destination(path) == path
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(harness.os, "access", lambda path, mode: False)
    with pytest.raises(ValueError) as excinfo:
        write_jsonl(path, [{"a": 1}])
    assert str(excinfo.value) == f"cannot write '{path}': '{tmp_path}' is not writable"
    assert list(tmp_path.iterdir()) == []


# -- task files -----------------------------------------------------------------


def test_task_files_round_trip(tmp_path):
    tasks = make_game24_tasks(5, seed=2)
    path = tmp_path / "tasks.jsonl"
    write_tasks(path, tasks)
    again = read_tasks(path)
    assert [(t.task_id, t.environment, t.payload) for t in again] == [
        (t.task_id, t.environment, t.payload) for t in tasks
    ]


def test_bad_task_lines_are_reported_by_number(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text(
        '{"task_id": "a", "environment": "game24", "payload": [1, 2, 3, 4]}\n'
        "{not json\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as excinfo:
        read_tasks(path)
    assert "line 2" in str(excinfo.value)
    assert "not valid JSON" in str(excinfo.value)


def test_missing_task_keys_are_reported(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text('{"task_id": "a", "payload": []}\n', encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        read_tasks(path)
    assert "line 1" in str(excinfo.value)
    assert "'environment'" in str(excinfo.value)


@pytest.mark.parametrize(
    "key,value,expected",
    [
        ("task_id", None, "a non-empty string"),
        ("task_id", 7, "a non-empty string"),
        ("task_id", "", "a non-empty string"),
        ("environment", None, "a string"),
        ("environment", ["game24"], "a string"),
    ],
)
def test_a_task_id_or_environment_that_is_no_string_is_reported(tmp_path, key, value, expected):
    path = tmp_path / "tasks.jsonl"
    good = {"task_id": "a", "environment": "game24", "payload": [24]}
    path.write_text(
        json.dumps(good) + "\n" + json.dumps({**good, key: value}) + "\n", encoding="utf-8"
    )
    with pytest.raises(ValueError) as excinfo:
        read_tasks(path)
    assert str(excinfo.value) == f"tasks file {path}: line 2: key '{key}': expected {expected}"


def test_blank_task_lines_are_skipped(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_text(
        '\n{"task_id": "a", "environment": "game24", "payload": [24]}\n\n', encoding="utf-8"
    )
    assert len(read_tasks(path)) == 1


def test_bad_utf8_is_reported_by_its_line(tmp_path):
    path = tmp_path / "tasks.jsonl"
    path.write_bytes(b'{"task_id": "a", "environment": "game24", "payload": [24]}\n\xff\n')
    with pytest.raises(ValueError) as excinfo:
        read_tasks(path)
    assert f"tasks file {path}: line 2: " in str(excinfo.value)


# -- memory files -----------------------------------------------------------------


def records_of(profiles: dict) -> list[dict]:
    return list(profile_records({eid: profile.segments() for eid, profile in profiles.items()}))


def seeded_profiles() -> dict:
    council = Council([Game24OracleExpert("solver")], embedder=TrigramEmbedder(64))
    profile = council.profile("solver")
    for i in range(3):
        seg = profile.insert(make_trajectory([(f"numbers: {i} {i + 1}", f"{i}+{i + 1}={2 * i + 1}")]))
        record_history(profile, seg.segment_id, [(i % 2 == 0, i + 1)])
    return council.profiles


def test_memory_files_round_trip_exactly(tmp_path):
    profiles = seeded_profiles()
    path = tmp_path / "memory.jsonl"
    count = save_memory(path, profiles)
    assert count == 3
    loaded = load_memory(path, embedder=TrigramEmbedder(64))
    assert records_of(loaded) == records_of(profiles)
    # Saving the loaded store reproduces the file byte for byte.
    second = tmp_path / "memory2.jsonl"
    save_memory(second, loaded)
    assert second.read_bytes() == path.read_bytes()


def test_corrupt_memory_lines_are_reported_by_number(tmp_path):
    profiles = seeded_profiles()
    path = tmp_path / "memory.jsonl"
    save_memory(path, profiles)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = '{"expert_id": "solver"}'
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_memory(path)
    assert "line 2" in str(excinfo.value)
    assert "missing key" in str(excinfo.value)


def test_a_bad_last_memory_line_is_reported_before_any_segment_is_embedded(
    tmp_path, monkeypatch
):
    path = tmp_path / "memory.jsonl"
    save_memory(path, seeded_profiles())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"expert_id": "solver"}\n')
    embedded = []
    monkeypatch.setattr(TrigramEmbedder, "embed", lambda self, text: embedded.append(text))
    monkeypatch.setattr(
        TrigramEmbedder, "count_block", lambda self, texts, block: embedded.append(texts)
    )
    with pytest.raises(ValueError, match="line 4: missing key"):
        load_memory(path)
    assert embedded == []


# -- experts from specs -------------------------------------------------------------


def test_build_expert_dispatches_scripted_roles():
    env = EnvSpec(name="synth", params={"depth": 2})
    oracle = build_expert("o", OracleParams(), env, 1)
    assert isinstance(oracle, Game24OracleExpert)
    specialist = build_expert("s", SynthSpecialistParams(family="amber"), env, 1)
    assert isinstance(specialist, SynthSpecialistExpert)
    assert specialist.family == "amber"
    assert specialist.config.depth == 2


def test_build_expert_rejects_unknown_roles():
    config = RunConfig(seed=1, council=[ExpertSpec("x", params={"role": "psychic"})])
    with pytest.raises(ValueError) as excinfo:
        build_experts(config)
    assert "psychic" in str(excinfo.value)


def test_llm_expert_spec_requires_backend_keys():
    params = {"role": "llm-backed", "endpoint": "https://e", "model": "m"}
    entry = {"expert_id": "x", "params": params}
    with pytest.raises(ConfigKeyError) as excinfo:
        config_from_dict({"seed": 1, "council": [entry]})
    assert excinfo.value.key == "council[0].params.credential_env"


def test_llm_expert_spec_builds_without_touching_credentials():
    params = LLMParams(endpoint="https://e", model="m", credential_env="UNSET_KEY_VAR")
    expert = build_expert("x", params, EnvSpec(), 1)
    assert isinstance(expert, LLMExpert)
    assert expert.backend.credential_env == "UNSET_KEY_VAR"
    assert expert.backend.backend_id == "x"


def test_build_experts_requires_experts():
    with pytest.raises(ValueError) as excinfo:
        build_experts(RunConfig(seed=1))
    assert "'council'" in str(excinfo.value)


def test_build_experts_rejects_unknown_synth_params():
    spec = ExpertSpec("s", params={"role": "synth-specialist", "family": "amber"})
    config = RunConfig(seed=1, env=EnvSpec(name="synth", params={"depht": 3}), council=[spec])
    with pytest.raises(ValueError, match="depht"):
        build_experts(config)


@pytest.mark.parametrize(
    "council, key",
    [
        ([], "council"),
        ([ExpertSpec("s", params={"role": "synth-specialist", "family": "onyx"})],
         "council[0].params.family"),
    ],
)
def test_council_checks_fail_before_any_task_or_memory_file_is_read(
    tmp_path, monkeypatch, council, key
):
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before the council was checked")

    monkeypatch.setattr(harness, "read_tasks", refuse)
    monkeypatch.setattr(harness, "load_memory", refuse)
    config = RunConfig(
        seed=1,
        env=EnvSpec(name="synth"),
        council=council,
        tasks_path=str(tmp_path / "tasks.jsonl"),
        memory=MemoryConfig(load_path=str(tmp_path / "memory.jsonl")),
        out_dir=str(tmp_path / "out"),
    )
    with pytest.raises(ConfigKeyError) as excinfo:
        run(config)
    assert excinfo.value.key == key


# -- runs ------------------------------------------------------------------------


def synth_run_config(tmp_path: Path, **overrides) -> RunConfig:
    base = dict(
        seed=11,
        env=EnvSpec(name="synth", params={"depth": 2}),
        council=[
            ExpertSpec("amber-specialist", params={"role": "synth-specialist", "family": "amber"}),
            ExpertSpec("basalt-specialist", params={"role": "synth-specialist", "family": "basalt"}),
        ],
        planner=PlannerConfig(budget=SearchBudget(iterations=6, expansion_width=2, max_depth=4)),
        out_dir=str(tmp_path / "out"),
        warmup_tasks=2,
    )
    base.update(overrides)
    return RunConfig(**base)


def synth_tasks(count: int = 6) -> list:
    return make_synth_tasks(count, seed=3, config=SynthConfig(depth=2))


def test_run_writes_rows_then_a_summary_line(tmp_path):
    config = synth_run_config(tmp_path)
    output = run(config, tasks=synth_tasks())
    metrics = (tmp_path / "out" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(metrics) == 7
    rows = [json.loads(line) for line in metrics[:-1]]
    assert [row["index"] for row in rows] == list(range(6))
    assert [row["warmup"] for row in rows] == [True, True, False, False, False, False]
    summary_line = json.loads(metrics[-1])
    assert summary_line == {"summary": output.summary}
    assert (tmp_path / "out" / "trace.jsonl").exists()


def test_summary_agrees_with_a_recomputation(tmp_path):
    config = synth_run_config(tmp_path)
    output = run(config, tasks=synth_tasks())
    assert output.summary == summarize(output.rows, config.warmup_tasks, {})
    scored = [r for r in output.rows if not r["warmup"]]
    wins = [r for r in scored if r["success"]]
    assert output.summary["scored_success_rate"] == pytest.approx(len(wins) / len(scored))


def test_reruns_are_byte_identical(tmp_path):
    first = synth_run_config(tmp_path, out_dir=str(tmp_path / "a"))
    second = synth_run_config(tmp_path, out_dir=str(tmp_path / "b"))
    run(first, tasks=synth_tasks())
    run(second, tasks=synth_tasks())
    for name in ("metrics.jsonl", "trace.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_an_empty_task_list_summarizes_to_nulls(tmp_path):
    config = synth_run_config(tmp_path, warmup_tasks=0)
    output = run(config, tasks=[])
    assert output.summary["tasks"] == 0
    assert output.summary["success_rate"] is None
    assert output.summary["scored_success_rate"] is None
    assert output.summary["mean_reward"] is None
    metrics = (tmp_path / "out" / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(metrics) == 1


def test_a_run_prunes_loaded_memory_to_its_capacity(tmp_path):
    profile = ExpertProfile("amber-specialist", capacity=64)
    for i in range(12):
        seg = profile.insert(make_trajectory([(f"stored observation {i}", f"act {i}")]))
        record_history(profile, seg.segment_id, [(i % 3 == 0, 1), (i % 4 == 0, 1)])
    ranked = sorted(profile.segments(), key=lambda s: (profile.utility(s), s.created_at))
    kept = {s.segment_id for s in ranked[8:]}
    loaded, saved = tmp_path / "loaded.jsonl", tmp_path / "saved.jsonl"
    save_memory(loaded, {"amber-specialist": profile})
    memory = MemoryConfig(capacity=4, load_path=str(loaded), save_path=str(saved))
    run(synth_run_config(tmp_path, warmup_tasks=0, memory=memory), tasks=[])
    lines = saved.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["segment_id"] for line in lines] == [
        s.segment_id for s in profile.segments() if s.segment_id in kept
    ]


def test_tasks_path_feeds_the_run(tmp_path):
    tasks_file = tmp_path / "tasks.jsonl"
    write_tasks(tasks_file, synth_tasks(3))
    config = synth_run_config(tmp_path, tasks_path=str(tasks_file), warmup_tasks=0)
    output = run(config)
    assert output.summary["tasks"] == 3


def test_run_without_tasks_or_path_is_an_error(tmp_path):
    config = synth_run_config(tmp_path)
    with pytest.raises(ValueError) as excinfo:
        run(config)
    assert "'tasks_path'" in str(excinfo.value)


def test_memory_save_and_load_paths(tmp_path):
    memory_file = tmp_path / "memory.jsonl"
    config = synth_run_config(
        tmp_path, memory=MemoryConfig(save_path=str(memory_file))
    )
    run(config, tasks=synth_tasks())
    assert memory_file.exists()
    profiles = load_memory(memory_file, embedder=TrigramEmbedder(256))
    assert sum(len(p) for p in profiles.values()) > 0

    # A warm start may present fresh task ids or the saved ones; see
    # test_warm_start_reruns_the_same_task_ids.
    eval_tasks = [
        TaskSpec(task_id=f"eval-{t.task_id}", environment=t.environment, payload=t.payload)
        for t in synth_tasks()
    ]
    warm = synth_run_config(
        tmp_path,
        out_dir=str(tmp_path / "warm"),
        memory=MemoryConfig(load_path=str(memory_file)),
    )
    output = run(warm, tasks=eval_tasks)
    assert output.summary["tasks"] == 6


def test_warm_start_reruns_the_same_task_ids(tmp_path):
    memory_file = tmp_path / "memory.jsonl"
    cold = synth_run_config(tmp_path, memory=MemoryConfig(save_path=str(memory_file)))
    run(cold, tasks=synth_tasks(12))
    saved = load_memory(memory_file, embedder=TrigramEmbedder(256))
    assert sum(segment.uses for p in saved.values() for segment in p.segments()) > 0

    warm = synth_run_config(
        tmp_path,
        out_dir=str(tmp_path / "warm"),
        memory=MemoryConfig(load_path=str(memory_file)),
    )
    output = run(warm, tasks=synth_tasks(12))
    assert output.summary["tasks"] == 12


def saved_memory(tmp_path: Path) -> Path:
    """A memory file written by a shared run over the standard synth tasks."""
    path = tmp_path / "memory.jsonl"
    run(
        synth_run_config(
            tmp_path, out_dir=str(tmp_path / "cold"), memory=MemoryConfig(save_path=str(path))
        ),
        tasks=synth_tasks(),
    )
    return path


def test_unshared_memory_isolates_tasks_and_supports_workers(tmp_path, monkeypatch):
    memory = MemoryConfig(shared=False, load_path=str(saved_memory(tmp_path)))
    search = harness.search

    def slow_even(task, *args, episode_id, **kwargs):
        # Even tasks finish after the odd task that started beside them, so
        # two workers take results out of order unless the run keeps order.
        if int(episode_id.rsplit("|", 1)[1]) % 2 == 0:
            time.sleep(0.02)
        return search(task, *args, episode_id=episode_id, **kwargs)

    monkeypatch.setattr(harness, "search", slow_even)
    outputs = {
        workers: run(
            synth_run_config(
                tmp_path, out_dir=str(tmp_path / f"w{workers}"), memory=memory, workers=workers
            ),
            tasks=synth_tasks(8),
        )
        for workers in (1, 2)
    }
    assert outputs[1].rows == outputs[2].rows
    for name in ("metrics.jsonl", "trace.jsonl"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def temp_files(directory: Path) -> list[str]:
    return sorted(path.name for path in directory.iterdir() if path.name.endswith(".tmp"))


def test_each_tasks_trace_is_in_the_temp_file_before_the_next_task_starts(tmp_path, monkeypatch):
    out = tmp_path / "out"
    traces: list[tuple[str, list]] = []
    seen: list[list[str]] = []
    search = harness.search

    def spy(task, *args, episode_id, trace, **kwargs):
        (tmp,) = temp_files(out)
        seen.append((out / tmp).read_text(encoding="utf-8").splitlines())
        traces.append((episode_id, trace))
        return search(task, *args, episode_id=episode_id, trace=trace, **kwargs)

    monkeypatch.setattr(harness, "search", spy)
    run(synth_run_config(tmp_path), tasks=synth_tasks())
    # The file a run used to assemble from every task's events at the end.
    expected = [
        dump_json({"index": index, "task_id": episode_id.split("|")[0],
                   "episode_id": episode_id, **event})
        for index, (episode_id, trace) in enumerate(traces)
        for event in trace
    ]
    assert (out / "trace.jsonl").read_text(encoding="utf-8").splitlines() == expected
    assert temp_files(out) == []
    # When task i starts, exactly the lines of tasks 0..i-1 are on file.
    ends = [0]
    for _, trace in traces:
        ends.append(ends[-1] + len(trace))
    assert seen == [expected[:end] for end in ends[:-1]]


def test_a_task_that_raises_leaves_the_earlier_files_and_no_temp_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run(synth_run_config(tmp_path), tasks=synth_tasks())
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["metrics.jsonl", "trace.jsonl"]
    search = harness.search
    started: list[int] = []

    def fail_third(task, *args, **kwargs):
        started.append(len(started))
        if len(started) == 3:
            raise RuntimeError("task failed")
        return search(task, *args, **kwargs)

    monkeypatch.setattr(harness, "search", fail_third)
    with pytest.raises(RuntimeError, match="task failed"):
        run(synth_run_config(tmp_path, seed=12), tasks=synth_tasks())
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    # A fresh out_dir, and the parents the trace's writer made for it, go too.
    started.clear()
    with pytest.raises(RuntimeError, match="task failed"):
        run(synth_run_config(tmp_path, out_dir=str(tmp_path / "a" / "b" / "out")),
            tasks=synth_tasks())
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out"]


def test_a_runs_traced_memory_grows_by_less_than_10_kb_a_task(tmp_path):
    def peak(count: int) -> int:
        config = synth_run_config(
            tmp_path, out_dir=str(tmp_path / f"n{count}"), env=EnvSpec(name="synth"),
            planner=PlannerConfig(), warmup_tasks=0,
        )
        tasks = make_synth_tasks(count, seed=3)
        tracemalloc.start()
        try:
            run(config, tasks=tasks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # About 16 KB a task when a run held every trace line until its end.
    small, large = peak(100), peak(400)
    assert (large - small) / 300 < 10 * 1024, (small, large)


def test_a_run_without_an_out_dir_records_no_trace(tmp_path, monkeypatch):
    search = harness.search
    given: list = []

    def spy(*args, trace, **kwargs):
        given.append(trace)
        return search(*args, trace=trace, **kwargs)

    monkeypatch.setattr(harness, "search", spy)
    output = run(synth_run_config(tmp_path, out_dir=None), tasks=synth_tasks(2))
    assert output.out_dir is None and given == [None, None]
    assert list(tmp_path.iterdir()) == []


def test_only_shared_runs_write_to_the_councils_memory(tmp_path):
    config = synth_run_config(tmp_path, warmup_tasks=0)
    council = Council(
        build_experts(config),
        profiles=load_memory(saved_memory(tmp_path), embedder=TrigramEmbedder(256)),
    )
    before = records_of(council.profiles)
    env = SynthEnv(SynthConfig(depth=2))
    unshared = run_tasks(synth_tasks(), env, config.planner, 11, council=council, shared=False)
    assert unshared.summary["successes"] > 0
    assert records_of(council.profiles) == before
    shared = run_tasks(synth_tasks(), env, config.planner, 11, council=council)
    assert shared.summary["successes"] > 0
    assert records_of(council.profiles) != before


def test_two_workers_read_one_loaded_llm_council_at_once_and_write_one_workers_bytes(
    tmp_path, monkeypatch
):
    """Profiles take no lock. Each send blocks, so two workers' searches of
    one loaded council interleave their scans, and yet write the bytes one
    worker writes."""
    memory_file = saved_memory(tmp_path)
    synth = SynthConfig(depth=2)
    vocab = family_vocab("amber", synth) + family_vocab("basalt", synth)

    def reply(request) -> str:
        text = "\n".join(message.content for message in request.messages)
        draw = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
        time.sleep(0.001)
        if request.messages[0].content == DEFAULT_TEMPLATES.system_act:
            return vocab[draw % len(vocab)]
        return str(draw % 11)

    running, peak, lock = [0], [0], threading.Lock()
    search = harness.search

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        try:
            return search(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(harness, "search", counted)
    config = synth_run_config(tmp_path)
    for workers in (1, 2):
        embedder = TrigramEmbedder(256)
        council = Council(
            [LLMExpert(spec.expert_id, StubBackend(reply)) for spec in config.council],
            profiles=load_memory(memory_file, embedder=embedder),
            embedder=embedder,
        )
        peak[0] = 0
        run_tasks(
            synth_tasks(), SynthEnv(synth), config.planner, 11, council=council,
            out_dir=tmp_path / f"w{workers}", workers=workers, shared=False,
        )
        assert peak[0] == workers
    for name in ("metrics.jsonl", "trace.jsonl"):
        assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w2" / name).read_bytes()


def test_an_unshared_run_embeds_each_loaded_segment_once(tmp_path, monkeypatch):
    memory_file = saved_memory(tmp_path)
    texts = {
        segment.text
        for profile in load_memory(memory_file).values()
        for segment in profile.segments()
    }
    # A load counts through count_block, a search embeds through embed; count both.
    embedded: list[str] = []
    original, original_block = TrigramEmbedder.embed, TrigramEmbedder.count_block

    def counting(embedder, text):
        embedded.append(text)
        return original(embedder, text)

    def counting_block(embedder, texts, block):
        embedded.extend(texts)
        return original_block(embedder, texts, block)

    monkeypatch.setattr(TrigramEmbedder, "embed", counting)
    monkeypatch.setattr(TrigramEmbedder, "count_block", counting_block)
    memory = MemoryConfig(shared=False, load_path=str(memory_file))
    for count in (1, 6):
        embedded.clear()
        config = synth_run_config(tmp_path, out_dir=str(tmp_path / f"n{count}"), memory=memory)
        run(config, tasks=synth_tasks(count))
        assert Counter(text for text in embedded if text in texts) == Counter(texts)


def test_shared_memory_cannot_run_with_workers():
    env = SynthEnv(SynthConfig(depth=2))
    council = Council(
        [SynthSpecialistExpert("amber-specialist", "amber", SynthConfig(depth=2))],
        embedder=TrigramEmbedder(64),
    )
    with pytest.raises(ValueError, match="workers"):
        run_tasks([], env, PlannerConfig(), seed=1, council=council, workers=2)
    output = run_tasks([], env, PlannerConfig(), seed=1, council=council, workers=2, shared=False)
    assert output.summary["tasks"] == 0


def test_scripted_councils_report_no_backend_usage(tmp_path):
    output = run(synth_run_config(tmp_path), tasks=synth_tasks(2))
    assert output.summary["backend_usage"] == {}


def test_llm_backends_are_metered_in_the_summary():
    backend = StubBackend(["1+1=2"], backend_id="stub-1")
    council = Council([LLMExpert("chatty", backend)], embedder=TrigramEmbedder(64))
    tasks = make_game24_tasks(1, seed=4)
    planner = PlannerConfig(budget=SearchBudget(iterations=2, expansion_width=1, max_depth=3))
    from council.envs.game24 import Game24Env

    output = run_tasks(tasks, Game24Env(), planner, seed=1, council=council)
    usage = output.summary["backend_usage"]
    assert "stub-1" in usage
    assert usage["stub-1"]["requests"] == backend.usage.requests
    assert usage["stub-1"]["requests"] > 0


# -- ablations ---------------------------------------------------------------------


def test_ablation_variant_enumeration(tmp_path):
    config = synth_run_config(tmp_path)
    routing = ablation_variants(config, "routing")
    assert [name for name, _ in routing] == [
        "task-aware",
        "random",
        "round-robin",
        "voting",
        "collaborative",
    ]
    value = ablation_variants(config, "value-signal")
    assert [name for name, _ in value] == ["full", "llm-only", "sms-only", "env-only"]
    for name, variant in value:
        assert variant.planner.value_mode == name

    third = ExpertSpec("cedar-specialist", params={"role": "synth-specialist", "family": "cedar"})
    config.council.append(third)
    sizes = ablation_variants(config, "council-size")
    names = [name for name, _ in sizes]
    assert len(names) == 7
    assert names[:3] == ["amber-specialist", "basalt-specialist", "cedar-specialist"]
    assert "amber-specialist+basalt-specialist" in names
    assert names[-1] == "amber-specialist+basalt-specialist+cedar-specialist"
    assert [len(v.council) for _, v in sizes] == [1, 1, 1, 2, 2, 2, 3]

    with pytest.raises(ValueError):
        ablation_variants(config, "by-moon-phase")
    assert set(ABLATION_AXES) == {"routing", "value-signal", "council-size"}


def test_ablation_runs_report_per_variant_aggregates(tmp_path):
    config = synth_run_config(tmp_path, warmup_tasks=1)
    report = run_ablation(config, "value-signal", seeds=[1, 2], tasks=synth_tasks(3))
    assert report["axis"] == "value-signal"
    assert report["seeds"] == [1, 2]
    assert len(report["rows"]) == 4 * 2
    for name, agg in report["aggregates"].items():
        assert agg["seeds"] == 2
        if agg["mean_scored_success_rate"] is not None:
            assert 0.0 <= agg["mean_scored_success_rate"] <= 1.0
    written = json.loads((tmp_path / "out" / "ablation.json").read_text(encoding="utf-8"))
    assert written == report

    table = ablation_table(report)
    assert "axis: value-signal" in table
    for mode in ("full", "llm-only", "sms-only", "env-only"):
        assert mode in table
