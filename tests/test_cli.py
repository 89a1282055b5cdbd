"""Command line behavior: layering, exit codes, diagnostics, subcommands."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

import council
from council.cli import _RUN_FLAGS, main
from council.config import RunConfig
from council.embedding import TrigramEmbedder
from council.envs.game24 import make_game24_tasks
from council.envs.synth import SynthConfig, make_synth_tasks
from council.harness import write_jsonl, write_tasks
from council.memory import ExpertProfile


def game24_tasks_file(tmp_path, count=3, seed=2):
    path = tmp_path / "tasks.jsonl"
    write_tasks(path, make_game24_tasks(count, seed=seed))
    return path


def synth_tasks_file(tmp_path, count=6):
    path = tmp_path / "synth-tasks.jsonl"
    write_tasks(path, make_synth_tasks(count, seed=3, config=SynthConfig(depth=2)))
    return path


def run_flags(tmp_path, tasks_path, *extra):
    return [
        "run",
        "--seed", "5",
        "--tasks", str(tasks_path),
        "--out-dir", str(tmp_path / "out"),
        *extra,
    ]


def test_run_prints_a_summary_and_exits_zero(tmp_path, capsys):
    code = main(run_flags(tmp_path, game24_tasks_file(tmp_path)))
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    summary = json.loads(out[0])
    assert summary["tasks"] == 3
    assert summary["success_rate"] == 1.0
    assert f"wrote {tmp_path / 'out' / 'metrics.jsonl'}" in out
    assert f"wrote {tmp_path / 'out' / 'trace.jsonl'}" in out
    assert (tmp_path / "out" / "metrics.jsonl").exists()


def test_exit_status_reflects_completion_not_task_success(tmp_path, capsys):
    tasks = tmp_path / "hopeless.jsonl"
    tasks.write_text(
        '{"task_id": "g24-1-1-1-1", "environment": "game24", "payload": [1, 1, 1, 1]}\n',
        encoding="utf-8",
    )
    code = main(run_flags(tmp_path, tasks))
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 0
    assert summary["success_rate"] == 0.0


def test_a_game24_task_whose_moves_overflow_runs_to_completion(tmp_path, capsys):
    tasks = tmp_path / "huge.jsonl"
    tasks.write_text(
        '{"task_id": "g24-huge", "environment": "game24", "payload": [1e308, 1e308, 2, 3]}\n',
        encoding="utf-8",
    )
    code = main(run_flags(tmp_path, tasks))
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 0
    assert summary["success_rate"] == 0.0


def test_an_empty_task_file_reports_null_rates(tmp_path, capsys):
    tasks = tmp_path / "empty.jsonl"
    tasks.write_text("", encoding="utf-8")
    code = main(run_flags(tmp_path, tasks))
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 0
    assert summary["tasks"] == 0
    assert summary["success_rate"] is None


def test_synth_runs_get_a_default_specialist_council(tmp_path, capsys):
    tasks = synth_tasks_file(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"env": {"name": "synth", "params": {"depth": 2}}}))
    code = main(
        run_flags(tmp_path, tasks, "--config", str(config), "--iterations", "6")
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["tasks"] == 6


def test_flags_override_config_file_values(tmp_path, capsys):
    tasks = game24_tasks_file(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "seed": 1,
                "tasks_path": str(tasks),
                "out_dir": str(tmp_path / "out"),
                "planner": {"budget": {"iterations": 0}},
            }
        )
    )
    # The file alone is invalid (iterations 0); the flag must win.
    code = main(["run", "--config", str(config), "--iterations", "4"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["success_rate"] == 1.0

    code = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "planner.budget.iterations" in err


def test_rerunning_the_same_flags_is_byte_identical(tmp_path, capsys):
    tasks = synth_tasks_file(tmp_path)
    first = [
        "run",
        "--seed", "5",
        "--env", "synth",
        "--tasks", str(tasks),
        "--iterations", "5",
        "--out-dir", str(tmp_path / "a"),
    ]
    second = list(first)
    second[-1] = str(tmp_path / "b")
    assert main(first) == 0
    assert main(second) == 0
    capsys.readouterr()
    for name in ("metrics.jsonl", "trace.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_unknown_config_keys_exit_two_with_the_key_named(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"seed": 1, "bogus_key": true}')
    code = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "bogus_key" in err


def test_an_expert_display_name_is_an_unknown_key(tmp_path, capsys):
    config = tmp_path / "config.json"
    expert = {"expert_id": "oracle", "params": {"role": "game24-oracle"}, "display_name": "O"}
    config.write_text(json.dumps({"seed": 1, "council": [expert]}))
    code = main(["run", "--config", str(config)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config key 'council[0].display_name': unknown key" in err


def _expert(role: str, **params) -> dict:
    return {"expert_id": "x", "params": {"role": role, **params}}


def _llm(**params) -> dict:
    required = {"endpoint": "http://localhost:9", "model": "m", "credential_env": "NO_SUCH_KEY"}
    return {"expert_id": "x", "params": {"role": "llm-backed", **required, **params}}


# Keys of deleted settings: each must be refused as unknown, never ignored.
REMOVED_KEYS = (
    "council[0].kind",
    "council[0].params.backend_id",
    "planner.success_threshold",
    "planner.aggregator",
)


@pytest.mark.parametrize(
    "change,flags,key",
    [
        ({"planner": 5}, (), "planner"),
        ({"planner": 5}, ("--iterations", "3"), "planner"),
        ({"planner": {"budget": {"iterations": "ten"}}}, (), "planner.budget.iterations"),
        ({"seed": True}, (), "seed"),
        ({"env": {"name": "synth", "params": []}}, (), "env.params"),
        ({"env": {"name": "synth", "params": {"depth": "3"}}}, (), "env.params.depth"),
        ({"council": [_expert("synth-specialist")]}, (), "council[0].params.family"),
        ({"council": [_expert("synth-specialist", family=5)]}, (), "council[0].params.family"),
        (
            {"council": [_expert("synth-specialist", family="amber", eval_noise="0.3")]},
            (),
            "council[0].params.eval_noise",
        ),
        (
            {"council": [_expert("synth-specialist", family="amber", eval_nosie=0.3)]},
            (),
            "council[0].params.eval_nosie",
        ),
        ({"council": [_expert("psychic")]}, (), "council[0].params.role"),
        ({"env": {"name": "game24", "params": {"depth": 3}}}, (), "env.params.depth"),
        ({"env": {"name": "chess"}}, (), "env.name"),
        ({"council": [_expert("synth-specialist", family="onyx")]}, (), "council[0].params.family"),
        ({"planner": {"aggregator": "ghost"}}, (), "planner.aggregator"),
        ({"planner": {"aggregator": None}}, (), "planner.aggregator"),
        ({"council": [_llm(concurrency=0)]}, (), "council[0].params.concurrency"),
        ({"council": [_llm(concurrency=-1)]}, (), "council[0].params.concurrency"),
        ({"council": [_llm(max_tokens=0)]}, (), "council[0].params.max_tokens"),
        ({"council": [_llm(timeout=0)]}, (), "council[0].params.timeout"),
        ({"council": [_llm(act_temperature=-0.1)]}, (), "council[0].params.act_temperature"),
        ({"council": [_llm(eval_temperature=-1)]}, (), "council[0].params.eval_temperature"),
        ({"planner": {"budget": {"iterations": 0}}}, (), "planner.budget.iterations"),
        ({}, ("--iterations", "0"), "planner.budget.iterations"),
        ({"env": {"name": "synth", "params": {"depth": 0}}}, (), "env.params.depth"),
        (
            {"env": {"name": "synth", "params": {"families": ["amber", "amber"]}}},
            (),
            "env.params.families",
        ),
        (
            {"council": [_expert("synth-specialist", family=f) for f in ("amber", "basalt")]},
            (),
            "council[1].expert_id",
        ),
        ({"council": [{**_llm(), "kind": "llm-backed"}]}, (), "council[0].kind"),
        ({"council": [_llm(backend_id="z")]}, (), "council[0].params.backend_id"),
        (
            {"council": [_expert("synth-specialist", family="amber", eval_noise=-0.1)]},
            (),
            "council[0].params.eval_noise",
        ),
        ({"planner": {"success_threshold": 1.0}}, (), "planner.success_threshold"),
    ],
)
def test_a_malformed_config_value_exits_two_naming_its_key(tmp_path, capsys, change, flags, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "env": {"name": "synth"}, **change}))
    tasks = synth_tasks_file(tmp_path)
    code = main(["run", "--config", str(config), "--tasks", str(tasks), *flags])
    err = capsys.readouterr().err.splitlines()
    flagged = {".".join(path) for flag, path, _ in _RUN_FLAGS if flag in flags}
    source = "" if key in flagged else f"config file {config}: "
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: {source}config key '{key}': ")
    if key in REMOVED_KEYS:
        assert err[0].endswith(": unknown key")


def test_the_success_threshold_flag_is_refused(tmp_path, capsys):
    argv = run_flags(tmp_path, synth_tasks_file(tmp_path), "--env", "synth")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--success-threshold", "0"])
    assert excinfo.value.code == 2
    assert "--success-threshold" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_config_file_that_is_not_utf8_exits_two_naming_the_file(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_bytes(b'{"seed": 1, "x": "\xff"}')
    code = main(["run", "--config", str(config), "--tasks", str(synth_tasks_file(tmp_path))])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: config file {config} is not valid UTF-8: ")


def test_the_aggregator_flag_is_refused(tmp_path, capsys):
    argv = run_flags(tmp_path, synth_tasks_file(tmp_path), "--env", "synth")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--routing-strategy", "collaborative", "--aggregator", "ghost"])
    assert excinfo.value.code == 2
    assert "--aggregator" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_role_that_is_no_council_role_exits_two_with_the_role_message(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "council": [_expert("table", table={})]}))
    code = main(["run", "--config", str(config), "--tasks", str(game24_tasks_file(tmp_path))])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [
        f"error: config file {config}: config key 'council[0].params.role': "
        "must be one of ('game24-oracle', 'synth-specialist', 'llm-backed'), got 'table'"
    ]


def _scalar_keys(cls, path=()):
    """The key path of every field of a config dataclass, nested ones
    flattened into their own fields."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _scalar_keys(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,)


def test_every_scalar_config_key_has_exactly_one_run_flag():
    structured = {("council",), ("env", "params")}
    keys = [key for key in _scalar_keys(RunConfig) if key not in structured]
    assert sorted(path for _, path, _ in _RUN_FLAGS) == sorted(keys)


def test_a_missing_task_file_exits_two(tmp_path, capsys):
    code = main(run_flags(tmp_path, tmp_path / "nowhere.jsonl"))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_a_corrupt_task_line_exits_two_naming_the_line(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        '{"task_id": "a", "environment": "game24", "payload": [1, 2, 3, 4]}\n{oops\n',
        encoding="utf-8",
    )
    code = main(run_flags(tmp_path, tasks))
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_an_unknown_key_in_a_task_line_exits_two_naming_the_line(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    line = {"task_id": "a", "environment": "game24", "payload": [1, 2, 3, 4], "priority": 3}
    tasks.write_text(json.dumps(line) + "\n", encoding="utf-8")
    code = main(run_flags(tmp_path, tasks))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: tasks file {tasks}: line 1: unknown key 'priority'"]


def test_a_task_id_that_is_no_string_exits_two_naming_the_line(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    lines = [
        {"task_id": "a", "environment": "game24", "payload": [1, 2, 3, 4]},
        {"task_id": None, "environment": "game24", "payload": [4, 4, 10, 10]},
    ]
    tasks.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    for argv in (run_flags(tmp_path, tasks), ["oracle", str(tasks)]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: tasks file {tasks}: line 2: key 'task_id': expected a non-empty string"
        ]


def test_tasks_from_another_environment_exit_two(tmp_path, capsys):
    tasks = synth_tasks_file(tmp_path)
    code = main(run_flags(tmp_path, tasks, "--env", "game24"))
    err = capsys.readouterr().err
    assert code == 2
    assert str(tasks) in err
    assert "'synth-amber-0000'" in err
    assert "'synth'" in err and "'game24'" in err


def test_saving_unshared_memory_exits_two(tmp_path, capsys):
    memory_path = tmp_path / "m.jsonl"
    code = main(
        run_flags(
            tmp_path,
            game24_tasks_file(tmp_path),
            "--memory-shared", "false",
            "--memory-save", str(memory_path),
        )
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "'memory.save_path'" in err
    assert not memory_path.exists()


@pytest.mark.parametrize(
    "flag, path, key",
    [
        ("--out-dir", "afile", "out_dir"),
        ("--out-dir", "afile/sub", "out_dir"),
        ("--memory-save", "adir", "memory.save_path"),
        ("--memory-save", "afile/memory.jsonl", "memory.save_path"),
        ("--memory-save", "out/metrics.jsonl", "memory.save_path"),
        ("--memory-save", "tasks.jsonl", "memory.save_path"),
        ("--memory-load", "out/../out/trace.jsonl", "out_dir"),
    ],
)
def test_a_bad_output_path_exits_two_naming_its_key_before_any_task(
    tmp_path, capsys, monkeypatch, flag, path, key
):
    tasks = game24_tasks_file(tmp_path)
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    (tmp_path / "adir").mkdir()

    def refuse(*args, **kwargs):
        raise AssertionError("a task ran")

    monkeypatch.setattr(council.harness, "search", refuse)
    code = main(run_flags(tmp_path, tasks, flag, str(tmp_path / path)))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"error: config key '{key}': ")
    assert ".tmp" not in err[0]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"
    assert list((tmp_path / "adir").iterdir()) == []


def tree(root: Path) -> dict[str, bytes | None]:
    """Every path below ``root``, with a file's bytes and None for a directory."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in sorted(root.rglob("*"))
    }


GOOD_TASK = '{"task_id": "a", "environment": "game24", "payload": [1, 2, 3, 4]}\n'


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--seed", "1", "--tasks", "bad-tasks.jsonl",
         "--out-dir", "a/b/out", "--memory-save", "m/n/mem.jsonl"],
        ["run", "--seed", "1", "--tasks", "tasks.jsonl", "--memory-load", "bad-memory.jsonl",
         "--out-dir", "a/b/out", "--memory-save", "m/n/mem.jsonl"],
        ["run", "--config", "no-tasks.json", "--memory-save", "m/n/mem.jsonl"],
        ["oracle", "bad-tasks.jsonl", "--out", "a/b/verdicts.jsonl"],
        ["memory", "save", "bad-memory.jsonl", "m/n/copy.jsonl"],
        ["run", "--seed", "1", "--tasks", "tasks.jsonl", "--out-dir", "out",
         "--memory-save", "out/metrics.jsonl"],
        ["run", "--seed", "1", "--tasks", "o2/trace.jsonl", "--out-dir", "o2"],
        ["ablation", "--axis", "value-signal", "--seed", "1", "--tasks", "tasks.jsonl",
         "--iterations", "2", "--out-dir", "abl"],
        ["ablation", "--axis", "value-signal", "--seed", "1", "--tasks", "o2/ablation.json",
         "--iterations", "2", "--out-dir", "o2"],
    ],
    ids=["run-bad-task", "run-bad-memory", "run-bad-config", "oracle-bad-task",
         "memory-save-bad-memory", "run-memory-save-onto-metrics", "run-trace-onto-tasks",
         "ablation-report-is-a-directory", "ablation-report-onto-tasks"],
)
def test_a_refused_command_leaves_the_file_system_as_it_found_it(
    tmp_path, capsys, monkeypatch, command
):
    (tmp_path / "tasks.jsonl").write_text(GOOD_TASK, encoding="utf-8")
    (tmp_path / "bad-tasks.jsonl").write_text(GOOD_TASK + "{oops\n", encoding="utf-8")
    (tmp_path / "bad-memory.jsonl").write_text('{"expert_id": 7}\n', encoding="utf-8")
    (tmp_path / "no-tasks.json").write_text(
        '{"seed": 1, "out_dir": "a/b/out"}', encoding="utf-8"
    )
    (tmp_path / "o2").mkdir()
    (tmp_path / "o2" / "trace.jsonl").write_text(GOOD_TASK, encoding="utf-8")
    (tmp_path / "o2" / "ablation.json").write_text(GOOD_TASK, encoding="utf-8")
    (tmp_path / "abl" / "ablation.json").mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    before = tree(tmp_path)
    code = main(command)
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ")
    assert tree(tmp_path) == before


def test_missing_seed_exits_two(tmp_path, capsys):
    code = main(["run", "--tasks", str(game24_tasks_file(tmp_path))])
    err = capsys.readouterr().err
    assert code == 2
    assert "'seed'" in err


# -- ablation -----------------------------------------------------------------------


def test_ablation_prints_a_table_and_writes_a_report(tmp_path, capsys):
    tasks = synth_tasks_file(tmp_path, count=3)
    code = main(
        [
            "ablation",
            "--axis", "value-signal",
            "--seed", "7",
            "--env", "synth",
            "--tasks", str(tasks),
            "--iterations", "4",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "axis: value-signal" in out
    for mode in ("full", "llm-only", "sms-only", "env-only"):
        assert mode in out
    report = json.loads((tmp_path / "out" / "ablation.json").read_text(encoding="utf-8"))
    assert report["seeds"] == [7]


def test_ablation_seeds_flag_expands_the_sweep(tmp_path, capsys):
    tasks = synth_tasks_file(tmp_path, count=2)
    code = main(
        [
            "ablation",
            "--axis", "routing",
            "--seed", "1",
            "--seeds", "1", "2",
            "--env", "synth",
            "--tasks", str(tasks),
            "--iterations", "3",
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "ablation.json").read_text(encoding="utf-8"))
    assert report["seeds"] == [1, 2]
    assert len(report["rows"]) == 5 * 2


# -- oracle ------------------------------------------------------------------------


def test_oracle_prints_witnesses_and_a_tally(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        '{"task_id": "g24-4-4-10-10", "environment": "game24", "payload": [4, 4, 10, 10]}\n'
        '{"task_id": "g24-1-1-1-1", "environment": "game24", "payload": [1, 1, 1, 1]}\n',
        encoding="utf-8",
    )
    verdicts = tmp_path / "verdicts.jsonl"
    code = main(["oracle", str(tasks), "--out", str(verdicts)])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0].startswith("g24-4-4-10-10: solvable via ")
    assert " ; " in out[0]
    assert out[1] == "g24-1-1-1-1: unsolvable"
    assert out[2] == "1/2 tasks solvable"
    rows = [json.loads(line) for line in verdicts.read_text(encoding="utf-8").splitlines()]
    assert [row["solvable"] for row in rows] == [True, False]
    assert rows[1]["witness"] is None


def assert_refused_directory(captured, directory):
    """One ``error:`` line naming ``directory``, no temp name, nothing left in it."""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(directory) in err[0]
    assert ".tmp" not in err[0]
    assert list(directory.iterdir()) == []


def test_oracle_refuses_a_directory_as_its_out_file(tmp_path, capsys):
    directory = tmp_path / "adir"
    directory.mkdir()
    code = main(["oracle", str(game24_tasks_file(tmp_path)), "--out", str(directory)])
    assert code == 2
    assert_refused_directory(capsys.readouterr(), directory)


def test_oracle_rejects_non_game24_tasks(tmp_path, capsys):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        '{"task_id": "synth-amber-0000", "environment": "synth", "payload": {"family": "amber", "seed": 1}}\n',
        encoding="utf-8",
    )
    code = main(["oracle", str(tasks)])
    err = capsys.readouterr().err
    assert code == 2
    assert "synth" in err


@pytest.mark.parametrize(
    "line",
    [
        '{"task_id": "y", "environment": "game24", "payload": "1 2 3 4"}',
        '{"task_id": "y", "environment": "synth", "payload": {"family": "amber", "seed": 1}}',
    ],
    ids=["bad-payload", "wrong-environment"],
)
def test_oracle_errors_name_the_tasks_file(tmp_path, capsys, line):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(line + "\n", encoding="utf-8")
    code = main(["oracle", str(tasks)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: tasks file {tasks}: task 'y'")


# -- memory ------------------------------------------------------------------------


def memory_file_from_run(tmp_path) -> str:
    memory_path = tmp_path / "memory.jsonl"
    code = main(
        run_flags(
            tmp_path,
            game24_tasks_file(tmp_path),
            "--memory-save", str(memory_path),
        )
    )
    assert code == 0
    return str(memory_path)


def test_memory_load_and_inspect(tmp_path, capsys):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()

    count = len(Path(memory_path).read_text(encoding="utf-8").splitlines())
    assert count > 0

    assert main(["memory", "inspect", memory_path]) == 0
    inspected = capsys.readouterr().out.splitlines()
    assert any(line.startswith("solver: ") for line in inspected)
    assert "retrievals" in inspected[0]
    assert inspected[-1] == f"total: {count} segments across 1 experts"


def test_memory_load_is_refused(tmp_path, capsys):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["memory", "load", memory_path])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'load'" in captured.err


def test_memory_save_round_trips_byte_identically(tmp_path, capsys):
    memory_path = memory_file_from_run(tmp_path)
    dest = tmp_path / "copy.jsonl"
    assert main(["memory", "save", memory_path, str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_bytes() == (tmp_path / "memory.jsonl").read_bytes()


def test_memory_commands_keep_every_segment_past_the_default_capacity(tmp_path, capsys):
    # 600 segments for one expert: more than the 512 a run keeps by default.
    source = tmp_path / "big.jsonl"
    records = [
        {
            "expert_id": "solver",
            "segment_id": f"solver:{i}",
            "prefix_steps": [[f"numbers: {i}", f"move {i}"]],
            "created_at": i,
            "wins": i % 2,
            "uses": 1,
        }
        for i in range(600)
    ]
    write_jsonl(source, records)
    assert main(["memory", "inspect", str(source)]) == 0
    inspected = capsys.readouterr().out
    assert inspected.startswith("solver: 600 segments")
    assert inspected.endswith("\ntotal: 600 segments across 1 experts\n")
    dest = tmp_path / "copy.jsonl"
    assert main(["memory", "save", str(source), str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_bytes() == source.read_bytes()


def test_memory_commands_build_no_profile_and_embed_nothing(tmp_path, capsys, monkeypatch):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a memory command built or filled an index")

    monkeypatch.setattr(ExpertProfile, "__init__", refuse)
    monkeypatch.setattr(TrigramEmbedder, "embed", refuse)
    dest = tmp_path / "copy.jsonl"
    for argv in (["inspect", memory_path], ["save", memory_path, str(dest)]):
        assert main(["memory", *argv]) == 0
    assert "total: " in capsys.readouterr().out
    assert dest.read_bytes() == Path(memory_path).read_bytes()


def test_memory_save_refuses_a_directory_as_its_destination(tmp_path, capsys):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()
    directory = tmp_path / "adir"
    directory.mkdir()
    assert main(["memory", "save", memory_path, str(directory)]) == 2
    assert_refused_directory(capsys.readouterr(), directory)


def refuse(*args, **kwargs):
    raise AssertionError("work ran before its destination was checked")


BAD_DESTINATIONS = pytest.mark.parametrize(
    "destination, complaint",
    [("adir", "it is a directory"), ("afile/x.jsonl", "'{tmp}/afile' is not a directory")],
    ids=["directory", "under-a-file"],
)


def assert_refused_destination(tmp_path, captured, destination, complaint):
    """One ``error:`` line naming the destination and what is wrong with it,
    and nothing written."""
    path = tmp_path / destination
    assert captured.err.splitlines() == [
        f"error: cannot write '{path}': {complaint.format(tmp=tmp_path)}"
    ]
    assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept\n"
    assert list((tmp_path / "adir").iterdir()) == []


@BAD_DESTINATIONS
def test_oracle_checks_its_out_file_before_it_solves_a_task(
    tmp_path, capsys, monkeypatch, destination, complaint
):
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(council.cli, "game24_oracle", refuse)
    tasks = game24_tasks_file(tmp_path)
    code = main(["oracle", str(tasks), "--out", str(tmp_path / destination)])
    captured = capsys.readouterr()
    assert code == 2
    assert "solvable" not in captured.out
    assert_refused_destination(tmp_path, captured, destination, complaint)


@BAD_DESTINATIONS
def test_memory_save_checks_its_destination_before_it_reads_a_record(
    tmp_path, capsys, monkeypatch, destination, complaint
):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()
    (tmp_path / "afile").write_text("kept\n", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    monkeypatch.setattr(council.cli, "read_memory", refuse)
    code = main(["memory", "save", memory_path, str(tmp_path / destination)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert_refused_destination(tmp_path, captured, destination, complaint)


@pytest.mark.parametrize("renamed", ["every", "last"])
def test_a_memory_file_naming_no_council_member_exits_two_before_any_segment_is_counted(
    tmp_path, capsys, monkeypatch, renamed
):
    tasks = tmp_path / "synth-tasks.jsonl"
    write_tasks(tasks, make_synth_tasks(6, seed=3))
    synth_run = ["run", "--seed", "1", "--env", "synth", "--tasks", str(tasks)]
    memory_path = tmp_path / "memory.jsonl"
    assert main([*synth_run, "--memory-save", str(memory_path)]) == 0
    records = [json.loads(line) for line in memory_path.read_text(encoding="utf-8").splitlines()]
    assert len(records) > 1
    first = 1 if renamed == "every" else len(records)
    for lineno, record in enumerate(records, start=1):
        if lineno >= first:
            record["expert_id"] = "ghost"
    ghost = tmp_path / "ghost.jsonl"
    write_jsonl(ghost, records)
    capsys.readouterr()
    monkeypatch.setattr(TrigramEmbedder, "count_block", refuse)
    monkeypatch.setattr(council.harness, "search", refuse)
    saved = tmp_path / "saved.jsonl"
    code = main([*synth_run, "--memory-load", str(ghost), "--memory-save", str(saved)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: memory file {ghost}: line {first}: key 'expert_id': "
        "'ghost' names no council member"
    ]
    assert not saved.exists()


def test_memory_save_requires_a_destination(tmp_path, capsys):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()
    code = main(["memory", "save", memory_path])
    assert code == 2
    assert "destination" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["inspect"])
def test_only_memory_save_takes_a_destination(tmp_path, capsys, action):
    memory_path = memory_file_from_run(tmp_path)
    capsys.readouterr()
    dest = tmp_path / "ignored.jsonl"
    code = main(["memory", action, memory_path, str(dest)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: memory {action} takes no destination path; only save does"
    ]
    assert not dest.exists()


def _memory_line(**changes) -> str:
    record = {
        "expert_id": "solver",
        "segment_id": "solver:999",
        "prefix_steps": [["appended observation", "appended action"]],
        "created_at": 999,
        "wins": 1,
        "uses": 2,
    }
    record.update(changes)
    return json.dumps({key: value for key, value in record.items() if value is not None})


@pytest.mark.parametrize(
    "line, complaint",
    [
        ("{broken", "not valid JSON"),
        # The older ledger form is no longer read: a ledger record is refused
        # at its top-level key, whatever its entries hold.
        (
            _memory_line(wins=None, uses=None, ledger=[{"episode_id": "e", "outcome": True}]),
            "unknown key 'ledger'",
        ),
        (_memory_line(created_at="zero"), "key 'created_at'"),
        # The index keeps created_at in int64, with room to count on past it.
        (_memory_line(created_at=2**63 - 1), "key 'created_at'"),
        (_memory_line(prefix_steps=[["only-one"]]), "key 'prefix_steps'"),
        (_memory_line(wins=3), "key 'wins'"),
        (_memory_line(note="x"), "unknown key 'note'"),
        (
            _memory_line(
                wins=None,
                uses=None,
                ledger=[{"episode_id": "e", "usage_count": 1, "outcome": True, "note": "x"}],
            ),
            "unknown key 'ledger'",
        ),
        # A line given as a function is built from the file's first record.
        (
            lambda first: _memory_line(expert_id=first["expert_id"], segment_id=first["segment_id"]),
            "key 'segment_id': repeats",
        ),
        (
            lambda first: _memory_line(
                expert_id=first["expert_id"], prefix_steps=first["prefix_steps"]
            ),
            "key 'prefix_steps': repeats",
        ),
        (
            _memory_line(prefix_steps=[]),
            "key 'prefix_steps': expected a non-empty list of [observation, action] string pairs",
        ),
    ],
    ids=[
        "not-json",
        "ledger-without-usage",
        "created-at-text",
        "created-at-past-int64",
        "half-step",
        "wins-above-uses",
        "unknown-key",
        "ledger-unknown-key",
        "duplicate-segment-id",
        "duplicate-prefix",
        "empty-prefix",
    ],
)
def test_corrupt_memory_files_exit_two_naming_the_line(tmp_path, capsys, line, complaint):
    memory_path = memory_file_from_run(tmp_path)
    with open(memory_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    lineno = len(lines) + 1
    if callable(line):
        line = line(json.loads(lines[0]))
    with open(memory_path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    capsys.readouterr()
    code = main(["memory", "inspect", memory_path])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(f"error: memory file {memory_path}: line {lineno}: ")
    assert complaint in err[0]


@pytest.mark.parametrize(
    "env, payload, key",
    [
        ("synth", {"seed": 3}, "payload.family"),
        ("synth", {"family": "amber", "seed": "x"}, "payload.seed"),
        ("synth", [1, 2], "payload"),
        ("game24", 5, "payload"),
        ("synth", {"family": "amber", "seed": 3, "priority": 3}, "payload.priority"),
        ("game24", [float("inf"), 1, 2, 3], "payload"),
        ("game24", [float("nan"), 1, 2, 3], "payload"),
    ],
    ids=[
        "synth-no-family",
        "synth-text-seed",
        "synth-list",
        "game24-number",
        "synth-extra-key",
        "game24-infinity",
        "game24-nan",
    ],
)
def test_malformed_task_payloads_exit_two_naming_task_and_key(
    tmp_path, capsys, env, payload, key
):
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_text(
        json.dumps({"task_id": "bad-task", "environment": env, "payload": payload}) + "\n",
        encoding="utf-8",
    )
    code = main(run_flags(tmp_path, tasks, "--env", env))
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith(f"error: tasks file {tasks}: task 'bad-task': key '{key}': ")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_a_closed_stdout_ends_the_command_quietly_with_141(tmp_path, unbuffered):
    tasks = game24_tasks_file(tmp_path)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    # Buffered, the first write fails only when stdout is flushed.
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(council.__file__).parents[1]),
        "PYTHONUNBUFFERED": unbuffered,
    }
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "council.cli", "oracle", str(tasks)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
