"""Malformed input never crashes ``council run``.

Each case mutates one spot, at any depth, of a valid config file, task line
or memory line: it replaces a value with a small JSON value, adds a key or
drops a key. The run must then exit 0, or exit 2 with exactly one ``error:``
line and the scratch directory as it found it. Integers are drawn from a small range, so that no case asks for a large
budget, embedding width or worker count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from council.cli import main
from council.envs.synth import SynthConfig, make_synth_tasks

FAMILIES = ("amber", "basalt", "cedar")
CONFIG = {
    "seed": 3,
    "env": {"name": "synth", "params": {"depth": 2, "budget": 2}},
    "council": [
        {"expert_id": f"{family}-specialist",
         "params": {"role": "synth-specialist", "family": family, "eval_noise": 0.1}}
        for family in FAMILIES
    ],
    "tasks_path": "tasks.jsonl",
    "planner": {
        "budget": {"iterations": 2, "expansion_width": 2, "max_depth": 4},
        "exploration": 1.0,
        "routing_strategy": "task-aware",
        "routing_temperature": 0.5,
        "value_mode": "full",
    },
    "memory": {"capacity": 8, "cold_start": 0.5, "shared": True,
               "load_path": "memory.jsonl", "save_path": None},
    "out_dir": "out",
    "warmup_tasks": 0,
    "workers": 1,
    "embedding_dim": 16,
}
TASK = asdict(make_synth_tasks(1, seed=3, config=SynthConfig(depth=2))[0])
MEMORY = [
    {"expert_id": "amber-specialist", "segment_id": f"amber-specialist:{i}",
     "prefix_steps": [[f"observation {i}", f"action {i}"]], "created_at": i,
     "wins": i, "uses": 2}
    for i in range(2)
]

KEYS = ("seed", "params", "role", "family", "pool", "table", "x", "depth", "families",
        "load_path", "workers", "shared", "capacity", "iterations", "payload")
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.sampled_from([0.0, 0.5, 1.5, -1.0]),
    st.sampled_from(["", "a", "amber", "synth", "game24", "table", "random", "constant",
                     "tasks.jsonl", "memory.jsonl"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(KEYS), SCALARS, max_size=2),
)


def _spots(node, path=()):
    """Every path in a JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _spots(child, path + (key,))


def _mutate(data, document):
    """Replace, add or drop one value at a drawn spot of ``document``."""
    path = data.draw(st.sampled_from(list(_spots(document))))
    *parents, last = path or (None,)
    parent = document
    for key in parents:
        parent = parent[key]
    node = parent[last] if path else document
    action = data.draw(st.sampled_from(["replace", "add", "drop"]))
    if action == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = data.draw(VALUES)
    elif action == "add" and isinstance(node, list):
        node.append(data.draw(VALUES))
    elif action == "drop" and path:
        del parent[last]
    elif path:
        parent[last] = data.draw(VALUES)


def _documents() -> dict:
    """A fresh copy of the unmutated config, task and memory documents."""
    return json.loads(json.dumps({"config": CONFIG, "task": TASK, "memory": MEMORY}))


def _tree(root: str) -> dict[str, bytes | None]:
    """Every path below ``root``, with a file's bytes and None for a directory."""
    found = {}
    for directory, names, files in os.walk(root):
        for name in names:
            found[os.path.relpath(os.path.join(directory, name), root)] = None
        for name in files:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, root)] = handle.read()
    return found


def _run(documents) -> tuple[int, list[str], bool]:
    """``council run`` over the documents in a scratch directory: its exit
    status, its error lines and whether it changed the directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            with open("config.json", "w", encoding="utf-8") as handle:
                json.dump(documents["config"], handle)
            with open("tasks.jsonl", "w", encoding="utf-8") as handle:
                handle.write(json.dumps(documents["task"]) + "\n")
            with open("memory.jsonl", "w", encoding="utf-8") as handle:
                handle.writelines(json.dumps(record) + "\n" for record in documents["memory"])
            before = _tree(work)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", "config.json"])
            changed = _tree(work) != before
        finally:
            os.chdir(home)
    return code, err.getvalue().splitlines(), changed


def test_the_unmutated_documents_run_to_exit_zero():
    assert _run(_documents()) == (0, [], True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_input_exits_zero_or_two_with_one_error_line(data):
    documents = _documents()
    target = data.draw(st.sampled_from(["config", "task", "memory"]))
    if target == "memory":
        _mutate(data, documents["memory"][data.draw(st.integers(0, len(MEMORY) - 1))])
    else:
        _mutate(data, documents[target])
    code, lines, changed = _run(documents)
    assert code == 0 or (
        code == 2 and len(lines) == 1 and lines[0].startswith("error: ") and not changed
    ), (code, lines, changed)
