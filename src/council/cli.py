"""Command line front end.

Four subcommands: ``run`` executes a task file under one configuration,
``ablation`` sweeps one axis of that configuration across seeds, ``oracle``
checks a Game of 24 task file for solvability, and ``memory`` saves or
inspects persisted success-memory files.

Configuration layering is deliberately simple. A JSON config file supplies
defaults and command line flags override individual keys; every scalar key
of the run configuration has a flag twin. Structured keys (the council list,
environment parameters) live in the file. When neither source names a
council, a standard scripted council for the chosen environment is filled
in so quick runs need no config file at all.

Exit status reflects completion: a run whose tasks all fail still exits 0,
while unreadable files, invalid configuration, or malformed task lines exit
nonzero with a diagnostic naming the offending key or line; a bad key the
config file gave is reported under the file's name, one a flag set is not.
A closed stdout ends the command quietly with 141, the status of a writer
killed by SIGPIPE.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (
    ROUTING_STRATEGIES,
    VALUE_MODES,
    EnvSpec,
    ExpertSpec,
    RunConfig,
    config_from_dict,
    read_config_file,
)
from .envs.game24 import Game24Env, game24_oracle
from .envs.synth import SynthConfig
from .errors import BackendConfigError, ConfigKeyError
from .harness import (
    ABLATION_AXES,
    METRICS_FILENAME,
    TRACE_FILENAME,
    ablation_table,
    check_destination,
    check_tasks,
    dump_json,
    read_memory,
    read_tasks,
    run,
    run_ablation,
    write_jsonl,
)
from .memory import profile_records, sms_utility


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")


# Each run flag: its name, its key path inside the config dict, and its
# argparse options. Flags stay None unless given, so only explicit flags
# override file values.
_RUN_FLAGS: tuple[tuple[str, tuple[str, ...], dict], ...] = (
    ("--seed", ("seed",), {"type": int, "help": "run seed (required here or in the file)"}),
    ("--env", ("env", "name"), {"help": "environment name: game24 or synth"}),
    ("--tasks", ("tasks_path",), {"help": "JSONL task file"}),
    ("--out-dir", ("out_dir",), {"help": "directory for metrics and trace files"}),
    ("--warmup-tasks", ("warmup_tasks",),
     {"type": int, "help": "leading tasks excluded from scored aggregates"}),
    ("--workers", ("workers",), {"type": int, "help": "parallel tasks; needs --memory-shared false"}),
    ("--embedding-dim", ("embedding_dim",), {"type": int, "help": "hashed trigram embedding width"}),
    ("--routing-strategy", ("planner", "routing_strategy"), {"choices": ROUTING_STRATEGIES}),
    ("--routing-temperature", ("planner", "routing_temperature"),
     {"type": float, "help": "softmax temperature for routing"}),
    ("--value-mode", ("planner", "value_mode"), {"choices": VALUE_MODES}),
    ("--exploration", ("planner", "exploration"), {"type": float, "help": "UCT exploration constant"}),
    ("--iterations", ("planner", "budget", "iterations"),
     {"type": int, "help": "search iterations per task"}),
    ("--expansion-width", ("planner", "budget", "expansion_width"),
     {"type": int, "help": "children proposed per expansion"}),
    ("--max-depth", ("planner", "budget", "max_depth"), {"type": int, "help": "depth cap per trajectory"}),
    ("--memory-capacity", ("memory", "capacity"),
     {"type": int, "help": "segments kept per expert profile"}),
    ("--memory-cold-start", ("memory", "cold_start"),
     {"type": float, "help": "utility prior for unused segments"}),
    ("--memory-shared", ("memory", "shared"),
     {"type": _parse_bool, "metavar": "BOOL",
      "help": "carry memory across tasks (true) or let every task read the loaded "
              "memory and none write to it (false)"}),
    ("--memory-load", ("memory", "load_path"), {"help": "memory file to preload profiles from"}),
    ("--memory-save", ("memory", "save_path"), {"help": "memory file to write after the run"}),
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file supplying defaults")
    for flag, _, options in _RUN_FLAGS:
        parser.add_argument(flag, **options)


def _given_flags(args: argparse.Namespace):
    """``(key path, value)`` of every run flag given on the command line."""
    for flag, path, _ in _RUN_FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if value is not None:
            yield path, value


def _set_path(data: dict, path: tuple[str, ...], value) -> None:
    for depth, key in enumerate(path[:-1]):
        data = data.setdefault(key, {})
        if not isinstance(data, dict):
            raise ConfigKeyError(".".join(path[: depth + 1]), "must be an object")
    data[path[-1]] = value


def _default_council(env: EnvSpec) -> list[ExpertSpec]:
    """The standard scripted council for a bundled environment."""
    if env.name == "game24":
        return [ExpertSpec("solver", params={"role": "game24-oracle"})]
    if env.name != "synth":
        return []
    return [
        ExpertSpec(f"{family}-specialist", params={"role": "synth-specialist", "family": family})
        for family in SynthConfig.from_params(env.params).families
    ]


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Layer config file and flags into a validated run configuration."""
    data = read_config_file(args.config) if args.config else {}
    for path, value in _given_flags(args):
        _set_path(data, path, value)
    config = config_from_dict(data)
    if not config.council:
        config.council = _default_council(config.env)
    return config


def cmd_run(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    output = run(config)
    print(dump_json(output.summary))
    if output.out_dir is not None:
        print(f"wrote {output.out_dir / METRICS_FILENAME}")
        print(f"wrote {output.out_dir / TRACE_FILENAME}")
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    seeds = args.seeds if args.seeds else [config.seed]
    report = run_ablation(config, args.axis, seeds)
    print(ablation_table(report))
    print(f"wrote {Path(config.out_dir) / 'ablation.json'}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.out:
        check_destination(args.out)
    tasks = read_tasks(args.tasks)
    env = Game24Env()
    rows: list[dict] = []
    solvable_count = 0
    check_tasks(tasks, env, "game24", f"tasks file {args.tasks}")
    for task in tasks:
        solvable, witness = game24_oracle(task.payload)
        solvable_count += int(solvable)
        rows.append({"task_id": task.task_id, "solvable": solvable, "witness": witness})
        if solvable:
            print(f"{task.task_id}: solvable via {' ; '.join(witness)}")
        else:
            print(f"{task.task_id}: unsolvable")
    print(f"{solvable_count}/{len(tasks)} tasks solvable")
    if args.out:
        write_jsonl(args.out, rows)
        print(f"wrote {args.out}")
    return 0


def cmd_memory(args: argparse.Namespace) -> int:
    if args.action == "save":
        if not args.dest:
            raise ValueError("memory save needs a destination path")
        check_destination(args.dest)
    elif args.dest is not None:
        raise ValueError("memory inspect takes no destination path; only save does")
    # Each expert's checked segments; no command here builds or scans an index.
    memory = read_memory(args.path)
    if args.action == "save":  # canonical round-trip of an existing file to a new path
        count = write_jsonl(args.dest, profile_records(memory))
        print(f"wrote {count} segments to {args.dest}")
        return 0
    # inspect: one line per expert, then the total; every expert read has a segment
    for expert_id, segments in sorted(memory.items()):
        mean_utility = sum(sms_utility(segment) for segment in segments) / len(segments)
        retrievals = sum(segment.uses for segment in segments)
        print(
            f"{expert_id}: {len(segments)} segments, "
            f"mean utility {mean_utility:.3f}, {retrievals} retrievals"
        )
    total = sum(len(segments) for segments in memory.values())
    print(f"total: {total} segments across {len(memory)} experts")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="council",
        description="Expert-council planner: runs, ablations, oracles, memory files.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="execute a task file under one configuration")
    _add_run_flags(run_parser)
    run_parser.set_defaults(handler=cmd_run)

    ablation_parser = commands.add_parser("ablation", help="sweep one configuration axis")
    _add_run_flags(ablation_parser)
    ablation_parser.add_argument("--axis", required=True, choices=ABLATION_AXES)
    ablation_parser.add_argument(
        "--seeds", type=int, nargs="+", help="seeds to average over (default: the run seed)"
    )
    ablation_parser.set_defaults(handler=cmd_ablation)

    oracle_parser = commands.add_parser(
        "oracle", help="check a Game of 24 task file for solvability"
    )
    oracle_parser.add_argument("tasks", help="JSONL task file")
    oracle_parser.add_argument("--out", help="write per-task verdicts to this JSONL file")
    oracle_parser.set_defaults(handler=cmd_oracle)

    memory_parser = commands.add_parser(
        "memory", help="save or inspect a success-memory file"
    )
    memory_parser.add_argument("action", choices=("save", "inspect"))
    memory_parser.add_argument("path", help="memory file to read")
    memory_parser.add_argument("dest", nargs="?", help="destination path (save only)")
    memory_parser.set_defaults(handler=cmd_memory)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone (``| head``): exit as SIGPIPE would, with stdout
        # on /dev/null so the flush at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except ConfigKeyError as exc:
        flagged = {".".join(path) for path, _ in _given_flags(args)}
        config = getattr(args, "config", None)
        source = f"config file {config}: " if config and exc.key not in flagged else ""
        print(f"error: {source}{exc}", file=sys.stderr)
        return 2
    except (ValueError, BackendConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
