"""Benchmark of the council planner: one workload, one seed, one run.

    python3 perfbench/run.py --workload synth-online --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the planner is imported from the
checkout's ``src/``. A run is a series of passes. Each pass is a complete
planner run over its own task file, drawn from the seed and the pass index,
in a fresh single-threaded process, driven closed-loop by one caller. With
``--trace 0`` passes run untraced until ``--seconds`` have passed and at
least ten tasks lie beyond p90, and the end-to-end metrics are printed. With
``--trace 1`` every pass runs twice, untraced and traced, and the per-layer
metrics are printed.

Every run checks the outputs: each reported success must replay through the
environment to reward 1.0, the stub gateway's sends must match the backend
usage the run reports, and traced and untraced passes must write identical
bytes. The SHA-256 of each pass's ``metrics.jsonl`` and ``trace.jsonl`` is
printed so a refactor can show that it left output bytes unchanged. A failed
check exits 1; a broken set-up exits 2 without a result.

Inputs, the latest run's outputs and cached memory files go to
``.bench_work/`` in the checkout. The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MAX_PASSES = 64
DEADLINE_S = 170.0
# One caller, one thread: numpy's BLAS would otherwise spread each
# matrix-vector product over every core and share them with whatever else
# the machine runs.
ONE_THREAD = {
    name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
}


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must lie in (0, 120]")
    return args


def import_planner():
    """Put the checkout's ``src/`` first on the path and check it is what loads."""
    if not (SRC / "council" / "__init__.py").is_file():
        raise SetupError(f"no planner sources at {SRC / 'council'}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import council

    if Path(council.__file__).resolve().parent != SRC / "council":
        raise SetupError(f"council was imported from {council.__file__}, not {SRC}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(spec: dict, deadline: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]), **ONE_THREAD)
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(spec_path)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    try:
        report = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        raise SetupError(f"worker exited {completed.returncode}:\n{completed.stderr}") from None
    if Path(report["council_file"]).resolve().parent != SRC / "council":
        raise SetupError(f"worker imported council from {report['council_file']}")
    return report


def read_run(out_dir: Path) -> dict:
    """A pass's metric rows, summary and result events, as the run wrote them."""
    lines = (out_dir / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    results = {}
    for line in (out_dir / "trace.jsonl").read_text(encoding="utf-8").splitlines():
        event = json.loads(line)
        if event["type"] == "result":
            results[event["index"]] = event
    return {"rows": rows[:-1], "summary": rows[-1]["summary"], "results": results}


class Checker:
    """Collects failed output checks; counts tasks whose output is wrong."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.failed_tasks = 0

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def pass_outputs(self, run: dict, tasks: list, env, sends: int) -> None:
        """Row count, replay of every reported success, backend send count."""
        rows = len(run["rows"])
        self.check(rows == len(tasks), f"{rows} rows for {len(tasks)} tasks")
        for row in run["rows"]:
            if not row["success"]:
                continue
            event = run["results"].get(row["index"])
            replay = env.replay(tasks[row["index"]], event["actions"]) if event else None
            ok = replay is not None and replay.terminal and replay.reward == 1.0
            if not self.check(ok, f"task {row['index']} reports success that does not replay"):
                self.failed_tasks += 1
        usage = sum(b["requests"] for b in run["summary"]["backend_usage"].values())
        self.check(usage == sends, f"backend usage {usage} != stub sends {sends}")


def run_passes(args, workload, run_dir: Path, deadline: float) -> list[dict]:
    """Passes until the time is spent and, untraced, enough tasks for p90.

    A traced run pairs every pass with an untraced one on the same inputs,
    alternating which of the two goes first.
    """
    from perfbench import metrics, workloads
    from perfbench.spans import samples_needed

    needed = 1 if args.trace else samples_needed(metrics.TAIL_PERCENTILE)
    passes: list[dict] = []
    spent = 0.0  # in passes; making their inputs does not count
    for index in range(MAX_PASSES):
        done = sum(p["tasks"] for p in passes if not p["traced"])
        if passes and spent >= args.seconds and done >= needed:
            break
        memory = workloads.memory_file(workload, args.seed, index, WORK / "cache")
        config = workloads.prepare(workload, args.seed, index, run_dir / f"inputs-{index}", memory)
        order = [False, True] if index % 2 == 0 else [True, False]
        for traced in order if args.trace else [False]:
            out = run_dir / f"pass-{index}{'-traced' if traced else ''}"
            spec = {
                "workload": workload.name,
                "config": str(config),
                "traced": traced,
                "out": str(out),
                "result": str(out / "result.json"),
            }
            started = time.monotonic()
            report = spawn(spec, deadline)
            spent += time.monotonic() - started
            report.update(index=index, traced=traced, out=out, config=config)
            passes.append(report)
            if report["error"] is not None:
                return passes
    return passes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    import_planner()
    from council.envs import SynthEnv
    from council.harness import read_tasks

    from perfbench import metrics, workloads

    if args.workload not in workloads.WORKLOADS:
        known = sorted(workloads.WORKLOADS)
        raise SetupError(f"unknown workload {args.workload!r}; one of {known}")
    workload = workloads.WORKLOADS[args.workload]
    # Only the latest run's outputs are kept; memory files stay cached.
    shutil.rmtree(WORK / "runs", ignore_errors=True)
    run_dir = WORK / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}"
    passes = run_passes(args, workload, run_dir, deadline)

    checker = Checker()
    env = SynthEnv(workloads.SYNTH)
    attempted = 0
    runs: dict[Path, dict] = {}
    for p in passes:
        label = f"pass {p['index']}{' traced' if p['traced'] else ''}"
        if not p["traced"]:
            attempted += p["tasks"]
        if p["error"] is not None:
            error = p["error"]
            checker.check(False, f"{label}: task {error['task']} raised:\n{error['traceback']}")
            checker.failed_tasks += 1
            continue
        run = runs[p["out"]] = read_run(p["out"])
        checker.pass_outputs(run, read_tasks(p["config"].parent / "tasks.jsonl"), env, p["sends"])
        p["digests"] = {name: sha256(p["out"] / name) for name in ("metrics.jsonl", "trace.jsonl")}
        for name, digest in p["digests"].items():
            print(f"{label}: {name} sha256 {digest}")
    print(f"task_error_rate = {checker.failed_tasks / max(attempted, 1):.6g} ratio")

    values: dict = {}
    if any(p["error"] is not None for p in passes):
        print("no metrics: an aborted pass has no complete timings")
    elif args.trace:
        plain = {p["index"]: p for p in passes if not p["traced"]}
        pairs = [(plain[p["index"]], p) for p in passes if p["traced"]]
        for untraced, traced in pairs:
            checker.check(
                untraced["digests"] == traced["digests"],
                f"pass {traced['index']}: traced output differs from untraced output",
            )
        values, gap = metrics.per_layer(pairs, [runs[t["out"]] for _, t in pairs])
        print(f"self times sum to traced task time within {gap:.3g} s")
        checker.check(gap < 1e-6, f"self times miss traced task time by {gap} s")
    else:
        values = metrics.end_to_end(passes)
        summaries = [runs[p["out"]] for p in passes]
        tasks = sum(len(s["rows"]) for s in summaries)
        print(f"{tasks} tasks in {len(passes)} passes, one process each")
        print(f"solve_rate = {metrics.solve_rate(summaries):.6g} ratio")
        print(f"backend_calls_per_task = {sum(p['sends'] for p in passes) / tasks:.6g} count/task")

    for name, entry in values.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not checker.problems,
        "attempted": max(attempted, 1),
        "failed": checker.failed_tasks,
        "metrics": values,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (SetupError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
