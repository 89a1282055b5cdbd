"""Release gate: twelve numbered checks covering the math oracles, the
offline ablation orderings, and reproducibility.

Each test prints one "CRITERION n PASS/FAIL" verdict straight to the
terminal (bypassing capture) and then asserts, so a full run leaves a
twelve-line scoreboard. The two ablation sweeps are expensive and shared
through module-scoped fixtures.

Criteria 8 to 12 build each experiment as a ``RunConfig`` and execute it with
``harness.run``, the same path ``council run`` takes.
"""

from __future__ import annotations

import itertools
import math
import random
import time

import numpy as np
import pytest

from council.config import EnvSpec, ExpertSpec, PlannerConfig, RunConfig, SearchBudget
from council.embedding import TrigramEmbedder
from council.envs.base import TaskSpec
from council.envs.game24 import Game24Env, game24_oracle, make_game24_tasks
from council.envs.synth import DEFAULT_FAMILIES, make_synth_tasks
from council.experts import Council
from council.harness import run
from council.mcts import SearchTree, backpropagate, select_path, uct_score
from council.memory import ExpertProfile, Query, sms_utility
from council.routing import route, routing_distribution
from council.trajectory import Trajectory, serialize_trajectory
from council.values import fuse_batch, fusion_weight

from conftest import FixedExpert, make_trajectory, record_history, solvable_by_expressions

SWEEP_SEEDS = (1, 2, 3, 4, 5)
SYNTH_TASKS = 300
SYNTH_WARMUP = 100

WORDS = (
    "amber", "basalt", "cedar", "delta", "ember", "flint", "gorse", "heath",
    "iris", "jasper", "krill", "lumen", "maple", "nadir", "ochre", "pluto",
)


def _report(capsys, criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {criterion} {verdict}: {detail}", flush=True)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def game24_solver_config(out_dir) -> RunConfig:
    """The exact-solver expert at the default search budget."""
    return RunConfig(
        seed=1,
        env=EnvSpec(name="game24"),
        council=[ExpertSpec("solver", params={"role": "game24-oracle"})],
        out_dir=str(out_dir),
    )


def synth_config(
    seed: int,
    out_dir,
    strategy: str = "task-aware",
    value_mode: str = "full",
    eval_noise: float = 0.0,
    warmup_tasks: int = SYNTH_WARMUP,
) -> RunConfig:
    """One specialist per family on the family-specialization environment."""
    return RunConfig(
        seed=seed,
        env=EnvSpec(name="synth"),
        council=[
            ExpertSpec(
                f"{family}-specialist",
                params={"role": "synth-specialist", "family": family, "eval_noise": eval_noise},
            )
            for family in DEFAULT_FAMILIES
        ],
        # The iteration budget is deliberately tight. Round-robin cycling
        # solves these tasks by brute force once each specialist gets enough
        # turns, so a small budget is what makes routing quality visible.
        planner=PlannerConfig(
            budget=SearchBudget(iterations=12, expansion_width=2, max_depth=9),
            routing_strategy=strategy,
            routing_temperature=0.15,
            value_mode=value_mode,
        ),
        out_dir=str(out_dir),
        warmup_tasks=warmup_tasks,
        # Wider hash space than the 256 default: family separation rests on
        # rare cross-family n-grams, and collisions would reintroduce them.
        embedding_dim=1024,
    )


# ---------------------------------------------------------------------------
# 1. Backpropagated values match a brute-force mean on random trees
# ---------------------------------------------------------------------------


def _path_from_root(tree: SearchTree, node) -> list:
    path = [node]
    while path[-1].parent is not None:
        path.append(tree.node(path[-1].parent))
    return list(reversed(path))


def test_criterion_01_backpropagation_oracle(capsys):
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        tree = SearchTree()
        nodes = [tree.add(Query(Trajectory()))]
        for _ in range(rng.randrange(3, 12)):
            parent = rng.choice(nodes)
            child = tree.add(Query(Trajectory()), parent=parent.node_id)
            parent.children.append(child.node_id)
            nodes.append(child)
        returns: dict[int, list[float]] = {node.node_id: [] for node in nodes}
        for _ in range(1000):
            target = rng.choice(nodes)
            reward = rng.random()
            path = _path_from_root(tree, target)
            backpropagate(path, reward)
            for node in path:
                returns[node.node_id].append(reward)
        for node in nodes:
            seen = returns[node.node_id]
            assert node.visits == len(seen)
            if seen:
                worst = max(worst, abs(node.value - math.fsum(seen) / len(seen)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    _report(capsys, 1, ok, f"max node error {worst:.2e} over 50 shapes ({elapsed:.2f}s)")
    assert worst < 1e-9
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. Segment utility matches the direct usage-weighted formula
# ---------------------------------------------------------------------------


def test_criterion_02_utility_property_suite(capsys):
    rng = random.Random(202)
    start = time.perf_counter()
    # Each history is a run of episodes that retrieve one fresh segment and
    # are finalized through the episode API; a None outcome is an episode
    # that never finishes.
    profile = ExpertProfile("solo", embedder=TrigramEmbedder(16))

    def _segment(entries: list[tuple[bool | None, int]]):
        segment = profile.insert(make_trajectory([(f"history {len(profile)}", "act")]))
        record_history(profile, segment.segment_id, entries)
        return segment

    assert sms_utility(_segment([(True, 1), (True, 4)])) == 1.0
    assert sms_utility(_segment([(False, 2), (False, 1)])) == 0.0
    worst = 0.0
    for _ in range(2000):
        entries = [
            (rng.choice([None, True, False]), rng.randint(1, 9))
            for _ in range(rng.randrange(0, 8))
        ]
        value = sms_utility(_segment(entries))
        assert 0.0 <= value <= 1.0
        decided = [(y, u) for y, u in entries if y is not None]
        expected = (
            sum(u for y, u in decided if y) / sum(u for _, u in decided)
            if decided
            else 0.5
        )
        worst = max(worst, abs(value - expected))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    _report(capsys, 2, ok, f"max utility error {worst:.2e} over 2000 histories ({elapsed:.2f}s)")
    assert worst < 1e-12
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. Routing softmax: normalization, shift invariance, symmetry, hand value
# ---------------------------------------------------------------------------


def test_criterion_03_routing_distribution_suite(capsys):
    rng = random.Random(303)
    start = time.perf_counter()
    norm_err = shift_err = 0.0
    for _ in range(500):
        n = rng.randrange(1, 7)
        mu = {f"e{i}": rng.uniform(-2.0, 2.0) for i in range(n)}
        temperature = rng.choice([0.1, 0.5, 1.0, 3.0])
        dist = routing_distribution(mu, temperature)
        norm_err = max(norm_err, abs(sum(dist.values()) - 1.0))
        shift = rng.uniform(-5.0, 5.0)
        shifted = routing_distribution({k: v + shift for k, v in mu.items()}, temperature)
        for key in mu:
            shift_err = max(shift_err, abs(dist[key] - shifted[key]))
    uniform = routing_distribution({"a": 0.7, "b": 0.7, "c": 0.7}, 0.5)
    sym_err = max(abs(p - 1.0 / 3.0) for p in uniform.values())
    hand = routing_distribution({"a": 1.0, "b": 0.0}, 0.5)
    hand_err = max(abs(hand["a"] - 0.88080), abs(hand["b"] - 0.11920))
    elapsed = time.perf_counter() - start
    ok = (
        norm_err < 1e-12
        and shift_err < 1e-10
        and sym_err < 1e-12
        and hand_err < 1e-5
        and elapsed < 1.0
    )
    _report(
        capsys, 3,
        ok,
        f"norm {norm_err:.1e}, shift {shift_err:.1e}, hand {hand_err:.1e} ({elapsed:.2f}s)",
    )
    assert norm_err < 1e-12
    assert shift_err < 1e-10
    assert sym_err < 1e-12
    assert hand_err < 1e-5
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 4. Match scores and exemplar retrieval agree with exhaustive linear scans
# ---------------------------------------------------------------------------


def _random_text(rng: random.Random, tag: int) -> str:
    return f"{tag} " + " ".join(rng.choice(WORDS) for _ in range(rng.randrange(2, 6)))


def _fill_profile(profile: ExpertProfile, count: int, rng: random.Random) -> None:
    for i in range(count):
        seg = profile.insert(make_trajectory([(_random_text(rng, i), f"act-{i}")]))
        # Randomized history so utilities differ segment to segment.
        history = []
        for _ in range(rng.randrange(0, 3)):
            usage = rng.randint(1, 4)
            history.append((rng.random() < 0.6, usage))
        record_history(profile, seg.segment_id, history)


def _scan_sims(profile: ExpertProfile, qvec: np.ndarray) -> list[float]:
    qnorm = float(np.linalg.norm(qvec))
    sims = []
    for seg in profile.segments():
        vec = profile.embedder.embed(seg.text)
        vnorm = float(np.linalg.norm(vec))
        if qnorm == 0.0 or vnorm == 0.0:
            sims.append(0.0)
        else:
            sims.append(float(np.dot(vec, qvec)) / (vnorm * qnorm))
    return sims


def _scan_exemplar(profile: ExpertProfile, sims: list[float]) -> str:
    best = max(sims)
    tied = [seg for seg, sim in zip(profile.segments(), sims) if sim == best]
    winner = max(
        tied,
        key=lambda seg: (sms_utility(seg, cold_start=profile.cold_start), -seg.created_at),
    )
    return winner.segment_id


def test_criterion_04_retrieval_linear_scan_oracle(capsys):
    rng = random.Random(404)
    start = time.perf_counter()
    score_err = 0.0

    for size in (10, 100, 1000, 10000):
        profile = ExpertProfile("solo", embedder=TrigramEmbedder(64))
        _fill_profile(profile, size, rng)
        query = make_trajectory([(_random_text(rng, -1), "probe")])
        qvec = profile.embedder.embed(serialize_trajectory(query))
        sims = _scan_sims(profile, qvec)
        got = profile.match_scores(Query(query))
        score_err = max(score_err, float(np.max(np.abs(got - np.array(sims)))))
        best_seg, best_sim = profile.best_match(Query(query))
        top = max(sims)
        assert abs(best_sim - top) < 1e-12
        # Earliest-inserted wins a tied best score.
        assert best_seg.segment_id == profile.segments()[sims.index(top)].segment_id

    council = Council(
        [FixedExpert("a"), FixedExpert("b"), FixedExpert("c")],
        embedder=TrigramEmbedder(64),
    )
    for expert_id in ("a", "b", "c"):
        _fill_profile(council.profile(expert_id), 200, rng)
    for probe in range(20):
        query = make_trajectory([(_random_text(rng, 10000 + probe), "probe")])
        qvec = council.profile("a").embedder.embed(serialize_trajectory(query))
        scores = route(council, Query(query), "task-aware", random.Random(0)).scores
        for expert_id in ("a", "b", "c"):
            profile = council.profile(expert_id)
            sims = _scan_sims(profile, qvec)
            score_err = max(score_err, abs(scores[expert_id] - max(sims)))

        # Exemplar choice, checked where the scan's winner is unambiguous.
        decision = route(council, Query(query), "round-robin", random.Random(0), step_index=0)
        profile = council.profile("a")
        sims = _scan_sims(profile, qvec)
        ranked = sorted(sims, reverse=True)
        if ranked[0] - ranked[1] > 1e-9:
            assert decision.exemplar_segment_id == _scan_exemplar(profile, sims)

    # All-zero query similarity ties every segment; utility then age decide.
    tie_decision = route(
        council, Query(Trajectory()), "round-robin", random.Random(0), step_index=0
    )
    profile = council.profile("a")
    tie_sims = _scan_sims(profile, profile.embedder.embed(serialize_trajectory(Trajectory())))
    assert set(tie_sims) == {0.0}
    assert tie_decision.exemplar_segment_id == _scan_exemplar(profile, tie_sims)

    elapsed = time.perf_counter() - start
    ok = score_err < 1e-12 and elapsed < 30.0
    _report(capsys, 4, ok, f"max score error {score_err:.2e} up to 10000 segments ({elapsed:.1f}s)")
    assert score_err < 1e-12
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 5. Dual-signal fusion: weight bounds, shift invariance, dominance
# ---------------------------------------------------------------------------


def test_criterion_05_fusion_suite(capsys):
    rng = random.Random(505)
    start = time.perf_counter()

    assert fusion_weight(0.3, 0.0) == 1.0
    assert fusion_weight(0.2, 0.2) == 0.5
    for _ in range(500):
        alpha = fusion_weight(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
        assert 0.0 <= alpha <= 1.0

    shift_err = 0.0
    for _ in range(500):
        n = rng.randrange(2, 7)
        llm = [rng.uniform(0.0, 0.5) for _ in range(n)]
        sms = [rng.uniform(0.0, 1.0) for _ in range(n)]
        shift = rng.uniform(0.0, 0.5)
        base = fuse_batch(llm, sms).values
        moved = fuse_batch([v + shift for v in llm], sms).values
        for a, b in zip(base, moved):
            shift_err = max(shift_err, abs(a - b))

    dominance_holds = True
    for _ in range(1000):
        n = rng.randrange(2, 7)
        llm = [rng.uniform(0.0, 0.8) for _ in range(n)]
        sms = [rng.uniform(0.0, 0.8) for _ in range(n)]
        lead = rng.randrange(n)
        llm[lead] = max(llm) + 0.05
        sms[lead] = max(sms) + 0.05
        fused = fuse_batch(llm, sms).values
        if fused[lead] < max(fused):
            dominance_holds = False

    elapsed = time.perf_counter() - start
    ok = shift_err < 1e-10 and dominance_holds and elapsed < 2.0
    _report(capsys, 5, ok, f"shift error {shift_err:.1e}, dominance on 1000 batches ({elapsed:.2f}s)")
    assert shift_err < 1e-10
    assert dominance_holds
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# 6. Selection rule: unvisited first, c = 0 reduction, hand value, brute force
# ---------------------------------------------------------------------------


def _brute_force_path(tree: SearchTree, exploration: float) -> list[int]:
    node = tree.root
    ids = [node.node_id]
    while node.children:
        best_key = None
        best_child = None
        for cid in node.children:
            child = tree.node(cid)
            if child.visits == 0:
                score = math.inf
            else:
                score = child.value + exploration * math.sqrt(
                    math.log(max(node.visits, 1)) / child.visits
                )
            key = (score, child.fused_value if child.fused_value is not None else 0.0, -cid)
            if best_key is None or key > best_key:
                best_key = key
                best_child = child
        node = best_child
        ids.append(node.node_id)
    return ids


def test_criterion_06_selection_rule_suite(capsys):
    rng = random.Random(606)
    start = time.perf_counter()

    assert uct_score(0.3, 0, 5, 1.0) == math.inf
    assert uct_score(0.7, 4, 9, 0.0) == 0.7
    hand = uct_score(0.5, 2, 8, 1.0)
    expected = 0.5 + math.sqrt(math.log(8.0) / 2.0)
    hand_err = abs(hand - expected)

    mismatches = 0
    for _ in range(200):
        tree = SearchTree()
        nodes = [tree.add(Query(Trajectory()))]
        for _ in range(rng.randrange(2, 16)):
            parent = rng.choice(nodes)
            child = tree.add(Query(Trajectory()), parent=parent.node_id)
            parent.children.append(child.node_id)
            nodes.append(child)
        for node in nodes:
            node.visits = rng.randrange(0, 12)
            node.value = rng.random()
            node.fused_value = rng.random() if rng.random() < 0.7 else None
        exploration = rng.choice([0.0, 0.5, 1.0, 2.0])
        got = [n.node_id for n in select_path(tree, exploration)]
        if got != _brute_force_path(tree, exploration):
            mismatches += 1

    elapsed = time.perf_counter() - start
    ok = hand_err < 1e-4 and mismatches == 0 and elapsed < 2.0
    _report(capsys, 6, ok, f"hand value {hand:.7f}, 200 trees, {mismatches} mismatches ({elapsed:.2f}s)")
    assert hand_err < 1e-4
    assert mismatches == 0
    assert elapsed < 2.0


# ---------------------------------------------------------------------------
# 7. Arithmetic-puzzle oracle cross-check
# ---------------------------------------------------------------------------


def test_criterion_07_game24_oracle_cross_check(capsys):
    start = time.perf_counter()
    env = Game24Env()
    multisets = list(itertools.combinations_with_replacement(range(1, 7), 4))
    assert len(multisets) == 126
    solvable_count = 0
    for numbers in multisets:
        solvable, witness = game24_oracle(numbers)
        assert solvable == solvable_by_expressions(numbers)
        if solvable:
            solvable_count += 1
            task = TaskSpec(
                task_id="check", environment="game24", payload=list(numbers)
            )
            result = env.replay(task, witness)
            assert result.terminal
            assert result.reward == 1.0
    assert game24_oracle((4, 4, 10, 10))[0]
    assert not game24_oracle((1, 1, 1, 1))[0]
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _report(capsys, 7, ok, f"126 multisets agree, {solvable_count} solvable, witnesses replay ({elapsed:.1f}s)")
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. End-to-end offline search solves the puzzle suite within budget
# ---------------------------------------------------------------------------


def test_criterion_08_offline_search_success(tmp_path, capsys):
    start = time.perf_counter()
    tasks = make_game24_tasks(100, seed=11)
    first = run(game24_solver_config(tmp_path / "first"), tasks=tasks)
    second = run(game24_solver_config(tmp_path / "second"), tasks=tasks)
    rate = first.summary["success_rate"]
    elapsed = time.perf_counter() - start
    ok = rate >= 0.95 and first.rows == second.rows and elapsed < 60.0
    _report(capsys, 8, ok, f"success rate {rate:.2f} on 100 tasks at 10 iterations ({elapsed:.1f}s)")
    assert rate >= 0.95
    assert first.rows == second.rows
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 9 and 11. Routing sweep: success ordering and node efficiency
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def routing_sweep(tmp_path_factory):
    """Every run of the sweep writes into one directory; only the returned
    summaries are compared."""
    out_dir = tmp_path_factory.mktemp("routing-sweep")
    start = time.perf_counter()
    tasks = make_synth_tasks(SYNTH_TASKS, seed=29)
    rates: dict[str, float] = {}
    nodes: dict[str, float] = {}
    for strategy in ("task-aware", "random", "round-robin"):
        outputs = [
            run(synth_config(seed, out_dir, strategy=strategy), tasks=tasks)
            for seed in SWEEP_SEEDS
        ]
        rates[strategy] = _mean(o.summary["scored_success_rate"] for o in outputs)
        per_success = [
            o.summary["nodes_per_success"]
            for o in outputs
            if o.summary["nodes_per_success"] is not None
        ]
        nodes[strategy] = _mean(per_success)
    return rates, nodes, time.perf_counter() - start


def test_criterion_09_routing_ablation_ordering(routing_sweep, capsys):
    rates, _, elapsed = routing_sweep
    aware = rates["task-aware"]
    rand = rates["random"]
    cycle = rates["round-robin"]
    ok = aware - rand >= 0.15 and aware > cycle and elapsed < 120.0
    _report(
        capsys, 9,
        ok,
        f"mean success task-aware {aware:.3f}, random {rand:.3f}, round-robin {cycle:.3f} ({elapsed:.1f}s)",
    )
    assert aware - rand >= 0.15
    assert aware > cycle
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 10. Value-signal sweep: fused beats each single signal
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def value_sweep(tmp_path_factory):
    """Noisy evaluators, memory warmed in-run. Routing is pinned to
    round-robin so every mode sees the identical expert schedule, and the
    differences isolate the value signals from routing luck."""
    out_dir = tmp_path_factory.mktemp("value-sweep")
    start = time.perf_counter()
    tasks = make_synth_tasks(SYNTH_TASKS, seed=43)
    rates: dict[str, float] = {}
    for mode in ("full", "llm-only", "sms-only", "env-only"):
        outputs = [
            run(
                synth_config(
                    seed, out_dir, strategy="round-robin", value_mode=mode, eval_noise=0.2
                ),
                tasks=tasks,
            )
            for seed in SWEEP_SEEDS
        ]
        rates[mode] = _mean(o.summary["scored_success_rate"] for o in outputs)
    return rates, time.perf_counter() - start


def test_criterion_10_value_signal_ordering(value_sweep, capsys):
    rates, elapsed = value_sweep
    full = rates["full"]
    ok = (
        full >= rates["llm-only"]
        and full >= rates["sms-only"]
        and elapsed < 180.0
    )
    detail = ", ".join(f"{mode} {rates[mode]:.3f}" for mode in rates)
    _report(capsys, 10, ok, f"mean success {detail} ({elapsed:.1f}s)")
    assert full >= rates["llm-only"]
    assert full >= rates["sms-only"]
    assert elapsed < 180.0


def test_criterion_11_search_efficiency_ordering(routing_sweep, capsys):
    _, nodes, _ = routing_sweep
    aware = nodes["task-aware"]
    rand = nodes["random"]
    ok = aware <= rand
    _report(capsys, 11, ok, f"nodes per success task-aware {aware:.2f}, random {rand:.2f}")
    assert aware <= rand


# ---------------------------------------------------------------------------
# 12. Byte-identical reruns
# ---------------------------------------------------------------------------


def test_criterion_12_reproducibility(tmp_path, capsys):
    tasks = make_synth_tasks(20, seed=29)
    for name in ("a", "b"):
        run(synth_config(9, tmp_path / name, warmup_tasks=5), tasks=tasks)
    metrics_same = (
        (tmp_path / "a" / "metrics.jsonl").read_bytes()
        == (tmp_path / "b" / "metrics.jsonl").read_bytes()
    )
    trace_same = (
        (tmp_path / "a" / "trace.jsonl").read_bytes()
        == (tmp_path / "b" / "trace.jsonl").read_bytes()
    )
    ok = metrics_same and trace_same
    _report(capsys, 12, ok, "metrics and trace files byte-identical across reruns")
    assert metrics_same
    assert trace_same
