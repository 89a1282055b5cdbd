"""The 24 game: step semantics, both solvability checks, task generation."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from council.envs.base import TaskSpec
from council.envs.game24 import (
    Game24Env,
    game24_oracle,
    game24_step,
    legal_actions,
    make_game24_tasks,
    parse_numbers,
)
from council.errors import InvalidStateError

from conftest import solvable_by_expressions


def test_final_combine_is_terminal_and_scored():
    numbers, outcome = game24_step((1.0, 1.0), "1+1=2")
    assert numbers == (2.0,)
    assert outcome.terminal
    assert outcome.reward == 0.0
    assert outcome.observation.text == "failed; numbers: 2"


def test_final_combine_reaching_24_pays_one():
    numbers, outcome = game24_step((12.0, 2.0), "12*2=24")
    assert outcome.terminal
    assert outcome.reward == 1.0
    assert outcome.observation.text == "solved; numbers: 24"


def test_combining_shrinks_the_multiset_by_one():
    numbers, outcome = game24_step((4.0, 4.0, 10.0, 10.0), "10*10=100")
    assert sorted(numbers) == [4.0, 4.0, 100.0]
    assert not outcome.terminal
    assert outcome.reward is None
    assert outcome.observation.text == "numbers: 4 4 100"


def test_malformed_action_is_rejected_unchanged():
    numbers, outcome = game24_step((1.0, 2.0, 3.0), "add one and two")
    assert sorted(numbers) == [1.0, 2.0, 3.0]
    assert outcome.invalid
    assert not outcome.terminal
    assert "invalid action" in outcome.observation.text


def test_missing_operand_is_rejected():
    numbers, outcome = game24_step((1.0, 2.0, 3.0), "5+1=6")
    assert outcome.invalid
    assert "5 is not available" in outcome.observation.text


def test_an_operand_cannot_be_used_twice():
    numbers, outcome = game24_step((7.0, 2.0), "7*7=49")
    assert outcome.invalid
    assert sorted(numbers) == [2.0, 7.0]


def test_division_by_zero_is_rejected():
    numbers, outcome = game24_step((5.0, 0.0, 3.0), "5/0=0")
    assert outcome.invalid
    assert "division by zero" in outcome.observation.text


def test_a_result_that_overflows_is_no_move():
    big = 10**308
    numbers = (float(big), float(big), 3.0)
    actions = legal_actions(numbers)
    assert actions and not any("inf" in action or "nan" in action for action in actions)
    assert f"{big}+{big}={2 * big}" not in actions
    _, outcome = game24_step(numbers, f"{big}*{big}={big * big}")
    assert outcome.invalid
    assert "overflow" in outcome.observation.text
    assert game24_oracle(numbers) == (False, None)


def test_a_wrong_stated_result_is_rejected():
    numbers, outcome = game24_step((3.0, 4.0), "3*4=11")
    assert outcome.invalid
    assert sorted(numbers) == [3.0, 4.0]


def test_actions_on_a_single_number_are_invalid_state():
    with pytest.raises(InvalidStateError):
        game24_step((24.0,), "24+0=24")


def test_operator_aliases_are_accepted():
    for text, expected in (("3x4=12", 12.0), ("3×4=12", 12.0), ("9−4=5", 5.0), ("8÷2=4", 4.0)):
        numbers, outcome = game24_step((3.0, 4.0, 9.0, 8.0, 2.0), text)
        assert not outcome.invalid
        assert expected in numbers


def test_three_valid_moves_finish_a_four_number_task():
    state = (4.0, 4.0, 10.0, 10.0)
    for action in ("10*10=100", "4*4=16", "100-16=84"):
        assert len(state) >= 2
        state, outcome = game24_step(state, action)
        assert not outcome.invalid
    assert outcome.terminal
    assert outcome.reward == 0.0
    assert len(state) == 1


def test_parse_numbers_round_trips_observations():
    _, outcome = game24_step((4.0, 4.0, 10.0, 10.0), "10*10=100")
    assert parse_numbers(outcome.observation.text) == (4.0, 4.0, 100.0)
    assert parse_numbers("make 24; numbers: 1 5 5 5") == (1.0, 5.0, 5.0, 5.0)
    assert parse_numbers("no numbers here") is None


def test_legal_actions_are_distinct_and_all_applicable():
    numbers = (2.0, 2.0, 3.0, 12.0)
    actions = legal_actions(numbers)
    assert len(actions) == len(set(actions))
    for action in actions:
        _, outcome = game24_step(numbers, action)
        assert not outcome.invalid


def test_legal_actions_do_not_duplicate_commutative_pairs():
    actions = legal_actions((3.0, 5.0))
    assert "3+5=8" in actions
    assert "5+3=8" not in actions
    assert "3*5=15" in actions
    assert "5*3=15" not in actions
    assert "5-3=2" in actions and "3-5=-2" in actions


# -- solvability -----------------------------------------------------------------


def test_oracle_on_known_instances():
    solvable, witness = game24_oracle((4.0, 4.0, 10.0, 10.0))
    assert solvable and witness
    solvable, witness = game24_oracle((1.0, 1.0, 1.0, 1.0))
    assert not solvable and witness is None
    solvable, _ = game24_oracle((24.0, 1.0, 1.0, 1.0))
    assert solvable


def test_oracle_witness_replays_to_a_win():
    for combo in ((4, 4, 10, 10), (3, 3, 8, 8), (1, 5, 5, 5)):
        state = tuple(float(x) for x in combo)
        solvable, witness = game24_oracle(state)
        assert solvable
        for action in witness:
            state, outcome = game24_step(state, action)
            assert not outcome.invalid
        assert outcome.terminal
        assert outcome.reward == 1.0


def test_the_two_solvability_checks_agree_on_small_values():
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(1, 5), 4):
        floats = tuple(float(x) for x in combo)
        assert game24_oracle(floats)[0] == solvable_by_expressions(floats)


@settings(max_examples=30, deadline=None)
@given(st.tuples(*(st.integers(1, 13) for _ in range(4))))
def test_enumeration_agreement_on_sampled_instances(combo):
    floats = tuple(float(x) for x in combo)
    assert game24_oracle(floats)[0] == solvable_by_expressions(floats)


def test_expression_enumeration_needs_exactly_four_numbers():
    with pytest.raises(ValueError):
        solvable_by_expressions((1.0, 2.0, 3.0))


def test_the_expression_check_shares_no_arithmetic_with_the_environment(monkeypatch):
    # With the environment's arithmetic gone, the oracle finds no move at
    # all, and the independent check still solves 1*2*3*4.
    monkeypatch.setattr("council.envs.game24._apply_op", lambda a, op, b: None)
    assert solvable_by_expressions((1.0, 2.0, 3.0, 4.0))
    assert legal_actions((1.0, 2.0, 3.0, 4.0)) == []


# -- environment wrapper ------------------------------------------------------------


def test_initial_observation_presents_the_task():
    env = Game24Env()
    task = TaskSpec(task_id="g24-1-5-5-5", environment="game24", payload=[5, 5, 5, 1])
    state, obs = env.initial(task)
    assert obs.text == "make 24; numbers: 1 5 5 5"
    assert sorted(state) == [1.0, 5.0, 5.0, 5.0]


def test_single_number_payload_is_terminal_at_replay():
    env = Game24Env()
    won = env.replay(TaskSpec("g24-24", "game24", [24]), [])
    assert won.terminal and won.reward == 1.0
    lost = env.replay(TaskSpec("g24-7", "game24", [7]), [])
    assert lost.terminal and lost.reward == 0.0


def test_replay_after_terminal_is_invalid_state():
    env = Game24Env()
    task = TaskSpec("g24-12-2", "game24", [12, 2])
    with pytest.raises(InvalidStateError):
        env.replay(task, ["12*2=24", "24+0=24"])


def test_replay_threads_outcomes_in_order():
    env = Game24Env()
    task = TaskSpec("g24-4-4-10-10", "game24", [4, 4, 10, 10])
    result = env.replay(task, ["10*10=100", "4*4=16", "100-16=84"])
    assert [o.terminal for o in result.outcomes] == [False, False, True]
    assert result.reward == 0.0
    assert result.state == (84.0,)


# -- task generation ------------------------------------------------------------------


def test_generated_tasks_are_distinct_solvable_and_deterministic():
    tasks = make_game24_tasks(25, seed=3)
    again = make_game24_tasks(25, seed=3)
    assert [t.task_id for t in tasks] == [t.task_id for t in again]
    ids = {t.task_id for t in tasks}
    assert len(ids) == 25
    for task in tasks:
        assert task.environment == "game24"
        assert len(task.payload) == 4
        assert game24_oracle(tuple(float(x) for x in task.payload))[0]
        name = "-".join(str(x) for x in sorted(task.payload))
        assert task.task_id == f"g24-{name}"


def test_different_seeds_give_different_task_lists():
    a = [t.task_id for t in make_game24_tasks(15, seed=1)]
    b = [t.task_id for t in make_game24_tasks(15, seed=2)]
    assert a != b


def test_asking_for_more_tasks_than_the_range_holds_raises_promptly():
    # 1..3 holds 15 four-number multisets, 6 of them solvable.
    assert len(make_game24_tasks(6, seed=1, low=1, high=3)) == 6
    errors: list[str] = []

    def ask() -> None:
        try:
            make_game24_tasks(7, seed=1, low=1, high=3)
        except ValueError as exc:
            errors.append(str(exc))

    worker = threading.Thread(target=ask, daemon=True)
    worker.start()
    worker.join(timeout=1.0)
    assert not worker.is_alive()
    assert errors == [
        "only 6 of the 15 four-number multisets in [1, 3] are solvable, fewer than the 7 asked for"
    ]
