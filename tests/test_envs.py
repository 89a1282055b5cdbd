"""The environment contract: a chain of ``apply`` calls from ``initial`` is
what ``replay`` rebuilds, and ``apply`` never changes the state it is given."""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from council.envs.base import Environment, TaskSpec
from council.envs.game24 import Game24Env, legal_actions
from council.envs.synth import SynthConfig, SynthEnv, family_vocab


def check_apply_chain_matches_replay(env: Environment, task: TaskSpec, choose) -> None:
    """Apply actions picked by ``choose(state)`` until the episode ends or
    twelve steps are spent, checking each step against ``replay``."""
    state, observation = env.initial(task)
    assert env.replay(task, []).observation == observation
    actions, outcomes = [], []
    for _ in range(12):
        given_state, snapshot = state, copy.deepcopy(state)
        action = choose(state)
        state, outcome = env.apply(task, given_state, action)
        assert given_state == snapshot
        actions.append(action)
        outcomes.append(outcome)
        replayed = env.replay(task, actions)
        assert replayed.state == state
        assert replayed.outcomes == outcomes
        assert replayed.observation == outcome.observation
        assert (replayed.terminal, replayed.reward) == (outcome.terminal, outcome.reward)
        if outcome.terminal:
            return


SYNTH = SynthConfig(depth=3, budget=3, vocab_size=6)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(SYNTH.families),
    seed=st.integers(0, 999),
    data=st.data(),
)
def test_synth_apply_chains_agree_with_replay(family, seed, data):
    env = SynthEnv(SYNTH)
    task = TaskSpec("t", "synth", {"family": family, "seed": seed})
    hidden = env.hidden(task)
    pool = family_vocab(family, SYNTH) + list(hidden) + ["", "  ", "stray"]

    def choose(state):
        # Lean on the answer so chains often win as well as lose.
        return data.draw(st.sampled_from(pool + [hidden[state.done]] * 4))

    check_apply_chain_matches_replay(env, task, choose)


@settings(max_examples=60, deadline=None)
@given(numbers=st.lists(st.integers(1, 13), min_size=2, max_size=4), data=st.data())
def test_game24_apply_chains_agree_with_replay(numbers, data):
    env = Game24Env()
    task = TaskSpec("t", "game24", numbers)

    def choose(state):
        invalid = ["1+1=3", "nonsense", "99*2=198", "5/0=0"]
        return data.draw(st.sampled_from(legal_actions(state) + invalid))

    check_apply_chain_matches_replay(env, task, choose)
