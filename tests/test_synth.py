"""Synthetic specialization environment: numerals, vocabularies, episode flow."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from council.envs.base import TaskSpec
from council.envs.synth import (
    DEFAULT_FAMILIES,
    SynthConfig,
    SynthEnv,
    decode_count,
    encode_count,
    family_letters,
    family_vocab,
    hidden_sequence,
    make_synth_tasks,
    parse_view,
)
from council.errors import InvalidStateError


def test_letter_alphabets_are_disjoint_across_families():
    cfg = SynthConfig()
    alphabets = [set(family_letters(f, cfg)) for f in cfg.families]
    for i in range(len(alphabets)):
        for j in range(i + 1, len(alphabets)):
            assert not alphabets[i] & alphabets[j]


def test_vocabularies_are_disjoint_and_sized():
    cfg = SynthConfig(vocab_size=10)
    vocabs = [set(family_vocab(f, cfg)) for f in cfg.families]
    for vocab in vocabs:
        assert len(vocab) == 10
    assert not (vocabs[0] & vocabs[1]) and not (vocabs[1] & vocabs[2])


def test_unknown_family_is_rejected():
    with pytest.raises(ValueError):
        family_letters("quartz", SynthConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(depth=0)
    with pytest.raises(ValueError):
        SynthConfig(budget=0)
    with pytest.raises(ValueError):
        SynthConfig(vocab_size=1)
    with pytest.raises(ValueError):
        SynthConfig(families=("amber", "amber"))
    with pytest.raises(ValueError):
        SynthConfig(vocab_size=65)


def test_count_encoding_examples():
    letters = family_letters("amber", SynthConfig())
    assert encode_count(0, letters) == "a"
    assert encode_count(7, letters) == "h"
    assert encode_count(8, letters) == "ba"
    assert decode_count("ba", letters) == 8
    assert decode_count("z", letters) is None
    assert decode_count("", letters) is None
    with pytest.raises(ValueError):
        encode_count(-1, letters)


@given(st.integers(0, 10_000), st.sampled_from(DEFAULT_FAMILIES))
def test_count_encoding_round_trips(value, family):
    letters = family_letters(family, SynthConfig())
    assert decode_count(encode_count(value, letters), letters) == value


def test_hidden_sequence_is_deterministic_and_in_vocabulary():
    cfg = SynthConfig()
    seq = hidden_sequence("amber", 12, cfg)
    assert seq == hidden_sequence("amber", 12, cfg)
    assert len(seq) == cfg.depth
    assert all(token in family_vocab("amber", cfg) for token in seq)


def test_changing_a_returned_vocabulary_leaves_later_calls_intact():
    cfg = SynthConfig(vocab_size=4)
    vocab = family_vocab("amber", cfg)
    expected = list(vocab)
    vocab.clear()
    assert family_vocab("amber", cfg) == expected
    assert all(token in expected for token in hidden_sequence("amber", 3, cfg))


def test_hidden_sequences_vary_across_seeds():
    cfg = SynthConfig()
    sequences = {hidden_sequence("amber", s, cfg) for s in range(30)}
    assert len(sequences) > 20


# -- environment steps ----------------------------------------------------------


def setup_env(config: SynthConfig | None = None):
    cfg = config if config is not None else SynthConfig()
    env = SynthEnv(cfg)
    task = TaskSpec(
        task_id="synth-amber-0000", environment="synth", payload={"family": "amber", "seed": 5}
    )
    state, obs = env.initial(task)
    return cfg, env, task, state, obs


def test_initial_observation_lists_the_vocabulary():
    cfg, env, task, state, obs = setup_env()
    for token in family_vocab("amber", cfg):
        assert token in obs.text
    view = parse_view(obs.text, cfg)
    assert view is not None
    assert view.family == "amber"
    assert view.seed == 5
    assert (view.done, view.missed) == (0, 0)
    assert (view.depth, view.budget) == (cfg.depth, cfg.budget)
    assert not view.solved and not view.failed


def test_correct_tokens_advance_and_finish_with_reward_one():
    cfg, env, task, state, obs = setup_env()
    answer = env.hidden(task)
    for i, token in enumerate(answer):
        state, outcome = env.apply(task, state, token)
        view = parse_view(outcome.observation.text, cfg)
        assert view.done == i + 1
        if i + 1 == cfg.depth:
            assert outcome.terminal and outcome.reward == 1.0
            assert view.solved
        else:
            assert not outcome.terminal and outcome.reward is None


def test_wrong_token_burns_an_attempt_and_budget_exhaustion_loses():
    cfg, env, task, state, obs = setup_env(SynthConfig(budget=2))
    wrong = next(t for t in family_vocab("amber", cfg) if t != env.hidden(task)[0])
    state, outcome = env.apply(task, state, wrong)
    view = parse_view(outcome.observation.text, cfg)
    assert view.missed == 1 and not outcome.terminal
    state, outcome = env.apply(task, state, wrong)
    assert outcome.terminal and outcome.reward == 0.0
    assert parse_view(outcome.observation.text, cfg).failed


def test_a_correct_token_resets_the_miss_counter():
    cfg, env, task, state, obs = setup_env(SynthConfig(budget=3))
    answer = env.hidden(task)
    wrong = next(t for t in family_vocab("amber", cfg) if t != answer[0])
    state, outcome = env.apply(task, state, wrong)
    state, outcome = env.apply(task, state, answer[0])
    view = parse_view(outcome.observation.text, cfg)
    assert view.done == 1 and view.missed == 0


def test_foreign_tokens_are_wrong_but_legal():
    cfg, env, task, state, obs = setup_env()
    foreign = family_vocab("basalt", cfg)[0]
    state, outcome = env.apply(task, state, foreign)
    assert not outcome.invalid
    assert parse_view(outcome.observation.text, cfg).missed == 1


def test_blank_actions_are_invalid_without_consuming_budget():
    cfg, env, task, state, obs = setup_env()
    new_state, outcome = env.apply(task, state, "   ")
    assert outcome.invalid
    assert new_state == state
    assert parse_view(outcome.observation.text, cfg).missed == 0


def test_replay_after_a_win_is_invalid_state():
    cfg, env, task, state, obs = setup_env()
    answer = list(env.hidden(task))
    done = env.replay(task, answer)
    assert done.terminal and done.reward == 1.0
    with pytest.raises(InvalidStateError):
        env.replay(task, answer + [answer[0]])


def test_parse_view_rejects_foreign_text():
    cfg = SynthConfig()
    assert parse_view("numbers: 1 2 3", cfg) is None
    assert parse_view("", cfg) is None
    assert parse_view("[quartz#a] go +a/d ~a/c", cfg) is None


def test_parse_view_tracks_a_replayed_episode():
    cfg, env, task, state, obs = setup_env()
    answer = env.hidden(task)
    wrong = next(t for t in family_vocab("amber", cfg) if t != answer[1])
    result = env.replay(task, [answer[0], wrong])
    view = parse_view(result.observation.text, cfg)
    assert view.done == 1
    assert view.missed == 1


# -- task generation ----------------------------------------------------------------


def test_tasks_cycle_families_evenly():
    tasks = make_synth_tasks(9, seed=1)
    families = [t.payload["family"] for t in tasks]
    assert families == list(DEFAULT_FAMILIES) * 3
    assert [t.task_id for t in tasks] == [
        f"synth-{f}-{i:04d}" for i, f in enumerate(families)
    ]


def test_task_generation_is_deterministic_per_seed():
    a = make_synth_tasks(12, seed=4)
    b = make_synth_tasks(12, seed=4)
    assert [(t.task_id, t.payload["seed"]) for t in a] == [
        (t.task_id, t.payload["seed"]) for t in b
    ]
    c = make_synth_tasks(12, seed=5)
    assert [t.payload["seed"] for t in a] != [t.payload["seed"] for t in c]
