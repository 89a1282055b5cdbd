"""Expert behavior: proposal contract, fallback scoring, scripted specialists."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import pytest

from council.envs.base import TaskSpec
from council.envs.synth import SynthConfig, SynthEnv, family_vocab, hidden_sequence
from council.errors import (
    BackendConfigError,
    ExpertUnavailableError,
    ProviderError,
    ScoreParseError,
)
from council.experts import (
    Council,
    Game24OracleExpert,
    LLMExpert,
    SynthSpecialistExpert,
    evaluate_plausibility,
    propose_actions,
    send_evaluations,
)
from council.gateway import StubBackend
from council.trajectory import Trajectory

from conftest import FixedExpert, make_trajectory, sample_index


def test_proposals_deduplicate_and_preserve_order():
    expert = FixedExpert("t", actions=["a", "a", "b"])
    proposals = propose_actions(expert, Trajectory(), None, 5)
    assert [p.text for p in proposals] == ["a", "b"]


def test_proposals_truncate_to_k():
    expert = FixedExpert("t", actions=["a", "b", "c", "d"])
    proposals = propose_actions(expert, Trajectory(), None, 2)
    assert [p.text for p in proposals] == ["a", "b"]


def test_proposal_count_must_be_positive():
    expert = FixedExpert("t")
    with pytest.raises(ValueError):
        propose_actions(expert, Trajectory(), None, 0)


# -- fallback scoring ----------------------------------------------------------


def test_plausibility_passes_through_in_range():
    assert evaluate_plausibility(FixedExpert("c", 1.0), Trajectory()) == 1.0
    assert evaluate_plausibility(FixedExpert("c", 0.25), Trajectory()) == 0.25


def test_plausibility_clamps_out_of_range_scores():
    assert evaluate_plausibility(FixedExpert("c", 1.7), Trajectory()) == 1.0
    assert evaluate_plausibility(FixedExpert("c", -0.3), Trajectory()) == 0.0


def test_exhausted_backend_scores_neutral():
    backend = StubBackend(["0.9"], failures=2)
    expert = LLMExpert("llm", backend)
    assert evaluate_plausibility(expert, make_trajectory([], pending="task")) == 0.5
    # Both the original send and its retry were consumed.
    assert backend.usage.requests == 2


def test_unparseable_reply_gets_one_fresh_attempt():
    backend = StubBackend(["no score in this reply", "7"])
    expert = LLMExpert("llm", backend)
    assert evaluate_plausibility(expert, make_trajectory([], pending="task")) == 0.7


def test_two_unparseable_replies_score_neutral():
    backend = StubBackend(["nothing here", "still nothing"])
    expert = LLMExpert("llm", backend)
    assert evaluate_plausibility(expert, make_trajectory([], pending="task")) == 0.5


def settled(reply: str | Exception) -> Future:
    future: Future = Future()
    if isinstance(reply, Exception):
        future.set_exception(reply)
    else:
        future.set_result(reply)
    return future


def test_a_sent_reply_is_the_first_attempt_under_the_same_rules():
    prefix = make_trajectory([], pending="task")
    backend = StubBackend(["6"])
    expert = LLMExpert("llm", backend)
    assert evaluate_plausibility(expert, prefix, settled("Score: 8")) == pytest.approx(0.8)
    assert evaluate_plausibility(expert, prefix, settled("Score: 80")) == 1.0
    unavailable = ExpertUnavailableError("gave up")
    assert evaluate_plausibility(expert, prefix, settled(unavailable)) == 0.5
    assert backend.usage.requests == 0
    # An unparseable reply earns one fresh attempt, sent from here.
    assert evaluate_plausibility(expert, prefix, settled("no score")) == pytest.approx(0.6)
    assert backend.usage.requests == 1
    with pytest.raises(BackendConfigError):
        evaluate_plausibility(expert, prefix, settled(BackendConfigError("bad key")))
    assert backend.usage.requests == 1


def test_send_evaluations_sends_only_for_language_model_judges():
    backend = StubBackend(lambda request: "4")
    llm = LLMExpert("llm", backend)
    scripted = FixedExpert("c", 0.3)
    prefixes = [make_trajectory([], pending=f"task {i}") for i in range(3)]
    sent = send_evaluations([scripted, llm, scripted], prefixes)
    assert sent[0] is None and sent[2] is None
    assert backend.usage.requests == 1
    assert backend.requests_seen == [llm.evaluate_request(prefixes[1])]
    assert sent[1]() == pytest.approx(0.4)
    assert send_evaluations([scripted, scripted], prefixes[:2]) == [None, None]
    assert backend.usage.requests == 1


def test_provider_error_inside_plausibility_is_retried():
    class Flaky(FixedExpert):
        def __init__(self):
            super().__init__("f", 0.8)
            self.calls = 0

        def plausibility(self, prefix):
            self.calls += 1
            if self.calls == 1:
                raise ProviderError("hiccup")
            return self.score

    flaky = Flaky()
    assert evaluate_plausibility(flaky, Trajectory()) == 0.8
    assert flaky.calls == 2


def test_score_parse_error_twice_scores_neutral():
    class Broken(FixedExpert):
        def plausibility(self, prefix):
            raise ScoreParseError("no number")

    assert evaluate_plausibility(Broken("b", 0.0), Trajectory()) == 0.5


# -- 24-game oracle expert -------------------------------------------------------


def g24_prefix(text: str) -> Trajectory:
    return make_trajectory([], pending=text)


def test_oracle_expert_replays_the_witness_move():
    expert = Game24OracleExpert("g")
    actions = expert.propose(g24_prefix("numbers: 4 4 10 10"), None, 5)
    assert len(actions) == 1
    # The proposed move must keep the task solvable.
    from council.envs.game24 import game24_oracle, game24_step

    numbers, outcome = game24_step((4.0, 4.0, 10.0, 10.0), actions[0])
    assert not outcome.invalid
    assert game24_oracle(numbers)[0]


def test_oracle_expert_falls_back_to_legal_moves_when_unsolvable():
    from council.envs.game24 import legal_actions

    expert = Game24OracleExpert("g")
    actions = expert.propose(g24_prefix("numbers: 1 1 1 1"), None, 50)
    assert actions == legal_actions((1.0, 1.0, 1.0, 1.0))


def test_oracle_expert_offers_nothing_on_terminal_or_foreign_text():
    expert = Game24OracleExpert("g")
    assert expert.propose(g24_prefix("solved; numbers: 24"), None, 3) == []
    assert expert.propose(g24_prefix("[amber#a] go +a/d ~a/c"), None, 3) == []


def test_oracle_expert_scores_solvability():
    expert = Game24OracleExpert("g")
    assert expert.plausibility(g24_prefix("numbers: 4 4 10 10")) == 1.0
    assert expert.plausibility(g24_prefix("numbers: 1 1 1 1")) == 0.0
    assert expert.plausibility(g24_prefix("solved; numbers: 24")) == 1.0
    assert expert.plausibility(g24_prefix("failed; numbers: 23")) == 0.0
    assert expert.plausibility(g24_prefix("not a numbers line")) == 0.5


# -- synth specialist expert -----------------------------------------------------


def synth_setup(config: SynthConfig | None = None):
    cfg = config if config is not None else SynthConfig()
    env = SynthEnv(cfg)
    task = TaskSpec(task_id="synth-amber-0000", environment="synth", payload={"family": "amber", "seed": 7})
    state, obs = env.initial(task)
    return cfg, env, task, state, obs


def test_specialist_always_includes_the_correct_token_in_family():
    cfg, env, task, state, obs = synth_setup()
    expert = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    correct = hidden_sequence("amber", 7, cfg)[0]
    for k in (1, 2, 5):
        actions = expert.propose(make_trajectory([], pending=obs.text), None, k)
        assert correct in actions
        assert len(actions) == k
    only = expert.propose(make_trajectory([], pending=obs.text), None, 1)
    assert only == [correct]


def test_specialist_proposals_are_deterministic():
    cfg, env, task, state, obs = synth_setup()
    expert = SynthSpecialistExpert("amber-specialist", "amber", cfg, seed=3)
    prefix = make_trajectory([], pending=obs.text)
    assert expert.propose(prefix, None, 4) == expert.propose(prefix, None, 4)


def test_specialist_out_of_family_offers_only_its_own_vocabulary():
    cfg, env, task, state, obs = synth_setup()
    expert = SynthSpecialistExpert("basalt-specialist", "basalt", cfg)
    actions = expert.propose(make_trajectory([], pending=obs.text), None, 6)
    assert actions
    assert all(a in family_vocab("basalt", cfg) for a in actions)
    correct = hidden_sequence("amber", 7, cfg)[0]
    assert correct not in actions


def test_specialist_silent_on_terminal_and_unparseable_states():
    cfg, env, task, state, obs = synth_setup()
    expert = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    answer = env.hidden(task)
    for token in answer:
        state, outcome = env.apply(task, state, token)
    assert outcome.terminal
    assert expert.propose(make_trajectory([], pending=outcome.observation.text), None, 3) == []
    assert expert.propose(make_trajectory([], pending="gibberish"), None, 3) == []


def test_specialist_scores_progress_fraction():
    cfg, env, task, state, obs = synth_setup(SynthConfig(depth=4))
    expert = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    answer = env.hidden(task)
    state, outcome = env.apply(task, state, answer[0])
    state, outcome = env.apply(task, state, answer[1])
    prefix = make_trajectory([], pending=outcome.observation.text)
    assert expert.plausibility(prefix) == pytest.approx(0.5)


def test_specialist_penalizes_burned_attempts():
    cfg, env, task, state, obs = synth_setup(SynthConfig(depth=4, budget=4))
    expert = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    wrong = next(t for t in family_vocab("amber", cfg) if t != env.hidden(task)[0])
    state, outcome = env.apply(task, state, wrong)
    prefix = make_trajectory([], pending=outcome.observation.text)
    # done 0 of 4, one miss of four: 0.0 - 0.35 * (1/4) clamps at 0.
    assert expert.plausibility(prefix) == 0.0


def test_specialist_scores_terminals_exactly():
    cfg, env, task, state, obs = synth_setup()
    expert = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    answer = env.hidden(task)
    win = state
    for token in answer:
        win, outcome = env.apply(task, win, token)
    assert expert.plausibility(make_trajectory([], pending=outcome.observation.text)) == 1.0
    wrong = next(t for t in family_vocab("amber", cfg) if t != answer[0])
    lose = state
    outcome = None
    for _ in range(cfg.budget):
        lose, outcome = env.apply(task, lose, wrong)
    assert outcome.terminal
    assert expert.plausibility(make_trajectory([], pending=outcome.observation.text)) == 0.0


def test_foreign_family_judge_is_exactly_neutral():
    cfg, env, task, state, obs = synth_setup()
    expert = SynthSpecialistExpert("basalt-specialist", "basalt", cfg, eval_noise=0.5)
    prefix = make_trajectory([], pending=obs.text)
    assert expert.plausibility(prefix) == 0.5


def test_eval_noise_perturbs_in_family_scores_deterministically():
    cfg, env, task, state, obs = synth_setup()
    noisy = SynthSpecialistExpert("amber-specialist", "amber", cfg, eval_noise=0.2)
    clean = SynthSpecialistExpert("amber-specialist", "amber", cfg)
    prefix = make_trajectory([], pending=obs.text)
    a = noisy.plausibility(prefix)
    assert a == noisy.plausibility(prefix)
    assert 0.0 <= a <= 1.0
    assert clean.plausibility(prefix) == 0.0


# -- language-model expert --------------------------------------------------------


def by_sample(
    replies: dict[int, str | type[Exception]],
    returned: list[int] | None = None,
    delays: dict[int, float] | None = None,
):
    """A reply callable keyed on the request's sample tag. Sample i sleeps
    ``delays[i]`` seconds first; a reply that is an exception class is
    raised. Each send's sample number is appended to ``returned`` as it
    returns or raises."""

    def reply(request) -> str:
        index = sample_index(request.messages[-1].content)
        try:
            time.sleep((delays or {}).get(index, 0.0))
            answer = replies[index]
            if isinstance(answer, type):
                raise answer(f"sample {index} failed")
            return answer
        finally:
            if returned is not None:
                returned.append(index)

    return reply


def test_llm_expert_takes_first_nonempty_line_per_completion():
    # List replies follow arrival order; concurrent samples need a keyed reply.
    backend = StubBackend(by_sample({1: "  \nuse the lever\nextra", 2: "press the button"}))
    expert = LLMExpert("llm", backend)
    actions = expert.propose(make_trajectory([], pending="a task"), None, 2)
    assert actions == ["use the lever", "press the button"]
    assert backend.usage.requests == 2


def test_llm_expert_has_all_k_samples_in_flight_at_once():
    barrier = threading.Barrier(3, timeout=5)

    def reply(request) -> str:
        barrier.wait()  # breaks unless all three sends arrive together
        return f"action {sample_index(request.messages[-1].content)}"

    backend = StubBackend(reply)
    actions = LLMExpert("llm", backend).propose(make_trajectory([], pending="a task"), None, 3)
    assert actions == ["action 1", "action 2", "action 3"]
    assert backend.usage.requests == 3


def test_llm_expert_reads_replies_in_sample_order_whatever_order_they_arrive():
    returned: list[int] = []
    replies = {1: "first", 2: "second", 3: "third"}
    backend = StubBackend(by_sample(replies, returned, delays={1: 0.3, 2: 0.15}))
    actions = LLMExpert("llm", backend).propose(make_trajectory([], pending="a task"), None, 3)
    assert returned == [3, 2, 1]
    assert actions == ["first", "second", "third"]


def test_one_unavailable_sample_raises_only_after_every_send_returns():
    returned: list[int] = []
    replies = {1: "first", 2: ProviderError, 3: "third"}
    # Sample 3 answers after sample 2 has failed, backed off and failed again.
    backend = StubBackend(by_sample(replies, returned, delays={3: 0.6}))
    expert = LLMExpert("llm", backend)
    with pytest.raises(ExpertUnavailableError):
        expert.propose(make_trajectory([], pending="a task"), None, 3)
    assert sorted(returned) == [1, 2, 2, 3]
    assert returned[-1] == 3
    assert backend.usage.requests == 4


def test_llm_expert_evaluates_with_score_parsing():
    backend = StubBackend(["Score: 8"])
    expert = LLMExpert("llm", backend)
    assert expert.plausibility(make_trajectory([], pending="a task")) == pytest.approx(0.8)


# -- council -----------------------------------------------------------------------


def test_council_requires_members_and_unique_ids():
    with pytest.raises(ValueError):
        Council([])
    with pytest.raises(ValueError):
        Council([FixedExpert("x", 0.5), FixedExpert("x", 0.5)])


def test_council_builds_one_profile_per_expert():
    council = Council([FixedExpert("a", 0.5), FixedExpert("b", 0.5)])
    assert set(council.profiles) == {"a", "b"}
    assert council.profile("a").expert_id == "a"
    assert [e.expert_id for e in council.experts] == ["a", "b"]


def test_a_council_without_an_embedder_shares_one_across_its_profiles():
    experts = [FixedExpert(name, 0.5) for name in ("a", "b", "c")]
    council = Council(experts)
    embedders = {id(profile.embedder) for profile in council.profiles.values()}
    assert len(embedders) == 1


def test_subset_shares_profile_objects():
    council = Council([FixedExpert("a", 0.5), FixedExpert("b", 0.5)])
    sub = council.subset(["b"])
    assert [e.expert_id for e in sub.experts] == ["b"]
    assert sub.profile("b") is council.profile("b")
