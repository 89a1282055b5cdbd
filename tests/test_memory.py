"""Success-memory store: utility scoring, lookup, retrieval counts, pruning."""

from __future__ import annotations

import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from council.config import PlannerConfig, SearchBudget
from council.embedding import TrigramEmbedder
from council.envs.base import TaskSpec
from council.envs.synth import SynthConfig, SynthEnv
from council.errors import InvalidStateError
from council import memory
from council.experts import Council, SynthSpecialistExpert
from council.mcts import search
from council.memory import (
    _LOAD_BLOCK,
    _SCAN_ROWS,
    EpisodeContext,
    ExpertProfile,
    Query,
    SMSegment,
    finalize_episode,
    profile_records,
    read_segments,
    restore_profiles,
    sms_utility,
)
from council.trajectory import (
    Action,
    EpisodeRecord,
    Observation,
    Trajectory,
    parse_trajectory,
    serialize_trajectory,
)

from conftest import make_trajectory, record_history, similarity
from test_trajectory import field_text


def fresh_profile(**kwargs) -> ExpertProfile:
    return ExpertProfile("expert-a", embedder=TrigramEmbedder(64), **kwargs)


def segment_with_history(entries: list[tuple[bool | None, int]]) -> SMSegment:
    profile = fresh_profile()
    segment = profile.insert(make_trajectory([("obs", "act")]))
    record_history(profile, segment.segment_id, entries)
    return segment


def test_utility_all_success():
    assert sms_utility(segment_with_history([(True, 1), (True, 3)])) == 1.0


def test_utility_all_failure():
    assert sms_utility(segment_with_history([(False, 2), (False, 1)])) == 0.0


def test_utility_weighted_mix():
    seg = segment_with_history([(True, 2), (False, 1)])
    assert abs(sms_utility(seg) - 2.0 / 3.0) < 1e-12


def test_utility_empty_ledger_cold_start():
    assert sms_utility(segment_with_history([])) == 0.5
    assert sms_utility(segment_with_history([]), cold_start=0.2) == 0.2


def test_utility_ignores_undecided_entries():
    seg = segment_with_history([(None, 5), (True, 1)])
    assert sms_utility(seg) == 1.0
    assert sms_utility(segment_with_history([(None, 4)])) == 0.5


@given(
    st.lists(
        st.tuples(st.one_of(st.none(), st.booleans()), st.integers(1, 9)),
        min_size=0,
        max_size=8,
    )
)
def test_utility_matches_direct_formula(entries):
    seg = segment_with_history(entries)
    value = sms_utility(seg)
    assert 0.0 <= value <= 1.0
    decided = [(y, u) for y, u in entries if y is not None]
    if not decided:
        assert value == 0.5
    else:
        expected = sum(u for y, u in decided if y) / sum(u for _, u in decided)
        assert abs(value - expected) < 1e-12


# -- lookup -----------------------------------------------------------------


def test_best_match_empty_profile():
    assert fresh_profile().best_match(Query(make_trajectory([("obs", "act")]))) is None


def test_best_match_finds_the_query_itself():
    profile = fresh_profile()
    stored = make_trajectory([("observation text here", "action text here")])
    profile.insert(stored)
    segment, score = profile.best_match(Query(stored))
    assert segment.text == serialize_trajectory(stored)
    assert score == pytest.approx(1.0)


def test_best_match_agrees_with_linear_scan():
    profile = fresh_profile()
    texts = [f"task variant {i} with some body {i * 7}" for i in range(40)]
    for text in texts:
        profile.insert(make_trajectory([(text, f"move {text[-2:]}")]))
    query = Query(make_trajectory([("task variant 31 with some body", "move x")]))
    best, score = profile.best_match(query)
    sims = profile.match_scores(query)
    assert score == pytest.approx(float(sims.max()))
    # Earliest index among exact ties, per the stated tie rule.
    assert best.segment_id == profile.segments()[int(np.argmax(sims))].segment_id


def test_insert_deduplicates_identical_text():
    profile = fresh_profile()
    t = make_trajectory([("same obs", "same act")])
    first = profile.insert(t)
    second = profile.insert(make_trajectory([("same obs", "same act")]))
    assert first.segment_id == second.segment_id
    assert len(profile) == 1


def test_insert_rejects_pending_observations():
    with pytest.raises(ValueError):
        fresh_profile().insert(make_trajectory([("o", "a")], pending="tail"))


def test_stored_embedding_matches_recomputation():
    profile = fresh_profile()
    segment = profile.insert(make_trajectory([("a task observation", "an answer")]))
    expected = profile.embedder.embed(segment.text)
    probe = make_trajectory([("another task observation", "another answer")])
    for query in (Query(parse_trajectory(segment.text)), Query(probe)):
        vector = query.vector(profile.embedder)
        assert profile.match_scores(query).tolist() == [similarity(vector, expected)]


def test_scan_equals_a_dense_product_bit_for_bit():
    profile = ExpertProfile("expert-a", embedder=TrigramEmbedder(1024))
    for i in range(300):
        profile.insert(make_trajectory([(f"observation {i * 37} of task {i % 11}", f"act {i}")]))
    matrix = np.vstack(
        [profile.embedder.embed(s.text) for s in profile.segments()]
    )
    norms = np.linalg.norm(matrix, axis=1)
    query = make_trajectory([("observation 74 of task 2", "act x")])
    qvec = profile.embedder.embed(serialize_trajectory(query))
    expected = (matrix @ qvec) / (norms * float(np.linalg.norm(qvec)))
    assert np.array_equal(profile.match_scores(Query(query)), expected)


# -- the index under inserts, evictions, restores, compaction and growth --------

_TEXTS = [f"{'ab' * (i % 3)}obs {i % 9} {'z' * (i % 4)}" for i in range(40)]


def brute_force_check(profile: ExpertProfile, queries: list[Query]) -> None:
    """match_scores equals a scan over recomputed embeddings exactly, and
    best_match returns the earliest live segment among the tied best."""
    segments = profile.segments()
    vectors = [profile.embedder.embed(s.text) for s in segments]
    for query in queries:
        qvec = profile.embedder.embed(serialize_trajectory(query.trajectory))
        expected = np.array([similarity(qvec, v) for v in vectors], dtype=np.float64)
        assert np.array_equal(profile.match_scores(query), expected)
        match = profile.best_match(query)
        if not segments:
            assert match is None
            continue
        first = int(np.flatnonzero(expected == expected.max())[0])
        assert match[0] is segments[first]
        assert match[1] == expected[first]


_STEP = st.one_of(
    st.tuples(st.just("insert"), st.lists(st.integers(0, 39), min_size=1, max_size=5)),
    st.tuples(
        st.just("episode"), st.lists(st.integers(0, 39), min_size=1, max_size=4), st.booleans()
    ),
    st.tuples(st.just("restore"), st.integers(1, 6)),
)


PROBE = Trajectory(pending=Observation("probe"))


class ProbeTrigrams(TrigramEmbedder):
    """Trigram counts, except that the text of ``PROBE`` embeds to the given
    vector, so a scan can be made with any query vector."""

    def __init__(self, dim: int, vector: np.ndarray):
        super().__init__(dim)
        self.vector = vector

    def embed(self, text: str) -> np.ndarray:
        if text == serialize_trajectory(PROBE):
            return self.vector.copy()
        return super().embed(text)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.lists(_STEP, max_size=25))
def test_index_matches_a_brute_force_scan_after_every_step(capacity, steps):
    embedder = TrigramEmbedder(8)
    profile = ExpertProfile("x", capacity=capacity, embedder=embedder)
    assert profile._cols.dtype == np.uint8
    queries = [Query(make_trajectory([], pending=text)) for text in ("obs 3 zz", "ababobs 7")]
    queries += [Query(Trajectory()), Query(make_trajectory([(_TEXTS[5], "a")]))]
    for step in steps:
        if step[0] == "insert":
            # Inserting without a finalize grows the profile past capacity.
            for i in step[1]:
                profile.insert(make_trajectory([(_TEXTS[i], "a")]))
        elif step[0] == "episode":
            episode = EpisodeContext("e")
            for segment in profile.segments()[::2]:
                episode.record(profile, segment.segment_id)
            trajectory = make_trajectory([(_TEXTS[i], f"a{i}") for i in step[1]])
            record = EpisodeRecord(
                episode_id="e",
                task_id="t",
                final_trajectory=trajectory,
                reward=1.0 if step[2] else 0.0,
                success=step[2],
                per_step_expert=["x"] * trajectory.depth,
                retrievals=episode.retrievals(),
            )
            over = len(profile) > capacity
            finalize_episode({"x": profile}, record)
            assert over or len(profile) <= capacity
        else:
            records = list(profile_records({"x": profile.segments()}))
            capacity = step[1]
            profile = restore_profiles(records, embedder, capacity).get(
                "x", ExpertProfile("x", capacity=capacity, embedder=embedder)
            )
            assert len(profile) == len(records)
            brute_force_check(profile, queries)
            # A run prunes what it loads.
            profile.prune()
            assert len(profile) <= capacity
        assert profile._cols.dtype == np.min_scalar_type(profile._peak)
        brute_force_check(profile, queries)


@pytest.mark.parametrize(
    "query",
    [
        # Odd integers far above 2**24 / peak: a float32 product would round.
        pytest.param(3_000_001.0 + 2.0 * np.arange(16), id="past-float32-range"),
    ],
)
def test_a_query_float32_cannot_hold_is_accumulated_in_a_wide_integer(query):
    profile = ExpertProfile("expert-a", embedder=ProbeTrigrams(16, query))
    for i in range(40):
        profile.insert(make_trajectory([(f"aaaaaaaa observation {i * 13}", f"act {i % 7}")]))
    matrix = np.vstack([profile.embedder.embed(s.text) for s in profile.segments()])
    in_float32 = (matrix.astype(np.float32) @ query.astype(np.float32)).astype(np.float64)
    assert not np.array_equal(in_float32, matrix @ query)
    assert profile._cols.dtype == np.uint8
    assert np.add.reduce(np.abs(query)) * profile._peak >= 2**24
    # The probe embeds to ``query``: its integer dots need more than 16
    # bits, and its scores and best match equal the dense float64
    # similarity oracle bit for bit.
    probe = Query(PROBE)
    profile.best_match(probe)
    assert probe._scans[profile].dots.dtype in (np.uint32, np.uint64)
    brute_force_check(profile, [probe])


def run_of(letter: str, length: int) -> Trajectory:
    """A one-step trajectory whose observation repeats one letter: its
    largest trigram count is about ``length``."""
    return make_trajectory([(letter * length, "act")])


def test_an_insert_widens_the_index_before_it_writes_a_count_past_its_type():
    profile = ExpertProfile("x", embedder=TrigramEmbedder(8))
    queries = [Query(make_trajectory([("a short observation", "act")]))]
    for text in ("a short observation", "another observation"):
        profile.insert(make_trajectory([(text, "act")]))
    assert profile._cols.dtype == np.uint8
    brute_force_check(profile, queries)
    for trajectory, before, after in (
        (run_of("a", 300), np.uint8, np.uint16),
        (run_of("b", 200), np.uint16, np.uint16),
        (run_of("c", 70_000), np.uint16, np.uint32),
    ):
        assert profile._cols.dtype == before
        segment = profile.insert(trajectory)
        assert profile._cols.dtype == after
        assert profile._peak == max(
            int(profile.embedder.embed(s.text).max()) for s in profile.segments()
        )
        column = profile._cols[:, profile._slot_of[segment.segment_id]]
        assert np.array_equal(column, profile.embedder.embed(segment.text))
        queries.append(Query(trajectory))
        brute_force_check(profile, queries)


def test_a_query_vector_of_the_wrong_width_is_rejected():
    profile = ExpertProfile("expert-a", embedder=ProbeTrigrams(16, np.ones(8)))
    profile.insert(make_trajectory([("a stored observation", "act")]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        profile.best_match(Query(PROBE))


def test_a_profile_held_at_capacity_never_doubles_its_matrix():
    profile = fresh_profile(capacity=64)
    for i in range(64):
        profile.insert(make_trajectory([(f"seeded observation {i}", "act")]))
    hold_at_capacity(profile)


def test_a_profile_loaded_at_capacity_never_doubles_its_matrix():
    records = [
        {
            "expert_id": "expert-a",
            "segment_id": f"expert-a:{i}",
            "prefix_steps": [[f"seeded observation {i}", "act"]],
            "created_at": i,
            "wins": 0,
            "uses": 0,
        }
        for i in range(64)
    ]
    profile = restore_profiles(records, TrigramEmbedder(64), capacity=64)["expert-a"]
    assert profile._cols.shape[1] == 64 + 64 // 8
    hold_at_capacity(profile)


def hold_at_capacity(profile: ExpertProfile) -> None:
    """Forty won episodes, each inserting three segments into a profile of
    capacity 64 and pruning it back; the matrix keeps its one size."""
    for episode in range(40):
        trajectory = make_trajectory([(f"episode {episode} step {j}", "act") for j in range(3)])
        finalize_episode(
            {"expert-a": profile},
            EpisodeRecord(
                episode_id=f"e{episode}",
                task_id="t",
                final_trajectory=trajectory,
                reward=1.0,
                success=True,
                per_step_expert=["expert-a"] * 3,
            ),
        )
        assert len(profile) == 64
        assert profile._cols.shape[1] == 64 + 64 // 8
    brute_force_check(profile, [Query(make_trajectory([], pending="episode 39 step 2"))])


# -- restores written in blocks ------------------------------------------------


def restorable(count: int) -> list[SMSegment]:
    """Segments as a memory file gives them: unique ids and texts, some of
    them multi-byte, with created_at in no particular order and assorted
    counts."""
    return [
        SMSegment(
            f"x:r{i}",
            serialize_trajectory(make_trajectory([(f"restored {'é' * (i % 3)}obs {i}", f"a{i % 5}")])),
            created_at=(7 * i) % (count + 3),
            wins=i % 3,
            uses=i % 3 + i % 2,
        )
        for i in range(count)
    ]


def restore_one_at_a_time(profile: ExpertProfile, segments: list[SMSegment]) -> None:
    """The reference restore: each segment gets room as an insert gets it,
    is embedded on its own by ``embed`` and has its slot written field by
    field, independently of the profile's block write. A count that the
    matrix type cannot hold widens the matrix before the column is written."""
    with profile._lock:
        for segment in segments:
            embedding = profile.embedder.embed(segment.text)
            profile._make_room(1)
            slot = len(profile._slots)
            profile._by_text[segment.text] = segment.segment_id
            profile._slot_of[segment.segment_id] = slot
            profile._slots.append(segment)
            profile._peak = max(profile._peak, int(np.abs(embedding).max()))
            if profile._peak > np.iinfo(profile._cols.dtype).max:
                profile._cols = profile._cols.astype(np.min_scalar_type(profile._peak))
            profile._cols[:, slot] = embedding
            # A pairwise sum, as np.linalg.norm takes along an axis.
            norm = float(np.sqrt(np.add.reduce(embedding * embedding)))
            profile._norms[slot] = norm if norm > 0.0 else np.inf
            profile._live[slot] = True
            profile._util[slot] = profile.utility(segment)
            profile._created[slot] = segment.created_at
            profile._next_created = max(profile._next_created, segment.created_at + 1)
            profile.version += 1


def index_state(profile: ExpertProfile) -> tuple:
    """Everything a read or a later change of the profile can see. Past the
    last slot a compaction leaves stale values, which nothing reads."""
    count = len(profile._slots)
    return (
        profile._cols.shape,
        profile._cols.dtype,
        profile._cols[:, :count].tobytes(),
        profile._norms[:count].tobytes(),
        profile._live[:count].tobytes(),
        profile._util[:count].tobytes(),
        profile._created[:count].tobytes(),
        profile._peak,
        profile._next_created,
        [segment and segment.segment_id for segment in profile._slots],
        profile._slot_of,
        profile._by_text,
    )


def restore_both_ways(make_profile, segments: list[SMSegment]) -> ExpertProfile:
    """Restore the segments into two profiles from ``make_profile``, in
    blocks and one at a time, check that the two indexes are the same bytes,
    and return the first."""
    batched, reference = make_profile(), make_profile()
    version = batched.version
    batched._restore(segments)
    restore_one_at_a_time(reference, segments)
    assert index_state(batched) == index_state(reference)
    assert (batched.version > version) == bool(segments)
    return batched


@pytest.mark.parametrize("kind", [TrigramEmbedder])
@pytest.mark.parametrize("capacity", [16, 100])
@pytest.mark.parametrize(
    "count",
    [
        lambda cap: 0,
        lambda cap: 1,
        lambda cap: 4,
        lambda cap: 5,
        lambda cap: 64,
        lambda cap: cap - 1,
        lambda cap: cap,
        lambda cap: cap + 1,
        lambda cap: cap + cap // 8 + 1,
        lambda cap: 4 * (cap + cap // 8) + 1,
    ],
    ids=["0", "1", "4", "5", "64", "cap-1", "cap", "cap+1", "past-limit", "past-two-growths"],
)
def test_a_restore_writes_the_index_adding_one_at_a_time_writes(kind, capacity, count):
    segments = restorable(count(capacity))
    profile = restore_both_ways(lambda: ExpertProfile("x", capacity, kind(16)), segments)
    assert profile.segments() == segments
    brute_force_check(profile, [Query(parse_trajectory(segment.text)) for segment in segments[:3]])


@pytest.mark.parametrize("kind", [TrigramEmbedder])
@pytest.mark.parametrize("count", [10, 11, 40])
def test_a_restore_into_dead_slots_compacts_them_first_as_an_insert_does(kind, count):
    # Capacity 4 grows the matrix 1 -> 4 -> 16. Six inserts and a prune
    # leave six slots, two of them dead: ten more still fit, eleven need the
    # dead slots compacted away first, forty also grow the matrix.
    def make_profile():
        profile = ExpertProfile("x", capacity=4, embedder=kind(16))
        for i in range(6):
            profile.insert(make_trajectory([(f"inserted obs {i}", "act")]))
        profile.prune()
        assert (profile._dead, profile._cols.shape[1]) == (2, 16)
        return profile

    profile = restore_both_ways(make_profile, restorable(count))
    assert profile._dead == (2 if count == 10 else 0)
    brute_force_check(profile, [Query(make_trajectory([("inserted obs 5", "act")]))])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 14), st.integers(0, 40))
def test_a_restore_after_inserts_and_prunes_equals_one_at_a_time(capacity, inserted, count):
    def make_profile():
        profile = ExpertProfile("x", capacity=capacity, embedder=TrigramEmbedder(16))
        for i in range(inserted):
            profile.insert(make_trajectory([(_TEXTS[i], "a")]))
        profile.prune()
        return profile

    restore_both_ways(make_profile, restorable(count))


@pytest.mark.parametrize("length, dtype", [(300, np.uint16), (70_000, np.uint32)])
def test_a_restore_that_widens_in_the_middle_of_a_block_equals_one_at_a_time(length, dtype):
    segments = restorable(100)
    # Slot 30 lies inside the first 64-segment block of the restore.
    segments[30] = SMSegment("x:wide", serialize_trajectory(run_of("a", length)), created_at=200)
    profile = restore_both_ways(lambda: ExpertProfile("x", 128, TrigramEmbedder(16)), segments)
    assert profile._cols.dtype == dtype
    queries = [Query(run_of("a", length)), Query(parse_trajectory(segments[0].text))]
    brute_force_check(profile, queries)


def test_a_last_block_narrower_than_the_load_block_is_counted_whole():
    # One full block, then a block of five into the same count block.
    segments = restorable(_LOAD_BLOCK + 5)
    profile = ExpertProfile("x", 128, TrigramEmbedder(16))
    profile._restore(segments)
    for slot, segment in enumerate(segments):
        vec = profile.embedder.embed(segment.text)
        assert np.array_equal(profile._cols[:, slot], vec)
        assert profile._norms[slot] == np.linalg.norm(vec)
    assert not profile._cols[:, len(segments) :].any()


def test_a_synth_sized_load_keeps_one_byte_per_count():
    dim, capacity = 1024, 4096

    def steps(i: int) -> list[list[str]]:
        tag = f"[amber#{i:06x}]"
        vocab = " ".join(f"amber{a}{b}" for a in "ab" for b in "abcdefgh")
        first = [f"{tag} go +a/d ~a/c; {vocab}", f"amber{'ab'[i % 2]}{'abcdefgh'[i % 8]}"]
        return [first] + [[f"{tag} no +a/d ~b/c", f"amberb{'abcdefgh'[j]}"] for j in range(i % 6)]

    records = [
        {
            "expert_id": "expert-a",
            "segment_id": f"expert-a:{i}",
            "prefix_steps": steps(i),
            "created_at": i,
            "wins": 0,
            "uses": 0,
        }
        for i in range(capacity)
    ]
    profile = restore_profiles(records, TrigramEmbedder(dim), capacity)["expert-a"]
    assert profile._peak < 256
    assert profile._cols.itemsize == 1
    # 4.7 MB, where float32 counts took 18.9 MB.
    assert profile._cols.nbytes == dim * (capacity + capacity // 8)
    # One count past 255 doubles the matrix, and the scores stay exact.
    trajectory = run_of("a", 300)
    profile.insert(trajectory)
    assert profile._cols.nbytes == 2 * dim * (capacity + capacity // 8)
    brute_force_check(profile, [Query(trajectory)])


# -- scans from node-held queries ------------------------------------------------


def test_a_scan_after_an_insert_scores_the_new_segment():
    profile = fresh_profile()
    profile.insert(make_trajectory([("an older observation", "an older act")]))
    query = Query(make_trajectory([("a newer observation", "a newer act")]))
    assert len(profile.match_scores(query)) == 1
    segment = profile.insert(make_trajectory([("a newer observation", "a newer act")]))
    stored = profile.embedder.embed(segment.text)
    assert profile.match_scores(query)[1] == similarity(query.vector(profile.embedder), stored)
    assert profile.best_match(query)[0] is segment


def test_a_prune_between_two_scans_hides_the_evicted_segment():
    profile = fresh_profile(capacity=2)
    stored = make_trajectory([("the nearest observation", "the nearest act")])
    nearest = profile.insert(stored)
    for i in range(2):
        profile.insert(make_trajectory([(f"far away text {i}", f"other {i}")]))
    query = Query(stored)
    assert profile.best_match(query)[0] is nearest
    # A credit keeps the version; the prune that follows must not.
    version = profile.version
    decide(profile, nearest, [False])
    assert profile.version == version
    assert profile.prune() == [nearest.segment_id]
    assert profile.version != version
    assert profile.best_match(query)[0] is not nearest
    brute_force_check(profile, [query])


def counting_products(monkeypatch) -> list[int]:
    """The number of index rows each later scan multiplies."""
    rows: list[int] = []
    product = ExpertProfile._product

    def counted(profile, terms, *args):
        rows.append(len(terms.buckets))
        return product(profile, terms, *args)

    monkeypatch.setattr(ExpertProfile, "_product", counted)
    return rows


def test_a_scan_against_a_stale_version_falls_back_to_a_full_scan(monkeypatch):
    profile = fresh_profile()
    for i in range(12):
        profile.insert(make_trajectory([(f"stored observation {i}", f"act {i % 4}")]))
    parent = Query(make_trajectory([("stored observation 3", "act 3")], pending="next obs"))
    grown = parent.trajectory.extend(Action("act 9"), Observation("after the act"))
    rows = counting_products(monkeypatch)
    profile.best_match(parent)
    profile.best_match(parent)
    assert len(rows) == 1  # the repeat is read back

    # Same version: the child multiplies only the rows its step changed.
    child = Query(grown, parent=parent)
    profile.best_match(child)
    delta = child.vector(profile.embedder) - parent.vector(profile.embedder)
    assert rows[-1] == np.count_nonzero(delta) < np.count_nonzero(child.vector(profile.embedder))

    # An insert bumps the version; the parent's dots are stale.
    profile.insert(make_trajectory([("a late arrival", "act")]))
    late = Query(grown, parent=parent)
    profile.best_match(late)
    assert rows[-1] == np.count_nonzero(late.vector(profile.embedder))
    brute_force_check(profile, [Query(grown)])
    assert np.array_equal(profile.match_scores(Query(grown)), late._scans[profile].sims)


def test_a_node_scanned_by_three_profiles_builds_its_sparse_form_and_delta_once(monkeypatch):
    embedder = TrigramEmbedder(64)
    profiles = [ExpertProfile(f"expert-{k}", embedder=embedder) for k in range(3)]
    for k, profile in enumerate(profiles):
        for i in range(8):
            profile.insert(make_trajectory([(f"stored observation {k} {i}", f"act {i % 3}")]))
    parent = Query(make_trajectory([("stored observation 1 3", "act 0")], pending="next obs"))
    grown = parent.trajectory.extend(Action("act 2"), Observation("after the act"))
    child = Query(grown, parent=parent)
    built: list[np.ndarray] = []
    terms = memory._terms

    def counted(vector):
        built.append(vector.copy())
        return terms(vector)

    monkeypatch.setattr(memory, "_terms", counted)
    rows = counting_products(monkeypatch)
    for profile in profiles:
        profile.best_match(parent)
    assert len(built) == 1
    for profile in profiles:
        profile.best_match(child)
    vector = child.vector(embedder)
    delta = vector - parent.vector(embedder)
    assert len(built) == 3
    assert np.array_equal(built[1], vector) and np.array_equal(built[2], delta)
    # Every profile took the delta path off the parent's dots.
    assert rows[3:] == [np.count_nonzero(delta)] * 3
    for profile in profiles:
        brute_force_check(profile, [Query(grown)])


@pytest.mark.parametrize(
    "l1, dtype",
    [
        (2**16 - 1, "uint16"),
        (2**16, "uint32"),
        (2**32 - 1, "uint32"),
        (2**32, "uint64"),
    ],
)
def test_the_accumulator_widens_past_2_to_the_16_and_2_to_the_32(l1, dtype):
    embedder = ProbeTrigrams(4096, None)
    profile = ExpertProfile("expert-a", embedder=embedder)
    for text in ("stored words", "other stored words", "third entry"):
        profile.insert(make_trajectory([(text, "act")]))
    assert profile._peak == 1
    # Spread l1 over the stored buckets, so that every column scores.
    buckets = np.flatnonzero(profile._cols[:, : len(profile)].any(axis=1))
    weights = np.full(len(buckets), l1 // len(buckets), dtype=np.float64)
    weights[0] += l1 - weights.sum()
    embedder.vector = np.zeros(embedder.dim)
    embedder.vector[buckets] = weights
    assert np.add.reduce(weights) * profile._peak == l1
    probe = Query(PROBE)
    profile.best_match(probe)
    assert probe._scans[profile].dots.dtype == dtype
    brute_force_check(profile, [probe])


def scanned_through_a_parent(profile: ExpertProfile, parent: Query, child: Query, monkeypatch):
    """Scan the parent, then the child off the parent's dots, and check that
    the child multiplied only its delta's rows and that its scores equal a
    fresh full scan and the dense oracle bit for bit."""
    profile.best_match(parent)
    rows = counting_products(monkeypatch)
    profile.best_match(child)
    delta = child.vector(profile.embedder) - parent.vector(profile.embedder)
    assert rows == [np.count_nonzero(delta)]
    fresh = Query(child.trajectory)
    assert np.array_equal(profile.match_scores(fresh), child._scans[profile].sims)
    assert np.array_equal(fresh._scans[profile].dots, child._scans[profile].dots)
    brute_force_check(profile, [fresh])


@pytest.mark.parametrize("length, dtype", [(0, "uint16"), (300, "uint32")])
def test_a_child_off_a_parent_it_does_not_extend_equals_a_full_scan(length, dtype, monkeypatch):
    profile = fresh_profile()
    for i in range(10):
        profile.insert(make_trajectory([(f"stored observation {i} {'a' * length}", f"act {i}")]))
    parent = Query(make_trajectory([(f"the parent's own words {'a' * length}", "its act")]))
    child = Query(make_trajectory([(f"a child with other text {'a' * length}", "act 3")]), parent)
    delta = child.vector(profile.embedder) - parent.vector(profile.embedder)
    assert delta.min() < 0
    scanned_through_a_parent(profile, parent, child, monkeypatch)
    assert parent._scans[profile].dots.dtype == child._scans[profile].dots.dtype == dtype


def test_a_child_narrows_its_parents_wider_dots(monkeypatch):
    profile = fresh_profile()
    profile.insert(make_trajectory([("a" * 300, "act")]))
    for i in range(10):
        profile.insert(make_trajectory([(f"stored observation {i}", f"act {i}")]))
    parent = Query(make_trajectory([("a" * 300, "act")], pending="stored observation 4"))
    child = Query(make_trajectory([("stored observation 4", "act 4")]), parent)
    scanned_through_a_parent(profile, parent, child, monkeypatch)
    assert parent._scans[profile].dots.dtype == np.uint32
    assert child._scans[profile].dots.dtype == np.uint16


def test_no_gather_takes_more_than_the_scan_rows(monkeypatch):
    profile = ExpertProfile("expert-a", embedder=TrigramEmbedder(1024))
    for i in range(20):
        profile.insert(make_trajectory([(f"stored observation {i * 31}", f"act {i}")]))
    words = " ".join(f"word{i * 7919 % 1000}" for i in range(120))
    query = Query(make_trajectory([(words, "act")]))
    gathered: list[int] = []
    einsum = np.einsum

    def counted(subscripts, *operands, **kwargs):
        if subscripts == "i,ij->j":
            gathered.append(operands[1].shape[0])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    profile.best_match(query)
    nonzero = np.count_nonzero(query.vector(profile.embedder))
    assert nonzero > 2 * _SCAN_ROWS
    assert max(gathered) <= _SCAN_ROWS
    assert sum(gathered) == nonzero
    brute_force_check(profile, [Query(query.trajectory)])


def test_node_state_is_dropped_with_the_tree_and_profiles_hold_none():
    cfg = SynthConfig(depth=4, budget=3)
    council = Council(
        [SynthSpecialistExpert(f"{f}-specialist", f, cfg) for f in ("amber", "basalt")],
        embedder=TrigramEmbedder(64),
    )
    for profile in council.profiles.values():
        for i in range(6):
            profile.insert(make_trajectory([(f"[amber#b] go +{i}", f"token {i}")]))
    planner = PlannerConfig(budget=SearchBudget(iterations=8, expansion_width=2, max_depth=6))
    task = TaskSpec("synth-amber-0000", "synth", {"family": "amber", "seed": 7})
    result = search(task, SynthEnv(cfg), council, planner, random.Random(2), update_memory=False)
    held = [
        weakref.ref(array)
        for node in result.tree.nodes
        for scan in node.query._scans.values()
        for array in (scan.sims, scan.dots)
        if array is not None
    ]
    assert len(held) > len(result.tree.nodes)
    del result
    gc.collect()
    assert all(ref() is None for ref in held)


_TEXT = st.text(alphabet="ab \\\né中😀", max_size=8)
_CHANGE = st.sampled_from(["none", "insert", "restore", "evict", "compact", "credit"])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(_TEXT, _TEXT), min_size=1, max_size=6),
    _TEXT,
    st.lists(
        st.tuples(st.tuples(_TEXT, _TEXT), _CHANGE, st.integers(0, 4)), min_size=1, max_size=6
    ),
)
def test_node_held_scans_equal_full_scans_bit_for_bit(stored, root_text, path):
    """A chain of node queries, each extending the last by one step, with
    the profile changing between a parent's scan and its child's. A query is
    linked to the last one, or by ``link`` to an earlier query, chain or
    side, whose text need not be its prefix."""
    embedder = TrigramEmbedder(16)
    profile = ExpertProfile("x", capacity=3, embedder=embedder)
    for obs, act in stored:
        profile.insert(make_trajectory([(obs, act)]))
    query = Query(Trajectory(pending=Observation(root_text)))
    earlier = []
    created = 1000
    for (act, obs), change, link in path:
        side = Query(make_trajectory([(obs, act)]))
        profile.best_match(side)
        profile.best_match(query)
        earlier += [side, query]
        if change == "insert":
            profile.insert(make_trajectory([(obs, act)]))
        elif change == "restore":
            created += 1
            text = serialize_trajectory(make_trajectory([(obs, f"restored {act}")]))
            segment_id = f"x:{created}"
            if segment_id not in profile and text not in profile._by_text:  # else already stored
                profile._restore([SMSegment(segment_id, text, created)])
        elif change == "evict":
            profile.prune()
        elif change == "compact":
            with profile._lock:
                profile._compact()
        elif change == "credit" and len(profile):
            decide(profile, profile.segments()[0], [True])
        trajectory = query.trajectory.extend(Action(act), Observation(obs))
        query = Query(trajectory, parent=earlier[-1 - link % len(earlier)])
        vec = query.vector(embedder)
        full = embedder.embed(serialize_trajectory(trajectory))
        assert vec.dtype == full.dtype and np.array_equal(vec, full)
        if not len(profile):
            continue
        assert profile.best_match(query) == profile.best_match(Query(trajectory))
        sims = query._scans[profile].sims
        with profile._lock:
            assert np.array_equal(sims, profile._scan(Query(trajectory)))
        brute_force_check(profile, [Query(trajectory)])


def test_mutating_a_returned_array_cannot_change_a_later_result():
    profile = fresh_profile(capacity=6)
    for i in range(8):
        profile.insert(make_trajectory([(f"observation {i}", f"act {i}")]))
    query = Query(make_trajectory([("observation 3", "act 3")]))
    for state in ("every slot live", "dead slots after a prune"):
        sims = profile.match_scores(query)
        expected, best = sims.copy(), profile.best_match(query)
        try:
            sims[:] = 2.0
        except ValueError:
            assert not sims.flags.writeable, state
        assert np.array_equal(profile.match_scores(query), expected), state
        assert profile.best_match(query) == best, state
        profile.prune()


# -- retrieval counts -----------------------------------------------------------


def test_record_retrieval_counts():
    profile = fresh_profile()
    seg = profile.insert(make_trajectory([("o", "a")]))
    record_history(profile, seg.segment_id, [(True, 2), (False, 1), (None, 4)])
    # Every finished lookup is a use; a winning episode's lookups are wins.
    assert (seg.wins, seg.uses) == (2, 3)


def test_record_retrieval_unknown_segment():
    with pytest.raises(ValueError):
        EpisodeContext("ep").record(fresh_profile(), "missing")


def test_episode_context_aggregates_counts():
    profile = fresh_profile()
    seg = profile.insert(make_trajectory([("o", "a")]))
    episode = EpisodeContext("ep-9")
    episode.record(profile, seg.segment_id)
    episode.record(profile, seg.segment_id)
    assert episode.retrievals() == [("expert-a", seg.segment_id, 2)]
    # Nothing reaches the segment before the episode is finalized.
    assert (seg.wins, seg.uses) == (0, 0)


# -- finalize ----------------------------------------------------------------


def test_failed_episode_sets_outcomes_without_insertions():
    profile = fresh_profile()
    seg = profile.insert(make_trajectory([("old obs", "old act")]))
    episode = EpisodeContext("ep-f")
    episode.record(profile, seg.segment_id)
    episode.record(profile, seg.segment_id)
    record = EpisodeRecord(
        episode_id="ep-f",
        task_id="t",
        final_trajectory=make_trajectory([("x", "y")]),
        reward=0.0,
        success=False,
        per_step_expert=["expert-a"],
        retrievals=episode.retrievals(),
    )
    finalize_episode({"expert-a": profile}, record)
    assert (seg.wins, seg.uses) == (0, 2)
    assert len(profile) == 1


def test_successful_episode_inserts_every_prefix():
    profile = fresh_profile()
    final = make_trajectory([("o0", "a0"), ("o1", "a1")])
    record = EpisodeRecord(
        episode_id="ep-s",
        task_id="t",
        final_trajectory=final,
        reward=1.0,
        success=True,
        per_step_expert=["expert-a", "expert-a"],
    )
    finalize_episode({"expert-a": profile}, record)
    assert len(profile) == 2
    assert sorted(parse_trajectory(seg.text).depth for seg in profile.segments()) == [1, 2]


def test_attribution_splits_prefixes_between_experts():
    a = ExpertProfile("a", embedder=TrigramEmbedder(64))
    b = ExpertProfile("b", embedder=TrigramEmbedder(64))
    final = make_trajectory([("o0", "a0"), ("o1", "a1")])
    record = EpisodeRecord(
        episode_id="ep",
        task_id="t",
        final_trajectory=final,
        reward=1.0,
        success=True,
        per_step_expert=["a", "b"],
    )
    finalize_episode({"a": a, "b": b}, record)
    assert [parse_trajectory(seg.text).depth for seg in a.segments()] == [1]
    assert [parse_trajectory(seg.text).depth for seg in b.segments()] == [2]


def test_dangling_retrieval_is_invalid_state():
    profile = fresh_profile()
    record = EpisodeRecord(
        episode_id="ep",
        task_id="t",
        final_trajectory=Trajectory(),
        reward=0.0,
        success=False,
        retrievals=[("expert-a", "expert-a:99", 1)],
    )
    with pytest.raises(InvalidStateError):
        finalize_episode({"expert-a": profile}, record)


# -- pruning -----------------------------------------------------------------


def decide(profile: ExpertProfile, segment: SMSegment, outcomes: list[bool]) -> None:
    record_history(profile, segment.segment_id, [(outcome, 1) for outcome in outcomes])


def test_prune_is_noop_under_capacity():
    profile = fresh_profile(capacity=4)
    profile.insert(make_trajectory([("o", "a")]))
    assert profile.prune() == []


def test_prune_evicts_lowest_utility():
    profile = fresh_profile(capacity=2)
    segs = [profile.insert(make_trajectory([(f"obs {i}", f"act {i}")])) for i in range(3)]
    decide(profile, segs[0], [True])
    decide(profile, segs[1], [True, False])
    decide(profile, segs[2], [False])
    evicted = profile.prune()
    assert evicted == [segs[2].segment_id]
    assert len(profile) == 2


def test_prune_breaks_utility_ties_toward_oldest():
    profile = fresh_profile(capacity=1)
    first = profile.insert(make_trajectory([("obs one", "act one")]))
    profile.insert(make_trajectory([("obs two", "act two")]))
    evicted = profile.prune()
    assert evicted == [first.segment_id]


@given(st.lists(st.integers(0, 4), min_size=3, max_size=8), st.integers(1, 4))
def test_prune_never_evicts_better_than_retained(success_counts, capacity):
    profile = fresh_profile(capacity=capacity)
    for i, wins in enumerate(success_counts):
        seg = profile.insert(make_trajectory([(f"unique obs {i} body", f"act {i}")]))
        decide(profile, seg, [True] * wins + [False] * (4 - wins))
    evicted_ids = set(profile.prune())
    assert len(profile) <= capacity
    if evicted_ids:
        kept_min = min(profile.utility(seg) for seg in profile.segments())
        # Reconstruct evicted utilities from the recorded outcomes.
        for sid in evicted_ids:
            index = int(sid.split(":")[1])
            evicted_utility = success_counts[index] / 4
            assert evicted_utility <= kept_min + 1e-12


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=9),
       st.integers(1, 8))
def test_prune_evicts_in_repeated_minimum_order(histories, capacity):
    profile = fresh_profile(capacity=capacity)
    for i, (wins, losses) in enumerate(histories):
        seg = profile.insert(make_trajectory([(f"unique obs {i} body", f"act {i}")]))
        decide(profile, seg, [True] * wins + [False] * losses)
    remaining = profile.segments()
    expected = []
    while len(remaining) > capacity:
        victim = min(remaining, key=lambda seg: (profile.utility(seg), seg.created_at))
        remaining.remove(victim)
        expected.append(victim.segment_id)
    assert profile.prune() == expected
    assert profile.segments() == remaining


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3), st.booleans()),
        min_size=2,
        max_size=9,
    ),
    st.integers(1, 8),
)
def test_restored_and_credited_segments_evict_in_repeated_minimum_order(rows, capacity):
    # Each row: created_at (repeats and any order allowed), restored wins and
    # losses, then one credit of that many lookups in a won or lost episode.
    records = [
        {
            "expert_id": "expert-a",
            "segment_id": f"expert-a:{i}",
            "prefix_steps": [[f"restored obs {i}", f"act {i}"]],
            "created_at": created,
            "wins": wins,
            "uses": wins + losses,
        }
        for i, (created, wins, losses, _) in enumerate(rows)
    ]
    profile = restore_profiles(records, TrigramEmbedder(64), capacity)["expert-a"]
    episodes = [(i, losses, won) for i, (_, _, losses, won) in enumerate(rows) if losses]
    for i, count, won in episodes:
        record = EpisodeRecord(
            episode_id=f"e{i}",
            task_id="t",
            final_trajectory=Trajectory(),
            reward=1.0 if won else 0.0,
            success=won,
            retrievals=[("expert-a", f"expert-a:{i}", count)],
        )
        finalize_episode({"expert-a": profile}, record)
    remaining = profile.segments()
    expected = []
    while len(remaining) > capacity:
        victim = min(remaining, key=lambda seg: (profile.utility(seg), seg.created_at))
        remaining.remove(victim)
        expected.append(victim.segment_id)
    assert profile.prune() == expected
    assert profile.segments() == remaining


def old_rule_exemplar(profile: ExpertProfile, query: Query) -> SMSegment:
    """The exemplar rule over a copy of the segments: the highest utility
    among the tied best, then the smallest created_at, then the earliest."""
    sims = profile.match_scores(query)
    segments = profile.segments()
    tied = [segments[i] for i in np.flatnonzero(sims == sims.max())]
    return max(tied, key=lambda seg: (profile.utility(seg), -seg.created_at))


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2), st.integers(0, 5)),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 6),
    st.lists(st.integers(0, 5), max_size=4),
)
def test_exemplar_matches_the_tie_rule_over_restores_evictions_and_inserts(
    rows, capacity, inserts
):
    # Each row: created_at (repeats allowed), wins, losses and one of six
    # observations. A 4-bucket embedder makes similarity ties common.
    embedder = TrigramEmbedder(4)
    records = [
        {
            "expert_id": "expert-a",
            "segment_id": f"expert-a:r{i}",
            "prefix_steps": [[f"obs {text}", f"act {i}"]],
            "created_at": created,
            "wins": wins,
            "uses": wins + losses,
        }
        for i, (created, wins, losses, text) in enumerate(rows)
    ]
    profile = restore_profiles(records, embedder, capacity)["expert-a"]
    queries = [Query(Trajectory())]
    queries += [Query(make_trajectory([], pending=f"obs {text}")) for text in range(3)]

    def check():
        for query in queries:
            assert profile.exemplar(query) is old_rule_exemplar(profile, query)

    check()
    profile.prune()
    check()
    for text in inserts:
        profile.insert(make_trajectory([(f"obs {text}", "new act")]))
        check()
    profile.prune()
    check()
    assert ExpertProfile("empty").exemplar(Query(Trajectory())) is None


# -- persistence ---------------------------------------------------------------


def test_persistence_round_trip_is_exact():
    profile = fresh_profile()
    for i in range(3):
        seg = profile.insert(make_trajectory([(f"obs {i} text", f"act {i}")]))
        record_history(profile, seg.segment_id, [(i % 2 == 0, i + 1)])
    records = list(profile_records({"expert-a": profile.segments()}))
    restored = restore_profiles(records, embedder=TrigramEmbedder(64))
    assert list(profile_records({"expert-a": restored["expert-a"].segments()})) == records
    back = restored["expert-a"]
    assert [s.created_at for s in back.segments()] == [
        s.created_at for s in profile.segments()
    ]
    for mine, theirs in zip(profile.segments(), back.segments()):
        assert mine.text == theirs.text
        assert (mine.wins, mine.uses) == (theirs.wins, theirs.uses)


def test_restore_recomputes_embeddings_under_the_new_embedder():
    profile = fresh_profile()
    profile.insert(make_trajectory([("some text to embed", "move")]))
    records = profile_records({"expert-a": profile.segments()})
    wide = restore_profiles(records, embedder=TrigramEmbedder(128))["expert-a"]
    segment = wide.segments()[0]
    recomputed = wide.embedder.embed(segment.text)
    assert recomputed.shape == (128,)
    assert wide.match_scores(Query(parse_trajectory(segment.text))).tolist() == [
        similarity(recomputed, recomputed)
    ]


def test_restoring_over_capacity_keeps_every_record_until_a_prune():
    profile = fresh_profile(capacity=64)
    for i in range(12):
        seg = profile.insert(make_trajectory([(f"stored observation {i}", f"act {i}")]))
        record_history(profile, seg.segment_id, [(i % 3 == 0, 1), (i % 4 == 0, 1)])
    ranked = sorted(profile.segments(), key=lambda s: (profile.utility(s), s.created_at))
    kept = {s.segment_id for s in ranked[8:]}
    small = restore_profiles(
        profile_records({"expert-a": profile.segments()}), embedder=TrigramEmbedder(64), capacity=4
    )["expert-a"]
    ids = [s.segment_id for s in profile.segments()]
    assert [s.segment_id for s in small.segments()] == ids
    assert sorted(small.prune()) == sorted(s.segment_id for s in ranked[:8])
    assert [s.segment_id for s in small.segments()] == [i for i in ids if i in kept]
    brute_force_check(small, [Query(make_trajectory([], pending="stored observation 9"))])


# Field texts that the text form must escape or that look like its own tags.
tricky_text = st.one_of(
    field_text,
    st.lists(
        st.sampled_from(["", "\\", "\\n", "\n", "\r", "OBS: ", "ACT: ", "é", "€", "😀", "x"]),
        max_size=6,
    ).map("".join),
)


@settings(deadline=None)
@given(
    st.lists(
        # A record's prefix holds at least one step; an empty one exits 2.
        st.lists(st.tuples(tricky_text, tricky_text), min_size=1, max_size=3),
        min_size=1,
        max_size=5,
        unique_by=tuple,
    )
)
def test_records_of_any_field_text_come_back_unchanged(prefixes):
    # Each prefix is stored by two experts: a text repeats only across them.
    records = [
        {
            "expert_id": expert_id,
            "segment_id": f"{expert_id}:{i}",
            "prefix_steps": [[obs, act] for obs, act in pairs],
            "created_at": i,
            "wins": i % 2,
            "uses": 1,
        }
        for expert_id in ("expert-a", "expert-b")
        for i, pairs in enumerate(prefixes)
    ]
    profiles = restore_profiles(records, embedder=TrigramEmbedder(16))
    segments = {eid: profile.segments() for eid, profile in profiles.items()}
    assert list(profile_records(segments)) == records
    assert list(profile_records(read_segments(records))) == records


def test_the_reader_rejects_a_repeated_id_or_prefix_within_one_expert():
    def record(expert_id, segment_id, obs):
        return {
            "expert_id": expert_id,
            "segment_id": segment_id,
            "prefix_steps": [[obs, "act"]],
            "created_at": 0,
            "wins": 0,
            "uses": 0,
        }

    first = record("expert-a", "expert-a:0", "obs")
    with pytest.raises(ValueError, match="key 'segment_id': repeats 'expert-a:0' of 'expert-a'"):
        read_segments([first, record("expert-a", "expert-a:0", "other obs")])
    with pytest.raises(ValueError, match="key 'prefix_steps': repeats the prefix of 'expert-a:0'"):
        read_segments([first, record("expert-a", "expert-a:1", "obs")])
    both = read_segments([first, record("expert-b", "expert-a:0", "obs")])
    assert [(eid, [s.segment_id for s in segs]) for eid, segs in both.items()] == [
        ("expert-a", ["expert-a:0"]),
        ("expert-b", ["expert-a:0"]),
    ]


def test_a_created_at_the_index_cannot_hold_is_rejected_and_the_largest_leaves_room():
    def record(created_at):
        return {
            "expert_id": "expert-a",
            "segment_id": "expert-a:r",
            "prefix_steps": [["obs", "act"]],
            "created_at": created_at,
            "wins": 0,
            "uses": 0,
        }

    for created_at in (2**62, 2**63 - 1, 10**30):
        with pytest.raises(ValueError, match="key 'created_at'"):
            read_segments([record(created_at)])
    profile = restore_profiles([record(2**62 - 1)], TrigramEmbedder(16))["expert-a"]
    segment = profile.insert(make_trajectory([("a later observation", "act")]))
    assert segment.created_at == 2**62
    assert profile._created[1] == 2**62


def test_an_insert_writes_its_column_before_any_scan():
    profile = fresh_profile()
    for i in range(3):
        segment = profile.insert(make_trajectory([(f"observation {i}", f"act {i}")]))
        vector = profile.embedder.embed(segment.text)
        assert np.array_equal(profile._cols[:, i], vector)
        assert profile._norms[i] == np.linalg.norm(vector)
        assert profile._util[i] == profile.cold_start
        assert profile._created[i] == segment.created_at
