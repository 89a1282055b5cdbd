"""Per-expert success memory.

Each expert owns a profile of segments. A segment is a trajectory prefix that
ended up inside some successful episode's final trajectory, attributed to the
expert whose action completed the prefix, and kept as the prefix's serialized
text. Alongside the text the segment keeps two counts over the finished
episodes that looked it up: ``uses``, how many lookups they made, and
``wins``, how many of those came from episodes that succeeded.

The counts turn raw recall into a value estimate. A segment's utility is the
usage-weighted success rate ``wins / uses`` of the episodes that retrieved
it, so segments that keep getting pulled into failing episodes decay toward 0
while segments that keep appearing in wins approach 1. A segment nobody has
finished an episode with yet sits at the cold-start prior. An episode's
lookups wait in its :class:`EpisodeContext` and reach the segments only when
:func:`finalize_episode` knows the outcome.

Every lookup scans a profile through a :class:`Query`, the retrieval state
of one search node. The query computes what depends on it alone once, on
first use (its embedding, that vector's sparse form and norm, and its
difference from its parent's), so a node scanned against every profile of a
council does that work once, not once per profile. A scan multiplies whole
trigram counts in unsigned integers wide enough for every dot product, so
every similarity is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from .embedding import TrigramEmbedder
from .errors import InvalidStateError
from .trajectory import (
    EpisodeRecord,
    Trajectory,
    decompose_prefixes,
    parse_trajectory,
    serialize_step,
    serialize_trajectory,
)

# The defaults of every profile, memory file load and run configuration.
DEFAULT_CAPACITY = 512
DEFAULT_COLD_START = 0.5
# A scan gathers and multiplies at most this many index rows at a time, so
# the gathered block stays small whatever the query's length.
_SCAN_ROWS = 128
# A restore counts and writes this many segments at a time, through one
# count block of embedder.dim by _LOAD_BLOCK intp counts that it allocates
# once (0.5 MB at width 1024). At 512 columns a block reaches 4 MB, the size
# from which numpy asks for huge pages, which raised a loaded run's peak RSS
# by about 10 MB.
_LOAD_BLOCK = 64
# The index keeps created_at in int64. A loaded created_at stays below this,
# which leaves room for the inserts that count on past the loaded maximum.
_CREATED_LIMIT = 2**62


@dataclass
class SMSegment:
    """A stored success-memory segment: its prefix as canonical serialized
    text (see :func:`~council.trajectory.serialize_trajectory`) and the
    retrieval counts of the finished episodes that looked it up. The text is
    what dedupes, embeds and is cited as an exemplar; ``parse_trajectory``
    gives the steps back. Its embedding lives only in the owning profile's
    index."""

    segment_id: str
    text: str
    created_at: int
    wins: int = 0
    uses: int = 0


def sms_utility(segment: SMSegment, cold_start: float = DEFAULT_COLD_START) -> float:
    """Usage-weighted success rate over the episodes that retrieved the segment.

    Lookups by episodes not yet finalized are not counted. With no finished
    lookups at all the cold-start prior is returned.
    """
    if segment.uses == 0:
        return cold_start
    return segment.wins / segment.uses


class _Scan(NamedTuple):
    """One scan a query holds: the index version it read, its integer dot
    products, and its similarities."""

    version: int
    dots: np.ndarray
    sims: np.ndarray


class _Terms(NamedTuple):
    """The nonzero entries of a whole-number vector, the form a scan
    multiplies: their buckets, their counts as int64, and ``‖·‖₁``."""

    buckets: np.ndarray
    counts: np.ndarray
    l1: int


def _terms(vector: np.ndarray) -> _Terms:
    buckets = vector.nonzero()[0]
    counts = vector[buckets].astype(np.int64)
    return _Terms(buckets, counts, int(np.abs(counts).sum()))


_NARROW = ((np.uint16, int(np.iinfo(np.uint16).max)), (np.uint32, int(np.iinfo(np.uint32).max)))


def _accumulator(bound: int) -> type[np.unsignedinteger]:
    """The narrowest of uint16, uint32 and uint64 that holds ``bound``."""
    for dtype, top in _NARROW:
        if bound <= top:
            return dtype
    return np.uint64


class Query:
    """The retrieval state of one search node.

    It holds the node's trajectory and, for each profile it was scanned
    against, that scan's result, tagged with the profile's index version.
    ``parent`` is the query of the node this one extends, or None. Whatever
    a scan needs of the query alone is computed once, on first use, and
    kept: the embedding of its serialized text, that vector's sparse form
    (its nonzero buckets, their integer counts and ``‖q‖₁``) and norm, and
    for a query with a parent the sparse form of its difference from the
    parent's vector, whose counts may be negative. A query holds one
    embedding, since every profile of a run shares one embedder; a profile
    whose width differs refuses it. A search builds one query per node, so
    the state lives and dies with its tree and only that search's thread
    touches it: a scan writes to its query, and only reads the profile.
    """

    __slots__ = ("trajectory", "parent", "_vector", "_sparse", "_norm", "_delta", "_scans")

    def __init__(self, trajectory: Trajectory, parent: Query | None = None):
        self.trajectory = trajectory
        self.parent = parent
        self._vector: np.ndarray | None = None
        self._sparse: _Terms | None = None
        self._norm = 0.0
        self._delta: _Terms | None = None
        self._scans: dict[ExpertProfile, _Scan] = {}

    def vector(self, embedder: TrigramEmbedder) -> np.ndarray:
        """The embedding of the serialized trajectory, computed once, by
        ``embedder`` on the first call."""
        if self._vector is None:
            self._vector = embedder.embed(serialize_trajectory(self.trajectory))
        return self._vector

    def _sparse_terms(self, embedder: TrigramEmbedder) -> _Terms:
        """The vector's sparse form, computed once, with its norm."""
        if self._sparse is None:
            vector = self.vector(embedder)
            # np.linalg.norm's own arithmetic for a float64 vector.
            self._norm = math.sqrt(vector.dot(vector))
            self._sparse = _terms(vector)
        return self._sparse

    def _delta_terms(self, embedder: TrigramEmbedder) -> _Terms:
        """The sparse form of the vector minus the parent's, computed once."""
        if self._delta is None:
            self._delta = _terms(self.vector(embedder) - self.parent.vector(embedder))
        return self._delta


class ExpertProfile:
    """The segment store for a single expert.

    Lookups are exact cosine scans over an index updated in place: one
    bucket-major matrix of shape ``(embedder.dim, slots)``, whose column per
    slot holds a segment's embedding, and the norm of each column, kept as
    infinity for an all-zero column so that its scores divide to 0. Slots
    follow insertion order, so the first maximum is the earliest-inserted
    segment among ties. One block write gives new segments their slots and
    columns: an insert writes a block of one, and a restore makes room for
    all its segments at once and then counts and writes them a block at a
    time, leaving the index that writing them one at a time would leave.

    An eviction only marks its slot dead. Dead slots are never returned, and
    the live slots are compacted in order when the matrix runs out of slots
    or when a prune leaves more dead slots than live ones. The matrix grows
    fourfold, except that the growth that reaches ``capacity`` stops at
    ``capacity + capacity // 8`` slots, so a profile held at capacity keeps
    one matrix size. Each slot also keeps its segment's utility and creation
    index, so a prune ranks the live slots with one array sort.

    The matrix holds trigram counts in the narrowest unsigned integer type
    that holds the largest count ever written to it,
    ``np.min_scalar_type(peak)``: uint8 up to 255, then uint16, then uint32.
    A block write that would pass the current type first widens the whole
    matrix, and only then writes its columns, since numpy casts a count that
    does not fit without a warning.

    A scan multiplies only the matrix rows of the query's nonzero buckets,
    at most ``_SCAN_ROWS`` rows at a time, in integers. Its accumulator is
    the narrowest of uint16, uint32 and uint64 that holds the query's
    ``‖q‖₁`` times the largest count ever written to the matrix, a bound on
    every dot product, so no dot wraps (uint64 holds it for any two texts
    below 4 GB). The dots are converted to float64 only to divide by the
    norms, and every dot below 2**53 converts exactly, so the scores equal
    a dense float64 product bit for bit.

    Anything that moves or adds a slot (an insert, a restore, a prune that
    evicts, a compaction) bumps the profile's ``version``; credits change
    utilities only, so they keep it. Every read (``best_match``,
    ``exemplar``, ``match_scores``) takes a :class:`Query`, the retrieval
    state a search node holds. A scan leaves its result on the query,
    tagged with the version, and a repeated scan at that version reads it
    back. When the query's parent holds a scan of this profile at the
    current version, the scan multiplies only the rows where the two
    vectors differ and adds the products to the parent's dots, in the
    query's own accumulator. That sum is taken modulo the accumulator's
    range, 2**k, and the query's true dots lie in [0, 2**k), so a delta
    with negative counts, or parent dots held in a wider type, still give
    the scores of a full scan bit for bit, whatever text the parent holds.
    Any other scan is a full scan. What a scan needs of the query alone,
    the query computes once (see :class:`Query`), so per profile a scan
    makes one shape check, picks its accumulator, and takes the product
    and the division. The profile itself keeps no per-query state.

    A profile takes no lock: many threads may read it at once, but a write
    (insert, restore, credit, prune) runs on one thread with no reader
    running at the same time, as :func:`~council.harness.run_tasks` enforces.
    """

    def __init__(
        self,
        expert_id: str,
        capacity: int = DEFAULT_CAPACITY,
        embedder: TrigramEmbedder | None = None,
        cold_start: float = DEFAULT_COLD_START,
    ):
        if capacity < 1:
            raise ValueError("profile capacity must be at least 1")
        self.expert_id = expert_id
        self.capacity = capacity
        self.embedder = embedder if embedder is not None else TrigramEmbedder()
        self.cold_start = cold_start
        self._by_text: dict[str, str] = {}
        self._next_created = 0
        # The segment table and index: slot i holds _slots[i] (None once
        # evicted), _slot_of maps each stored segment id to its slot, and
        # the slot's embedding is column i of _cols. _util and _created hold
        # each slot's utility and created_at.
        self._cols = np.zeros((self.embedder.dim, 0), dtype=np.uint8)
        self._norms = np.zeros(0, dtype=np.float64)
        self._live = np.zeros(0, dtype=bool)
        self._util = np.zeros(0, dtype=np.float64)
        self._created = np.zeros(0, dtype=np.int64)
        self._peak = 0
        self._slots: list[SMSegment | None] = []
        self._slot_of: dict[str, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, segment_id: str) -> bool:
        return segment_id in self._slot_of

    @property
    def _dead(self) -> int:
        """Evicted slots not yet compacted away."""
        return len(self._slots) - len(self._slot_of)

    def segments(self) -> list[SMSegment]:
        """Segments in insertion order."""
        return [segment for segment in self._slots if segment is not None]

    def utility(self, segment: SMSegment) -> float:
        return sms_utility(segment, cold_start=self.cold_start)

    # -- insertion ----------------------------------------------------------

    def insert(self, prefix: Trajectory) -> SMSegment:
        """Store a prefix, merging into the existing segment when the exact
        serialization is already present."""
        if prefix.pending is not None:
            raise ValueError("stored prefixes must not carry a pending observation")
        text = serialize_trajectory(prefix)
        existing = self._by_text.get(text)
        if existing is not None:
            return self._slots[self._slot_of[existing]]
        created = self._next_created
        segment_id = f"{self.expert_id}:{created}"
        while segment_id in self._slot_of:
            created += 1
            segment_id = f"{self.expert_id}:{created}"
        segment = SMSegment(segment_id=segment_id, text=text, created_at=created)
        self._make_room(1)
        self._add_block([segment], self.embedder.embed(text)[:, np.newaxis])
        return segment

    def _restore(self, segments: Iterable[SMSegment]) -> None:
        """Used by persistence: re-attach segments read from a file, whose
        ids and texts :func:`read_segments` has already checked are unique.
        Room is made once for all of them. They are then counted a block at
        a time into one bucket-major integer block, allocated once per
        restore, and each block is written to the index that writing them
        one at a time makes."""
        segments = list(segments)
        block = np.empty((self.embedder.dim, _LOAD_BLOCK), dtype=np.intp)
        self._make_room(len(segments))
        for start in range(0, len(segments), _LOAD_BLOCK):
            part = segments[start : start + _LOAD_BLOCK]
            self.embedder.count_block([s.text for s in part], block)
            self._add_block(part, block[:, : len(part)])

    def _add_block(self, segments: list[SMSegment], counts: np.ndarray) -> None:
        """Give new segments the next slots in order and write their columns:
        ``counts`` holds their whole-number trigram counts column-wise,
        ``(dim, len(segments))``, in any numeric dtype. Room has been
        made."""
        first = len(self._slots)
        stop = first + len(segments)
        peak = int(counts.max())
        if peak > self._peak:
            self._peak = peak
            # Widen before the write: a count past the type would wrap.
            dtype = np.min_scalar_type(peak)
            if dtype != self._cols.dtype:
                self._cols = self._cols.astype(dtype)
        for slot, segment in enumerate(segments, first):
            self._by_text[segment.text] = segment.segment_id
            self._slot_of[segment.segment_id] = slot
        self._slots += segments
        self._cols[:, first:stop] = counts
        # Whole counts: each sum of squares is exact, so its float64 square
        # root has the bits of np.linalg.norm's.
        norms = np.sqrt(np.einsum("ij,ij->j", counts, counts))
        self._norms[first:stop] = np.where(norms > 0.0, norms, np.inf)
        self._live[first:stop] = True
        self._util[first:stop] = [self.utility(segment) for segment in segments]
        created = [segment.created_at for segment in segments]
        self._created[first:stop] = created
        self._next_created = max(self._next_created, max(created) + 1)
        self.version += 1

    def credit(self, segment_id: str, count: int, success: bool) -> None:
        """Add ``count`` finished lookups of a segment to its ``uses``, and on
        success to its ``wins``. An unknown segment is an invalid state."""
        if segment_id not in self._slot_of:
            raise InvalidStateError(f"retrieval references unknown segment: {segment_id}")
        slot = self._slot_of[segment_id]
        segment = self._slots[slot]
        segment.uses += count
        if success:
            segment.wins += count
        self._util[slot] = self.utility(segment)

    # -- the index ------------------------------------------------------------

    def _make_room(self, count: int) -> None:
        """Make room for ``count`` new slots as adding them one by one would:
        compact when the matrix runs out of slots, then grow it while they
        still do not fit. The matrix is padded once."""
        size = self._cols.shape[1]
        if len(self._slots) + count <= size:
            return
        if self._dead:
            self._compact()
        limit = self.capacity + self.capacity // 8
        grown = size
        while len(self._slots) + count > grown:
            step = max(1, 4 * grown)
            grown = limit if grown < limit and step >= self.capacity else step
        if grown == size:
            return
        self._cols = np.pad(self._cols, ((0, 0), (0, grown - size)))
        for name in ("_norms", "_live", "_util", "_created"):
            setattr(self, name, np.pad(getattr(self, name), (0, grown - size)))

    def _compact(self) -> None:
        """Move the live slots to the front, in order."""
        keep = np.flatnonzero(self._live[: len(self._slots)])
        kept = len(keep)
        # Row by row, so the copy needs one row of scratch, not a matrix.
        for row in self._cols:
            row[:kept] = row[keep]
        for column in (self._norms, self._util, self._created):
            column[:kept] = column[keep]
        self._live[:kept] = True
        self._slots = [segment for segment in self._slots if segment is not None]
        self._slot_of = {segment.segment_id: i for i, segment in enumerate(self._slots)}
        self.version += 1

    # -- retrieval ----------------------------------------------------------

    def _scan(self, query: Query) -> np.ndarray:
        """Cosine similarity of the query against every slot, dead ones
        included, as a read-only array, which the query keeps. A scan
        the query holds at this version is read back; a query whose parent
        holds a scan at this version adds the rows where the two vectors
        differ to the parent's dots; any other scan is a full scan."""
        held = query._scans.get(self)
        if held is not None and held.version == self.version:
            return held.sims
        vector = query.vector(self.embedder)
        if vector.shape != self._cols.shape[:1]:
            raise ValueError(
                f"dimension mismatch: query {vector.shape} vs index {self._cols.shape[:1]}"
            )
        terms = query._sparse_terms(self.embedder)
        acc = _accumulator(terms.l1 * self._peak)
        count = len(self._slots)
        parent = query.parent
        base = parent._scans.get(self) if parent is not None else None
        if base is not None and base.version == self.version:
            # astype wraps the parent's dots modulo 2**k, as the sum does.
            dots = base.dots.astype(acc)
            dots += self._product(query._delta_terms(self.embedder), acc, count)
        else:
            dots = self._product(terms, acc, count)
        if query._norm == 0.0:
            sims = np.zeros(count, dtype=np.float64)
        else:
            sims = dots / (self._norms[:count] * query._norm)
        sims.flags.writeable = False
        query._scans[self] = _Scan(self.version, dots, sims)
        return sims

    def _product(self, terms: _Terms, acc: type[np.unsignedinteger], count: int) -> np.ndarray:
        """The counts of ``terms`` times their matrix rows, summed over the
        first ``count`` slots in the unsigned dtype ``acc`` and so modulo
        its range. The first chunk's product starts the sum."""
        # A negative count wraps to its residue modulo 2**k.
        counts = terms.counts.astype(acc)
        dots = None
        for start in range(0, len(counts), _SCAN_ROWS):
            stop = start + _SCAN_ROWS
            rows = self._cols[terms.buckets[start:stop], :count]
            part = np.einsum("i,ij->j", counts[start:stop], rows, dtype=acc, casting="unsafe")
            if dots is None:
                dots = part
            else:
                dots += part
        return np.zeros(count, dtype=acc) if dots is None else dots

    def _live_scan(self, query: Query) -> np.ndarray | None:
        """The query's scan with evicted slots at -inf, or None on an empty
        profile."""
        if not self._slot_of:
            return None
        sims = self._scan(query)
        return np.where(self._live[: len(self._slots)], sims, -np.inf) if self._dead else sims

    def match_scores(self, query: Query) -> np.ndarray:
        """Similarity of the query against every segment, in insertion order.
        The array is read-only."""
        sims = self._scan(query)
        return sims[self._live[: len(self._slots)]] if self._dead else sims

    def best_match(self, query: Query) -> tuple[SMSegment, float] | None:
        """The stored segment most similar to the query, with its score.

        Ties are resolved toward the earliest-inserted segment. Returns None
        on an empty profile.
        """
        sims = self._live_scan(query)
        if sims is None:
            return None
        slot = int(np.argmax(sims))
        return self._slots[slot], float(sims[slot])

    def exemplar(self, query: Query) -> SMSegment | None:
        """The segment to cite as an exemplar for the query: among the
        segments tied on the top similarity, the highest utility wins, then
        the smallest ``created_at``, then the earliest inserted. Returns None
        on an empty profile."""
        sims = self._live_scan(query)
        if sims is None:
            return None
        tied = np.flatnonzero(sims == sims.max())
        if len(tied) > 1:
            # lexsort is stable and sorts by its last key first.
            tied = tied[np.lexsort((self._created[tied], -self._util[tied]))]
        return self._slots[tied[0]]

    # -- capacity -----------------------------------------------------------

    def prune(self) -> list[str]:
        """Evict lowest-utility segments until within capacity.

        Utility ties evict the oldest segment first, and a remaining tie the
        earliest inserted. Returns the evicted ids.
        """
        excess = len(self._slot_of) - self.capacity
        if excess <= 0:
            return []
        live = np.flatnonzero(self._live[: len(self._slots)])
        # The first excess of the full order all have a utility at or
        # below the excess-th smallest, so only those slots are ranked.
        util = self._util[live]
        live = live[util <= np.partition(util, excess - 1)[excess - 1]]
        # lexsort is stable and sorts by its last key first.
        ranked = live[np.lexsort((self._created[live], self._util[live]))[:excess]]
        victims = []
        for slot in ranked.tolist():
            victim = self._slots[slot]
            victims.append(victim.segment_id)
            del self._by_text[victim.text]
            del self._slot_of[victim.segment_id]
            self._slots[slot] = None
        self._live[ranked] = False
        self.version += 1
        if self._dead > len(self._slot_of):
            self._compact()
        return victims


class EpisodeContext:
    """Per-episode retrieval bookkeeping.

    Routing and value lookups funnel their profile consultations through one
    context, which counts them per (expert, segment) until the episode's
    finalize step credits them to the segments. Retrieval order of first
    touch is preserved.
    """

    def __init__(self, episode_id: str):
        self.episode_id = episode_id
        self._counts: dict[tuple[str, str], int] = {}

    def record(self, profile: ExpertProfile, segment_id: str) -> None:
        if segment_id not in profile:
            raise ValueError(f"unknown segment id: {segment_id}")
        key = (profile.expert_id, segment_id)
        self._counts[key] = self._counts.get(key, 0) + 1

    def retrievals(self) -> list[tuple[str, str, int]]:
        return [(eid, sid, count) for (eid, sid), count in self._counts.items()]


# ---------------------------------------------------------------------------
# Episode finalization
# ---------------------------------------------------------------------------


def finalize_episode(profiles: Mapping[str, ExpertProfile], record: EpisodeRecord) -> None:
    """Close the books on one episode.

    Credits each of the episode's retrievals to its segment (every lookup
    adds to ``uses``, and on success to ``wins``), then on success stores
    each prefix of the final trajectory into the profile of the expert whose
    action completed it, and finally prunes any profile the insertions pushed
    over capacity. A retrieval that points at a missing profile or segment
    means the caller's bookkeeping and the stores disagree, which is reported
    as an invalid state.
    """
    for expert_id, segment_id, count in record.retrievals:
        profile = profiles.get(expert_id)
        if profile is None:
            raise InvalidStateError(f"retrieval references unknown expert: {expert_id}")
        profile.credit(segment_id, count, record.success)

    if record.success:
        touched: set[str] = set()
        prefixes = decompose_prefixes(record.final_trajectory)
        for step_index, prefix in enumerate(prefixes):
            expert_id = record.per_step_expert[step_index]
            profile = profiles.get(expert_id)
            if profile is None:
                raise InvalidStateError(f"final trajectory names unknown expert: {expert_id}")
            profile.insert(prefix)
            touched.add(expert_id)
        for expert_id in touched:
            profile = profiles[expert_id]
            if len(profile) > profile.capacity:
                profile.prune()


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
#
# One JSON object per line. Embeddings are never stored; they are recomputed
# from the prefix text on load, so a store written at one embedding width can
# be reopened at another.


def profile_records(segments: Mapping[str, Iterable[SMSegment]]) -> Iterator[dict]:
    """Flatten each expert's segments (a profile's ``segments()``, or a list
    from :func:`read_segments`) into persistence records, ordered by expert
    id, then ``created_at``, then the order given. The records are yielded
    one at a time, so a writer holds one record, not the whole store."""
    return (
        {
            "expert_id": expert_id,
            "segment_id": segment.segment_id,
            "prefix_steps": [
                [step.observation.text, step.action.text]
                for step in parse_trajectory(segment.text).steps
            ],
            "created_at": segment.created_at,
            "wins": segment.wins,
            "uses": segment.uses,
        }
        for expert_id in sorted(segments)
        for segment in sorted(segments[expert_id], key=lambda s: s.created_at)
    )


_RECORD_KEYS = ("expert_id", "segment_id", "prefix_steps", "created_at", "wins", "uses")


def _check(ok: bool, key: str, expected: str) -> None:
    if not ok:
        raise ValueError(f"key '{key}': expected {expected}")


def segment_from_record(record: object) -> tuple[str, SMSegment]:
    """Check one persistence record field by field and build its segment,
    returned with its expert id. An unknown key, then a missing key or a bad
    field, raises ValueError naming the key."""
    if not isinstance(record, dict):
        raise ValueError("expected an object")
    unknown = record.keys() - _RECORD_KEYS
    if unknown:
        raise ValueError(f"unknown key '{min(unknown)}'")
    for key in _RECORD_KEYS:
        if key not in record:
            raise ValueError(f"missing key '{key}'")
    for key in ("expert_id", "segment_id"):
        _check(isinstance(record[key], str) and record[key] != "", key, "a non-empty string")
    pairs, created = record["prefix_steps"], record["created_at"]
    _check(
        isinstance(pairs, list)
        and pairs != []
        and all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)
            for p in pairs
        ),
        "prefix_steps",
        "a non-empty list of [observation, action] string pairs",
    )
    _check(
        type(created) is int and 0 <= created < _CREATED_LIMIT,
        "created_at",
        "an integer >= 0 and below 2**62",
    )
    wins, uses = record["wins"], record["uses"]
    _check(type(uses) is int and uses >= 0, "uses", "an integer >= 0")
    _check(type(wins) is int and 0 <= wins <= uses, "wins", "an integer from 0 to 'uses'")
    text = "".join(serialize_step(obs, act) for obs, act in pairs)
    return record["expert_id"], SMSegment(record["segment_id"], text, created, wins, uses)


def read_segments(
    records: Iterable[object], expert_ids: Collection[str] | None = None
) -> dict[str, list[SMSegment]]:
    """Check persistence records one by one and group their segments by
    expert id, each list in record order. A malformed record, an expert id
    outside ``expert_ids`` when it is given, or a segment id or prefix that
    repeats one of the same expert, raises ValueError naming the key at
    fault as soon as that record is read."""
    segments: dict[str, list[SMSegment]] = {}
    # Per expert: its segment ids, and the id of the segment holding each text.
    seen: dict[str, tuple[set[str], dict[str, str]]] = {}
    for record in records:
        expert_id, segment = segment_from_record(record)
        if expert_ids is not None and expert_id not in expert_ids:
            raise ValueError(f"key 'expert_id': '{expert_id}' names no council member")
        ids, texts = seen.setdefault(expert_id, (set(), {}))
        if segment.segment_id in ids:
            raise ValueError(f"key 'segment_id': repeats '{segment.segment_id}' of '{expert_id}'")
        if segment.text in texts:
            raise ValueError(f"key 'prefix_steps': repeats the prefix of '{texts[segment.text]}'")
        ids.add(segment.segment_id)
        texts[segment.text] = segment.segment_id
        segments.setdefault(expert_id, []).append(segment)
    return segments


def restore_profiles(
    records: Iterable[object],
    embedder: TrigramEmbedder | None = None,
    capacity: int = DEFAULT_CAPACITY,
    cold_start: float = DEFAULT_COLD_START,
    expert_ids: Collection[str] | None = None,
) -> dict[str, ExpertProfile]:
    """Rebuild profiles from persistence records, read and checked by
    :func:`read_segments` before any is embedded, recomputing embeddings.

    Every record is kept, even past a profile's capacity: a run prunes what
    it loads, a copy of the file does not.
    """
    embedder = embedder if embedder is not None else TrigramEmbedder()
    profiles: dict[str, ExpertProfile] = {}
    for expert_id, segments in read_segments(records, expert_ids).items():
        profile = ExpertProfile(expert_id, capacity, embedder, cold_start)
        profile._restore(segments)
        profiles[expert_id] = profile
    return profiles
