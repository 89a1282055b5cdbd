from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from council.embedding import TrigramEmbedder
from council.memory import _LOAD_BLOCK

from conftest import similarity


def test_embed_is_deterministic():
    emb = TrigramEmbedder()
    text = "OBS: numbers: 4 4 10 10\n"
    assert np.array_equal(emb.embed(text), emb.embed(text))


def test_empty_string_embeds_to_zeros():
    emb = TrigramEmbedder(dim=32)
    vec = emb.embed("")
    assert vec.shape == (32,)
    assert not vec.any()


def test_short_strings_embed_to_zeros():
    emb = TrigramEmbedder()
    assert not emb.embed("ab").any()


def test_distinct_strings_are_not_perfectly_similar():
    emb = TrigramEmbedder()
    a = emb.embed("alpha beta gamma")
    b = emb.embed("delta epsilon zeta")
    assert similarity(a, b) < 1.0


def test_similarity_identity():
    emb = TrigramEmbedder()
    v = emb.embed("some nonzero text")
    assert v.any()
    assert similarity(v, v) == pytest.approx(1.0)


def test_similarity_orthogonal_basis():
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    assert similarity(a, b) == 0.0


def test_similarity_hand_value():
    a = np.array([1.0, 1.0, 0.0])
    b = np.array([1.0, 0.0, 0.0])
    assert abs(similarity(a, b) - 1.0 / math.sqrt(2.0)) < 1e-12


def test_similarity_zero_vector_rule():
    z = np.zeros(3)
    v = np.array([1.0, 2.0, 3.0])
    assert similarity(z, v) == 0.0
    assert similarity(z, z) == 0.0


def test_similarity_dimension_mismatch():
    with pytest.raises(ValueError):
        similarity(np.zeros(3), np.zeros(4))


def test_dim_must_be_positive():
    with pytest.raises(ValueError):
        TrigramEmbedder(dim=0)


@given(st.text(min_size=0, max_size=60))
def test_embed_width_and_counts(text):
    emb = TrigramEmbedder(dim=64)
    vec = emb.embed(text)
    assert vec.shape == (64,)
    windows = max(0, len(text.encode("utf-8")) - 2)
    assert vec.sum() == windows
    # Whole, non-negative counts: what lets memory store them as unsigned integers.
    assert (vec >= 0).all() and np.array_equal(vec, np.rint(vec))


@given(
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5), min_size=4, max_size=4),
)
def test_similarity_is_bounded(xs, ys):
    value = similarity(np.array(xs), np.array(ys))
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


# Empty texts, texts of 1 or 2 bytes and multi-byte UTF-8 (é is 2 bytes, 中 3,
# 😀 4), so windows near a boundary between two texts are common.
_BATCH_TEXT = st.one_of(
    st.sampled_from(["", "a", "ab", "é", "中", "😀", "abc"]),
    st.text(alphabet="ab \né中😀", max_size=12),
)


def counted(emb: TrigramEmbedder, texts: list[str]) -> np.ndarray:
    """``texts`` counted into a fresh block whose every entry starts at 7,
    so a column the count leaves unzeroed shows."""
    block = np.full((emb.dim, _LOAD_BLOCK), 7, dtype=np.intp)
    emb.count_block(texts, block)
    return block


@given(st.lists(_BATCH_TEXT, max_size=12), st.sampled_from([1, 7, 64]))
@example(texts=[], dim=64)
@example(texts=[""], dim=64)
@example(texts=["ab"], dim=64)
@example(texts=["ab", "c"], dim=64)
@example(texts=["a", "", "bc", "é", "中"], dim=7)
def test_count_block_columns_equal_embed_bit_for_bit(texts, dim):
    """Every column of a counted block equals ``embed`` of its text, so no
    trigram is counted across two texts, whatever their lengths."""
    emb = TrigramEmbedder(dim=dim)
    block = counted(emb, texts)
    assert block.shape == (dim, _LOAD_BLOCK)
    assert block.dtype == np.intp
    assert not block[:, len(texts) :].any()
    for column, text in zip(block.T, texts):
        single = emb.embed(text)
        assert column.astype(np.float64).tobytes() == single.tobytes()
        assert np.array_equal(counted(emb, [text])[:, 0], single)


@pytest.mark.parametrize("second", [["ab"], ["a", "", "bc"], ["abcd", "中文字", "x" * 40]])
def test_a_reused_block_keeps_no_count_of_a_longer_block_before_it(second):
    emb = TrigramEmbedder(dim=16)
    block = np.empty((emb.dim, _LOAD_BLOCK), dtype=np.intp)
    emb.count_block([f"earlier text number {i}" for i in range(_LOAD_BLOCK)], block)
    emb.count_block(second, block)
    assert np.array_equal(block, counted(emb, second))
    for column, text in zip(block.T, second):
        assert np.array_equal(column, emb.embed(text))
