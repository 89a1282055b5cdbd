"""Text embedding for retrieval.

:class:`TrigramEmbedder` is the one embedder: it hashes character trigrams
into a fixed-width count vector. It is fully deterministic and needs no model
weights. Every component of its vectors is a whole, non-negative count,
which lets a success-memory index store them exactly in the narrowest
unsigned integer type that holds them. A query or a single insert embeds one
text as a float64 vector; a memory load counts many texts straight into the
integer columns of a block it reuses.
"""

from __future__ import annotations

import numpy as np


def _trigram_buckets(codes: np.ndarray, dim: int) -> np.ndarray:
    """The bucket of every window of three consecutive bytes in ``codes``
    (a uint64 array), as intp indices below ``dim``."""
    # Fixed mixing constants; uint64 wraparound is well defined in numpy,
    # so the bucket assignment is identical on every platform.
    h = codes[:-2] * np.uint64(1000003)
    h = (h + codes[1:-1]) * np.uint64(1000003)
    h = (h + codes[2:]) * np.uint64(2654435761)
    return (h % np.uint64(dim)).astype(np.intp)


class TrigramEmbedder:
    """Hashed character-trigram counts.

    Every window of three consecutive bytes of the text's UTF-8 encoding is
    hashed into one of ``dim`` buckets with a fixed polynomial, and the
    vector counts bucket hits. Texts shorter than three bytes embed to the
    zero vector, which retrieval scores 0 against everything.

    ``count_block`` counts the trigrams of many texts into the columns of
    one bucket-major integer block that the caller reuses, and never lets a
    window span two texts, so its column i equals ``embed(texts[i])``. It
    pays a fixed cost that one short text does not repay, so single texts
    go through ``embed``.
    """

    def __init__(self, dim: int = 256):
        if dim < 1:
            raise ValueError("embedding dimension must be positive")
        self.dim = dim

    def embed(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=np.float64)
        data = text.encode("utf-8")
        if len(data) < 3:
            return vec
        codes = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        np.add.at(vec, _trigram_buckets(codes, self.dim), 1.0)
        return vec

    def count_block(self, texts: list[str], block: np.ndarray) -> None:
        """Zero ``block``, a C-contiguous integer array of shape ``(dim,
        width)`` with ``width >= len(texts)``, and count the trigrams of
        ``texts[i]`` into its column i."""
        block.fill(0)
        encoded = [text.encode("utf-8") for text in texts]
        data = b"".join(encoded)
        if len(data) < 3:
            return
        lengths = np.fromiter(map(len, encoded), dtype=np.intp, count=len(encoded))
        # Each window of the joined bytes belongs to the text it starts in,
        # and counts only if it also ends there.
        rows = np.repeat(np.arange(len(encoded), dtype=np.intp), lengths)[:-2]
        inside = np.arange(2, len(data), dtype=np.intp) < np.cumsum(lengths)[rows]
        codes = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        flat = _trigram_buckets(codes, self.dim)[inside] * block.shape[1] + rows[inside]
        np.add.at(block.reshape(-1), flat, 1)
