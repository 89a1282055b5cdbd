"""Text embedding providers for retrieval.

The package does not depend on any particular embedding model. Anything with
an ``embed(text) -> ndarray`` method and a fixed ``dim`` works, including a
network-backed provider. The bundled :class:`TrigramEmbedder` hashes character
trigrams into a fixed-width count vector; it is fully deterministic, needs no
model weights, and is what every offline test and scripted run uses. An
embedder whose vectors only ever hold whole numbers may say so with a true
``integer_output`` class attribute.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np


class Embedder(Protocol):
    dim: int

    def embed(self, text: str) -> np.ndarray:
        """Map text to a fixed-dimension float vector.

        Deterministic for a given provider instance. Providers backed by a
        remote service raise ProviderError on transient failure so callers
        can distinguish retriable trouble from bad input.
        """
        ...


class TrigramEmbedder:
    """Hashed character-trigram counts.

    Every window of three consecutive characters is hashed into one of ``dim``
    buckets with a fixed polynomial, and the vector counts bucket hits.
    Strings shorter than three characters embed to the zero vector, which
    retrieval scores 0 against everything.
    """

    # Every component is a whole number, which lets a success-memory index
    # store these vectors exactly in float32.
    integer_output = True

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
        # Fixed mixing constants; uint64 wraparound is well defined in numpy,
        # so the bucket assignment is identical on every platform.
        h = codes[:-2] * np.uint64(1000003)
        h = (h + codes[1:-1]) * np.uint64(1000003)
        h = (h + codes[2:]) * np.uint64(2654435761)
        np.add.at(vec, (h % np.uint64(self.dim)).astype(np.intp), 1.0)
        return vec

